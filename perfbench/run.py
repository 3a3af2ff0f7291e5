#!/usr/bin/env python3
"""singforms benchmark: one workload per process, timed end to end or traced.

    python3 perfbench/run.py --workload corpus|forms|invariants
                             [--seed 42] [--seconds 20] [--trace 0|1]

Run from the root of a source checkout; the package is imported from
``src/``.  A run measures whole passes over the workload's inputs until the
next pass would end after ``--seconds`` (at least one pass), checks every
output after its pass, outside the timed window, and prints the metrics as
the last line of standard output, one JSON object.  ``--trace 0`` gives the
end-to-end metrics, ``--trace 1`` the per-layer metrics of a separate traced
run and writes its spans to ``perfbench/out/``.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_PROBES = 7


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=("corpus", "forms", "invariants"))
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # internal: build the inputs in a fresh process and exit (times set-up)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "singforms" / "__init__.py").is_file():
        print(f"singforms sources not found in {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    workdir = OUT / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    try:
        if args.setup_probe:
            workloads.build(args.workload, args.seed, workdir)
            return 0
        setup = [] if args.trace else [_time_setup(args) for _ in range(SETUP_PROBES)]
        inputs = workloads.build(args.workload, args.seed, workdir)
        tracer = None
        if args.trace:
            from tracer import Tracer

            tracer = Tracer()
            tracer.install()
        passes = run_passes(inputs, args.seconds, tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(len(p["times"]) for p in passes)
    failed = sum(p["failed"] for p in passes)
    correct = not any(p["wrong"] for p in passes)
    if tracer is None:
        metrics = {
            "setup_s": (statistics.median(setup), "s"),
            "pass_s": (_median(passes, "pass_s"), "s"),
            "instance_median_s": (
                statistics.median(statistics.median(p["times"]) for p in passes), "s"
            ),
            "instance_max_s": (statistics.median(max(p["times"]) for p in passes), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
    else:
        tracer.uninstall()
        metrics = _layer_metrics(tracer, passes)
        OUT.mkdir(parents=True, exist_ok=True)
        trace_path = OUT / f"trace-{args.workload}-seed{args.seed}.jsonl"
        tracer.write_jsonl(trace_path)
        print(f"spans: {len(tracer.spans)} written to {trace_path}")

    for name, (value, unit) in metrics.items():
        print(f"{name:40s} {value:>14.6g} {unit}")
    print(f"passes {len(passes)}  attempted {attempted}  failed {failed}  correct {correct}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def _time_setup(args) -> float:
    cmd = [
        sys.executable, str(HERE / "run.py"), "--setup-probe",
        "--workload", args.workload, "--seed", str(args.seed),
    ]
    t0 = time.perf_counter()
    subprocess.run(cmd, cwd=ROOT, check=True, timeout=120, stdout=subprocess.DEVNULL)
    return time.perf_counter() - t0


def run_passes(inputs, seconds, tracer=None) -> list:
    """Whole passes until the next one would end after ``seconds``."""
    passes = []
    start = time.perf_counter()
    while True:
        ids = [f"pass{len(passes)}/{inp.name}" for inp in inputs]
        results, times = [], []
        t_pass = time.perf_counter()
        for inp, op_id in zip(inputs, ids):
            if tracer is not None:
                tracer.current = op_id
            t0 = time.perf_counter()
            try:
                results.append((inp.run(), None))
            except Exception as exc:  # a failing input is counted, not fatal
                results.append((None, f"{type(exc).__name__}: {exc}"))
            times.append(time.perf_counter() - t0)
            if tracer is not None:
                tracer.current = None
        pass_s = time.perf_counter() - t_pass

        failed = wrong = 0
        for inp, op_id, (out, error) in zip(inputs, ids, results):
            failures, mismatches = ([error], []) if error else inp.check(out)
            for problem in failures + mismatches:
                print(f"{op_id}: {problem}", file=sys.stderr)
            failed += bool(failures or mismatches)
            wrong += bool(mismatches)
        passes.append({"pass_s": pass_s, "times": times, "ids": ids,
                       "failed": failed, "wrong": wrong})
        if time.perf_counter() - start + pass_s > seconds:
            return passes


def _median(passes, key):
    return statistics.median(p[key] for p in passes)


def _layer_metrics(tracer, passes) -> dict:
    from tracer import layer_metrics

    per_pass = [layer_metrics(tracer.spans, tracer.linalg, p["ids"]) for p in passes]
    metrics = {"trace.pass_s": (_median(passes, "pass_s"), "s")}
    for name in sorted(per_pass[0]):
        unit = "s" if name.endswith("_s") else "count"
        metrics[name] = (statistics.median(m[name] for m in per_pass), unit)
    return metrics


if __name__ == "__main__":
    sys.exit(main())
