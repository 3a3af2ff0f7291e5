#!/usr/bin/env python3
"""Run the built-in corpus and write one full report per instance.

Usage:
    python scripts/run_corpus.py [--out-dir reports] [--seed 42] [--only NAME]

This is a thin driver over the library pipeline; the same checks run in
``singforms verify-corpus`` and in tests/test_acceptance.py.
"""

import argparse
import pathlib
import sys
import time

from singforms.cli import render_report
from singforms.corpus import CORPUS
from singforms.pipeline import AnalysisConfig, analyze
from singforms.residuefn import LimitConfig


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out-dir", default="reports")
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--only", default=None, choices=list(CORPUS))
    ap.add_argument("--samples", type=int, default=64)
    args = ap.parse_args(argv)

    out = pathlib.Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    config = AnalysisConfig(limit=LimitConfig(samples=args.samples), seed=args.seed)
    names = [args.only] if args.only else list(CORPUS)
    failures = 0
    for name in names:
        ci = CORPUS[name]
        t0 = time.monotonic()
        res = analyze(
            ci.instance(),
            config,
            generators=ci.form_generators() or None,
            mode=ci.mode,
            variables=ci.variables,
        )
        elapsed = time.monotonic() - t0
        path = out / f"{name}.report.txt"
        path.write_text(render_report(name, res))
        status = "pass" if res.all_ok else "FAIL"
        if not res.all_ok:
            failures += 1
        print(
            f"{name:14s} nu={res.nu:3d} rank_qa={res.rank_qa} "
            f"rank_qomega={res.qomega.rank} tau'={res.tau} "
            f"{status} ({elapsed:.1f}s) -> {path}"
        )
    print("done:", "all pass" if failures == 0 else f"{failures} failing")
    return 0 if failures == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
