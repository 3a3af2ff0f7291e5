"""In-memory span tracer that wraps singforms' public functions from outside.

Each wrapped function is replaced on the module (or class) where its callers
look it up, so ``cli.analyze`` and ``pipeline.analyze`` are wrapped separately,
as are the two ``solve_family_at`` bindings (``critpts`` for circle starts,
``pipeline`` for count certification).  A span records its name, start, end,
parent span and the id of the input being analyzed.  Spans are recorded only
while an input is current, so checks run between passes leave no trace.
Calls to ``np.linalg.solve`` are counted per calling module, not as spans.
"""

from __future__ import annotations

import contextlib
import functools
import json
import sys
import time
from collections import Counter

import numpy as np

from singforms import cli, critpts, icis, pipeline, quadforms, ratlinalg, residuefn

# (owner, attribute, span name)
TRACED = (
    (critpts, "solve_family_at", "critpts.solve_family_at"),
    (critpts, "solve_warm", "critpts.solve_warm"),
    (critpts, "track_circle", "critpts.track_circle"),
    (pipeline, "solve_family_at", "pipeline.count_certification"),
    (pipeline, "analyze", "pipeline.analyze"),
    (cli, "analyze", "pipeline.analyze"),
    (cli, "parse_problem_file", "cli.parse"),
    (cli, "problem_to_instance", "cli.parse"),
    (cli, "render_report", "cli.render_report"),
    (residuefn, "make_sampler", "residuefn.make_sampler"),
    (residuefn.ResidueSampler, "limit", "residuefn.limit"),
    (residuefn, "reconstruct_rational", "residuefn.reconstruct_rational"),
    (residuefn, "verify_ideal_vanishing", "residuefn.verify_ideal_vanishing"),
    (residuefn, "verify_class_invariance", "residuefn.verify_class_invariance"),
    (quadforms, "gram_qa", "quadforms.gram_qa"),
    (quadforms, "gram_qomega", "quadforms.gram_qomega"),
    (quadforms, "qomega_numeric", "quadforms.qomega_numeric"),
    (quadforms, "im_lambda_basis", "quadforms.im_lambda_basis"),
    (icis, "algebra", "icis.algebra"),
    (icis, "tau_prime", "icis.tau_prime"),
    (icis, "omega_module_dim", "icis.omega_module_dim"),
    (ratlinalg, "rank_signature_exact", "ratlinalg.rank_signature_exact"),
    (ratlinalg, "int_rank", "ratlinalg.int_rank"),
    (ratlinalg, "rref", "ratlinalg.rref"),
)

_SOLVER_COUNTS = ("paths_tracked", "paths_diverged", "path_failures", "retries")
# the two bindings of solve_family_at: circle starts and count certification
_FRESH = ("critpts.solve_family_at", "pipeline.count_certification")


class Tracer:
    def __init__(self):
        self.spans = []
        self.linalg = Counter()  # (input id, calling module) -> np.linalg.solve calls
        self.current = None  # id of the input being analyzed, None between inputs
        self._stack = []
        self._undo = []

    def install(self):
        for owner, attr, name in TRACED:
            self._patch(owner, attr, self._wrap(getattr(owner, attr), name))
        self._patch(np.linalg, "solve", self._count_solve(np.linalg.solve))

    def uninstall(self):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def _patch(self, owner, attr, replacement):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def _wrap(self, fn, name):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer.current is None:
                return fn(*args, **kwargs)
            with tracer.span(name) as span:
                try:
                    result = fn(*args, **kwargs)
                except critpts.CountMismatchError as exc:
                    _solver_counts(span, exc.diagnostics)
                    raise
                if name in _FRESH:
                    _solver_counts(span, result.diagnostics)
                elif result is None and name == "critpts.solve_warm":
                    span["miss"] = 1
                return result

        return traced

    def _count_solve(self, fn):
        tracer = self

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            if tracer.current is not None:
                caller = sys._getframe(1).f_globals.get("__name__", "")
                tracer.linalg[(tracer.current, caller)] += 1
            return fn(*args, **kwargs)

        return counted

    @contextlib.contextmanager
    def span(self, name):
        record = {
            "name": name,
            "input": self.current,
            "parent": self._stack[-1] if self._stack else None,
        }
        self._stack.append(len(self.spans))
        self.spans.append(record)
        record["start"] = time.perf_counter()
        try:
            yield record
        except BaseException as exc:
            record["error"] = type(exc).__name__
            raise
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def write_jsonl(self, path):
        with open(path, "w") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({"id": i, **s}, sort_keys=True) + "\n")


def _solver_counts(span, diagnostics):
    for key in _SOLVER_COUNTS:
        span[key] = int((diagnostics or {}).get(key, 0))


# ---------------------------------------------------------------------------
# per-layer metrics from the spans of one pass
# ---------------------------------------------------------------------------

# metric -> span name whose summed duration it reports
DURATIONS = {
    "critpts.fresh_solve_s": "critpts.solve_family_at",
    "critpts.solve_warm_s": "critpts.solve_warm",
    "critpts.track_circle_s": "critpts.track_circle",
    "pipeline.count_certification_s": "pipeline.count_certification",
    "residuefn.make_sampler_s": "residuefn.make_sampler",
    "residuefn.limit_s": "residuefn.limit",
    "residuefn.verify_ideal_vanishing_s": "residuefn.verify_ideal_vanishing",
    "residuefn.verify_class_invariance_s": "residuefn.verify_class_invariance",
    "quadforms.gram_qa_s": "quadforms.gram_qa",
    "quadforms.gram_qomega_s": "quadforms.gram_qomega",
    "quadforms.qomega_numeric_s": "quadforms.qomega_numeric",
    "quadforms.im_lambda_basis_s": "quadforms.im_lambda_basis",
    "icis.algebra_s": "icis.algebra",
    "icis.tau_prime_s": "icis.tau_prime",
    "icis.omega_module_dim_s": "icis.omega_module_dim",
    "ratlinalg.rank_signature_exact_s": "ratlinalg.rank_signature_exact",
    "ratlinalg.int_rank_s": "ratlinalg.int_rank",
    "ratlinalg.rref_s": "ratlinalg.rref",
    "cli.parse_s": "cli.parse",
    "cli.render_report_s": "cli.render_report",
}

# metric -> span name whose calls it counts
CALLS = {
    "critpts.solve_warm_calls": "critpts.solve_warm",
    "residuefn.limit_calls": "residuefn.limit",
    "residuefn.reconstructions": "residuefn.reconstruct_rational",
    "quadforms.qomega_numeric_calls": "quadforms.qomega_numeric",
}


def layer_metrics(spans, linalg, inputs):
    """Per-layer figures for the spans and solve counts of the given inputs.

    A duration sums the outermost spans of one name, so a function that calls
    itself is not counted twice; it includes the time of its child spans.
    ``pipeline.analyze_self_s`` is the exception: the time in ``analyze`` that
    no child span covers.
    """
    inputs = set(inputs)
    mine = [(i, s) for i, s in enumerate(spans) if s["input"] in inputs]
    out = {}

    def outermost(s):
        p = s["parent"]
        while p is not None:
            if spans[p]["name"] == s["name"]:
                return False
            p = spans[p]["parent"]
        return True

    for metric, name in DURATIONS.items():
        out[metric] = sum(
            s["end"] - s["start"] for _, s in mine if s["name"] == name and outermost(s)
        )
    for metric, name in CALLS.items():
        out[metric] = sum(1 for _, s in mine if s["name"] == name)
    fresh = [s for _, s in mine if s["name"] in _FRESH]
    out["critpts.fresh_solves"] = len(fresh)
    for key in _SOLVER_COUNTS:
        out[f"critpts.{key}"] = sum(s.get(key, 0) for s in fresh)
    out["critpts.solve_warm_misses"] = sum(s.get("miss", 0) for _, s in mine)

    child_time = Counter()
    for _, s in mine:
        if s["parent"] is not None:
            child_time[s["parent"]] += s["end"] - s["start"]
    out["pipeline.analyze_self_s"] = sum(
        s["end"] - s["start"] - child_time[i]
        for i, s in mine
        if s["name"] == "pipeline.analyze"
    )
    for module in ("critpts", "quadforms"):
        out[f"{module}.linalg_solves"] = sum(
            c for (inp, caller), c in linalg.items()
            if inp in inputs and caller == f"singforms.{module}"
        )
    return out
