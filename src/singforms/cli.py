"""Command-line interface: problem-file ingestion, analysis reports, corpus.

``singforms analyze FILE`` runs the full pipeline on one problem file and
prints a structured-text report (exit 0 iff all checks pass, 1 on bad input,
malformed or unknown flags or bad limit flags, 2 on solver or limit failures,
including a standard basis that exceeds its pair or coefficient budget, 3 on
non-isolated input).  Bad limit flags are radii that are not finite, positive
and strictly decreasing (at least two), an odd ``--samples`` or one below 16,
a ``--tol-match`` that is not finite and positive, and a ``--max-den`` below
1.  An ``--out`` path that cannot be opened for writing (say, in a missing
directory) is an input error too, found before the analysis runs.  Every
exit-1 case prints ``input error: ...`` on stderr and nothing on stdout.
``singforms verify-corpus`` runs the built-in instances against their
expected values and the property checks.

Problem file format (keys may repeat; '#' starts a comment):

    mode: icis              # or elkh (then omit f)
    variables: x1, x2
    f: x1^2 + x2^2
    omega: x1, 2*x2

Polynomials follow the expression grammar of the parser (explicit '*', '^'
powers, rational coefficients like 3/2).  ``--threads`` is accepted and has
no effect: the solver runs in one thread.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass
from fractions import Fraction

from .corpus import CORPUS
from .critpts import CountMismatchError
from .icis import ProblemInstance
from .localalg import BudgetExceeded
from .pipeline import AnalysisConfig, AnalysisResult, NonIsolatedError, analyze
from .polyring import Poly, PolyParseError, parse, to_string
from .residuefn import LimitConfig, NonConvergentError

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_SOLVER = 2
EXIT_NON_ISOLATED = 3


@dataclass
class ProblemFile:
    variables: list
    f: list
    omega: list
    mode: str = "icis"


def parse_problem_file(text: str) -> ProblemFile:
    variables = []
    f_strings = []
    omega_strings = []
    mode = "icis"
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if ":" not in line:
            raise ValueError(f"line {lineno}: expected 'key: value'")
        key, _, value = line.partition(":")
        key = key.strip().lower()
        parts = [p.strip() for p in value.split(",") if p.strip()]
        if key == "variables":
            variables.extend(parts)
        elif key == "f":
            f_strings.extend(parts)
        elif key == "omega":
            omega_strings.extend(parts)
        elif key == "mode":
            if len(parts) != 1 or parts[0] not in ("icis", "elkh"):
                raise ValueError(f"line {lineno}: mode must be icis or elkh")
            mode = parts[0]
        else:
            raise ValueError(f"line {lineno}: unknown key {key!r}")
    if not variables:
        raise ValueError("missing 'variables'")
    if len(omega_strings) != len(variables):
        raise ValueError(
            f"omega must list {len(variables)} coefficients, got {len(omega_strings)}"
        )
    if mode == "elkh" and f_strings:
        raise ValueError("elkh mode takes no equations")
    if mode == "icis" and not f_strings:
        raise ValueError("icis mode needs at least one equation")
    return ProblemFile(variables=variables, f=f_strings, omega=omega_strings, mode=mode)


def problem_to_instance(pf: ProblemFile) -> ProblemInstance:
    vs = pf.variables
    n = len(vs)
    f = [parse(s, vs) for s in pf.f]
    A = [parse(s, vs) for s in pf.omega]
    return ProblemInstance(n, len(f), f, A)


# ---------------------------------------------------------------------------
# report rendering
# ---------------------------------------------------------------------------


def _fmt_float(x: float) -> str:
    return f"{x:.12e}"


def render_report(name: str, res: AnalysisResult) -> str:
    cfg = res.config
    vs = list(res.variables)
    lines = []
    add = lines.append
    add("singforms report")
    add(f"instance: {name}")
    add(f"mode: {res.mode}")
    add(f"variables: {' '.join(vs)}")
    add(f"n: {res.inst.n}")
    add(f"k: {res.inst.k}")
    for p in res.inst.f:
        add(f"f: {p.to_string(vs)}")
    add("omega: " + ", ".join(p.to_string(vs) for p in res.inst.A))
    add(f"seed: {cfg.seed}")
    add("radii: " + " ".join(_fmt_float(r) for r in cfg.limit.radii))
    add(f"samples: {cfg.limit.samples}")
    add(f"tol_match: {cfg.limit.tol_match:.0e}")
    add(f"max_denominator: {cfg.limit.max_denominator}")
    add(f"nu: {res.nu}")
    add(f"tau_prime: {res.tau}")
    add(f"omega_dim: {res.omega_dim}")
    add(f"truncation_order: {res.truncation_order}")
    add(
        "basis: "
        + " ".join(to_string(Poly.monomial(m), vs) for m in res.basis)
    )

    def gram(label, form):
        """The exact Gram when there is one, else the numeric one."""
        if form.exact is not None:
            add(f"{label}_exact:")
            rows = [map(str, row) for row in form.exact]
        else:
            add(f"{label}_numeric:")
            rows = [map(_fmt_float, row) for row in form.numeric]
        for row in rows:
            add("  " + " ".join(row))

    qa = res.gram_qa
    gram("gram_qa", qa)
    if qa.failed_entries:  # there is no exact Gram then
        add("gram_qa_unrationalized: " + " ".join(f"({i},{j})" for i, j in qa.failed_entries))
    add(f"rank_qa: {res.rank_qa}")
    add(f"signature_qa: {res.signature_qa}")
    add("generators: " + ", ".join(g.label(vs) for g in res.generators))
    add(
        "lambda_convention: Lambda(h*dx_L) = sgn(K,L)*h*det(df_i/dx_j, j in K),"
        " K the complementary block, columns ascending, sgn the shuffle sign"
    )
    qo = res.qomega
    gram("gram_qomega", qo.gram)
    add(f"rank_qomega: {qo.rank}")
    add(f"im_lambda_dim: {qo.im_lambda_dim}")
    for c in res.checks:
        status = "pass" if c.ok else "FAIL"
        add(f"check {c.name}: {status} {c.detail} tol={c.tolerance}")
    for key, val in res.diagnostics.items():
        add(f"diag {key}: {val}")
    add(f"all_checks: {'pass' if res.all_ok else 'FAIL'}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def _config_from_args(args) -> AnalysisConfig:
    if args.seed < 0:
        raise ValueError("seed must be non-negative")
    radii = tuple(float(r) for r in args.radii.split(","))
    limit = LimitConfig(
        radii=radii,
        samples=args.samples,
        tol_match=args.tol_match,
        max_denominator=args.max_den,
    )
    return AnalysisConfig(limit=limit, seed=args.seed, exact=args.exact)


def cmd_analyze(args) -> int:
    try:
        with open(args.file) as fh:
            pf = parse_problem_file(fh.read())
        inst = problem_to_instance(pf)
        config = _config_from_args(args)
        if args.out:
            open(args.out, "a").close()  # an unwritable --out fails before the analysis
    except (OSError, ValueError, PolyParseError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    try:
        res = analyze(
            inst, config, mode=pf.mode, variables=tuple(pf.variables)
        )
    except NonIsolatedError as exc:
        print(f"non-isolated input: {exc}", file=sys.stderr)
        return EXIT_NON_ISOLATED
    except BudgetExceeded as exc:
        print(f"solver/limit failure: {exc}", file=sys.stderr)
        print(f"diag {exc.diag}", file=sys.stderr)
        return EXIT_SOLVER
    except (CountMismatchError, NonConvergentError) as exc:
        print(f"solver/limit failure: {exc}", file=sys.stderr)
        for k, v in sorted(getattr(exc, "diagnostics", {}).items()):
            print(f"diag {k}: {v}", file=sys.stderr)
        for r, m in getattr(exc, "deviations", []):
            print(f"diag circle_mean radius={r:g}: {m}", file=sys.stderr)
        return EXIT_SOLVER
    report = render_report(args.file, res)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(report)
    else:
        sys.stdout.write(report)
    return EXIT_OK if res.all_ok else EXIT_SOLVER


def _claim_values(res: AnalysisResult) -> list:
    """(claim name, computed value) in report order; a value that cannot be
    computed without exact Grams is None, and the Gram claims are left out
    then."""
    qo = res.qomega
    values = [
        ("nu", res.nu),
        ("tau_prime", res.tau),
        ("rank_qa", res.rank_qa),
        ("signature_qa", res.signature_qa),
        ("rank_qomega", qo.rank),
    ]
    if qo.gram.exact is not None:
        values.append(("qomega_diag", [qo.gram.exact[i][i] for i in range(qo.gram.dim)]))
    if res.gram_qa.exact is not None:
        values.append(("gram_qa", res.gram_qa.exact))
    tight = None if None in (res.rank_qa, qo.rank) else res.rank_qa - qo.rank == 2 * res.tau
    return values + [("tight_gap", tight)]


def cmd_verify_corpus(args) -> int:
    try:
        config = _config_from_args(args)
    except ValueError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    names = [args.only] if args.only else list(CORPUS)
    all_ok = True
    for name in names:
        ci = CORPUS[name]
        inst = ci.instance()
        gens = ci.form_generators() or None
        try:
            res = analyze(
                inst,
                config,
                generators=gens,
                mode=ci.mode,
                variables=ci.variables,
            )
        except (
            NonIsolatedError,
            CountMismatchError,
            NonConvergentError,
            BudgetExceeded,
        ) as exc:
            print(f"{name}: pipeline failure: {exc}")
            all_ok = False
            continue
        claims = dict(ci.claims)
        if "gram_qa" in claims:
            claims["gram_qa"] = [[Fraction(v) for v in row] for row in claims["gram_qa"]]
        rows = [(c, claims[c], got) for c, got in _claim_values(res) if c in claims]
        ok = res.all_ok and all(want == got for _, want, got in rows)
        all_ok &= ok
        print(f"instance {name}: claims+checks {'pass' if ok else 'FAIL'}")
        for c, want, got in rows:
            status = "pass" if want == got else "FAIL"
            print(f"  claim {c}: expected {want} computed {got} {status}")
        for c in res.checks:
            status = "pass" if c.ok else "FAIL"
            print(f"  check {c.name}: {status} {c.detail} tol={c.tolerance}")
    print(f"corpus: {'all pass' if all_ok else 'FAILURES'}")
    return EXIT_OK if all_ok else EXIT_SOLVER


class _Parser(argparse.ArgumentParser):
    """Raises usage errors instead of exiting 2, so ``main`` can exit 1."""

    def error(self, message):
        raise argparse.ArgumentError(None, message)


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(
        prog="singforms",
        description="quadratic forms of a 1-form on an ICIS: dimensions, "
        "Gram matrices, ranks, signatures, and verification checks",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--seed", type=int, default=42)
        p.add_argument("--radii", default="1e-2,5e-3", help="decreasing list")
        p.add_argument("--samples", type=int, default=64)
        p.add_argument("--tol-match", dest="tol_match", type=float, default=1e-8)
        p.add_argument("--max-den", dest="max_den", type=int, default=10**6)
        p.add_argument(
            "--exact", dest="exact", action="store_true", default=True
        )
        p.add_argument("--no-exact", dest="exact", action="store_false")
        p.add_argument(
            "--threads", type=int, default=1, help="accepted; has no effect"
        )

    pa = sub.add_parser("analyze", help="analyze one problem file")
    pa.add_argument("file")
    pa.add_argument("--out", default=None)
    common(pa)
    pa.set_defaults(func=cmd_analyze)

    pv = sub.add_parser("verify-corpus", help="run the built-in instances")
    pv.add_argument("--only", default=None, choices=list(CORPUS))
    common(pv)
    pv.set_defaults(func=cmd_verify_corpus)
    return ap


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except argparse.ArgumentError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
