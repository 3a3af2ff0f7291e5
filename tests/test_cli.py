import io
import time
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from functools import partial

import numpy as np
import pytest

from singforms import cli, critpts, localalg
from singforms.cli import (
    EXIT_INPUT,
    EXIT_NON_ISOLATED,
    EXIT_OK,
    EXIT_SOLVER,
    main,
    parse_problem_file,
    problem_to_instance,
)

EX1_N2 = """
# quadric with a generic diagonal 1-form
mode: icis
variables: x1, x2
f: x1^2 + x2^2
omega: x1, 2*x2
"""

SMOOTH = """
variables: x1, x2
f: x1
omega: 0, x2
"""

ELKH_ID = """
mode: elkh
variables: x, y
omega: x, y
"""

NON_ISOLATED = """
variables: x1, x2
f: x1^2
omega: 1, 0
"""

# one normal form of the minor ideal grows its coefficients past 4,000 bits
# within 270 reduction steps, each step slower than the last.  The ideal is
# most likely not isolated: the exact truncated dimensions of Q[x]/(I + m^D)
# grow by one per degree from D = 9 to 14, as a curve's do, so exit 3 would
# be the right answer, and the budget ends the analysis before Mora says so
COEFF_RUNAWAY = """
variables: x, y, z
f: x^3 + x*y^3 + y*z^3 + z^5
omega: y, z^2, x + z
"""


def run_cli(args):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(args)
    return code, out.getvalue(), err.getvalue()


# ---- problem files ------------------------------------------------------------

def test_parse_problem_file():
    pf = parse_problem_file(EX1_N2)
    assert pf.mode == "icis"
    assert pf.variables == ["x1", "x2"]
    assert pf.f == ["x1^2 + x2^2"]
    assert pf.omega == ["x1", "2*x2"]
    inst = problem_to_instance(pf)
    assert inst.n == 2 and inst.k == 1


def test_parse_problem_file_elkh():
    pf = parse_problem_file(ELKH_ID)
    assert pf.mode == "elkh" and pf.f == []
    inst = problem_to_instance(pf)
    assert inst.k == 0


@pytest.mark.parametrize(
    "text",
    [
        "variables: x\nomega: x, y\n",  # omega length mismatch
        "variables: x, y\nf: x\nomega: x, y\nmode: weird\n",
        "variables: x, y\nomega: x, y\n",  # icis without f
        "mode: elkh\nvariables: x, y\nf: x\nomega: x, y\n",
        "nonsense line\n",
    ],
)
def test_parse_problem_file_rejects(text):
    with pytest.raises(ValueError):
        parse_problem_file(text)


# ---- analyze ------------------------------------------------------------------

def test_analyze_smooth_line(tmp_path):
    path = tmp_path / "smooth.txt"
    path.write_text(SMOOTH)
    code, out, _ = run_cli(["analyze", str(path)])
    assert code == EXIT_OK
    assert "nu: 1" in out
    assert "rank_qa: 1" in out
    assert "signature_qa: 1" in out
    assert "all_checks: pass" in out


def test_analyze_exit_codes(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("variables x y\n")
    assert run_cli(["analyze", str(bad)])[0] == EXIT_INPUT

    noniso = tmp_path / "noniso.txt"
    noniso.write_text(NON_ISOLATED)
    code, _, err = run_cli(["analyze", str(noniso)])
    assert code == EXIT_NON_ISOLATED
    assert "INFINITE" in err

    missing = tmp_path / "missing.txt"
    assert run_cli(["analyze", str(missing)])[0] == EXIT_INPUT

    # bad limit flags are input errors in both commands, not tracebacks
    good = tmp_path / "ex1.txt"
    good.write_text(EX1_N2)
    for flags in (
        ["--radii", "1e-2,1e-1"], ["--samples", "15"], ["--radii", "1e-2"],
        ["--radii", "1e-2,nan"], ["--radii", "1e-2,0"], ["--radii", "inf,1e-2"],
        ["--radii", "1e-2,-5e-3"], ["--tol-match", "0"], ["--tol-match", "-1"],
        ["--max-den", "0"], ["--seed", "-1"],
        # malformed or unknown flags, rejected by the argument parser
        ["--samples", "abc"], ["--max-den", "1.5"], ["--bogus"],
    ):
        code, out, err = run_cli(["analyze", str(good), *flags])
        assert (code, out) == (EXIT_INPUT, "")
        assert err.startswith("input error: ")
        code, _, err = run_cli(["verify-corpus", "--only", "smooth_line", *flags])
        assert code == EXIT_INPUT
        assert err.startswith("input error: ")


@pytest.mark.parametrize(
    "text",
    ["variables: x, y\nf: 0\nomega: 1, 0\n", "mode: elkh\nvariables: x, y\nomega: 0, 0\n"],
    ids=["icis", "elkh"],
)
def test_analyze_zero_ideal_is_non_isolated(tmp_path, text):
    """The zero ideal has infinite colength: exit 3 with a one-line message."""
    path = tmp_path / "zero.txt"
    path.write_text(text)
    code, out, err = run_cli(["analyze", str(path)])
    assert (code, out) == (EXIT_NON_ISOLATED, "")
    assert err == "non-isolated input: index_nu INFINITE: ideal has infinite colength\n"


@pytest.mark.parametrize(
    "text",
    [
        "variables: x, y\nf: x\nomega: 1, 1\n",
        "variables: x, y, z\nf: x, y\nomega: 0, 0, 1\n",
    ],
    ids=["k1", "k2"],
)
def test_analyze_index_zero(tmp_path, text):
    """A 1-form without zeros on the fiber has index 0: empty grids, an
    empty algebra, and every check passing."""
    path = tmp_path / "nu0.txt"
    path.write_text(text)
    code, out, _ = run_cli(["analyze", str(path)])
    assert code == EXIT_OK
    assert "nu: 0" in out
    assert "all_checks: pass" in out


def test_analyze_unwritable_out_is_an_input_error(tmp_path, monkeypatch):
    """An --out path in a missing directory fails before the analysis."""
    path = tmp_path / "ex1.txt"
    path.write_text(EX1_N2)

    def no_analysis(*args, **kwargs):
        raise AssertionError("the analysis ran")

    monkeypatch.setattr(cli, "analyze", no_analysis)
    code, out, err = run_cli(["analyze", str(path), "--out", str(tmp_path / "missing" / "r.txt")])
    assert (code, out) == (EXIT_INPUT, "")
    assert err.startswith("input error: ")


def test_analyze_no_exact_report(tmp_path):
    path = tmp_path / "ex1.txt"
    path.write_text(EX1_N2)
    code, out, _ = run_cli(["analyze", str(path), "--no-exact"])
    assert code == EXIT_OK
    lines = out.splitlines()
    assert "gram_qa_numeric:" in lines
    assert "signature_qa: None" in lines
    assert "rank_qomega: None" in lines


def test_analyze_unrationalized_gram_entries(tmp_path):
    """R(x1^2) = 1/2 has no rational of denominator 1."""
    path = tmp_path / "ex1.txt"
    path.write_text(EX1_N2)
    code, out, _ = run_cli(["analyze", str(path), "--max-den", "1"])
    assert code == EXIT_OK
    assert any(line.startswith("gram_qa_unrationalized: ") for line in out.splitlines())


def test_pair_budget_exceeded_is_a_solver_failure(tmp_path, monkeypatch):
    """A standard basis past its pair budget exits 2 without a traceback.

    No small input is known to exhaust the default budget, so the budget is
    shrunk to zero pairs.  The quadric ex1_n2 needs one pair: its generators'
    leads x1^2 and x1*x2 hold no power of x2.
    """
    monkeypatch.setattr(
        localalg,
        "certified_degree",
        partial(localalg.certified_degree, max_pairs=0),
    )
    path = tmp_path / "ex1.txt"
    path.write_text(EX1_N2)
    code, out, err = run_cli(["analyze", str(path)])
    assert (code, out) == (EXIT_SOLVER, "")
    assert "standard basis exceeded 0 pairs" in err
    assert "diag standard_basis: pair budget exceeded" in err
    code, out, _ = run_cli(["verify-corpus", "--only", "ex1_n2"])
    assert code == EXIT_SOLVER
    assert "ex1_n2: pipeline failure: " in out
    assert "corpus: FAILURES" in out


def test_coefficient_budget_exceeded_is_a_solver_failure(tmp_path):
    """A normal form past the coefficient budget exits 2 within seconds."""
    path = tmp_path / "runaway.txt"
    path.write_text(COEFF_RUNAWAY)
    t0 = time.monotonic()
    code, out, err = run_cli(["analyze", str(path)])
    assert time.monotonic() - t0 < 10
    assert (code, out) == (EXIT_SOLVER, "")
    assert f"diag standard_basis: coefficient budget of {localalg.COEFF_BITS} bits exceeded" in err


def test_count_mismatch_is_a_solver_failure(tmp_path, monkeypatch):
    """A fresh solve that never finds the expected count exits 2 with its
    solver counters and without a traceback.  Every fresh solve of the
    smooth line loses its one point, on the first try and on each retry."""
    monkeypatch.setattr(critpts, "_distinct", lambda Xs, tol: np.zeros(Xs.shape[:2], dtype=bool))
    path = tmp_path / "smooth.txt"
    path.write_text(SMOOTH)
    code, out, err = run_cli(["analyze", str(path)])
    assert (code, out) == (EXIT_SOLVER, "")
    lines = err.splitlines()
    assert lines[0] == "solver/limit failure: found 0 critical points, expected 1"
    assert "diag retries: 4" in lines
    assert "multistart" not in err and "Traceback" not in err


def test_degenerate_grid_is_a_solver_failure(tmp_path, monkeypatch):
    """A circle grid with a degenerate chart at one sample exits 2 with the
    sampler's message and its solver counters, without a traceback."""
    jacobian_data = critpts.DeformationFamily.jacobian_data

    def no_chart_in_one_grid_row(self, J):
        *data, chart = jacobian_data(self, J)
        if len(J) == 2 * 16 * 4:  # the whole grid; a fresh target has 4 rows
            chart[5] = False
        return (*data, chart)

    monkeypatch.setattr(critpts.DeformationFamily, "jacobian_data", no_chart_in_one_grid_row)
    path = tmp_path / "ex1.txt"
    path.write_text(EX1_N2)
    code, out, err = run_cli(["analyze", str(path), "--samples", "16"])
    assert (code, out) == (EXIT_SOLVER, "")
    lines = err.splitlines()
    assert lines[0] == "solver/limit failure: chart is degenerate at 1 of 32 samples"
    assert "diag fresh_solves: 2" in lines
    assert "Traceback" not in err


def test_degenerate_circle_start_is_a_solver_failure(tmp_path, monkeypatch):
    """A circle start whose chart is degenerate exits 2 with the grid's
    chart message: its fresh solve tests no chart and is not retried, and
    the finished grid's one chart test fails that sample alone."""
    point_set = critpts._point_set
    first = 1e-2 * critpts.generic_direction(np.random.default_rng(42), 3)  # outer circle, seed 42

    def no_chart_at_the_first_start(family, P, Xs, diagnostics=None):
        ps, ok = point_set(family, P, Xs, diagnostics)
        return ps, ok & (np.asarray(P) != first).any(axis=1)

    monkeypatch.setattr(critpts, "_point_set", no_chart_at_the_first_start)
    path = tmp_path / "ex1.txt"
    path.write_text(EX1_N2)
    code, out, err = run_cli(["analyze", str(path), "--samples", "16"])
    assert (code, out) == (EXIT_SOLVER, "")
    lines = err.splitlines()
    assert lines[0] == "solver/limit failure: chart is degenerate at 1 of 32 samples"
    assert "diag retries: 0" in lines and "diag fresh_solves: 2" in lines
    assert "Traceback" not in err


def test_analyze_brieskorn_pham_nu_36(tmp_path):
    """x^3 + y^4 + z^5 with omega = dx runs through the numeric pipeline at
    nu = 36 with every check passing; nu = omega_dim = a(b-1)(c-1), tau' =
    (a-1)(b-1)(c-1) and im_lambda_dim = (b-1)(c-1) for (a, b, c) = (3, 4, 5)."""
    path = tmp_path / "bp345.txt"
    path.write_text("variables: x, y, z\nf: x^3 + y^4 + z^5\nomega: 1, 0, 0\n")
    code, out, err = run_cli(["analyze", str(path)])
    assert (code, err) == (EXIT_OK, "")
    lines = out.splitlines()
    for line in ("nu: 36", "tau_prime: 24", "omega_dim: 36", "im_lambda_dim: 12"):
        assert line in lines
    assert lines[-1] == "all_checks: pass"


def test_analyze_non_convergent_radii(tmp_path):
    """An unreachable agreement tolerance reports the limit failure path."""
    path = tmp_path / "ex1.txt"
    path.write_text(EX1_N2)
    code, _, err = run_cli(
        ["analyze", str(path), "--tol-match", "1e-18"]
    )
    assert code == EXIT_SOLVER
    assert "circle means disagree" in err


def test_report_deterministic_and_round_trip(tmp_path):
    path = tmp_path / "ex1.txt"
    path.write_text(EX1_N2)
    out1 = tmp_path / "r1.txt"
    out2 = tmp_path / "r2.txt"
    assert run_cli(["analyze", str(path), "--out", str(out1)])[0] == EXIT_OK
    assert run_cli(["analyze", str(path), "--out", str(out2)])[0] == EXIT_OK
    b1, b2 = out1.read_bytes(), out2.read_bytes()
    assert b1 == b2
    # exact Gram entries round-trip through the fraction parser
    text = b1.decode()
    lines = text.splitlines()
    start = lines.index("gram_qa_exact:") + 1
    rows = []
    while lines[start].startswith("  "):
        rows.append([Fraction(v) for v in lines[start].split()])
        start += 1
    assert rows[1][1] == Fraction(1, 2)
    assert rows[0][3] == Fraction(-1, 2)


def test_report_identical_across_thread_counts(tmp_path):
    path = tmp_path / "ex1.txt"
    path.write_text(EX1_N2)
    out1 = tmp_path / "t1.txt"
    out2 = tmp_path / "t2.txt"
    assert (
        run_cli(["analyze", str(path), "--threads", "1", "--out", str(out1)])[0]
        == EXIT_OK
    )
    assert (
        run_cli(["analyze", str(path), "--threads", "2", "--out", str(out2)])[0]
        == EXIT_OK
    )
    assert out1.read_bytes() == out2.read_bytes()


def test_verify_corpus_single(tmp_path):
    code, out, _ = run_cli(["verify-corpus", "--only", "smooth_line"])
    assert code == EXIT_OK
    assert "claims+checks pass" in out
    assert "corpus: all pass" in out


def test_verify_corpus_seed_independent():
    """Exact claims hold along a different generic ray."""
    code, out, _ = run_cli(["verify-corpus", "--only", "cusp", "--seed", "7"])
    assert code == EXIT_OK
    assert "corpus: all pass" in out


def test_verify_corpus_without_exact_grams():
    """Without exact Grams the claims that need them read None and fail,
    and so does the instance's header; the run exits 2 without a
    traceback."""
    code, out, err = run_cli(["verify-corpus", "--only", "cusp", "--no-exact"])
    assert code == EXIT_SOLVER
    lines = out.splitlines()
    assert lines[0] == "instance cusp: claims+checks FAIL"
    assert "  claim tight_gap: expected True computed None FAIL" in lines
    assert "  claim rank_qomega: expected 0 computed None FAIL" in lines
    assert lines[-1] == "corpus: FAILURES"
    assert "Traceback" not in err
