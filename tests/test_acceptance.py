"""Acceptance suite: one test per criterion, one printed line per criterion.

Heavy analyses are shared through the session fixture in conftest.  Every
tolerance is pinned here, not configured elsewhere.
"""

import io
from contextlib import redirect_stdout
from fractions import Fraction

import numpy as np
import pytest

from singforms import critpts, pipeline, quadforms
from singforms.corpus import CORPUS
from singforms.icis import ProblemInstance, algebra as icis_algebra
from singforms.pipeline import AnalysisConfig, analyze
from singforms.polyring import parse

from oracles import elkh, example2_bridge_map, mult_operator_rank

ICIS_NAMES = [
    "ex1_n2",
    "ex1_n3",
    "ex1_n4",
    "cusp",
    "ex2_n3",
    "smooth_line",
    "four_lines",
]
ALL_NAMES = ICIS_NAMES + ["elkh_z3", "elkh_identity"]
EX1 = {"ex1_n2": (2, (1, 2)), "ex1_n3": (3, (1, 2, 4)), "ex1_n4": (4, (1, 2, 4, 8))}


def _report(criterion, ok, detail):
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def _check(res, name):
    return next(c for c in res.checks if c.name == name)


@pytest.mark.parametrize("name", list(EX1))
def test_criterion_1_example1_family(corpus_analysis, name):
    n, a = EX1[name]
    _, res, elapsed = corpus_analysis(name)
    assert res.nu == 2 * n
    assert res.rank_qa == n + 2
    assert res.qomega.rank == n
    assert res.tau == 1
    # exact alpha-diagonal and the numeric deviation before rounding
    for i in range(n):
        prod = 1
        for j in range(n):
            if j != i:
                prod *= a[j] - a[i]
        want = Fraction(2, prod)
        assert res.qomega.gram.exact[i][i] == want
        assert abs(res.qomega_numeric_entries[(i, i)] - float(want)) < 1e-8
    assert elapsed < 60.0
    _report(
        f"1[{name}]",
        True,
        f"dim={2*n} rank_qa={n+2} rank_qomega={n} tau'=1 "
        f"qomega diag exact, runtime {elapsed:.1f}s < 60s",
    )


@pytest.mark.parametrize("name", ALL_NAMES)
def test_criterion_2_count_certification(corpus_analysis, name):
    _, res, _ = corpus_analysis(name)
    c = _check(res, "count_certification")
    _report(f"2[{name}]", c.ok, f"{c.detail} tol=1e-10")


def _analyze(name):
    ci = CORPUS[name]
    return analyze(ci.instance(), AnalysisConfig(), mode=ci.mode, variables=ci.variables)


def _mutate_count_arrivals(monkeypatch, start, mutate):
    """Call mutate(X, status, mine) after every count-certification batch,
    mine the mask of the paths from the circle start ``start`` to the third
    target, so that the change holds at every attempt; returns the list of
    the batches' leg counts, filled as they are tracked."""
    track, third, batches = critpts._track, [], []

    def mutated(h, starts, tgt):
        X, status = track(h, starts, tgt)
        if isinstance(h, critpts._ParameterHomotopy):
            batches.append(len(h.p1))
            third[:] = third or [h.p1[2 * 2]]  # leg target * 2 + start, the first batch's
            mutate(X, status, tgt == np.flatnonzero((h.p1 == third[0]).all(axis=1))[start])
        return X, status

    monkeypatch.setattr(critpts, "_track", mutated)
    return batches


def test_criterion_2_one_failed_run_fails_the_check(monkeypatch):
    """A continued set that lacks one point at a count target, on every
    attempt, fails the check and nothing else: the last row is dropped by
    repeating the first, so the set holds nu - 1 distinct points."""

    def drop_one(X, status, mine):
        rows = np.flatnonzero(mine)
        X[rows[-1]] = X[rows[0]]

    batches = _mutate_count_arrivals(monkeypatch, 0, drop_one)
    res = _analyze("ex1_n2")
    assert [c.name for c in res.checks if not c.ok] == ["count_certification"]
    assert _check(res, "count_certification").detail.startswith("runs=5 expected=4 max_residual=")
    assert batches == [2 * pipeline._COUNT_RUNS] + [2] * critpts._MAX_RETRIES


def test_criterion_2_disagreeing_arrivals_fail_the_check(monkeypatch):
    """Arrivals from the two circle starts that differ in one row beyond the
    merge tolerance, on every attempt, fail the check and nothing else,
    though each is a set of nu distinct points."""

    def move_one(X, status, mine):
        X[np.flatnonzero(mine)[0], 0] += 1e-6  # the merge tolerance at |p| = 1e-2 is 1e-10

    _mutate_count_arrivals(monkeypatch, 1, move_one)
    res = _analyze("ex1_n2")
    assert [c.name for c in res.checks if not c.ok] == ["count_certification"]


def test_criterion_2_unconverged_path_fails_the_check(monkeypatch):
    """A path to a count target that did not converge, on every attempt,
    fails the check and nothing else, though its arrivals agree."""

    def stall_one(X, status, mine):
        status[np.flatnonzero(mine)[0]] = "stalled"

    _mutate_count_arrivals(monkeypatch, 1, stall_one)
    res = _analyze("ex1_n2")
    assert [c.name for c in res.checks if not c.ok] == ["count_certification"]


@pytest.mark.parametrize("name", ALL_NAMES)
def test_count_certification_makes_no_fresh_solve(monkeypatch, name):
    """An analysis solves fresh once, the first samples r u of its two
    circles; count certification continues their points."""
    solve_fresh, calls = critpts.solve_fresh, []

    def recording(family, targets, expected):
        targets = list(targets)
        calls.append([p for p, _ in targets])
        return solve_fresh(family, targets, expected)

    monkeypatch.setattr(critpts, "solve_fresh", recording)
    res = _analyze(name)
    assert res.all_ok
    rng = np.random.default_rng(res.config.seed)
    direction = critpts.generic_direction(rng, res.inst.n + res.inst.k)
    assert len(calls) == 1
    assert np.array_equal(calls[0], [r * direction for r in res.config.limit.radii])


@pytest.mark.parametrize("name", ["cusp", "four_lines", "elkh_z3"])
def test_continued_sets_match_fresh_solves(monkeypatch, name):
    """At each count target, the arrivals from both circle starts are the
    rows of a fresh total-degree solve there, one to one within the merge
    tolerance."""
    solve_continued, got = critpts.solve_continued, []

    def recording(family, P0, X0, P1, rng):
        X, ok = solve_continued(family, P0, X0, P1, rng)
        got.append((family, P1, X, ok))
        return X, ok

    monkeypatch.setattr(critpts, "solve_continued", recording)
    res = _analyze(name)
    ((family, P1, X, ok),) = got
    assert ok.all() and len(P1) == pipeline._COUNT_RUNS
    for p, arrivals in zip(P1, X):
        ((_, fresh, _),) = critpts.solve_fresh(family, [(p, np.random.default_rng(0))], res.nu)
        assert len(fresh) == res.nu
        for rows in arrivals:
            dist = np.abs(rows[:, None] - fresh[None]).max(axis=2)
            assert sorted(dist.argmin(axis=1)) == list(range(res.nu))
            assert dist.min(axis=1).max() < critpts._merge_tolerance(p)


def test_criterion_2_degenerate_run_fails_the_check(monkeypatch):
    """A count-certification run that finds the count but has a degenerate
    chart fails the check and nothing else."""
    jacobian_data = critpts.DeformationFamily.jacobian_data

    def no_chart_in_the_third_run(self, J):
        *data, chart = jacobian_data(self, J)
        if len(J) == pipeline._COUNT_RUNS:  # the runs' one point set, one row each
            chart[2] = False
        return (*data, chart)

    monkeypatch.setattr(critpts.DeformationFamily, "jacobian_data", no_chart_in_the_third_run)
    ci = CORPUS["smooth_line"]
    res = analyze(ci.instance(), AnalysisConfig(), mode=ci.mode, variables=ci.variables)
    assert [c.name for c in res.checks if not c.ok] == ["count_certification"]


def test_count_certification_makes_one_point_set(monkeypatch):
    """The runs' fresh solves return rows, and count certification makes
    them one point set, after the grid's: two point sets per analysis."""
    point_set, calls = critpts._point_set, []

    def counting(family, P, Xs, diagnostics=None):
        calls.append(len(P))
        return point_set(family, P, Xs, diagnostics)

    monkeypatch.setattr(critpts, "_point_set", counting)
    ci = CORPUS["elkh_identity"]
    res = analyze(ci.instance(), AnalysisConfig(), mode=ci.mode, variables=ci.variables)
    assert res.all_ok
    assert calls == [2 * res.config.limit.samples, pipeline._COUNT_RUNS]


@pytest.mark.parametrize("name", ALL_NAMES)
def test_criterion_3_ideal_vanishing(corpus_analysis, name):
    _, res, _ = corpus_analysis(name)
    c = _check(res, "ideal_vanishing")
    _report(f"3[{name}]", c.ok, f"{c.detail} tol=1e-08")


@pytest.mark.parametrize("name", ICIS_NAMES)
def test_criterion_4_class_invariance(corpus_analysis, name):
    _, res, _ = corpus_analysis(name)
    c = _check(res, "class_invariance")
    _report(f"4[{name}]", c.ok, f"{c.detail} tol=1e-08")


@pytest.mark.parametrize("name", ALL_NAMES)
def test_criterion_5_two_route_qomega(corpus_analysis, name):
    _, res, _ = corpus_analysis(name)
    c = _check(res, "two_route_qomega")
    _report(f"5[{name}]", c.ok, f"{c.detail} tol=1e-06 (relative)")


def test_criterion_5_two_route_qomega_sees_the_lambda_sign(monkeypatch):
    """The numeric route takes Lambda's sign from det[df; e_L], the map
    route from ``shuffle_sign``: with that sign forced to +1 the routes
    disagree.  The quadric's 1-form couples x and y, so Q^Omega pairs dx^dz
    with dy^dz, a pair of generators whose index sets have opposite signs."""
    vs = ["x", "y", "z"]
    inst = ProblemInstance(
        3, 1, [parse("x^2 + y^2 + z^2", vs)], [parse(a, vs) for a in ("2*x + y", "x + 3*y", "5*z")]
    )
    clean = _check(analyze(inst, AnalysisConfig()), "two_route_qomega")
    monkeypatch.setattr(quadforms, "shuffle_sign", lambda K, L: 1)
    corrupted = _check(analyze(inst, AnalysisConfig()), "two_route_qomega")
    dev = float(corrupted.detail.removeprefix("max_rel_dev="))
    _report("5[sign]", clean.ok and not corrupted.ok, f"clean: {clean.detail}; sign +1: {corrupted.detail}")
    assert dev > 0.1


@pytest.mark.parametrize("name", ALL_NAMES)
def test_criterion_6_module_dim_equality(corpus_analysis, name):
    _, res, _ = corpus_analysis(name)
    c = _check(res, "module_dim_equality")
    _report(f"6[{name}]", res.omega_dim == res.nu, c.detail)


@pytest.mark.parametrize("name", ALL_NAMES)
def test_criterion_7_inequalities(corpus_analysis, name):
    _, res, _ = corpus_analysis(name)
    qo = res.qomega
    ok = (
        qo.rank <= res.rank_qa
        and (res.omega_dim - qo.rank) >= res.tau
        and 0 <= res.rank_qa - qo.rank <= 2 * res.tau
        and qo.im_lambda_dim == res.nu - res.tau
    )
    detail = (
        f"rank_qomega={qo.rank} <= rank_qa={res.rank_qa}, "
        f"cork={res.omega_dim - qo.rank} >= tau'={res.tau}, "
        f"gap={res.rank_qa - qo.rank} <= {2 * res.tau}, "
        f"im_lambda={qo.im_lambda_dim} == nu-tau'={res.nu - res.tau}"
    )
    if name in EX1:
        ok = ok and (res.rank_qa - qo.rank == 2 * res.tau)
        detail += " (tight)"
    _report(f"7[{name}]", ok, detail)


@pytest.mark.parametrize("name", ["cusp", "ex2_n3"])
def test_criterion_8_bridge_identity(corpus_analysis, name):
    """Q^A(phi1, phi2) = Q_map((df/dx1)^{n-2} phi1, phi2) on all basis pairs;
    entrywise coincidence for n = 2."""
    from singforms.polyring import Poly
    from singforms.residuefn import LimitConfig

    ci, res, _ = corpus_analysis(name)
    inst = ci.instance()
    alg = icis_algebra(inst)
    bmap = example2_bridge_map(inst)
    ge, alg_e, sampler_e = elkh(bmap, LimitConfig(), 42)
    assert alg_e.basis == alg.basis
    p = inst.f[0].diff(0)
    n = inst.n
    weight = p ** (n - 2)
    max_dev = 0.0
    nb = len(alg.basis)
    for a in range(nb):
        for b in range(a, nb):
            w = weight * Poly.monomial(alg.basis[a]) * Poly.monomial(alg.basis[b])
            rhs = sampler_e.r_of([w])[0]
            max_dev = max(max_dev, abs(res.gram_qa.numeric[a][b] - rhs))
    ok = max_dev < 1e-8
    detail = f"max_dev={max_dev:.3e} tol=1e-08"
    if n == 2:
        ok = ok and ge.exact == res.gram_qa.exact
        detail += "; entrywise coincidence exact"
    _report(f"8[{name}]", ok, detail)


@pytest.mark.parametrize("name", ["cusp", "ex2_n3"])
def test_criterion_8_rank_qomega_multiplication(corpus_analysis, name):
    """rank Q^Omega equals the rank of multiplication by (df/dx1)^n.

    The module form pulls back through the comparison map twice, so the
    multiplication operator carries exponent (n-2) + 2 = n; the companion
    xfail test documents that exponent n-1 fails on plane curves.
    """
    ci, res, _ = corpus_analysis(name)
    inst = ci.instance()
    alg = icis_algebra(inst)
    p = inst.f[0].diff(0)
    rk_mult = mult_operator_rank(alg, p**inst.n)
    _report(
        f"8c[{name}]",
        res.qomega.rank == rk_mult,
        f"rank_qomega={res.qomega.rank} == rank mult (df/dx1)^n={rk_mult}",
    )


@pytest.mark.xfail(
    strict=True,
    reason=(
        "with exponent n-1 the rank identity fails on the plane-curve "
        "instance: rank Q^Omega = 0 but multiplication by df/dx1 has rank 2; "
        "the identity holds with exponent n (see the passing companion test)"
    ),
)
def test_criterion_8_rank_qomega_literal_exponent(corpus_analysis):
    for name in ["cusp", "ex2_n3"]:
        ci, res, _ = corpus_analysis(name)
        inst = ci.instance()
        alg = icis_algebra(inst)
        p = inst.f[0].diff(0)
        rk_mult = mult_operator_rank(alg, p ** (inst.n - 1))
        assert res.qomega.rank == rk_mult


def test_criterion_9_elkh_classical(corpus_analysis):
    _, z3, _ = corpus_analysis("elkh_z3")
    assert z3.nu == 9
    assert z3.rank_qa == 9
    assert z3.signature_qa == 3
    _, ident, _ = corpus_analysis("elkh_identity")
    assert ident.signature_qa == 1
    _report("9", True, "z^3: dim 9, signature 3; identity: signature 1 (exact)")


@pytest.mark.parametrize("name", ALL_NAMES)
def test_criterion_10_limit_robustness(corpus_analysis, name):
    _, res, _ = corpus_analysis(name)
    c = _check(res, "circle_mean_stability")
    _report(f"10[{name}]", c.ok, f"{c.detail} tol=1e-06")


def test_criterion_10_reports_identical_across_threads(tmp_path):
    from singforms.cli import main

    src = "variables: x1, x2\nf: x1\nomega: 0, x2\n"
    path = tmp_path / "smooth.txt"
    path.write_text(src)
    outs = []
    for threads in ("1", "2"):
        out = tmp_path / f"rep{threads}.txt"
        with redirect_stdout(io.StringIO()):
            code = main(
                ["analyze", str(path), "--threads", threads, "--out", str(out)]
            )
        assert code == 0
        outs.append(out.read_bytes())
    _report(
        "10[threads]",
        outs[0] == outs[1],
        "reports byte-identical for thread counts 1 and 2 at fixed seed",
    )
