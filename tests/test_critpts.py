import itertools
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from singforms import critpts, residuefn
from singforms.cli import parse_problem_file, problem_to_instance
from singforms.critpts import (
    CountMismatchError,
    DeformationFamily,
    StackedPolys,
    circle,
    generic_direction,
    solve_anchored,
    solve_family_at,
    solve_warm,
    track_circle,
)
from singforms.corpus import CORPUS
from singforms.icis import ProblemInstance, algebra
from singforms.pipeline import default_generators
from singforms.polyring import Poly, parse
from singforms.quadforms import qomega_numeric
from singforms.residuefn import LimitConfig, make_sampler

from oracles import (
    cusp,
    dedup,
    eval_at,
    ex1,
    ex1_closed_form,
    fd_restricted_jacobian,
    track_circle_by_steps,
)

VS2 = ["x1", "x2"]


def direction_of(inst, seed):
    return generic_direction(np.random.default_rng(seed), inst.n + inst.k)


# ---- the multiplier system --------------------------------------------------

# the cusp twist (eta, h) = ((y, 1 - x), 2x): the coefficients of 1, x, y
# (columns) of eta_1, eta_2, h (rows)
TWIST = np.array([[0, 0, 1], [1, -1, 0], [0, 2, 0]])


def _check_system(fam, vs, equations, seed, system=None):
    """Values and Jacobian of ``system`` (``fam.system`` by default) at
    seeded complex points X and deformation points P, one per row of X: at
    each p for all rows against ``equations``, the multiplier system
    written out by hand over the unknowns ``vs`` and p = (p1, p2, ...),
    evaluated with ``eval_at`` at (x, p) and differentiated in the unknowns
    with ``Poly.diff``; and with one p per row, where row i must match row
    i at P[i] alone to 1e-14 relative."""
    system = system or fam.system
    eqs = [parse(e, vs + [f"p{i + 1}" for i in range(fam.nunk)]) for e in equations]
    assert len(eqs) == len(vs) == fam.nunk
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((4, fam.nunk)) + 1j * rng.standard_normal((4, fam.nunk))
    P = rng.standard_normal((4, fam.nunk)) + 1j * rng.standard_normal((4, fam.nunk))
    per_row = system(P, X)
    for i, p in enumerate(P):
        vals, J = system(p, X)
        for x, v, Jx in zip(X, vals, J):
            at = list(x) + list(p)
            want = np.array([eval_at(e, at) for e in eqs])
            want_J = np.array([[eval_at(e.diff(c), at) for c in range(fam.nunk)] for e in eqs])
            assert np.allclose(v, want, rtol=1e-12, atol=1e-12)
            assert np.allclose(Jx, want_J, rtol=1e-12, atol=1e-12)
        for got, want in zip(per_row, (vals, J)):
            assert np.abs(got[i] - want[i]).max() <= 1e-14 * np.abs(want[i]).max()


def test_critical_system_ex1():
    """f - eps, then a_j x_j - alpha_j - lambda * 2 x_j."""
    _check_system(DeformationFamily(ex1(2, (1, 2))), ["x1", "x2", "l"], [
        "x1^2 + x2^2 - p1",
        "x1 - 2*l*x1 - p2",
        "2*x2 - 2*l*x2 - p3",
    ], seed=1)


def test_critical_system_k0():
    inst = ProblemInstance(2, 0, [], [Poly.variable(0, 2), Poly.variable(1, 2)])
    _check_system(DeformationFamily(inst), ["x1", "x2"], ["x1 - p1", "x2 - p2"], seed=2)


def test_critical_system_cusp():
    _check_system(DeformationFamily(cusp()), ["x", "y", "l"], [
        "x^2 - y^3 - p1",
        "1 - 2*l*x - p2",
        "3*l*y^2 - p3",
    ], seed=3)


def test_critical_system_twisted_cusp():
    """The twist (eta, h) = ((y, 1 - x), 2x) gives A_j + (f - eps) eta_j +
    h df/dx_j - alpha_j - lambda df/dx_j, at random points that are no
    zeros of it: ``residuefn._twist`` builds it from the untwisted system at
    the base rows, lambda less h(x), as class invariance does; with one p
    per row, each row keeps its own -eps eta_j term."""
    fam = DeformationFamily(cusp())

    def twisted(P, X):
        Y = X.copy()
        Y[:, 2] -= 2 * X[:, 0]  # lambda - h(x)
        return residuefn._twist(*fam.system(P, Y), X[:, :2], TWIST)

    fe = "(x^2 - y^3 - p1)"
    _check_system(fam, ["x", "y", "l"], [
        fe,
        f"1 + 4*x^2 - 2*l*x + {fe}*y - p2",
        f"-6*x*y^2 + 3*l*y^2 + {fe}*(1 - x) - p3",
    ], seed=4, system=twisted)


# ---- closed-form oracle -----------------------------------------------------

@pytest.mark.parametrize("n,a", [(2, (1, 2)), (3, (1, 2, 4))])
def test_solve_matches_closed_form(n, a):
    inst = ex1(n, a)
    eps = 0.01
    fam = DeformationFamily(inst)
    ps = solve_family_at(fam, np.array((eps,) + (0.0,) * n), 2 * n, np.random.default_rng(3))
    assert len(ps) == 2 * n
    remaining = list(zip(ps.x, ps.X[:, n], ps.jtilde))
    for wx, wl, wj in ex1_closed_form(n, a, eps):
        dist, idx = min(
            (max(abs(u - v) for u, v in zip(g[0], wx)), i)
            for i, g in enumerate(remaining)
        )
        gx, gl, gj = remaining.pop(idx)
        assert dist < 1e-9
        assert abs(gl - wl) < 1e-9
        assert abs(gj - wj) < 1e-9 * max(1.0, abs(wj))
    for r in ps.residual:
        assert r < 1e-10


def test_k0_single_point():
    inst = ProblemInstance(2, 0, [], [Poly.variable(0, 2), Poly.variable(1, 2)])
    ps = solve_family_at(DeformationFamily(inst), np.array([0.3, -0.2]), 1, np.random.default_rng(5))
    assert len(ps) == 1
    x = ps.x[0]
    assert abs(x[0] - 0.3) < 1e-12 and abs(x[1] + 0.2) < 1e-12
    assert abs(ps.jtilde[0] - 1.0) < 1e-12  # identity Jacobian


# ---- count certification ----------------------------------------------------

@pytest.mark.parametrize(
    "inst_builder,expected",
    [
        (lambda: ex1(2, (1, 2)), 4),
        (lambda: cusp(), 4),
    ],
)
def test_count_certification(inst_builder, expected):
    inst = inst_builder()
    fam = DeformationFamily(inst)
    rng = np.random.default_rng(11)
    for _ in range(5):
        ps = solve_family_at(fam, 1e-2 * generic_direction(rng, inst.n + 1), expected, rng)
        assert len(ps) == expected
        assert all(r < 1e-10 for r in ps.residual)


def test_count_mismatch_raises():
    fam = DeformationFamily(ex1(2, (1, 2)))
    with pytest.raises(CountMismatchError) as exc:
        solve_family_at(fam, np.array([0.01, 0.0, 0.0]), 5, np.random.default_rng(1))
    assert "expected 5" in str(exc.value)
    assert "paths_tracked" in exc.value.diagnostics


# ---- the 2-homogeneous start system ---------------------------------------------

def _k2_family():
    """The k = 2 input f = (x^2 + y^2 + z^3, x*y + z^2), omega = dz."""
    vs = ["x", "y", "z"]
    inst = ProblemInstance(
        3, 2, [parse("x^2 + y^2 + z^3", vs), parse("x*y + z^2", vs)],
        [Poly.zero(3), Poly.zero(3), Poly.one(3)],
    )
    return DeformationFamily(inst)


def _corpus_family(name):
    return DeformationFamily(CORPUS[name].instance())


def _point(fam, t=1e-2):
    """t times the seed-4 generic direction of the family's instance."""
    return t * direction_of(fam.inst, 4)


# (family, number of start points): the 2-homogeneous Bezout numbers over
# x | lambda; the total degrees are 8, 9, 18, 36, 32, 32, 1, 1, 48 and 72
BEZOUT = [
    (lambda: _corpus_family("ex1_n2"), 4),
    (lambda: _corpus_family("elkh_z3"), 9),
    (lambda: _corpus_family("cusp"), 9),
    (lambda: _corpus_family("ex2_n3"), 15),
    (lambda: _corpus_family("four_lines"), 12),
    (lambda: _corpus_family("ex1_n4"), 8),
    (lambda: _corpus_family("smooth_line"), 1),
    (lambda: _corpus_family("elkh_identity"), 1),
    (_k2_family, 24),
]


@pytest.mark.parametrize("family,paths", BEZOUT)
def test_start_points_are_simple_zeros_of_start_system(family, paths):
    """One start point per 2-homogeneous Bezout count; each is a zero of G
    (H at s = 0 is gamma G, |gamma| = 1) with a nonsingular Jacobian, and
    no two coincide."""
    fam = family()
    h = critpts._Homotopy(fam, [(_point(fam), np.random.default_rng(6))])
    P = h.starts
    assert P.shape == (paths, h.family.nunk)
    G, dG, _ = h.rows(h.target)(P, 0.0)
    assert np.abs(G).max() < 1e-12
    assert np.linalg.cond(dG).max() < 1e8
    dist = np.abs(P[:, None] - P[None]).max(axis=2) + np.eye(paths)
    assert dist.min() > 1e-3


@pytest.mark.parametrize("family,paths", BEZOUT)
def test_homotopy_derivatives_match_central_differences(family, paths):
    """dH/dx and dH/ds from ``rows`` against central differences of H at
    seeded complex points, one s per row."""
    fam = family()
    h = critpts._Homotopy(fam, [(_point(fam, 0.7 - 0.4j), np.random.default_rng(6))])
    rng = np.random.default_rng(7)
    nu = h.family.nunk
    X = rng.standard_normal((3, nu)) + 1j * rng.standard_normal((3, nu))
    v = rng.standard_normal(nu) + 1j * rng.standard_normal(nu)
    s, eps = np.array([0.1, 0.5, 0.9]), 1e-6
    one = np.zeros(3, dtype=int)  # every row on the one target
    H, J, Hs = h.rows(one)(X, s)
    fd_x = (h.rows(one)(X + eps * v, s)[0] - h.rows(one)(X - eps * v, s)[0]) / (2 * eps)
    fd_s = (h.rows(one)(X, s + eps)[0] - h.rows(one)(X, s - eps)[0]) / (2 * eps)
    assert np.allclose(J @ v, fd_x, rtol=1e-6, atol=1e-6 * np.abs(H).max())
    assert np.allclose(Hs, fd_s, rtol=1e-6, atol=1e-6 * np.abs(H).max())


def test_k0_start_system_is_total_degree():
    """For k = 0 the start points, H and its derivatives are those of the
    total-degree system x_j^d_j - b_j with gamma and b drawn as before."""
    fam = _corpus_family("elkh_z3")
    p = _point(fam)
    h = critpts._Homotopy(fam, [(p, np.random.default_rng(8))])
    rng = np.random.default_rng(8)
    gamma = np.exp(2j * np.pi * rng.random())
    b = (0.5 + rng.random(fam.nunk)) * np.exp(2j * np.pi * rng.random(fam.nunk))
    d = np.array([3, 3])
    roots = [[bj ** (1.0 / dj) * np.exp(2j * np.pi * r / dj) for r in range(dj)] for dj, bj in zip(d, b)]
    X = np.array(list(itertools.product(*roots)))
    assert np.array_equal(h.starts, X)
    s = np.linspace(0.0, 0.9, len(X))
    H, J, Hs = h.rows(h.target)(X, s)
    f, JF = fam.system(p, X)
    c = (1.0 - s)[:, None]
    gG = gamma * (X ** (d - 1) * X - b)
    JG = np.einsum("ij,jk->ijk", gamma * d * X ** (d - 1), np.eye(2))
    assert np.array_equal(H, c * gG + s[:, None] * f)
    assert np.array_equal(J, s[:, None, None] * JF + c[:, :, None] * JG)
    assert np.array_equal(Hs, f - gG)


class _StallingHomotopy:
    """H = x - r s^2 with a wrong-signed Jacobian for s > 0.5, so that no
    corrector step past s = 0.5 converges and the path stalls at x = r/4.
    ``scale`` is all ones: the corrector tolerance is absolute."""

    def __init__(self, r):
        self.r = r

    def rows(self, tgt):
        def at(X, s):
            s = np.broadcast_to(np.asarray(s, dtype=float), (len(X),))[:, None]
            J = np.where(s > 0.5, -1.0, 1.0)[:, :, None]
            return X - self.r * s**2, J, -2 * self.r * s * np.ones_like(X)

        return at

    def scale(self, X):
        return np.ones(X.shape)


@pytest.mark.parametrize("r,status", [(1.0, "stalled"), (380.0, "stalled"), (420.0, "diverged")])
def test_stall_classified_by_size(r, status):
    """A path that stalls at |x| <= 1e2 is a failure however far it got;
    one that stalls farther out counts as diverged."""
    one_path = np.zeros((1, 1), dtype=complex)
    X, got = critpts._track(_StallingHomotopy(r), one_path, np.zeros(1, dtype=int))
    assert got.tolist() == [status]
    assert abs(X[0, 0] - r / 4) < 1e-3 * r


class _PolishFailingHomotopy(_StallingHomotopy):
    """H = x - r s, plus 1e-12 at s = 1 where the Jacobian is 0: the path
    reaches s = 1 at x = r, whose residual passes the corrector but not the
    polish."""

    def rows(self, tgt):
        def at(X, s):
            s = np.broadcast_to(np.asarray(s, dtype=float), (len(X),))[:, None]
            J = np.where(s < 1.0, 1.0, 0.0)[:, :, None]
            return X - self.r * s + 1e-12 * (s == 1.0), J, -self.r * np.ones_like(X)

        return at


@pytest.mark.parametrize("r,status", [(1.0, "polish_failed"), (99.0, "polish_failed"), (101.0, "diverged")])
def test_failed_polish_classified_by_size(r, status):
    """A path whose final polish fails is diverged beyond |x| > 1e2 and a
    polish failure at or below it, by the same rule as a stalled one."""
    one_path = np.zeros((1, 1), dtype=complex)
    X, got = critpts._track(_PolishFailingHomotopy(r), one_path, np.zeros(1, dtype=int))
    assert got.tolist() == [status]
    assert abs(X[0, 0] - r) < 1e-9 * r


class _RecordingHomotopy(_StallingHomotopy):
    """A one-variable H(x, s) given by ``at(X, s)`` (s one column), with
    ``scale`` all ones; ``rounds`` records the s of each evaluation batch's
    first call: the start, then each round's corrector."""

    def __init__(self, r):
        super().__init__(r)
        self.rounds = []

    def rows(self, tgt):
        def at(X, s):
            if not calls and len(X):
                self.rounds.append(float(np.ravel(s)[0]))
            calls.append(1)
            return self.at(X, np.broadcast_to(np.asarray(s, dtype=float), (len(X),))[:, None])

        calls = []
        return at


class _SingularAtOneHomotopy(_RecordingHomotopy):
    """H = x - r s, plus 1e-3 with a zero Jacobian at s = 1: a corrector
    below s = 1 converges at once, and every step onto s = 1 fails, so the
    path stalls just short of it."""

    def at(self, X, s):
        J = np.where(s < 1.0, 1.0, 0.0)[:, :, None]
        return X - self.r * s + 1e-3 * (s == 1.0), J, -self.r * np.ones_like(X)


def test_rejected_step_onto_one_is_not_repeated():
    """After a rejected step onto s = 1, the next step from the same s is
    shorter: no (s, step) is tried twice, and the path still stalls."""
    h = _SingularAtOneHomotopy(1.0)
    X, got = critpts._track(h, np.zeros((1, 1), dtype=complex), np.zeros(1, dtype=int))
    assert got.tolist() == ["stalled"]
    assert abs(X[0, 0] - 1.0) < 1e-6
    s, tried = 0.0, []
    for s_new in h.rounds[1:]:  # steps below s = 1 are accepted, steps onto it rejected
        tried.append((s, s_new))
        s = s_new if s_new < 1.0 else s
    assert sum(s_new == 1.0 for _, s_new in tried) > 10
    assert len(set(tried)) == len(tried)


class _PoleHomotopy(_RecordingHomotopy):
    """H = (1 - s) x - r: from x = r at s = 0 the path is x = r/(1 - s), a
    pole at s = 1, whose local exponent w = (1 - s) x'/x is 1."""

    def at(self, X, s):
        return (1.0 - s) * X - self.r, (1.0 - s)[:, :, None], -X


def test_pole_runs_out_in_the_tail():
    """Past |x| > _FAR a growing path steps a fraction of 1 - s along its
    power law, a decade of |x| a round, so the pole ends diverged past
    _DIVERGENCE within 25 rounds; by the Euler ratchet alone (step factors
    1.7 and 0.4) it takes 40."""
    h = _PoleHomotopy(1.0)
    X, got = critpts._track(h, np.ones((1, 1), dtype=complex), np.zeros(1, dtype=int))
    assert got.tolist() == ["diverged"]
    assert abs(X[0, 0]) > critpts._DIVERGENCE
    assert len(h.rounds) - 1 <= 25


class _QuadraticHomotopy(_RecordingHomotopy):
    """H = x - r s^2: x = r s^2 lands at x = r, and for r > _FAR it grows
    past |x| = _FAR with local exponent w = 2 (1 - s)/s > 0.05."""

    def at(self, X, s):
        return X - self.r * s**2, np.ones((len(X), 1, 1)), -2.0 * self.r * s * np.ones_like(X)


@pytest.mark.parametrize("r", [1e3, 1e5])
def test_tail_never_blocks_a_finite_landing(r):
    """A path that grows past |x| = _FAR on its way to a finite point is in
    the tail while w > 0.05, steps short of s = 1 there, and lands once it
    stops growing: it converges at x = r."""
    h = _QuadraticHomotopy(r)
    X, got = critpts._track(h, np.zeros((1, 1), dtype=complex), np.zeros(1, dtype=int))
    assert got.tolist() == ["converged"]
    assert abs(X[0, 0] - r) < 1e-9 * r


def _track_circle_starts(fam, seed=42):
    """The endpoints and statuses of an analysis's first fresh batch at
    seed: the first samples of both default circles, as ``make_sampler``
    draws them."""
    rng = np.random.default_rng(seed)
    u = generic_direction(rng, fam.nunk)
    h = critpts._Homotopy(fam, [(r * u, rng) for r in LimitConfig().radii])
    return critpts._track(h, h.starts, h.target)


@pytest.mark.parametrize("name,converged,diverged", [("cusp", 8, 10), ("ex2_n3", 8, 22), ("four_lines", 16, 8)])
def test_tail_keeps_the_split_of_paths(name, converged, diverged):
    """The circle starts' fresh batch of an analysis at seed 42 converges
    and diverges on as many paths as the Euler ratchet alone, and every
    diverged path runs out past _DIVERGENCE."""
    X, status = _track_circle_starts(_corpus_family(name))
    assert Counter(status.tolist()) == {"converged": converged, "diverged": diverged}
    assert (np.abs(X[status == "diverged"]).max(axis=1) > critpts._DIVERGENCE).all()


def test_slow_tail_ends_diverged_before_s_rounds_to_one():
    """On Brieskorn-Pham x^3 + y^5 + z^7, omega = dx, some paths of the
    seed-42 circle starts grow like t^-1/4: out to |x| = 1e8 they would
    need t = 1 - s far below double resolution.  A tail step below 1e-12
    ends such a path as diverged; left to run, s + q t rounds to 1, the
    landing corrector accepts a far point, and the polish fails near
    |x| = 50."""
    vs = ["x", "y", "z"]
    inst = ProblemInstance(3, 1, [parse("x^3 + y^5 + z^7", vs)], [Poly.one(3), Poly.zero(3), Poly.zero(3)])
    _, status = _track_circle_starts(DeformationFamily(inst))
    assert Counter(status.tolist()) == {"converged": 145, "diverged": 471}


# ---- batched tracking and Newton ----------------------------------------------

def test_batched_track_matches_single_paths():
    """Tracking all start points at once gives each path the status and
    endpoint it gets when tracked alone; ex2_n3 has diverging paths, and
    each runs out past |x| > _DIVERGENCE rather than ending by its step
    walking below 1e-12 at a moderate |x|."""
    inst = ProblemInstance(
        3, 1, [parse("x1^2 + x2^2 + x3^3", ["x1", "x2", "x3"])],
        [Poly.one(3), Poly.zero(3), Poly.zero(3)],
    )
    fam = DeformationFamily(inst)
    h = critpts._Homotopy(fam, [(1e-2 * direction_of(inst, 42), np.random.default_rng(0))])
    starts = h.starts
    X, status = critpts._track(h, starts, h.target)
    assert "diverged" in status and "converged" in status
    assert (np.abs(X[status == "diverged"]).max(axis=1) > critpts._DIVERGENCE).all()
    for i, x0 in enumerate(starts):
        Xi, si = critpts._track(h, x0.reshape(1, -1), h.target[i : i + 1])
        assert si[0] == status[i]
        if si[0] == "converged":
            assert np.max(np.abs(Xi[0] - X[i])) < 1e-12


def test_every_unconverged_path_diverges():
    """On f = x^2 - y^2 + y^3, omega = dy, some paths reach s = 1 far out
    and fail the polish; they read diverged, and no path is a polish
    failure or a stall."""
    inst = ProblemInstance(
        2, 1, [parse("x^2 - y^2 + y^3", ["x", "y"])], [Poly.zero(2), Poly.one(2)]
    )
    fam = DeformationFamily(inst)
    h = critpts._Homotopy(fam, [(1e-2 * direction_of(inst, 42), np.random.default_rng(0))])
    _, status = critpts._track(h, h.starts, h.target)
    assert set(status) == {"converged", "diverged"}


def _diagonal_squares(X):
    """F_e = x_e^2 - 1 with its (diagonal) Jacobian."""
    return X**2 - 1, np.einsum("re,ef->ref", 2 * X, np.eye(X.shape[1]))


def test_newton_freezes_rows_independently():
    """A singular Jacobian fails its own row and leaves the others.  With
    one tolerance per row and equation, a row freezes at the first iterate
    where each of its equations passes its own tolerance; a scalar
    tolerance gives bitwise the result of that value on every entry."""
    X, ok = critpts._newton(
        lambda X: (X**2 - 1, (2 * X)[:, :, None]),
        np.array([[0.0], [2.0]]), iters=14, tol=1e-14,
    )
    assert ok.tolist() == [False, True]
    assert abs(X[1, 0] - 1) < 1e-14

    x, iterates = 2.0, []
    for _ in range(4):
        x = x - (x * x - 1) / (2 * x)
        iterates.append(x)
    # |x^2 - 1| at the iterates: 0.56, 0.051, 6.1e-4, 9.3e-8
    tol = np.array([[1e-3, 1e-3], [1e-3, 1e-6], [1e-14, 1e-14]])
    X, ok = critpts._newton(_diagonal_squares, np.full((3, 2), 2.0), iters=14, tol=tol)
    assert ok.all()
    assert X[0].tolist() == [iterates[2]] * 2
    assert X[1].tolist() == [iterates[3]] * 2  # the second equation holds it back
    assert np.abs(X[2] ** 2 - 1).max() < 1e-14
    X, ok = critpts._newton(_diagonal_squares, np.full((3, 2), 2.0), iters=1, tol=tol)
    assert not ok.any() and X.tolist() == [[iterates[0]] * 2] * 3

    X0 = np.array([[2.0, 3.0], [0.5, 1.5], [0.0, 2.0]])
    for tol in (1e-14, 1e-6):
        Xs, oks = critpts._newton(_diagonal_squares, X0, iters=14, tol=tol)
        Xa, oka = critpts._newton(_diagonal_squares, X0, iters=14, tol=np.full(X0.shape, tol))
        assert np.array_equal(Xs, Xa) and np.array_equal(oks, oka)
        assert oks.tolist() == [True, True, False]


# ---- one-table evaluator ------------------------------------------------------

def _random_poly(rng, nvars, deg, terms):
    coeffs = {}
    for _ in range(terms):
        mono = tuple(int(e) for e in rng.integers(0, deg + 1, nvars))
        coeffs[mono] = Fraction(int(rng.integers(-9, 10)), int(rng.integers(1, 4)))
    return Poly(coeffs, nvars)


def test_stacked_eval_matches_exact_evaluation():
    """Random and zero items agree with exact evaluation at dyadic points,
    one row at a time gives the rows of the batch, and complex points agree
    with the oracle ``eval_at``."""
    rng = np.random.default_rng(0)
    nv = 3
    items = [_random_poly(rng, nv, 4, 6) for _ in range(5)] + [Poly.zero(nv)]
    items += [_random_poly(rng, nv, 2, 3)]
    pts = [[Fraction(int(v), 8) for v in rng.integers(-12, 13, nv)] for _ in range(7)]
    X = np.array(pts, dtype=float).astype(complex)
    sp = StackedPolys(items, nv)
    got = sp.eval(X)
    assert got.shape == (len(pts), len(items))
    for i, p in enumerate(pts):
        assert np.allclose(sp.eval(X[i : i + 1])[0], got[i], rtol=1e-14, atol=1e-12)
        for j, item in enumerate(items):
            want = eval_at(item, p)
            assert abs(got[i, j] - float(want)) <= 1e-12 * max(1.0, abs(float(want)))
    # complex points against the term-by-term evaluation of eval_at
    Z = X + 1j * np.array(pts[::-1], dtype=float)
    got = sp.eval(Z)
    for i, z in enumerate(Z):
        for j, item in enumerate(items):
            want = eval_at(item, list(z))
            assert abs(got[i, j] - want) <= 1e-12 * max(1.0, abs(want))
    zero = StackedPolys([Poly.zero(nv), Poly.zero(nv)], nv)
    assert np.array_equal(zero.eval(X), np.zeros((len(pts), 2)))


def test_dedup_keeps_first_of_chain():
    """a ~ b and b ~ c but not a ~ c: b and c each lie within tol of an
    earlier row, so only a is kept; a duplicate is dropped."""
    a, b, c = [0.0, 1.0], [0.6, 1.0], [1.2, 1.0]
    keep = critpts._distinct(np.array([[a, b, c]], dtype=complex), 1.0)
    assert keep.tolist() == [[True, False, False]]
    keep = critpts._distinct(np.array([[a, a, b]], dtype=complex), 0.1)
    assert keep.tolist() == [[True, False, True]]


_PART = st.integers(0, 2)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_distinct_matches_dedup(data):
    """The batched distinctness mask equals the plain pairwise loop of
    ``oracles.dedup``.  Entries on a small integer grid and integer
    tolerances make distances equal to the tolerance common."""
    s, m, nu = (data.draw(st.integers(lo, hi)) for lo, hi in ((1, 4), (0, 5), (1, 3)))
    parts = data.draw(st.lists(st.tuples(_PART, _PART), min_size=s * m * nu, max_size=s * m * nu))
    Xs = (np.reshape(parts, (-1, 2)) @ [1, 1j]).reshape(s, m, nu)
    tols = st.lists(st.sampled_from([0.5, 1.0, 2.0, 3.0]), min_size=s, max_size=s)
    tol = np.array(data.draw(tols))
    assert critpts._distinct(Xs, tol).tolist() == dedup(Xs, tol).tolist()


def test_distinct_at_the_tolerance():
    """Rows exactly tol apart are distinct; closer ones are not."""
    X = np.array([[[0.0, 0.0], [0.5, 0.25j]], [[1.0, 0.0], [1.0, 0.5]]])
    tol = np.array([0.5, 0.5])
    assert critpts._distinct(X, tol).tolist() == [[True, True], [True, True]]
    assert dedup(X, tol).tolist() == [[True, True], [True, True]]
    assert critpts._distinct(X, tol + 2.0**-20).tolist() == [[True, False], [True, False]]


# ---- batched fresh solves ---------------------------------------------------

def _seeded_targets(fam, seed, ts):
    """One target (t u, rng) per t, each with its own rng seeded by (seed,
    its index), which draws its direction u and then its start system."""
    rngs = [np.random.default_rng([seed, i]) for i in range(len(ts))]
    return [(t * generic_direction(rng, fam.nunk), rng) for t, rng in zip(ts, rngs)]


@pytest.mark.parametrize("name", ["ex2_n3", "cusp"])
def test_batch_matches_one_target_solves(name):
    """One batch gives each target the points and solver counters of its
    one-target solve with the same draws; both families have diverging
    paths, and the targets differ in direction and radius."""
    fam = _corpus_family(name)
    ts = [1e-2, 5e-3, 1e-2, 2e-3j]
    got = critpts.solve_fresh(fam, _seeded_targets(fam, 77, ts), 4)
    for i, ((p, rows, counters), t) in enumerate(zip(got, ts)):
        rng = np.random.default_rng([77, i])
        want = solve_family_at(fam, t * generic_direction(rng, fam.nunk), 4, rng)
        ps = _grid(fam, [p], rows)
        assert np.array_equal(ps.p, want.p) and len(ps) == len(want) == 4
        assert np.max(np.abs(ps.X - want.X)) < 1e-12
        assert counters == want.diagnostics
    assert not np.allclose(got[0][0] / ts[0], got[1][0] / ts[1])  # two directions
    assert sum(counters["paths_diverged"] for _, _, counters in got) > 0


def test_failing_target_retries_and_fails_alone(monkeypatch):
    """A target that keeps finding one point too few is the only one to
    retry, and the only one whose count fails when it is required; the
    others find their count on the first batch."""
    fam = DeformationFamily(ex1(2, (1, 2)))
    bad_t = 2e-2
    distinct, track = critpts._distinct, critpts._track
    batches = []

    def drop_one_at_bad_t(Xs, tol):  # the merge tolerance at |p| = bad_t
        keep = distinct(Xs, tol)
        if np.isclose(tol, critpts._merge_tolerance([bad_t]), rtol=1e-9, atol=0):
            keep[0, np.flatnonzero(keep[0])[-1]] = False
        return keep

    def recording(h, starts, tgt):
        batches.append(np.linalg.norm(h.p, axis=1).tolist())
        return track(h, starts, tgt)

    monkeypatch.setattr(critpts, "_distinct", drop_one_at_bad_t)
    monkeypatch.setattr(critpts, "_track", recording)
    ts = [1e-2, bad_t, 5e-3]
    got = critpts.solve_fresh(fam, _seeded_targets(fam, 3, ts), 4)
    assert [len(b) for b in batches] == [3] + [1] * critpts._MAX_RETRIES
    assert np.allclose(batches[0], ts, rtol=1e-12, atol=0)
    assert all(np.isclose(b[0], bad_t, rtol=1e-12, atol=0) for b in batches[1:])
    assert len(got[1][1]) == 3  # the rows of its last attempt
    with pytest.raises(CountMismatchError) as exc:
        critpts._require_count(got, 4)
    assert str(exc.value) == "found 3 critical points, expected 4"
    assert exc.value.diagnostics is got[1][2]
    assert got[1][2]["retries"] == critpts._MAX_RETRIES + 1
    assert got[1][2]["paths_tracked"] == 4 * (critpts._MAX_RETRIES + 1)
    for i in (0, 2):
        assert len(got[i][1]) == 4
        assert got[i][2]["retries"] == 0
        assert got[i][2]["paths_tracked"] == 4


@pytest.mark.parametrize(
    "text,nu,found",
    [
        ("variables: x, y\nf: x^2 - y^2 + y^3\nomega: 0, 1\n", 2, 3),
        ("mode: elkh\nvariables: x, y\nomega: x^5 + x*y^2, y^4 - x^2*y\n", 12, 20),
        ("variables: x, y, z\nf: x^2 + y^2 + z^3, x*y + z^2\nomega: 0, 0, 1\n", 8, 12),
    ],
    ids=["nodal_cubic", "elkh_quintic", "k2_space_curve"],
)
def test_fresh_solve_returns_the_rows_it_found(text, nu, found):
    """On inputs with critical points away from the origin, the fresh solve
    of the first circle sample at seed 42 finds more than nu points on
    every attempt and returns those of its last, each a zero of the system
    and no two merged; requiring the count raises with its counters."""
    inst = problem_to_instance(parse_problem_file(text))
    assert algebra(inst).colength == nu
    fam = DeformationFamily(inst)
    rng = np.random.default_rng(42)
    p = LimitConfig().radii[0] * generic_direction(rng, fam.nunk)
    got = critpts.solve_fresh(fam, [(p, rng)], nu)
    ((q, rows, counters),) = got
    assert np.array_equal(q, p) and rows.shape == (found, fam.nunk)
    assert np.abs(fam.system(p, rows)[0]).max() < 1e-10
    assert critpts._distinct(rows[None], critpts._merge_tolerance(p[None])).all()
    assert counters["retries"] == critpts._MAX_RETRIES + 1
    with pytest.raises(CountMismatchError) as exc:
        critpts._require_count(got, nu)
    assert str(exc.value) == f"found {found} critical points, expected {nu}"
    assert exc.value.diagnostics is counters


@pytest.mark.xfail(strict=True, reason="a landing step jumps to another root (ROADMAP item 5)")
@pytest.mark.parametrize("seed", range(5))
def test_fresh_solve_finds_the_far_zeros(seed):
    """k = 0, A = (x1 - x1^2/1000, x2 + x2^3) has six isolated zeros, x1
    near 0 or 1000 and x2 near 0 or +-i, and six start paths.  Every path
    converges, but the three bound for x1 near 1000 take a landing step
    from |x| below 20, and their corrector converges to a zero near x1 = 0
    that another path reaches: it tests only the residual, never how far it
    moved the row.  So the solve keeps 3 distinct rows on every attempt."""
    vs = ["x1", "x2"]
    A = [parse("x1", vs) - parse("x1^2", vs) * Fraction(1, 1000), parse("x2 + x2^3", vs)]
    fam = DeformationFamily(ProblemInstance(2, 0, [], A))
    rng = np.random.default_rng(seed)
    p = 1e-2 * generic_direction(rng, fam.nunk)
    ((_, rows, counters),) = critpts.solve_fresh(fam, [(p, rng)], 6)
    assert counters["paths_diverged"] == counters["path_failures"] == 0
    assert len(rows) == 6


# ---- anchored solves --------------------------------------------------------

def _grid(fam, P, X):
    """The point set of the rows X of the grid points P, one block of rows
    per point."""
    return critpts._point_set(fam, P, np.reshape(X, (len(P), -1, fam.nunk)))[0]


def _cusp_grid(samples):
    """The cusp family, the points P of a circle of radius 1e-2 and, per
    sample, its critical points from a circle continuation."""
    fam = DeformationFamily(cusp())
    P = circle(1e-2 * direction_of(fam.inst, 42), samples)
    rng = np.random.default_rng(0)
    X, _ = track_circle(fam, P[None], critpts.solve_fresh(fam, [(P[0], rng)], 4), 4, rng)
    return fam, P, _grid(fam, P, X).X.reshape(samples, 4, 3)


def test_solve_anchored_matches_continuation():
    """One anchored Newton batch, from the points of a circle continuation
    moved by up to 1e-6, gives the point sets of a continuation with other
    draws."""
    fam, P, anchors = _cusp_grid(16)
    noise = np.random.default_rng(2).uniform(-1e-6, 1e-6, anchors.shape)
    X, got_stats = solve_anchored(fam, P, anchors + noise, 4, np.random.default_rng(1))
    rng = np.random.default_rng(3)
    Y, stats = track_circle(fam, P[None], critpts.solve_fresh(fam, [(P[0], rng)], 4), 4, rng)
    assert X.shape == (16, 4, 3) and Y.shape == (1, 16, 4, 3)
    assert stats["fresh_solves"] == 1
    assert got_stats["fresh_solves"] == 0  # no fresh solve
    got, want = _grid(fam, P, X), _grid(fam, P, Y)
    assert len(got) == len(want) == 16 * 4
    assert np.array_equal(got.p, np.repeat(P, 4, axis=0)) and np.array_equal(want.p, got.p)
    assert np.max(np.abs(got.X - want.X)) < 1e-12
    assert np.allclose(got.jtilde, want.jtilde, rtol=1e-10, atol=0)


def test_solve_anchored_falls_back_per_sample(monkeypatch):
    """A sample failing the warm tests, and only that one, is solved fresh,
    and its rows keep their place in the grid.  Two rows of the third
    sample start at one point, so its Newton rows coincide."""
    fam, P, anchors = _cusp_grid(8)
    good = anchors.copy()
    anchors[2, 1] = anchors[2, 0]
    solve_fresh, fresh = critpts.solve_fresh, []

    def recording(family, targets, expected):
        targets = list(targets)
        fresh.extend(p for p, _ in targets)
        return solve_fresh(family, targets, expected)

    monkeypatch.setattr(critpts, "solve_fresh", recording)
    assert solve_warm(fam, P, anchors, 4)[1].tolist() == [i != 2 for i in range(8)]
    X, stats = solve_anchored(fam, P, anchors, 4, np.random.default_rng(1))
    assert np.array_equal(fresh, P[2:3])
    assert stats["fresh_solves"] == 1
    assert X.shape == (8, 4, 3)
    want = solve_family_at(fam, P[2], 4, np.random.default_rng(5))
    assert np.max(np.abs(_grid(fam, P[2:3], X[2]).X - want.X)) < 1e-12
    warm, _ = solve_anchored(fam, P, good, 4, np.random.default_rng(1))
    assert np.array_equal(np.delete(X, 2, axis=0), np.delete(warm, 2, axis=0))
    assert np.max(np.abs(_grid(fam, P, X).X - _grid(fam, P, warm).X)) < 1e-12


def test_degenerate_grid_sample_raises_without_re_solve(monkeypatch):
    """A grid row without a chart fails its own sample in the one chart
    test of the finished grid: the sampler raises CountMismatchError naming
    one sample, with the counters of its fresh solves, and solves nothing
    fresh after the batch of the circles' first samples."""
    jacobian_data, solve_fresh = DeformationFamily.jacobian_data, critpts.solve_fresh
    batches = []

    def no_chart_in_one_grid_row(self, J):
        *data, chart = jacobian_data(self, J)
        if len(J) == 2 * 16 * 4:  # the whole grid; a fresh target has 4 rows
            chart[5] = False
        return (*data, chart)

    def recording(family, targets, expected):
        targets = list(targets)
        batches.append(len(targets))
        return solve_fresh(family, targets, expected)

    monkeypatch.setattr(DeformationFamily, "jacobian_data", no_chart_in_one_grid_row)
    monkeypatch.setattr(critpts, "solve_fresh", recording)
    with pytest.raises(CountMismatchError) as exc:
        make_sampler(cusp(), LimitConfig(samples=16), 42, 4)
    assert str(exc.value) == "chart is degenerate at 1 of 32 samples"
    assert batches == [2]  # the first samples of both circles
    assert exc.value.diagnostics["fresh_solves"] == 2


def test_solve_warm_makes_no_chart_test(monkeypatch):
    """A warm batch keeps only Newton's masks: it never calls
    ``jacobian_data``, whose chart test runs on the finished grid."""
    fam, P, anchors = _cusp_grid(8)
    jacobian_data, calls = DeformationFamily.jacobian_data, []

    def recording(self, J):
        calls.append(len(J))
        return jacobian_data(self, J)

    monkeypatch.setattr(DeformationFamily, "jacobian_data", recording)
    _, ok = solve_warm(fam, P, anchors, 4)
    assert ok.all()
    assert calls == []


def test_solve_warm_evaluates_the_system_only_in_newton(monkeypatch):
    """Every system evaluation of a warm batch is one of Newton's."""
    fam, P, anchors = _cusp_grid(8)
    newton, system = critpts._newton, DeformationFamily.system
    depth, inside, outside = [0], [], []

    def tracking(*args, **kwargs):
        depth[0] += 1
        try:
            return newton(*args, **kwargs)
        finally:
            depth[0] -= 1

    def recording(self, P, X):
        (inside if depth[0] else outside).append(len(X))
        return system(self, P, X)

    monkeypatch.setattr(critpts, "_newton", tracking)
    monkeypatch.setattr(DeformationFamily, "system", recording)
    _, ok = solve_warm(fam, P, anchors, 4)
    assert ok.all()
    assert inside and set(inside) == {8 * 4}
    assert outside == []


# ---- Jacobian value ---------------------------------------------------------

def _block_values(J, n, k):
    """Per row of the system Jacobians J (rows f, then A - lambda df; columns
    x, then lambda) and per k-block K of the x-columns, in the order of
    ``itertools.combinations``: (Delta_K, Delta_K^2 det(T_K^T H T_K)),
    written out with numpy from the blocks of J: df = J[:k, :n], H =
    J[k:, :n], and dx = T_K dx_L the fiber chart (unit rows on L, the
    solution S of df_K S = -df_L on K).  The value is None where |Delta_K|
    <= 1e-6."""
    out = []
    for Jr in J:
        df, H, row = Jr[:k, :n], Jr[k:, :n], []
        for K in map(list, itertools.combinations(range(n), k)):
            L = [j for j in range(n) if j not in K]
            delta = np.linalg.det(df[:, K])
            if abs(delta) <= 1e-6:
                row.append((delta, None))
                continue
            T = np.zeros((n, n - k), dtype=complex)
            T[L], T[K] = np.eye(n - k), -np.linalg.solve(df[:, K], df[:, L])
            row.append((delta, delta**2 * np.linalg.det(T.T @ H @ T)))
        out.append(row)
    return out


def test_block_independence_cusp():
    """Jtilde is chart-free: both Jacobian blocks give the same value, the
    value of jacobian_data."""
    inst = cusp()
    fam = DeformationFamily(inst)
    rng = np.random.default_rng(0)
    ps = solve_family_at(fam, 1e-2 * direction_of(inst, 42), 4, rng)
    J = fam.system(ps.p, ps.X)[1]
    jt = fam.jacobian_data(J)[0]
    checked = 0
    for ((_, j0), (_, j1)), want in zip(_block_values(J, 2, 1), jt):
        if j0 is not None and j1 is not None:
            assert abs(j0 - j1) <= 1e-8 * abs(j0)
            assert abs(j0 - want) <= 1e-8 * abs(j0)
            checked += 1
    assert checked >= 2


def _solved_grids():
    """(name, family, grid, J), J the system Jacobian at the grid's rows:
    the circle grids of every corpus instance at 16 samples (k = 0, 1, 2),
    and the cusp's grid twisted by ``TWIST`` as class invariance evaluates
    it, the base rows with the first multiplier shifted by h(x) = 2x (the
    twisted zeros) and the Jacobian that ``residuefn._twist`` builds there."""
    for name, ci in CORPUS.items():
        inst = ci.instance()
        sampler = make_sampler(inst, LimitConfig(samples=16), 42, algebra(inst).colength)
        grid = sampler.grid
        yield name, sampler.family, grid, sampler.family.system(grid.p, grid.X)[1]
    fam, P, anchors = _cusp_grid(16)
    base = _grid(fam, P, anchors)
    F, J = residuefn._twist(*fam.system(base.p, base.X), base.x, TWIST)
    X = base.X.copy()
    X[:, 2] += 2 * base.x[:, 0]
    jtilde = fam.jacobian_data(J)[0]
    grid = critpts.CriticalPointSet(base.p, X, np.abs(F).max(axis=1), jtilde, J[:, :1, :2].copy())
    yield "twisted_cusp", fam, grid, J


def test_bordered_identity_on_every_block():
    """At every grid point the point set's Jtilde, (-1)^(n k) det J of the
    system Jacobian J, equals Delta_K^2 det(T_K^T H T_K) on every block K
    with |Delta_K| > 1e-6, and its df is J[:, :k, :n].  The sign is +1
    both on ex1_n2, where (-1)^k is -1, and on four_lines, where (-1)^n is
    -1."""
    ks = set()
    for name, fam, grid, J in _solved_grids():
        assert np.array_equal(grid.df, J[:, : fam.k, : fam.n]), name
        checked = 0
        for row, jt in zip(_block_values(J, fam.n, fam.k), grid.jtilde):
            for _, value in row:
                if value is not None:
                    assert abs(value - jt) <= 1e-9 * abs(value), name
                    checked += 1
        assert checked >= len(grid) > 0, name
        ks.add(fam.k)
    assert ks == {0, 1, 2}


class _KeepValues:
    """A sampler stand-in for ``qomega_numeric``: ``limit`` keeps the
    function of point sets it is given."""

    def __init__(self, family):
        self.family = family

    def limit(self, values, labels):
        self.values = values
        return np.zeros(len(labels))


def test_lambda_product_is_the_chart_product_on_every_block():
    """qomega_numeric's summand at a grid row, h h' det[df; e_G] det[df;
    e_G'] / Jtilde for generators h dx_G and h' dx_G', is the chart
    product a a' Delta_K^2 / Jtilde, a = h det(T_K[G]) with T_K the fiber
    chart of the test's own solve, on every block K with |Delta_K| > 1e-6:
    det[df; e_G] = sgn(K, L) Delta_K det(T_K[G]), and the sign cancels.
    Each block is compared row by row, on the rows where it is a chart: a
    sum over a circle grid cancels the pairs whose limit is 0."""
    ks = set()
    for name, fam, grid, _ in _solved_grids():
        n, k = fam.n, fam.k
        gens = default_generators(fam.inst)
        kept = _KeepValues(fam)
        qomega_numeric(gens, kept)
        pairs = np.triu_indices(len(gens))
        h = StackedPolys([g.coeff for g in gens], n).eval(grid.x)
        checked = 0
        for K in map(list, itertools.combinations(range(n), k)):
            L = [j for j in range(n) if j not in K]
            rows = np.flatnonzero(np.abs(np.linalg.det(grid.df[:, :, K])) > 1e-6)
            ps = grid.rows(rows)
            delta = np.linalg.det(ps.df[:, :, K])
            T = np.zeros((len(ps), n, n - k), dtype=complex)
            T[:, L] = np.eye(n - k)
            if k:
                T[:, K] = -np.linalg.solve(ps.df[:, :, K], ps.df[:, :, L])
            a = h[rows] * np.stack([np.linalg.det(T[:, list(g.index_set)]) for g in gens], axis=1)
            want = a[:, pairs[0]] * a[:, pairs[1]] * (delta**2 / ps.jtilde)[:, None]
            got = np.array([kept.values(ps.rows([i])) for i in range(len(ps))]).reshape(want.shape)
            size = np.abs(want).max(axis=1, initial=0.0)[:, None]
            assert np.all(np.abs(got - want) <= 1e-9 * size), (name, K)
            checked += len(rows)
        assert checked >= len(grid) > 0, name
        ks.add(k)
    assert ks == {0, 1, 2}


def _best_blocks(df):
    """Per row of df (shape (m, k, n)), the k-block K maximizing
    |Delta_K|, in the order of ``itertools.combinations``."""
    blocks = list(itertools.combinations(range(df.shape[2]), df.shape[1]))
    dets = [np.abs(np.linalg.det(df[:, :, list(K)])) for K in blocks]
    return [blocks[b] for b in np.argmax(dets, axis=0)]


def test_batched_chart_data_matches_rowwise():
    """jacobian_data on all rows agrees with jacobian_data row by row, and
    the point set's df is the Jacobian of f at its rows.

    The quadric points sit in pairs on the coordinate axes, so each block
    of df is the largest at one pair: the chart test looks at every block.
    """
    inst = ex1(3, (1, 2, 4))
    fam = DeformationFamily(inst)
    ps = solve_family_at(fam, 1e-2 * direction_of(inst, 42), 6, np.random.default_rng(0))
    assert set(_best_blocks(ps.df)) == {(0,), (1,), (2,)}
    J = fam.system(ps.p, ps.X)[1]
    assert np.array_equal(ps.df, J[:, : inst.k, : inst.n])
    jt, chart = fam.jacobian_data(J)
    assert chart.all()
    for i in range(len(J)):
        j1, c1 = fam.jacobian_data(J[i : i + 1])
        assert c1[0]
        assert abs(j1[0] - jt[i]) <= 1e-12 * abs(jt[i])


def test_chart_data_with_per_row_t():
    """jacobian_data on the system Jacobian with one p per row, over the
    points of two deformation points and several best blocks, equals
    jacobian_data at each row's own p, and the rows' df are those of the
    two point sets."""
    inst = ex1(3, (1, 2, 4))
    fam, u = DeformationFamily(inst), direction_of(inst, 42)
    a = solve_family_at(fam, 1e-2 * u, 6, np.random.default_rng(0))
    b = solve_family_at(fam, 2e-2j * u, 6, np.random.default_rng(1))
    X = np.concatenate([a.X, b.X])
    tr = np.concatenate([a.p, b.p])
    J = fam.system(tr, X)[1]
    jt, chart = fam.jacobian_data(J)
    assert chart.all()
    assert len(set(_best_blocks(J[:, : inst.k, : inst.n]))) > 1
    assert np.array_equal(J[:, : inst.k, : inst.n], np.concatenate([a.df, b.df]))
    for i in range(len(X)):
        j1, _ = fam.jacobian_data(fam.system(tr[i], X[i : i + 1])[1])
        assert abs(j1[0] - jt[i]) <= 1e-12 * abs(jt[i])


@pytest.mark.parametrize(
    "inst_builder,expected",
    [
        (lambda: ex1(2, (1, 2)), 4),
        (lambda: cusp(), 4),
        (lambda: ex1(3, (1, 2, 4)), 6),
        (lambda: CORPUS["four_lines"].instance(), 8),
        (lambda: CORPUS["elkh_z3"].instance(), 9),
    ],
)
def test_jtilde_against_finite_differences(inst_builder, expected):
    inst = inst_builder()
    u = direction_of(inst, 7)
    fam = DeformationFamily(inst)
    rng = np.random.default_rng(1)
    t = 1e-2
    ps = solve_family_at(fam, t * u, expected, rng)
    for x, K, jt in list(zip(ps.x, _best_blocks(ps.df), ps.jtilde))[:3]:
        fd = fd_restricted_jacobian(inst, u, t, tuple(x), K)
        assert abs(fd - jt) < 1e-4 * max(abs(jt), 1e-12)


def test_jacobian_value_spec_surface():
    eps = 0.01
    fam = DeformationFamily(ex1(2, (1, 2)))
    J = fam.system(np.array([eps, 0.0, 0.0]), np.array([[eps**0.5, 0.0, 0.5]]))[1]  # lambda = a1 / 2
    jt, chart = fam.jacobian_data(J)
    assert chart.tolist() == [True]
    assert abs(J[0, 0, 0] - 2 * eps**0.5) < 1e-12  # df/dx at the point
    assert abs(jt[0] - 4 * eps * 1.0) < 1e-12  # 4 eps (a2 - a1)


@pytest.mark.parametrize(
    "name,expected,near",
    [("ex1_n2", 4, (1e-14, 3e-14)), ("four_lines", 8, (1e-7, 1e-7, 1e-7))],
    ids=["k1", "k2"],
)
def test_chart_mask_fails_only_the_degenerate_rows(name, expected, near):
    """Rows with df = 0 and with every k x k block near-singular, the best
    not the first, have no chart; jacobian_data still returns a finite
    Jtilde, and the other rows' data as without them.  In ``_point_set``
    such a row fails its own sample only."""
    fam = _corpus_family(name)
    ps = solve_family_at(fam, _point(fam), expected, np.random.default_rng(0))
    zero = np.zeros(fam.nunk)
    near = np.concatenate([near, ps.X[0, fam.n :]])  # with a solution's multipliers
    dfx = fam.system(ps.p[0], near[None])[1][0, : fam.k, : fam.n]
    assert _best_blocks(dfx[None]) != [tuple(range(fam.k))]
    J = fam.system(ps.p[0], np.vstack([ps.X, zero, near]))[1]
    jt, chart = fam.jacobian_data(J)
    assert chart.tolist() == [True] * expected + [False, False]
    assert np.isfinite(jt).all()
    want = fam.jacobian_data(J[:expected])
    for got, w in zip((jt, chart), want):
        assert np.allclose(got[:expected], w, rtol=1e-12, atol=0)
    Xs = np.repeat(ps.X[None], 4, axis=0)
    Xs[1, 0], Xs[2, -1] = zero, near
    _, ok = critpts._point_set(fam, [ps.p[0]] * 4, Xs)
    assert ok.tolist() == [True, False, False, True]


# ---- determinism and circles --------------------------------------------------

def test_determinism_same_seed():
    fam, p = DeformationFamily(cusp()), np.array([0.01, 0.002, 0.001])
    a = solve_family_at(fam, p, 4, np.random.default_rng(9))
    b = solve_family_at(fam, p, 4, np.random.default_rng(9))
    assert np.array_equal(a.x, b.x)
    assert np.array_equal(a.jtilde, b.jtilde)


def test_track_circle_counts():
    inst = ex1(2, (1, 2))
    p = 1e-2 * direction_of(inst, 5)
    fam = DeformationFamily(inst)
    rng = np.random.default_rng(2)
    first = critpts.solve_fresh(fam, [(p, rng)], 4)
    X, stats = track_circle(fam, circle(p, 16)[None], first, 4, rng)
    assert X.shape == (1, 16, 4, 3)
    assert np.array_equal(X[0, 0], first[0][1])
    grid = _grid(fam, circle(p, 16), X)
    assert len(grid) == 16 * 4
    assert np.array_equal(grid.p, np.repeat(circle(p, 16), 4, axis=0))
    # nondegeneracy of every point on the whole circle
    assert np.all(np.abs(grid.jtilde) > 1e-12)
    assert stats["fresh_solves"] >= 1


def _firsts(fam, radii, expected, seed):
    """The fresh solves (p, rows, counters) of the first samples of circles
    of the given radii, one batch."""
    rng = np.random.default_rng(seed)
    return critpts.solve_fresh(fam, [(_point(fam, r), rng) for r in radii], expected), rng


@pytest.mark.parametrize("radii", [(1e-2, 5e-3), (1e-2, 5e-3, 2.5e-3)])
@pytest.mark.parametrize("name,expected", [("cusp", 4), ("ex1_n3", 6)])
def test_lockstep_matches_circle_by_circle(name, expected, radii):
    """All circles in lockstep give the point sets and solver counters of
    continuing each circle alone."""
    fam = _corpus_family(name)
    firsts, rng = _firsts(fam, radii, expected, 1)
    P = np.array([circle(p, 16) for p, _, _ in firsts])
    X, stats = track_circle(fam, P, firsts, expected, rng)
    alone = [track_circle(fam, P[c : c + 1], [first], expected, rng) for c, first in enumerate(firsts)]
    rows = 16 * expected
    assert X.shape == (len(radii), 16, expected, fam.nunk)
    grid = _grid(fam, P.reshape(-1, fam.nunk), X)
    for c, (Y, want_stats) in enumerate(alone):
        part, want = grid.rows(slice(c * rows, c * rows + rows)), _grid(fam, P[c], Y)
        assert np.array_equal(part.p, want.p)
        assert np.max(np.abs(part.X - want.X)) < 1e-12
        assert np.allclose(part.df, want.df, rtol=1e-12, atol=0)
        assert np.allclose(part.jtilde, want.jtilde, rtol=1e-12, atol=0)
    total = Counter()
    for _, s in alone:
        total.update(s)
    assert stats == dict(total)
    assert stats == critpts.solve_stats(firsts)  # no fallback on either path


@pytest.mark.parametrize("inner", [False, True])
def test_lockstep_failed_step_falls_back_alone(monkeypatch, inner):
    """A warm step that fails on one circle (the outer or the inner one) at
    one angle is solved fresh at that angle, for that circle alone; the
    other circle's rows are the ones it has without the failure."""
    fam = _corpus_family("cusp")
    radii = (1e-2, 5e-3)
    firsts, rng = _firsts(fam, radii, 4, 1)
    P = np.array([circle(p, 16) for p, _, _ in firsts])
    want, _ = track_circle(fam, P, firsts, 4, np.random.default_rng(2))
    warm, solve_fresh = critpts.solve_warm, critpts.solve_fresh
    bad_p = circle(_point(fam, radii[inner]), 16)[5]
    calls, fresh = [], []

    def fail_at_bad_p(family, P, starts, expected):
        calls.append(len(P))
        X, ok = warm(family, P, starts, expected)
        return X, ok & (P != bad_p).any(axis=1)

    def recording(family, targets, expected):
        targets = list(targets)
        fresh.extend(p for p, _ in targets)
        return solve_fresh(family, targets, expected)

    monkeypatch.setattr(critpts, "solve_warm", fail_at_bad_p)
    monkeypatch.setattr(critpts, "solve_fresh", recording)
    X, stats = track_circle(fam, P, firsts, 4, np.random.default_rng(2))
    assert calls == [2] * 15  # one batch per angle step
    assert np.array_equal(fresh, [bad_p])
    assert stats["fresh_solves"] == 3
    assert X.shape == want.shape == (2, 16, 4, 3)
    failed, untouched = int(inner), 1 - int(inner)
    assert np.array_equal(X[untouched], want[untouched])
    assert np.array_equal(X[failed, :5], want[failed, :5])
    got_set, want_set = _grid(fam, P[failed], X[failed]), _grid(fam, P[failed], want[failed])
    assert np.max(np.abs(got_set.X - want_set.X)) < 1e-12


@pytest.mark.parametrize("radii", [(1e-2, 5e-3), (1e-2, 5e-3, 2.5e-3)])
@pytest.mark.parametrize("name,expected", [("cusp", 4), ("ex1_n3", 6)])
def test_chain_and_fill_match_step_by_step(name, expected, radii):
    """At 64 samples (a chain of 16 angles, every fourth sample, and 48
    fill samples per circle) each sample's sorted rows are those of
    continuing every circle one angle step at a time, with the same solver
    counters."""
    fam = _corpus_family(name)
    firsts, rng = _firsts(fam, radii, expected, 1)
    P = np.array([circle(p, 64) for p, _, _ in firsts])
    X, stats = track_circle(fam, P, firsts, expected, rng)
    Y, want_stats = track_circle_by_steps(fam, P, firsts, expected, rng)
    assert X.shape == Y.shape == (len(radii), 64, expected, fam.nunk)
    points = P.reshape(-1, fam.nunk)
    got, want = _grid(fam, points, X), _grid(fam, points, Y)
    assert np.array_equal(got.p, want.p)
    assert np.max(np.abs(got.X - want.X)) < 1e-12
    assert stats == want_stats == critpts.solve_stats(firsts)


def test_failed_fill_sample_is_solved_fresh_alone(monkeypatch):
    """A fill sample of the inner circle that fails its warm tests is solved
    fresh alone, in one ``solve_fresh`` call; every other row is bitwise
    the unpatched grid's, and the failed sample's set is its set."""
    fam = _corpus_family("cusp")
    firsts, _ = _firsts(fam, (1e-2, 5e-3), 4, 1)
    P = np.array([circle(p, 64) for p, _, _ in firsts])
    want, _ = track_circle(fam, P, firsts, 4, np.random.default_rng(2))
    bad = 5  # between the chain samples 4 and 8
    warm, solve_fresh = critpts.solve_warm, critpts.solve_fresh
    fresh = []

    def fail_at_bad_p(family, Q, starts, expected):
        X, ok = warm(family, Q, starts, expected)
        return X, ok & (Q != P[1, bad]).any(axis=1)

    def recording(family, targets, expected):
        targets = list(targets)
        fresh.append([p for p, _ in targets])
        return solve_fresh(family, targets, expected)

    monkeypatch.setattr(critpts, "solve_warm", fail_at_bad_p)
    monkeypatch.setattr(critpts, "solve_fresh", recording)
    X, stats = track_circle(fam, P, firsts, 4, np.random.default_rng(2))
    assert len(fresh) == 1 and np.array_equal(fresh[0], [P[1, bad]])
    assert stats["fresh_solves"] == 3
    others = np.ones(P.shape[:2], dtype=bool)
    others[1, bad] = False
    assert np.array_equal(X[others], want[others])
    at = P[1, bad : bad + 1]
    assert np.max(np.abs(_grid(fam, at, X[1, bad]).X - _grid(fam, at, want[1, bad]).X)) < 1e-12
