"""Critical points of a deformed 1-form on a smooth fiber.

For a deformed instance (f - eps, omega - alpha) the zeros of the restricted
1-form are found as solutions of the multiplier (Lagrange) system

    f_i(x) - eps_i = 0                                 (i = 1..k)
    A_j(x) - alpha_j - sum_i lambda_i df_i/dx_j(x) = 0 (j = 1..n)

by homotopy continuation with the gamma trick from a 2-homogeneous
linear-product start system over the variable groups x | lambda (Morgan &
Sommese 1987): a solve tracks the system's 2-homogeneous Bezout number of
paths, not its total degree.  ``solve_fresh`` solves a batch of targets
(family, t, rng) at once: the paths of all targets, each with its own step
and its target's gamma and start system, share one batched Euler predictor
and Newton corrector per round, with one stacked system evaluation for all
rows, and a Newton polish at the end; the gamma trick makes the paths
independent, so a batch changes no path.  The corrector's test is relative
to the size of each equation's terms, 1e-11 * max(1, |x|)^dx_e *
max(1, |lambda|)^dl_e for an equation of bidegree (dx_e, dl_e), so that a
path to infinity keeps its steps until |x| > ``_DIVERGENCE``; a path that
ends otherwise without converging is diverged when |x| > 1e2.  An analysis
solves the first sample of both circles and the count-certification runs in
one batch, and ``solve_family_at`` is the one-target case.  Points closer
than ``_merge_tolerance(t)`` are one point; the targets of a batch that
find the wrong count retry together, up to ``_MAX_RETRIES`` times, with a
new gamma and start system each, then try ``_MULTISTART`` random Newton
starts one by one.

``solve_warm`` runs one batched Newton (``_newton``) over the samples of a
grid, each from its own nearby solutions; a sample passes when three
masks hold: every row converged, no two rows are within the merge
tolerance, and its chart is not degenerate.  ``solve_anchored`` is the one
recovery rule: ``solve_warm``, then the samples that fail in one
``solve_fresh`` batch.  ``track_circle`` calls it once per angle step for
all circles in lockstep.  Both return a circle grid as one point set with
one t per row.

At each solution P the block K of columns maximizing |det (df_i/dx_j)_{j in K}|
is selected, Delta_K is that determinant and the fiber chart dx_K = S dx_L
(L the complement) solves df_K S = -df_L.  The chart-free Jacobian value

    Jtilde(P) = Delta_K^2 * det(T_K^T H T_K),   H = dA - sum_i lambda_i d^2 f_i,

with dx = T_K dx_L on the fiber, is Delta^2 times the Hessian determinant of
the restricted 1-form in the chart of the L-coordinates, independent of the
block.  The Jacobian of the multiplier system in (x, lambda) is
J = [[df, 0], [H, -df^T]], and by the bordered-Hessian identity
Jtilde = (-1)^(n k) det J at every critical point, so one system evaluation
gives the residual, Jtilde and the chart data.  For k = 0 this is
det(dA_i/dx_j)(P).

Deformations are affine in a single complex parameter t along a fixed
direction, so the symbolic work (the system equations and their
derivatives) is done once per family as pairs (P0, P1) meaning P0 + t*P1:
one ``StackedTPolys`` table for the system with its Jacobian, evaluated at
a scalar t or at one t per row.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .polyring import Poly

_CHART_TOL = 1e-12
_DIVERGENCE = 1e8
_MAX_RETRIES = 3
_MULTISTART = 60


class CountMismatchError(RuntimeError):
    """Solver could not certify the expected number of critical points."""

    def __init__(self, message, diagnostics=None):
        super().__init__(message)
        self.diagnostics = diagnostics or {}


class TPoly:
    """Pair (p0, p1) standing for p0 + t * p1, t the deformation parameter."""

    __slots__ = ("p0", "p1")

    def __init__(self, p0: Poly, p1: Poly):
        self.p0 = p0
        self.p1 = p1

    def diff(self, i: int) -> "TPoly":
        return TPoly(self.p0.diff(i), self.p1.diff(i))

    def degree(self) -> int:
        return max(self.p0.degree(), self.p1.degree())


class StackedTPolys:
    """Evaluate a list of affine-in-t polynomials from one power table.

    All terms of all polynomials share one exponent matrix, with one row per
    (t power, x monomial) and the t^1 rows last; the monomials at the rows
    of X are products of entries of the power table X^0..X^d, built by
    repeated products, the t^1 columns are scaled by t, and one weight
    matrix scatters them into per-polynomial sums.  This keeps the hot
    Newton loop at a handful of numpy calls regardless of system size.  A
    plain ``Poly`` in the list stands for a polynomial constant in t.
    """

    __slots__ = ("cols", "deg", "W", "t_from", "npolys", "nvars")

    def __init__(self, tpolys, nvars: int):
        tps = [tp if isinstance(tp, TPoly) else TPoly(tp, Poly.zero(nvars)) for tp in tpolys]
        parts = [list(enumerate((tp.p0, tp.p1))) for tp in tps]  # (t power, part)
        terms = sorted({(side, m) for pair in parts for side, p in pair for m in p.terms})
        index = {term: i for i, term in enumerate(terms)}
        self.W = np.zeros((len(terms), len(tps)), dtype=np.complex128)
        for i, pair in enumerate(parts):
            for side, p in pair:
                for m, c in p.terms.items():
                    self.W[index[side, m], i] = complex(c)
        E = np.array([m for _, m in terms], dtype=np.int64).reshape(len(terms), nvars)
        self.t_from = sum(1 for side, _ in terms if side == 0)  # the first t^1 row
        self.deg = int(E.max(initial=0))
        # per variable, the column of x_v^e in the flattened power table
        self.cols = list(E.T + (self.deg + 1) * np.arange(nvars)[:, None])
        self.npolys, self.nvars = len(tps), nvars

    def eval(self, t, X: np.ndarray) -> np.ndarray:
        """Values at rows of X, shape (m, npolys); t is a scalar or one
        value per row."""
        X = np.asarray(X, dtype=np.complex128)
        m = len(X)
        pw = np.empty((m, self.nvars, self.deg + 1), dtype=np.complex128)
        pw[:, :, 0] = 1.0
        for e in range(1, self.deg + 1):
            np.multiply(pw[:, :, e - 1], X, out=pw[:, :, e])
        pw = pw.reshape(m, self.nvars * (self.deg + 1))
        M = pw.take(self.cols[0], axis=1)
        for c in self.cols[1:]:
            M *= pw.take(c, axis=1)
        M[:, self.t_from :] *= np.asarray(t)[..., None]
        return M @ self.W


class DeformationFamily:
    """Deformed data along a fixed direction, affine in the parameter t.

    ``direction`` has k + n complex entries: the first k deform the equations
    (f_i - t*u_i), the rest shift the 1-form (A_j - t*u_{k+j}).  A twist
    (eta, h) additionally replaces A_j by A_j + (f_1 - t*u_1)*eta_j +
    h * df_1/dx_j, the deformation pattern of the class-invariance statement.
    """

    def __init__(self, inst, direction, twist=None):
        self.inst = inst
        n, k = inst.n, inst.k
        self.n, self.k = n, k
        self.nunk = n + k
        direction = tuple(complex(v) for v in direction)
        if len(direction) != n + k:
            raise ValueError("direction must have k + n entries")
        self.direction, self.twist = direction, twist

        self.F = [TPoly(inst.f[i], Poly.const(-direction[i], n)) for i in range(k)]
        self.df = [[inst.f[i].diff(j) for j in range(n)] for i in range(k)]
        if twist is None:
            self.A = [
                TPoly(inst.A[j], Poly.const(-direction[k + j], n)) for j in range(n)
            ]
        else:
            eta, h = twist
            if k == 0:
                raise ValueError("twists need k >= 1")
            self.A = []
            for j in range(n):
                base = inst.A[j] + inst.f[0] * eta[j] + h * self.df[0][j]
                drift = Poly.const(-direction[k + j], n) - direction[0] * eta[j]
                self.A.append(TPoly(base, drift))

        # multiplier system in n + k variables (x_1..x_n, lambda_1..lambda_k)
        eqs = []
        for i in range(k):
            eqs.append(TPoly(self.F[i].p0.lift(self.nunk), self.F[i].p1.lift(self.nunk)))
        for j in range(n):
            p0 = self.A[j].p0.lift(self.nunk)
            for i in range(k):
                lam = Poly.variable(n + i, self.nunk)
                p0 = p0 - lam * self.df[i][j].lift(self.nunk)
            eqs.append(TPoly(p0, self.A[j].p1.lift(self.nunk)))
        # (x-degree, lambda-degree) of each equation, for the start system
        dfdeg = [max([0] + [self.df[i][j].degree() for i in range(k)]) for j in range(n)]
        self.bidegrees = [(max(F.degree(), 1), 0) for F in self.F] + [
            (max(a.degree(), d, int(k == 0)), int(k > 0)) for a, d in zip(self.A, dfdeg)
        ]
        # values, then the Jacobian row-major, from one table
        self._csys = StackedTPolys(
            eqs + [e.diff(v) for e in eqs for v in range(self.nunk)], self.nunk
        )
        # the k-column blocks of df, index sets in _K and complements in _L
        self.blocks = list(itertools.combinations(range(n), k))
        self._K = np.array(self.blocks, dtype=np.int64)
        self._L = np.array([[j for j in range(n) if j not in K] for K in self.blocks])

    # -- system evaluation -------------------------------------------------

    def system(self, t, X: np.ndarray):
        """Values (m, n+k) and Jacobian (m, n+k, n+k) of the multiplier
        system at the rows of X; t is a scalar or one value per row."""
        nu = self.nunk
        out = self._csys.eval(t, X)
        return out[:, :nu], out[:, nu:].reshape(len(X), nu, nu)

    # -- chart-free Jacobian value ------------------------------------------

    def jacobian_data(self, J: np.ndarray):
        """(delta, jtilde, block, S, chart) from the system Jacobians J
        (shape (m, n+k, n+k)) at critical points.

        Per row, ``block`` indexes the block K of ``blocks`` maximizing
        |Delta_K| for df = J[:, :k, :n], ``delta`` is Delta_K, ``S`` (shape
        (m, k, n-k)) the fiber chart dx_K = S dx_L, the solution of
        df_K S = -df_L, and ``jtilde`` = (-1)^(n k) det J.  ``chart`` is
        False where even the best |Delta_K| is at most ``_CHART_TOL`` *
        (1 + max |df|): there delta and S are taken on blocks[0] of the
        stand-in df = eye(k, n), finite and meaningless.
        """
        n, k = self.n, self.k
        dfx = J[:, :k, :n]
        dets = np.abs(np.linalg.det(dfx[:, :, self._K].transpose(0, 2, 1, 3)))
        block = np.argmax(dets, axis=1)
        scale = 1.0 + np.abs(dfx).max(axis=(1, 2), initial=0.0)
        chart = dets[np.arange(len(J)), block] > _CHART_TOL * scale
        dfx = np.where(chart[:, None, None], dfx, np.eye(k, n))
        block = np.where(chart, block, 0)
        r = np.arange(len(J))[:, None]
        dfK = dfx[r, :, self._K[block]].transpose(0, 2, 1)
        dfL = dfx[r, :, self._L[block]].transpose(0, 2, 1)
        jtilde = (-1) ** (n * k) * np.linalg.det(J)
        return np.linalg.det(dfK), jtilde, block, -np.linalg.solve(dfK, dfL), chart


@dataclass
class CriticalPointSet:
    """Critical points, one row per point: those at one parameter value
    ``t``, or the samples of a circle grid, one after another, with one t
    per row.

    ``X`` holds the x-part and then the multipliers of each point,
    ``residual`` the max-norm of the system there, ``jtilde`` the chart-free
    Jacobian value (-1)^(n k) det J of the system Jacobian J, ``block``
    indexes the family's ``blocks``, ``delta`` is Delta_K on that block and
    ``S`` (shape (m, k, n-k)) the fiber chart dx_K = S dx_L.
    """

    t: complex | np.ndarray
    X: np.ndarray
    residual: np.ndarray
    delta: np.ndarray
    jtilde: np.ndarray
    block: np.ndarray
    S: np.ndarray
    diagnostics: dict = field(default_factory=dict)

    def __len__(self) -> int:
        return self.X.shape[0]

    @property
    def x(self) -> np.ndarray:
        """The x-parts of the points, shape (m, n)."""
        return self.X[:, : self.X.shape[1] - self.S.shape[1]]

    def rows(self, index) -> "CriticalPointSet":
        """The rows at ``index`` (a slice or index array), one t per row."""
        cols = (self.X, self.residual, self.delta, self.jtilde, self.block, self.S)
        return CriticalPointSet(np.broadcast_to(self.t, len(self))[index], *(c[index] for c in cols))


def _merge_tolerance(t) -> float:
    """Max-norm distance below which two solutions at t are one point."""
    return 1e-8 * max(abs(t), 1e-4)


def generic_direction(rng: np.random.Generator, m: int) -> tuple:
    """A seeded generic unit direction in C^m: real parts, then imaginary parts."""
    u = rng.standard_normal(m) + 1j * rng.standard_normal(m)
    return tuple(u / np.linalg.norm(u))


# ---------------------------------------------------------------------------
# homotopy tracking
# ---------------------------------------------------------------------------


def _start_system(family: DeformationFamily, rng: np.random.Generator):
    """(gamma, b, Lf, Mf, c, start points) of a 2-homogeneous start system
    G_e = (l_e(x)^dx_e - b_e) (m_e(lambda) - c_e)^dl_e, (dx_e, dl_e) the
    bidegree of equation e, l_e = x_j on row j and random on the f_i rows,
    m_e and c_e random; an x-degree 0 gives the x-factor -b_e, a lambda-
    degree 0 the lambda-factor 1.  For k = 0, G_j = x_j^d_j - b_j.  gamma, b,
    then the forms are drawn from rng; the forms l_e and m_e are the rows of
    the (nu, nu) matrices Lf and Mf.

    The zeros of G: per choice of k rows taking their lambda factor, and of
    a root of l_e^dx_e = b_e on every other equation, the solution of one
    linear system, all in one batched solve."""
    n, k, nu = family.n, family.k, family.nunk
    gamma = np.exp(2j * np.pi * rng.random())
    b = (0.5 + rng.random(nu)) * np.exp(2j * np.pi * rng.random(nu))
    dx, dl = np.array(family.bidegrees, dtype=np.int64).T
    lam, m = dl == 1, int(dl.sum())

    def cn(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    Lf = np.zeros((nu, nu), dtype=np.complex128)
    Lf[:k, :n], Lf[k:, :n] = cn(k, n), np.eye(n)
    Lf[dx == 0] = 0.0
    Mf = np.zeros((nu, nu), dtype=np.complex128)
    Mf[lam, n:] = cn(m, k)
    c = np.where(lam, 0j, -1.0)  # m_e - c_e = 1 where dl_e = 0
    c[lam] = cn(m)

    A, rhs = [], []
    for S in itertools.combinations(np.flatnonzero(dl).tolist(), k):
        roots = [
            [c[e]] if e in S
            else [b[e] ** (1.0 / d) * np.exp(2j * np.pi * r / d) for r in range(d)]
            for e, d in enumerate(dx.tolist())
        ]
        rs = list(itertools.product(*roots))
        A += [[Mf[e] if e in S else Lf[e] for e in range(nu)]] * len(rs)
        rhs += rs
    starts = np.linalg.solve(np.reshape(A, (-1, nu, nu)), np.reshape(rhs, (-1, nu, 1)))[:, :, 0]
    return gamma, b, Lf, Mf, c, starts


class _Homotopy:
    """H(x, s) = gamma (1-s) G(x) + s F(x) for a batch of targets (family,
    t, rng), F the family's system at t and G a start system of
    ``_start_system`` drawn from rng.  The start points of all targets are
    stacked in ``starts``, ``target`` giving each row's target, and the
    parameters of the targets in arrays indexed by target.

    ``targets`` is read in order, and each target's start system is drawn
    before the next target is read, so targets built lazily from one rng
    draw their own data and then their start system, target after target.
    All targets share one instance and twist, and one table evaluation
    serves every row: an untwisted family's direction u enters only the
    constant t-terms of its system, so a row takes the first family's system
    minus t (u - u_first).  Twisted families must share the direction.
    """

    def __init__(self, targets):
        self.targets, drawn = [], []
        for family, t, rng in targets:
            self.targets.append((family, t, rng))
            drawn.append(_start_system(family, rng))
        self.family = first = self.targets[0][0]
        for family, _, _ in self.targets:
            if family.inst is not first.inst or family.twist is not first.twist or (
                family.twist is not None and family.direction != first.direction
            ):
                raise ValueError("a batch needs one instance and twist, and one twisted direction")
        *params, starts = zip(*drawn)
        self.gamma, self.b, self.Lf, self.Mf, self.c = map(np.array, params)
        self.starts = np.concatenate(starts)
        self.target = np.repeat(np.arange(len(starts)), [len(p) for p in starts])
        self.t = np.array([t for _, t, _ in self.targets], dtype=np.complex128)
        self.du = np.array([f.direction for f, _, _ in self.targets]) - first.direction
        self.n, self.bideg = first.n, np.array(first.bidegrees, dtype=np.int64)
        dx = self.bideg[:, 0]
        self.dx1, self.gdx = np.maximum(dx - 1, 0), self.gamma[:, None] * dx

    def scale(self, X):
        """max(1, |x|)^dx_e * max(1, |lambda|)^dl_e per row of X and equation
        e, (dx_e, dl_e) its bidegree and |.| the max-norm of the group: the
        size of the terms of H_e, so that a tolerance times it is relative
        to them."""
        a = np.abs(X)
        x = a[:, : self.n].max(axis=1, initial=1.0)[:, None]
        lam = a[:, self.n :].max(axis=1, initial=1.0)[:, None]
        return x ** self.bideg[:, 0] * lam ** self.bideg[:, 1]

    def system(self, X, tgt):
        """Values and Jacobian of the target systems at the rows of X, row i
        of target tgt[i]."""
        t = self.t[tgt]
        f, J = self.family.system(t, X)
        return f - t[:, None] * self.du[tgt], J

    def eval(self, X, s, tgt):
        """(H, dH/dx, dH/ds) at the rows of X, row i of target tgt[i]; s is
        a scalar or one value per row."""
        s = np.asarray(s, dtype=np.complex128)[..., None]
        f, J = self.system(X, tgt)
        Lf, Mf = self.Lf[tgt], self.Mf[tgt]
        L = np.einsum("rij,rj->ri", Lf, X)
        Ld = L**self.dx1
        M = np.einsum("rij,rj->ri", Mf, X) - self.c[tgt]
        gP = self.gamma[tgt, None] * (Ld * L - self.b[tgt])
        gG = gP * M
        dG = (M * self.gdx[tgt] * Ld)[..., None] * Lf + gP[..., None] * Mf
        c = 1.0 - s
        J = s[..., None] * J + c[..., None] * dG
        return c * gG + s * f, J, f - gG


def _solve(J, b):
    """Solve J[i] dx[i] = b[i] for every row; returns (dx, singular)."""
    singular = np.zeros(len(b), dtype=bool)
    try:
        return np.linalg.solve(J, b[:, :, None])[:, :, 0], singular
    except np.linalg.LinAlgError:
        dx = np.zeros_like(b)
        for i in range(len(b)):
            try:
                dx[i] = np.linalg.solve(J[i], b[i])
            except np.linalg.LinAlgError:
                singular[i] = True
        return dx, singular


def _newton(FJ, X, iters, tol):
    """Newton on every row of X (FJ gives all rows' residuals and
    Jacobians); returns (X, ok) per row.  ``tol`` is a scalar or one value
    per row and equation.  A row freezes once every |F_e| < tol_e (ok), or
    at a singular Jacobian or non-finite iterate (not ok).  A row still
    moving after ``iters`` steps is ok when every |F_e| < 100 * tol_e.
    Frozen rows stay in the batch and are masked, cheaper than gathering."""
    X = np.array(X, dtype=np.complex128)
    live = np.ones(len(X), dtype=bool)
    ok = np.zeros(len(X), dtype=bool)
    for _ in range(iters):
        vals, J = FJ(X)
        small = (np.abs(vals) < tol).all(axis=1)
        ok |= live & small
        live &= ~small
        if not live.any():
            return X, ok
        dx, singular = _solve(J, vals)
        step = X - dx
        live &= ~singular & np.isfinite(step).all(axis=1)
        X = np.where(live[:, None], step, X)
    ok |= live & (np.abs(FJ(X)[0]) < 100 * tol).all(axis=1)
    return X, ok


@np.errstate(over="ignore", invalid="ignore")  # paths to infinity may overflow
def _track(h: _Homotopy, starts: np.ndarray, tgt: np.ndarray):
    """Track all start points from s = 0 to s = 1 at once, start i on the
    homotopy of target tgt[i]; returns the endpoints and a status per path
    ("converged", "diverged", "stalled", "polish_failed") in start order.
    One ``h.eval`` serves all paths of a round, so a batch takes as many
    rounds as its slowest path.  Each path keeps its own s and step ds: an
    accepted step grows ds by 1.7 up to 0.1, a failed corrector shrinks
    it by 0.4, a singular predictor halves it.  The corrector accepts a
    row when every |H_e| < 1e-11 * ``h.scale`` at the predicted point, a
    test relative to the size of the terms of H_e: on a path to infinity an
    absolute test is below their rounding error, so no step would pass and
    the step would walk down for hundreds of rounds; scaled, the path grows
    past |x| > ``_DIVERGENCE`` and ends as diverged.  Endpoints are
    polished on the target system.  A path that ends otherwise without
    converging (its step below 1e-12, or a failed polish) is diverged if
    |x| > 1e2, else "stalled" or "polish_failed".
    """
    X = np.array(starts, dtype=np.complex128)
    s, ds = np.zeros(len(X)), np.full(len(X), 0.05)
    status = np.full(len(X), "tracking", dtype="<U13")
    act = np.arange(len(X))

    def fail(idx, why):
        status[idx] = np.where(np.abs(X[idx]).max(axis=1) > 1e2, "diverged", why)

    while len(act):
        step = np.minimum(ds[act], 1.0 - s[act])
        # Euler predictor
        _, J, Hs = h.eval(X[act], s[act], tgt[act])
        dx, singular = _solve(J, Hs)
        if singular.any():
            cut = act[singular]
            ds[cut] *= 0.5
            fail(cut[ds[cut] < 1e-12], "stalled")
            act, dx, step = act[~singular], dx[~singular], step[~singular]
        s_new, ta = s[act] + step, tgt[act]
        X_pred = X[act] - step[:, None] * dx
        X_corr, ok = _newton(
            lambda Y: h.eval(Y, s_new, ta)[:2], X_pred, iters=4, tol=1e-11 * h.scale(X_pred)
        )
        acc = act[ok]
        X[acc], s[acc] = X_corr[ok], s_new[ok]
        ds[acc] = np.minimum(ds[acc] * 1.7, 0.1)
        status[acc[np.abs(X[acc]).max(axis=1) > _DIVERGENCE]] = "diverged"
        if not ok.all():
            rej = act[~ok]
            ds[rej] *= 0.4
            fail(rej[ds[rej] < 1e-12], "stalled")
        act = np.flatnonzero((status == "tracking") & (s < 1.0))
    # polish on the target system
    fin = np.flatnonzero(status == "tracking")
    X_fin, ok = _newton(lambda Y: h.eval(Y, 1.0, tgt[fin])[:2], X[fin], iters=12, tol=1e-14)
    ok &= np.abs(X_fin).max(axis=1) < _DIVERGENCE
    X[fin] = X_fin
    status[fin] = "converged"
    fail(fin[~ok], "polish_failed")
    return X, status


def _newton_family(family, t, X0):
    """Newton on the family system at t (scalar or one per row) for a batch; (X, ok)."""
    return _newton(lambda X: family.system(t, X), X0, iters=14, tol=1e-14)


def _dedup(points: np.ndarray, tol: float) -> np.ndarray:
    """Drop rows within tol (max-norm) of an earlier kept row; a cluster keeps its first."""
    points = np.asarray(points)
    close = np.abs(points[:, None] - points[None]).max(axis=2) < tol
    keep = np.ones(len(points), dtype=bool)
    for j in np.flatnonzero(close.sum(axis=0) > 1):  # close to some other row
        keep[j] = not (close[:j, j] & keep[:j]).any()
    return points[keep]


def _distinct(Xs: np.ndarray, tol: np.ndarray) -> np.ndarray:
    """Per sample Xs[i] (shape (samples, m, nu)): no two rows within tol[i]
    (max-norm), i.e. ``_dedup`` keeps all m of them."""
    m = Xs.shape[1]
    dist = np.abs(Xs[:, :, None] - Xs[:, None]).max(axis=3, initial=0.0)
    dist[:, np.arange(m), np.arange(m)] = np.inf
    return dist.min(axis=(1, 2), initial=np.inf) >= tol


def _point_set(family, ts, Xs, diagnostics=None):
    """(one point set over the samples, the mask of samples whose chart is
    not degenerate): the rows Xs[i] (shape (samples, m, n + k)) at ts[i],
    each sample's rows sorted by (re, im) of their entries.  One system
    evaluation serves all rows: the residual is max |F| of its values, and
    one ``jacobian_data`` call on its Jacobian gives Jtilde and the chart
    data.  ``t`` is ts[0] for one sample, else one per row.  A sample's chart is degenerate when one of its rows
    has no chart, or its least |Jtilde| is below 1e-10 times its largest."""
    ts = np.asarray(ts, dtype=np.complex128)
    Xs = np.asarray(Xs, dtype=np.complex128)
    m = Xs.shape[1]
    X = Xs.reshape(-1, family.nunk)
    keys = [p for z in X.T[::-1] for p in (z.imag, z.real)]
    X = X[np.lexsort(keys + [np.repeat(np.arange(len(ts)), m)])]
    tr = np.repeat(ts, m)
    F, J = family.system(tr, X)
    delta, jtilde, block, S, chart = family.jacobian_data(J)
    jts = np.abs(jtilde).reshape(len(ts), m)
    ok = chart.reshape(len(ts), m).all(axis=1)
    ok &= jts.min(axis=1, initial=np.inf) >= 1e-10 * jts.max(axis=1, initial=0.0)
    residual = np.abs(F).max(axis=1)
    t = ts[0] if len(ts) == 1 else tr
    return CriticalPointSet(t, X, residual, delta, jtilde, block, S, diagnostics or {}), ok


def _stack(sets, samples, m) -> CriticalPointSet:
    """The given samples (m rows each, numbered through the rows of
    ``sets`` in turn) as one point set, one t per row."""
    rows = (np.asarray(samples, dtype=np.int64)[:, None] * m + np.arange(m)).ravel()
    cols = zip(*(
        (np.broadcast_to(ps.t, len(ps)), ps.X, ps.residual, ps.delta, ps.jtilde, ps.block, ps.S)
        for ps in sets
    ))
    return CriticalPointSet(*(np.concatenate(c)[rows] for c in cols))


_COUNTERS = ("paths_tracked", "paths_diverged", "path_failures", "retries", "multistart_recoveries")


def solve_fresh(targets, expected: int) -> list:
    """All critical points of each target (family, t, rng), ``expected`` of
    them, by one 2-homogeneous homotopy batch; per target its point set, or
    the CountMismatchError it failed with.

    ``targets`` is read as ``_Homotopy`` reads it.  After tracking, each
    target is deduplicated, chart-checked and counted on its own; the
    targets that fail retry together in a new batch with a fresh gamma and
    start system from their own rng, up to ``_MAX_RETRIES`` times, then each
    falls back to extra Newton multistarts.  Solver counters are per target.
    """
    if expected == 0:
        return [
            _point_set(f, [t], np.zeros((1, 0, f.nunk)), dict.fromkeys(_COUNTERS, 0))[0]
            for f, t, _ in targets
        ]
    h = _Homotopy(targets)
    batch, pending = h.targets, list(range(len(h.targets)))
    out, found = [None] * len(batch), [None] * len(batch)
    diags = [dict.fromkeys(_COUNTERS, 0) for _ in batch]
    for attempt in range(_MAX_RETRIES + 1):
        if attempt:
            h = _Homotopy([batch[i] for i in pending])
        ends, status = _track(h, h.starts, h.target)
        conv, diverged = status == "converged", status == "diverged"
        tc = h.target[conv]
        X, ok = _newton(lambda Y: h.system(Y, tc), ends[conv], iters=14, tol=1e-14)
        failed = []
        for j, i in enumerate(pending):
            family, t, _ = batch[i]
            mine = h.target == j
            diags[i]["paths_tracked"] += int(mine.sum())
            diags[i]["paths_diverged"] += int((mine & diverged).sum())
            diags[i]["path_failures"] += int((mine & ~conv & ~diverged).sum())
            found[i] = _dedup(X[ok & (tc == j)], _merge_tolerance(t))
            if len(found[i]) == expected:
                ps, chart = _point_set(family, [t], found[i][None], diags[i])
                if chart[0]:
                    out[i] = ps
                    continue
            diags[i]["retries"] += 1
            failed.append(i)
        pending = failed
        if not pending:
            break
    for i in pending:
        out[i] = _multistart(*batch[i], expected, found[i], diags[i])
    return out


def _multistart(family, t, rng, expected, found, diagnostics):
    """Newton from random starts around the scale of the points ``found``
    until ``expected`` distinct points are known; the point set, or a
    CountMismatchError."""
    message = f"found {len(found)} critical points, expected {expected}"
    if not 0 < len(found) < expected:
        return CountMismatchError(message, diagnostics)
    mtol = _merge_tolerance(t)
    scale = float(np.median(np.abs(found).max(axis=1))) or 1.0
    for _ in range(_MULTISTART):
        x0 = scale * (rng.standard_normal(family.nunk) + 1j * rng.standard_normal(family.nunk))
        X, ok = _newton_family(family, t, x0.reshape(1, -1))
        if ok[0]:
            merged = _dedup(np.vstack([found, X[:1]]), mtol)
            if len(merged) > len(found):
                found = merged
                diagnostics["multistart_recoveries"] += 1
        if len(found) == expected:
            break
    if len(found) == expected:
        ps, chart = _point_set(family, [t], found[None], diagnostics)
        if chart[0]:
            return ps
        message += f"; multistart recovered {expected}, but the chart is degenerate"
    return CountMismatchError(message, diagnostics)


def solve_family_at(
    family: DeformationFamily,
    t: complex,
    expected: int,
    rng: np.random.Generator,
) -> CriticalPointSet:
    """All critical points at parameter t: ``solve_fresh`` of one target,
    raising its CountMismatchError."""
    (got,) = solve_fresh([(family, t, rng)], expected)
    if isinstance(got, CountMismatchError):
        raise got
    return got


def solve_warm(family: DeformationFamily, ts, starts, expected: int):
    """Newton from the rows starts[i] (``expected`` of them) at ts[i] for
    every i in one batch; (one point set over the samples that pass, in
    order, and the mask of them).  A sample passes when every row
    converges, no two rows are within ``_merge_tolerance(ts[i])`` and its
    chart is not degenerate (``_point_set``)."""
    ts = np.asarray(ts, dtype=np.complex128)
    starts = np.asarray(starts, dtype=np.complex128)
    X, conv = _newton_family(family, np.repeat(ts, expected), starts.reshape(-1, family.nunk))
    X = X.reshape(len(ts), expected, family.nunk)
    tol = np.array([_merge_tolerance(t) for t in ts])
    ok = conv.reshape(len(ts), expected).all(axis=1) & _distinct(X, tol)
    ps, chart = _point_set(family, ts[ok], X[ok])
    ok[ok] = chart
    return (ps if chart.all() else ps.rows(np.repeat(chart, expected))), ok


def solve_anchored(family: DeformationFamily, ts, starts, expected: int, rng):
    """(one point set over the parameters ts, ``solve_stats`` of its fresh
    solves): sample i, in rows i * expected onward, by ``solve_warm`` from
    its own nearby solutions starts[i], all samples in one batch.  This is
    the one recovery rule for a failed warm sample: the samples that fail
    are solved fresh in one ``solve_fresh`` batch with rng;
    CountMismatchError if one of them fails."""
    got, ok = solve_warm(family, ts, starts, expected)
    missing = np.flatnonzero(~ok)
    fresh = solve_fresh([(family, ts[i], rng) for i in missing], expected) if len(missing) else []
    for ps in fresh:
        if isinstance(ps, CountMismatchError):
            raise ps
    order = np.argsort(np.concatenate([np.flatnonzero(ok), missing]))
    return _stack([got, *fresh], order, expected), solve_stats(fresh)


def circle_ts(radius: float, samples: int) -> np.ndarray:
    """The parameters radius * exp(2 pi i j / samples), j = 0..samples-1."""
    return np.array([radius * np.exp(1j * (2 * np.pi * j / samples)) for j in range(samples)])


def solve_stats(sets) -> dict:
    """Fresh solves among the sets (those with solver counters) and the counters summed."""
    stats = Counter(fresh_solves=sum(1 for s in sets if s.diagnostics))
    for s in sets:
        stats.update(s.diagnostics)
    return dict(stats)


def track_circle(
    family: DeformationFamily,
    firsts,
    samples: int,
    expected: int,
    rng: np.random.Generator,
):
    """(one point set over the circles, ``solve_stats``): per solved first
    sample ``firsts[c]``, at t = radius, the samples ``circle_ts(radius,
    samples)``, circle after circle, ``expected`` rows each.

    All circles advance in lockstep, one ``solve_anchored`` per angle step
    continuing each circle's previous solutions by Newton; a circle whose
    step fails is solved fresh at that angle, as its first sample was.
    """
    ts = np.array([circle_ts(abs(ps.t), samples) for ps in firsts])
    X = np.array([ps.X for ps in firsts]).reshape(len(firsts), expected, family.nunk)
    pieces, stats = list(firsts), Counter(solve_stats(firsts))
    for j in range(1, samples):
        got, fresh = solve_anchored(family, ts[:, j], X, expected, rng)
        pieces.append(got)
        stats.update(fresh)
        X = got.X.reshape(X.shape)
    # the pieces hold angle after angle; the grid, circle after circle
    order = np.arange(ts.size).reshape(samples, len(firsts)).T.ravel()
    return _stack(pieces, order, expected), dict(stats)
