"""Critical points of a deformed 1-form on a smooth fiber.

A deformation is a point p = (eps, alpha) of C^(k+n).  The zeros of the
1-form of (f - eps, omega - alpha) restricted to its fiber are found as
solutions of the multiplier (Lagrange) system

    f_i(x) - eps_i = 0                                 (i = 1..k)
    A_j(x) - alpha_j - sum_i lambda_i df_i/dx_j(x) = 0 (j = 1..n)

by homotopy continuation with the gamma trick from a 2-homogeneous
linear-product start system over the variable groups x | lambda (Morgan &
Sommese 1987): a solve tracks the system's 2-homogeneous Bezout number of
paths, not its total degree.  ``solve_fresh`` solves a batch of targets
(p, rng) of one family at once: the paths of all targets, each with its own
step and its target's gamma and start system, share one batched Euler
predictor and Newton corrector per round, with one stacked system
evaluation for all rows, and a Newton polish on F - p at the end (the
predictor reuses each path's last corrector evaluation); the gamma trick
makes the paths independent, so a batch changes no path.  The corrector's
test is relative to the size of each equation's terms, 1e-11 * max(1,
|x|)^dx_e * max(1, |lambda|)^dl_e for an equation of bidegree (dx_e, dl_e),
so that a path to infinity keeps its steps until |x| > ``_DIVERGENCE``.
Past |x| > ``_FAR`` = 1e2 a path that still grows is in its tail: it is
taken as a power of t = 1 - s (the endgame of Morgan, Sommese & Wampler
1992), predicted by that power law and stepped a fraction of t, so a pole
gains a decade of |x| a round and never steps onto s = 1; a path that ends
otherwise without converging is diverged when |x| > ``_FAR``.  An
analysis solves the first sample of both circles in one batch, its only
fresh solve when every warm sample passes, and ``solve_family_at`` is the
one-target case.  A point within ``_merge_tolerance(p)`` of an earlier one
is dropped (``_distinct``, one rule for fresh and warm rows); the targets
of a batch that find another count than ``expected`` retry together, up to
``_MAX_RETRIES`` times, with a new gamma and start system each, and a solve
returns the rows it found, whatever their count: a caller that needs the
count requires it with ``_require_count``.

``solve_continued`` reaches new deformation points from solved sets by
coefficient-parameter continuation (Morgan & Sommese 1989): the same
``_track`` runs the homotopy F(x) - p(s) from each set's p to each target,
on a path bent by a random complex vector, so that generically no path
meets a collision of two solutions and none goes to infinity; count
certification continues the sets of both circles' first samples to its
targets in one batch, and requires the arrivals to be one set.

``solve_warm`` runs one batched Newton (``_newton``) over the samples of a
grid, each from its own nearby solutions; a sample passes when every row
converged and no two rows are within the merge tolerance, i.e. it holds
``expected`` distinct critical points, all of them where the fresh count
holds.  ``solve_anchored`` is the one recovery rule: ``solve_warm``, then
the samples that fail in one ``solve_fresh`` batch, whose rows are written
in.  A sample needs only its set of rows, not a path to it: ``track_circle``
calls ``solve_anchored`` once per step of a chain of ``_CHAIN_ANGLES``
angles for all circles in lockstep, then once for every other sample of
every circle, each from its nearest chain sample.
Both work on arrays of rows, one block of ``expected`` rows per sample; the
chart is tested once per point set, by ``_point_set``, where rows become
one: the chart depends on the points at p alone, so no Newton batch and no
fresh solve tests it.

At a solution P, every k-column block K of df with Delta_K = det
(df_i/dx_j)_{j in K} nonzero gives the fiber a chart dx = T_K dx_L in the
coordinates of the complement L.  The chart-free Jacobian value

    Jtilde(P) = Delta_K^2 * det(T_K^T H T_K),   H = dA - sum_i lambda_i d^2 f_i,

is Delta_K^2 times the Hessian determinant of the restricted 1-form in that
chart, the same on every such block.  The Jacobian of the multiplier system
in (x, lambda) is J = [[df, 0], [H, -df^T]], and by the bordered-Hessian
identity Jtilde = (-1)^(n k) det J at every critical point, so one system
evaluation gives the residual, Jtilde and df, and no chart is solved for:
the chart test asks only that some |Delta_K| be nonzero beyond rounding.
For k = 0, Jtilde is det(dA_i/dx_j)(P).

The point p enters the system as data: it shifts the equations by -p, so
the symbolic work is done once per instance, as one ``StackedPolys`` table
of the system at p = 0 with its Jacobian, evaluated at one point p or at
one p per row.  A circle of deformations is a point rotated by
exp(2 pi i j / samples): the limit in the deformation is approached along
the ray of p.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .polyring import Poly

_CHART_TOL = 1e-12
_DIVERGENCE = 1e8
# past |x| > _FAR a path that ends without converging is diverged, and one
# that still grows steps by its power law (the tail of ``_track``)
_FAR = 1e2
_MAX_RETRIES = 3
# angles of a circle's continuation chain, pi/8 apart: near enough that
# Newton from one chain sample's rows finds the next's, and every sample
# between them from the nearer one's, so a circle takes 15 sequential warm
# batches and one for all its other samples, whatever their number
_CHAIN_ANGLES = 16


class CountMismatchError(RuntimeError):
    """A fresh solve found another number of critical points than required,
    or a point set of them has a degenerate chart."""

    def __init__(self, message, diagnostics=None):
        super().__init__(message)
        self.diagnostics = diagnostics or {}


class StackedPolys:
    """Evaluate a list of polynomials from one power table.

    All terms of all polynomials share one exponent matrix; the monomials at
    the rows of X are products of entries of the power table X^0..X^d,
    built by repeated products, and one weight matrix scatters them into
    per-polynomial sums.  This keeps the hot Newton loop at a handful of
    numpy calls regardless of system size.
    """

    __slots__ = ("cols", "deg", "W", "npolys", "nvars")

    def __init__(self, polys, nvars: int):
        terms = sorted({m for p in polys for m in p.terms})
        index = {m: i for i, m in enumerate(terms)}
        self.W = np.zeros((len(terms), len(polys)), dtype=np.complex128)
        for i, p in enumerate(polys):
            for m, c in p.terms.items():
                self.W[index[m], i] = complex(c)
        E = np.array(terms, dtype=np.int64).reshape(len(terms), nvars)
        self.deg = int(E.max(initial=0))
        # per variable, the column of x_v^e in the flattened power table
        self.cols = list(E.T + (self.deg + 1) * np.arange(nvars)[:, None])
        self.npolys, self.nvars = len(polys), nvars

    def eval(self, X: np.ndarray) -> np.ndarray:
        """Values at rows of X, shape (m, npolys)."""
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
        return M @ self.W


class DeformationFamily:
    """The multiplier systems of an instance at every deformation point p.

    p = (eps, alpha) has k + n complex entries: the first k deform the
    equations (f_i - eps_i), the rest shift the 1-form (A_j - alpha_j).
    """

    def __init__(self, inst):
        self.inst = inst
        n, k = inst.n, inst.k
        self.n, self.k = n, k
        self.nunk = n + k

        # multiplier system at p = 0 in n + k variables (x_1..x_n, lambda_1..lambda_k)
        df = [[inst.f[i].diff(j) for j in range(n)] for i in range(k)]
        eqs = [f.lift(self.nunk) for f in inst.f]
        for j in range(n):
            e = inst.A[j].lift(self.nunk)
            for i in range(k):
                e = e - Poly.variable(n + i, self.nunk) * df[i][j].lift(self.nunk)
            eqs.append(e)
        # (x-degree, lambda-degree) of each equation, for the start system
        dfdeg = [max([0] + [df[i][j].degree() for i in range(k)]) for j in range(n)]
        self.bidegrees = [(max(f.degree(), 1), 0) for f in inst.f] + [
            (max(a.degree(), d, int(k == 0)), int(k > 0)) for a, d in zip(inst.A, dfdeg)
        ]
        self._bideg = np.array(self.bidegrees, dtype=np.int64)
        # values, then the Jacobian row-major
        self._table = StackedPolys(eqs + [e.diff(v) for e in eqs for v in range(self.nunk)], self.nunk)
        # the column index sets K of the k x k minors Delta_K of df
        self._K = np.array(list(itertools.combinations(range(n), k)), dtype=np.int64)

    # -- system evaluation -------------------------------------------------

    def system(self, P, X: np.ndarray):
        """Values (m, n+k) and Jacobian (m, n+k, n+k) of the multiplier
        system at the rows of X; P is one point p or one per row, n + k
        entries each."""
        nu = self.nunk
        out = self._table.eval(X)
        return out[:, :nu] - P, out[:, nu:].reshape(len(X), nu, nu)

    def term_scale(self, X):
        """max(1, |x|)^dx_e * max(1, |lambda|)^dl_e per row of X and equation
        e, (dx_e, dl_e) its bidegree and |.| the max-norm of the group: the
        size of the terms of equation e, and of a homotopy's H_e, so that a
        tolerance times it is relative to them."""
        a = np.abs(X)
        x = a[:, : self.n].max(axis=1, initial=1.0)[:, None]
        lam = a[:, self.n :].max(axis=1, initial=1.0)[:, None]
        return x ** self._bideg[:, 0] * lam ** self._bideg[:, 1]

    # -- chart-free Jacobian value ------------------------------------------

    def jacobian_data(self, J: np.ndarray):
        """(jtilde, chart) from the system Jacobians J (shape (m, n+k, n+k))
        at critical points: ``jtilde`` = (-1)^(n k) det J, and ``chart`` is
        False where every k x k block Delta_K of df = J[:, :k, :n] has
        |Delta_K| at most ``_CHART_TOL`` * (1 + max |df|).
        """
        n, k = self.n, self.k
        df = J[:, :k, :n]
        dets = np.abs(np.linalg.det(df[:, :, self._K].transpose(0, 2, 1, 3)))
        scale = 1.0 + np.abs(df).max(axis=(1, 2), initial=0.0)
        return (-1) ** (n * k) * np.linalg.det(J), dets.max(axis=1) > _CHART_TOL * scale


@dataclass
class CriticalPointSet:
    """Critical points, one row per point: those at one deformation point,
    or the samples of a circle grid, one after another.

    ``p`` holds the deformation point of each row, and ``X`` (shape
    (m, n + k)) its x-part and then its multipliers; ``residual`` is the
    max-norm of the system there, ``jtilde`` the chart-free Jacobian value
    (-1)^(n k) det J of the system Jacobian J, and ``df`` (shape (m, k, n))
    the Jacobian of f, J[:, :k, :n].
    """

    p: np.ndarray
    X: np.ndarray
    residual: np.ndarray
    jtilde: np.ndarray
    df: np.ndarray
    diagnostics: dict = field(default_factory=dict)

    def __len__(self) -> int:
        return self.X.shape[0]

    @property
    def x(self) -> np.ndarray:
        """The x-parts of the points, shape (m, n)."""
        return self.X[:, : self.df.shape[2]]

    def rows(self, index) -> "CriticalPointSet":
        """The rows at ``index`` (a slice or index array)."""
        cols = (self.p, self.X, self.residual, self.jtilde, self.df)
        return CriticalPointSet(*(c[index] for c in cols))


def _merge_tolerance(p):
    """Max-norm distance below which two solutions at p are one point; one
    value per row for one p per row."""
    return 1e-8 * np.maximum(np.linalg.norm(p, axis=-1), 1e-4)


def generic_direction(rng: np.random.Generator, m: int) -> np.ndarray:
    """A seeded generic unit direction in C^m: real parts, then imaginary parts."""
    u = rng.standard_normal(m) + 1j * rng.standard_normal(m)
    return u / np.linalg.norm(u)


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
    dx, dl = family._bideg.T
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
    """H(x, s) = gamma (1-s) G(x) + s F(x) for a batch of targets (p, rng)
    of one family, F the family's system at p and G a start system of
    ``_start_system`` drawn from rng, target after target.  The start
    points of all targets are stacked in ``starts``, ``target`` giving each
    row's target, and the parameters of the targets in arrays indexed by
    target; one table evaluation serves every row, at its target's p.
    ``scale`` is the family's ``term_scale``.
    """

    def __init__(self, family: DeformationFamily, targets):
        self.family, self.targets, self.scale = family, list(targets), family.term_scale
        *params, starts = zip(*(_start_system(family, rng) for _, rng in self.targets))
        self.gamma, self.b, self.Lf, self.Mf, self.c = map(np.array, params)
        self.starts = np.concatenate(starts)
        self.target = np.repeat(np.arange(len(starts)), [len(p) for p in starts])
        self.p = np.array([p for p, _ in self.targets], dtype=np.complex128)
        dx = family._bideg[:, 0]
        self.dx1, self.gdx = np.maximum(dx - 1, 0), self.gamma[:, None] * dx

    def rows(self, tgt):
        """H on rows of the targets tgt[i]: a function (X, s) -> (H, dH/dx,
        dH/ds) at the rows of X, s a scalar or one value per row.  The
        targets' parameters are gathered once, for every evaluation on those
        rows (a round's corrector iterations, or the polish)."""
        p, Lf, Mf, c = self.p[tgt], self.Lf[tgt], self.Mf[tgt], self.c[tgt]
        b, gamma, gdx = self.b[tgt], self.gamma[tgt, None], self.gdx[tgt]

        def at(X, s):
            s = np.asarray(s, dtype=np.complex128)[..., None]
            f, J = self.family.system(p, X)
            L = np.einsum("rij,rj->ri", Lf, X)
            Ld = L**self.dx1
            M = np.einsum("rij,rj->ri", Mf, X) - c
            gP = gamma * (Ld * L - b)
            gG = gP * M
            dG = (M * gdx * Ld)[..., None] * Lf + gP[..., None] * Mf
            t = 1.0 - s
            J = s[..., None] * J + t[..., None] * dG
            return t * gG + s * f, J, f - gG

        return at


class _ParameterHomotopy:
    """H(x, s) = F(x) - p(s), p(s) = (1-s) p0 + s p1 + s(1-s) c, for a batch
    of legs (p0, p1, c) of one family, F the family's system at p = 0: the
    coefficient-parameter homotopy (Morgan & Sommese 1989) from the
    solutions at p0 to those at p1, bent by c off the segment so that for a
    generic complex c no path meets a point where two solutions collide.
    ``p0``, ``p1`` and ``bend`` are arrays indexed by leg; ``rows`` and
    ``scale`` are ``_Homotopy``'s for it, and its polish at s = 1 is on
    F - p1."""

    def __init__(self, family: DeformationFamily, p0, p1, bend):
        self.family, self.scale = family, family.term_scale
        self.p0, self.p1, self.bend = p0, p1, bend

    def rows(self, tgt):
        """H on rows of the legs tgt[i], as ``_Homotopy.rows``."""
        p0, dp, bend = self.p0[tgt], self.p1[tgt] - self.p0[tgt], self.bend[tgt]

        def at(X, s):
            s = np.asarray(s, dtype=np.complex128)[..., None]
            F, J = self.family.system(p0 + s * dp + s * (1.0 - s) * bend, X)
            return F, J, -(dp + (1.0 - 2.0 * s) * bend)

        return at


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
    per row and equation.  A row freezes once every |F_e| < tol_e
    (ok), or at a singular Jacobian or non-finite iterate (not ok).  A row
    still moving after ``iters`` steps is ok when every |F_e| < 100 * tol_e.
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
    vals, _ = FJ(X)
    ok |= live & (np.abs(vals) < 100 * tol).all(axis=1)
    return X, ok


# paths to infinity may overflow, and a tail's w_i divides by x_i = 0
@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def _track(h, starts: np.ndarray, tgt: np.ndarray):
    """Track all start points from s = 0 to s = 1 at once, start i on the
    homotopy of target tgt[i]; returns the endpoints and a status per path
    ("converged", "diverged", "stalled", "polish_failed") in start order.
    One evaluation of ``h.rows`` serves all paths of a round, so a batch
    takes as many rounds as its slowest path.  Each path keeps its own s and
    step ds: an accepted step grows ds by 1.7 up to 0.1, a failed corrector
    shrinks it by 0.4 (again while ds >= 1 - s, since a step onto s = 1
    from the same point would fail again bit for bit), a singular predictor
    halves it.  Each path also keeps (dH/dx, dH/ds) at its current point for
    its Euler predictor: from the corrector's last evaluation, at the point
    ``_newton`` returns, after an accepted step, and unchanged after a
    rejected one, so a round evaluates H only in its corrector.  ``h`` is a
    ``_Homotopy`` or a ``_ParameterHomotopy``.  The corrector accepts a row
    when every |H_e| < 1e-11 * ``h.scale`` at the predicted point, a test
    relative to the size of the terms of H_e: on a path to infinity an
    absolute test is below their rounding error, so no step would pass and
    the step would walk down for hundreds of rounds; scaled, the path grows
    past |x| > ``_DIVERGENCE`` and ends as diverged.  Endpoints are
    polished on the target system H(., 1) = F - p.  A path that ends otherwise without
    converging (its step below 1e-12, or a failed polish) is diverged if
    |x| > ``_FAR``, else "stalled" or "polish_failed".

    Past |x| > ``_FAR`` a row that still grows is in its tail.  With t =
    1 - s and v = -dx = dx/ds the predictor's tangent, each component within
    1e-3 of the row's largest modulus has the local exponent w_i = t v_i /
    x_i of x_i ~ t^-w_i, and the row grows when some Re w_i > 0.05.  It
    steps q t, q = ds / t but at most 0.9 and at most a predicted decade of
    growth, so it never steps onto s = 1 while growing; it predicts x_i (1 -
    q)^-w_i on those components and Euler on the others, and ds takes the
    step, then the usual factors.  A row that stops growing leaves the tail
    and lands as any other.  A tail step below 1e-12 stalls the row (a
    slowly growing one would otherwise reach s + q t = 1 in rounding); it
    is far, so diverged.
    """
    X = np.array(starts, dtype=np.complex128)
    s, ds = np.zeros(len(X)), np.full(len(X), 0.05)
    size = np.abs(X).max(axis=1)  # |x| at each path's point
    status = np.full(len(X), "tracking", dtype="<U13")
    act = np.arange(len(X))
    _, J, Hs = h.rows(tgt)(X, s)  # the predictor's data at each path's point

    def fail(idx, why):
        status[idx] = np.where(np.abs(X[idx]).max(axis=1) > _FAR, "diverged", why)

    while len(act):
        step = np.minimum(ds[act], 1.0 - s[act])
        # Euler predictor
        dx, singular = _solve(J[act], Hs[act])
        if singular.any():
            cut = act[singular]
            ds[cut] *= 0.5
            fail(cut[ds[cut] < 1e-12], "stalled")
            act, dx, step = act[~singular], dx[~singular], step[~singular]
        s_new, H, last = s[act] + step, h.rows(tgt[act]), []
        X_pred = X[act] - step[:, None] * dx
        far = np.flatnonzero(size[act] > _FAR)
        if len(far):
            # the tail: far rows that grow, x_i ~ t^-w_i in t = 1 - s
            rows, t = act[far], 1.0 - s[act[far]]
            x = X[rows]
            big = np.abs(x) >= 1e-3 * size[rows, None]
            w = np.where(big, -t[:, None] * dx[far] / x, 0.0)
            wmax = w.real.max(axis=1)
            grow = wmax > 0.05
            far, rows, t, x, big, w, wmax = (a[grow] for a in (far, rows, t, x, big, w, wmax))
            q = np.minimum(ds[rows] / t, 1.0 - 0.1 ** (1.0 / np.maximum(wmax, 1.0)))
            step[far] = ds[rows] = q * t
            fail(rows[q * t < 1e-12], "stalled")
            s_new[far] = s[rows] + step[far]
            X_pred[far] = np.where(big, x * (1.0 - q[:, None]) ** -w, x - step[far, None] * dx[far])

        def corrector(Y):
            last[:] = H(Y, s_new)
            return last[:2]

        X_corr, ok = _newton(corrector, X_pred, iters=4, tol=1e-11 * h.scale(X_pred))
        acc = act[ok]
        X[acc], s[acc], J[acc], Hs[acc] = X_corr[ok], s_new[ok], last[1][ok], last[2][ok]
        ds[acc] = np.minimum(ds[acc] * 1.7, 0.1)
        size[acc] = np.abs(X[acc]).max(axis=1)
        status[acc[size[acc] > _DIVERGENCE]] = "diverged"
        if not ok.all():
            rej = act[~ok]
            ds[rej] *= 0.4
            # a step that still reaches s = 1 would repeat the rejected one bit for bit
            while len(again := rej[ds[rej] >= 1.0 - s[rej]]):
                ds[again] *= 0.4
            fail(rej[ds[rej] < 1e-12], "stalled")
        act = np.flatnonzero((status == "tracking") & (s < 1.0))
    # polish on the target system
    fin = np.flatnonzero(status == "tracking")
    H = h.rows(tgt[fin])
    X_fin, ok = _newton(lambda Y: H(Y, 1.0)[:2], X[fin], iters=12, tol=1e-14)
    ok &= np.abs(X_fin).max(axis=1) < _DIVERGENCE
    X[fin] = X_fin
    status[fin] = "converged"
    fail(fin[~ok], "polish_failed")
    return X, status


def _distinct(Xs: np.ndarray, tol) -> np.ndarray:
    """Per sample Xs[i] (shape (samples, m, nu)), the mask of its rows with
    no earlier row of the sample within tol[i] (max-norm), built one
    coordinate at a time: one m x m slice per sample is held."""
    m = Xs.shape[1]
    close = np.tri(m, m, -1, dtype=bool)  # [j, i]: i is earlier than j
    tol = np.reshape(tol, (-1, 1, 1))
    for z in np.moveaxis(Xs, -1, 0):
        close = close & (np.abs(z[:, :, None] - z[:, None]) < tol)
    return ~close.any(axis=2)


def _point_set(family, P, Xs, diagnostics=None):
    """(one point set over the samples, one p per row, and the mask of its
    samples whose chart is not degenerate): the rows Xs[i] (shape (samples,
    m, n + k)) at P[i], sample after sample, each sample's rows sorted by
    (re, im) of their entries.  One system evaluation serves all rows: the
    residual is max |F| of its values, and its Jacobian gives df and the
    Jtilde and chart of ``jacobian_data``.  A sample's chart is degenerate
    when one of its rows has no chart, or its least |Jtilde| is below 1e-10
    times its largest; this is the one chart test of a point set."""
    P = np.asarray(P, dtype=np.complex128)
    Xs = np.asarray(Xs, dtype=np.complex128)
    m = Xs.shape[1]
    X = Xs.reshape(-1, family.nunk)
    keys = [part for z in X.T[::-1] for part in (z.imag, z.real)]
    X = X[np.lexsort(keys + [np.repeat(np.arange(len(P)), m)])]
    p = np.repeat(P, m, axis=0)
    F, J = family.system(p, X)
    jtilde, chart = family.jacobian_data(J)
    jts = np.abs(jtilde).reshape(Xs.shape[:2])
    ok = chart.reshape(Xs.shape[:2]).all(axis=1)
    ok &= jts.min(axis=1, initial=np.inf) >= 1e-10 * jts.max(axis=1, initial=0.0)
    df = J[:, : family.k, : family.n].copy()  # not a view that keeps J
    return CriticalPointSet(p, X, np.abs(F).max(axis=1), jtilde, df, diagnostics or {}), ok


_COUNTERS = ("paths_tracked", "paths_diverged", "path_failures", "retries")


def solve_fresh(family: DeformationFamily, targets, expected: int) -> list:
    """The critical points of the family at each target (p, rng), by one
    2-homogeneous homotopy batch; per target (p, its rows, its solver
    counters), whatever the count of the rows.

    Each target's start system is drawn from its rng in target order.
    After tracking, each target keeps its converged rows that ``_distinct``
    keeps and is counted; the targets whose count is not ``expected`` retry
    together in a new batch with a fresh gamma and start system from their
    own rng, up to ``_MAX_RETRIES`` times, and keep the rows of their last
    attempt.  No chart is tested here.
    """
    if expected == 0:
        return [(p, np.zeros((0, family.nunk)), dict.fromkeys(_COUNTERS, 0)) for p, _ in targets]
    h = _Homotopy(family, targets)
    batch, pending = h.targets, list(range(len(h.targets)))
    found = [None] * len(batch)
    diags = [dict.fromkeys(_COUNTERS, 0) for _ in batch]
    for attempt in range(_MAX_RETRIES + 1):
        if attempt:
            h = _Homotopy(family, [batch[i] for i in pending])
        ends, status = _track(h, h.starts, h.target)
        conv, diverged = status == "converged", status == "diverged"
        X, tc = ends[conv], h.target[conv]  # polished on F - p by _track
        for j, i in enumerate(pending):
            mine = h.target == j
            diags[i]["paths_tracked"] += int(mine.sum())
            diags[i]["paths_diverged"] += int((mine & diverged).sum())
            diags[i]["path_failures"] += int((mine & ~conv & ~diverged).sum())
            rows = X[tc == j]
            found[i] = rows[_distinct(rows[None], _merge_tolerance(batch[i][0]))[0]]
            diags[i]["retries"] += int(len(found[i]) != expected)
        pending = [i for i in pending if len(found[i]) != expected]
        if not pending:
            break
    return [(p, rows, counters) for (p, _), rows, counters in zip(batch, found, diags)]


def _require_count(found, expected: int) -> list:
    """The rows of each fresh solve (p, rows, counters) in ``found``;
    CountMismatchError with its counters at the first one whose count is not
    ``expected``."""
    for _, rows, counters in found:
        if len(rows) != expected:
            raise CountMismatchError(f"found {len(rows)} critical points, expected {expected}", counters)
    return [rows for _, rows, _ in found]


def _require_chart(ok, diagnostics):
    """CountMismatchError with ``diagnostics`` if a sample of the mask ``ok``
    (from ``_point_set``) has a degenerate chart."""
    if not ok.all():
        message = f"chart is degenerate at {int((~ok).sum())} of {len(ok)} samples"
        raise CountMismatchError(message, diagnostics)


def solve_family_at(family: DeformationFamily, p, expected: int, rng: np.random.Generator) -> CriticalPointSet:
    """All critical points at the deformation point p as one point set,
    with the solver counters of its one-target ``solve_fresh``;
    CountMismatchError if their count is not ``expected`` or their chart is
    degenerate."""
    found = solve_fresh(family, [(p, rng)], expected)
    (rows,) = _require_count(found, expected)
    ps, ok = _point_set(family, [p], rows[None], found[0][2])
    _require_chart(ok, ps.diagnostics)
    return ps


def _same_sets(Xs: np.ndarray, tol) -> np.ndarray:
    """Per sample Xs[i] (shape (samples, sets, m, nu)), whether the rows of
    each of its sets are distinct and every set is its first one, within
    tol[i]: with A the first set and B any set, ``_distinct`` keeps the m
    rows of A and drops the m rows of B after them, and the same with B
    first and A after it."""
    samples, sets, m, nu = Xs.shape
    A = np.broadcast_to(Xs[:, :1], Xs.shape)
    pairs = np.concatenate([np.concatenate([A, Xs], axis=2), np.concatenate([Xs, A], axis=2)], axis=1)
    keep = _distinct(pairs.reshape(samples * 2 * sets, 2 * m, nu), np.repeat(tol, 2 * sets))
    keep = keep.reshape(samples, 2 * sets, 2 * m)
    return keep[:, :, :m].all(axis=(1, 2)) & ~keep[:, :, m:].any(axis=(1, 2))


def solve_continued(family: DeformationFamily, P0, X0, P1, rng: np.random.Generator):
    """The critical points at each target P1[j], continued from every start
    set X0[a] (the ``expected`` rows of a solution set at P0[a]) by one
    ``_track`` batch of ``_ParameterHomotopy`` legs, every start to every
    target; (the arrivals, shape (targets, starts, expected, n + k), and the
    mask of the targets that pass).

    A start set that holds every isolated solution at P0[a] arrives at
    every one at a generic target, and no path goes to infinity.  A target
    passes when all its paths converged and its arrivals are one set of
    distinct rows (``_same_sets``, within ``_merge_tolerance(P1[j])``).
    Each target draws a bend of size |P1[j]| from rng; the targets that fail
    are tracked again together with new bends, up to ``_MAX_RETRIES``
    times, and keep the arrivals of their last attempt.  No chart is tested
    here."""
    P0, X0, P1 = (np.asarray(a, dtype=np.complex128) for a in (P0, X0, P1))
    starts, expected, nunk = *X0.shape[:2], family.nunk
    X = np.zeros((len(P1), starts, expected, nunk), dtype=np.complex128)
    ok, pending = np.zeros(len(P1), dtype=bool), np.arange(len(P1))
    for _ in range(_MAX_RETRIES + 1):
        # leg j * starts + a continues X0[a] from P0[a] to P1[pending[j]]
        bend = np.array([np.linalg.norm(P1[j]) * generic_direction(rng, P1.shape[1]) for j in pending])
        h = _ParameterHomotopy(
            family,
            np.tile(P0, (len(pending), 1)),
            np.repeat(P1[pending], starts, axis=0),
            np.repeat(bend, starts, axis=0),
        )
        rows = np.tile(X0.reshape(starts * expected, nunk), (len(pending), 1))
        ends, status = _track(h, rows, np.repeat(np.arange(len(h.p1)), expected))
        X[pending] = ends.reshape(len(pending), starts, expected, nunk)
        conv = (status == "converged").reshape(len(pending), starts * expected).all(axis=1)
        ok[pending] = conv & _same_sets(X[pending], _merge_tolerance(P1[pending]))
        pending = pending[~ok[pending]]
        if not len(pending):
            break
    return X, ok


def solve_warm(family: DeformationFamily, P, starts, expected: int):
    """Newton from the rows starts[i] (``expected`` of them) at P[i] for
    every i in one batch; (the rows, shape (samples, expected, n + k), and
    the mask of samples that pass).  A sample passes when every row
    converges and no two rows are within ``_merge_tolerance(P[i])``; its
    chart is tested once, on the finished grid's ``_point_set``."""
    P = np.asarray(P, dtype=np.complex128)
    shape, starts = (len(P), expected), np.reshape(starts, (-1, family.nunk))
    P_rows = np.repeat(P, expected, axis=0)
    X, conv = _newton(lambda Y: family.system(P_rows, Y), starts, iters=14, tol=1e-14)
    X = X.reshape(*shape, family.nunk)
    distinct = _distinct(X, _merge_tolerance(P)).all(axis=1)
    return X, conv.reshape(shape).all(axis=1) & distinct


def solve_anchored(family: DeformationFamily, P, starts, expected: int, rng):
    """(the rows at the points P, shape (samples, expected, n + k), and
    ``solve_stats`` of its fresh solves): ``solve_warm`` from each sample's
    own nearby solutions starts[i], all samples in one batch.  This is the
    one recovery rule for a failed warm sample: the samples that fail are
    solved fresh in one ``solve_fresh`` batch with rng, and their rows
    written in; CountMismatchError if one of them finds another count."""
    X, ok = solve_warm(family, P, starts, expected)
    missing = np.flatnonzero(~ok)
    fresh = solve_fresh(family, [(P[i], rng) for i in missing], expected) if len(missing) else []
    for i, rows in zip(missing, _require_count(fresh, expected)):
        X[i] = rows
    return X, solve_stats(fresh)


def circle(p, samples: int) -> np.ndarray:
    """The points p * exp(2 pi i j / samples), j = 0..samples-1, one per row."""
    return np.exp(1j * (2 * np.pi * np.arange(samples) / samples))[:, None] * p


def solve_stats(found) -> dict:
    """The number of fresh solves (p, rows, counters) in ``found`` and their
    counters summed."""
    stats = Counter(fresh_solves=len(found))
    for _, _, counters in found:
        stats.update(counters)
    return dict(stats)


def track_circle(family: DeformationFamily, P, firsts, expected: int, rng: np.random.Generator):
    """(the rows of the circle grids, shape (circles, samples, expected,
    n + k), and ``solve_stats``): per circle c its samples P[c], from the
    fresh solve ``firsts[c]`` (p, rows, counters) at P[c, 0], whose count
    is required.

    A sample needs only its set of rows, not a path to it.  All circles
    advance in lockstep along the chain of every ``samples //
    _CHAIN_ANGLES``-th sample, one ``solve_anchored`` per chain step
    continuing each circle's previous chain rows; then every other sample
    of every circle is solved in one ``solve_anchored`` batch, Newton
    starting from the rows of its nearest chain sample counted cyclically
    (the set at angle 2 pi is the set at 0).  A sample that fails, on the
    chain or off it, is solved fresh, as the first samples were.  Below
    2 * ``_CHAIN_ANGLES`` samples the chain is every sample.
    """
    circles, samples = P.shape[:2]
    X = np.empty((circles, samples, expected, family.nunk), dtype=np.complex128)
    X[:, 0] = _require_count(firsts, expected)
    stats = Counter(solve_stats(firsts))
    stride = max(1, samples // _CHAIN_ANGLES)
    chain = np.arange(0, samples, stride)
    for a, b in zip(chain, chain[1:]):
        X[:, b], fresh = solve_anchored(family, P[:, b], X[:, a], expected, rng)
        stats.update(fresh)
    fill = np.flatnonzero(np.arange(samples) % stride)
    if len(fill):
        # angle 2 pi (index samples) is chain sample 0; a tie goes to the earlier sample
        near = chain[np.abs(fill[:, None] - np.append(chain, samples)).argmin(axis=1) % len(chain)]
        rows = (circles * len(fill), expected, family.nunk)  # explicit: expected may be 0
        Xf, fresh = solve_anchored(
            family, P[:, fill].reshape(rows[0], -1), X[:, near].reshape(rows), expected, rng
        )
        X[:, fill] = Xf.reshape(circles, len(fill), *rows[1:])
        stats.update(fresh)
    return X, dict(stats)
