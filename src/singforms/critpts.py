"""Critical points of a deformed 1-form on a smooth fiber.

For a deformed instance (f - eps, omega - alpha) the zeros of the restricted
1-form are found as solutions of the multiplier (Lagrange) system

    f_i(x) - eps_i = 0                                 (i = 1..k)
    A_j(x) - alpha_j - sum_i lambda_i df_i/dx_j(x) = 0 (j = 1..n)

by total-degree homotopy continuation with the gamma trick: all start points
are tracked at once, each path with its own step, one batched Euler predictor
and Newton corrector per round and a Newton polish at the end.  Warm starts
(neighbouring samples on a circle) use the same batched Newton, ``_newton``.

At each solution P the block K of columns maximizing |det (df_i/dx_j)_{j in K}|
is selected; with L the complement and m_j the (k+1)-minor on columns K then j,
the chart-free Jacobian value is

    Jtilde(P) = sgn(K,L) * Delta_K^{1-(n-k)} * Jac_x(f_1..f_k, (m_j)_{j in L})(P)

which equals Delta^2 times the Hessian determinant of the restricted 1-form in
the chart of the L-coordinates (and is independent of the chosen block).  For
k = 0 this degenerates to det(dA_i/dx_j)(P).

Deformations are affine in a single complex parameter t along a fixed
direction, so all symbolic work (minors, gradients, system equations) is done
once per family as pairs (P0, P1) meaning P0 + t*P1.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .polyring import Poly

_CHART_TOL = 1e-12
_DIVERGENCE = 1e8


class CountMismatchError(RuntimeError):
    """Solver could not certify the expected number of critical points."""

    def __init__(self, message, diagnostics=None):
        super().__init__(message)
        self.diagnostics = diagnostics or {}


class DegenerateChartError(RuntimeError):
    """Every k x k block of the Jacobian is numerically singular at a point."""


@dataclass(frozen=True)
class Deformation:
    """A concrete deformation value (eps, alpha), optionally with its ray."""

    eps: tuple
    alpha: tuple
    direction: tuple | None = None
    radius: float | None = None

    @classmethod
    def along(cls, direction, t, k: int):
        d = tuple(complex(v) for v in direction)
        return cls(
            eps=tuple(t * v for v in d[:k]),
            alpha=tuple(t * v for v in d[k:]),
            direction=d,
            radius=abs(t),
        )


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
    """Evaluate a list of affine-in-t polynomials with one matmul per part.

    All terms of all polynomials share one exponent matrix; a weight matrix
    scatters the term values into per-polynomial sums.  This keeps the hot
    Newton loop at a handful of numpy calls regardless of system size.  A
    plain ``Poly`` in the list stands for a polynomial constant in t.
    """

    __slots__ = ("E0", "W0", "E1", "W1", "npolys", "nvars")

    def __init__(self, tpolys, nvars: int):
        tpolys = [
            tp if isinstance(tp, TPoly) else TPoly(tp, Poly.zero(nvars)) for tp in tpolys
        ]
        self.npolys = len(tpolys)
        self.nvars = nvars
        self.E0, self.W0 = self._stack([tp.p0 for tp in tpolys], nvars)
        self.E1, self.W1 = self._stack([tp.p1 for tp in tpolys], nvars)

    @staticmethod
    def _stack(polys, nvars):
        rows = []
        cols = []
        coeffs = []
        for i, p in enumerate(polys):
            for mono, c in sorted(p.terms.items()):
                rows.append(mono)
                cols.append(i)
                coeffs.append(complex(c))
        if not rows:
            return None, None
        E = np.array(rows, dtype=np.int64)
        W = np.zeros((len(rows), len(polys)), dtype=np.complex128)
        W[np.arange(len(rows)), cols] = coeffs
        return E, W

    @staticmethod
    def _part(X, E, W):
        powers = (X[:, None, :] ** E[None, :, :]).prod(axis=2)
        return powers @ W

    def eval(self, t: complex, X: np.ndarray) -> np.ndarray:
        """Values at rows of X; shape (m, npolys)."""
        m = X.shape[0]
        if self.E0 is None and self.E1 is None:
            return np.zeros((m, self.npolys), dtype=np.complex128)
        if self.E0 is not None:
            out = self._part(X, self.E0, self.W0)
        else:
            out = np.zeros((m, self.npolys), dtype=np.complex128)
        if self.E1 is not None:
            out = out + t * self._part(X, self.E1, self.W1)
        return out


def shuffle_sign(K, L) -> int:
    """Sign of the permutation sorting the concatenation (K, L) ascending."""
    seq = tuple(K) + tuple(L)
    inv = sum(
        1 for i in range(len(seq)) for j in range(i + 1, len(seq)) if seq[i] > seq[j]
    )
    return -1 if inv % 2 else 1


def _minor_tpoly(df_rows, a_tpolys, cols):
    """(k+1)-minor on the given column sequence; only the A row carries t."""
    from .polyring import det as poly_det

    k = len(df_rows)
    nv = a_tpolys[0].p0.nvars
    static_rows = [[df_rows[i][c] for c in cols] for i in range(k)]
    row0 = [a_tpolys[c].p0 for c in cols]
    row1 = [a_tpolys[c].p1 for c in cols]
    p0 = poly_det(static_rows + [row0]) if k else row0[0]
    if all(p.is_zero() for p in row1):
        p1 = Poly.zero(nv)
    else:
        p1 = poly_det(static_rows + [row1]) if k else row1[0]
    return TPoly(p0, p1)


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
        self.direction = direction

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
        self.equations = eqs
        self.degrees = [max(e.degree(), 1) for e in eqs]
        self._ceqs = StackedTPolys(eqs, self.nunk)
        self._cjac = StackedTPolys(
            [e.diff(v) for e in eqs for v in range(self.nunk)], self.nunk
        )
        self._cdf = StackedTPolys([p for row in self.df for p in row], n)

        # chart data: per block K, the x-gradients of the minors m_j (j in the
        # complement), affine in t, stacked row-major as an (n-k) x n matrix
        self.blocks = list(itertools.combinations(range(n), k))
        self._minor_grads = []
        for K in self.blocks:
            L = tuple(j for j in range(n) if j not in K)
            ms = [_minor_tpoly(self.df, self.A, K + (j,)) for j in L]
            self._minor_grads.append(
                StackedTPolys([m.diff(c) for m in ms for c in range(n)], n)
            )

    # -- system evaluation -------------------------------------------------

    def system_values(self, t: complex, X: np.ndarray) -> np.ndarray:
        """Residual vector of the multiplier system at rows of X ((m, n+k))."""
        return self._ceqs.eval(t, X)

    def system_jacobian(self, t: complex, X: np.ndarray) -> np.ndarray:
        m = X.shape[0]
        return self._cjac.eval(t, X).reshape(m, self.nunk, self.nunk)

    def residuals(self, t: complex, X: np.ndarray) -> np.ndarray:
        return np.max(np.abs(self.system_values(t, X)), axis=1)

    def df_values(self, X: np.ndarray) -> np.ndarray:
        """Jacobian of f at the x-part of the points: shape (m, k, n)."""
        return self._cdf.eval(0.0, X[:, : self.n]).reshape(X.shape[0], self.k, self.n)

    # -- chart-free Jacobian value ------------------------------------------

    def jacobian_data(self, t: complex, X: np.ndarray):
        """(delta, jtilde, block, S) at the rows of X (x-parts, shape (m, n)).

        Per row: ``block`` indexes the block K of ``blocks`` maximizing
        |Delta_K|, and ``delta``, ``jtilde`` and the fiber chart ``S`` are
        taken on it as in ``jacobian_on_block``.
        """
        X = np.asarray(X, dtype=np.complex128)
        m = X.shape[0]
        dfx = self.df_values(X)
        dets = np.stack([np.linalg.det(dfx[:, :, list(K)]) for K in self.blocks], axis=1)
        block = np.argmax(np.abs(dets), axis=1)
        if self.k:
            scale = 1.0 + np.abs(dfx).max(axis=(1, 2))
            if np.any(np.abs(dets[np.arange(m), block]) <= _CHART_TOL * scale):
                raise DegenerateChartError(
                    "all k x k Jacobian blocks are singular at a critical point"
                )
        delta = np.empty(m, dtype=np.complex128)
        jtilde = np.empty(m, dtype=np.complex128)
        S = np.empty((m, self.k, self.n - self.k), dtype=np.complex128)
        for b in np.unique(block):
            rows = block == b
            delta[rows], jtilde[rows], S[rows] = self.jacobian_on_block(
                t, X[rows], b, dfx[rows]
            )
        return delta, jtilde, block, S

    def jacobian_on_block(self, t: complex, X: np.ndarray, b: int, dfx=None):
        """(delta, jtilde, S) at the rows of X on the block K = blocks[b].

        ``delta`` is Delta_K, ``jtilde`` the chart-free Jacobian value and S
        (shape (m, k, n-k)) the fiber chart dx_K = S dx_L, i.e. the solution
        of dfK @ S = -dfL.  ``dfx`` is the Jacobian of f at X when known.
        """
        n, k = self.n, self.k
        X = np.asarray(X, dtype=np.complex128)
        if dfx is None:
            dfx = self.df_values(X)
        K = self.blocks[b]
        L = [j for j in range(n) if j not in K]
        dfK, dfL = dfx[:, :, list(K)], dfx[:, :, L]
        delta = np.linalg.det(dfK)
        grads = self._minor_grads[b].eval(t, X).reshape(X.shape[0], n - k, n)
        jac_x = np.linalg.det(np.concatenate([dfx, grads], axis=1))
        jtilde = shuffle_sign(K, L) * delta ** (1 - (n - k)) * jac_x
        return delta, jtilde, -np.linalg.solve(dfK, dfL)


@dataclass
class CriticalPointSet:
    """The critical points at one parameter value, one row per point.

    ``X`` holds the x-part and then the multipliers of each point, ``block``
    indexes the family's ``blocks`` and ``S`` (shape (m, k, n-k)) is the fiber
    chart dx_K = S dx_L on that block.
    """

    t: complex
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


@dataclass
class SolveOptions:
    merge_tol: float | None = None  # default: 1e-8 * deformation radius
    max_retries: int = 3
    multistart: int = 60

    def merge_tolerance(self, radius: float) -> float:
        if self.merge_tol is not None:
            return self.merge_tol
        return 1e-8 * max(radius, 1e-4)


# ---------------------------------------------------------------------------
# homotopy tracking
# ---------------------------------------------------------------------------


class _Homotopy:
    """H(x, s) = gamma (1-s) G(x) + s F(x), G the total-degree start system;
    ``s`` is a scalar or one value per row of X."""

    def __init__(self, family: DeformationFamily, t: complex, gamma: complex, b):
        self.family = family
        self.t = t
        self.gamma = gamma
        self.b = np.asarray(b, dtype=np.complex128)
        self.d = np.array(family.degrees, dtype=np.int64)

    def start_points(self) -> np.ndarray:
        roots = []
        for d, b in zip(self.family.degrees, self.b):
            base = b ** (1.0 / d)
            roots.append(
                [base * np.exp(2j * np.pi * k / d) for k in range(d)]
            )
        return np.array(list(itertools.product(*roots)), dtype=np.complex128)

    def g_values(self, X):
        return X**self.d[None, :] - self.b[None, :]

    def values(self, X, s):
        s = np.asarray(s)[..., None]
        f = self.family.system_values(self.t, X)
        g = self.g_values(X)
        return self.gamma * (1.0 - s) * g + s * f

    def jac(self, X, s):
        s = np.asarray(s)[..., None]
        J = s[..., None] * self.family.system_jacobian(self.t, X)
        idx = np.arange(X.shape[1])
        J[:, idx, idx] += self.gamma * (1.0 - s) * (self.d * X ** (self.d - 1))
        return J

    def ds_values(self, X):
        f = self.family.system_values(self.t, X)
        g = self.g_values(X)
        return f - self.gamma * g


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


def _newton(F, J, X, iters, tol):
    """Newton on every row of X (F, J give all rows' residuals and
    Jacobians); returns (X, ok) per row.  A row freezes once max |F| < tol
    (ok), or at a singular Jacobian or non-finite iterate (not ok).  A row
    still moving after ``iters`` steps is ok when max |F| < 100 * tol.
    Frozen rows stay in the batch and are masked, cheaper than gathering."""
    X = np.array(X, dtype=np.complex128)
    live = np.ones(len(X), dtype=bool)
    ok = np.zeros(len(X), dtype=bool)
    for _ in range(iters):
        vals = F(X)
        small = np.abs(vals).max(axis=1) < tol
        ok |= live & small
        live &= ~small
        if not live.any():
            return X, ok
        dx, singular = _solve(J(X), vals)
        step = X - dx
        live &= ~singular & np.isfinite(step).all(axis=1)
        X = np.where(live[:, None], step, X)
    ok |= live & (np.abs(F(X)).max(axis=1) < 100 * tol)
    return X, ok


def _track(h: _Homotopy, starts: np.ndarray):
    """Track all start points from s = 0 to s = 1 at once; returns the
    endpoints and a status per path ("converged", "diverged", "stalled",
    "polish_failed") in start order.  Each path keeps its own s and step ds:
    an accepted step grows ds by 1.7 up to 0.1, a failed corrector shrinks
    it by 0.4, a singular predictor halves it.  Below ds = 1e-12 a path
    stalls, or diverged if |x| is large (paths to infinity shrink the step
    against a blowing-up |x|).  Endpoints are polished on the target system.
    """
    X = np.array(starts, dtype=np.complex128)
    s, ds = np.zeros(len(X)), np.full(len(X), 0.05)
    status = np.full(len(X), "tracking", dtype="<U13")
    act = np.arange(len(X))
    while len(act):
        step = np.minimum(ds[act], 1.0 - s[act])
        # Euler predictor
        dx, singular = _solve(h.jac(X[act], s[act]), h.ds_values(X[act]))
        if singular.any():
            cut = act[singular]
            ds[cut] *= 0.5
            status[cut[ds[cut] < 1e-12]] = "stalled"
            act, dx, step = act[~singular], dx[~singular], step[~singular]
        s_new = s[act] + step
        X_corr, ok = _newton(
            lambda Y: h.values(Y, s_new), lambda Y: h.jac(Y, s_new),
            X[act] - step[:, None] * dx, iters=4, tol=1e-11,
        )
        acc = act[ok]
        X[acc], s[acc] = X_corr[ok], s_new[ok]
        ds[acc] = np.minimum(ds[acc] * 1.7, 0.1)
        status[acc[np.abs(X[acc]).max(axis=1) > _DIVERGENCE]] = "diverged"
        if not ok.all():
            rej = act[~ok]
            ds[rej] *= 0.4
            rej = rej[ds[rej] < 1e-12]
            big = np.abs(X[rej]).max(axis=1)
            status[rej] = np.where(
                ((big > 1e3) & (s[rej] > 0.99)) | (big > 1e4), "diverged", "stalled"
            )
        act = np.flatnonzero((status == "tracking") & (s < 1.0))
    # polish on the target system
    fin = np.flatnonzero(status == "tracking")
    X_fin, ok = _newton(
        lambda Y: h.values(Y, 1.0), lambda Y: h.jac(Y, 1.0), X[fin], iters=12, tol=1e-14
    )
    ok &= np.abs(X_fin).max(axis=1) < _DIVERGENCE
    X[fin] = X_fin
    status[fin] = np.where(ok, "converged", "polish_failed")
    return X, status


def _newton_family(family, t, X0):
    """Newton on the family system at t for a batch of points; (X, ok)."""
    return _newton(
        lambda X: family.system_values(t, X), lambda X: family.system_jacobian(t, X),
        X0, iters=14, tol=1e-14,
    )


def _dedup(points: np.ndarray, tol: float):
    """Merge points closer than tol in max-norm; keeps first representative."""
    kept = []
    for p in points:
        if not any(np.max(np.abs(p - q)) < tol for q in kept):
            kept.append(p)
    return kept


def _make_point_set(family, t, xs, diagnostics=None) -> CriticalPointSet:
    """The point set of the rows xs, sorted by (re, im) of their entries."""
    xs = sorted(xs, key=lambda p: tuple(v for z in p for v in (z.real, z.imag)))
    X = np.asarray(xs, dtype=np.complex128).reshape(-1, family.nunk)
    delta, jtilde, block, S = family.jacobian_data(t, X[:, : family.n])
    jts = np.abs(jtilde)
    if len(jts) and jts.max() > 0 and jts.min() < 1e-10 * jts.max():
        raise DegenerateChartError("near-degenerate critical point (Jtilde ~ 0)")
    return CriticalPointSet(
        t, X, family.residuals(t, X), delta, jtilde, block, S, diagnostics or {}
    )


def solve_family_at(
    family: DeformationFamily,
    t: complex,
    expected: int,
    rng: np.random.Generator,
    opts: SolveOptions | None = None,
) -> CriticalPointSet:
    """All critical points at parameter t via total-degree homotopy.

    Retries with a fresh gamma and start system on a count mismatch, then
    falls back to extra Newton multistarts before giving up.
    """
    opts = opts or SolveOptions()
    diagnostics = {
        "paths_tracked": 0,
        "paths_diverged": 0,
        "path_failures": 0,
        "retries": 0,
        "multistart_recoveries": 0,
    }
    if expected == 0:
        return _make_point_set(family, t, [], diagnostics)
    mtol = opts.merge_tolerance(abs(t))
    for _ in range(opts.max_retries + 1):
        gamma = np.exp(2j * np.pi * rng.random())
        b = (0.5 + rng.random(family.nunk)) * np.exp(
            2j * np.pi * rng.random(family.nunk)
        )
        h = _Homotopy(family, t, gamma, b)
        ends, status = _track(h, h.start_points())
        converged = status == "converged"
        diverged = status == "diverged"
        diagnostics["paths_tracked"] += len(status)
        diagnostics["paths_diverged"] += int(diverged.sum())
        diagnostics["path_failures"] += int((~converged & ~diverged).sum())
        X, ok = _newton_family(family, t, ends[converged])
        found = _dedup(X[ok], mtol)
        if len(found) == expected:
            try:
                return _make_point_set(family, t, found, diagnostics)
            except DegenerateChartError:
                pass
        diagnostics["retries"] += 1
    message = f"found {len(found)} critical points, expected {expected}"
    # multistart Newton recovery around the scale of what was found
    if found and len(found) < expected and opts.multistart > 0:
        scale = float(np.median([np.max(np.abs(p)) for p in found])) or 1.0
        for _ in range(opts.multistart):
            x0 = scale * (
                rng.standard_normal(family.nunk)
                + 1j * rng.standard_normal(family.nunk)
            )
            X, ok = _newton_family(family, t, x0.reshape(1, -1))
            if ok[0]:
                merged = _dedup(np.array(found + [X[0]]), mtol)
                if len(merged) > len(found):
                    found = merged
                    diagnostics["multistart_recoveries"] += 1
            if len(found) == expected:
                break
        if len(found) == expected:
            try:
                return _make_point_set(family, t, found, diagnostics)
            except DegenerateChartError as exc:
                message += f"; multistart recovered {expected}, but the chart is degenerate: {exc}"
    raise CountMismatchError(message, diagnostics)


def solve_warm(
    family: DeformationFamily,
    t: complex,
    starts: np.ndarray,
    expected: int,
    opts: SolveOptions,
):
    """Newton continuation from known nearby solutions; None on failure."""
    X, ok = _newton_family(family, t, starts)
    if not ok.all():
        return None
    found = _dedup(X, opts.merge_tolerance(abs(t)))
    if len(found) != expected:
        return None
    try:
        return _make_point_set(family, t, found)
    except DegenerateChartError:
        return None


def track_circle(
    family: DeformationFamily,
    radius: float,
    samples: int,
    expected: int,
    rng: np.random.Generator,
    opts: SolveOptions | None = None,
    warm_starts=None,
):
    """(point sets, stats) for samples points on the circle |t| = radius.

    The first angle is solved from scratch (or by Newton from ``warm_starts``
    when given); later angles continue the previous solutions by Newton,
    bisecting the angle step on failure and falling back to a fresh homotopy
    solve as a last resort.  ``stats`` counts the fresh solves and sums their
    solver counters over the grid.
    """
    opts = opts or SolveOptions()
    angles = [2 * np.pi * j / samples for j in range(samples)]
    t0 = radius * np.exp(1j * angles[0])
    first = None
    fresh_solves = 0
    if warm_starts is not None:
        first = solve_warm(family, t0, warm_starts, expected, opts)
    if first is None:
        first = solve_family_at(family, t0, expected, rng, opts)
        fresh_solves = 1
    sets = [first]
    for j in range(1, samples):
        t = radius * np.exp(1j * angles[j])
        prev = sets[-1]
        got = _continue_to(family, prev, t, expected, opts, depth=0)
        if got is None:
            got = solve_family_at(family, t, expected, rng, opts)
            fresh_solves += 1
        sets.append(got)
    stats = {"fresh_solves": fresh_solves}
    for s in sets:
        for key, v in s.diagnostics.items():
            stats[key] = stats.get(key, 0) + v
    return sets, stats


def _continue_to(family, prev_set, t, expected, opts, depth):
    got = solve_warm(family, t, prev_set.X, expected, opts)
    if got is not None:
        return got
    if depth >= 8:
        return None
    t_mid = prev_set.t + 0.5 * (t - prev_set.t)
    mid = _continue_to(family, prev_set, t_mid, expected, opts, depth + 1)
    if mid is None:
        return None
    return _continue_to(family, mid, t, expected, opts, depth + 1)


# ---------------------------------------------------------------------------
# convenience surfaces over concrete deformation values
# ---------------------------------------------------------------------------


def critical_system(inst, d: Deformation):
    """The multiplier system as polynomials in (x_1..x_n, lambda_1..lambda_k)."""
    n, k = inst.n, inst.k
    nv = n + k
    eqs = []
    for i in range(k):
        eqs.append(inst.f[i].lift(nv) - complex(d.eps[i]))
    for j in range(n):
        p = inst.A[j].lift(nv) - complex(d.alpha[j])
        for i in range(k):
            p = p - Poly.variable(n + i, nv) * inst.f[i].diff(j).lift(nv)
        eqs.append(p)
    return eqs


def _family_for(inst, d: Deformation) -> tuple:
    """Family along the ray through (eps, alpha), hit at t = 1."""
    direction = tuple(complex(v) for v in d.eps) + tuple(
        complex(v) for v in d.alpha
    )
    return DeformationFamily(inst, direction), 1.0 + 0j


def solve_all(
    inst,
    d: Deformation,
    expected_count: int,
    seed=0,
    opts: SolveOptions | None = None,
) -> CriticalPointSet:
    family, t = _family_for(inst, d)
    rng = np.random.default_rng(seed)
    return solve_family_at(family, t, expected_count, rng, opts)


def jacobian_value(inst, d: Deformation, P):
    """(Delta, Jtilde, block K) of the deformed 1-form at a solved point P."""
    family, t = _family_for(inst, d)
    X = np.asarray(P, dtype=np.complex128).reshape(1, -1)
    delta, jt, block, _ = family.jacobian_data(t, X)
    return delta[0], jt[0], family.blocks[block[0]]
