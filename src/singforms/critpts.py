"""Critical points of a deformed 1-form on a smooth fiber.

For a deformed instance (f - eps, omega - alpha) the zeros of the restricted
1-form are found as solutions of the multiplier (Lagrange) system

    f_i(x) - eps_i = 0                                 (i = 1..k)
    A_j(x) - alpha_j - sum_i lambda_i df_i/dx_j(x) = 0 (j = 1..n)

by total-degree homotopy continuation with the gamma trick (Euler predictor,
Newton corrector, plain Newton polish at the end), plus warm-started Newton
when good starting points are available (neighbouring samples on a circle).

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
    tol_residual: float = 1e-12
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
    """H(x, s) = gamma (1-s) G(x) + s F(x), G the total-degree start system."""

    def __init__(self, family: DeformationFamily, t: complex, gamma: complex, b):
        self.family = family
        self.t = t
        self.gamma = gamma
        self.b = np.asarray(b, dtype=np.complex128)
        self.d = np.array(family.degrees, dtype=np.int64)
        self.nv = family.nunk

    def start_points(self):
        roots = []
        for i in range(self.nv):
            d = int(self.d[i])
            base = self.b[i] ** (1.0 / d)
            roots.append(
                [base * np.exp(2j * np.pi * k / d) for k in range(d)]
            )
        return [np.array(c, dtype=np.complex128) for c in itertools.product(*roots)]

    def g_values(self, X):
        return X**self.d[None, :] - self.b[None, :]

    def g_jac(self, X):
        m = X.shape[0]
        out = np.zeros((m, self.nv, self.nv), dtype=np.complex128)
        idx = np.arange(self.nv)
        out[:, idx, idx] = self.d[None, :] * X ** (self.d[None, :] - 1)
        return out

    def values(self, X, s: float):
        f = self.family.system_values(self.t, X)
        g = self.g_values(X)
        return self.gamma * (1.0 - s) * g + s * f

    def jac(self, X, s: float):
        jf = self.family.system_jacobian(self.t, X)
        jg = self.g_jac(X)
        return self.gamma * (1.0 - s) * jg + s * jf

    def ds_values(self, X, s: float):
        f = self.family.system_values(self.t, X)
        g = self.g_values(X)
        return f - self.gamma * g


def _newton_h(h: _Homotopy, x, s, iters=8, tol=1e-13):
    X = x.reshape(1, -1)
    for _ in range(iters):
        val = h.values(X, s)[0]
        if np.max(np.abs(val)) < tol:
            return X[0], True
        J = h.jac(X, s)[0]
        try:
            dx = np.linalg.solve(J, val)
        except np.linalg.LinAlgError:
            return X[0], False
        X = X - dx.reshape(1, -1)
        if not np.all(np.isfinite(X)):
            return X[0], False
    val = h.values(X, s)[0]
    return X[0], bool(np.max(np.abs(val)) < tol * 100)


def _track_path(h: _Homotopy, x0: np.ndarray):
    """Track one start point from s=0 to s=1; returns (endpoint | None, status)."""
    x = x0.copy()
    s = 0.0
    ds = 0.05
    while s < 1.0:
        step = min(ds, 1.0 - s)
        X = x.reshape(1, -1)
        # Euler predictor
        try:
            J = h.jac(X, s)[0]
            rhs = h.ds_values(X, s)[0]
            dx = np.linalg.solve(J, rhs)
        except np.linalg.LinAlgError:
            ds *= 0.5
            if ds < 1e-12:
                return None, "stalled"
            continue
        x_pred = x - step * dx
        s_new = s + step
        x_corr, ok = _newton_h(h, x_pred, s_new, iters=4, tol=1e-11)
        if ok and np.all(np.isfinite(x_corr)):
            x, s = x_corr, s_new
            if np.max(np.abs(x)) > _DIVERGENCE:
                return None, "diverged"
            ds = min(ds * 1.7, 0.1)
        else:
            ds *= 0.4
            if ds < 1e-12:
                # paths to infinity shrink the step against a blowing-up |x|
                if np.max(np.abs(x)) > 1e3 and s > 0.99:
                    return None, "diverged"
                if np.max(np.abs(x)) > 1e4:
                    return None, "diverged"
                return None, "stalled"
    # polish on the target system
    x_fin, ok = _newton_h(h, x, 1.0, iters=12, tol=1e-14)
    if ok and np.all(np.isfinite(x_fin)) and np.max(np.abs(x_fin)) < _DIVERGENCE:
        return x_fin, "converged"
    return None, "polish_failed"


def _newton_family(family, t, X0, iters=14, tol=1e-14):
    """Vectorized Newton on the family system for a batch of points."""
    X = np.array(X0, dtype=np.complex128)
    for _ in range(iters):
        vals = family.system_values(t, X)
        if np.max(np.abs(vals)) < tol:
            break
        J = family.system_jacobian(t, X)
        try:
            dx = np.linalg.solve(J, vals[:, :, None])[:, :, 0]
        except np.linalg.LinAlgError:
            return X, np.full(X.shape[0], np.inf)
        X = X - dx
        if not np.all(np.isfinite(X)):
            return X, np.full(X.shape[0], np.inf)
    res = family.residuals(t, X)
    return X, res


def _dedup(points: np.ndarray, tol: float):
    """Merge points closer than tol in max-norm; keeps first representative."""
    kept = []
    for p in points:
        if not any(np.max(np.abs(p - q)) < tol for q in kept):
            kept.append(p)
    return kept


def _canonical_sort(points):
    def key(p):
        return tuple(v for z in p for v in (z.real, z.imag))

    return sorted(points, key=key)


def _make_point_set(family, t, xs) -> CriticalPointSet:
    X = np.asarray(xs, dtype=np.complex128).reshape(-1, family.nunk)
    delta, jtilde, block, S = family.jacobian_data(t, X[:, : family.n])
    jts = np.abs(jtilde)
    if len(jts) and jts.max() > 0 and jts.min() < 1e-10 * jts.max():
        raise DegenerateChartError("near-degenerate critical point (Jtilde ~ 0)")
    return CriticalPointSet(t, X, family.residuals(t, X), delta, jtilde, block, S)


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
        ps = _make_point_set(family, t, [])
        ps.diagnostics = diagnostics
        return ps
    mtol = opts.merge_tolerance(abs(t))
    last_found = []
    for attempt in range(opts.max_retries + 1):
        gamma = np.exp(2j * np.pi * rng.random())
        b = (0.5 + rng.random(family.nunk)) * np.exp(
            2j * np.pi * rng.random(family.nunk)
        )
        h = _Homotopy(family, t, gamma, b)
        starts = h.start_points()
        diagnostics["paths_tracked"] += len(starts)
        endpoints = []
        for x0 in starts:
            end, status = _track_path(h, x0)
            if status == "converged":
                endpoints.append(end)
            elif status == "diverged":
                diagnostics["paths_diverged"] += 1
            else:
                diagnostics["path_failures"] += 1
        if endpoints:
            X, res = _newton_family(family, t, np.array(endpoints))
            good = [x for x, r in zip(X, res) if r < opts.tol_residual]
        else:
            good = []
        found = _dedup(np.array(good), mtol) if good else []
        last_found = found
        if len(found) == expected:
            try:
                ps = _make_point_set(family, t, _canonical_sort(found))
            except DegenerateChartError:
                diagnostics["retries"] += 1
                continue
            ps.diagnostics = diagnostics
            return ps
        diagnostics["retries"] += 1
    message = f"found {len(last_found)} critical points, expected {expected}"
    # multistart Newton recovery around the scale of what was found
    found = list(last_found)
    if found and len(found) < expected and opts.multistart > 0:
        scale = float(np.median([np.max(np.abs(p)) for p in found])) or 1.0
        for _ in range(opts.multistart):
            x0 = scale * (
                rng.standard_normal(family.nunk)
                + 1j * rng.standard_normal(family.nunk)
            )
            X, res = _newton_family(family, t, x0.reshape(1, -1))
            if res[0] < opts.tol_residual:
                merged = _dedup(np.array(found + [X[0]]), mtol)
                if len(merged) > len(found):
                    found = merged
                    diagnostics["multistart_recoveries"] += 1
            if len(found) == expected:
                break
        if len(found) == expected:
            try:
                ps = _make_point_set(family, t, _canonical_sort(found))
            except DegenerateChartError as exc:
                message += f"; multistart recovered {expected}, but the chart is degenerate: {exc}"
            else:
                ps.diagnostics = diagnostics
                return ps
    raise CountMismatchError(message, diagnostics)


def solve_warm(
    family: DeformationFamily,
    t: complex,
    starts: np.ndarray,
    expected: int,
    opts: SolveOptions,
):
    """Newton continuation from known nearby solutions; None on failure."""
    X, res = _newton_family(family, t, starts)
    if np.any(res > opts.tol_residual) or not np.all(np.isfinite(X)):
        return None
    found = _dedup(X, opts.merge_tolerance(abs(t)))
    if len(found) != expected:
        return None
    try:
        return _make_point_set(family, t, _canonical_sort(found))
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
