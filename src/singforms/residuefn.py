"""The deformation-limit linear functional R and its verification suites.

R(phi) is the limit, as the deformation point p goes to zero along a fixed
generic complex ray t u, of sum_P phi(P)/Jtilde(P) over the critical points
of the deformed 1-form on the deformed fiber.  The limit function is
holomorphic in t through the origin, so its value there equals its mean
over a small circle; the trapezoid rule over S equidistant angles computes
that mean with error O(r^S), far below solver noise.  The solved grids are
one point set over all circles, with one p per row.  Limits are batched:
one evaluation per block of ``_BLOCK_ROWS`` rows of a circle's grid
accumulates the circle means of a whole probe set at once (all probes
stacked into one ``StackedPolys``), and each probe's column is then
accepted on its own when the means at the two smallest radii agree.
Limits stay complex numbers.  R vanishes on the ideal, so it is fixed by
the vector r = (R(e_c))_c over the basis monomials of the algebra;
``basis_values`` takes that one limit and keeps it, and only its entries
are rationalized (``rational``, a continued-fraction reconstruction).
Ideal vanishing checks R on ideal generators times monomials and on the
differences x^m - NF(x^m), one per distinct product x^m = e_a e_b of basis
monomials, on which ``Q^A`` relies.  A twist's critical points are the
base grid's with the first multiplier shifted, so class invariance solves
nothing: one limit over the base grid evaluates the family's system once
per block, builds every twist's system at the shifted rows from it
(``_twist``), and compares each twist's basis vector with r.

``make_sampler`` solves the grids of an analysis, on its one family, and
builds the one sampler that holds them; the verification suites take it,
and read the limit settings from ``sampler.cfg``.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import critpts
from .critpts import DeformationFamily, StackedPolys
from .polyring import Poly
from .ratlinalg import reconstruct_rational

# rows of a grid evaluated at once by a limit: bounds the probe tables'
# memory while keeping the number of evaluations per limit small
_BLOCK_ROWS = 256
# random monomial multipliers per ideal generator in ideal vanishing, and
# twists of the 1-form in class invariance
_MULTIPLIERS = 10
_VARIANTS = 5
# max |F| of a twisted system at the base grid's shifted rows: the bound
# Newton accepts after its iterations (``critpts._newton``, 100 * 1e-14)
_TWIST_RESIDUAL = 1e-12


class NonConvergentError(RuntimeError):
    """Circle means at the two smallest radii disagree."""

    def __init__(self, message, deviations=None):
        super().__init__(message)
        self.deviations = deviations or []


@dataclass(frozen=True)
class LimitConfig:
    radii: tuple = (1e-2, 5e-3)
    samples: int = 64
    tol_match: float = 1e-8
    max_denominator: int = 10**6

    def __post_init__(self):
        r = list(self.radii)
        if not all(math.isfinite(a) and a > 0 for a in r):
            raise ValueError("radii must be finite and positive")
        if len(r) < 2 or any(a <= b for a, b in zip(r, r[1:])):
            raise ValueError("radii must be at least two, strictly decreasing")
        if self.samples < 16 or self.samples % 2:
            raise ValueError("samples must be an even integer >= 16")
        if not (math.isfinite(self.tol_match) and self.tol_match > 0):
            raise ValueError("tol_match must be finite and positive")
        if self.max_denominator < 1:
            raise ValueError("max_denominator must be at least 1")


def _rel_dev(a: complex, b: complex) -> float:
    return abs(a - b) / max(1.0, abs(a), abs(b))


class ResidueSampler:
    """One finished grid of critical points, shared by all probes.

    The circle of radius r is the points r u exp(2 pi i j / samples), u the
    unit ``direction`` in C^(k+n).  ``grid`` is the point set of every
    circle's samples, circle after circle in the order of ``cfg.radii``,
    ``expected`` rows each, a circle's first sample first.  ``stats`` holds
    the ``critpts.solve_stats`` of the grid's fresh solves.
    ``max_probe_deviation`` is the largest ``limit`` deviation, class
    invariance's twisted columns included.
    """

    def __init__(self, family, direction, expected, cfg, grid, stats):
        self.family = family
        self.direction = np.asarray(direction, dtype=np.complex128)
        self.expected = expected
        self.cfg = cfg
        self.grid = grid
        self.stats = stats
        self.max_probe_deviation = 0.0
        self._basis_values = {}

    def circle_starts(self):
        """(P0, X0): each circle's first sample r u, one row per radius,
        and its rows of the grid, shape (radii, expected, n + k)."""
        cfg = self.cfg
        starts = self.grid.X.reshape(len(cfg.radii), cfg.samples, self.expected, self.family.nunk)[:, 0]
        P0 = np.multiply.outer(cfg.radii, self.direction)
        return P0, starts

    def limit(self, values, labels) -> np.ndarray:
        """The limits of the circle means of values, one entry per label.

        values(ps) is the sum over the rows of the point set ps, one entry
        per label; it is called on consecutive blocks of at most
        ``_BLOCK_ROWS`` rows of each circle's grid, and a circle's mean is
        the sum over its blocks divided by the samples.  Each column is
        checked on its own, in label order: the circle means at the two
        smallest radii must agree.  Returns the means at the smallest
        radius.
        """
        n = self.cfg.samples * self.expected  # rows per circle
        ms = []
        for c in range(len(self.cfg.radii)):
            lo, hi = c * n, c * n + n
            blocks = range(lo, max(hi, lo + 1), _BLOCK_ROWS)  # an empty grid: one empty block
            rows = (self.grid.rows(slice(a, min(a + _BLOCK_ROWS, hi))) for a in blocks)
            ms.append(sum(map(values, rows)) / self.cfg.samples)
        ms = np.array(ms)
        for label, col in zip(labels, ms.T):
            col = [complex(m) for m in col]
            dev = _rel_dev(col[-1], col[-2])
            self.max_probe_deviation = max(self.max_probe_deviation, dev)
            if dev > self.cfg.tol_match:
                raise NonConvergentError(
                    f"circle means disagree for {label}: "
                    f"{col[-2]} vs {col[-1]} (dev {dev:.3e})",
                    deviations=[(r, m) for r, m in zip(self.cfg.radii, col)],
                )
        return ms[-1]

    # -- the functional -------------------------------------------------------

    def r_of(self, probes, labels=None) -> np.ndarray:
        """The complex limits R(p) of the probe polynomials, one batch."""
        if not all(isinstance(p, Poly) for p in probes):
            raise TypeError("probe must be Poly")
        if labels is None:
            labels = [repr(p) for p in probes]
        sp = StackedPolys(probes, self.family.n)
        return self.limit(
            lambda ps: np.sum(sp.eval(ps.x) / ps.jtilde[:, None], axis=0),
            labels,
        )

    def basis_values(self, basis) -> np.ndarray:
        """r = (R(e_c))_c over the basis monomials, from one limit; kept, so
        every reader of the same basis gets the same vector."""
        key = tuple(basis)
        if key not in self._basis_values:
            self._basis_values[key] = self.r_of([Poly.monomial(m) for m in basis])
        return self._basis_values[key]

    def rational(self, value) -> Fraction | None:
        """A limit as a rational within ``tol_match`` of denominator at most
        ``max_denominator``; None when there is none or it is not real."""
        tol, den = self.cfg.tol_match, self.cfg.max_denominator
        return reconstruct_rational(value.real, den, tol) if abs(value.imag) < tol else None


def make_sampler(inst, cfg, seed, expected):
    """Standard sampler for an instance: its one family, a seeded generic
    direction, and the circle grids of ``expected`` rows per sample.  The
    circles' first samples r u are solved in one ``critpts.solve_fresh``
    batch, the only fresh solve of a sampler whose warm samples all pass,
    and ``track_circle`` continues the circles along a chain of 16 angles
    and solves every other sample from its nearest chain sample in one
    batch, raising if a first sample found another count.  The finished
    grid is one ``critpts._point_set``, its one chart test: a degenerate
    sample raises CountMismatchError with the grid's counters, and no fresh
    solve is made, as it would find the same points."""
    rng = np.random.default_rng(seed)
    direction = critpts.generic_direction(rng, inst.n + inst.k)
    family = DeformationFamily(inst)
    P = np.array([critpts.circle(r * direction, cfg.samples) for r in cfg.radii])
    firsts = critpts.solve_fresh(family, [(Pc[0], rng) for Pc in P], expected)
    X, stats = critpts.track_circle(family, P, firsts, expected, rng)
    P = P.reshape(-1, family.nunk)
    grid, ok = critpts._point_set(family, P, X.reshape(len(P), expected, family.nunk))
    critpts._require_chart(ok, stats)
    return ResidueSampler(family, direction, expected, cfg, grid, stats)


# ---------------------------------------------------------------------------
# verification suites
# ---------------------------------------------------------------------------


@dataclass
class ProbeReport:
    """Outcome of a verification suite: per-probe deviations and the worst."""

    ok: bool
    max_deviation: float
    entries: list = field(default_factory=list)


def verify_ideal_vanishing(inst, alg, sampler: ResidueSampler, seed=0) -> ProbeReport:
    """|R(p)| below tolerance for every probe p of the ideal: each ideal
    generator g times ``_MULTIPLIERS`` random monomials h of degree <= 2,
    and x^m - NF(x^m) over the ``alg.products`` that ``Q^A`` is built from
    (none where it is 0), named after the first pair a <= b of x^m."""
    from .icis import build_ideal
    from .localalg import monomials_below

    rng = np.random.default_rng(seed + 101)
    monos = monomials_below(inst.n, 3)
    probes, labels, names = [], [], []
    for gi, g in enumerate(build_ideal(inst)):
        for pi in rng.integers(0, len(monos), size=_MULTIPLIERS):
            h = monos[int(pi)]
            probes.append(Poly.monomial(h) * g)
            labels.append(f"prop1 g{gi} h{h}")
            names.append(f"g{gi}*x^{h}")
    index, monomials, forms = alg.products
    firsts = {}  # row -> its first pair, in row order
    for a, b in itertools.combinations_with_replacement(range(len(alg.basis)), 2):
        firsts.setdefault(index[a][b], (a, b))
    for (a, b), mono, nf in zip(firsts.values(), monomials, forms):
        terms = {m: -c for m, c in zip(alg.basis, nf)}
        terms[mono] = terms.get(mono, 0) + 1
        p = Poly(terms, inst.n)
        if not p.is_zero():
            probes.append(p)
            labels.append(f"prop1 e{a}*e{b} - NF")
            names.append(f"e{a}*e{b}-NF")
    entries = list(zip(names, np.abs(sampler.r_of(probes, labels)).tolist()))
    worst = max((dev for _, dev in entries), default=0.0)
    return ProbeReport(
        ok=worst < sampler.cfg.tol_match,
        max_deviation=worst,
        entries=entries,
    )


def _twist(F, J, x, C):
    """Values and Jacobian of the system twisted by C at rows Y with
    lambda_1 shifted by h(x), from the untwisted (F, J) at the rows Y, x
    their x-parts; F and J are not changed.

    C holds the coefficients of 1, x_1..x_n (columns) of eta_1..eta_n, h
    (rows).  The twist replaces A_j by A_j + (f_1 - eps_1) eta_j + h df_1/dx_j,
    so the twisted system at X = (x, lambda) is the untwisted one at Y =
    (x, lambda_1 - h(x), lambda_2, ..) plus (f_1 - eps_1) eta_j on the rows
    of A, and its Jacobian is J(Y) dY/dX plus eta_j df_1/dx_l + (f_1 -
    eps_1) d eta_j/dx_l there."""
    n = x.shape[1]
    eta = C[:n, 0] + x @ C[:n, 1:].T
    F, J = F.copy(), J.copy()
    J[:, -n:, :n] += eta[:, :, None] * J[:, :1, :n] + F[:, :1, None] * C[:n, 1:]
    J[:, :, :n] -= J[:, :, n, None] * C[n, 1:]  # dY/dX
    F[:, -n:] += F[:, :1] * eta
    return F, J


def verify_class_invariance(inst, alg, sampler: ResidueSampler, seed=0) -> ProbeReport:
    """R is unchanged under omega -> omega + f_1 eta + h df_1.

    Each of ``_VARIANTS`` twists draws the coefficients of 1, x_1..x_n in
    eta_1..eta_n and h from -2..2.  The twisted 1-form is deformed with
    f_1 - eps_1 in place of f_1, so its critical points are exactly the base
    grid's with lambda_1 shifted by h(x), and its df, hence its chart, is
    the base's.  One ``sampler.limit`` over the base grid takes R over the
    basis of ``alg`` for every twist: per block, the basis monomials and the
    family's system are evaluated once, at the base rows, and each twist's
    system at the shifted rows (``_twist``) gives its Jtilde; its circle
    means join ``sampler.max_probe_deviation`` in ``limit``.  A shifted row
    whose twisted residual reaches ``_TWIST_RESIDUAL`` raises
    CountMismatchError naming the twist: a fresh solve at the same p would
    end at the same exact zeros, so none is made.
    """
    if inst.k < 1:
        raise ValueError("class invariance needs k >= 1")
    n, family = inst.n, sampler.family
    base = sampler.basis_values(alg.basis)
    # per variant, rows eta_1..eta_n, h and columns 1, x_1..x_n
    twists = np.random.default_rng(seed + 202).integers(-2, 3, size=(_VARIANTS, n + 1, n + 1))
    monos = [Poly.monomial(m) for m in alg.basis]
    sp = StackedPolys(monos, n)

    def values(ps):
        phi, base_system, sums = sp.eval(ps.x), family.system(ps.p, ps.X), []
        for v, C in enumerate(twists):
            F, J = _twist(*base_system, ps.x, C)
            residual = np.abs(F).max(initial=0.0)
            if residual >= _TWIST_RESIDUAL:
                message = f"class invariance: variant {v} has residual {residual:.3e} on the base grid"
                raise critpts.CountMismatchError(message, sampler.stats)
            sums.append(np.sum(phi / ((-1) ** (n * inst.k) * np.linalg.det(J))[:, None], axis=0))
        return np.concatenate(sums)

    labels = [f"variant{v} {m!r}" for v in range(_VARIANTS) for m in monos]
    devs = np.abs(sampler.limit(values, labels) - np.tile(base, _VARIANTS)).tolist()
    worst = max(devs, default=0.0)
    return ProbeReport(
        ok=worst < sampler.cfg.tol_match,
        max_deviation=worst,
        entries=list(zip(labels, devs)),
    )
