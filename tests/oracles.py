"""Independent oracles used by the test suite.

These deliberately avoid the production code paths they check: the truncated
Macaulay dimension uses its own dense rational elimination, and the
finite-difference Jacobian oracle restricts the 1-form to the fiber through
the implicit function theorem with plain polynomial evaluation
(``eval_at``, term by term).  The two instance builders ``ex1`` and ``cusp``
are shared by the test modules, as are three helpers that only tests call:
the classical map-germ form ``elkh`` (``make_sampler`` and ``gram_qa`` on a
k = 0 instance), the bridge map of Example 2 and ``mult_operator_rank``.
Five references keep the plain form of an optimized routine: ``dedup`` (a
pairwise loop), ``gram_by_pairs`` (``Q^A`` from every pair's normal form),
``congruence`` (over Fractions), ``track_circle_by_steps`` (continuation
one angle step at a time) and ``module_dim_by_stabilization`` (the module
dimension without the algebra's truncation degree).
"""

from __future__ import annotations

import itertools
from collections import Counter
from fractions import Fraction
from math import lcm

import numpy as np

from singforms import critpts, ratlinalg
from singforms.icis import ProblemInstance, algebra, minor, omega_module_generators
from singforms.localalg import QuotientAlgebra
from singforms.polyring import Poly, parse
from singforms.quadforms import gram_qa
from singforms.residuefn import LimitConfig, make_sampler


def ex1(n, a):
    """The quadric instance f = sum x_i^2, omega = sum a_i x_i dx_i."""
    vs = [f"x{i+1}" for i in range(n)]
    f = parse(" + ".join(f"x{i+1}^2" for i in range(n)), vs)
    A = [a[i] * Poly.variable(i, n) for i in range(n)]
    return ProblemInstance(n, 1, [f], A)


def cusp():
    """The cusp f = x^2 - y^3 with omega = dx."""
    return ProblemInstance(2, 1, [parse("x^2 - y^3", ["x", "y"])], [Poly.one(2), Poly.zero(2)])


def eval_at(poly: Poly, point):
    """Evaluate a polynomial at a point, term by term; exact rational
    coefficients convert on the fly.

    With complex entries the result is complex; with Fraction entries it
    stays exact.
    """
    if len(point) != poly.nvars:
        raise ValueError(f"point has length {len(point)}, expected {poly.nvars}")
    inexact = any(isinstance(v, (complex, float)) for v in point)
    # per-variable power cache keyed by exponent
    caches = [dict() for _ in range(poly.nvars)]

    def power(i, e):
        if e == 0:
            return 1
        cache = caches[i]
        v = cache.get(e)
        if v is None:
            v = point[i] ** e
            cache[e] = v
        return v

    total = 0
    for m, c in poly.terms.items():
        val = complex(c) if inexact else c
        for i, e in enumerate(m):
            if e:
                val = val * power(i, e)
        total = total + val
    return total


def elkh(maps, cfg: LimitConfig, seed=0):
    """The classical nondegenerate form of a finite map germ (the k = 0 case).

    Returns (GramForm, algebra, sampler); the Gram is [R(e_a e_b)] for the
    1-form with coefficients the components of the map, whose signature is the
    local degree of the real map for real input.
    """
    n = maps[0].nvars
    inst = ProblemInstance(n, 0, [], list(maps))
    alg = algebra(inst)
    if alg.colength == float("inf"):
        raise ValueError("map is not finite")
    sampler = make_sampler(inst, cfg, seed, expected=alg.colength)
    gram = gram_qa(inst, alg, sampler)
    return gram, alg, sampler


def example2_bridge_map(inst: ProblemInstance):
    """The finite map (f, m_2, .., m_n) matched by the algebra of (f, dx_1).

    The minors m_j are taken on columns (1, j) with the sign conventions of
    the ideal construction, which makes the comparison exact including signs.
    """
    if inst.k != 1:
        raise ValueError("the bridge needs k = 1")
    if inst.A[0] != Poly.one(inst.n) or any(
        not a.is_zero() for a in inst.A[1:]
    ):
        raise ValueError("the bridge needs omega = dx_1")
    return [inst.f[0]] + [minor(inst, (0, j)) for j in range(1, inst.n)]


def mult_operator_rank(alg: QuotientAlgebra, p: Poly) -> int:
    """Exact rank of multiplication by p on the quotient algebra."""
    if alg.colength == 0:
        return 0
    return ratlinalg.rank(alg.multiplication_matrix(p))


def dedup(Xs, tol):
    """Per sample Xs[i], the mask of rows with no earlier row of the sample
    within tol[i] (max-norm), by a plain pairwise loop: the reference for
    ``critpts._distinct``."""
    keep = np.ones(Xs.shape[:2], dtype=bool)
    for s, (X, t) in enumerate(zip(Xs, tol)):
        for j in range(len(X)):
            keep[s, j] = all(np.abs(X[i] - X[j]).max() >= t for i in range(j))
    return keep


def gram_by_pairs(alg: QuotientAlgebra, r, rats):
    """``quadforms.gram_qa``'s (numeric, exact, failed_entries) by the
    structure-constant contraction, pair by pair: P[a][b] is the normal form
    of e_a e_b, the numeric Gram sum_c r_c P_c over the real parts of r, and
    the exact one over the rationals ``rats`` (None where r_c does not
    rationalize; then the pairs a <= b whose P touches it fail)."""
    dim = len(alg.basis)
    P = [
        [alg.normal_form(Poly.monomial(tuple(x + y for x, y in zip(u, v)))) for v in alg.basis]
        for u in alg.basis
    ]
    numeric = np.array(P, dtype=float).reshape(dim, dim, dim) @ np.real(r)
    failed = [
        (a, b)
        for a in range(dim)
        for b in range(a, dim)
        if any(p and q is None for p, q in zip(P[a][b], rats))
    ]
    if failed:
        return numeric, None, failed
    exact = [[sum((q * p for p, q in zip(pc, rats) if p), Fraction(0)) for pc in row] for row in P]
    return numeric, exact, failed


def congruence(B, G):
    """B G B^T over Fractions, as (B G) B^T: the plain reference for
    ``quadforms._congruence``; B and G are lists of rows."""
    BG = [[sum(b * g for b, g in zip(row, col)) for col in zip(*G)] for row in B]
    return [[sum(x * y for x, y in zip(row, b)) for b in B] for row in BG]


def track_circle_by_steps(family, P, firsts, expected, rng):
    """``critpts.track_circle``'s (rows, solve_stats) by continuation one
    angle step at a time: all circles in lockstep, one
    ``critpts.solve_anchored`` per step from the previous sample's rows."""
    X = np.empty((*P.shape[:2], expected, family.nunk), dtype=np.complex128)
    X[:, 0] = critpts._require_count(firsts, expected)
    stats = Counter(critpts.solve_stats(firsts))
    for j in range(1, P.shape[1]):
        X[:, j], fresh = critpts.solve_anchored(family, P[:, j], X[:, j - 1], expected, rng)
        stats.update(fresh)
    return X, dict(stats)


def module_dim_by_stabilization(inst: ProblemInstance, d_max: int) -> int:
    """``icis.omega_module_dim`` without the truncation degree N of the
    algebra: dim_at(D) = dim Omega / (R + m^D Omega) for D = 2, 3, ... until
    two consecutive values agree.  Then m^D Omega lies in R + m^(D+1) Omega,
    so in R by Nakayama, and the repeated value is the dimension.  Raises
    AssertionError when no value repeats by ``d_max``."""
    subsets, gens = omega_module_generators(inst)
    s_index = {S: i for i, S in enumerate(subsets)}
    int_gens = []  # [(subset index, mono, degree, integer coefficient)] per gen
    for gen in gens:
        terms = [(s_index[S], m, c) for S, p in gen.items() for m, c in p.terms.items()]
        if terms:
            scale = lcm(*(c.denominator for *_, c in terms))
            int_gens.append([(si, m, sum(m), int(c * scale)) for si, m, c in terms])

    def dim_at(D):
        monos = monomials_below(inst.n, D)
        m_index = {m: i for i, m in enumerate(monos)}
        rows = [
            {
                si * len(monos) + m_index[tuple(map(sum, zip(beta, mono)))]: c
                for si, mono, deg, c in terms
                if sum(beta) + deg < D
            }
            for terms in int_gens
            for beta in monomials_below(inst.n, D - min(t[2] for t in terms))
        ]
        return len(subsets) * len(monos) - ratlinalg.int_rank(rows)

    prev = None
    for D in range(2, d_max + 1):
        cur = dim_at(D)
        if cur == prev:
            return cur
        prev = cur
    raise AssertionError(f"module dimension did not stabilize by d_max={d_max}")


def monomials_below(nvars, degree):
    out = []
    for d in range(degree):
        for c in itertools.combinations_with_replacement(range(nvars), d):
            m = [0] * nvars
            for i in c:
                m[i] += 1
            out.append(tuple(m))
    return out


def _gauss_rank(rows):
    """Gauss-Jordan elimination of dense rows: (reduced nonzero rows, pivot
    columns), so the rank is the number of pivots."""
    mat = [list(r) for r in rows]
    ncols = len(mat[0]) if mat else 0
    pivots = []
    rank = 0
    for c in range(ncols):
        piv = None
        for i in range(rank, len(mat)):
            if mat[i][c] != 0:
                piv = i
                break
        if piv is None:
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        inv = Fraction(1) / mat[rank][c]
        mat[rank] = [v * inv for v in mat[rank]]
        for i in range(len(mat)):
            if i != rank and mat[i][c] != 0:
                f = mat[i][c]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[rank])]
        pivots.append(c)
        rank += 1
        if rank == len(mat):
            break
    return mat[:rank], pivots


def macaulay_quotient_dim(gens, nvars, degree):
    """dim of Q[x]_{<degree} modulo truncated polynomial multiples of gens."""
    monos = monomials_below(nvars, degree)
    index = {m: i for i, m in enumerate(monos)}
    rows = []
    for g in gens:
        for beta in monos:
            row = [Fraction(0)] * len(monos)
            nonzero = False
            for mono, c in g.terms.items():
                m = tuple(a + b for a, b in zip(beta, mono))
                if sum(m) < degree:
                    row[index[m]] += c
                    nonzero = True
            if nonzero:
                rows.append(row)
    return len(monos) - len(_gauss_rank(rows)[1])


def ex1_closed_form(n, a, eps):
    """Critical points, multipliers and Jacobian values for the quadric family
    (sum x_i^2 = eps, omega = sum a_i x_i dx_i, alpha = 0), derived by hand:
    the restriction to the fiber is sum_{j != i} (a_j - a_i) x_j dx_j in the
    chart at the i-th point pair, so Jtilde = (2 x_i)^2 prod_{j != i}(a_j - a_i).
    """
    root = complex(eps) ** 0.5
    points = []
    for i in range(n):
        prod = 1.0
        for j in range(n):
            if j != i:
                prod *= a[j] - a[i]
        for sign in (+1, -1):
            x = [0j] * n
            x[i] = sign * root
            lam = a[i] / 2.0
            jt = 4.0 * complex(eps) * prod
            points.append((tuple(x), lam, jt))
    return points


def ex1_r_limit(n, a, exps):
    """Exact limit of sum x^exps(P)/Jtilde(P) for the quadric family.

    The closed-form points have a single nonzero coordinate +-sqrt(eps), so a
    monomial with two positive exponents vanishes at every point, odd powers
    cancel in +- pairs, x_i^2 contributes 1/(2 prod_{j != i}(a_j - a_i))
    independently of eps, and higher even pure powers scale like a positive
    power of eps, vanishing in the limit.  The constant 1 rides on the
    identity sum_i 1/prod_i = 0.
    """
    support = [i for i, e in enumerate(exps) if e > 0]
    if len(support) > 1:
        return Fraction(0)
    if any(e % 2 for e in exps):
        return Fraction(0)
    if not support:
        total = Fraction(0)
        for i in range(n):
            prod = 1
            for j in range(n):
                if j != i:
                    prod *= a[j] - a[i]
            total += Fraction(1, prod)
        assert total == 0  # the classical vanishing identity behind R(1) = 0
        return Fraction(0)
    i = support[0]
    if exps[i] != 2:
        return Fraction(0)
    prod = 1
    for j in range(n):
        if j != i:
            prod *= a[j] - a[i]
    return Fraction(1, 2 * prod)


def fd_restricted_jacobian(inst, direction, t, x, block, h=1e-6):
    """Finite-difference Hessian of the restricted 1-form at a fiber point.

    Solves f(x) = eps for the block coordinates via Newton (implicit function
    theorem), restricts omega - alpha to the fiber in the chart of the
    complementary coordinates, and differentiates the restricted coefficients
    numerically.  Returns Delta^2 * det(dA_hat/dx_L), the chart-free value.
    """
    n, k = inst.n, inst.k
    K = list(block)
    L = [j for j in range(n) if j not in K]
    eps = [t * direction[i] for i in range(k)]
    alpha = [t * direction[k + j] for j in range(n)]

    def solve_fiber(xl):
        full = np.array(x, dtype=complex)
        for c, j in zip(xl, L):
            full[j] = c
        for _ in range(60):
            vals = np.array(
                [eval_at(inst.f[i], full) - eps[i] for i in range(k)]
            )
            if np.abs(vals).max(initial=0.0) < 1e-14:  # k = 0: no fiber to solve
                break
            jac = np.array(
                [[eval_at(inst.f[i].diff(j), full) for j in K] for i in range(k)]
            )
            dx = np.linalg.solve(jac, vals)
            for idx, j in enumerate(K):
                full[j] -= dx[idx]
        return full

    def restricted(xl):
        full = solve_fiber(xl)
        a_t = np.array([eval_at(inst.A[j], full) - alpha[j] for j in range(n)])
        dfK = np.array(
            [[eval_at(inst.f[i].diff(j), full) for j in K] for i in range(k)]
        )
        dfL = np.array(
            [[eval_at(inst.f[i].diff(j), full) for j in L] for i in range(k)]
        )
        if k:
            dxk = -np.linalg.solve(dfK, dfL)  # rows K, cols L
            return np.array(
                [
                    a_t[j] + sum(a_t[K[i]] * dxk[i][c] for i in range(k))
                    for c, j in enumerate(L)
                ]
            )
        return a_t[L]

    xl0 = np.array([x[j] for j in L], dtype=complex)
    m = len(L)
    jac = np.zeros((m, m), dtype=complex)
    for c in range(m):
        step = np.zeros(m, dtype=complex)
        step[c] = h
        jac[:, c] = (restricted(xl0 + step) - restricted(xl0 - step)) / (2 * h)
    full = solve_fiber(xl0)
    if k:
        dfK = np.array(
            [[eval_at(inst.f[i].diff(j), full) for j in K] for i in range(k)]
        )
        delta = np.linalg.det(dfK)
    else:
        delta = 1.0
    return delta**2 * np.linalg.det(jac)
