"""Independent oracles used by the test suite.

These deliberately avoid the production code paths they check: the truncated
Macaulay dimension uses its own dense rational elimination, and the
finite-difference Jacobian oracle restricts the 1-form to the fiber through
the implicit function theorem with plain polynomial evaluation.  The two
instance builders ``ex1`` and ``cusp`` are shared by the test modules.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

import numpy as np

from singforms.icis import ProblemInstance
from singforms.polyring import Poly, parse


def ex1(n, a):
    """The quadric instance f = sum x_i^2, omega = sum a_i x_i dx_i."""
    vs = [f"x{i+1}" for i in range(n)]
    f = parse(" + ".join(f"x{i+1}^2" for i in range(n)), vs)
    A = [a[i] * Poly.variable(i, n) for i in range(n)]
    return ProblemInstance(n, 1, [f], A)


def cusp():
    """The cusp f = x^2 - y^3 with omega = dx."""
    return ProblemInstance(2, 1, [parse("x^2 - y^3", ["x", "y"])], [Poly.one(2), Poly.zero(2)])


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
    mat = [list(r) for r in rows]
    ncols = len(mat[0]) if mat else 0
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
        rank += 1
        if rank == len(mat):
            break
    return rank


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
    return len(monos) - (_gauss_rank(rows) if rows else 0)


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
                [inst.f[i].eval_at(full) - eps[i] for i in range(k)]
            )
            if np.abs(vals).max(initial=0.0) < 1e-14:  # k = 0: no fiber to solve
                break
            jac = np.array(
                [[inst.f[i].diff(j).eval_at(full) for j in K] for i in range(k)]
            )
            dx = np.linalg.solve(jac, vals)
            for idx, j in enumerate(K):
                full[j] -= dx[idx]
        return full

    def restricted(xl):
        full = solve_fiber(xl)
        a_t = np.array([inst.A[j].eval_at(full) - alpha[j] for j in range(n)])
        dfK = np.array(
            [[inst.f[i].diff(j).eval_at(full) for j in K] for i in range(k)]
        )
        dfL = np.array(
            [[inst.f[i].diff(j).eval_at(full) for j in L] for i in range(k)]
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
            [[inst.f[i].diff(j).eval_at(full) for j in K] for i in range(k)]
        )
        delta = np.linalg.det(dfK)
    else:
        delta = 1.0
    return delta**2 * np.linalg.det(jac)
