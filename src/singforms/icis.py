"""Ideals and dimensions attached to an ICIS with a 1-form.

From a problem instance (f_1..f_k, omega = sum A_i dx_i) this module builds
the ideal generated by the equations and the (k+1)x(k+1) minors of the
Jacobian matrix extended by the row of 1-form coefficients, the multiplicity
nu (the complex index of the 1-form), the torsion dimension tau', and the
dimension of the quotient module of (n-k)-forms.

Column convention, used consistently downstream: minor columns are listed in
increasing index order; rows are the gradients of f_1..f_k in order, then the
A row.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from . import ratlinalg
from .localalg import QuotientAlgebra, certified_degree, monomials_below, truncated_multiples
from .polyring import Poly, det


@dataclass(frozen=True)
class ProblemInstance:
    """One ICIS-with-1-form input: n, k, equations f, 1-form coefficients A."""

    n: int
    k: int
    f: tuple
    A: tuple

    def __post_init__(self):
        if not 0 <= self.k < self.n:
            raise ValueError("need 0 <= k < n")
        object.__setattr__(self, "f", tuple(self.f))
        object.__setattr__(self, "A", tuple(self.A))
        if len(self.f) != self.k:
            raise ValueError(f"expected {self.k} equations, got {len(self.f)}")
        if len(self.A) != self.n:
            raise ValueError(f"expected {self.n} 1-form coefficients")
        for p in self.f:
            if p.nvars != self.n:
                raise ValueError("equation in wrong variable count")
            if p.constant_term() != 0:
                raise ValueError("equations must vanish at the origin")
        for p in self.A:
            if p.nvars != self.n:
                raise ValueError("1-form coefficient in wrong variable count")


def jacobian_rows(inst: ProblemInstance):
    """k x n matrix of partials of the equations."""
    return [[inst.f[i].diff(j) for j in range(inst.n)] for i in range(inst.k)]


def block_minor(inst: ProblemInstance, K) -> Poly:
    """det (df_i/dx_j)_{j in K} with rows in equation order, columns ascending."""
    K = tuple(K)
    if len(K) != inst.k:
        raise ValueError("block size must equal k")
    if inst.k == 0:
        return Poly.one(inst.n)
    jac = jacobian_rows(inst)
    return det([[jac[i][c] for c in K] for i in range(inst.k)])


def extended_matrix(inst: ProblemInstance):
    """The (k+1) x n matrix with the A row appended."""
    return jacobian_rows(inst) + [list(inst.A)]


def minor(inst: ProblemInstance, cols) -> Poly:
    """(k+1)x(k+1) minor of the extended matrix, columns strictly increasing."""
    cols = tuple(cols)
    if len(cols) != inst.k + 1:
        raise ValueError("need k+1 columns")
    if list(cols) != sorted(set(cols)):
        raise ValueError("columns must be strictly increasing")
    mat = extended_matrix(inst)
    sub = [[row[c] for c in cols] for row in mat]
    return det(sub)


def build_ideal(inst: ProblemInstance):
    """Equations followed by all C(n, k+1) minors, columns ascending."""
    gens = list(inst.f)
    for cols in itertools.combinations(range(inst.n), inst.k + 1):
        gens.append(minor(inst, cols))
    return gens


def algebra(inst: ProblemInstance) -> QuotientAlgebra:
    """The local algebra of the minor ideal; its colength is nu, INFINITE
    for a non-isolated instance."""
    return QuotientAlgebra(build_ideal(inst), inst.n)


def tau_prime(inst: ProblemInstance) -> int:
    """Colength of (f_1..f_k) + all k x k minors of the Jacobian of f.

    For k = 0 the empty minor is the unit, so tau' = 0.  Else tau' <= nu: each
    (k+1)-minor, expanded along the A row, lies in the ideal of k x k Jacobian
    minors, so the nu ideal lies inside this one, tau' is finite whenever nu
    is, and the ValueError is reachable only by callers skipping that check.
    No algebra is built: the colength is one truncated rank at the ideal's
    own certified degree.
    """
    if inst.k == 0:
        return 0
    gens = list(inst.f) + [
        block_minor(inst, K) for K in itertools.combinations(range(inst.n), inst.k)
    ]
    D = certified_degree(gens, inst.n)
    if D is None:
        raise ValueError("tau' is infinite: input is not an ICIS")
    return truncated_colength([{0: g} for g in gens], [0], inst.n, D)


def truncated_colength(gens, components, n: int, D: int) -> int:
    """Dimension of (Q[x]/m^D)^components modulo the truncated multiples of
    ``gens`` (maps {component: Poly}), with component-major columns.

    The rank is taken modulo two fixed 31-bit primes (exact fallback on
    disagreement), which can only underestimate the rank, i.e. overestimate
    the dimension.
    """
    monos = monomials_below(n, D)
    column = {key: i for i, key in enumerate(itertools.product(components, monos))}
    rows = list(truncated_multiples(gens, n, D, column))
    return len(column) - ratlinalg.int_rank(rows)


def _wedge_with_subset(coeffs, T, n):
    """Coefficients of (sum_j coeffs[j] dx_j) wedge dx_T over ascending subsets."""
    out = {}
    for j in range(n):
        if j in T or coeffs[j].is_zero():
            continue
        below = sum(1 for t in T if t < j)
        s = tuple(sorted(T + (j,)))
        sign = -1 if below % 2 else 1
        p = coeffs[j] if sign == 1 else -coeffs[j]
        out[s] = out.get(s, Poly.zero(n)) + p
    return out


def omega_module_generators(inst: ProblemInstance):
    """Generators of the relation submodule of Omega^{n-k} as coefficient maps.

    Each generator is a dict {ascending (n-k)-subset: Poly}: the products
    f_i * dx_S, the wedges df_i ^ dx_T and omega ^ dx_T over all (n-k-1)
    subsets T.
    """
    n, k = inst.n, inst.k
    m = n - k
    gens = []
    subsets = list(itertools.combinations(range(n), m))
    for i in range(k):
        for S in subsets:
            gens.append({S: inst.f[i]})
    dfs = jacobian_rows(inst)
    for T in itertools.combinations(range(n), m - 1):
        for i in range(k):
            gens.append(_wedge_with_subset(dfs[i], T, n))
        gens.append(_wedge_with_subset(list(inst.A), T, n))
    return subsets, gens


def omega_module_dim(inst: ProblemInstance, alg: QuotientAlgebra | None = None) -> int:
    """Dimension of M = Omega^{n-k} / (f_i Omega, df_i ^ Omega, omega ^ Omega).

    The minor ideal I annihilates M.  For a (k+1)-subset C and an
    (n-k)-form eta, df_1 ^ ... ^ df_k ^ omega ^ eta has degree n + 1, so it
    is 0.  Contracting it by d/dx_c for each c in C leaves +-m_C eta plus
    terms that each keep an uncontracted factor df_i or omega, so m_C eta is
    a relation (the argument behind Saito's de Rham lemma), as f_i eta is.
    Hence m^N M = 0 for the truncation degree N of the algebra (m^N in I),
    and dim M = dim Omega / (R + m^N Omega), with R the relation module: one
    ``truncated_colength`` of R, with subset-major columns.

    ``alg`` is the instance's ``algebra``, built here when it is not given;
    only its certified degree is read.  A non-isolated instance raises
    ValueError.
    """
    N = (alg or algebra(inst)).N
    if N is None:
        raise ValueError("the module dimension needs finite nu: input is not isolated")
    subsets, gens = omega_module_generators(inst)
    return truncated_colength(gens, subsets, inst.n, N)
