"""Quadratic forms on the local algebra and on the module of forms.

``gram_qa`` assembles Q(phi, psi) = R(phi psi) over the monomial basis of the
quotient algebra from the vector r = (R(e_c))_c of R on the basis (one
batched limit).  Its entry at (a, b) is R(x^(alpha_a + alpha_b)), so the
Gram is a moment matrix, as for the Eisenbud-Levine-Khimshiashvili form:
one value per distinct product, read off at every pair.  Only the nu
entries of r are rationalized, and exact mode is authoritative for ranks
and signatures.
``lambda_map`` sends an (n-k)-form h dx_L to sgn(K, L) h Delta_K
where K is the complementary column block of the Jacobian of f, realizing
(df_1 ^ .. ^ df_k ^ eta) / (dx_1 ^ .. ^ dx_n); the form on the module is the
pullback of Q^A along this map (the congruence C Q^A C^T over the generators'
coordinates), its rank is computed intrinsically on the image subspace.
``qomega_numeric`` evaluates the same pairing directly on the deformed fibers
for all generator pairs in one batched limit, with Lambda evaluated from its
definition, h det[df; e_L], at each critical point: each product of two
values over Jtilde is the fiber chart's product, whatever the chart.  The
agreement of the two routes is a test target, not an assumption.  The
numeric stages take the algebra, the ``ResidueSampler`` and ``Q^A`` from
their caller, ``pipeline.analyze``.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import ratlinalg
from .critpts import StackedPolys
from .icis import ProblemInstance, block_minor
from .localalg import QuotientAlgebra
from .polyring import Poly
from .residuefn import ResidueSampler


@dataclass(frozen=True)
class FormGenerator:
    """An (n-k)-form h dx_L, L an ascending index subset (0-based)."""

    coeff: Poly
    index_set: tuple

    def __post_init__(self):
        s = tuple(self.index_set)
        if list(s) != sorted(set(s)):
            raise ValueError("index set must be strictly increasing")
        object.__setattr__(self, "index_set", s)

    def label(self, varnames=None) -> str:
        names = varnames or [f"x{i+1}" for i in range(self.coeff.nvars)]
        wedge = "^".join(f"d{names[i]}" for i in self.index_set) or "1"
        c = self.coeff.to_string(names)
        return wedge if c == "1" else f"({c})*{wedge}"


@dataclass
class GramForm:
    """Labeled symmetric matrix with numeric and (optional) exact entries."""

    labels: list
    numeric: np.ndarray
    exact: list | None
    failed_entries: list = field(default_factory=list)
    max_numeric_exact_dev: float = 0.0  # worst |r_c - rational r_c| over the basis values

    @property
    def dim(self) -> int:
        return len(self.labels)

    def rank_signature(self):
        """(rank, signature); exact when the exact matrix is present."""
        if self.exact is not None:
            return ratlinalg.rank_signature_exact(self.exact)
        lo, hi = ratlinalg.numeric_rank_bounds(self.numeric)
        return (lo, None) if lo == hi else ((lo, hi), None)


def gram_qa(
    inst: ProblemInstance,
    alg: QuotientAlgebra,
    sampler: ResidueSampler,
    want_exact: bool = True,
) -> GramForm:
    """Gram matrix [R(e_a e_b)] over the monomial basis of the algebra.

    R vanishes on the ideal, so the entry is sum_c r_c NF_c with r_c =
    R(e_c) (``sampler.basis_values``) and NF the normal form of the pair's
    row of ``alg.products``: one value per row, over the real parts of r
    and over the rationalized r_c.  When some r_c does not rationalize,
    the pairs a <= b whose product touches it are the failed entries and
    there is no exact Gram.
    """
    dim = len(alg.basis)
    labels = [Poly.monomial(m).to_string([f"x{i+1}" for i in range(inst.n)]) for m in alg.basis]
    r = sampler.basis_values(alg.basis)
    rats = [sampler.rational(v) for v in r]
    index, _, forms = alg.products
    index_array = np.array(index, dtype=np.intp).reshape(dim, dim)
    numeric = (np.array(forms, dtype=float).reshape(len(forms), dim) @ r.real)[index_array]
    touched = [any(p and q is None for p, q in zip(nf, rats)) for nf in forms]
    failed = [(a, b) for a in range(dim) for b in range(a, dim) if touched[index[a][b]]]
    exact = None
    if want_exact and not failed:
        values = [sum((q * p for p, q in zip(nf, rats) if p), Fraction(0)) for nf in forms]
        exact = [[values[i] for i in row] for row in index]
    return GramForm(
        labels=labels,
        numeric=numeric,
        exact=exact,
        failed_entries=failed,
        max_numeric_exact_dev=max(
            (abs(v - float(q)) for v, q in zip(r, rats) if q is not None), default=0.0
        ),
    )


# ---------------------------------------------------------------------------
# the comparison map and the form on the module
# ---------------------------------------------------------------------------


def shuffle_sign(K, L) -> int:
    """Sign of the permutation sorting the concatenation (K, L) ascending."""
    seq = tuple(K) + tuple(L)
    inv = sum(
        1 for i in range(len(seq)) for j in range(i + 1, len(seq)) if seq[i] > seq[j]
    )
    return -1 if inv % 2 else 1


def lambda_poly(inst: ProblemInstance, gen: FormGenerator) -> Poly:
    """The function (df_1 ^ .. ^ df_k ^ gen) / (dx_1 ^ .. ^ dx_n)."""
    L = gen.index_set
    if len(L) != inst.n - inst.k:
        raise ValueError("generator must be an (n-k)-form")
    K = tuple(j for j in range(inst.n) if j not in L)
    return shuffle_sign(K, L) * block_minor(inst, K) * gen.coeff


def lambda_map(inst: ProblemInstance, gen: FormGenerator, alg: QuotientAlgebra):
    """Coordinates of the class of lambda_poly over the algebra basis."""
    return alg.normal_form(lambda_poly(inst, gen))


def im_lambda_basis(inst: ProblemInstance, alg: QuotientAlgebra):
    """Echelon basis (rows) of the image subspace of the comparison map.

    The image is spanned by the classes of Delta_K * b over all k-subsets K
    and basis monomials b.
    """
    rows = []
    for K in itertools.combinations(range(inst.n), inst.k):
        dseta = block_minor(inst, K)
        for m in alg.basis:
            nf = alg.normal_form(dseta * Poly.monomial(m))
            rows.append({c: v for c, v in enumerate(nf) if v})
    ech = ratlinalg.rref(rows)
    return [[ech[c].get(j, Fraction(0)) for j in range(len(alg.basis))] for c in sorted(ech)]


def _congruence(B, G):
    """B G B^T in exact arithmetic; B and G (square) are lists of rows of
    Fractions or ints.

    Both are scaled once to integers by the lcm of their denominators, the
    products are summed as Python ints over the nonzero entries of B, and
    each entry is divided once by the scale."""
    dB = math.lcm(*(v.denominator for row in B for v in row))
    dG = math.lcm(*(v.denominator for row in G for v in row))
    Bi = [[(j, v.numerator * (dB // v.denominator)) for j, v in enumerate(row) if v] for row in B]
    Gi = [[v.numerator * (dG // v.denominator) for v in row] for row in G]
    BG = [[sum(b * Gi[j][l] for j, b in row) for l in range(len(Gi))] for row in Bi]
    scale = dB * dB * dG
    return [[Fraction(sum(bg[j] * b for j, b in col), scale) for col in Bi] for bg in BG]


def restricted_rank(gram_exact, subspace_rows):
    """Exact rank of a symmetric matrix restricted to a row-spanned subspace."""
    if not subspace_rows:
        return 0
    return ratlinalg.rank(_congruence(subspace_rows, gram_exact))


@dataclass
class QOmegaResult:
    gram: GramForm
    rank: int
    im_lambda_dim: int


def gram_qomega(
    inst: ProblemInstance, generators, alg: QuotientAlgebra, qa: GramForm
) -> QOmegaResult:
    """Gram of the module form over the given generators via the map route,
    plus the intrinsic rank on the image subspace."""
    coords = [lambda_map(inst, g, alg) for g in generators]
    if qa.exact is None:
        exact = None
        C = np.array(coords, dtype=float).reshape(len(coords), alg.colength)
        numeric = C @ qa.numeric @ C.T
    else:
        exact = _congruence(coords, qa.exact)
        numeric = np.array(exact, dtype=float).reshape(len(coords), len(coords))
    gram = GramForm(labels=[g.label() for g in generators], numeric=numeric, exact=exact)
    im = im_lambda_basis(inst, alg)
    rk = None if exact is None else restricted_rank(qa.exact, im)
    return QOmegaResult(gram=gram, rank=rk, im_lambda_dim=len(im))


def qomega_numeric(generators, sampler: ResidueSampler) -> np.ndarray:
    """Independent evaluation of the module pairing on the deformed fibers.

    Returns the symmetric complex G x G table over all generator pairs, from
    one batched limit.  At a critical point, Lambda of h dx_G is h det[df;
    e_G] by its definition: df stacked over the unit rows e_g, g in G.  In
    the fiber chart dx = T dx_L of any block K with Delta_K != 0 (L its
    complement), h dx_G restricts to h det(T[G]) dx_L, and det[df; e_G] =
    sgn(K, L) Delta_K det(T[G]): the sign cancels in a product, so over the
    rows' values a the table (a / Jtilde)^T a is the sum of the products of
    chart coefficients over the chart Hessian Jtilde / Delta_K^2.
    """
    fam = sampler.family
    n, k = fam.n, fam.k
    coeffs = StackedPolys([g.coeff for g in generators], n)
    index_sets = list(dict.fromkeys(g.index_set for g in generators))
    which = [index_sets.index(g.index_set) for g in generators]
    E = np.eye(n)[np.reshape(index_sets, (len(index_sets), n - k)).astype(np.int64)]  # e_G
    pairs = np.triu_indices(len(generators))

    def values(ps):
        M = np.empty((len(ps), len(E), n, n), dtype=np.complex128)
        M[:, :, :k], M[:, :, k:] = ps.df[:, None], E
        a = coeffs.eval(ps.x) * np.linalg.det(M)[:, which]
        return ((a / ps.jtilde[:, None]).T @ a)[pairs]

    labels = [
        f"qomega[{generators[i].label()},{generators[j].label()}]" for i, j in zip(*pairs)
    ]
    table = np.zeros((len(generators), len(generators)), dtype=np.complex128)
    table[pairs] = table[pairs[::-1]] = sampler.limit(values, labels)
    return table


# ---------------------------------------------------------------------------
# inequalities
# ---------------------------------------------------------------------------


def rank_inequalities_hold(
    nu: int, tau: int, rank_qa: int, rank_qomega: int, im_lambda_dim: int, omega_dim: int
) -> bool:
    """rank Q^Omega <= rank Q^A, corank Q^Omega >= tau', 0 <= the rank gap
    <= 2 tau', and dim im Lambda = nu - tau'."""
    gap = rank_qa - rank_qomega
    return (
        rank_qomega <= rank_qa
        and omega_dim - rank_qomega >= tau
        and 0 <= gap <= 2 * tau
        and im_lambda_dim == nu - tau
    )
