import itertools
from fractions import Fraction
from math import comb

import numpy as np
import pytest

from singforms import localalg, quadforms, ratlinalg
from singforms.corpus import CORPUS
from singforms.icis import (
    ProblemInstance,
    algebra,
    block_minor,
    build_ideal,
    minor,
    omega_module_dim,
    omega_module_generators,
    tau_prime,
    truncated_colength,
)
from singforms.localalg import INFINITE, QuotientAlgebra
from singforms.polyring import Poly, parse

from oracles import cusp, ex1, macaulay_quotient_dim, module_dim_by_stabilization

VS2 = ["x1", "x2"]
VS3 = ["x1", "x2", "x3"]


def test_instance_validation():
    with pytest.raises(ValueError):
        ProblemInstance(2, 1, [parse("x1 + 1", VS2)], [Poly.one(2), Poly.zero(2)])
    with pytest.raises(ValueError):
        ProblemInstance(2, 2, [parse("x1", VS2)], [Poly.one(2), Poly.zero(2)])


def test_build_ideal_ex1_n2():
    inst = ex1(2, (1, 2))
    gens = build_ideal(inst)
    assert gens[0] == inst.f[0]
    assert gens[1] == 2 * parse("x1*x2", VS2)


def test_build_ideal_cusp():
    gens = build_ideal(cusp())
    assert gens[0] == parse("x^2 - y^3", ["x", "y"])
    assert gens[1] == parse("3*y^2", ["x", "y"])


def test_build_ideal_k0():
    inst = ProblemInstance(2, 0, [], [Poly.variable(0, 2), Poly.variable(1, 2)])
    gens = build_ideal(inst)
    assert gens == [Poly.variable(0, 2), Poly.variable(1, 2)]


@pytest.mark.parametrize("n,k", [(2, 1), (3, 1), (3, 2), (2, 0)])
def test_generator_count(n, k):
    if k == 2:
        inst = ProblemInstance(
            3,
            2,
            [parse("x1^2+x2^2+x3^2", VS3), parse("x1*x2", VS3)],
            [Poly.zero(3), Poly.zero(3), Poly.one(3)],
        )
    elif k == 0:
        inst = ProblemInstance(2, 0, [], [Poly.variable(0, 2), Poly.variable(1, 2)])
    else:
        inst = ex1(n, tuple(range(1, n + 1)))
    assert len(build_ideal(inst)) == comb(inst.n, inst.k + 1) + inst.k


def test_minor_alternating_in_columns():
    from singforms.icis import extended_matrix
    from singforms.polyring import det

    inst = ProblemInstance(
        3,
        2,
        [parse("x1^2+x2^2+x3^2", VS3), parse("x1*x2", VS3)],
        [Poly.zero(3), Poly.zero(3), Poly.one(3)],
    )
    mat = extended_matrix(inst)
    asc = det([[row[c] for c in (0, 1, 2)] for row in mat])
    swapped = det([[row[c] for c in (1, 0, 2)] for row in mat])
    assert asc == -swapped
    assert minor(inst, (0, 1, 2)) == asc
    with pytest.raises(ValueError):
        minor(inst, (0, 1))


# ---- dimensions -------------------------------------------------------------

def test_index_nu_values():
    assert algebra(ex1(3, (1, 2, 4))).colength == 6
    assert algebra(cusp()).colength == 4
    smooth = ProblemInstance(
        2, 1, [parse("x1", VS2)], [Poly.zero(2), Poly.variable(1, 2)]
    )
    assert algebra(smooth).colength == 1


def test_index_nu_infinite():
    bad = ProblemInstance(
        2, 1, [parse("x1^2", VS2)], [Poly.one(2), Poly.zero(2)]
    )
    assert algebra(bad).colength == INFINITE


def test_tau_prime_values():
    assert tau_prime(ex1(2, (1, 2))) == 1
    assert tau_prime(ex1(4, (1, 2, 4, 8))) == 1
    assert tau_prime(cusp()) == 2
    smooth = ProblemInstance(
        2, 1, [parse("x1", VS2)], [Poly.zero(2), Poly.variable(1, 2)]
    )
    assert tau_prime(smooth) == 0  # the 1x1 minor is a unit
    k0 = ProblemInstance(2, 0, [], [Poly.variable(0, 2), Poly.variable(1, 2)])
    assert tau_prime(k0) == 0


def _item1(n, k, f, omega):
    vs = ["x", "y", "z"][:n]
    return ProblemInstance(n, k, [parse(p, vs) for p in f], [parse(p, vs) for p in omega])


# the two ICIS inputs of ROADMAP item 1: nu = 2 and nu = 8
ITEM1 = [
    ("item1_node", _item1(2, 1, ["x^2 - y^2 + y^3"], ["0", "1"])),
    ("item1_k2", _item1(3, 2, ["x^2 + y^2 + z^3", "x*y + z^2"], ["0", "0", "1"])),
]
# item 1's third input, a map germ: nu = 12
ITEM1_ELKH = _item1(2, 0, [], ["x^5 + x*y^2", "y^4 - x^2*y"])
# Mora's coefficients pass the 256-bit budget before its standard basis is
# complete; its leads hold a pure power of every variable long before that
HARD4 = _item1(3, 1, ["x^2 + y^3 + z^4 + x*y*z"], ["1 + y", "x", "z^2"])


def test_omega_module_dim_matches_nu():
    for inst in [
        ex1(2, (1, 2)),
        cusp(),
        ProblemInstance(2, 1, [parse("x1", VS2)], [Poly.zero(2), Poly.variable(1, 2)]),
        ProblemInstance(2, 0, [], [Poly.variable(0, 2), Poly.variable(1, 2)]),
    ] + [inst for _, inst in ITEM1]:
        assert omega_module_dim(inst) == algebra(inst).colength


def test_certified_degree_before_the_standard_basis_is_complete():
    """hard4: Mora stops at D = 8, past the smallest truncation degree 6
    (m^6 lies in the ideal), and every dimension follows from D."""
    alg = algebra(HARD4)
    assert (alg.colength, alg.N, max(sum(m) for m in alg.basis) + 1) == (12, 8, 6)
    assert (tau_prime(HARD4), omega_module_dim(HARD4, alg)) == (6, 12)
    gens = build_ideal(HARD4)
    assert macaulay_quotient_dim(gens, 3, 8) == macaulay_quotient_dim(gens, 3, 9) == 12


def brieskorn_pham(a, b, c):
    """3/2 x^a + 5 y^b + 7/3 z^c with omega = 2 dx: non-unit coefficients."""
    vs = ["x", "y", "z"]
    return ProblemInstance(
        3, 1, [parse(f"3/2*x^{a} + 5*y^{b} + 7/3*z^{c}", vs)],
        [parse(s, vs) for s in ("2", "0", "0")],
    )


SURFACES = [(2, 3, 4), (3, 4, 5), (3, 4, 8), (3, 5, 7)]
# the module dimension of these first repeats at D = 13
SCALE_SURFACES = [(2, 5, 9), (4, 5, 7)]


@pytest.mark.parametrize(
    "abc", SURFACES + SCALE_SURFACES, ids=lambda abc: "bp_%d_%d_%d" % abc
)
def test_omega_module_dim_brieskorn_pham_closed_form(abc):
    a, b, c = abc
    assert omega_module_dim(brieskorn_pham(a, b, c)) == a * (b - 1) * (c - 1)


# (name, instance, d_max of the stabilization reference)
ISOLATED = (
    [(name, ci.instance(), 12) for name, ci in CORPUS.items()]
    + [("bp_%d_%d_%d" % abc, brieskorn_pham(*abc), 12) for abc in SURFACES]
    + [("bp_%d_%d_%d" % abc, brieskorn_pham(*abc), 14) for abc in SCALE_SURFACES]
    + [(name, inst, 12) for name, inst in ITEM1]
)


@pytest.mark.parametrize(
    "inst,d_max", [t[1:] for t in ISOLATED], ids=[t[0] for t in ISOLATED]
)
def test_omega_module_dim_matches_stabilization(inst, d_max):
    """The one rank at N equals the first repeated truncated dimension."""
    assert omega_module_dim(inst) == module_dim_by_stabilization(inst, d_max)


@pytest.mark.parametrize("inst", [t[1] for t in ISOLATED], ids=[t[0] for t in ISOLATED])
def test_minor_ideal_annihilates_the_module(inst):
    """I Omega lies in R + m^(N+1) Omega: adding g dx_S for every generator
    g of I and every subset S keeps the relations' rank at N + 1.  As m^N
    lies in I, m^N Omega then lies in R + m^(N+1) Omega, so in R by
    Nakayama, which is what makes one rank at N the module dimension."""
    subsets, relations = omega_module_generators(inst)
    D = algebra(inst).N + 1
    ideal_forms = [{S: g} for g in build_ideal(inst) for S in subsets]
    assert truncated_colength(relations, subsets, inst.n, D) == truncated_colength(
        relations + ideal_forms, subsets, inst.n, D
    )


def test_omega_module_dim_non_isolated_raises():
    bad = ProblemInstance(2, 1, [parse("x1^2", VS2)], [Poly.one(2), Poly.zero(2)])
    with pytest.raises(ValueError):
        omega_module_dim(bad)


@pytest.mark.parametrize(
    "inst",
    [ci.instance() for ci in CORPUS.values()]
    + [brieskorn_pham(*abc) for abc in SURFACES],
    ids=list(CORPUS) + ["bp_%d_%d_%d" % abc for abc in SURFACES],
)
def test_tau_prime_at_most_nu(inst):
    assert tau_prime(inst) <= algebra(inst).colength


def test_nu_invariant_under_equation_mixing():
    """Replacing f by M f for invertible constant M keeps the colength."""
    inst = ProblemInstance(
        3,
        2,
        [parse("x1^2+x2^2+x3^2", VS3), parse("x1*x2", VS3)],
        [Poly.zero(3), Poly.zero(3), Poly.one(3)],
    )
    base = algebra(inst).colength
    mixes = [
        ((Fraction(1), Fraction(2)), (Fraction(0), Fraction(1))),
        ((Fraction(2), Fraction(1)), (Fraction(1), Fraction(1))),
        ((Fraction(0), Fraction(1)), (Fraction(-1), Fraction(3))),
    ]
    for m in mixes:
        f_new = [
            m[0][0] * inst.f[0] + m[0][1] * inst.f[1],
            m[1][0] * inst.f[0] + m[1][1] * inst.f[1],
        ]
        mixed = ProblemInstance(3, 2, f_new, inst.A)
        assert algebra(mixed).colength == base


def test_tau_prime_ideal_against_oracle():
    """tau' of the cusp equals the independent truncated dimension."""
    c = cusp()
    gens = [c.f[0], c.f[0].diff(0), c.f[0].diff(1)]
    # ideal (f, 2x, -3y^2) has basis {1, y}
    assert tau_prime(c) == macaulay_quotient_dim(gens, 2, 4)


def _tau_prime_ideal(inst):
    return list(inst.f) + [
        block_minor(inst, K) for K in itertools.combinations(range(inst.n), inst.k)
    ]


_PREMISE = [(name, ci.instance()) for name, ci in CORPUS.items()] + [
    ("bp_%d_%d_%d" % abc, brieskorn_pham(*abc)) for abc in [(2, 3, 4), (3, 4, 5)]
]


@pytest.mark.parametrize(
    "gens,nvars",
    [(build_ideal(inst), inst.n) for _, inst in _PREMISE]
    + [(_tau_prime_ideal(inst), inst.n) for _, inst in _PREMISE if inst.k],
    ids=[name for name, _ in _PREMISE]
    + [f"{name}_tau" for name, inst in _PREMISE if inst.k],
)
def test_generators_alone_span_the_truncated_ideal(gens, nvars):
    """The normal-form rows come from the generators' monomial multiples
    only: the S-polynomials of every pair and a unit multiple of every
    generator, added in front of the reversed generators, change no row and
    no product."""
    q = QuotientAlgebra(gens, nvars)
    unit = Poly.one(nvars) + sum((Poly.variable(i, nvars) for i in range(nvars)), Poly.zero(nvars))
    nonzero = [g for g in gens if not g.is_zero()]
    extra = [localalg._spoly(a, b) for a, b in itertools.combinations(nonzero, 2)]
    extra = [p for p in extra if not p.is_zero()] + [unit * g for g in gens]
    ref = QuotientAlgebra(extra + list(reversed(gens)), nvars)
    assert (q.basis, q.N, q._rows) == (ref.basis, ref.N, ref._rows)
    assert q.products == ref.products


@pytest.mark.parametrize(
    "inst",
    [inst for _, inst in _PREMISE + ITEM1] + [ITEM1_ELKH],
    ids=[name for name, _ in _PREMISE + ITEM1] + ["item1_elkh"],
)
def test_certified_degree_is_the_smallest_truncation_degree(inst):
    """Mora's first certificate D is 1 + the largest degree of a basis
    monomial on these inputs; hard4 shows it can be larger."""
    alg = algebra(inst)
    assert alg.N == max(sum(m) for m in alg.basis) + 1


@pytest.mark.parametrize(
    "gens,nvars",
    [(build_ideal(inst), inst.n) for _, inst in _PREMISE],
    ids=[name for name, _ in _PREMISE],
)
def test_products_hold_each_pairs_normal_form(gens, nvars):
    """``index`` is symmetric, its rows are the distinct products in the
    order of their first pair a <= b, and each pair's row is the normal
    form of x^(alpha_a + alpha_b)."""
    q = QuotientAlgebra(gens, nvars)
    index, monomials, forms = q.products
    firsts = []
    for a, b in itertools.product(range(len(q.basis)), repeat=2):
        row = index[a][b]
        assert row == index[b][a]
        mono = tuple(x + y for x, y in zip(q.basis[a], q.basis[b]))
        assert monomials[row] == mono
        assert forms[row] == q.normal_form(Poly.monomial(mono))
        if a <= b and row == len(firsts):
            firsts.append(mono)
    assert firsts == monomials == list(dict.fromkeys(monomials))
    assert len(forms) == len(monomials)


def test_brieskorn_pham_345_pairs_share_175_products():
    """x^3 + y^4 + z^5: the 666 pairs a <= b of the 36 basis monomials have
    175 distinct products."""
    alg = algebra(brieskorn_pham(3, 4, 5))
    pairs = len(alg.basis) * (len(alg.basis) + 1) // 2
    index, monomials, forms = alg.products
    assert (pairs, len(monomials), len(forms)) == (666, 175, 175)


class _UnitSampler:
    """R = 1 on every basis monomial: enough for gram_qa to run its normal
    forms."""

    def basis_values(self, basis):
        return np.ones(len(basis), dtype=complex)

    def rational(self, value):
        return Fraction(1)


def test_normal_form_rows_are_built_once_on_first_use(monkeypatch):
    """tau' builds no algebra and the module dimension reads only its
    certified degree, so neither runs an rref; an algebra builds its basis
    and rows in one rref, on the first of gram_qa's normal forms."""
    calls = []
    rref = ratlinalg.rref
    monkeypatch.setattr(ratlinalg, "rref", lambda rows: calls.append(1) or rref(rows))
    insts = [cusp(), CORPUS["four_lines"].instance(), brieskorn_pham(3, 4, 5)]
    for inst in insts:
        tau_prime(inst)
        omega_module_dim(inst)
    assert calls == []
    for inst in insts:
        alg = algebra(inst)
        assert calls == []
        quadforms.gram_qa(inst, alg, _UnitSampler())
        assert len(calls) == 1
        calls.clear()
