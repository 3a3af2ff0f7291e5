from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from singforms import localalg
from singforms.localalg import (
    INFINITE,
    BudgetExceeded,
    QuotientAlgebra,
    certified_degree,
    ecart,
    leading_monomial,
    mora_normal_form,
    order_key,
)
from singforms.polyring import Poly, parse

from oracles import macaulay_quotient_dim

XY = ["x", "y"]


def P(s, vs=XY):
    return parse(s, vs)


def ex1_gens(n):
    vs = [f"x{i+1}" for i in range(n)]
    gens = [parse(" + ".join(f"x{i+1}^2" for i in range(n)), vs)]
    for i in range(n):
        for j in range(i + 1, n):
            gens.append(parse(f"x{i+1}*x{j+1}", vs))
    return gens


# ---- order and leading data -------------------------------------------------

def test_local_order_one_is_largest():
    assert order_key((0, 0)) > order_key((1, 0))
    assert order_key((1, 0)) > order_key((2, 0))
    assert order_key((1, 0)) > order_key((0, 1))  # degrevlex tie-break
    # multiplicative
    assert order_key((1, 1)) > order_key((2, 1))


def test_leading_monomial_and_ecart():
    p = P("x^2 - y^3")
    assert leading_monomial(p) == (2, 0)
    assert ecart(p) == 1
    assert leading_monomial(P("x + x^2")) == (1, 0)


# ---- the certified truncation degree -----------------------------------------

def test_std_basis_trivial():
    # the leads x and y are pure powers already: m lies in the ideal
    assert certified_degree([P("x"), P("y")], 2) == 1


def test_std_basis_cusp_leading_ideal():
    # x^2 is the local leading term of x^2 - y^3; with y^2 the generators'
    # leads are pure powers, so no pair is needed
    assert certified_degree([P("x^2 - y^3"), P("3*y^2")], 2, max_pairs=0) == 3
    q = QuotientAlgebra([P("x^2 - y^3"), P("3*y^2")], 2)
    assert set(q._rows) == {(2, 0), (0, 2)}  # the pivots below N
    assert q.colength == 4
    assert q.basis == [(0, 0), (1, 0), (0, 1), (1, 1)]
    assert q.N == 3


def test_std_basis_ex1_n2():
    # the leads x1^2 and x1*x2 miss a power of x2: the pair of the two
    # generators gives x2^3, the leading ideal's third generator
    with pytest.raises(BudgetExceeded):
        certified_degree(ex1_gens(2), 2, max_pairs=0)
    assert certified_degree(ex1_gens(2), 2, max_pairs=1) == 3
    q = QuotientAlgebra(ex1_gens(2), 2)
    assert set(q._rows) == {(2, 0), (1, 1)}
    assert q.colength == 4
    assert q.N == 3


@pytest.mark.parametrize("n", [2, 3, 4])
def test_ex1_colength_2n(n):
    q = QuotientAlgebra(ex1_gens(n), n)
    assert q.colength == 2 * n


def test_colength_infinite_detected():
    q = QuotientAlgebra([P("x")], 2)
    assert q.colength == INFINITE
    with pytest.raises(ValueError):
        q.normal_form(P("y"))


def test_zero_ideal_has_infinite_colength():
    assert certified_degree([Poly.zero(2), Poly.zero(2)], 2) is None
    assert certified_degree([], 2) is None
    assert QuotientAlgebra([Poly.zero(2)], 2).colength == INFINITE


def test_unit_ideal():
    q = QuotientAlgebra([P("1 + x")], 2)
    assert q.colength == 0
    assert q.basis == []
    assert q.N == 0
    for s in ("0", "1", "x", "3 - x*y^2 + y^5"):
        assert q.normal_form(P(s)) == []


def test_truncation_order_examples():
    assert QuotientAlgebra([P("x"), P("y")], 2).N == 1
    assert QuotientAlgebra(ex1_gens(2), 2).N == 3


# ---- normal forms -----------------------------------------------------------

def test_normal_form_kills_generators():
    q = QuotientAlgebra(ex1_gens(3), 3)
    for g in q.generators:
        assert all(c == 0 for c in q.normal_form(g))


def test_normal_form_ex1_relation():
    q = QuotientAlgebra(ex1_gens(2), 2)
    # x1^2 = -x2^2 modulo the ideal (x2^2 is the standard monomial here)
    nf = q.normal_form(P("x1^2", ["x1", "x2"]))
    expect = [Fraction(0)] * 4
    expect[q.basis.index((0, 2))] = Fraction(-1)
    assert nf == expect
    # any degree-4 monomial lies in m^N, hence in the ideal
    assert all(c == 0 for c in q.normal_form(P("x1^4", ["x1", "x2"])))
    assert all(c == 0 for c in q.normal_form(P("x2^4", ["x1", "x2"])))


def test_normal_form_is_linear():
    q = QuotientAlgebra(ex1_gens(2), 2)
    p1, p2 = P("x1^2 + 3*x2", ["x1", "x2"]), P("x1*x2 - x1", ["x1", "x2"])
    lhs = q.normal_form(p1 + p2)
    rhs = [a + b for a, b in zip(q.normal_form(p1), q.normal_form(p2))]
    assert lhs == rhs


@given(st.integers(0, 3), st.integers(0, 3), st.data())
@settings(max_examples=25, deadline=None)
def test_product_depends_only_on_classes(i, j, data):
    """normal_form(p q) is determined by (normal_form(p), normal_form(q))."""
    q = QuotientAlgebra(ex1_gens(2), 2)
    b1 = Poly.monomial(q.basis[i])
    b2 = Poly.monomial(q.basis[j])
    # perturb both factors by ideal elements
    g1 = q.generators[data.draw(st.integers(0, 1))]
    g2 = q.generators[data.draw(st.integers(0, 1))]
    m1 = Poly.monomial((data.draw(st.integers(0, 1)), data.draw(st.integers(0, 1))))
    p1 = b1 + m1 * g1
    p2 = b2 + g2
    assert q.normal_form(p1 * p2) == q.normal_form(b1 * b2)


# ---- independent truncated-Macaulay oracle ----------------------------------

@pytest.mark.parametrize(
    "gens_builder,nvars",
    [
        (lambda: ex1_gens(2), 2),
        (lambda: ex1_gens(3), 3),
        (lambda: [P("x^2 - y^3"), P("3*y^2")], 2),
        (
            lambda: [
                parse("x^3 - 3*x*y^2", XY),
                parse("3*x^2*y - y^3", XY),
            ],
            2,
        ),
    ],
)
def test_colength_matches_macaulay_oracle(gens_builder, nvars):
    gens = gens_builder()
    q = QuotientAlgebra(gens, nvars)
    assert q.colength == macaulay_quotient_dim(gens, nvars, q.N)
    assert q.colength == macaulay_quotient_dim(gens, nvars, q.N + 1)


def test_algebra_accessors():
    q = QuotientAlgebra(ex1_gens(2), 2)
    assert q.colength == 4
    assert q.N == 3
    vs = ["x1", "x2"]
    nf = q.normal_form(P("x1^2", vs))
    assert Poly({m: c for m, c in zip(q.basis, nf) if c}, 2) == P("-x2^2", vs)


def test_mora_normal_form_membership():
    # a standard basis: the S-polynomial of its two elements is -y^5, which
    # y^2 reduces to 0
    G = [P("x^2 - y^3"), P("y^2")]
    # y^3 = y * y^2 lies in the ideal; weak normal form must vanish
    assert mora_normal_form(P("y^3"), G).is_zero()
    assert mora_normal_form(P("x^2"), G).is_zero()
    assert not mora_normal_form(P("x*y"), G).is_zero()


def test_mora_normal_form_coefficient_budget(monkeypatch):
    """Reducing x^2 by x^2 - 5/3 y^3 leaves 5/3 y^3, a 3-bit coefficient:
    a 2-bit budget trips at that step, the default lets it through."""
    G = [P("x^2 - 5/3*y^3")]
    assert mora_normal_form(P("x^2"), G) == P("5/3*y^3")
    monkeypatch.setattr(localalg, "COEFF_BITS", 2)
    with pytest.raises(BudgetExceeded) as exc:
        mora_normal_form(P("x^2"), G)
    assert exc.value.diag == "standard_basis: coefficient budget of 2 bits exceeded"
