import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from singforms.polyring import (
    Poly,
    PolyParseError,
    det,
    parse,
    to_string,
)

from oracles import eval_at

XY = ["x", "y"]


def P(s, vs=XY):
    return parse(s, vs)


# ---- strategies -----------------------------------------------------------

coeffs = st.fractions(
    min_value=Fraction(-5), max_value=Fraction(5), max_denominator=3
)


@st.composite
def polys(draw, nvars=2, max_deg=3, max_terms=4):
    terms = {}
    for _ in range(draw(st.integers(0, max_terms))):
        mono = tuple(
            draw(st.integers(0, max_deg)) for _ in range(nvars)
        )
        c = draw(coeffs)
        if c:
            terms[mono] = c
    return Poly(terms, nvars)


# ---- parsing --------------------------------------------------------------

def test_parse_examples():
    p = P("x^2 + y^2")
    assert p.terms == {(2, 0): 1, (0, 2): 1}
    q = P("3/2*x*y - y")
    assert q.terms == {(1, 1): Fraction(3, 2), (0, 1): -1}
    f = parse("x1^2+x2^2+x3^2", ["x1", "x2", "x3"])
    assert f.degree() == 2 and len(f.terms) == 3


def test_parse_errors_carry_position():
    with pytest.raises(PolyParseError) as exc:
        P("x + ")
    assert exc.value.pos == 4
    with pytest.raises(PolyParseError, match="unknown variable"):
        P("x + z")
    with pytest.raises(PolyParseError, match="implicit multiplication"):
        P("2x")
    with pytest.raises(PolyParseError):
        P("x ^ y")


def test_parse_parentheses_and_rationals():
    assert P("(x + y)^2") == P("x^2 + 2*x*y + y^2")
    assert P("1/2") == Poly.const(Fraction(1, 2), 2)
    assert P("-x") == -Poly.variable(0, 2)


@given(polys())
@settings(max_examples=60, deadline=None)
def test_print_parse_round_trip(p):
    assert parse(to_string(p, XY), XY) == p


# ---- ring axioms ----------------------------------------------------------

@given(polys(), polys(), polys())
@settings(max_examples=40, deadline=None)
def test_distributive(p, q, r):
    assert (p + q) * r == p * r + q * r


@given(polys(), polys())
@settings(max_examples=40, deadline=None)
def test_commutative(p, q):
    assert p * q == q * p
    assert p + q == q + p


# ---- calculus -------------------------------------------------------------

def test_diff_examples():
    assert P("x^2 + y^2").diff(0) == P("2*x")
    assert P("x^2 - y^3").diff(1) == P("-3*y^2")
    assert Poly.const(5, 2).diff(1).is_zero()
    with pytest.raises(IndexError):
        P("x").diff(2)


@given(polys(), polys())
@settings(max_examples=40, deadline=None)
def test_leibniz(p, q):
    for i in range(2):
        assert (p * q).diff(i) == p.diff(i) * q + p * q.diff(i)


def test_coefficients_are_exact_only():
    """Float, complex and bool coefficients are a TypeError, in the
    constructor and as scalars; int ones become Fractions."""
    for c in (0.5, 0.5 + 1j, True):
        with pytest.raises(TypeError):
            Poly({(1,): c}, 1)
        with pytest.raises(TypeError):
            Poly.one(1) * c
        with pytest.raises(TypeError):
            Poly.one(1) + c
    assert Poly({(1,): 2}, 1).terms == {(1,): Fraction(2)}
    assert (Poly.one(1) * Fraction(1, 2)).terms == {(0,): Fraction(1, 2)}


# ---- evaluation -----------------------------------------------------------

def test_eval_examples():
    assert eval_at(P("x^2 + y^2"), [1, 2]) == 5
    assert eval_at(P("x"), [0.3 + 0.4j, 0.0]) == 0.3 + 0.4j
    a1, a2 = 1, 2
    p = 2 * (a2 - a1) * P("x*y")
    assert eval_at(p, [1e-3, 0.0]) == 0


@given(polys(), polys())
@settings(max_examples=30, deadline=None)
def test_eval_is_ring_homomorphism(p, q):
    pt = [0.37 - 0.21j, -0.55 + 0.13j]
    lhs = eval_at(p * q, pt)
    rhs = eval_at(p, pt) * eval_at(q, pt)
    assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs), abs(rhs))
    lhs2 = eval_at(p + q, pt)
    rhs2 = eval_at(p, pt) + eval_at(q, pt)
    assert abs(lhs2 - rhs2) <= 1e-12 * max(1.0, abs(lhs2), abs(rhs2))


# ---- determinants ---------------------------------------------------------

def test_det_examples():
    x, y = Poly.variable(0, 2), Poly.variable(1, 2)
    one, zero = Poly.one(2), Poly.zero(2)
    assert det([[2 * x, 2 * y], [x, 2 * y]]) == 2 * x * y
    # bottom-right block of the extended matrix for the quadric, n=2
    a1, a2 = 1, 2
    m = det([[2 * x, 2 * y], [a1 * x, a2 * y]])
    assert m == 2 * (a2 - a1) * x * y
    assert det([[2 * x, -3 * y * y], [one, zero]]) == 3 * y * y


def test_det_alternating_and_multilinear():
    x, y = Poly.variable(0, 2), Poly.variable(1, 2)
    rows = [[x, y], [y * y, x + y]]
    assert det(rows) == -det([rows[1], rows[0]])
    assert det([rows[0], rows[0]]).is_zero()


def leibniz(mat):
    """Exact determinant as the signed sum over all permutations."""
    acc = Poly.zero(mat[0][0].nvars)
    for perm in itertools.permutations(range(len(mat))):
        inversions = sum(a > b for a, b in itertools.combinations(perm, 2))
        term = Poly.one(acc.nvars)
        for i, j in enumerate(perm):
            term = term * mat[i][j]
        acc = acc - term if inversions % 2 else acc + term
    return acc


def test_det_bareiss_matches_cofactor():
    """det of a seeded 5x5 exact matrix equals the Leibniz sum."""
    import random

    rnd = random.Random(5)
    nv = 2

    def rpoly():
        terms = {}
        for _ in range(2):
            terms[(rnd.randint(0, 1), rnd.randint(0, 1))] = Fraction(
                rnd.randint(-3, 3)
            )
        return Poly(terms, nv)

    mat = [[rpoly() for _ in range(5)] for _ in range(5)]
    assert det(mat) == leibniz(mat)


def test_det_requires_square():
    x = Poly.variable(0, 1)
    with pytest.raises(ValueError):
        det([[x, x]])
