from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from singforms import ratlinalg

import oracles


frac = st.fractions(min_value=Fraction(-4), max_value=Fraction(4), max_denominator=4)


@st.composite
def sym_matrices(draw, nmax=5):
    n = draw(st.integers(1, nmax))
    m = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            v = draw(frac)
            m[i][j] = m[j][i] = v
    return m


@st.composite
def invertible(draw, n):
    # unit-triangular times permutation is always invertible
    m = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            m[i][j] = draw(frac)
    perm = draw(st.permutations(range(n)))
    return [[m[i][perm[j]] for j in range(n)] for i in range(n)]


def _congruence(a, p):
    n = len(a)
    return [
        [
            sum(p[r][i] * a[r][s] * p[s][j] for r in range(n) for s in range(n))
            for j in range(n)
        ]
        for i in range(n)
    ]


@pytest.mark.parametrize(
    "m,want",
    [
        ([[0, 1], [1, 0]], (2, 0)),
        ([[0, 0, 1], [0, 1, 0], [1, 0, 0]], (3, 1)),
        ([[0, 0, 0], [0, 0, 0], [0, 0, 0]], (0, 0)),
        ([[0, 0, 0], [0, 0, 2], [0, 2, 0]], (2, 0)),
    ],
    ids=["hyperbolic_plane", "antidiagonal_3", "zero", "zero_row_then_pair"],
)
def test_rank_signature_zero_diagonal(m, want):
    """A zero diagonal with nonzero off-diagonal entries goes through the
    repair step (add row and column c to r); a zero block stops early."""
    m = [[Fraction(v) for v in row] for row in m]
    assert ratlinalg.rank_signature_exact(m) == want


@given(sym_matrices())
@settings(max_examples=40, deadline=None)
def test_rank_signature_congruence_invariant(m):
    n = len(m)
    rk, sig = ratlinalg.rank_signature_exact(m)
    assert rk == ratlinalg.rank(m)
    assert abs(sig) <= rk <= n
    # eigenvalue sign count agrees
    ev = np.linalg.eigvalsh(np.array(m, dtype=float))
    scale = max(1.0, float(np.max(np.abs(ev))))
    assert sum(1 for v in ev if v > 1e-9 * scale) - sum(
        1 for v in ev if v < -1e-9 * scale
    ) == sig


@given(st.data())
@settings(max_examples=25, deadline=None)
def test_rank_signature_basis_change(data):
    m = data.draw(sym_matrices(nmax=4))
    p = data.draw(invertible(len(m)))
    rk1, sig1 = ratlinalg.rank_signature_exact(m)
    rk2, sig2 = ratlinalg.rank_signature_exact(_congruence(m, p))
    assert (rk1, sig1) == (rk2, sig2)


def test_rref_and_rank():
    rows = [
        {0: Fraction(1), 1: Fraction(2), 2: Fraction(3)},
        {0: Fraction(2), 1: Fraction(4), 2: Fraction(6)},
        {1: Fraction(1), 2: Fraction(1)},
    ]
    # keys are the pivots, values the reduced rows
    assert ratlinalg.rref(rows) == {0: {0: 1, 2: 1}, 1: {1: 1, 2: 1}}
    assert ratlinalg.rank([[1, 2, 3], [2, 4, 6], [0, 1, 1]]) == 2


def test_int_rank_matches_exact():
    rows = [{0: 2, 1: 4, 2: 6}, {0: 1, 1: 2, 2: 3}, {1: 5, 2: 1}]
    assert ratlinalg.int_rank(rows) == 2
    assert len(ratlinalg.echelon(rows, ratlinalg.RANK_PRIMES[0])) == 2


@st.composite
def sparse_int_rows(draw):
    """Sparse integer rows, some of them integer combinations of others."""
    ncols = draw(st.integers(1, 12))
    entry = st.dictionaries(
        st.integers(0, ncols - 1), st.integers(-9, 9), max_size=4
    )
    rows = draw(st.lists(entry, max_size=8))
    for _ in range(draw(st.integers(0, 4)) if rows else 0):
        combo = {}
        for row in draw(st.lists(st.sampled_from(rows), min_size=1, max_size=3)):
            k = draw(st.integers(-3, 3))
            for c, v in row.items():
                combo[c] = combo.get(c, 0) + k * v
        rows.insert(draw(st.integers(0, len(rows))), combo)
    return ncols, rows


def _dense(ncols, rows):
    return [[Fraction(row.get(c, 0)) for c in range(ncols)] for row in rows]


@given(sparse_int_rows())
@settings(max_examples=80, deadline=None)
def test_int_rank_sparse_matches_dense_fraction_rank(data):
    ncols, rows = data
    _, pivots = oracles._gauss_rank(_dense(ncols, rows))
    assert ratlinalg.int_rank(rows) == len(pivots)
    assert len(ratlinalg.echelon(rows)) == len(pivots)


@given(sparse_int_rows())
@settings(max_examples=80, deadline=None)
def test_rref_matches_gauss_jordan(data):
    ncols, rows = data
    ech = ratlinalg.rref(rows)
    expect, pivots = oracles._gauss_rank(_dense(ncols, rows))
    assert sorted(ech) == pivots
    assert _dense(ncols, [ech[c] for c in pivots]) == expect


def test_int_rank_exact_fallback():
    p, q = ratlinalg.RANK_PRIMES
    rows = [{0: p}]  # vanishes mod the first prime only
    assert len(ratlinalg.echelon(rows, p)) == 0
    assert len(ratlinalg.echelon(rows, q)) == 1
    assert ratlinalg.int_rank(rows) == 1


def test_numeric_rank_bounds():
    a = np.diag([1.0, 1e-3, 1e-12])
    lo, hi = ratlinalg.numeric_rank_bounds(a)
    assert lo == 2 and hi == 2
    b = np.diag([1.0, 1e-8])  # straddles the threshold: interval widens
    lo, hi = ratlinalg.numeric_rank_bounds(b)
    assert lo <= 1 <= hi and lo != hi


@given(
    st.fractions(
        min_value=Fraction(-50), max_value=Fraction(50), max_denominator=900
    )
)
@settings(max_examples=80, deadline=None)
def test_reconstruct_round_trip(q):
    got = ratlinalg.reconstruct_rational(float(q), 10**6, 1e-9)
    assert got == q


def test_reconstruct_rejects_junk():
    assert ratlinalg.reconstruct_rational(0.12345678912345, 10**6, 1e-12) is None
    assert ratlinalg.reconstruct_rational(float("nan"), 10**6, 1e-9) is None
    assert ratlinalg.reconstruct_rational(3e-10, 10**6, 1e-9) == 0
