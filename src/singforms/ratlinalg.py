"""Exact linear algebra over the rationals, plus small numeric helpers.

One sparse elimination, ``echelon``, runs on rows {column: value} over Q or
mod p: ``rref`` back-substitutes it for the quotient algebra's normal forms
and the image of Lambda, and the module-dimension rank eliminates thousands
of integer rows mod p.  The rank and signature of a symmetric matrix come
from diagonalizing it by congruence.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

# two fixed 31-bit primes for probabilistic integer rank computations
RANK_PRIMES = (2147483647, 2147483629)


def _subtract(row, f, pivot, p):
    """row -= f * pivot in place, modulo p unless p is None; zeros are dropped."""
    for c, v in pivot.items():
        nv = row.get(c, 0) - f * v
        if p:
            nv %= p
        if nv:
            row[c] = nv
        else:
            del row[c]


def echelon(rows, p=None):
    """Echelon form of sparse rows ({column: value}) modulo the prime p.

    Returns ``{leading column: row led by 1}``.  An incoming row is reduced by
    the pivot at its smallest column until it vanishes or takes a new pivot.
    ``p=None`` runs the loop over Fraction.
    """
    red = (lambda v: v % p) if p else Fraction
    pivots = {}
    for row in rows:
        row = {c: red(v) for c, v in row.items() if red(v)}
        while row:
            c = min(row)
            if c not in pivots:
                inv = pow(row[c], -1, p) if p else 1 / row[c]
                pivots[c] = {cc: red(v * inv) for cc, v in row.items()}
                break
            _subtract(row, row[c], pivots[c], p)
    return pivots


def rref(rows):
    """Reduced row echelon form of sparse rows ({column: value}) over Q.

    Returns ``{pivot column: row}``: each row leads with 1 at its pivot and is
    0 at every other pivot column.  Back-substitution runs from the last pivot
    to the first, so each row is cleared against rows already reduced.
    """
    pivots = echelon(rows)
    for c in sorted(pivots, reverse=True):
        row = pivots[c]
        for cc in [cc for cc in row if cc != c and cc in pivots]:
            _subtract(row, row[cc], pivots[cc], None)
    return pivots


def rank(rows) -> int:
    return len(echelon({c: v for c, v in enumerate(row) if v} for row in rows))


def rank_signature_exact(sym):
    """(rank, signature) of a symmetric rational matrix, exactly.

    The matrix is diagonalized by congruence, each operation applied to a
    row and to its column alike.  A zero pivot is swapped with a nonzero
    diagonal entry further down; when there is none, a nonzero off-diagonal
    entry m[r][c] is repaired by adding row and column c to r, which makes
    m[r][r] = 2 m[r][c] != 0 (valid away from characteristic 2).
    """
    n = len(sym)
    m = [list(row) for row in sym]
    if any(m[i][j] != m[j][i] for i in range(n) for j in range(n)):
        raise ValueError("matrix is not symmetric")

    def add(dst, src, f):
        for row in m:
            row[dst] += f * row[src]
        m[dst] = [a + f * b for a, b in zip(m[dst], m[src])]

    def swap(a, b):
        m[a], m[b] = m[b], m[a]
        for row in m:
            row[a], row[b] = row[b], row[a]

    for i in range(n):
        if m[i][i] == 0:
            j = next((j for j in range(i + 1, n) if m[j][j] != 0), None)
            if j is not None:
                swap(i, j)
            else:
                pairs = ((r, c) for r in range(i, n) for c in range(r + 1, n) if m[r][c] != 0)
                r, c = next(pairs, (None, None))
                if r is None:
                    break  # the remaining block is zero
                add(r, c, 1)
                if r != i:
                    swap(i, r)
        for j in range(i + 1, n):
            if m[i][j] != 0:
                add(j, i, -Fraction(m[i][j]) / m[i][i])
    diag = [m[i][i] for i in range(n)]
    return sum(d != 0 for d in diag), sum(d > 0 for d in diag) - sum(d < 0 for d in diag)


def numeric_rank_bounds(mat: np.ndarray, threshold: float = 1e-8):
    """(lo, hi) bounds on the rank from singular values.

    Values within a decade of ``threshold * smax`` are counted as uncertain,
    widening the interval instead of silently rounding.
    """
    if mat.size == 0:
        return 0, 0
    s = np.linalg.svd(np.asarray(mat, dtype=float), compute_uv=False)
    smax = s[0] if len(s) else 0.0
    if smax == 0.0:
        return 0, 0
    cut = threshold * smax
    sure = int(np.sum(s > 10 * cut))
    maybe = int(np.sum(s > cut / 10))
    return sure, maybe


def int_rank(rows) -> int:
    """Rank of sparse integer rows via two fixed primes; exact on mismatch."""
    r1 = len(echelon(rows, RANK_PRIMES[0]))
    r2 = len(echelon(rows, RANK_PRIMES[1]))
    if r1 == r2:
        return r1
    return len(echelon(rows))


def reconstruct_rational(x: float, max_denominator: int, tol: float, gap: float = 1e3):
    """Continued-fraction rational reconstruction of a real number.

    Accepts a convergent p/q only when |x - p/q| <= tol, q <= max_denominator,
    and the next convergent's denominator exceeds ``gap`` times q (guards
    against accidental small-denominator hits).  Returns None when no
    convergent qualifies.
    """
    if x != x or abs(x) == float("inf"):
        return None
    if abs(x) <= tol:
        return Fraction(0)
    # continued fraction expansion of x with convergent recurrence
    p_prev, q_prev = 0, 1
    p_cur, q_cur = 1, 0
    val = x
    for _ in range(64):
        a = int(val // 1)
        p_prev, p_cur = p_cur, a * p_cur + p_prev
        q_prev, q_cur = q_cur, a * q_cur + q_prev
        if q_cur > max_denominator:
            return None
        cand = Fraction(p_cur, q_cur)
        err = abs(x - p_cur / q_cur)
        if err <= tol:
            frac = val - a
            if frac == 0:
                return cand  # terminated: x is exactly p/q in float arithmetic
            # next partial quotient determines the next convergent's denominator
            a_next = int((1.0 / frac) // 1)
            q_next = a_next * q_cur + q_prev
            if q_next > gap * q_cur:
                return cand
        frac = val - a
        if frac == 0:
            return None
        val = 1.0 / frac
    return None
