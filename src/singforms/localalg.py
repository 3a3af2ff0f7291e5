"""The local monomial order, Mora's truncation degree, and finite quotient
algebras.

The order is anti-graded degree reverse lexicographic (smaller total degree
is larger; ties broken by degrevlex), so 1 is the largest monomial and degree
truncation is compatible with leading ideals.  Mora's algorithm (Buchberger
completion driven by Mora's weak normal form with ecart-based reducer
selection, which terminates for local orders) runs only until it certifies a
truncation degree N with m^N contained in the ideal (``certified_degree``).

Canonical normal forms do not come from Mora division (that only yields weak
normal forms up to a unit).  Instead the quotient is modelled exactly as
Q[x]/(I + m^N): one ``ratlinalg.rref`` of the truncated monomial multiples of
the generators (``truncated_multiples``, which also builds the truncated
ranks of ``icis``) gives the basis (its non-pivot columns) and the rows that
reduce every other monomial.  Many pairs of basis monomials share their
product, so ``QuotientAlgebra.products`` keeps one normal form per distinct
product.
"""

from __future__ import annotations

import functools
import itertools
import math
from fractions import Fraction

from . import ratlinalg
from .polyring import Poly

INFINITE = float("inf")
# bits a leading coefficient's numerator or denominator may reach in a normal
# form; the corpus and the Brieskorn-Pham surfaces stay under 8 bits, and a
# normal form whose coefficients run away passes 4,000 within 270 steps
COEFF_BITS = 256


def order_key(mono):
    """Sort key of the local order: a larger key is a larger monomial."""
    return (-sum(mono), tuple(-e for e in reversed(mono)))


def leading_monomial(p: Poly):
    if p.is_zero():
        raise ValueError("zero polynomial has no leading monomial")
    return max(p.terms, key=order_key)


def leading_term(p: Poly):
    m = leading_monomial(p)
    return m, p.terms[m]


def ecart(p: Poly) -> int:
    """deg(p) - deg(LM(p)); the tail overshoot driving Mora's reduction."""
    m = leading_monomial(p)
    return p.degree() - sum(m)


def _divides(a, b) -> bool:
    return all(x <= y for x, y in zip(a, b))


def _mono_sub(a, b):
    return tuple(x - y for x, y in zip(a, b))


def _mono_mul_poly(mono, coeff, p: Poly) -> Poly:
    return Poly(
        {tuple(a + b for a, b in zip(mono, m)): coeff * c for m, c in p.terms.items()},
        p.nvars,
    )


def mora_normal_form(p: Poly, basis) -> Poly:
    """Mora weak normal form of p against ``basis``.

    The result h satisfies u*p = sum a_i g_i + h for a unit u of the local
    ring; h is zero iff p lies in the ideal (for a standard basis).  Reducers
    are chosen with minimal ecart, ties broken by order-smallest leading term,
    then by age; intermediate results with larger ecart join the reducer pool,
    which is Mora's termination device.  A leading coefficient whose
    numerator or denominator passes ``COEFF_BITS`` bits raises
    BudgetExceeded: past it, each reduction step costs more than the last.
    """
    reducers = [(leading_monomial(g), g) for g in basis if not g.is_zero()]
    h = p
    while not h.is_zero():
        lm_h, lc_h = leading_term(h)
        if max(abs(lc_h.numerator), lc_h.denominator).bit_length() > COEFF_BITS:
            raise BudgetExceeded(
                f"a normal form exceeded {COEFF_BITS}-bit coefficients",
                f"standard_basis: coefficient budget of {COEFF_BITS} bits exceeded",
            )
        cands = [
            (i, lm_g, g) for i, (lm_g, g) in enumerate(reducers) if _divides(lm_g, lm_h)
        ]
        if not cands:
            return h
        i, lm_g, g = min(
            cands, key=lambda t: (ecart(t[2]), order_key(t[1]), t[0])
        )
        if ecart(g) > ecart(h):
            reducers.append((lm_h, h))
        lc_g = g.terms[lm_g]
        h = h - _mono_mul_poly(_mono_sub(lm_h, lm_g), lc_h / lc_g, g)
    return h


def _spoly(f: Poly, g: Poly) -> Poly:
    lm_f, lc_f = leading_term(f)
    lm_g, lc_g = leading_term(g)
    lcm = tuple(max(a, b) for a, b in zip(lm_f, lm_g))
    return _mono_mul_poly(_mono_sub(lcm, lm_f), Fraction(1) / lc_f, f) - _mono_mul_poly(
        _mono_sub(lcm, lm_g), Fraction(1) / lc_g, g
    )


def _monic(p: Poly) -> Poly:
    _, lc = leading_term(p)
    return p * (Fraction(1) / lc)


class BudgetExceeded(RuntimeError):
    """A standard basis went past its pair budget or a normal form past its
    coefficient budget; ``diag`` names the budget."""

    def __init__(self, message, diag):
        super().__init__(message)
        self.diag = diag


def certified_degree(gens, nvars: int, max_pairs: int = 20000):
    """Truncation degree D with m^D inside the ideal of ``gens`` in the local
    ring, or None when the colength is infinite.

    Mora's completion stops at its first certificate: a pure power of every
    variable among its leading monomials.  D is 1 + the largest degree of a
    monomial none of them divides, so each monomial of degree D leads a
    multiple of an element whose other terms lie in m^D, below it in the
    order, or in m^(D+1): m^D lies in I + m^(D+1), hence in I (Nakayama).
    When the pairs run out first, the elements are a standard basis and the
    colength is infinite.
    """
    G = [_monic(g) for g in gens if not g.is_zero()]
    leads = [leading_monomial(g) for g in G]
    # deterministic selection: smallest lcm degree first, then by index
    pairs = [(_lcm_degree(leads[i], leads[j]), i, j) for j in range(len(G)) for i in range(j)]
    processed = 0
    while (D := _degree_bound(leads, nvars)) is None and pairs:
        pairs.sort()
        _, i, j = pairs.pop(0)
        processed += 1
        if processed > max_pairs:
            raise BudgetExceeded(
                f"standard basis exceeded {max_pairs} pairs", "standard_basis: pair budget exceeded"
            )
        h = mora_normal_form(_spoly(G[i], G[j]), G)
        if not h.is_zero():
            G.append(_monic(h))
            leads.append(leading_monomial(h))
            pairs += [(_lcm_degree(leads[k], leads[-1]), k, len(G) - 1) for k in range(len(G) - 1)]
    return D


def _lcm_degree(a, b) -> int:
    return sum(map(max, a, b))


def _degree_bound(leads, nvars: int):
    """1 + the largest degree of a monomial no lead divides; None while some
    variable has no pure power among the leads."""
    powers = [min((m[i] for m in leads if sum(m) == m[i]), default=None) for i in range(nvars)]
    if None in powers:
        return None
    box = itertools.product(*map(range, powers))
    return max((sum(b) + 1 for b in box if not any(_divides(m, b) for m in leads)), default=0)


def monomials_below(nvars: int, degree: int):
    """All exponent tuples of total degree < degree."""
    out = []
    for d in range(degree):
        for c in itertools.combinations_with_replacement(range(nvars), d):
            m = [0] * nvars
            for i in c:
                m[i] += 1
            out.append(tuple(m))
    return out


def truncated_multiples(gens, nvars: int, D: int, column):
    """Sparse integer rows {column: int} spanning the image of the module
    generated by ``gens`` inside (Q[x]/m^D)^components.

    Each generator is a map {component: Poly}, scaled once to integer
    coefficients; its rows are its shifts by the monomials x^beta, truncated
    below degree D, with ``column[(component, monomial)]`` the column of a
    term.  Shifts whose every term reaches degree D are skipped.
    """
    for gen in gens:
        terms = [(s, m, c) for s, p in gen.items() for m, c in p.terms.items()]
        if not terms:
            continue
        scale = math.lcm(*(c.denominator for *_, c in terms))
        terms = [(s, m, sum(m), int(c * scale)) for s, m, c in terms]
        for beta in monomials_below(nvars, D - min(t[2] for t in terms)):
            shift = sum(beta)
            yield {
                column[s, tuple(map(sum, zip(beta, m)))]: c
                for s, m, d, c in terms
                if shift + d < D
            }


class QuotientAlgebra:
    """Exact finite-dimensional model of a local quotient algebra O/I.

    ``N`` is the certified truncation degree with m^N contained in I (None
    for infinite colength), so O/I is Q[x]/(I + m^N).  ``basis`` is the
    ordered list of standard monomials (order-descending, so 1 comes first);
    ``normal_form`` returns canonical coordinates over ``basis``.
    """

    def __init__(self, generators, nvars: int):
        self.generators = list(generators)
        self.nvars = nvars
        self.N = certified_degree(self.generators, nvars)

    @functools.cached_property
    def _rows(self):
        """Reduced echelon rows of the ideal image inside Q[x]/m^N, built on
        first use.

        Columns follow the local order, so each row's pivot is its leading
        monomial, the pivots are the non-standard monomials of degree < N,
        and each row maps its pivot to a tail on standard monomials only.
        """
        monos = sorted(monomials_below(self.nvars, self.N), key=order_key, reverse=True)
        col = {(0, m): i for i, m in enumerate(monos)}
        gens = [{0: g} for g in self.generators]
        pivots = ratlinalg.rref(truncated_multiples(gens, self.nvars, self.N, col))
        return {
            monos[c]: {monos[cc]: v for cc, v in row.items() if cc != c}
            for c, row in pivots.items()
        }

    @functools.cached_property
    def basis(self):
        """The monomials of degree < N that lead no row; None for infinite
        colength."""
        if self.N is None:
            return None
        monos = monomials_below(self.nvars, self.N)
        return sorted((m for m in monos if m not in self._rows), key=order_key, reverse=True)

    @functools.cached_property
    def _index(self):
        return {m: i for i, m in enumerate(self.basis)}

    # -- public API -------------------------------------------------------

    @property
    def colength(self):
        return INFINITE if self.N is None else len(self.basis)

    def normal_form(self, p: Poly):
        """Exact coordinates of the class of p over ``basis``."""
        if self.N is None:
            raise ValueError("normal form needs finite colength")
        out = [Fraction(0)] * len(self.basis)
        for m, c in p.terms.items():
            if m in self._index:
                out[self._index[m]] += c
            elif sum(m) < self.N:  # a pivot; m^N lies in the ideal
                for m2, c2 in self._rows[m].items():
                    out[self._index[m2]] -= c * c2
        return out

    @functools.cached_property
    def products(self):
        """(index, monomials, forms): one normal form per distinct product of
        two basis monomials, ``index[a][b] = index[b][a]`` the row of the
        product of basis[a] and basis[b]; rows follow each product's first
        pair a <= b in ``itertools.combinations_with_replacement`` order."""
        rows, index = {}, [[0] * len(self.basis) for _ in self.basis]
        for a, b in itertools.combinations_with_replacement(range(len(self.basis)), 2):
            mono = tuple(x + y for x, y in zip(self.basis[a], self.basis[b]))
            index[a][b] = index[b][a] = rows.setdefault(mono, len(rows))
        return index, list(rows), [self.normal_form(Poly.monomial(m)) for m in rows]

    def multiplication_matrix(self, p: Poly):
        """Matrix of multiplication by p on the quotient, columns over basis."""
        cols = [self.normal_form(p * Poly.monomial(m)) for m in self.basis]
        return [list(row) for row in zip(*cols)]
