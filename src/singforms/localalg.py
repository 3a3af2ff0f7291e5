"""The local monomial order, Mora standard bases, and finite quotient algebras.

The order is anti-graded degree reverse lexicographic (smaller total degree
is larger; ties broken by degrevlex), so 1 is the largest monomial and degree
truncation is compatible with leading ideals.  Standard bases come from Buchberger completion driven by Mora's weak
normal form with ecart-based reducer selection, which terminates for local
orders.

Canonical normal forms do not come from Mora division (that only yields weak
normal forms up to a unit).  Instead, once the truncation degree N with
m^N contained in the ideal is known, the quotient is modelled exactly as
Q[x]/(I + m^N), and classes are reduced by the ``ratlinalg.rref`` rows of
the truncated monomial multiples of the generators (``truncated_multiples``,
which also builds the module-dimension rows of ``icis``).  Many pairs of basis
monomials share their product, so ``QuotientAlgebra.products`` keeps one
normal form per distinct product.
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


def standard_basis(gens, max_pairs: int = 20000):
    """Standard basis of the ideal generated by ``gens`` in the local ring;
    empty for the zero ideal, whose colength is infinite."""
    G = []
    for g in gens:
        if g.is_zero():
            continue
        G.append(_monic(g))
    pairs = [(i, j) for i in range(len(G)) for j in range(i + 1, len(G))]
    processed = 0
    while pairs:
        # deterministic selection: smallest lcm degree first
        def lcm_deg(pr):
            a = leading_monomial(G[pr[0]])
            b = leading_monomial(G[pr[1]])
            return sum(max(x, y) for x, y in zip(a, b))

        pairs.sort(key=lambda pr: (lcm_deg(pr), pr))
        i, j = pairs.pop(0)
        processed += 1
        if processed > max_pairs:
            raise BudgetExceeded(
                f"standard basis exceeded {max_pairs} pairs", "standard_basis: pair budget exceeded"
            )
        h = mora_normal_form(_spoly(G[i], G[j]), G)
        if not h.is_zero():
            G.append(_monic(h))
            new = len(G) - 1
            pairs.extend((k, new) for k in range(new))
    return G


def minimal_lead_gens(std):
    """Minimal monomial generators of the leading ideal of a standard basis."""
    lms = sorted({leading_monomial(g) for g in std}, key=lambda m: sum(m))
    mins = []
    for m in lms:
        if not any(_divides(g, m) for g in mins):
            mins.append(m)
    return mins


def _pure_power_bounds(lead_mins, nvars):
    """Per-variable degree d_i with x_i^{d_i} in the leading ideal, or None."""
    bounds = []
    for i in range(nvars):
        best = None
        for m in lead_mins:
            if all(e == 0 for j, e in enumerate(m) if j != i):
                best = m[i] if best is None else min(best, m[i])
        if best is None:
            return None
        bounds.append(best)
    return bounds


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

    ``basis`` is the ordered list of standard monomials (order-descending, so
    1 comes first); ``N`` is the truncation degree with m^N contained in I.
    ``normal_form`` returns canonical coordinates over ``basis``.
    """

    def __init__(self, generators, nvars: int):
        self.generators = list(generators)
        self.nvars = nvars
        self.std_basis = standard_basis(self.generators)
        self.leading_ideal = minimal_lead_gens(self.std_basis)
        bounds = _pure_power_bounds(self.leading_ideal, nvars)
        self.finite = bounds is not None
        if not self.finite:
            self.basis = None
            self.N = None
            self._index = None
            return
        std = [
            m
            for m in itertools.product(*[range(b) for b in bounds])
            if not any(_divides(g, m) for g in self.leading_ideal)
        ]
        self.basis = sorted(std, key=order_key, reverse=True)
        self.N = (max(sum(m) for m in self.basis) + 1) if self.basis else 0
        self._index = {m: i for i, m in enumerate(self.basis)}

    def _truncate(self, p: Poly):
        return {m: c for m, c in p.terms.items() if sum(m) < self.N}

    @functools.cached_property
    def _rows(self):
        """Reduced echelon rows of the ideal image inside Q[x]/m^N, built on
        the first normal form.

        Columns follow the local order, so each row's pivot is its leading
        monomial, the pivots are the non-standard monomials of degree < N,
        and each row maps its pivot to a tail on standard monomials only.
        """
        monos = sorted(monomials_below(self.nvars, self.N), key=order_key, reverse=True)
        col = {(0, m): i for i, m in enumerate(monos)}
        gens = [{0: g} for g in self.generators]
        pivots = ratlinalg.rref(truncated_multiples(gens, self.nvars, self.N, col))
        rows = {
            monos[c]: {monos[cc]: v for cc, v in row.items() if cc != c}
            for c, row in pivots.items()
        }
        if set(rows) != {m for m in monos if m not in self._index}:
            raise AssertionError(
                "truncated ideal pivots disagree with the leading ideal"
            )
        return rows

    # -- public API -------------------------------------------------------

    @property
    def colength(self):
        return len(self.basis) if self.finite else INFINITE

    def normal_form(self, p: Poly):
        """Exact coordinates of the class of p over ``basis``."""
        if not self.finite:
            raise ValueError("normal form needs finite colength")
        out = [Fraction(0)] * len(self.basis)
        for m, c in self._truncate(p).items():
            if m in self._index:
                out[self._index[m]] += c
            else:
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
        cols = []
        for m in self.basis:
            cols.append(self.normal_form(p * Poly.monomial(m)))
        # transpose into row-major matrix
        n = len(self.basis)
        return [[cols[j][i] for j in range(n)] for i in range(n)]
