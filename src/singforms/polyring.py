"""Exact sparse multivariate polynomial arithmetic.

A monomial is a plain tuple of non-negative integer exponents, one entry per
ambient variable.  Coefficients are exact ``fractions.Fraction`` values;
int coefficients are converted, and float, complex and bool ones are a
TypeError.  Floats only appear when the numeric layer evaluates a ``Poly``
table (``critpts.StackedPolys``).

Values are immutable after construction and safe to share across threads.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

Monomial = tuple  # exponent vector, one non-negative int per variable


def _norm_coeff(c):
    if isinstance(c, bool):
        raise TypeError("bool is not a polynomial coefficient")
    if isinstance(c, int):
        return Fraction(c)
    if isinstance(c, Fraction):
        return c
    raise TypeError(f"unsupported coefficient type {type(c).__name__}")


class Poly:
    """Sparse polynomial, stored as {monomial tuple: nonzero coefficient}.

    Do not mutate ``terms`` after construction; every operation returns a new
    polynomial.
    """

    __slots__ = ("terms", "nvars")

    def __init__(self, terms: dict, nvars: int):
        if nvars < 0:
            raise ValueError("nvars must be non-negative")
        clean = {}
        for mono, c in terms.items():
            mono = tuple(mono)
            if len(mono) != nvars:
                raise ValueError(f"monomial {mono} has wrong length (nvars={nvars})")
            if any(e < 0 or not isinstance(e, int) for e in mono):
                raise ValueError(f"bad exponent vector {mono}")
            c = _norm_coeff(c)
            if c != 0:
                clean[mono] = c
        self.terms = clean
        self.nvars = nvars

    # ---- constructors -------------------------------------------------

    @classmethod
    def zero(cls, nvars: int) -> "Poly":
        return cls({}, nvars)

    @classmethod
    def const(cls, c, nvars: int) -> "Poly":
        return cls({(0,) * nvars: c}, nvars)

    @classmethod
    def one(cls, nvars: int) -> "Poly":
        return cls.const(1, nvars)

    @classmethod
    def variable(cls, i: int, nvars: int) -> "Poly":
        if not 0 <= i < nvars:
            raise IndexError(f"variable index {i} out of range for nvars={nvars}")
        e = [0] * nvars
        e[i] = 1
        return cls({tuple(e): 1}, nvars)

    @classmethod
    def monomial(cls, exps: Sequence[int], coeff=1) -> "Poly":
        return cls({tuple(exps): coeff}, len(exps))

    # ---- predicates and size ------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> int:
        """Maximal total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(sum(m) for m in self.terms)

    def constant_term(self):
        return self.terms.get((0,) * self.nvars, Fraction(0))

    # ---- arithmetic ----------------------------------------------------

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        terms = dict(self.terms)
        for m, c in other.terms.items():
            s = terms.get(m, 0) + c
            if s == 0:
                terms.pop(m, None)
            else:
                terms[m] = s
        return Poly(terms, self.nvars)

    __radd__ = __add__

    def __neg__(self):
        return Poly({m: -c for m, c in self.terms.items()}, self.nvars)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)) and not isinstance(other, bool):
            c0 = _norm_coeff(other)
            if c0 == 0:
                return Poly.zero(self.nvars)
            return Poly({m: c * c0 for m, c in self.terms.items()}, self.nvars)
        if not isinstance(other, Poly):
            return NotImplemented
        if other.nvars != self.nvars:
            raise ValueError("nvars mismatch in product")
        terms: dict = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = tuple(a + b for a, b in zip(m1, m2))
                s = terms.get(m, 0) + c1 * c2
                if s == 0:
                    terms.pop(m, None)
                else:
                    terms[m] = s
        return Poly(terms, self.nvars)

    __rmul__ = __mul__

    def __pow__(self, e: int):
        if not isinstance(e, int) or e < 0:
            raise ValueError("exponent must be a non-negative integer")
        out = Poly.one(self.nvars)
        base = self
        while e:
            if e & 1:
                out = out * base
            base = base * base if e > 1 else base
            e >>= 1
        return out

    def _coerce(self, other):
        if isinstance(other, Poly):
            if other.nvars != self.nvars:
                raise ValueError("nvars mismatch")
            return other
        if isinstance(other, (int, Fraction)) and not isinstance(other, bool):
            return Poly.const(other, self.nvars)
        return NotImplemented

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)) and not isinstance(other, bool):
            other = Poly.const(other, self.nvars)
        if not isinstance(other, Poly):
            return NotImplemented
        return self.nvars == other.nvars and self.terms == other.terms

    def __hash__(self):
        return hash((self.nvars, frozenset(self.terms.items())))

    # ---- calculus and evaluation ---------------------------------------

    def diff(self, var_index: int) -> "Poly":
        """Partial derivative with respect to variable ``var_index``."""
        if not 0 <= var_index < self.nvars:
            raise IndexError(f"variable index {var_index} out of range")
        terms = {}
        for m, c in self.terms.items():
            e = m[var_index]
            if e == 0:
                continue
            m2 = m[:var_index] + (e - 1,) + m[var_index + 1 :]
            terms[m2] = terms.get(m2, 0) + c * e
        return Poly(terms, self.nvars)

    def lift(self, nvars: int) -> "Poly":
        """Embed into a ring with more variables, appended after the old ones."""
        if self.nvars > nvars:
            raise ValueError("lift target too small")
        pad = (0,) * (nvars - self.nvars)
        return Poly({m + pad: c for m, c in self.terms.items()}, nvars)

    # ---- display --------------------------------------------------------

    def to_string(self, varnames: Sequence[str]) -> str:
        return to_string(self, varnames)

    def __repr__(self):
        names = [f"x{i+1}" for i in range(self.nvars)]
        return f"Poly({self.to_string(names)})"


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------


class PolyParseError(ValueError):
    """Syntax or name error while parsing a polynomial string."""

    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


class _Scanner:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self):
        self.skip_ws()
        if self.pos >= len(self.text):
            return None
        return self.text[self.pos]

    def take(self):
        ch = self.peek()
        if ch is not None:
            self.pos += 1
        return ch

    def take_nat(self) -> int:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == start:
            raise PolyParseError("expected a number", start)
        return int(self.text[start : self.pos])

    def take_name(self) -> str:
        self.skip_ws()
        start = self.pos
        ch = self.text[self.pos]
        if not (ch.isalpha() or ch == "_"):
            raise PolyParseError("expected a variable name", start)
        while self.pos < len(self.text) and (
            self.text[self.pos].isalnum() or self.text[self.pos] == "_"
        ):
            self.pos += 1
        return self.text[start : self.pos]


def parse(text: str, varnames: Sequence[str]) -> Poly:
    """Parse a polynomial string against an ordered list of variable names.

    Grammar: expr := ['+'|'-'] term (('+'|'-') term)*; term := factor
    ('*' factor)*; factor := base ('^' nat)?; base := rational | variable |
    '(' expr ')'; rational := ['-'] nat ('/' nat)?.  Whitespace is
    insignificant and implicit multiplication is rejected.
    """
    names = list(varnames)
    index = {name: i for i, name in enumerate(names)}
    if len(index) != len(names):
        raise ValueError("duplicate variable names")
    nvars = len(names)
    sc = _Scanner(text)

    def parse_expr() -> Poly:
        ch = sc.peek()
        if ch == "-":
            sc.take()
            acc = -parse_term()
        else:
            if ch == "+":
                sc.take()
            acc = parse_term()
        while True:
            ch = sc.peek()
            if ch == "+":
                sc.take()
                acc = acc + parse_term()
            elif ch == "-":
                sc.take()
                acc = acc - parse_term()
            else:
                return acc

    def parse_term() -> Poly:
        acc = parse_factor()
        while True:
            ch = sc.peek()
            if ch == "*":
                sc.take()
                acc = acc * parse_factor()
            elif ch is not None and (ch.isalnum() or ch in "(_"):
                raise PolyParseError(
                    "implicit multiplication is not allowed", sc.pos
                )
            else:
                return acc

    def parse_factor() -> Poly:
        base = parse_base()
        if sc.peek() == "^":
            sc.take()
            sc.skip_ws()
            e = sc.take_nat()
            return base**e
        return base

    def parse_base() -> Poly:
        ch = sc.peek()
        if ch is None:
            raise PolyParseError("unexpected end of input", sc.pos)
        if ch == "(":
            sc.take()
            inner = parse_expr()
            if sc.peek() != ")":
                raise PolyParseError("expected ')'", sc.pos)
            sc.take()
            return inner
        if ch.isdigit():
            num = sc.take_nat()
            if sc.peek() == "/":
                sc.take()
                sc.skip_ws()
                pos = sc.pos
                den = sc.take_nat()
                if den == 0:
                    raise PolyParseError("zero denominator", pos)
                return Poly.const(Fraction(num, den), nvars)
            return Poly.const(Fraction(num), nvars)
        if ch.isalpha() or ch == "_":
            pos = sc.pos
            name = sc.take_name()
            if name not in index:
                raise PolyParseError(f"unknown variable {name!r}", pos)
            return Poly.variable(index[name], nvars)
        raise PolyParseError(f"unexpected character {ch!r}", sc.pos)

    result = parse_expr()
    sc.skip_ws()
    if sc.pos != len(sc.text):
        raise PolyParseError("trailing input", sc.pos)
    return result


def to_string(p: Poly, varnames: Sequence[str]) -> str:
    """Canonical rendering; parse(to_string(p)) == p."""
    if len(varnames) != p.nvars:
        raise ValueError("varnames length mismatch")
    if p.is_zero():
        return "0"
    items = sorted(p.terms.items(), key=lambda kv: (sum(kv[0]), kv[0]))
    pieces = []
    for mono, coeff in items:
        neg = coeff < 0
        mag = -coeff if neg else coeff
        factors = []
        if mag != 1 or all(e == 0 for e in mono):
            factors.append(str(mag))
        for name, e in zip(varnames, mono):
            if e == 1:
                factors.append(name)
            elif e > 1:
                factors.append(f"{name}^{e}")
        body = "*".join(factors)
        if not pieces:
            pieces.append(f"-{body}" if neg else body)
        else:
            pieces.append(f"- {body}" if neg else f"+ {body}")
    return " ".join(pieces)


# ---------------------------------------------------------------------------
# determinants
# ---------------------------------------------------------------------------


def _det_cofactor(mat) -> Poly:
    n = len(mat)
    nv = mat[0][0].nvars
    if n == 1:
        return mat[0][0]
    if n == 2:
        return mat[0][0] * mat[1][1] - mat[0][1] * mat[1][0]
    acc = Poly.zero(nv)
    for j in range(n):
        a = mat[0][j]
        if a.is_zero():
            continue
        sub = [row[:j] + row[j + 1 :] for row in mat[1:]]
        term = a * _det_cofactor(sub)
        acc = acc + term if j % 2 == 0 else acc - term
    return acc


def det(mat) -> Poly:
    """Determinant of a square matrix of Poly, by cofactor expansion along
    the first row (the matrices here are at most (k+1) x (k+1))."""
    n = len(mat)
    if n == 0:
        raise ValueError("empty matrix (caller should treat the empty det as 1)")
    if any(len(row) != n for row in mat):
        raise ValueError("matrix is not square")
    nv = mat[0][0].nvars
    if any(e.nvars != nv for row in mat for e in row):
        raise ValueError("mixed nvars in matrix")
    return _det_cofactor(mat)
