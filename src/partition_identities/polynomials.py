"""Exact rational scalars and dense univariate polynomials over Q.

Rationals are ``fractions.Fraction`` values: arbitrary precision, always
reduced, positive denominator.  Polynomials are dense coefficient lists in
the indeterminate X, canonical (no trailing zeros), so equality is plain
sequence equality.  Factorial evaluations stay in ``int`` for ``int``
arguments and return a ``Fraction`` for ``Fraction`` arguments.

``falling_factorial_poly(c, n)`` and ``binom_poly(c, r)`` are built from
one coefficient list, with no ``Polynomial`` products.  For an ``int`` c
the list holds ``int``s (shifted signed Stirling numbers of the first
kind), so ``binom_poly`` is integer numerators over r!; for a ``Fraction``
c it holds ``Fraction``s.  Both return a ``Polynomial`` and raise
``ValueError`` for a negative degree.
"""
from __future__ import annotations

import re
from fractions import Fraction
from math import factorial, prod
from typing import Iterable, List, Sequence, Union

Rational = Fraction
RationalLike = Union[Fraction, int]

#: degree of the zero polynomial
NEG_INFINITY = float("-inf")


def format_rational(x: RationalLike) -> str:
    """Render a rational as "p/q", or just "p" when the denominator is 1."""
    x = Fraction(x)
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


def parse_rational(text: str) -> Fraction:
    return Fraction(text.strip())


class Polynomial:
    """Dense univariate polynomial with exact rational coefficients.

    ``coeffs[k]`` is the coefficient of X^k.  The zero polynomial has an
    empty coefficient tuple.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coefficients: Iterable[RationalLike] = ()):
        coeffs = [Fraction(c) for c in coefficients]
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        self.coeffs = tuple(coeffs)

    @property
    def degree(self) -> float:
        """Degree, or NEG_INFINITY for the zero polynomial."""
        if not self.coeffs:
            return NEG_INFINITY
        return len(self.coeffs) - 1

    def coefficient(self, k: int) -> Fraction:
        """Coefficient of X^k (zero outside the stored range)."""
        if k < 0 or k >= len(self.coeffs):
            return Fraction(0)
        return self.coeffs[k]

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Polynomial):
            return self.coeffs == other.coeffs
        if isinstance(other, (int, Fraction)):
            return self == Polynomial([other])
        return NotImplemented

    def __hash__(self) -> int:
        # constants hash as the scalar they compare equal to
        if len(self.coeffs) <= 1:
            return hash(self.coeffs[0] if self.coeffs else 0)
        return hash(self.coeffs)

    def __add__(self, other: "Polynomial | RationalLike") -> "Polynomial":
        other = _coerce(other)
        n = max(len(self.coeffs), len(other.coeffs))
        return Polynomial(
            self.coefficient(k) + other.coefficient(k) for k in range(n)
        )

    __radd__ = __add__

    def __neg__(self) -> "Polynomial":
        return Polynomial(-c for c in self.coeffs)

    def __sub__(self, other: "Polynomial | RationalLike") -> "Polynomial":
        return self + (-_coerce(other))

    def __rsub__(self, other: RationalLike) -> "Polynomial":
        return _coerce(other) - self

    def __mul__(self, other: "Polynomial | RationalLike") -> "Polynomial":
        if isinstance(other, (int, Fraction)):
            return Polynomial(c * other for c in self.coeffs)
        if not isinstance(other, Polynomial):
            return NotImplemented
        if not self.coeffs or not other.coeffs:
            return Polynomial()
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return Polynomial(out)

    __rmul__ = __mul__

    def __call__(self, x: RationalLike) -> Fraction:
        """Exact evaluation at x (Horner)."""
        x = Fraction(x)
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def substitute_neg_x(self) -> "Polynomial":
        """Return p(-X)."""
        return Polynomial(
            c if k % 2 == 0 else -c for k, c in enumerate(self.coeffs)
        )

    def to_strings(self) -> List[str]:
        """Serialized form: coefficient strings, constant term first."""
        return [format_rational(c) for c in self.coeffs]

    @classmethod
    def from_strings(cls, items: Sequence[str]) -> "Polynomial":
        return cls(parse_rational(s) for s in items)

    def render(self) -> str:
        """Human form, descending powers, e.g. "1/2·X^2 - 1/2·X"."""
        if not self.coeffs:
            return "0"
        pieces: List[str] = []
        for k in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[k]
            if c == 0:
                continue
            mag = abs(c)
            if k == 0:
                body = format_rational(mag)
            else:
                xpart = "X" if k == 1 else f"X^{k}"
                body = xpart if mag == 1 else f"{format_rational(mag)}·{xpart}"
            if not pieces:
                pieces.append(body if c > 0 else "-" + body)
            else:
                pieces.append(("+ " if c > 0 else "- ") + body)
        return " ".join(pieces)

    _TERM_RE = re.compile(
        r"^(?P<sign>-?)(?:(?P<coef>\d+(?:/\d+)?)(?:·)?)?(?:X(?:\^(?P<pow>\d+))?)?$"
    )

    @classmethod
    def parse(cls, text: str) -> "Polynomial":
        """Inverse of :meth:`render`."""
        text = text.strip()
        if text == "0":
            return cls()
        normalized = text.replace(" + ", ";").replace(" - ", ";-")
        coeffs: dict[int, Fraction] = {}
        for term in normalized.split(";"):
            term = term.strip()
            m = cls._TERM_RE.match(term)
            if not m or (m.group("coef") is None and "X" not in term):
                raise ValueError(f"cannot parse polynomial term {term!r}")
            coef = Fraction(m.group("coef")) if m.group("coef") else Fraction(1)
            if m.group("sign"):
                coef = -coef
            if "X" in term:
                power = int(m.group("pow")) if m.group("pow") else 1
            else:
                power = 0
            coeffs[power] = coeffs.get(power, Fraction(0)) + coef
        out = [Fraction(0)] * (max(coeffs) + 1)
        for k, c in coeffs.items():
            out[k] = c
        return cls(out)

    def __repr__(self) -> str:
        return f"Polynomial({self.render()!r})"


def _coerce(value: "Polynomial | RationalLike") -> Polynomial:
    if isinstance(value, Polynomial):
        return value
    return Polynomial([value])


#: the indeterminate
X = Polynomial((0, 1))

ONE = Polynomial((1,))


def rising_factorial_eval(x: RationalLike, n: int) -> RationalLike:
    """(x)_n = x (x+1) ... (x+n-1); the empty product for n = 0."""
    if n < 0:
        raise ValueError("n must be non-negative")
    # start at x**0 so the empty product has the type of x too
    return prod((x + i for i in range(n)), start=x**0)


def falling_factorial_eval(x: RationalLike, n: int) -> RationalLike:
    """[x]_n = x (x-1) ... (x-n+1)."""
    if n < 0:
        raise ValueError("n must be non-negative")
    return prod((x - i for i in range(n)), start=x**0)


def _falling_coeffs(c: RationalLike, n: int) -> List[RationalLike]:
    """Coefficients of [X+c]_n, constant term first, one factor at a time.

    Multiplying by (X + c - i) maps old to new[k] = old[k-1] + (c-i) old[k].
    Entries are ``int`` for ``int`` c (shifted signed Stirling numbers of
    the first kind) and ``Fraction`` for ``Fraction`` c.
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    coeffs = [c**0]
    for i in range(n):
        shift = c - i
        coeffs = [a * shift + b for a, b in zip(coeffs + [0], [0] + coeffs)]
    return coeffs


def falling_factorial_poly(c: RationalLike, n: int) -> Polynomial:
    """[X+c]_n = (X+c)(X+c-1)...(X+c-n+1) as a polynomial in X."""
    return Polynomial(_falling_coeffs(c, n))


def binom_poly(c: RationalLike, r: int) -> Polynomial:
    """binom(X+c, r) = [X+c]_r / r!."""
    r_fact = factorial(r)
    return Polynomial(Fraction(k, r_fact) for k in _falling_coeffs(c, r))


def binom_rat(x: RationalLike, k: int) -> Fraction:
    """binom(x, k) = [x]_k / k! for k >= 0; zero for negative k."""
    if k < 0:
        return Fraction(0)
    return Fraction(falling_factorial_eval(x, k), factorial(k))
