"""Exact rational scalars, and dense univariate polynomials over Q as values.

Rationals are ``fractions.Fraction`` values: arbitrary precision, always
reduced, positive denominator.  A ``Polynomial`` is a value type: it is
built, read, compared and written, never added or multiplied.  It stores
integer numerators over one denominator, (nums, den) with the coefficient
of X^k equal to nums[k] / den.  The form is canonical: no trailing zero
numerator, den > 0, gcd(den, *nums) = 1, and the zero polynomial is
((), 1).  So equality is tuple equality, a constant also equals the scalar
it holds, and serializing a coefficient takes one ``math.gcd``.  Builders
that know their denominator (n! for a class sum, r! for a binomial)
construct through ``Polynomial.over(nums, den)`` and never touch a
``Fraction``; ``Polynomial(iterable of rationals)`` and the ``coeffs``
tuple of ``Fraction``s are the public view.  Any arithmetic on the values
is the builders' own integer work on numerators; ring operations over the
``Fraction`` view live with the tests, as their reference.

One writer and one reader.  ``_ratio_str(p, q)`` writes p/q in lowest
terms, every integer through ``int_str``, which has no digit limit;
``format_rational``, ``Polynomial.to_strings`` and ``Polynomial.render``
all go through it, the last two straight from the numerators.
``Polynomial.parse`` reads back every line ``render`` writes, each
integer through ``decimal.Decimal``, which has no digit limit either, and
refuses any other text, a zero denominator included, with ``ValueError``.

Factorial evaluations stay in ``int`` for ``int`` arguments and return a
``Fraction`` for ``Fraction`` arguments.  At integer arguments they are
``math`` kernels: (x)_n = perm(x+n-1, n) for x >= 1 and [x]_n = perm(x, n)
for x >= 0.  Every other argument takes the product loop.

``falling_factorial_poly(c, n)`` and ``binom_poly(c, r)`` are built from
one coefficient list, with no ``Polynomial`` products.  For an ``int`` c
the list holds ``int``s (shifted signed Stirling numbers of the first
kind), so ``binom_poly`` is integer numerators over r!; for a ``Fraction``
c it holds ``Fraction``s.  Both return a ``Polynomial`` and raise
``ValueError`` for a negative degree.
"""
from __future__ import annotations

import re
from decimal import Decimal
from fractions import Fraction
from math import factorial, gcd, lcm, perm, prod
from typing import Iterable, List, Tuple, Union

RationalLike = Union[Fraction, int]

#: degree of the zero polynomial
NEG_INFINITY = float("-inf")


#: the most bits one ``str`` call converts: an int of 2000 bits has at
#: most 603 decimal digits, below 640, the lowest int-to-str digit limit
#: CPython (3.11, and 3.10 since 3.10.7) can be set to
_STR_BITS = 2000


def int_str(x: int) -> str:
    """str(x) for an int of any size, whatever the interpreter's digit limit.

    A longer x is split at 10^k, about half its digits, and each part
    converted on its own; the lower one is padded with zeros to k digits.
    """
    if x < 0:
        return "-" + int_str(-x)
    if x.bit_length() <= _STR_BITS:
        return str(x)
    # 10^k < 2^(bits / 2) <= x, as log2(10) < 10/3, so both parts are shorter
    k = x.bit_length() * 3 // 20
    high, low = divmod(x, 10**k)
    return int_str(high) + int_str(low).rjust(k, "0")


def _ratio_str(p: int, q: int) -> str:
    """p/q in lowest terms as "p/q", or just "p" when q > 0 divides p."""
    g = gcd(p, q)
    if g == q:
        return int_str(p // q)
    return f"{int_str(p // g)}/{int_str(q // g)}"


def format_rational(x: RationalLike) -> str:
    """Render a rational as "p/q", or just "p" when the denominator is 1."""
    return _ratio_str(x.numerator, x.denominator)


class Polynomial:
    """Dense univariate polynomial with exact rational coefficients, as a value.

    Stored as integer numerators ``nums`` over one denominator ``den``: the
    coefficient of X^k is nums[k] / den.  ``coeffs`` is the same polynomial
    as a tuple of ``Fraction``s.  The zero polynomial is ((), 1).
    """

    __slots__ = ("nums", "den")

    def __init__(self, coefficients: Iterable[RationalLike] = ()):
        coeffs = [c if isinstance(c, int) else Fraction(c) for c in coefficients]
        den = lcm(*(c.denominator for c in coeffs))
        self.nums, self.den = _canonical(
            [c.numerator * (den // c.denominator) for c in coeffs], den
        )

    @classmethod
    def over(cls, nums: Iterable[int], den: int) -> "Polynomial":
        """sum_k nums[k] X^k / den, for integer numerators and den != 0."""
        poly = cls.__new__(cls)
        poly.nums, poly.den = _canonical(list(nums), den)
        return poly

    @property
    def coeffs(self) -> Tuple[Fraction, ...]:
        """``coeffs[k]`` is the coefficient of X^k, a reduced ``Fraction``."""
        return tuple(Fraction(c, self.den) for c in self.nums)

    @property
    def degree(self) -> float:
        """Degree, or NEG_INFINITY for the zero polynomial."""
        if not self.nums:
            return NEG_INFINITY
        return len(self.nums) - 1

    def coefficient(self, k: int) -> Fraction:
        """Coefficient of X^k (zero outside the stored range)."""
        if k < 0 or k >= len(self.nums):
            return Fraction(0)
        return Fraction(self.nums[k], self.den)

    def __bool__(self) -> bool:
        return bool(self.nums)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Polynomial):
            return self.nums == other.nums and self.den == other.den
        if isinstance(other, (int, Fraction)):
            return len(self.nums) <= 1 and self.coefficient(0) == other
        return NotImplemented

    def __hash__(self) -> int:
        # constants hash as the scalar they compare equal to
        if len(self.nums) <= 1:
            return hash(self.coefficient(0))
        return hash((self.nums, self.den))

    def to_strings(self) -> List[str]:
        """Serialized form: coefficient strings, constant term first."""
        return [_ratio_str(c, self.den) for c in self.nums]

    def render(self) -> str:
        """Human form, descending powers, e.g. "1/2·X^2 - 1/2·X"."""
        terms = []
        for k, text in reversed(list(enumerate(self.to_strings()))):
            if text == "0":
                continue
            mag = text.lstrip("-")
            if k:
                power = "X" if k == 1 else f"X^{k}"
                mag = power if mag == "1" else f"{mag}·{power}"
            terms.append(("- " if text[0] == "-" else "+ ") + mag)
        line = " ".join(terms)
        if not line:
            return "0"
        return line[2:] if line[0] == "+" else "-" + line[2:]

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
            # Decimal, unlike int and Fraction, reads a string of any length
            num, _, den = (m.group("coef") or "1").partition("/")
            den = int(Decimal(den or "1"))
            if not den:
                raise ValueError(f"zero denominator in polynomial term {term!r}")
            coef = Fraction(int(Decimal(num)), den)
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


def _canonical(nums: List[int], den: int) -> Tuple[Tuple[int, ...], int]:
    """Strip trailing zeros, then divide out gcd(den, *nums) with den's sign."""
    if not den:
        raise ZeroDivisionError("polynomial denominator is zero")
    while nums and not nums[-1]:
        nums.pop()
    g = gcd(den, *nums)
    if den < 0:
        g = -g
    if g != 1:
        nums = [c // g for c in nums]
        den //= g
    return tuple(nums), den


def rising_factorial_eval(x: RationalLike, n: int) -> RationalLike:
    """(x)_n = x (x+1) ... (x+n-1); the empty product for n = 0."""
    if n < 0:
        raise ValueError("n must be non-negative")
    if isinstance(x, int) and x >= 1:
        return perm(x + n - 1, n)
    # start at x**0 so the empty product has the type of x too
    return prod((x + i for i in range(n)), start=x**0)


def falling_factorial_eval(x: RationalLike, n: int) -> RationalLike:
    """[x]_n = x (x-1) ... (x-n+1)."""
    if n < 0:
        raise ValueError("n must be non-negative")
    if isinstance(x, int) and x >= 0:
        return perm(x, n)
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
    falling = falling_factorial_poly(c, r)
    return Polynomial.over(falling.nums, falling.den * factorial(r))

