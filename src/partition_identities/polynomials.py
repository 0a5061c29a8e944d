"""Exact rationals and dense univariate polynomials over Q, as values.

Both are integers over a positive denominator, in one canonical form.  A
``Ratio`` is num / den, and a ``Polynomial`` is integer numerators over one
denominator, (nums, den) with the coefficient of X^k equal to
nums[k] / den.  Neither has arithmetic: each is built, read, compared and
written.  The form is reduced by one rule, ``_lowest``: den > 0 and
gcd(den, *nums) = 1.  ``Ratio`` applies that rule itself, to its one
numerator: a pair already in lowest terms is the rule's fixed point, kept
as given after one gcd, and any other pair is divided by that same gcd,
with den's sign.  A polynomial also has no trailing zero numerator, so
the zero polynomial is ((), 1), and a zero ``Ratio`` is (0, 1).  So
equality is tuple equality, on the exact type: a ``Ratio`` never equals
a constant ``Polynomial``, an int or a rational of another type.
Builders know their denominator (n! for a class sum, r! for a binomial)
and hand it over with their integer numerators: ``Ratio(num, den)`` and
``Polynomial(nums, den)``.  Any arithmetic on the values is the builders'
own integer work on numerators; ring operations, and a view in the
standard library's rationals, live with the tests, as their reference.
This module computes no factorial: the builders in
``identities`` do, in ``int``s.

One writer and no reader.  ``_ratio_str(p, q)`` writes p/q in lowest
terms, every integer through ``int_str``, which has no digit limit;
``Ratio.to_string`` and ``Polynomial.to_strings``, the latter straight from
the numerators, both go through it.  ``render`` lays out what they wrote,
a scalar's text or a polynomial's coefficient texts, as one human line,
so a side written once for a report is never written again to be shown.

One value contract.  ``Value`` is the base of ``Ratio`` and
``Polynomial`` here, of ``partitions.Partition`` and of
``identities.IdentityCase``: a value keeps its fields as one tuple in one
slot, reads each through a read-only property, is equal to a value of its
own exact type with an equal tuple, hashes as that tuple, and is copied and
pickled through its constructor.
"""
from __future__ import annotations

from math import gcd
from typing import Iterable, List, Sequence, Tuple, Union

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


class Value:
    """An immutable value whose fields are one tuple, ``_values``.

    A subclass names its fields once, in ``_fields``, in the order its
    constructor takes them, declares ``__slots__ = ()`` and stores the
    tuple once it has checked it.  Each field is a read-only property, and
    there is no other attribute, so assigning or deleting any attribute
    but ``_values`` raises ``AttributeError``.  A value equals only a value
    of its own exact type with an equal tuple, never the bare tuple, and
    hashes as the tuple.  A copy or an unpickled value is built again by
    the constructor from the tuple, so it is checked and canonical again.
    Code that reads many fields on a hot path unpacks ``_values`` instead:
    a property read costs several slot reads.
    """

    __slots__ = ("_values",)
    _fields: Tuple[str, ...] = ()

    def __init_subclass__(cls) -> None:
        super().__init_subclass__()
        for i, name in enumerate(cls._fields):
            field = property(lambda self, i=i: self._values[i])
            field.__set_name__(cls, name)  # so a refused assignment names it
            setattr(cls, name, field)

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self._values == other._values

    def __hash__(self) -> int:
        return hash(self._values)

    def __reduce__(self):
        return type(self), self._values


class Ratio(Value):
    """An exact rational num / den, as a value.

    Reduced by ``_lowest``'s rule, as a polynomial is, which it applies
    itself: den > 0, gcd(num, den) = 1, and zero is (0, 1); a pair already
    so is kept as given.  A ``Ratio`` equals only a ``Ratio``, by its pair:
    never an int, a rational of another type or a constant ``Polynomial``.
    """

    __slots__ = ()
    _fields = ("num", "den")

    def __init__(self, num: int, den: int = 1):
        # ``_lowest``'s rule on one numerator, with the gcd that tests for
        # its fixed point; gcd refuses a non-int
        g = gcd(num, den)
        if g != 1 or den <= 0:
            if not den:
                raise ZeroDivisionError("denominator is zero")
            if den < 0:
                g = -g
            num, den = num // g, den // g
        self._values = (num, den)

    def to_string(self) -> str:
        """Serialized form: "p/q", or just "p" when den is 1."""
        return _ratio_str(*self._values)

    def __repr__(self) -> str:
        return f"Ratio({int_str(self.num)}, {int_str(self.den)})"


class Polynomial(Value):
    """Dense univariate polynomial with exact rational coefficients, as a value.

    Stored as integer numerators ``nums`` over one denominator ``den``: the
    coefficient of X^k is nums[k] / den.  The zero polynomial is ((), 1).
    """

    __slots__ = ()
    _fields = ("nums", "den")

    def __init__(self, nums: Iterable[int] = (), den: int = 1):
        """sum_k nums[k] X^k / den, for integer numerators and den != 0."""
        self._values = _canonical(list(nums), den)

    @property
    def degree(self) -> float:
        """Degree, or NEG_INFINITY for the zero polynomial."""
        if not self.nums:
            return NEG_INFINITY
        return len(self.nums) - 1

    def coefficient(self, k: int) -> Ratio:
        """Coefficient of X^k (zero outside the stored range)."""
        nums, den = self._values
        if k < 0 or k >= len(nums):
            return Ratio(0)
        return Ratio(nums[k], den)

    def __bool__(self) -> bool:
        return bool(self.nums)

    def to_strings(self) -> List[str]:
        """Serialized form: coefficient strings, constant term first."""
        nums, den = self._values
        return [_ratio_str(c, den) for c in nums]

    def __repr__(self) -> str:
        return f"Polynomial({render(self.to_strings())!r})"


def render(side: Union[str, List[str]]) -> str:
    """Human form of a written side: a scalar's text as it is, and a
    polynomial's coefficient texts, constant term first, in descending
    powers, e.g. "1/2·X^2 - 1/2·X"."""
    if isinstance(side, str):
        return side
    terms = []
    for k, text in reversed(list(enumerate(side))):
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


def _canonical(nums: List[int], den: int) -> Tuple[Tuple[int, ...], int]:
    """Strip trailing zeros, then reduce by ``_lowest``."""
    while nums and not nums[-1]:
        nums.pop()
    return _lowest(nums, den)


def _lowest(nums: Sequence[int], den: int) -> Tuple[Tuple[int, ...], int]:
    """Divide out gcd(den, *nums) with den's sign, so that den > 0.

    When that divisor is 1, as it is for every den of 1, the numerators
    are returned as they are, with no division pass.
    """
    if not den:
        raise ZeroDivisionError("denominator is zero")
    g = gcd(den, *nums)
    if g == 1 and den > 0:
        return tuple(nums), den
    if den < 0:
        g = -g
    return tuple([c // g for c in nums]), den // g
