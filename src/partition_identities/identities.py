"""Both sides of every identity, built as exact polynomials or rationals.

Builders never compare: each returns one (lhs, rhs) value pair, so the
sweep engine can show both sides verbatim when they disagree.  A side is a
``Polynomial``, a ``Ratio``, or, for TOP_COEFF at r >= 2, a 2-tuple of
``Ratio``, the two coefficients it checks.  The registry ``IDENTITIES``
holds each identity's spec, and the parameters an identity takes are its
builder's parameter names, a subsequence of n, r, s and form.  From those
names ``IdentitySpec.of`` derives, once, at import, which of r, s and form
its cases have, which ``IdentityCase`` compares with the fields it is given
as one tuple, and an ``itemgetter`` of the builder's arguments from a
case's field tuple.  So a case makes one registry read, keyed by
``IdentityId``, whose members hash by identity in C, not by name in Python.

The left-hand sides sum a class weight w(mu) times sum_i (mu_i)_s over
mu |- n.  Since sum_i (mu_i)_s = sum_i m_i(mu) (i)_s, such a sum is
sum_i (i)_s M[i] with the moment vector M[i] = sum_mu w(mu) m_i(mu), which
depends on neither s nor the form.  Three tables hold these vectors,
each keyed by n alone, and all three come from one recurrence,
``_marked_cycle_sums(n, g)``, which sums over the permutations of n points
by cycle type, with one cycle marked, by the exponential formula, and
visits no partition.  ``_class_table(n)`` holds the class-size vectors M of
CLASSICAL and CONJ2, at weight g = 1.  ``_covering_table(n)`` holds those
of CONJ1 for every r <= n at once, at g(k) = (1+t)^k - 1, in polynomials in
t packed into single ints, with a slot width from ``_slot_bits(n)``.
``_length_table(n)`` holds the vectors W of CONJ3 and CONJ4, weighted by
the multinomial l!/prod m_i!, one int per entry: the recurrence at
g(k) = k, whose weight (n!/z_mu) prod_j mu_j is n!/prod_j m_j!, with each
length-l row divided by n!/l!.  So every left-hand side rests on that
theorem, while the CLASSICAL right-hand side is a product of linear
factors.  CONJ2 reads the class table, never the CONJ1 row r = n that
equals it (<mu, n> = 1), so it is no copy of CONJ1 there.  The CONJ1 table
never uses the closed form (s-1)! binom(n+s-1, r+s-1) binom(r-j+s-1, r-j)
of c_j(n), the coefficient of binom(X+j-1, j) in the UNSIGNED left-hand
side, which turns that side into the conjectured right-hand side term by
term (Graham, Knuth and Patashnik, Concrete Mathematics, (5.21) and
(5.26)).  Nor does the length table use the count of compositions, whose
closed form l binom(n-i-1, l-2) is the CONJ4 right-hand side, which CONJ4
would then check against itself: the recurrence sums over cycle types,
not over compositions.  A case with a single (n, r) still pays for the
whole n.
Every table refuses n > ``partitions.MAX_N`` before it allocates, and each
memo has room for every n it accepts.  A length-l vector ends at part
n - l + 1, the largest a partition of n with l parts has, so it holds
n - l + 2 entries, and no reader walks a zero tail.
Each LHS key then takes one dot product per length with its row of
(i)_s, which stops at the vector's end.  Those totals are kept
in ``_length_totals`` once per (n, r, s) for CONJ1, (n, s) for CONJ2 and
n for CLASSICAL, so both forms of a case share them; the sign and the
shift stay per case.  The forms of a key are adjacent in grid order, so
the memo has four slots, at most about 4 MB at n = 60, s = MAX_S.

Each other factor of a case is also built once per key it depends on, in
a bounded memo: the row (i)_s for every i <= ``partitions.MAX_N`` once per
s in ``_rising_row``, built whole from the recurrence
(i+1)_s = (i)_s (i+s) / i, so one row serves every n; and the bracket
r! (binom(X+a, r) - binom(X+b, r)) of the CONJ1, CONJ2 and TOP_COEFF
right-hand sides once per (r, s, form) in
``_conj1_bracket``, where n enters that side only through its integer
prefactor; the products under those brackets once per (lo, r) in
``_rising_product``, below; and s! and (s-1)! of the right-hand sides in
``_rhs_factorial``.  TOP_COEFF reads the two entries k = r-1 and r-2 of
the SIGNED bracket and builds only those two coefficients of the RHS.
For r > n, every identity that takes r returns at once, before it reads
a table, builds a row or computes a prefactor, and hands back one
module-level zero pair, ``_ZERO_POLYNOMIALS``, ``_ZERO_RATIOS`` or
TOP_COEFF's ``_ZERO_CHECKS``, shared by every such case: values and
tuples are immutable, so no caller can change it.

Every falling factorial [X+c]_n with an integer c, in the right-hand
sides of CLASSICAL, CONJ1, CONJ2 and TOP_COEFF and on the BINOMIAL_TYPE
left-hand side, comes from one construction: the product
P(lo, r) = (X+lo)(X+lo+1) ... (X+lo+r-1) as integer coefficients, kept in
``_rising_product`` keyed by (lo, r) and built from P(lo, r-1) with one
linear factor, which is O(r) integer work.  [X+c]_n is P(c-n+1, n), the
list ``_falling_coeffs(c, n)``.  The CONJ1 brackets of both forms read the
same two products, P(s, r) and P(0, r), the latter shared by every s:
UNSIGNED is P(s, r) - P(0, r), and SIGNED, [X]_r - [X-s]_r, follows by
the reflection [X+c]_r(X) = (-1)^r P(-c, r)(-X) (Graham, Knuth and
Patashnik, Concrete Mathematics, (2.52)).  Every scalar factorial is
``math.factorial``, ``perm`` or ``comb`` at integer arguments.  So every
side is integers over a denominator the builder knows: a ``Polynomial``
for the polynomial sides, and a ``Ratio`` for the scalar ones (CONJ3,
CONJ4, CONST_TERM, TOP_COEFF and HOCKEY_STICK), over r, n, 2 r! or 1.

A sweep reads its s axis cyclically inside each r, so the three memos that
keep factors per s, ``_rising_row``, ``_rhs_factorial`` and
``_rising_product``, are sized from one width, ``S_AXIS``: each keeps every
entry of an s axis of up to ``S_AXIS`` values.  On a wider axis the row of
each s, and in a sweep over r its products, are evicted just before the s
comes round again, and rebuilt.  Their largest entries are a row at
s = ``MAX_S``, about 0.95 MB, ``MAX_S``!, about 16 KB, and
P(``MAX_S``, 400), about 0.17 MB.
"""
from __future__ import annotations

import re
from enum import Enum
from functools import lru_cache
from itertools import islice, repeat
from math import comb, factorial, perm
from operator import itemgetter, mul, sub
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple, Union

from . import partitions
from .polynomials import Polynomial, Ratio, Value

#: the largest s a case takes.  The row (i)_s, i <= 60, grows with s: at
#: s = 10**4 its recurrence takes about 8 ms on a 2-core Xeon, paid once per
#: s per process while ``_rising_row`` keeps the row
MAX_S = 10**4

#: the widest s axis whose per-s factors stay memoized through a sweep: the
#: width of ``_rising_row``, ``_rhs_factorial`` and ``_rising_product``
S_AXIS = 32

#: a polynomial, a scalar, or TOP_COEFF's checked coefficients at r >= 2
SideValue = Union[Polynomial, Ratio, Tuple[Ratio, Ratio]]
SidePair = Tuple[SideValue, SideValue]

#: the sides of every case with r > n, shared: values are immutable, so one
#: pair serves every such case instead of new zeros built for each
_ZERO_POLYNOMIALS: SidePair = (Polynomial(), Polynomial())
_ZERO_RATIOS: SidePair = (Ratio(0), Ratio(0))
#: TOP_COEFF's two zero checks on each side, for r > n
_ZERO_CHECKS: SidePair = (_ZERO_RATIOS, _ZERO_RATIOS)


class _Member(Enum):
    """An enum whose members hash by identity, in C.

    ``Enum.__hash__``, hash of the member's name, is a Python call, paid at
    every dict or memo lookup keyed by a member: a case's registry read, and
    the ``_conj1_bracket`` memo keyed by a form.  Members are singletons and
    equal only to themselves, so identity is a hash consistent with equality.
    """

    __hash__ = object.__hash__


class IdentityId(_Member):
    CLASSICAL = "CLASSICAL"
    CONJ1 = "CONJ1"
    CONJ2 = "CONJ2"
    CONJ3 = "CONJ3"
    CONJ4 = "CONJ4"
    CONST_TERM = "CONST_TERM"
    TOP_COEFF = "TOP_COEFF"
    BINOMIAL_TYPE = "BINOMIAL_TYPE"
    HOCKEY_STICK = "HOCKEY_STICK"


class Form(_Member):
    SIGNED = "SIGNED"
    UNSIGNED = "UNSIGNED"


#: the types of an optional integer field of a case; bool is not one of them
_INT_OR_NONE = (int, type(None))


class IdentityCase(Value):
    """One identity plus its integer parameters, checked when built.

    Immutable and equal by value (``polynomials.Value``), like a frozen
    record, but not a tuple: every instance went through the checks, and
    none equals a bare tuple.
    """

    __slots__ = ()
    _fields = ("identity_id", "n", "r", "s", "form")

    def __init__(
        self,
        identity_id: IdentityId,
        n: int,
        r: Optional[int] = None,
        s: Optional[int] = None,
        form: Optional[Form] = None,
    ) -> None:
        try:
            spec = IDENTITIES[identity_id]
        except (KeyError, TypeError):
            raise TypeError(f"identity_id must be an IdentityId, got {identity_id!r}") from None
        # exact types, so a bool, a float or a form's name is refused here,
        # not taken for another value or failed on inside a builder
        if type(n) is not int or type(r) not in _INT_OR_NONE or type(s) not in _INT_OR_NONE:
            raise TypeError(f"{identity_id.value}: n, r and s must be int")
        if form is not None and type(form) is not Form:
            raise TypeError(f"{identity_id.value}: form must be a Form, got {form!r}")
        if not 1 <= n <= spec.max_n:
            raise ValueError(f"{identity_id.value}: n must be in 1..{spec.max_n}")
        given = (r is not None, s is not None, form is not None)
        if given != (present := spec.present):
            # the first field that is present where it should not be, or
            # the other way round, words the error
            for label, wanted, has in zip(("parameter r", "parameter s", "form"), present, given):
                if wanted != has:
                    raise ValueError(
                        f"{identity_id.value}: {label} {'required' if wanted else 'not applicable'}"
                    )
        if r is not None and r < 1:
            raise ValueError(f"{identity_id.value}: r must be >= 1")
        if s is not None and not spec.s_min <= s <= MAX_S:
            raise ValueError(f"{identity_id.value}: s must be in {spec.s_min}..{MAX_S}")
        self._values = (identity_id, n, r, s, form)

    def __repr__(self) -> str:
        pairs = ", ".join(f"{k}={v!r}" for k, v in zip(self._fields, self._values))
        return f"IdentityCase({pairs})"

    @property
    def skipped(self) -> bool:
        """True when the case is evaluated but reported SKIPPED, not judged."""
        identity_id, _, r, _, _ = self._values
        return r == 1 and IDENTITIES[identity_id].skip_r1

    def __str__(self) -> str:
        # ``_value_`` is a plain attribute; ``.value`` is a Python-level
        # property, and every report row writes this text
        identity_id, n, r, s, form = self._values
        text = f"{identity_id._value_}(n={n}"
        if r is not None:
            text += f",r={r}"
        if s is not None:
            text += f",s={s}"
        if form is not None:
            text += f",form={form._value_}"
        return text + ")"

    _CASE_RE = re.compile(r"^\s*([A-Z_0-9]+)\s*\(([^)]*)\)\s*$")

    @classmethod
    def parse(cls, text: str) -> "IdentityCase":
        """Parse e.g. "CONJ1(n=5,r=3,s=2,form=SIGNED)"."""
        m = cls._CASE_RE.match(text)
        if not m:
            raise ValueError(f"malformed identity case {text!r}")
        try:
            identity_id = IdentityId(m.group(1))
        except ValueError as exc:
            raise ValueError(f"unknown identity {m.group(1)!r}") from exc
        kwargs: dict = {}
        body = m.group(2).strip()
        for item in body.split(",") if body else []:
            key, _, value = item.partition("=")
            key = key.strip()
            value = value.strip()
            if key in kwargs:
                raise ValueError(f"duplicate parameter {key!r}")
            if key in ("n", "r", "s"):
                kwargs[key] = int(value)
            elif key == "form":
                kwargs["form"] = Form(value)
            else:
                raise ValueError(f"unknown parameter {key!r}")
        if "n" not in kwargs:
            raise ValueError(f"{identity_id.value}: parameter n required")
        return cls(identity_id, **kwargs)


#: one row per s, which every n and identity of a sweep shares.  The largest
#: row, (i)_MAX_S for i <= 60, is about 0.95 MB
@lru_cache(maxsize=S_AXIS)
def _rising_row(s: int) -> Tuple[int, ...]:
    """R[i] = (i)_s for i <= ``partitions.MAX_N``, so sum_i (mu_i)_s = sum_i m_i R[i].

    R[0] = (0)_s, which is 1 at s = 0 and 0 above, R[1] = s! and
    R[i+1] = R[i] (i+s) / i for i >= 1, an exact division, since
    (i+1)_s = (i+1) ... (i+s) = (i)_s (i+s) / i.  One row serves every n,
    so the memo is keyed by s alone.
    """
    row = [int(s == 0), factorial(s)]
    for i in range(1, partitions.MAX_N):
        row.append(row[i] * (i + s) // i)
    return tuple(row)


#: one integer vector indexed by part i <= n - l + 1 per length l = 1, 2, ...
Moments = Tuple[Tuple[int, ...], ...]


def _marked_cycle_sums(n: int, g: List[int]) -> List[List[int]]:
    """[l-1][i] = sum over mu |- n, l(mu) = l of (n!/z_mu) prod_j g[mu_j] m_i(mu).

    No partition is visited.  n!/z_mu counts the permutations of cycle
    type mu, so e[m][l] = sum over mu |- m, l(mu) = l of
    (m!/z_mu) prod_j g[mu_j] weighs each permutation of m points with l
    cycles by its cycle lengths.  The cycle through the last point has some
    length k, and [m-1]_{k-1} ways to take its other points in order, so
    e[m][l] = sum_k [m-1]_{k-1} g[k] e[m-k][l-1], with e[0][0] = 1: the
    exponential formula (Stanley, EC2 5.1; Macdonald, I.2).  Marking one
    cycle of length i, which (i-1)! C(n, i) ways place, gives the entry
    (l, i) = (i-1)! C(n, i) g[i] e[n-i][l-1].  Every term is an integer.
    A partition of n with l parts has no part above n - l + 1, so the
    length-l vector ends there, with n - l + 2 entries.  Three weights are
    read: g = 1, for the class sizes of ``_class_table``;
    g(k) = (1+t)^k - 1, packed, whose product over mu's cycles has <mu, r>
    as its t^r coefficient, for ``_covering_table``; and g(k) = k, whose
    product is prod_j mu_j, for ``_length_table``.
    """
    # e[l] lists e[m][l] for m = l, l+1, ..., n-1: it is zero for m < l,
    # and for l = 0 < m, where e[0] is extended with zeros
    e = [[1]] + [[] for _ in range(n - 1)]
    for m in range(1, n):
        terms = [perm(m - 1, k - 1) * g[k] for k in range(1, m + 1)]
        # l descending, so e[l-1] still ends at m-1, and reversed it pairs
        # terms[k-1] with e[m-k][l-1]
        for l in range(m, 0, -1):
            e[l].append(sum(map(mul, terms, reversed(e[l - 1]))))
        e[0].append(0)
    # a marked cycle of length i = 1..n, placed in (i-1)! C(n, i) = [n]_i / i
    # ways; reversed, e[l] pairs it with e[n-i][l] for i <= n - l, so the
    # vector of length l + 1 ends at its largest part, n - l
    marked = [perm(n, i) // i * g[i] for i in range(1, n + 1)]
    return [[0, *map(mul, marked, reversed(e[l]))] for l in range(n)]


@lru_cache(maxsize=partitions.MAX_N + 1)
def _class_table(n: int) -> Moments:
    """M_l for l = 1..n: sums over mu |- n with l(mu) = l of (n!/z_mu) m_i(mu).

    Each M_l ends at i = n - l + 1, the largest part of such a mu.
    The moments of CLASSICAL and CONJ2: ``_marked_cycle_sums`` at g = 1,
    over the permutations of n points by cycle type.  No <mu, r> enters, so
    CONJ2 never calls gen_binom or reads the CONJ1 table, although
    <mu, n> = 1 makes that table's row n equal to this one.
    """
    partitions.check_enumerable(n)  # the limit of every table, before it allocates
    return tuple(map(tuple, _marked_cycle_sums(n, [1] * (n + 1))))


@lru_cache(maxsize=partitions.MAX_N + 1)
def _length_table(n: int) -> Moments:
    """W_l for l = 1..n: sums over mu |- n with l(mu) = l of (l!/prod_j m_j!) m_i(mu).

    Each W_l ends at i = n - l + 1, the largest part of such a mu.
    The moments of CONJ3 and CONJ4: ``_marked_cycle_sums`` at g(k) = k,
    each length-l row divided by n!/l!.  As z_mu = prod_j j^m_j m_j!,
    (n!/z_mu) prod_j mu_j = n!/prod_j m_j!, which is n!/l! times the
    multinomial l!/prod_j m_j!, so the division is exact, and a remainder,
    which only a wrong recurrence leaves, raises ArithmeticError.  The
    recurrence sums (n!/z_mu) prod_j mu_j m_i(mu) over cycle types, not
    over compositions, so their closed form l binom(n-i-1, l-2), which is
    the CONJ4 right-hand side, never enters, and CONJ4 checks no formula
    against itself.
    """
    partitions.check_enumerable(n)  # the limit of every table, before it allocates
    table = []
    for l, row in enumerate(_marked_cycle_sums(n, list(range(n + 1))), start=1):
        scale = factorial(n) // factorial(l)
        quotients, remainders = zip(*[divmod(entry, scale) for entry in row])
        if any(remainders):
            raise ArithmeticError(f"length table at n={n}, l={l}: a sum is not a multiple of n!/l!")
        table.append(quotients)
    return tuple(table)


def _slot_bits(n: int) -> int:
    """Bits per coefficient of the packed CONJ1 table at n.

    An entry sum over mu of (n!/z_mu) <mu, r> m_i(mu) is at most n! 2^n n:
    the class sizes add up to n!, <mu, r> <= prod_i (2^mu_i - 1) < 2^n and
    m_i <= n.  ``_covering_table`` forms no slot above that bound, so none
    reaches 2^width or carries into the next one.
    """
    return (factorial(n) * n << n).bit_length()


@lru_cache(maxsize=partitions.MAX_N + 1)
def _covering_table(n: int) -> Tuple[Moments, ...]:
    """[r-1][l-1][i] = sum over l(mu) = l of (n!/z_mu) <mu, r> m_i(mu), r <= n.

    <mu, r> is the t^r coefficient of prod_j g(mu_j), g(k) = (1+t)^k - 1,
    and zero for l(mu) > r, so row r holds the lengths l <= r, each
    vector ending at i = n - l + 1, the largest part of such a mu.  A
    polynomial in t with nonnegative coefficients below 2^width is packed
    into one int, its value at t = 2^width (Kronecker substitution), so C
    bigint arithmetic adds and multiplies it without a carry between slots.
    ``_marked_cycle_sums`` takes the packed g and sums every r at once; the
    sums are unpacked once, at the end.

    Every term of that recurrence is nonnegative, so slot by slot a partial
    sum is at most its total and a product at most the sum it is a term of;
    e[n-i][l-1] is at most entry (l, i) one slot up, as every coefficient
    of g(i) above t^0 is >= 1; and a factor [m-1]_{k-1} g(k) is below
    (n-1)! 2^n.  So no slot formed exceeds the bound on the entries that
    ``_slot_bits`` sets.
    """
    # no enumeration: the p(n) limit bounds the cost, about a second at n = 60
    partitions.check_enumerable(n)
    width = _slot_bits(n)
    sums = _marked_cycle_sums(n, [((1 << width) + 1) ** k - 1 for k in range(n + 1)])
    # sums[l-1][i] holds the length-l entries of every row r in its slot r
    mask = (1 << width) - 1
    return tuple(
        tuple(tuple(packed >> r * width & mask for packed in sums[l]) for l in range(r))
        for r in range(1, n + 1)
    )


#: the totals of one LHS key, which both forms of a case read.  The two
#: forms of a key are adjacent cases in grid order, so four slots serve a
#: sweep.  A total at n = 60, s = MAX_S is about 15 KB, so the largest entry,
#: 60 of them, is about 0.9 MB, and the memo holds at most about 4 MB
@lru_cache(maxsize=4)
def _length_totals(n: int, r: Optional[int], s: Optional[int]) -> Tuple[int, ...]:
    """[l-1] = sum over mu |- n, l(mu) = l of (n!/z_mu) w(mu) sum_i (mu_i)_s.

    w(mu) is <mu, r> for an r (CONJ1, from ``_covering_table(n)``), and 1
    otherwise (CONJ2 and CLASSICAL, from ``_class_table(n)``).  Each
    length's total is its moment vector dotted with ``_rising_row(s)``.
    With no s (CLASSICAL) the sum_i is dropped: sum_i m_i(mu) = l(mu), so
    the vector's sum over l is the total.  The key is the identity's own
    parameters, None where it has none; the sign and the shift of the
    form are the case's, in ``_class_sum``.
    """
    moments = _class_table(n) if r is None else _covering_table(n)[r - 1]
    if s is None:
        return tuple(sum(vector) // length for length, vector in enumerate(moments, start=1))
    row = _rising_row(s)
    return tuple(sum(map(mul, vector, row)) for vector in moments)


def _class_sum(n: int, r: int, shift: int, form: Form, totals: Tuple[int, ...]) -> Polynomial:
    """sum over mu |- n of w(mu) [sum_i (mu_i)_s] X^(l(mu) - shift) / z_mu.

    ``totals`` are ``_length_totals``, (n!/z_mu) times the rest summed per
    length.  n!/z_mu is the size of the conjugacy class of cycle type mu,
    so every term is an integer numerator over the single denominator n!.
    In the SIGNED form a term carries (-1)^(r - l(mu)).
    """
    nums = [0] * (1 - shift)
    if form is Form.SIGNED:
        nums += [-t if (r - l) % 2 else t for l, t in enumerate(totals, start=1)]
    else:
        nums += totals
    return Polynomial(nums, factorial(n))


#: one product per (lo, r).  A sweep over r extends each product by one
#: factor, and building P(s, r) touches P(s, r-1) too, so a chain holds two
#: products per s and two of P(0, .).  The largest product, P(MAX_S, 400)
#: at TOP_COEFF's largest r, is about 0.17 MB
@lru_cache(maxsize=2 * S_AXIS + 2)
def _rising_product(lo: int, r: int) -> Tuple[int, ...]:
    """Coefficients of P(lo, r) = (X+lo)(X+lo+1) ... (X+lo+r-1), constant term first.

    P(lo, r) is P(lo, r-1), read from the memo, times X + lo + r - 1, which
    maps old to new[k] = old[k-1] + (lo+r-1) old[k]: O(r) integer work.  A
    cold product recurses down to the longest one the memo holds, which at
    worst rebuilds all r factors.  Every entry is an int: a shifted signed
    Stirling number of the first kind.
    """
    if not r:
        return (1,)
    prev = _rising_product(lo, r - 1)
    c = lo + r - 1
    return tuple([a * c + b for a, b in zip(prev + (0,), (0,) + prev)])


def _falling_coeffs(c: int, n: int) -> List[int]:
    """Coefficients of [X+c]_n = (X+c)(X+c-1) ... (X+c-n+1) = P(c-n+1, n)."""
    if n < 0:
        raise ValueError("n must be non-negative")
    return list(_rising_product(c - n + 1, n))


def classical_sides(n: int, form: Form) -> SidePair:
    """The classical expansion of binom(X, n), or of binom(X+n-1, n) UNSIGNED."""
    lhs = _class_sum(n, n, 0, form, _length_totals(n, None, None))
    c = 0 if form is Form.SIGNED else n - 1
    return lhs, Polynomial(_falling_coeffs(c, n), factorial(n))


#: s! and (s-1)! for the right-hand sides, two keys per s.  MAX_S! is about
#: 16 KB.  The row of (i)_s computes its own s!, so an error in either shows
#: as a mismatch between the sides instead of scaling both
_rhs_factorial = lru_cache(maxsize=2 * S_AXIS)(factorial)


def _conj1_prefactor(n: int, r: int, s: int) -> int:
    """(s-1)! binom(n+s-1, n-r), r <= n, the integer in front of the conjecture-1 RHS.

    It would be zero for r > n, and so would every side that carries it:
    its callers return their zero pair there instead.
    """
    return _rhs_factorial(s - 1) * comb(n + s - 1, n - r)


#: one bracket per (r, s, form), which every n >= r of a sweep shares: 256
#: hold every bracket of a sweep over up to 128 (r, s) pairs in both forms.
#: A bracket is about 6 KB at r = 60, the largest r with a nonzero CONJ1 or
#: CONJ2 side, and about 0.17 MB at TOP_COEFF's r = 400, s = MAX_S, so the
#: memo holds at most about 44 MB
@lru_cache(maxsize=256)
def _conj1_bracket(r: int, s: int, form: Form) -> Tuple[int, ...]:
    """r! (binom(X+a, r) - binom(X+b, r)) as integers, constant term first.

    Both forms read the products P(s, r) and P(0, r).  UNSIGNED is
    [X+r+s-1]_r - [X+r-1]_r = P(s, r) - P(0, r).  SIGNED is
    [X]_r - [X-s]_r, and by the reflection [X+c]_r(X) = (-1)^r P(-c, r)(-X)
    its coefficient k is (-1)^(r-k) (P(0, r)_k - P(s, r)_k).
    """
    difference = map(sub, _rising_product(s, r), _rising_product(0, r))
    if form is Form.UNSIGNED:
        return tuple(difference)
    return tuple(d if (r - k) % 2 else -d for k, d in enumerate(difference))


def _conj1_rhs(r: int, s: int, form: Form, prefactor: int) -> Polynomial:
    """prefactor * (binom(X+a, r) - binom(X+b, r)), as integers over r!."""
    return Polynomial((prefactor * c for c in _conj1_bracket(r, s, form)), factorial(r))


def conj1_sides(n: int, r: int, s: int, form: Form) -> SidePair:
    """Conjecture 1: degree r-1 polynomial identity; zero on both sides for r > n."""
    if r > n:
        return _ZERO_POLYNOMIALS
    # terms with l(mu) > r vanish (row-covering coefficient is zero)
    lhs = _class_sum(n, r, 1, form, _length_totals(n, r, s))
    return lhs, _conj1_rhs(r, s, form, _conj1_prefactor(n, r, s))


def conj2_sides(n: int, s: int, form: Form) -> SidePair:
    """Conjecture 2, the r = n specialization with the covering count gone."""
    lhs = _class_sum(n, n, 1, form, _length_totals(n, None, s))
    return lhs, _conj1_rhs(n, s, form, _rhs_factorial(s - 1))


def _length_r_sum(n: int, r: int, row: Tuple[int, ...]) -> Ratio:
    """(r-1)! sum over |mu|=n, l(mu)=r of [sum_i m_i (i)_s] / [prod_i m_i!], r <= n.

    r!/prod_i m_i! is a multinomial coefficient, so the sum is the integer
    W_r . R over r, with W_r from ``_length_table(n)`` and R = row =
    _rising_row(s).
    """
    return Ratio(sum(map(mul, _length_table(n)[r - 1], row)), r)


def conj3_sides(n: int, r: int, s: int) -> SidePair:
    """Conjecture 3: the X^{r-1} coefficient identity, as exact rationals.

    No partition of n has r > n parts, and binom(n+s-1, n-r) is then zero.
    """
    if r > n:
        return _ZERO_RATIOS
    lhs = _length_r_sum(n, r, _rising_row(s))
    return lhs, Ratio(_rhs_factorial(s) * comb(n + s - 1, n - r))


def conj4_sides(n: int, r: int, s: int) -> SidePair:
    """Conjecture 4: same LHS, with the RHS resummed over first parts.

    Both sides are empty sums for r > n.
    """
    if r > n:
        return _ZERO_RATIOS
    row = _rising_row(s)
    lhs = _length_r_sum(n, r, row)
    # the column C(n-i-1, r-2), i = 1..n-r+1, dotted with row[i]: for r >= 2
    # every upper index is >= r-2 >= 0; at r = 1 the lower index is -1 and
    # every term is zero
    column = map(comb, range(n - 2, r - 3, -1), repeat(r - 2)) if r >= 2 else ()
    return lhs, Ratio(sum(map(mul, column, islice(row, 1, None))))


def const_term_sides(n: int, r: int, s: int) -> SidePair:
    """Constant-term identity: only mu = (n) contributes at X^0.

    LHS (-1)^r binom(n, r) (n)_s / n, RHS prefactor * binom(-s, r), where
    binom(-s, r) = (-1)^r binom(r+s-1, r).  Both are zero for r > n.  As
    n >= 1, (n)_s = perm(n+s-1, s).
    """
    if r > n:
        return _ZERO_RATIOS
    prefactor = _conj1_prefactor(n, r, s)
    sign = -1 if r % 2 == 1 else 1
    lhs = Ratio(sign * comb(n, r) * perm(n + s - 1, s), n)
    return lhs, Ratio(sign * prefactor * comb(r + s - 1, r))


def top_coeff_checks(n: int, r: int, s: int) -> SidePair:
    """Leading coefficients of the conjecture-1 RHS against closed forms.

    Returns one (extracted, closed-form) pair: at r = 1 two ``Ratio``s, the
    coefficient of X^0, and at r >= 2 two 2-tuples of ``Ratio``, the
    coefficients of X^{r-1} and X^{r-2}.  The extracted ones are the
    prefactor times those entries of the SIGNED ``_conj1_bracket`` over r!,
    which is what ``_conj1_rhs`` holds there, without building its other
    coefficients.  Both carry the full (s-1)! binom(n+s-1, n-r) prefactor,
    so every check is zero for r > n, where the pair is ``_ZERO_CHECKS``.
    """
    if r > n:  # so r >= 2
        return _ZERO_CHECKS
    prefactor = _conj1_prefactor(n, r, s)
    bracket = _conj1_bracket(r, s, Form.SIGNED)
    r_fact = factorial(r)
    extracted = Ratio(prefactor * bracket[r - 1], r_fact)
    closed = Ratio(prefactor * r * s, r_fact)
    if r == 1:
        return extracted, closed
    extracted_next = Ratio(prefactor * bracket[r - 2], r_fact)
    closed_next = Ratio(-prefactor * r * (r - 1) * s * (r + s - 1), 2 * r_fact)
    return (extracted, extracted_next), (closed, closed_next)


def hockey_stick_sides(n: int, r: int) -> SidePair:
    """Column-sum identity C(N, k) = sum_{i=1}^{N-1} C(i, k-1), with (N, k) = (n, r).

    Fails at k = 1 under the usual conventions; meaningful for k >= 2.  For
    k > N, C(N, k) and every C(i, k-1) with i < N are zero.
    """
    if r > n:
        return _ZERO_RATIOS
    rhs = sum(comb(i, r - 1) for i in range(1, n))
    return Ratio(comb(n, r)), Ratio(rhs)


def binomial_type_sides(n: int, s: int) -> SidePair:
    """[X+s]_n = sum_k C(n,k) [X]_{n-k} [s]_k, as polynomials in X.

    The right-hand side is sum_j a_j [X]_j with a_j = C(n, j) [s]_{n-j}.  It
    is summed by Horner's rule in the falling-factorial basis: start with
    a_n = 1, then acc <- acc (X - j) + a_j for j = n-1 down to 0, which is
    O(n^2) integer work in one coefficient list.
    """
    coeffs = [1]
    for j in range(n - 1, -1, -1):
        coeffs = [a * -j + b for a, b in zip(coeffs + [0], [0] + coeffs)]
        coeffs[0] += comb(n, j) * perm(s, n - j)
    return Polynomial(_falling_coeffs(s, n), 1), Polynomial(coeffs, 1)


class IdentitySpec(NamedTuple):
    """One identity's builder, lowest s, skip rule and largest n.

    ``build`` takes the case's fields named by its own parameters, an
    ordered subsequence of n, r, s and form, and returns one (lhs, rhs)
    pair; ``params`` holds those names, read once by ``of`` when the
    registry is built, which derives from them ``present``, whether the
    identity's cases have r, s and form, and ``arguments``, a getter of the
    builder's arguments from a case's field tuple.  ``skip_r1`` cases are
    built at r = 1 but reported SKIPPED: a boundary convention makes the
    identity fail there.  ``max_n`` is the largest n a case takes, checked
    by ``IdentityCase`` and ``SweepConfig.validate`` alike: the p(n)
    enumeration limit for builders that read a moment table (no table
    enumerates: all three come from the exponential formula, the class and
    length tables in a few ms at that n and the CONJ1 table, which packs
    every r, in about a second), and
    for the others the n at which one case, at its worst r and
    s <= ``MAX_S``, takes about a second on a 2-core Xeon.  r needs no
    bound: every builder
    gives zero for r > n without building anything of size r.
    """

    build: Callable[..., SidePair]
    params: Tuple[str, ...]
    present: Tuple[bool, bool, bool]
    arguments: Callable[[tuple], tuple]
    s_min: int = 1
    skip_r1: bool = False
    max_n: int = partitions.MAX_N

    @classmethod
    def of(cls, build: Callable, **options) -> "IdentitySpec":
        """The spec of ``build``, whose parameters are read once, here.

        ``itemgetter`` of one index returns the item itself, so a single
        argument is read as a slice of length one.
        """
        code = build.__code__
        params = code.co_varnames[: code.co_argcount]
        first, *rest = [IdentityCase._fields.index(name) for name in params]
        arguments = itemgetter(first, *rest) if rest else itemgetter(slice(first, first + 1))
        present = tuple(key in params for key in ("r", "s", "form"))
        return cls(build, params, present, arguments, **options)


#: the single registry of identities, one entry per IdentityId in its order
IDENTITIES: Dict[IdentityId, IdentitySpec] = {
    IdentityId.CLASSICAL: IdentitySpec.of(classical_sides),
    IdentityId.CONJ1: IdentitySpec.of(conj1_sides),
    IdentityId.CONJ2: IdentitySpec.of(conj2_sides),
    IdentityId.CONJ3: IdentitySpec.of(conj3_sides, s_min=0),
    # at r = 1 the resummed RHS has lower binomial index -1
    IdentityId.CONJ4: IdentitySpec.of(conj4_sides, skip_r1=True),
    IdentityId.CONST_TERM: IdentitySpec.of(const_term_sides, max_n=10**5),
    IdentityId.TOP_COEFF: IdentitySpec.of(top_coeff_checks, max_n=400),
    # 300 keeps the domain it had when a case cost O(n^3), about 1 s at
    # s = 10**4; the Horner sum takes about 0.04 s there
    IdentityId.BINOMIAL_TYPE: IdentitySpec.of(binomial_type_sides, max_n=300),
    # (n, r) plays the role of (N, k); the identity fails at k = 1
    IdentityId.HOCKEY_STICK: IdentitySpec.of(hockey_stick_sides, skip_r1=True, max_n=4000),
}


def case_sides(case: IdentityCase) -> SidePair:
    """The (lhs, rhs) pair of one case, as its identity's builder returns it."""
    values = case._values
    spec = IDENTITIES[values[0]]
    return spec.build(*spec.arguments(values))
