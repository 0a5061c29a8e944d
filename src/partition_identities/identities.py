"""Both sides of every identity, built as exact polynomials or rationals.

Builders never compare: they return (lhs, rhs) value pairs so the sweep
engine can show both sides verbatim when they disagree.  The registry
``IDENTITIES`` holds each identity's builder, and the parameters an
identity takes are that builder's parameter names, a subsequence of n, r,
s and form; ``case_sides`` passes a case's fields by those names.

The left-hand sides sum a class weight w(mu) times sum_i (mu_i)_s over
mu |- n.  Since sum_i (mu_i)_s = sum_i m_i(mu) (i)_s, such a sum is
sum_i (i)_s M[i] with the moment vector M[i] = sum_mu w(mu) m_i(mu), which
depends on neither s nor the form.  Each table is filled in one walk over
the partitions of n, which stores no partition.  ``partitions._partitions_of``
hands over each mu with z_mu, prod m_i! and l(mu) built up one
multiplicity block at a time, so no mu's parts are recounted, and a leaf
adds one term per distinct part.  Each table is keyed by n alone:
``_class_tables(n)`` holds the per-length vectors of CLASSICAL, CONJ2,
CONJ3 and CONJ4, M above W in one int per entry with a split from
``_length_bits(n)``, and ``_covering_table(n)`` those of CONJ1 for every
r <= n.  The CONJ1 table carries every r at once in polynomials in t
packed into single ints, with a slot width from ``_slot_bits(n)``.  A
case with a single (n, r) still pays for the whole n.  Both tables refuse
n > ``partitions.MAX_N`` before they allocate, and each memo has room for
every n they accept.
Every case then takes one dot product per length with its row of (i)_s,
which stops at the vector's n + 1 entries.  The vectors are rearranged
sums over the partitions, never closed forms.

Each other factor of a case is also built once per key it depends on, in
a bounded memo: the row (i)_s for every i <= ``partitions.MAX_N`` once per
s in ``_rising_row``, built whole from the recurrence
(i+1)_s = (i)_s (i+s) / i, so one row serves every n; and the bracket
r! (binom(X+a, r) - binom(X+b, r)) of the CONJ1, CONJ2 and TOP_COEFF
right-hand sides once per (r, s, form) in
``_conj1_bracket``, where n enters that side only through its integer
prefactor; and s! and (s-1)! of the right-hand sides in ``_rhs_factorial``.
CONJ1, CONJ3 and CONJ4 return their zero pair for r > n before they read a
table or build a row.

Every falling factorial [X+c]_n with an integer c, in the right-hand
sides of CLASSICAL, CONJ1, CONJ2 and TOP_COEFF and on the BINOMIAL_TYPE
left-hand side, is the integer list ``_falling_coeffs(c, n)`` over a known
denominator, and every scalar factorial is ``math.factorial``, ``perm`` or
``comb`` at integer arguments.  So every side is integers over a
denominator the builder knows: a ``Polynomial`` for the polynomial sides,
and a ``Ratio`` for the scalar ones (CONJ3, CONJ4, CONST_TERM, TOP_COEFF
and HOCKEY_STICK), over r, n, 2 r! or 1.
"""
from __future__ import annotations

import re
from enum import Enum
from functools import lru_cache
from math import comb, factorial, perm
from operator import mul
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple, Union

from . import partitions
from .polynomials import Polynomial, Ratio

#: the largest s a case takes.  The row (i)_s, i <= 60, grows with s: at
#: s = 10**4 its recurrence takes about 8 ms on a 2-core Xeon, paid once per
#: s per process while ``_rising_row`` keeps the row
MAX_S = 10**4

SideValue = Union[Polynomial, Ratio]
SidePair = Tuple[SideValue, SideValue]


class IdentityId(Enum):
    CLASSICAL = "CLASSICAL"
    CONJ1 = "CONJ1"
    CONJ2 = "CONJ2"
    CONJ3 = "CONJ3"
    CONJ4 = "CONJ4"
    CONST_TERM = "CONST_TERM"
    TOP_COEFF = "TOP_COEFF"
    BINOMIAL_TYPE = "BINOMIAL_TYPE"
    HOCKEY_STICK = "HOCKEY_STICK"


class Form(Enum):
    SIGNED = "SIGNED"
    UNSIGNED = "UNSIGNED"


#: the types of an optional integer field of a case; bool is not one of them
_INT_OR_NONE = (int, type(None))


class IdentityCase:
    """One identity plus its integer parameters, checked when built.

    Immutable and equal by value, like a frozen record, but not a tuple:
    every instance went through the checks, and none equals a bare tuple.
    """

    __slots__ = ("identity_id", "n", "r", "s", "form")

    def __init__(
        self,
        identity_id: IdentityId,
        n: int,
        r: Optional[int] = None,
        s: Optional[int] = None,
        form: Optional[Form] = None,
    ) -> None:
        spec = IDENTITIES[identity_id]
        name = identity_id.value
        # exact types, so a bool, a float or a form's name is refused here,
        # not taken for another value or failed on inside a builder
        if type(n) is not int or type(r) not in _INT_OR_NONE or type(s) not in _INT_OR_NONE:
            raise TypeError(f"{name}: n, r and s must be int")
        if form is not None and type(form) is not Form:
            raise TypeError(f"{name}: form must be a Form, got {form!r}")
        if not 1 <= n <= spec.max_n:
            raise ValueError(f"{name}: n must be in 1..{spec.max_n}")
        optional = (("parameter r", "r", r), ("parameter s", "s", s), ("form", "form", form))
        for label, key, value in optional:
            wanted = key in spec.params
            if wanted != (value is not None):
                raise ValueError(f"{name}: {label} {'required' if wanted else 'not applicable'}")
        if r is not None and r < 1:
            raise ValueError(f"{name}: r must be >= 1")
        if s is not None and not spec.s_min <= s <= MAX_S:
            raise ValueError(f"{name}: s must be in {spec.s_min}..{MAX_S}")
        for key, value in zip(self.__slots__, (identity_id, n, r, s, form)):
            object.__setattr__(self, key, value)

    def __setattr__(self, key: str, value) -> None:
        raise AttributeError(f"IdentityCase is immutable: cannot assign {key!r}")

    def __delattr__(self, key: str) -> None:
        raise AttributeError(f"IdentityCase is immutable: cannot delete {key!r}")

    def _key(self) -> tuple:
        return (self.identity_id, self.n, self.r, self.s, self.form)

    def __eq__(self, other) -> bool:
        if type(other) is not IdentityCase:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        pairs = ", ".join(f"{k}={v!r}" for k, v in zip(self.__slots__, self._key()))
        return f"IdentityCase({pairs})"

    def __reduce__(self):
        # rebuilt through __init__, so a copy or an unpickled case is checked too
        return IdentityCase, self._key()

    @property
    def skipped(self) -> bool:
        """True when the case is evaluated but reported SKIPPED, not judged."""
        return self.r == 1 and IDENTITIES[self.identity_id].skip_r1

    def __str__(self) -> str:
        fields = [f"n={self.n}"]
        if self.r is not None:
            fields.append(f"r={self.r}")
        if self.s is not None:
            fields.append(f"s={self.s}")
        if self.form is not None:
            fields.append(f"form={self.form.value}")
        return f"{self.identity_id.value}({','.join(fields)})"

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


#: one row per s, which every n and identity of a sweep shares: 32 rows hold
#: a sweep's s axis of up to 32 values.  The largest row, (i)_MAX_S for
#: i <= 60, is about 0.95 MB, so the memo holds at most about 30 MB
@lru_cache(maxsize=32)
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


#: one integer vector indexed by part i <= n per length l = 1, 2, ...
Moments = Tuple[Tuple[int, ...], ...]


@lru_cache(maxsize=partitions.MAX_N + 1)
def _class_tables(n: int) -> Tuple[Moments, Moments]:
    """(M, W) for l = 1..n: sums over mu |- n with l(mu) = l of w(mu) m_i(mu).

    M_l has w = n!/z_mu (CLASSICAL, CONJ2) and W_l has w = l!/prod_j m_j!
    (CONJ3, CONJ4).  Neither reads <mu, r>, so CONJ2 never calls gen_binom,
    and W_l is summed over the partitions, never from its closed form
    l binom(n-i-1, l-2), which is the CONJ4 right-hand side.  Both are
    summed at once: one int per (l, i) holds M above W, shifted by
    ``_length_bits(n)``, so a leaf packs its two weights once and adds one
    multiple of the pair per distinct part.  The sums are split once, at
    the end.
    """
    partitions.check_enumerable(n)  # before the O(n^2) vectors are allocated
    n_fact = factorial(n)
    width = _length_bits(n)
    length_fact = [factorial(l) for l in range(n + 1)]
    # sums[l][i], for l = 1..n; no partition of n > 0 has length 0
    sums = [[0] * (n + 1) for _ in range(n + 1)]

    def add(blocks: List[Tuple[int, int]], length: int, z: int, mult_factorial: int, _: int) -> None:
        # n!/z_mu, the number of permutations of cycle type mu in S_n, above
        # the multinomial l!/prod m_j!
        packed = (n_fact // z) << width | length_fact[length] // mult_factorial
        vector = sums[length]
        for i, m in blocks:
            vector[i] += packed * m

    partitions._partitions_of(n, add)
    mask = (1 << width) - 1
    classes = tuple(tuple(packed >> width for packed in vector) for vector in sums[1:])
    lengths = tuple(tuple(packed & mask for packed in vector) for vector in sums[1:])
    return classes, lengths


def _length_bits(n: int) -> int:
    """Bits below the class sizes in a packed ``_class_tables`` sum at n.

    Summed over mu |- n with l(mu) = l, l!/prod_j m_j! counts the
    compositions of n into l parts, binom(n-1, l-1) < 2^(n-1) of them, and
    m_i(mu) <= n, so every W entry, and each partial sum of it, is below
    n 2^(n-1) and never carries into the M entry above it.
    """
    return (n << (n - 1)).bit_length()


def _slot_bits(n: int) -> int:
    """Bits per coefficient of the packed CONJ1 table at n.

    An entry sum over mu of (n!/z_mu) <mu, r> m_i(mu) is at most n! 2^n n:
    the class sizes add up to n!, <mu, r> <= prod_i (2^mu_i - 1) < 2^n and
    m_i <= n.  Every term is >= 0, so each slot, and each partial sum in
    it, stays below 2^width and never carries into the next one.
    """
    return (factorial(n) * n << n).bit_length()


@lru_cache(maxsize=partitions.MAX_N + 1)
def _covering_table(n: int) -> Tuple[Moments, ...]:
    """[r-1][l-1][i] = sum over l(mu) = l of (n!/z_mu) <mu, r> m_i(mu), r <= n.

    <mu, r> is zero for l(mu) > r, so row r holds the lengths l <= r.  A
    polynomial in t with nonnegative coefficients below 2^width is packed
    into one int, its value at t = 2^width (Kronecker substitution), so C
    bigint arithmetic adds and multiplies it without a carry between slots.
    mu's row prod_i ((1+t)^mu_i - 1) is a product of packed factors, which
    the partition walk multiplies in one multiplicity block at a time; a
    part 1 contributes t, a shift.  One packed sum per (l, i) takes
    (n!/z_mu) m_i(mu) times the row, for every r at once, and is unpacked
    once at the end.
    """
    partitions.check_enumerable(n)  # before n + 1 factors of up to n * width bits
    width = _slot_bits(n)
    n_fact = factorial(n)
    factors = [((1 << width) + 1) ** a - 1 for a in range(n + 1)]
    sums = [[0] * (n + 1) for _ in range(n)]

    def add(blocks: List[Tuple[int, int]], length: int, z: int, _: int, row: int) -> None:
        # row is the product of the factors of mu's parts above 1; ones,
        # the last block, are a shift
        weighted = n_fact // z * row
        part, ones = blocks[-1]
        if part == 1:
            weighted <<= width * ones
        vector = sums[length - 1]
        for i, m in blocks:
            vector[i] += weighted * m

    partitions._partitions_of(n, add, factors)
    mask = (1 << width) - 1
    shifts = range(0, (n + 1) * width, width)
    # by_length[l-1][r] is the length-l vector of row r: slot r of each sum
    by_length = [
        list(zip(*[[packed >> k & mask for k in shifts] for packed in vector]))
        for vector in sums
    ]
    return tuple(tuple(by_length[l][r] for l in range(r)) for r in range(1, n + 1))


def _class_sum(
    n: int,
    r: int,
    shift: int,
    form: Form,
    moments: Moments,
    row: Optional[Tuple[int, ...]],
) -> Polynomial:
    """sum over mu |- n of w(mu) [sum_i (mu_i)_s] X^(l(mu) - shift) / z_mu.

    ``moments`` holds (n!/z_mu) w(mu) m_i(mu) per length, and each length's
    total is its vector dotted with ``row``, the case's
    ``_rising_row(s)``.  With no row (CLASSICAL) the term is w(mu) alone:
    sum_i m_i(mu) = l(mu), so the vector's sum over l is the total.
    n!/z_mu is the size of the conjugacy class of cycle type mu, so every
    term is an integer numerator over the single denominator n!.  In the
    SIGNED form a term carries (-1)^(r - l(mu)).
    """
    n_fact = factorial(n)
    coeffs = [0] * (n + 1)
    for length, vector in enumerate(moments, start=1):
        total = sum(vector) // length if row is None else sum(map(mul, vector, row))
        if form is Form.SIGNED and (r - length) % 2 == 1:
            total = -total
        coeffs[length] = total
    return Polynomial(coeffs[shift:], n_fact)


def _falling_coeffs(c: int, n: int) -> List[int]:
    """Coefficients of [X+c]_n, constant term first, one factor at a time.

    Multiplying by (X + c - i) maps old to new[k] = old[k-1] + (c-i) old[k],
    so every entry is an int: a shifted signed Stirling number of the first
    kind.
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    coeffs = [1]
    for i in range(n):
        shift = c - i
        coeffs = [a * shift + b for a, b in zip(coeffs + [0], [0] + coeffs)]
    return coeffs


def classical_sides(n: int, form: Form) -> SidePair:
    """The classical expansion of binom(X, n), or of binom(X+n-1, n) UNSIGNED."""
    lhs = _class_sum(n, n, 0, form, _class_tables(n)[0], None)
    c = 0 if form is Form.SIGNED else n - 1
    return lhs, Polynomial(_falling_coeffs(c, n), factorial(n))


#: s! and (s-1)! for the right-hand sides, two keys per s: 64 hold a sweep's
#: s axis of up to 32 values.  MAX_S! is about 16 KB, so the memo holds at
#: most about 1 MB.  The row of (i)_s computes its own s!, so an error in
#: either shows as a mismatch between the sides instead of scaling both
_rhs_factorial = lru_cache(maxsize=64)(factorial)


def _conj1_prefactor(n: int, r: int, s: int) -> int:
    """(s-1)! binom(n+s-1, n-r), the integer in front of the conjecture-1 RHS.

    It is zero exactly when r > n, and then so is every side that carries it.
    """
    return _rhs_factorial(s - 1) * comb(n + s - 1, n - r) if r <= n else 0


#: one bracket per (r, s, form), which every n >= r of a sweep shares: 256
#: hold every bracket of a sweep over up to 128 (r, s) pairs in both forms.
#: A bracket is about 6 KB at r = 60, the largest r with a nonzero CONJ1 or
#: CONJ2 side, and about 0.17 MB at TOP_COEFF's r = 400, s = MAX_S, so the
#: memo holds at most about 44 MB
@lru_cache(maxsize=256)
def _conj1_bracket(r: int, s: int, form: Form) -> Tuple[int, ...]:
    """r! (binom(X+a, r) - binom(X+b, r)) as integers, constant term first."""
    a, b = (0, -s) if form is Form.SIGNED else (r + s - 1, r - 1)
    return tuple(x - y for x, y in zip(_falling_coeffs(a, r), _falling_coeffs(b, r)))


def _conj1_rhs(r: int, s: int, form: Form, prefactor: int) -> Polynomial:
    """prefactor * (binom(X+a, r) - binom(X+b, r)), as integers over r!."""
    return Polynomial((prefactor * c for c in _conj1_bracket(r, s, form)), factorial(r))


def conj1_sides(n: int, r: int, s: int, form: Form) -> SidePair:
    """Conjecture 1: degree r-1 polynomial identity; zero on both sides for r > n."""
    if r > n:
        return Polynomial(), Polynomial()
    # terms with l(mu) > r vanish (row-covering coefficient is zero)
    lhs = _class_sum(n, r, 1, form, _covering_table(n)[r - 1], _rising_row(s))
    return lhs, _conj1_rhs(r, s, form, _conj1_prefactor(n, r, s))


def conj2_sides(n: int, s: int, form: Form) -> SidePair:
    """Conjecture 2, the r = n specialization with the covering count gone."""
    lhs = _class_sum(n, n, 1, form, _class_tables(n)[0], _rising_row(s))
    return lhs, _conj1_rhs(n, s, form, _rhs_factorial(s - 1))


def _length_r_sum(n: int, r: int, row: Tuple[int, ...]) -> Ratio:
    """(r-1)! sum over |mu|=n, l(mu)=r of [sum_i m_i (i)_s] / [prod_i m_i!], r <= n.

    r!/prod_i m_i! is a multinomial coefficient, so the sum is the integer
    W_r . R over r, with W_r from ``_class_tables(n)`` and R = row =
    _rising_row(s).
    """
    return Ratio(sum(map(mul, _class_tables(n)[1][r - 1], row)), r)


def conj3_sides(n: int, r: int, s: int) -> SidePair:
    """Conjecture 3: the X^{r-1} coefficient identity, as exact rationals.

    No partition of n has r > n parts, and binom(n+s-1, n-r) is then zero.
    """
    if r > n:
        return Ratio(0), Ratio(0)
    lhs = _length_r_sum(n, r, _rising_row(s))
    return lhs, Ratio(_rhs_factorial(s) * comb(n + s - 1, n - r))


def conj4_sides(n: int, r: int, s: int) -> SidePair:
    """Conjecture 4: same LHS, with the RHS resummed over first parts.

    Both sides are empty sums for r > n.
    """
    if r > n:
        return Ratio(0), Ratio(0)
    row = _rising_row(s)
    lhs = _length_r_sum(n, r, row)
    # for r >= 2 every upper index n-i-1 is >= r-2 >= 0; at r = 1 the lower
    # index is -1 and every term is zero
    rhs = sum(
        (comb(n - i - 1, r - 2) if r >= 2 else 0) * row[i]
        for i in range(1, n - r + 2)
    )
    return lhs, Ratio(rhs)


def const_term_sides(n: int, r: int, s: int) -> SidePair:
    """Constant-term identity: only mu = (n) contributes at X^0.

    LHS (-1)^r binom(n, r) (n)_s / n, RHS prefactor * binom(-s, r), where
    binom(-s, r) = (-1)^r binom(r+s-1, r).  Both are zero for r > n.  As
    n >= 1, (n)_s = perm(n+s-1, s).
    """
    prefactor = _conj1_prefactor(n, r, s)
    if not prefactor:
        return Ratio(0), Ratio(0)
    sign = -1 if r % 2 == 1 else 1
    lhs = Ratio(sign * comb(n, r) * perm(n + s - 1, s), n)
    return lhs, Ratio(sign * prefactor * comb(r + s - 1, r))


def top_coeff_checks(n: int, r: int, s: int) -> List[SidePair]:
    """Leading coefficients of the conjecture-1 RHS against closed forms.

    Returns (extracted, closed-form) pairs for X^{r-1} and, when r >= 2,
    X^{r-2}.  Both carry the full (s-1)! binom(n+s-1, n-r) prefactor, so
    every pair is zero for r > n.
    """
    prefactor = _conj1_prefactor(n, r, s)
    if not prefactor:
        return [(Ratio(0), Ratio(0))] * min(r, 2)
    rhs = _conj1_rhs(r, s, Form.SIGNED, prefactor)
    r_fact = factorial(r)
    pairs = [(rhs.coefficient(r - 1), Ratio(prefactor * r * s, r_fact))]
    if r >= 2:
        closed = Ratio(-prefactor * r * (r - 1) * s * (r + s - 1), 2 * r_fact)
        pairs.append((rhs.coefficient(r - 2), closed))
    return pairs


def hockey_stick_sides(n: int, r: int) -> SidePair:
    """Column-sum identity C(N, k) = sum_{i=1}^{N-1} C(i, k-1), with (N, k) = (n, r).

    Fails at k = 1 under the usual conventions; meaningful for k >= 2.
    """
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
    pair or a list of them; ``params`` holds those names, read once by
    ``of`` when the registry is built.  ``skip_r1`` cases are built at
    r = 1 but reported SKIPPED: a boundary convention makes the identity
    fail there.  ``max_n`` is the largest n a case takes, checked by
    ``IdentityCase`` and ``SweepConfig.validate`` alike: the p(n)
    enumeration limit for builders that read the partitions of n, and for
    the others the n at which one case, at its worst r and s <= ``MAX_S``,
    takes about a second on a 2-core Xeon.  r needs no bound: every builder
    gives zero for r > n without building anything of size r.
    """

    build: Callable[..., Union[SidePair, List[SidePair]]]
    params: Tuple[str, ...]
    s_min: int = 1
    skip_r1: bool = False
    max_n: int = partitions.MAX_N

    @classmethod
    def of(cls, build: Callable, **options) -> "IdentitySpec":
        """The spec of ``build``, whose parameters are read once, here."""
        code = build.__code__
        return cls(build, code.co_varnames[: code.co_argcount], **options)


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


def case_sides(case: IdentityCase) -> List[SidePair]:
    """All (lhs, rhs) pairs for one case; a single pair except TOP_COEFF."""
    spec = IDENTITIES[case.identity_id]
    sides = spec.build(*[getattr(case, name) for name in spec.params])
    return sides if isinstance(sides, list) else [sides]
