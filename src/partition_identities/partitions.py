"""Integer partitions with length constraints and their statistics.

The left-hand sides read partitions from one cycle-class table,
``cycle_classes(n, length)``: the partitions mu |- n of one length, in
decreasing lexicographic order, each with the statistics the class sums
need (parts, multiplicities, prod_i m_i! and the class size n!/z_mu).  A
bucket is built on first use from the memoized ``_partitions_of(n)``, so
the p(n) limit applies to it, and a process builds only the lengths its
cases read.  ``Partition`` with ``z_value`` and ``multiplicities``, and
``enumerate_partitions``, are the public API and the slower reference the
table is tested against.
"""
from __future__ import annotations

from collections import Counter
from functools import lru_cache
from itertools import groupby
from math import factorial, prod
from typing import Dict, Iterator, List, NamedTuple, Optional, Sequence, Tuple

#: textual form of the empty partition
EMPTY_SYMBOL = "ε"

#: the most partitions one enumeration may produce, so n <= 60 (p(60) = 966467).
#: ``_partitions_of`` keeps every tuple of each n it enumerated, and
#: ``cycle_classes`` one record per partition of each (n, length) it built,
#: so time and memory grow like p(n) times the number of n held
MAX_PARTITIONS = 10**6


class Partition:
    """A weakly decreasing sequence of positive integers.

    Immutable value object; the empty partition is the unique partition
    of 0.
    """

    __slots__ = ("parts",)

    def __init__(self, parts: Sequence[int] = ()):
        parts = tuple(int(p) for p in parts)
        for i, p in enumerate(parts):
            if p < 1:
                raise ValueError(f"parts must be positive, got {p}")
            if i > 0 and parts[i - 1] < p:
                raise ValueError(f"parts must be weakly decreasing: {parts}")
        self.parts = parts

    @property
    def weight(self) -> int:
        return sum(self.parts)

    @property
    def length(self) -> int:
        return len(self.parts)

    def multiplicities(self) -> Dict[int, int]:
        """Map part value -> multiplicity; absent keys mean zero."""
        return dict(Counter(self.parts))

    def z_value(self) -> int:
        """z = prod_i i^{m_i} m_i!, the centralizer order of the cycle type."""
        z = 1
        for i, m in self.multiplicities().items():
            z *= i**m * factorial(m)
        return z

    def cells(self) -> Iterator[Tuple[int, int]]:
        """Ferrers diagram cells (row, column), 1-based."""
        for i, p in enumerate(self.parts, start=1):
            for j in range(1, p + 1):
                yield (i, j)

    @classmethod
    def from_multiplicities(cls, mult: Dict[int, int]) -> "Partition":
        parts: List[int] = []
        for value in sorted(mult, reverse=True):
            parts.extend([value] * mult[value])
        return cls(parts)

    @classmethod
    def parse(cls, text: str) -> "Partition":
        """Parse "3+1+1"; "ε" or the empty string is the empty partition."""
        text = text.strip()
        if text in ("", EMPTY_SYMBOL):
            return cls()
        try:
            parts = [int(tok) for tok in text.split("+")]
        except ValueError as exc:
            raise ValueError(f"malformed partition {text!r}") from exc
        return cls(parts)

    def __str__(self) -> str:
        if not self.parts:
            return EMPTY_SYMBOL
        return "+".join(str(p) for p in self.parts)

    def __repr__(self) -> str:
        return f"Partition({list(self.parts)})"

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Partition):
            return self.parts == other.parts
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.parts)

    def __iter__(self) -> Iterator[int]:
        return iter(self.parts)

    def __len__(self) -> int:
        return len(self.parts)


def partition_count(n: int) -> int:
    """p(n) by Euler's pentagonal-number recurrence, without enumerating."""
    counts = [1]
    for m in range(1, n + 1):
        total, k = 0, 1
        while (g := k * (3 * k - 1) // 2) <= m:
            sign = 1 if k % 2 else -1
            total += sign * counts[m - g]
            if g + k <= m:
                total += sign * counts[m - g - k]
            k += 1
        counts.append(total)
    return counts[n]


def check_enumerable(n: int) -> None:
    """Raise ValueError if n has more than MAX_PARTITIONS partitions."""
    count = partition_count(n)
    if count > MAX_PARTITIONS:
        raise ValueError(
            f"n={n} has {count} partitions, more than the {MAX_PARTITIONS} "
            "one enumeration may produce"
        )


# 64 keys hold every n <= 60 that check_enumerable accepts
@lru_cache(maxsize=64)
def _partitions_of(n: int) -> Tuple[Tuple[int, ...], ...]:
    """All partitions of n in decreasing lexicographic order of parts.

    Refuses, before generating anything, an n with more than
    MAX_PARTITIONS partitions.
    """
    check_enumerable(n)

    def gen(remaining: int, max_part: int) -> Iterator[Tuple[int, ...]]:
        if remaining == 0:
            yield ()
            return
        for p in range(min(remaining, max_part), 0, -1):
            for rest in gen(remaining - p, p):
                yield (p,) + rest

    return tuple(gen(n, n))


def enumerate_partitions(
    n: int,
    min_len: int = 0,
    max_len: Optional[int] = None,
) -> List[Partition]:
    """Partitions of n with length in [min_len, max_len], decreasing lex.

    ``max_len=None`` means unbounded.  Deterministic order, no duplicates.
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    if min_len < 0 or (max_len is not None and max_len < 0):
        raise ValueError("lengths must be non-negative")
    out = []
    for parts in _partitions_of(n):
        if len(parts) < min_len:
            continue
        if max_len is not None and len(parts) > max_len:
            continue
        out.append(Partition(parts))
    return out


class CycleClass(NamedTuple):
    """The partition mu |- n as a cycle type of S_n, with its statistics.

    ``parts`` is the same tuple ``Partition.parts`` holds, so ``gen_binom``
    reads a class as it reads a partition.
    """

    parts: Tuple[int, ...]
    #: (part, multiplicity) pairs, largest part first
    mults: Tuple[Tuple[int, int], ...]
    #: prod_i m_i!
    mult_factorial: int
    #: n!/z_mu, the number of permutations of cycle type mu
    class_size: int


# 128 buckets hold all n + 1 lengths of any n <= 60, so a sweep builds each
# bucket once while it walks one n
@lru_cache(maxsize=128)
def cycle_classes(n: int, length: int) -> Tuple[CycleClass, ...]:
    """The partitions of n with exactly ``length`` parts, decreasing lex."""
    if n < 0 or length < 0:
        raise ValueError("n and length must be non-negative")
    n_fact = factorial(n)
    # share one tuple per distinct (part, m) pair: the table holds one record
    # per partition, and separate pair tuples would be most of its memory
    pairs: Dict[Tuple[int, int], Tuple[int, int]] = {}
    out = []
    for parts in _partitions_of(n):
        if len(parts) != length:
            continue
        mults = tuple(
            pairs.setdefault(pair, pair)
            for pair in ((i, len(list(run))) for i, run in groupby(parts))
        )
        mult_factorial = prod(factorial(m) for _, m in mults)
        z = mult_factorial * prod(i**m for i, m in mults)
        out.append(CycleClass(parts, mults, mult_factorial, n_fact // z))
    return tuple(out)
