"""Integer partitions with length constraints and their statistics.

``_partitions_of(n)`` streams the partitions of n in decreasing
lexicographic order and keeps none of them; it refuses n > ``MAX_N``
before it yields anything.  ``MAX_N`` is derived once, at import, from
the same pentagonal recurrence as ``partition_count``, so the refusal is
one comparison.  The left-hand sides of ``identities.py`` walk the
partitions once per n into their moment tables.  ``Partition`` with
``z_value`` and ``multiplicities``, and ``enumerate_partitions``, are
the public API and the slower reference those tables are tested against.
"""
from __future__ import annotations

from collections import Counter
from itertools import count, islice
from math import factorial
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

#: textual form of the empty partition
EMPTY_SYMBOL = "ε"

#: the most partitions one enumeration may produce.  The walk stores no
#: partition, so this bounds time rather than memory
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


def _partition_counts() -> Iterator[int]:
    """p(0), p(1), p(2), ... by Euler's pentagonal-number recurrence."""
    counts = [1]
    yield 1
    for m in count(1):
        total, k = 0, 1
        while (g := k * (3 * k - 1) // 2) <= m:
            sign = 1 if k % 2 else -1
            total += sign * counts[m - g]
            if g + k <= m:
                total += sign * counts[m - g - k]
            k += 1
        counts.append(total)
        yield total


def partition_count(n: int) -> int:
    """p(n) by Euler's pentagonal-number recurrence, without enumerating."""
    return next(islice(_partition_counts(), n, None))


#: the largest n with p(n) <= MAX_PARTITIONS; p is increasing, so the
#: recurrence stops at the first n past it
MAX_N = next(n for n, p in enumerate(_partition_counts()) if p > MAX_PARTITIONS) - 1


def check_enumerable(n: int) -> None:
    """Raise ValueError if n has more than MAX_PARTITIONS partitions."""
    if n > MAX_N:
        raise ValueError(
            f"n={n} has more than {MAX_PARTITIONS} partitions; "
            f"enumeration stops at n={MAX_N}"
        )


def _partitions_of(n: int) -> Iterator[Tuple[int, ...]]:
    """The partitions of n in decreasing lexicographic order of parts, lazily.

    Refuses n > MAX_N before it yields anything.  The walk is Zoghbi and
    Stojmenovic's ZS1: x[:m] is the partition and x[h] its last part above 1.
    """
    check_enumerable(n)
    if n == 0:
        yield ()
        return
    x = [1] * n
    x[0], m, h = n, 1, 0
    yield (n,)
    while x[0] != 1:
        if x[h] == 2:
            # (..., 2, 1, ..., 1) -> (..., 1, 1, 1, ..., 1)
            x[h], m, h = 1, m + 1, h - 1
        else:
            # lower x[h] to r and refill the freed t = 1 + (m-h-1 ones)
            # with copies of r, then the remainder
            r, t = x[h] - 1, m - h
            x[h] = r
            while t >= r:
                h += 1
                x[h] = r
                t -= r
            m = h + 1 if t == 0 else h + 2
            if t > 1:
                h += 1
                x[h] = t
        yield tuple(x[:m])


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
    # no partition of n has more than n parts
    max_len = n if max_len is None else max_len
    return [Partition(parts) for parts in _partitions_of(n) if min_len <= len(parts) <= max_len]

