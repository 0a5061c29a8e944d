"""Integer partitions with length constraints and their statistics.

One walk, ``_partitions_of(n, leaf)``, visits the partitions of n in
Knuth's multiplicity form (TAOCP 4A, 7.2.1.4): depth first over
multiplicity blocks (part i, multiplicity m), so each tree edge extends
what a leaf needs by one block, and a leaf gets it without recounting its
parts.  The small parts that end each partition come from tails
precomputed per remaining sum, in a loop rather than a recursive call.  It
keeps no partition, hands each one's blocks and length to ``leaf`` in
decreasing lexicographic order, and refuses n > ``MAX_N`` before its first
leaf.  ``MAX_N`` is derived once, at import, from Euler's pentagonal-number
recurrence for p(n), so the refusal is one comparison.  The walk serves
the listing, ``for_each_partition``, and the tests' oracles.  No moment
table of ``identities`` visits a partition: the CONJ1, class-size and
CONJ3/CONJ4 length tables all come from one recurrence, the exponential
formula.
``Partition``, whose ``z_value`` and ``multiplicities`` recount a
partition's parts, ``for_each_partition``, which hands each partition on
as the walk reaches it, and ``enumerate_partitions``, which lists them,
are the public API.
"""
from __future__ import annotations

from collections import Counter
from itertools import count
from math import factorial
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from .polynomials import Value

#: textual form of the empty partition
EMPTY_SYMBOL = "ε"

#: the most partitions one enumeration may produce.  The walk stores no
#: partition, so this bounds time rather than memory
MAX_PARTITIONS = 10**6


class Partition(Value):
    """A weakly decreasing sequence of positive integers.

    Immutable value object (``polynomials.Value``) with the one field
    ``parts``, a tuple of ``int``s; the empty partition is the unique
    partition of 0.
    """

    __slots__ = ()
    _fields = ("parts",)

    def __init__(self, parts: Sequence[int] = ()):
        parts = tuple(parts)
        for i, p in enumerate(parts):
            # exact int, so a float, a bool or a digit string is refused,
            # not truncated or converted into a partition nobody asked about
            if type(p) is not int:
                raise TypeError(f"parts must be int, got {p!r}")
            if p < 1:
                raise ValueError(f"parts must be positive, got {p}")
            if i > 0 and parts[i - 1] < p:
                raise ValueError(f"parts must be weakly decreasing: {parts}")
        self._values = (parts,)

    @classmethod
    def _of_walk(cls, parts: Tuple[int, ...]) -> "Partition":
        """The partition of ``parts``, which the walk made positive and
        weakly decreasing, with none of ``__init__``'s checks."""
        partition = object.__new__(cls)
        partition._values = (parts,)
        return partition

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
        # the listing writes every partition of n: one slot read, not two
        # property reads
        (parts,) = self._values
        if not parts:
            return EMPTY_SYMBOL
        return "+".join(str(p) for p in parts)

    def __repr__(self) -> str:
        return f"Partition({list(self.parts)})"

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


def _partitions_of(n: int, leaf: Callable[[List[Tuple[int, int]], int], None]) -> None:
    """Call ``leaf(blocks, length)`` once per partition of n, in decreasing lex order.

    Refuses n > MAX_N before the first call.  The walk is depth first over
    multiplicity blocks (i, m), i decreasing along a path and m decreasing
    among siblings, so a partition shares the state of every block it has in
    common with the one before.  ``blocks`` is the partition's (i, m) list,
    largest part first; it is the walk's own list, or a copy of it with a
    tail added, and may change once ``leaf`` returns.  Each tree edge (i, m)
    adds m to ``length``.  A recursive call places the parts above 2.  The
    twos and ones that end a path are placed by a loop over tails
    precomputed per sum, each adding its blocks and length at once.
    """
    check_enumerable(n)
    # tails[rest]: each tail of m >= 1 twos and rest - 2m ones, m decreasing,
    # as (its blocks, its length)
    tails = [
        [
            ([(2, m), (1, rest - 2 * m)] if rest > 2 * m else [(2, m)], rest - m)
            for m in range(rest // 2, 0, -1)
        ]
        for rest in range(n + 1)
    ]
    blocks: List[Tuple[int, int]] = []
    push, pop = blocks.append, blocks.pop

    def grow(rest: int, top: int, length: int) -> None:
        # the parts still to place add up to rest > 0, and none is above top
        for i in range(min(rest, top), 2, -1):
            for m in range(rest // i, 0, -1):
                push((i, m))
                left = rest - i * m
                if left:
                    grow(left, i - 1, length + m)
                else:
                    leaf(blocks, length + m)
                pop()
        for tail, tail_length in tails[rest]:
            leaf(blocks + tail, length + tail_length)
        push((1, rest))
        leaf(blocks, length + rest)
        pop()

    if n == 0:
        leaf(blocks, 0)
    else:
        grow(n, n, 0)


def for_each_partition(
    n: int,
    visit: Callable[[Partition], None],
    min_len: int = 0,
    max_len: Optional[int] = None,
) -> None:
    """Call ``visit`` on each partition of n with length in [min_len, max_len].

    Decreasing lex order; ``max_len=None`` means unbounded.  Every refusal
    (a negative n or length, n > MAX_N) comes before the first call, and
    no partition is kept after its call returns.
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    if min_len < 0 or (max_len is not None and max_len < 0):
        raise ValueError("lengths must be non-negative")
    # no partition of n has more than n parts
    max_len = n if max_len is None else max_len

    def keep(blocks: List[Tuple[int, int]], length: int) -> None:
        if min_len <= length <= max_len:
            parts: List[int] = []
            for i, m in blocks:
                parts += [i] * m
            visit(Partition._of_walk(tuple(parts)))

    _partitions_of(n, keep)


def enumerate_partitions(
    n: int,
    min_len: int = 0,
    max_len: Optional[int] = None,
) -> List[Partition]:
    """Partitions of n with length in [min_len, max_len], decreasing lex.

    ``max_len=None`` means unbounded.  Deterministic order, no duplicates.
    """
    found: List[Partition] = []
    for_each_partition(n, found.append, min_len, max_len)
    return found
