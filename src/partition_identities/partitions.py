"""Integer partitions with length constraints and their statistics.

``_partitions_of(n, leaf)`` walks the partitions of n in decreasing
lexicographic order and keeps none of them.  It goes depth first over
multiplicity blocks (part i, multiplicity m), so each tree edge extends
z_mu, prod m_i!, l(mu) and an optional product of per-part factors by one
block, and a leaf gets them without recounting its parts (Knuth, TAOCP
4A, 7.2.1.4, generates partitions in this multiplicity form).  An edge
reads its factors of z_mu and prod m_i! from lists built once per n, and
the twos and ones that end each partition come from tails precomputed per
remaining sum, in a loop rather than a recursive call.  It refuses
n > ``MAX_N`` before its first leaf.  ``MAX_N`` is derived once, at
import, from Euler's pentagonal-number recurrence for p(n), so the
refusal is one comparison.  The moment tables of ``identities.py``
and ``for_each_partition`` are its only callers.  ``Partition``, whose
``z_value`` and ``multiplicities`` recount a partition's parts,
``for_each_partition``, which hands each partition on as the walk reaches
it, and ``enumerate_partitions``, which lists them, are the public API.
"""
from __future__ import annotations

from collections import Counter
from itertools import accumulate, count, repeat
from math import factorial
from operator import mul
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

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


#: ``leaf(blocks, length, z, mult_factorial, row)``, called once per partition
Leaf = Callable[[List[Tuple[int, int]], int, int, int, int], None]


def _partitions_of(n: int, leaf: Leaf, factors: Optional[Sequence[int]] = None) -> None:
    """Call ``leaf`` once for each partition of n, in decreasing lexicographic order.

    Refuses n > MAX_N before the first call.  The walk is depth first over
    multiplicity blocks (i, m), i decreasing along a path and m decreasing
    among siblings, so a partition shares the state of every block it has in
    common with the one before.  ``blocks`` is the partition's (i, m) list,
    largest part first; it is the walk's own list and changes once ``leaf``
    returns.  Each tree edge (i, m) multiplies z = prod i^m m! by i^m m! and
    ``mult_factorial`` = prod m! by m!, both read from lists built once per
    call, adds m to ``length`` and multiplies ``row`` by ``factors[i]`` ** m,
    which it takes from a chain of one multiply per edge; with no factors
    ``row`` is 1.  A recursive call places the parts above 2.  The twos and
    ones that end a path are placed by a loop over tails precomputed per
    sum, each adding its blocks, length and factors of z and prod m! at
    once.  A block of ones is always the last, and leaves ``row`` alone:
    ``row`` is the product over the parts above 1.
    """
    check_enumerable(n)
    mult_fact = [factorial(m) for m in range(n + 1)]
    # z_edge[i][m] = i^m m!, for every m <= n // i
    z_edge = [[]] + [[i**m * mult_fact[m] for m in range(n // i + 1)] for i in range(1, n + 1)]
    # tails[rest]: each tail of m >= 1 twos and rest - 2m ones, m decreasing,
    # as (m, its blocks, its length, its factor of z, its factor of prod m!)
    tails = [
        [
            (
                m,
                ((2, m), (1, rest - 2 * m)) if rest > 2 * m else ((2, m),),
                rest - m,
                z_edge[2][m] * mult_fact[rest - 2 * m],
                mult_fact[m] * mult_fact[rest - 2 * m],
            )
            for m in range(rest // 2, 0, -1)
        ]
        for rest in range(n + 1)
    ]
    ones = [1] * (n + 1)
    blocks: List[Tuple[int, int]] = []
    push, extend, pop = blocks.append, blocks.extend, blocks.pop

    def grow(rest: int, top: int, length: int, z: int, mult_factorial: int, row: int) -> None:
        # the parts still to place add up to rest > 0, and none is above top
        for i in range(min(rest, top), 2, -1):
            z_i = z_edge[i]
            # row * factors[i] ** m for m = 0, 1, ..., one multiply each
            row_i = ones if factors is None else [
                *accumulate(repeat(factors[i], rest // i), mul, initial=row)
            ]
            for m in range(rest // i, 0, -1):
                push((i, m))
                left = rest - i * m
                edge_z, edge_mf = z * z_i[m], mult_factorial * mult_fact[m]
                if left:
                    grow(left, i - 1, length + m, edge_z, edge_mf, row_i[m])
                else:
                    leaf(blocks, length + m, edge_z, edge_mf, row_i[m])
                pop()
        if rest > 1:
            row_2 = ones if factors is None else [
                *accumulate(repeat(factors[2], rest // 2), mul, initial=row)
            ]
            depth = len(blocks)
            for m, tail, tail_length, tail_z, tail_mf in tails[rest]:
                extend(tail)
                leaf(blocks, length + tail_length, z * tail_z, mult_factorial * tail_mf, row_2[m])
                del blocks[depth:]
        push((1, rest))
        leaf(blocks, length + rest, z * mult_fact[rest], mult_factorial * mult_fact[rest], row)
        pop()

    if n == 0:
        leaf(blocks, 0, 1, 1, 1)
    else:
        grow(n, n, 0, 1, 1, 1)


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

    def keep(blocks: List[Tuple[int, int]], length: int, *_: int) -> None:
        if min_len <= length <= max_len:
            visit(Partition([i for i, m in blocks for _ in range(m)]))

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
