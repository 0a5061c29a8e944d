import importlib
import pkgutil
import time
from collections import Counter
from fractions import Fraction
from math import factorial, prod

import pytest

import partition_identities
from partition_identities import partitions
from partition_identities.partitions import (
    MAX_N,
    MAX_PARTITIONS,
    Partition,
    check_enumerable,
    enumerate_partitions,
)

import oracles
from oracles import partition_count, z_value


def test_enumerate_basic_counts():
    assert len(enumerate_partitions(5)) == 7
    assert enumerate_partitions(0) == [Partition()]
    assert enumerate_partitions(4, 2, 2) == [
        Partition([3, 1]),
        Partition([2, 2]),
    ]


def test_enumeration_order_is_decreasing_lex():
    got = [p.parts for p in enumerate_partitions(5)]
    assert got == [
        (5,),
        (4, 1),
        (3, 2),
        (3, 1, 1),
        (2, 2, 1),
        (2, 1, 1, 1),
        (1, 1, 1, 1, 1),
    ]
    assert got == sorted(got, reverse=True)
    for n in range(0, 21):
        assert [p.parts for p in enumerate_partitions(n)] == list(oracles.partitions(n))


def test_counts_match_pentagonal_recurrence():
    for n in range(0, 31):
        assert len(enumerate_partitions(n)) == partition_count(n)


def test_library_partition_count():
    for n in range(0, 31):
        assert partitions.partition_count(n) == len(_walk(n))
    for n in range(0, 101):
        assert partitions.partition_count(n) == partition_count(n)


def test_enumeration_refused_above_limit():
    # n = 60 is the largest n accepted
    assert MAX_N == 60
    assert partition_count(60) <= MAX_PARTITIONS < partition_count(61)
    assert (
        partitions.partition_count(MAX_N)
        <= MAX_PARTITIONS
        < partitions.partition_count(MAX_N + 1)
    )
    check_enumerable(MAX_N)
    for n in (61, 200):
        with pytest.raises(ValueError, match="partitions"):
            enumerate_partitions(n)


def test_refusal_is_a_comparison():
    # no p(n) is computed for a refused n, and the message stays short
    for n in (10**5, 10**9):
        start = time.perf_counter()
        with pytest.raises(ValueError) as info:
            check_enumerable(n)
        assert time.perf_counter() - start < 0.01
        message = str(info.value)
        assert len(message) < 200
        assert f"n={n}" in message and "60" in message


def test_length_filters():
    for n in range(0, 12):
        full = enumerate_partitions(n)
        for r in range(0, n + 2):
            exact = enumerate_partitions(n, r, r)
            assert exact == [p for p in full if p.length == r]
        assert enumerate_partitions(n, 0, None) == full


def test_partition_validation():
    with pytest.raises(ValueError):
        Partition([1, 2])
    with pytest.raises(ValueError):
        Partition([3, 0])
    with pytest.raises(ValueError):
        Partition([-1])


def test_weight_length():
    lam = Partition([3, 2, 2, 1])
    assert lam.weight == 8
    assert lam.length == 4
    assert Partition().weight == 0
    assert Partition().length == 0


def test_multiplicities():
    assert Partition([3, 2, 2, 1]).multiplicities() == {3: 1, 2: 2, 1: 1}
    assert Partition().multiplicities() == {}
    assert Partition([2, 2, 2]).multiplicities() == {2: 3}


def test_multiplicity_sums():
    for n in range(0, 15):
        for lam in enumerate_partitions(n):
            mult = lam.multiplicities()
            assert sum(i * m for i, m in mult.items()) == lam.weight
            assert sum(mult.values()) == lam.length


def test_multiplicity_round_trip():
    for n in range(0, 15):
        for lam in enumerate_partitions(n):
            mult = lam.multiplicities()
            parts = [i for i in sorted(mult, reverse=True) for _ in range(mult[i])]
            assert Partition(parts) == lam


def test_z_value_examples():
    assert Partition([2, 1, 1]).z_value() == 4
    assert Partition([7]).z_value() == 7
    assert Partition([1, 1, 1]).z_value() == 6
    assert Partition().z_value() == 1


def test_z_weights_sum_to_one():
    # sum over |mu| = n of 1/z equals 1 (classical identity at X = 1)
    for n in range(1, 21):
        total = sum(
            Fraction(1, lam.z_value()) for lam in enumerate_partitions(n)
        )
        assert total == 1


def test_cells():
    assert list(Partition([2, 1]).cells()) == [(1, 1), (1, 2), (2, 1)]


def test_text_round_trip():
    assert str(Partition([3, 1, 1])) == "3+1+1"
    assert Partition.parse("3+1+1") == Partition([3, 1, 1])
    assert str(Partition()) == "ε"
    assert Partition.parse("ε") == Partition()
    assert Partition.parse("") == Partition()
    with pytest.raises(ValueError):
        Partition.parse("1+3")
    with pytest.raises(ValueError):
        Partition.parse("2+x")


def test_negative_lengths_rejected():
    for min_len, max_len in ((-1, -1), (0, -1), (-1, None)):
        with pytest.raises(ValueError, match="non-negative"):
            enumerate_partitions(5, min_len, max_len)


PRIMES = [p for p in range(2, 100) if all(p % q for q in range(2, p))]


def _walk(n, factors=None):
    """What the walk hands each leaf, as (parts, length, z, prod m_i!, row)."""
    leaves = []

    def record(blocks, length, z, mult_factorial, row):
        parts = tuple(i for i, m in blocks for _ in range(m))
        leaves.append((parts, length, z, mult_factorial, row))

    partitions._partitions_of(n, record, factors)
    return leaves


def test_walk_matches_oracles():
    # the block walk against statistics recounted from each mu's parts:
    # every mu once, in the oracle's decreasing lex order
    for n in range(0, 21):
        # a distinct prime per part, so a product names its parts
        factors = PRIMES[:n + 1]
        leaves = _walk(n, factors)
        assert [parts for parts, *_ in leaves] == list(oracles.partitions(n))
        assert len(leaves) == partition_count(n)
        for parts, length, z, mult_factorial, row in leaves:
            assert length == len(parts)
            assert z == z_value(parts)
            assert mult_factorial == prod(factorial(m) for m in Counter(parts).values())
            # parts 1 are the caller's to apply
            assert row == prod(factors[i] for i in parts if i > 1)
        # with no factors the row is 1
        assert [leaf[:4] + (1,) for leaf in leaves] == _walk(n)
    # the class sizes of S_n add up to n!
    assert sum(factorial(10) // z for _, _, z, _, _ in _walk(10)) == factorial(10)


def test_every_memo_is_bounded():
    memos = {}
    for info in pkgutil.iter_modules(partition_identities.__path__):
        module = importlib.import_module(f"partition_identities.{info.name}")
        for name, value in vars(module).items():
            if hasattr(value, "cache_info"):
                memos[f"{info.name}.{name}"] = value.cache_info().maxsize
    assert {"identities._class_tables", "identities._covering_table"} <= set(memos)
    assert all(size is not None for size in memos.values()), memos
    # one slot for every n the tables accept
    assert memos["identities._class_tables"] == MAX_N + 1
    assert memos["identities._covering_table"] == MAX_N + 1
