import time
from math import comb

import pytest

from partition_identities.genbinom import MAX_WORK, _row_coeffs, gen_binom
from partition_identities.partitions import Partition, enumerate_partitions

from oracles import covering_count


def test_row_coeffs_examples():
    assert _row_coeffs((2, 1), 3) == (0, 0, 2, 1)
    assert _row_coeffs((), 0) == (1,)
    for n in range(1, 8):
        coeffs = _row_coeffs((n,), n)
        assert coeffs[0] == 0
        for r in range(1, n + 1):
            assert coeffs[r] == comb(n, r)


def test_gen_binom_examples():
    lam = Partition([3, 2])
    assert gen_binom(lam, 2) == 6
    assert gen_binom(lam, 5) == 1
    assert gen_binom(lam, 1) == 0
    assert gen_binom(lam, 6) == 0


def test_bruteforce_examples():
    assert covering_count((2, 1), 2) == 2
    assert covering_count((1, 1, 1), 3) == 1
    assert covering_count((2, 2), 2) == 4


def test_oracle_equivalence_small():
    for n in range(0, 9):
        for lam in enumerate_partitions(n):
            for r in range(0, n + 1):
                assert gen_binom(lam, r) == covering_count(lam.parts, r)


def test_support():
    for n in range(0, 11):
        for lam in enumerate_partitions(n):
            for r in range(0, n + 3):
                value = gen_binom(lam, r)
                in_support = lam.length <= r <= lam.weight and (
                    r > 0 or lam.weight == 0
                )
                assert (value > 0) == in_support
            assert gen_binom(lam, lam.weight) == 1


def test_product_formula_at_length():
    for n in range(1, 13):
        for lam in enumerate_partitions(n):
            expected = 1
            for p in lam.parts:
                expected *= p
            assert gen_binom(lam, lam.length) == expected


def test_next_coefficient_formula():
    # one extra cell: half of (weight - length) times the part product
    for n in range(1, 13):
        for lam in enumerate_partitions(n):
            prod = 1
            for p in lam.parts:
                prod *= p
            expected = (lam.weight - lam.length) * prod
            assert 2 * gen_binom(lam, lam.length + 1) == expected


def test_total_mass():
    for n in range(0, 13):
        for lam in enumerate_partitions(n):
            expected = 1
            for p in lam.parts:
                expected *= 2**p - 1
            assert sum(_row_coeffs(lam.parts, lam.weight)) == expected


def test_negative_r_rejected():
    with pytest.raises(ValueError):
        gen_binom(Partition([2]), -1)


def test_gen_binom_truncates_at_r():
    # only terms of degree <= r are built: a single row of 30000 cells at
    # r = 3 is comb(30000, 3), and out-of-range r builds no product at all
    assert gen_binom(Partition([30000]), 3) == comb(30000, 3)
    assert gen_binom(Partition([30000, 2]), 3) == 30000 + 2 * comb(30000, 2)
    assert gen_binom(Partition([30000] * 4), 3) == 0
    assert gen_binom(Partition([2, 1]), 4) == 0
    assert gen_binom(Partition(), 0) == 1
    for n in range(0, 13):
        for lam in enumerate_partitions(n):
            full = _row_coeffs(lam.parts, lam.weight)
            for r in range(0, n + 3):
                assert gen_binom(lam, r) == (full[r] if r <= n else 0)


def test_work_bound_is_a_comparison():
    # |lambda| r above MAX_WORK is refused before any product; r outside
    # l(lambda)..|lambda| is zero whatever its size
    assert gen_binom(Partition([2000]), MAX_WORK // 2000) == comb(2000, 1000)
    assert gen_binom(Partition([2000, 2000]), 10**30) == 0
    for lam, r in (
        (Partition([2000]), MAX_WORK // 2000 + 1),
        (Partition([2000, 2000]), 2000),
        (Partition([10**30]), 1),
    ):
        start = time.perf_counter()
        with pytest.raises(ValueError, match="limit"):
            gen_binom(lam, r)
        assert time.perf_counter() - start < 0.01
