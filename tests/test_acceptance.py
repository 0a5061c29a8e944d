"""Acceptance suite: one test per criterion, exact equality throughout.

Each test prints a single PASS/FAIL line (visible with ``pytest -s`` or in
the captured output).  Every comparison is exact; the only tolerances are
the wall-clock budgets stated per criterion.

A genuine counterexample surfaced by an extended sweep is a reportable
outcome (sweep exit code 1), not a defect of this artifact; the negative
path is exercised in criterion 12 by corrupting every right-hand side.
"""
import time
from fractions import Fraction
from math import factorial

import pytest

from partition_identities.genbinom import gen_binom, gen_binom_bruteforce
from partition_identities.identities import (
    Form,
    IdentityId,
    classical_sides,
    conj1_sides,
    conj2_sides,
    conj3_sides,
    conj4_sides,
    const_term_sides,
    sign_flip_check,
    top_coeff_checks,
)
from partition_identities.partitions import enumerate_partitions
from partition_identities.verifier import SweepConfig, run_sweep

from oracles import partition_count


class _Criterion:
    def __init__(self, number, title, budget_s):
        self.number = number
        self.title = title
        self.budget_s = budget_s

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        status = "PASS" if exc_type is None and elapsed < self.budget_s else "FAIL"
        print(
            f"criterion {self.number:2d} [{status}] {self.title} "
            f"({elapsed:.2f}s / budget {self.budget_s:.0f}s)"
        )
        if exc_type is None and elapsed >= self.budget_s:
            pytest.fail(
                f"criterion {self.number} exceeded budget: "
                f"{elapsed:.2f}s >= {self.budget_s}s"
            )
        return False


def _assert_all_verified(report):
    bad = report.counterexamples()
    assert not bad, f"counterexamples: {[str(r.case) for r in bad[:5]]}"
    assert report.summary["verified"] + report.summary["skipped"] == len(
        report.results
    )


def test_criterion_01_partition_counting():
    with _Criterion(1, "partition counts match pentagonal recurrence", 5):
        for n in range(0, 31):
            assert len(enumerate_partitions(n)) == partition_count(n)


def test_criterion_02_genbinom_oracle_equivalence():
    with _Criterion(2, "fast gen_binom equals brute-force oracle", 30):
        for n in range(0, 11):
            for lam in enumerate_partitions(n):
                for r in range(0, n + 1):
                    assert gen_binom(lam, r) == gen_binom_bruteforce(lam, r)


def test_criterion_03_classical_identities():
    with _Criterion(3, "classical identity, both forms, n <= 12", 5):
        for n in range(1, 13):
            for form in Form:
                lhs, rhs = classical_sides(n, form)
                assert lhs == rhs, f"classical n={n} form={form}"


def test_criterion_04_conj1_paper_regime_i():
    with _Criterion(4, "conjecture 1 on n<=7, r<=7, s<=8, both forms", 30):
        report = run_sweep(
            SweepConfig(
                identity_ids=(IdentityId.CONJ1,),
                n_range=(1, 7),
                r_range=(1, 7),
                s_range=(1, 8),
            )
        )
        assert len(report.results) == 7 * 7 * 8 * 2
        _assert_all_verified(report)


def test_criterion_05_conj1_regimes_ii_iii():
    with _Criterion(5, "conjecture 1 at s=1 (n,r<=10) and r<=3 (n,s<=10)", 60):
        for n in range(1, 11):
            for r in range(1, 11):
                for form in Form:
                    lhs, rhs = conj1_sides(n, r, 1, form)
                    assert lhs == rhs, f"conj1 s=1 n={n} r={r}"
        for r in (1, 2, 3):
            for n in range(1, 11):
                for s in range(1, 11):
                    for form in Form:
                        lhs, rhs = conj1_sides(n, r, s, form)
                        assert lhs == rhs, f"conj1 n={n} r={r} s={s}"


def test_criterion_06_conj2():
    with _Criterion(6, "conjecture 2 on n<=9, s<=8, plus r=n consistency", 60):
        for n in range(1, 10):
            for s in range(1, 9):
                for form in Form:
                    sides = conj2_sides(n, s, form)
                    assert sides[0] == sides[1], f"conj2 n={n} s={s}"
                    assert sides == conj1_sides(n, n, s, form)


def test_criterion_07_conj3():
    with _Criterion(7, "conjecture 3 on n<=14, r<=n, 0<=s<=8", 60):
        for n in range(1, 15):
            for r in range(1, n + 1):
                for s in range(0, 9):
                    lhs, rhs = conj3_sides(n, r, s)
                    assert lhs == rhs, f"conj3 n={n} r={r} s={s}"


def test_criterion_08_conj4():
    with _Criterion(8, "conjecture 4 on 2<=r<=n<=14, s<=8, plus RHS match", 60):
        for n in range(2, 15):
            for r in range(2, n + 1):
                for s in range(1, 9):
                    lhs, rhs = conj4_sides(n, r, s)
                    assert lhs == rhs, f"conj4 n={n} r={r} s={s}"
                    assert rhs == conj3_sides(n, r, s)[1]


def test_criterion_09_coefficient_bridges():
    with _Criterion(9, "coefficient extraction identities on the (i) grid", 60):
        for n in range(1, 8):
            for r in range(1, 8):
                for s in range(1, 9):
                    for extracted, closed in top_coeff_checks(n, r, s):
                        assert extracted == closed
                    ct_lhs, ct_rhs = const_term_sides(n, r, s)
                    assert ct_lhs == ct_rhs
                    signed_lhs, _ = conj1_sides(n, r, s, Form.SIGNED)
                    assert signed_lhs.coefficient(0) == -ct_lhs
                    unsigned_lhs, _ = conj1_sides(n, r, s, Form.UNSIGNED)
                    bridge = factorial(r - 1) * unsigned_lhs.coefficient(r - 1)
                    assert bridge == conj3_sides(n, r, s)[0]
                    if 2 <= r <= n:
                        # next-order extraction reproduces the scalar
                        # identity with r replaced by r-1
                        next_bridge = (
                            Fraction(-2, n - r + 1)
                            * factorial(r - 2)
                            * signed_lhs.coefficient(r - 2)
                        )
                        assert next_bridge == conj3_sides(n, r - 1, s)[0]


def test_criterion_10_sign_flip():
    with _Criterion(10, "signed/unsigned equivalence under X -> -X", 60):
        for n in range(1, 8):
            for r in range(1, 8):
                for s in range(1, 9):
                    assert sign_flip_check(n, r, s), f"({n},{r},{s})"


def test_criterion_11_determinism():
    with _Criterion(11, "identical reports for 1 and 8 workers", 120):
        base = dict(
            identity_ids=(IdentityId.CONJ1,),
            n_range=(1, 7),
            r_range=(1, 7),
            s_range=(1, 8),
        )
        rep1 = run_sweep(SweepConfig(worker_count=1, **base))
        rep8 = run_sweep(SweepConfig(worker_count=8, **base))
        assert rep1.content_dict() == rep8.content_dict()
        _assert_all_verified(rep1)


def test_criterion_12_counterexample_is_reportable(corrupt_rhs):
    with _Criterion(12, "counterexamples are reported, not crashes", 10):
        report = run_sweep(
            SweepConfig(identity_ids=(IdentityId.CONJ2,), n_range=(1, 3))
        )
        assert report.exit_code == 1
        assert report.summary["counterexamples"] == len(report.results)
        for res in report.counterexamples():
            assert res.lhs != res.rhs  # both sides serialized for inspection
