import tracemalloc
from collections import Counter
from dataclasses import replace
from fractions import Fraction
from math import comb, factorial

import pytest

from partition_identities.identities import (
    IDENTITIES,
    MAX_S,
    Form,
    IdentityCase,
    IdentityId,
    binomial_type_sides,
    case_sides,
    classical_sides,
    conj1_sides,
    conj2_sides,
    conj3_sides,
    conj4_sides,
    const_term_sides,
    hockey_stick_sides,
    sign_flip_check,
    top_coeff_checks,
)
from partition_identities.polynomials import Polynomial, binom_poly
from partition_identities.verifier import SweepConfig, expand_cases, run_sweep

import oracles


def test_classical_examples():
    lhs, rhs = classical_sides(2, Form.SIGNED)
    assert lhs == rhs == Polynomial([0, Fraction(-1, 2), Fraction(1, 2)])
    for form in Form:
        lhs, rhs = classical_sides(1, form)
        assert lhs == rhs == Polynomial([0, 1])
    lhs, rhs = classical_sides(2, Form.UNSIGNED)
    assert lhs == rhs == Polynomial([0, Fraction(1, 2), Fraction(1, 2)])


def test_classical_range():
    for n in range(1, 13):
        for form in Form:
            lhs, rhs = classical_sides(n, form)
            assert lhs == rhs


def test_conj1_examples():
    lhs, rhs = conj1_sides(2, 1, 1, Form.SIGNED)
    assert lhs == rhs == Polynomial([2])
    lhs, rhs = conj1_sides(2, 2, 1, Form.SIGNED)
    assert lhs == rhs == Polynomial([-1, 1])
    for s in range(1, 6):
        lhs, rhs = conj1_sides(1, 1, s, Form.SIGNED)
        assert lhs == rhs == Polynomial([factorial(s)])


def test_conj1_trivial_above_n():
    for form in Form:
        lhs, rhs = conj1_sides(3, 5, 1, form)
        assert lhs == rhs == Polynomial()


def test_conj1_degree_bound():
    for n in range(1, 7):
        for r in range(1, n + 1):
            for s in range(1, 4):
                lhs, rhs = conj1_sides(n, r, s, Form.SIGNED)
                assert lhs.degree == rhs.degree == r - 1


def test_conj1_support_restriction():
    # partitions longer than r contribute nothing: summing over all of
    # them (builder already restricts) must equal the r = n builder at r = n
    from partition_identities.genbinom import gen_binom
    from partition_identities.partitions import enumerate_partitions

    for n in range(1, 7):
        for r in range(1, n + 1):
            for mu in enumerate_partitions(n, r + 1, None):
                assert gen_binom(mu, r) == 0


def _nonzero(coeffs):
    return {k: c for k, c in coeffs.items() if c != 0}


def _lhs_terms(sides):
    return _nonzero(dict(enumerate(sides[0].coeffs)))


def test_class_sum_lhs_matches_term_by_term_reference():
    # the reference sums over every mu |- n, so the l(mu) <= r cut is checked too
    for form in Form:
        signed = form is Form.SIGNED
        for n in range(1, 11):
            expected = oracles.partition_sum(n, lambda mu: 1, 0, n if signed else None)
            assert _lhs_terms(classical_sides(n, form)) == _nonzero(expected)
        for n in range(1, 10):
            for s in range(1, 5):

                def pochhammer(mu):
                    return sum(oracles.rising(p, s) for p in mu)

                expected = oracles.partition_sum(n, pochhammer, 1, n if signed else None)
                assert _lhs_terms(conj2_sides(n, s, form)) == _nonzero(expected)
                for r in range(1, n + 2):
                    expected = oracles.partition_sum(
                        n,
                        lambda mu: oracles.covering_count(mu, r) * pochhammer(mu),
                        1,
                        r if signed else None,
                    )
                    assert _lhs_terms(conj1_sides(n, r, s, form)) == _nonzero(expected), (
                        f"CONJ1 n={n} r={r} s={s} {form.value}"
                    )


def test_length_r_sum_matches_reference():
    for n in range(1, 15):
        for r in range(1, n + 1):
            for s in range(0, 5):
                assert conj3_sides(n, r, s)[0] == oracles.length_r_sum(n, r, s)


def _clear_moment_caches():
    # every memo the builders read: the two moment tables, the rows of
    # (i)_s and the CONJ1 right-hand-side brackets
    from partition_identities import identities

    for value in vars(identities).values():
        if hasattr(value, "cache_clear"):
            value.cache_clear()


#: a grid whose cases share rows of (i)_s across r and forms, and
#: right-hand-side brackets across n, forms and identities
MEMO_GRID = SweepConfig(
    (IdentityId.CONJ1, IdentityId.CONJ2, IdentityId.CONJ3, IdentityId.CONJ4, IdentityId.TOP_COEFF),
    (1, 10),
    (1, 12),
    (0, 5),
)


def test_memoized_sides_match_cold_builds():
    from partition_identities import identities

    def typed(pairs):
        return [(type(lhs), lhs, type(rhs), rhs) for lhs, rhs in pairs]

    cases = expand_cases(MEMO_GRID)
    _clear_moment_caches()
    warm = [typed(case_sides(case)) for case in cases]
    # CONJ1, CONJ2, CONJ3 (s from 0) and CONJ4 each build one row per
    # (n, s), and one bracket per (r, s, form), r <= 10, serves every n,
    # form and identity
    assert identities._rising_row.cache_info().misses == 10 * (5 + 5 + 6 + 5)
    assert identities._conj1_bracket.cache_info().misses == 10 * 5 * 2
    for case, sides in zip(cases, warm):
        _clear_moment_caches()
        assert typed(case_sides(case)) == sides, str(case)


def test_memo_grid_same_content_at_one_and_two_workers(monkeypatch):
    # each worker fills its own memos from the slices it is given
    from partition_identities import verifier

    monkeypatch.setattr(verifier, "_usable_cpus", lambda: 2)
    report1 = run_sweep(MEMO_GRID)
    report2 = run_sweep(replace(MEMO_GRID, worker_count=2))
    assert report1.summary["counterexamples"] == 0
    assert report1.content_dict() == report2.content_dict()


def test_moment_tables_match_bruteforce_oracle():
    from partition_identities.identities import _class_tables, _covering_table

    for n in range(1, 19):

        def class_size(mu):
            return factorial(n) // oracles.z_value(mu)

        def multinomial(mu):
            denom = 1
            for m in Counter(mu).values():
                denom *= factorial(m)
            return factorial(len(mu)) // denom

        classes, lengths = _class_tables(n)
        assert len(classes) == len(lengths) == n
        for length in range(1, n + 1):
            assert list(classes[length - 1]) == oracles.moments(n, length, class_size)
            assert list(lengths[length - 1]) == oracles.moments(n, length, multinomial)
        # sum_i m_i(mu) = l(mu), so this adds up the class sizes of S_n
        assert sum(sum(v) // l for l, v in enumerate(classes, start=1)) == factorial(n)
        if n > 12:
            # the covering oracle counts subsets of cells one by one
            continue

        covering = _covering_table(n)
        assert len(covering) == n
        for r in range(1, n + 3):
            if r > n:
                # no row of the table: both sums are zero
                for form in Form:
                    assert conj1_sides(n, r, 1, form)[0] == Polynomial()
                assert conj3_sides(n, r, 1)[0] == 0
                continue
            table = covering[r - 1]
            assert len(table) == r
            for length, vector in enumerate(table, start=1):
                expected = oracles.moments(
                    n, length, lambda mu: class_size(mu) * oracles.covering_count(mu, r)
                )
                assert list(vector) == expected, f"n={n} r={r} length={length}"


def test_each_moment_table_is_built_once(monkeypatch):
    # every r, s and form of one n reads one table: the partitions of n are
    # walked once per table, and each mu enters the table once
    from partition_identities import genbinom, identities, partitions

    _clear_moment_caches()
    walks = Counter()
    rows = []
    real_partitions_of = partitions._partitions_of

    def counted_partitions_of(n, leaf, factors=None):
        walks[n] += 1

        def counted_leaf(blocks, *state):
            rows.append(tuple(i for i, m in blocks for _ in range(m)))
            leaf(blocks, *state)

        real_partitions_of(n, counted_leaf, factors)

    def refuse_row_coeffs(*args):
        raise AssertionError("the CONJ1 table called _row_coeffs")

    assert not hasattr(identities, "_row_coeffs")
    monkeypatch.setattr(partitions, "_partitions_of", counted_partitions_of)
    monkeypatch.setattr(genbinom, "_row_coeffs", refuse_row_coeffs)
    n = 9
    for r in range(1, n + 1):
        for s in range(1, 5):
            for form in Form:
                conj1_sides(n, r, s, form)
    assert len(rows) == oracles.partition_count(n) == 30
    assert sorted(rows) == sorted(oracles.partitions(n))
    assert walks == Counter({n: 1})

    _clear_moment_caches()
    walks.clear()
    rows.clear()
    n = 12
    for iid in (IdentityId.CLASSICAL, IdentityId.CONJ2, IdentityId.CONJ3, IdentityId.CONJ4):
        spec = IDENTITIES[iid]
        for r in range(1, n + 2) if "r" in spec.params else [None]:
            for s in range(spec.s_min, 6) if "s" in spec.params else [None]:
                for form in list(Form) if "form" in spec.params else [None]:
                    case_sides(IdentityCase(iid, n, r, s, form))
    # one walk, for the class tables; the CONJ1 table is never built
    assert sorted(rows) == sorted(oracles.partitions(n))
    assert walks == Counter({n: 1})
    assert identities._covering_table.cache_info().currsize == 0


def test_packed_covering_table_matches_unpacked_oracle():
    from partition_identities.identities import _covering_table

    for n in range(1, 21):
        assert _covering_table(n) == oracles.covering_table(n), f"n={n}"


def test_packed_slots_are_wide_enough():
    from partition_identities.identities import _covering_table, _slot_bits

    for n in range(1, 21):
        width = _slot_bits(n)
        assert width % 8 == 0
        assert max(max(v) for lengths in _covering_table(n) for v in lengths) < 1 << width
    # the stated bound n! n 2^n at the largest n the enumeration accepts
    assert factorial(60) * 60 * 2**60 < 1 << _slot_bits(60)


def test_moment_tables_are_built_from_the_enumeration(monkeypatch):
    from partition_identities import identities, partitions

    def refuse(n, *_):
        raise AssertionError(f"enumerated the partitions of {n}")

    _clear_moment_caches()
    monkeypatch.setattr(partitions, "_partitions_of", refuse)
    tables = (identities._class_tables, identities._covering_table)
    for table in tables:
        with pytest.raises(AssertionError, match="partitions of 7"):
            table(7)
    monkeypatch.undo()
    # the p(n) limit applies to both tables, before either allocates its
    # O(n^2) vectors or packed factors
    for table in tables:
        with pytest.raises(ValueError, match="partitions"):
            table(61)
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="partitions"):
                table(400)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20, f"{table.__name__}(400) allocated {peak} bytes"


#: the identities whose left-hand sides read the partitions of n
TABLE_IDS = (
    IdentityId.CLASSICAL, IdentityId.CONJ1, IdentityId.CONJ2, IdentityId.CONJ3, IdentityId.CONJ4
)


def _enumerating_cases(forms):
    return [
        IdentityCase(iid, n, r, s, form)
        for iid, spec in IDENTITIES.items()
        if iid in TABLE_IDS
        for n in range(1, 7)
        for r in (range(1, n + 2) if "r" in spec.params else [None])
        for s in (range(spec.s_min, 4) if "s" in spec.params else [None])
        for form in (forms if "form" in spec.params else [None])
    ]


def _reference_lhs(case):
    n, r, s = case.n, case.r, case.s
    if case.identity_id in (IdentityId.CONJ3, IdentityId.CONJ4):
        return oracles.length_r_sum(n, r, s)

    def pochhammer(mu):
        return sum(oracles.rising(p, s) for p in mu)

    def covering_pochhammer(mu):
        return oracles.covering_count(mu, r) * pochhammer(mu)

    weight, shift, sign_r = {
        IdentityId.CLASSICAL: (lambda mu: 1, 0, n),
        IdentityId.CONJ1: (covering_pochhammer, 1, r),
        IdentityId.CONJ2: (pochhammer, 1, n),
    }[case.identity_id]
    if case.form is Form.UNSIGNED:
        sign_r = None
    return _nonzero(oracles.partition_sum(n, weight, shift, sign_r))


def test_left_hand_sides_do_not_depend_on_cache_order():
    # both forms and every s read one cached table, so a table filled by an
    # earlier case must give what a cold table gives, checked against the
    # term-by-term references rather than against another cached read
    cases = _enumerating_cases(list(Form))
    expected = {case: _reference_lhs(case) for case in cases}

    def lhs(case):
        value = case_sides(case)[0][0]
        return _nonzero(dict(enumerate(value.coeffs))) if case.form else value

    for case in cases:
        _clear_moment_caches()
        assert lhs(case) == expected[case], str(case)
    _clear_moment_caches()
    for case in reversed(_enumerating_cases(list(reversed(Form)))):
        assert lhs(case) == expected[case], str(case)


def test_conj2_examples():
    lhs, rhs = conj2_sides(2, 2, Form.SIGNED)
    assert lhs == rhs == Polynomial([-3, 2])
    lhs, rhs = conj2_sides(1, 1, Form.SIGNED)
    assert lhs == rhs == Polynomial([1])


def test_conj2_s1_is_classical_difference():
    for n in range(1, 9):
        lhs, rhs = conj2_sides(n, 1, Form.SIGNED)
        assert lhs == rhs == oracles.sub(binom_poly(0, n), binom_poly(-1, n))


def test_conj2_matches_conj1_at_r_equals_n():
    for n in range(1, 8):
        for s in range(1, 5):
            for form in Form:
                assert conj2_sides(n, s, form) == conj1_sides(n, n, s, form)


def test_conj3_examples():
    lhs, rhs = conj3_sides(3, 2, 1)
    assert lhs == rhs == 3
    # r = 1 closed form: (n)_s = s! C(n+s-1, s)
    from partition_identities.polynomials import rising_factorial_eval

    for n in range(1, 9):
        for s in range(0, 6):
            lhs, rhs = conj3_sides(n, 1, s)
            assert lhs == rhs == rising_factorial_eval(n, s)
            assert rhs == factorial(s) * oracles.binom_rat(n + s - 1, s)
    # r = 2 closed form: sum_{i<n} (i)_s
    for n in range(2, 9):
        for s in range(0, 6):
            lhs, rhs = conj3_sides(n, 2, s)
            assert lhs == rhs
            assert lhs == sum(
                rising_factorial_eval(i, s) for i in range(1, n)
            )


def test_conj4_examples():
    lhs, rhs = conj4_sides(4, 2, 2)
    assert lhs == rhs == 20
    lhs, rhs = conj4_sides(2, 2, 1)
    assert lhs == rhs == 1
    lhs, rhs = conj4_sides(3, 2, 1)
    assert lhs == rhs == 3


def test_conj3_rhs_equals_conj4_rhs():
    for n in range(1, 10):
        for r in range(2, n + 1):
            for s in range(1, 6):
                assert conj3_sides(n, r, s)[1] == conj4_sides(n, r, s)[1]


def test_const_term_examples():
    lhs, rhs = const_term_sides(2, 1, 1)
    assert lhs == rhs == -2
    lhs, rhs = const_term_sides(1, 1, 2)
    assert lhs == rhs == -2


def test_const_term_matches_conj1_constant():
    # the identity carries (-1)^r while the length-1 summand carries
    # (-1)^{r-1}, so the polynomial's constant term is the negation
    for n, r, s in [(3, 2, 2), (4, 3, 1), (5, 2, 3), (2, 1, 1)]:
        conj_lhs, _ = conj1_sides(n, r, s, Form.SIGNED)
        ct_lhs, ct_rhs = const_term_sides(n, r, s)
        assert ct_lhs == ct_rhs
        assert conj_lhs.coefficient(0) == -ct_lhs


def test_top_coeff_examples():
    pairs = top_coeff_checks(2, 2, 1)
    # bracket is X - 1; prefactor is 1
    assert pairs[0] == (1, 1)
    assert pairs[1] == (-1, -1)
    pairs = top_coeff_checks(1, 1, 3)
    assert len(pairs) == 1
    assert pairs[0][0] == pairs[0][1]


def test_top_coeff_agreement_on_grid():
    for n in range(1, 7):
        for r in range(1, 7):
            for s in range(1, 6):
                for extracted, closed in top_coeff_checks(n, r, s):
                    assert extracted == closed


def test_hockey_stick_examples():
    assert hockey_stick_sides(5, 2) == (10, 10)
    assert hockey_stick_sides(4, 3) == (4, 4)
    for big_n in range(2, 20):
        for k in range(2, big_n + 1):
            lhs, rhs = hockey_stick_sides(big_n, k)
            assert lhs == rhs


def test_hockey_stick_boundary_probe():
    # k = 1 mismatches under the usual conventions: N vs N - 1
    lhs, rhs = hockey_stick_sides(6, 1)
    assert lhs == 6 and rhs == 5


def test_binomial_type_sides(monkeypatch):
    from partition_identities import identities

    for n in range(0, 7):
        for s in range(1, 6):
            lhs, rhs = binomial_type_sides(n, s)
            assert lhs == rhs
    # the Horner sum against the sum of C(n,k) [s]_k [X]_(n-k) term by term
    for n in range(13):
        for s in (1, 2, 5, 13):
            total = Polynomial()
            for k in range(n + 1):
                term = oracles.falling_poly_product(0, n - k)
                total = oracles.add(total, oracles.mul(term, comb(n, k) * oracles.falling(s, k)))
            assert binomial_type_sides(n, s)[1] == total, (n, s)

    # and it builds no [X]_j of its own
    def refuse(c, n):
        raise AssertionError(f"built [X+{c}]_{n}")

    monkeypatch.setattr(identities, "_falling_coeffs", refuse)
    for n in range(13):
        binomial_type_sides(n, 3)


def test_case_sides_build_no_polynomial_products():
    # every side is built from integer coefficient lists: Polynomial is a
    # value type with no arithmetic for a builder to call
    arithmetic = "__add__ __radd__ __sub__ __rsub__ __neg__ __mul__ __rmul__ __call__"
    assert not set(arithmetic.split()) & set(vars(Polynomial))
    cases = [
        IdentityCase(
            iid,
            5,
            3 if "r" in spec.params else None,
            2 if "s" in spec.params else None,
            form,
        )
        for iid, spec in IDENTITIES.items()
        for form in (list(Form) if "form" in spec.params else [None])
    ]
    assert len(cases) == 12
    for case in cases:
        for lhs, rhs in case_sides(case):
            assert lhs == rhs


def test_left_hand_sides_read_the_class_table(monkeypatch):
    # one row of (i)_s per (n, s), and no Partition object on the hot path
    from partition_identities import identities
    from partition_identities.partitions import Partition

    calls = []
    real = identities.rising_factorial_eval

    def counted(x, k):
        calls.append((x, k))
        return real(x, k)

    def refuse(*args, **kwargs):
        raise AssertionError("a builder used a Partition object")

    monkeypatch.setattr(identities, "rising_factorial_eval", counted)
    for name in ("__init__", "z_value", "multiplicities"):
        monkeypatch.setattr(Partition, name, refuse)
    n, r, s = 9, 4, 3
    for build, expected in (
        (lambda: classical_sides(n, Form.SIGNED), 0),
        (lambda: conj1_sides(n, r, s, Form.UNSIGNED), n + 1),
        (lambda: conj2_sides(n, s, Form.SIGNED), n + 1),
        (lambda: conj3_sides(n, r, s), n + 1),
        (lambda: conj4_sides(n, r, s), n + 1),
    ):
        # the row is built on a cold memo and read back at the same (n, s)
        identities._rising_row.cache_clear()
        for rows_built in (expected, 0):
            calls.clear()
            lhs, rhs = build()
            assert lhs == rhs
            assert len(calls) == rows_built


def test_rising_row_matches_rising_factorial():
    from partition_identities.identities import _rising_row
    from partition_identities.polynomials import rising_factorial_eval

    for n in range(0, 15):
        for s in range(0, 7):
            row = _rising_row(n, s)
            assert type(row) is tuple
            assert row == tuple(rising_factorial_eval(i, s) for i in range(n + 1))
            assert row == tuple(oracles.rising(i, s) for i in range(n + 1))
            assert all(type(v) is int for v in row)


def test_sign_flip_examples():
    lhs, rhs = conj1_sides(2, 2, 1, Form.UNSIGNED)
    assert lhs == rhs == Polynomial([1, 1])
    assert sign_flip_check(2, 2, 1)
    assert sign_flip_check(2, 1, 1)
    assert sign_flip_check(3, 5, 1)  # vacuous: both forms zero


@pytest.mark.parametrize("form, side", [(Form.SIGNED, 0), (Form.UNSIGNED, 1)])
def test_sign_flip_check_refuses_a_corrupted_side(monkeypatch, form, side):
    # one numerator of one side of one form off by one: criterion 10 fails
    from partition_identities import identities

    real = identities.conj1_sides

    def corrupted(n, r, s, f):
        sides = list(real(n, r, s, f))
        if f is form:
            p = sides[side]
            sides[side] = Polynomial.over((p.nums[0] + 1,) + p.nums[1:], p.den)
        return tuple(sides)

    assert sign_flip_check(4, 3, 2)
    monkeypatch.setattr(identities, "conj1_sides", corrupted)
    assert sign_flip_check(4, 3, 2) is False


def test_sign_flip_against_oracle():
    # criterion 10's grid, with the UNSIGNED side summed term by term by the
    # reference instead of read from the table both builder forms share
    for n in range(1, 8):
        for r in range(1, 8):
            for s in range(1, 9):

                def weight(mu):
                    return oracles.covering_count(mu, r) * sum(oracles.rising(p, s) for p in mu)

                unsigned = oracles.partition_sum(n, weight, 1)
                flipped = {k: c * (-1) ** k for k, c in unsigned.items()}
                signed = conj1_sides(n, r, s, Form.SIGNED)[0]
                expected = {k: c * (-1) ** (r - 1) for k, c in enumerate(signed.coeffs)}
                assert _nonzero(flipped) == _nonzero(expected), f"({n},{r},{s})"


def test_conj1_far_above_n_builds_no_bracket(monkeypatch):
    # r > n makes the prefactor binom(n+s-1, n-r) zero, so neither side
    # builds anything of degree r; CONJ1, CONJ3 and CONJ4 build no row of
    # (i)_s and read no table either
    from partition_identities import identities

    def refuse(name):
        def refused(*args):
            raise AssertionError(f"{name}{args}")

        return refused

    _clear_moment_caches()
    for name in ("_falling_coeffs", "rising_factorial_eval", "_class_tables", "_covering_table"):
        monkeypatch.setattr(identities, name, refuse(name))
    n = 5
    for r in (n + 1, 5000):
        for s in range(1, 4):
            for form in Form:
                assert conj1_sides(n, r, s, form) == (Polynomial(), Polynomial())
            assert all(a == b == 0 for a, b in top_coeff_checks(n, r, s))
            for build in (conj3_sides, conj4_sides):
                lhs, rhs = build(n, r, s)
                assert lhs == rhs == 0
                assert type(lhs) is type(rhs) is Fraction
    # the refusals are live
    with pytest.raises(AssertionError, match="rising_factorial_eval"):
        conj3_sides(n, n, 1)


def test_scalar_ids_above_n_build_no_factorial(monkeypatch):
    # r > n makes the prefactor binom(n+s-1, n-r) zero, so CONST_TERM and
    # TOP_COEFF are zero without building r! or a product of r factors
    from partition_identities import identities, polynomials

    n = 5
    for r in (n + 1, 200000):
        real = factorial

        def capped(k, r=r):
            if k >= r:
                raise AssertionError(f"built {k}!")
            return real(k)

        monkeypatch.setattr(identities, "factorial", capped)
        monkeypatch.setattr(polynomials, "factorial", capped)
        for s in range(1, 4):
            const_term = case_sides(IdentityCase(IdentityId.CONST_TERM, n, r, s))
            top_coeff = case_sides(IdentityCase(IdentityId.TOP_COEFF, n, r, s))
            assert const_term == [(0, 0)]
            assert top_coeff == [(0, 0), (0, 0)]
            for lhs, rhs in const_term + top_coeff:
                assert type(lhs) is type(rhs) is Fraction


def test_coefficient_bridge_top():
    # (r-1)! times the X^{r-1} coefficient of the UNSIGNED LHS equals
    # the length-r scalar sum
    for n in range(1, 8):
        for r in range(1, n + 1):
            for s in range(1, 5):
                lhs, _ = conj1_sides(n, r, s, Form.UNSIGNED)
                bridge = factorial(r - 1) * lhs.coefficient(r - 1)
                assert bridge == conj3_sides(n, r, s)[0]


def test_coefficient_bridge_next_order():
    # the X^{r-2} coefficient of the SIGNED RHS reproduces the scalar
    # identity with r replaced by r-1
    for n in range(1, 8):
        for r in range(2, n + 1):
            for s in range(1, 5):
                _, rhs = conj1_sides(n, r, s, Form.SIGNED)
                prefactor = factorial(s - 1) * oracles.binom_rat(n + s - 1, n - r)
                bracket_coeff = Fraction(
                    -r * (r - 1) * s * (r + s - 1), 2 * factorial(r)
                )
                assert rhs.coefficient(r - 2) == prefactor * bracket_coeff


def _case_at(iid, n=1, s=None):
    """A case of ``iid`` at n and s (default its lowest), r = 1 and SIGNED where taken."""
    spec = IDENTITIES[iid]
    return IdentityCase(
        iid,
        n,
        1 if "r" in spec.params else None,
        (spec.s_min if s is None else s) if "s" in spec.params else None,
        Form.SIGNED if "form" in spec.params else None,
    )


def test_case_validation():
    with pytest.raises(ValueError):
        IdentityCase(IdentityId.CONJ2, n=2, r=3, s=1, form=Form.SIGNED)
    with pytest.raises(ValueError):
        IdentityCase(IdentityId.CONJ1, n=2, r=1, s=1)  # form required
    with pytest.raises(ValueError):
        IdentityCase(IdentityId.CONJ3, n=0, r=1, s=1)
    with pytest.raises(ValueError):
        IdentityCase(IdentityId.CONJ4, n=3, r=2, s=0)
    # s = 0 is allowed only for the scalar coefficient identity
    IdentityCase(IdentityId.CONJ3, n=3, r=2, s=0)
    # a repeated parameter is an error, not "last one wins"
    with pytest.raises(ValueError):
        IdentityCase.parse("CONJ3(n=3,n=4,r=2,s=1)")
    with pytest.raises(ValueError):
        IdentityCase.parse("CONJ1(n=3,r=2,s=1,form=SIGNED,form=UNSIGNED)")
    # each identity takes n up to its own max_n and s up to MAX_S; these
    # cases are built, never evaluated
    for iid, spec in IDENTITIES.items():
        _case_at(iid, n=spec.max_n)
        with pytest.raises(ValueError, match=f"n must be in 1..{spec.max_n}"):
            _case_at(iid, n=spec.max_n + 1)
        if "s" in spec.params:
            _case_at(iid, s=MAX_S)
            with pytest.raises(ValueError, match=f"s must be in {spec.s_min}..{MAX_S}"):
                _case_at(iid, s=MAX_S + 1)


def test_case_text_round_trip():
    case = IdentityCase(IdentityId.CONJ1, n=5, r=3, s=2, form=Form.SIGNED)
    assert str(case) == "CONJ1(n=5,r=3,s=2,form=SIGNED)"
    assert IdentityCase.parse(str(case)) == case
    case = IdentityCase(IdentityId.CONJ3, n=4, r=2, s=0)
    assert IdentityCase.parse(str(case)) == case
    with pytest.raises(ValueError):
        IdentityCase.parse("NOPE(n=1)")
    with pytest.raises(ValueError):
        IdentityCase.parse("CONJ1")


def test_case_sides_dispatch():
    for text, expect_pairs in [
        ("CLASSICAL(n=3,form=SIGNED)", 1),
        ("CONJ1(n=3,r=2,s=1,form=UNSIGNED)", 1),
        ("TOP_COEFF(n=3,r=2,s=1)", 2),
        ("HOCKEY_STICK(n=5,r=2)", 1),
        ("BINOMIAL_TYPE(n=3,s=2)", 1),
    ]:
        pairs = case_sides(IdentityCase.parse(text))
        assert len(pairs) == expect_pairs
        for lhs, rhs in pairs:
            assert lhs == rhs
