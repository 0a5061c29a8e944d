import copy
import inspect
import pickle
import tracemalloc
from collections import Counter
from fractions import Fraction
from math import comb, factorial, perm, prod

import pytest

from partition_identities.identities import (
    IDENTITIES,
    MAX_S,
    S_AXIS,
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
    top_coeff_checks,
)
from partition_identities.partitions import Partition
from partition_identities.polynomials import Polynomial, Ratio
from partition_identities.verifier import SweepConfig, expand_cases, run_sweep, serialize_side

import oracles
from oracles import coeffs, frac, poly, sign_flip_check


def test_classical_examples():
    lhs, rhs = classical_sides(2, Form.SIGNED)
    assert lhs == rhs == poly([0, Fraction(-1, 2), Fraction(1, 2)])
    for form in Form:
        lhs, rhs = classical_sides(1, form)
        assert lhs == rhs == Polynomial([0, 1])
    lhs, rhs = classical_sides(2, Form.UNSIGNED)
    assert lhs == rhs == poly([0, Fraction(1, 2), Fraction(1, 2)])


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


def _nonzero(terms):
    return {k: c for k, c in terms.items() if c != 0}


def _lhs_terms(sides):
    return _nonzero(dict(enumerate(coeffs(sides[0]))))


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
                assert frac(conj3_sides(n, r, s)[0]) == oracles.length_r_sum(n, r, s)


def _clear_moment_caches():
    # every memo the builders read: the three moment tables, the rows of
    # (i)_s, the LHS totals, the CONJ1 right-hand-side brackets and the
    # products under them, and the factorials of s
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

    def typed(sides):
        lhs, rhs = sides
        return type(lhs), lhs, type(rhs), rhs

    cases = expand_cases(MEMO_GRID)
    _clear_moment_caches()
    warm = [typed(case_sides(case)) for case in cases]
    # one row of (i)_s per s = 0..5 serves every n and identity, and one
    # bracket per (r, s, form), r <= 10, serves every n, form and identity
    assert identities._rising_row.cache_info().misses == 6
    assert identities._conj1_bracket.cache_info().misses == 10 * 5 * 2
    # both forms of a bracket read one product per (lo, r): lo = 0 and each
    # s = 1..5, extended one factor at a time over r = 0..10
    assert identities._rising_product.cache_info().misses == 6 * 11
    # both forms of a CONJ1 case read one totals entry per (n, r, s), r <= n,
    # and those of a CONJ2 case one per (n, s)
    assert identities._length_totals.cache_info().misses == 55 * 5 + 10 * 5
    for case, sides in zip(cases, warm):
        _clear_moment_caches()
        assert typed(case_sides(case)) == sides, str(case)


def test_memo_grid_same_content_at_one_and_two_workers(monkeypatch):
    # each worker fills its own memos from the slices it is given
    from partition_identities import verifier

    monkeypatch.setattr(verifier, "_usable_cpus", lambda: 2)
    report1 = run_sweep(MEMO_GRID)
    report2 = run_sweep(MEMO_GRID._replace(worker_count=2))
    assert report1.summary["counterexamples"] == 0
    assert report1.content_dict() == report2.content_dict()


def test_class_tables_match_a_recount_past_n_18():
    # one pass over each mu |- n, its weights recounted from its parts
    from partition_identities.identities import _class_table, _length_table

    for n in range(19, 27):
        classes = [[0] * (n + 1) for _ in range(n)]
        lengths = [[0] * (n + 1) for _ in range(n)]
        for mu in oracles.partitions(n):
            counts = Counter(mu)
            class_size = factorial(n) // oracles.z_value(mu)
            multinomial = factorial(len(mu)) // prod(factorial(m) for m in counts.values())
            for i, m in counts.items():
                classes[len(mu) - 1][i] += class_size * m
                lengths[len(mu) - 1][i] += multinomial * m
        assert _class_table(n) == tuple(map(tuple, classes)), f"n={n}"
        assert _length_table(n) == tuple(map(tuple, lengths)), f"n={n}"


def test_moment_tables_match_bruteforce_oracle():
    from partition_identities.identities import _class_table, _covering_table, _length_table

    for n in range(1, 19):

        def class_size(mu):
            return factorial(n) // oracles.z_value(mu)

        def multinomial(mu):
            denom = 1
            for m in Counter(mu).values():
                denom *= factorial(m)
            return factorial(len(mu)) // denom

        classes, lengths = _class_table(n), _length_table(n)
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
                assert conj3_sides(n, r, 1)[0] == Ratio(0)
                continue
            table = covering[r - 1]
            assert len(table) == r
            for length, vector in enumerate(table, start=1):
                expected = oracles.moments(
                    n, length, lambda mu: class_size(mu) * oracles.covering_count(mu, r)
                )
                assert list(vector) == expected, f"n={n} r={r} length={length}"


def test_each_moment_table_is_built_once(monkeypatch):
    # every r, s and form of one n reads one table: each table is built once
    # and visits no partition, so no table takes the walk, the listing's
    from partition_identities import genbinom, identities, partitions

    # the length table of 12 from the listing walk, each mu once, taken
    # before the walk is spied on
    walked = oracles.walked_length_table(12)
    _clear_moment_caches()
    walks = Counter()
    rows = []
    real_partitions_of = partitions._partitions_of

    def counted_partitions_of(n, leaf):
        walks["listing", n] += 1

        def counted_leaf(blocks, *state):
            rows.append(tuple(i for i, m in blocks for _ in range(m)))
            leaf(blocks, *state)

        real_partitions_of(n, counted_leaf)

    def refuse(name):
        def refused(*args):
            raise AssertionError(f"a table called {name}")

        return refused

    assert not hasattr(identities, "_row_coeffs") and not hasattr(identities, "gen_binom")
    monkeypatch.setattr(partitions, "_partitions_of", counted_partitions_of)
    for name in ("_row_coeffs", "gen_binom"):
        monkeypatch.setattr(genbinom, name, refuse(name))

    def built(iids, n):
        # every case of these identities at n, over every r, s and form
        _clear_moment_caches()
        walks.clear()
        rows.clear()
        for iid in iids:
            spec = IDENTITIES[iid]
            for r in range(1, n + 2) if "r" in spec.params else [None]:
                for s in range(spec.s_min, 6) if "s" in spec.params else [None]:
                    for form in list(Form) if "form" in spec.params else [None]:
                        case_sides(IdentityCase(iid, n, r, s, form))
        return tuple(
            getattr(identities, table).cache_info().misses
            for table in ("_covering_table", "_class_table", "_length_table")
        )

    # the CONJ1 table alone, and no walk
    assert built([IdentityId.CONJ1], 9) == (1, 0, 0)
    assert walks == Counter() and rows == []
    # the class table alone, from the exponential formula: no walk, and
    # neither the CONJ1 table nor gen_binom
    assert built([IdentityId.CLASSICAL, IdentityId.CONJ2], 12) == (0, 1, 0)
    assert walks == Counter() and rows == []
    # the length table alone, from the exponential formula: no walk, and
    # the sums of each mu once
    assert built([IdentityId.CONJ3, IdentityId.CONJ4], 12) == (0, 0, 1)
    assert walks == Counter() and rows == []
    assert identities._length_table(12) == walked
    # the listing spy is wired: a listing reaches it, each mu once
    assert len(partitions.enumerate_partitions(12)) == oracles.partition_count(12)
    assert sorted(rows) == sorted(oracles.partitions(12))
    assert walks == Counter({("listing", 12): 1})


def test_packed_covering_table_matches_unpacked_oracle():
    from partition_identities.identities import _covering_table

    for n in range(1, 21):
        assert _covering_table(n) == oracles.covering_table(n), f"n={n}"


def test_covering_table_matches_the_partition_walk():
    # the recurrence from the exponential formula against the sum over the
    # partitions, table for table
    from partition_identities.identities import _covering_table

    for n in range(1, 41):
        assert _covering_table(n) == oracles.walked_covering_table(n), f"n={n}"


def test_class_table_matches_the_partition_walk():
    # the same recurrence at g = 1 against the class sizes summed over the
    # partitions, z_mu recounted from each mu's blocks
    from partition_identities.identities import _class_table

    for n in range(1, 41):
        assert _class_table(n) == oracles.walked_class_table(n), f"n={n}"


def test_length_table_matches_the_partition_walk():
    # the exponential formula at g(k) = k against the multinomial sums over
    # the listing walk, prod m_j! recounted from each mu's blocks
    from partition_identities.identities import _length_table

    for n in range(1, 41):
        assert _length_table(n) == oracles.walked_length_table(n), f"n={n}"


def test_length_table_matches_the_block_program():
    # against the dynamic program over multiplicity blocks, which sums over
    # the partitions without visiting them, at every n the table accepts
    from partition_identities.identities import _length_table
    from partition_identities.partitions import MAX_N

    for n in range(1, MAX_N + 1):
        assert _length_table(n) == oracles.block_length_table(n), f"n={n}"


def test_packed_walk_matches_a_recount():
    # the packed walk's l!/prod m_i! and multiplicities against the same
    # sums with prod m_i! recounted from each mu's parts, at a width that no
    # entry at n <= 20 fills, so that every slot is compared
    for n in range(0, 21):
        assert oracles.packed_multinomial_sums(n, 64) == oracles.multinomial_sums(n, 64), n


def test_length_table_part_sums_count_compositions():
    # each mu |- n has sum_i i m_i(mu) = n, and the multinomials of the
    # partitions of length l count the compositions of n into l parts, so
    # sum_i i W_l[i] = n binom(n-1, l-1), at every n the table accepts
    from partition_identities.identities import _length_table
    from partition_identities.partitions import MAX_N

    for n in range(1, MAX_N + 1):
        for l, vector in enumerate(_length_table(n), start=1):
            assert sum(i * w for i, w in enumerate(vector)) == n * comb(n - 1, l - 1), (n, l)


def test_corrupted_packed_walk_fails_the_partition_walk(monkeypatch):
    # two twins of the block program, the length-table oracle that needs no
    # walk, must differ from the listing walk's sums
    tables = {n: oracles.walked_length_table(n) for n in range(1, 13)}
    # slots as wide as the largest entry hold the table; one bit less, and
    # that entry's slot carries into the next
    for n, table in tables.items():
        fits = max(map(max, table)).bit_length()
        for width, equal in ((fits, True), (fits - 1, False)):
            monkeypatch.setattr(oracles, "length_bits", lambda _: width)
            assert (oracles.block_length_table(n) == table) is equal, (n, width)
    monkeypatch.undo()
    # one wrong binomial, binom(4, 2) = 7, at the block of m = 2 parts added
    # to a state of length l = 2; the smallest partition whose path takes it
    # is 2+2+1+1, so every n >= 6 differs
    monkeypatch.setattr(oracles, "comb", lambda a, b: comb(a, b) + ((a, b) == (4, 2)))
    differ = [n for n, table in tables.items() if oracles.block_length_table(n) != table]
    assert differ == list(range(6, 13))


def test_corrupted_recurrence_fails_the_partition_walk(monkeypatch):
    # a twin whose [m-1]_{k-1} is wrong at one argument, [5]_2, which
    # e[6] reads, must give the three recurrence tables unlike their walks
    # at every n >= 7: the entries with i = n - 6 read e[6].  At n = 5 the
    # marked cycle reads [5]_2 / 2, which the wrong value leaves as it was
    from partition_identities import identities

    real_perm = identities.perm

    def perm(a, b):
        return real_perm(a, b) + ((a, b) == (5, 2))

    walks = {
        identities._covering_table: oracles.walked_covering_table,
        identities._class_table: oracles.walked_class_table,
    }
    _clear_moment_caches()
    monkeypatch.setattr(identities, "perm", perm)
    try:
        for table, walk in walks.items():
            differ = [n for n in range(1, 13) if table(n) != walk(n)]
            assert differ == list(range(7, 13)), table.__name__
        # the length table divides its rows by n!/l!: the wrong e[6] leaves
        # a remainder there, which a floor division would drop unseen
        for n in range(1, 7):
            assert identities._length_table(n) == oracles.walked_length_table(n), n
        for n in range(7, 13):
            with pytest.raises(ArithmeticError, match=f"n={n}"):
                identities._length_table(n)
    finally:
        _clear_moment_caches()


def test_packed_slots_are_wide_enough():
    from partition_identities.identities import _covering_table, _slot_bits

    for n in range(1, 21):
        width = _slot_bits(n)
        # the fewest bits that hold the stated bound n! n 2^n
        assert (factorial(n) * n * 2**n).bit_length() == width
        assert max(max(v) for lengths in _covering_table(n) for v in lengths) < 1 << width
    # the stated bound n! n 2^n at the largest n the enumeration accepts
    assert 1 << (_slot_bits(60) - 1) <= factorial(60) * 60 * 2**60 < 1 << _slot_bits(60)


def test_length_table_largest_entry_is_a_composition_count():
    from partition_identities.identities import _length_table

    for n in range(1, 31):
        # the largest entry, from the composition count: W_1[n] = 1 and
        # W_l[i] = l binom(n-i-1, l-2) for l >= 2
        largest = max(
            [1] + [l * comb(n - i - 1, l - 2) for l in range(2, n + 1) for i in range(1, n)]
        )
        assert max(max(v) for v in _length_table(n)) == largest, f"n={n}"


def test_moment_tables_are_built_from_the_enumeration(monkeypatch):
    # no table takes the walk: all three come from the exponential formula
    from partition_identities import identities, partitions

    def refuse(n, *_):
        raise AssertionError(f"enumerated the partitions of {n}")

    _clear_moment_caches()
    monkeypatch.setattr(partitions, "_partitions_of", refuse)
    # the spy is wired: a listing reaches it
    with pytest.raises(AssertionError, match="partitions of 7"):
        partitions.enumerate_partitions(7)
    def multinomial(mu):
        return factorial(len(mu)) // prod(map(factorial, Counter(mu).values()))

    assert identities._length_table(7) == tuple(
        tuple(oracles.moments(7, l, multinomial)) for l in range(1, 8)
    )
    assert identities._covering_table(7) == oracles.covering_table(7)
    assert identities._class_table(7) == tuple(
        tuple(oracles.moments(7, l, lambda mu: factorial(7) // oracles.z_value(mu)))
        for l in range(1, 8)
    )
    monkeypatch.undo()
    # the p(n) limit applies to every table, before it allocates its
    # O(n^2) vectors or packed polynomials
    for table in (identities._class_table, identities._length_table, identities._covering_table):
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
        value = case_sides(case)[0]
        return _nonzero(dict(enumerate(coeffs(value)))) if case.form else frac(value)

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
        # n! (binom(X, n) - binom(X-1, n)) from the products of linear factors
        difference = oracles.sub(
            oracles.falling_poly_product(0, n), oracles.falling_poly_product(-1, n)
        )
        assert lhs == rhs == oracles.mul(difference, Fraction(1, factorial(n)))


def test_conj2_matches_conj1_at_r_equals_n():
    for n in range(1, 8):
        for s in range(1, 5):
            for form in Form:
                assert conj2_sides(n, s, form) == conj1_sides(n, n, s, form)


def test_conj3_examples():
    lhs, rhs = conj3_sides(3, 2, 1)
    assert lhs == rhs == Ratio(3)
    # r = 1 closed form: (n)_s = s! C(n+s-1, s)
    for n in range(1, 9):
        for s in range(0, 6):
            lhs, rhs = conj3_sides(n, 1, s)
            assert lhs == rhs and frac(lhs) == oracles.rising(n, s)
            assert frac(rhs) == factorial(s) * oracles.binom_rat(n + s - 1, s)
    # r = 2 closed form: sum_{i<n} (i)_s
    for n in range(2, 9):
        for s in range(0, 6):
            lhs, rhs = conj3_sides(n, 2, s)
            assert lhs == rhs
            assert frac(lhs) == sum(oracles.rising(i, s) for i in range(1, n))


def test_conj4_examples():
    lhs, rhs = conj4_sides(4, 2, 2)
    assert lhs == rhs == Ratio(20)
    lhs, rhs = conj4_sides(2, 2, 1)
    assert lhs == rhs == Ratio(1)
    lhs, rhs = conj4_sides(3, 2, 1)
    assert lhs == rhs == Ratio(3)


def test_conj3_rhs_equals_conj4_rhs():
    for n in range(1, 10):
        for r in range(2, n + 1):
            for s in range(1, 6):
                assert conj3_sides(n, r, s)[1] == conj4_sides(n, r, s)[1]


def test_const_term_examples():
    lhs, rhs = const_term_sides(2, 1, 1)
    assert lhs == rhs == Ratio(-2)
    lhs, rhs = const_term_sides(1, 1, 2)
    assert lhs == rhs == Ratio(-2)


def test_const_term_matches_conj1_constant():
    # the identity carries (-1)^r while the length-1 summand carries
    # (-1)^{r-1}, so the polynomial's constant term is the negation
    for n, r, s in [(3, 2, 2), (4, 3, 1), (5, 2, 3), (2, 1, 1)]:
        conj_lhs, _ = conj1_sides(n, r, s, Form.SIGNED)
        ct_lhs, ct_rhs = const_term_sides(n, r, s)
        assert ct_lhs == ct_rhs
        assert frac(conj_lhs.coefficient(0)) == -frac(ct_lhs)


def test_top_coeff_examples():
    extracted, closed = top_coeff_checks(2, 2, 1)
    # bracket is X - 1; prefactor is 1: the X^1 and X^0 coefficients
    assert extracted == (Ratio(1), Ratio(-1))
    assert closed == (Ratio(1), Ratio(-1))
    # at r = 1 one check, as two scalars
    extracted, closed = top_coeff_checks(1, 1, 3)
    assert type(extracted) is type(closed) is Ratio
    assert extracted == closed


def test_top_coeff_agreement_on_grid():
    for n in range(1, 7):
        for r in range(1, 7):
            for s in range(1, 6):
                extracted, closed = top_coeff_checks(n, r, s)
                assert extracted == closed


def test_conj1_brackets_match_binom_rat_pointwise():
    # r! (binom(X+a, r) - binom(X+b, r)), SIGNED (a, b) = (0, -s) and
    # UNSIGNED (r+s-1, r-1), has degree at most r and so equals the
    # reference difference of binomials if it does at r + 1 points
    from partition_identities.identities import _conj1_bracket

    _clear_moment_caches()
    for s in (*range(1, 11), MAX_S):
        for r in range(1, 13):
            for form, a, b in ((Form.SIGNED, 0, -s), (Form.UNSIGNED, r + s - 1, r - 1)):
                bracket = _conj1_bracket(r, s, form)
                assert len(bracket) == r + 1 and bracket[r] == 0
                for x in range(-r // 2, r - r // 2 + 1):
                    value = sum(c * x**k for k, c in enumerate(bracket))
                    expected = oracles.binom_rat(x + a, r) - oracles.binom_rat(x + b, r)
                    assert Fraction(value, factorial(r)) == expected, (r, s, form, x)


def test_top_coeff_reads_the_conj1_rhs():
    # the two extracted coefficients are those of the CONJ1 RHS builder
    from partition_identities.identities import _conj1_prefactor, _conj1_rhs

    points = [(n, r, s) for n in range(1, 9) for r in range(1, n + 1) for s in range(1, 6)]
    points += [(12, 7, MAX_S), (40, 40, MAX_S), (400, 3, 2)]
    for n, r, s in points:
        prefactor = _conj1_prefactor(n, r, s)
        rhs = _conj1_rhs(r, s, Form.SIGNED, prefactor)
        extracted, _ = top_coeff_checks(n, r, s)
        coefficients = tuple(rhs.coefficient(k) for k in range(r - 1, max(r - 3, -1), -1))
        assert extracted == (coefficients if r >= 2 else coefficients[0])


def test_hockey_stick_examples():
    assert hockey_stick_sides(5, 2) == (Ratio(10), Ratio(10))
    assert hockey_stick_sides(4, 3) == (Ratio(4), Ratio(4))
    for big_n in range(2, 20):
        for k in range(2, big_n + 1):
            lhs, rhs = hockey_stick_sides(big_n, k)
            assert lhs == rhs


def test_hockey_stick_boundary_probe():
    # k = 1 mismatches under the usual conventions: N vs N - 1
    lhs, rhs = hockey_stick_sides(6, 1)
    assert lhs == Ratio(6) and rhs == Ratio(5)


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

    # [X+s]_n is built once, for the left-hand side: the Horner sum builds
    # no [X]_j of its own
    calls = []
    real = identities._falling_coeffs

    def recording(c, n):
        calls.append((c, n))
        return real(c, n)

    # and the one product under it, P(s-n+1, n), extends the memo's longest
    # P(s-n+1, k) one factor at a time: every product it reads has that lo
    products = []
    real_product = identities._rising_product

    def recording_product(lo, r):
        products.append((lo, r))
        return real_product(lo, r)

    monkeypatch.setattr(identities, "_falling_coeffs", recording)
    monkeypatch.setattr(identities, "_rising_product", recording_product)
    for n in range(13):
        for s in (1, 3):
            calls.clear()
            products.clear()
            assert binomial_type_sides(n, s)[0] == oracles.falling_poly_product(s, n)
            assert calls == [(s, n)]
            assert products[0] == (s - n + 1, n)
            assert {lo for lo, _ in products} == {s - n + 1}


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
        lhs, rhs = case_sides(case)
        assert lhs == rhs


def test_left_hand_sides_read_the_class_table(monkeypatch):
    # one row of (i)_s per s, and no Partition object on the hot path
    from partition_identities import identities

    def refuse(*args, **kwargs):
        raise AssertionError("a builder used a Partition object")

    for name in ("__init__", "z_value", "multiplicities"):
        monkeypatch.setattr(Partition, name, refuse)
    n, r, s = 9, 4, 3
    for build, expected in (
        (lambda: classical_sides(n, Form.SIGNED), 0),
        (lambda: conj1_sides(n, r, s, Form.UNSIGNED), 1),
        (lambda: conj2_sides(n, s, Form.SIGNED), 1),
        (lambda: conj3_sides(n, r, s), 1),
        (lambda: conj4_sides(n, r, s), 1),
    ):
        # the row is built on a cold memo and read back at the same s, or
        # not at all once the case's LHS totals are kept
        identities._rising_row.cache_clear()
        identities._length_totals.cache_clear()
        for rows_built in (expected, 0):
            before = identities._rising_row.cache_info().misses
            lhs, rhs = build()
            assert lhs == rhs
            assert identities._rising_row.cache_info().misses - before == rows_built


def test_rising_values_are_computed_once_per_s(monkeypatch):
    # 48 (n, s) pairs per identity, more than the memo's S_AXIS slots: a row
    # per (n, s) was rebuilt for every n and again for CONJ4
    from partition_identities import identities

    def refuse(*args):
        raise AssertionError(f"perm{args}")

    # the row comes from its recurrence, not from one math.perm per entry.
    # The length tables read math.perm in the exponential formula, so the
    # grid's are built before it is refused
    _clear_moment_caches()
    for n in range(1, 7):
        identities._length_table(n)
    monkeypatch.setattr(identities, "perm", refuse)
    grid = SweepConfig((IdentityId.CONJ3, IdentityId.CONJ4), (1, 6), (1, 2), (1, 8))
    assert run_sweep(grid).summary["counterexamples"] == 0
    # one row per s <= 8, read back by every other case with r <= n
    info = identities._rising_row.cache_info()
    readers = [case for case in expand_cases(grid) if case.r <= case.n]
    assert (info.misses, info.hits) == (8, len(readers) - 8)
    # a lone case builds one row, which every n and identity then reads
    case_sides(IdentityCase(IdentityId.CONJ3, 5, 2, MAX_S))
    case_sides(IdentityCase(IdentityId.CONJ3, 3, 2, MAX_S))
    case_sides(IdentityCase(IdentityId.CONJ4, 6, 2, MAX_S))
    assert identities._rising_row.cache_info().misses == 9
    # a full-width s axis, read once per (n, r): each row, and each s!, is
    # still held when its s comes round again
    for memo in (identities._rising_row, identities._rhs_factorial):
        memo.cache_clear()
    grid = SweepConfig((IdentityId.CONJ3,), (1, 3), (1, 3), (1, S_AXIS))
    assert run_sweep(grid).summary["counterexamples"] == 0
    readers = [case for case in expand_cases(grid) if case.r <= case.n]
    assert len(readers) > S_AXIS
    for memo in (identities._rising_row, identities._rhs_factorial):
        info = memo.cache_info()
        assert (info.misses, info.hits) == (S_AXIS, len(readers) - S_AXIS), memo


def test_rhs_factorials_are_computed_once_per_key():
    # s! (CONJ3) and (s-1)! (CONJ1, CONJ2) for s <= 8 are the nine keys
    # 0..8, each computed once whatever the n, r and form
    from partition_identities import identities

    _clear_moment_caches()
    ids = (IdentityId.CONJ1, IdentityId.CONJ2, IdentityId.CONJ3)
    grid = SweepConfig(ids, (1, 6), (1, 2), (1, 8))
    assert run_sweep(grid).summary["counterexamples"] == 0
    info = identities._rhs_factorial.cache_info()
    assert info.misses == 9 and info.hits > info.misses


def test_rising_row_matches_rising_factorial():
    # the recurrence against one math.perm per entry at every i <= MAX_N,
    # (i)_s = perm(i+s-1, s) for i >= 1, and against the term-by-term
    # product for small i and s
    from partition_identities.identities import _rising_row
    from partition_identities.partitions import MAX_N

    for s in (0, 1, 2, 7, 97, MAX_S):
        row = _rising_row(s)
        assert type(row) is tuple and len(row) == MAX_N + 1
        assert all(type(v) is int for v in row)
        expected = (int(s == 0), *(perm(i + s - 1, s) for i in range(1, MAX_N + 1)))
        assert row == expected, s
    for s in range(0, 7):
        assert _rising_row(s)[:15] == tuple(oracles.rising(i, s) for i in range(15))


def test_rising_row_covers_every_n_of_its_readers(monkeypatch):
    # a dot product with the row stops at the shorter of the two, so a row
    # shorter than an accepted n would drop terms without an error
    from partition_identities import identities

    readers = set()
    real = identities._rising_row
    fields = {"n": 3, "r": 2, "s": 2, "form": Form.SIGNED}
    for iid, spec in IDENTITIES.items():

        def recording(s, iid=iid):
            readers.add(iid)
            return real(s)

        monkeypatch.setattr(identities, "_rising_row", recording)
        case_sides(IdentityCase(iid, **{key: fields[key] for key in spec.params}))
    assert readers == {IdentityId.CONJ1, IdentityId.CONJ2, IdentityId.CONJ3, IdentityId.CONJ4}
    for iid in readers:
        assert len(real(IDENTITIES[iid].s_min)) > IDENTITIES[iid].max_n, iid


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
            sides[side] = Polynomial((p.nums[0] + 1,) + p.nums[1:], p.den)
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
                expected = {k: c * (-1) ** (r - 1) for k, c in enumerate(coeffs(signed))}
                assert _nonzero(flipped) == _nonzero(expected), f"({n},{r},{s})"


def test_conj1_far_above_n_builds_no_bracket(monkeypatch):
    # r > n makes the prefactor binom(n+s-1, n-r) zero, so neither side
    # builds anything of degree r, neither a bracket nor a product under it;
    # CONJ1, CONJ3 and CONJ4 read no row of (i)_s, no LHS totals and no
    # table either
    from partition_identities import identities

    def refuse(name):
        def refused(*args):
            raise AssertionError(f"{name}{args}")

        return refused

    _clear_moment_caches()
    real_bracket = identities._conj1_bracket
    memos = (
        "_falling_coeffs",
        "_rising_product",
        "_conj1_bracket",
        "_rising_row",
        "_length_totals",
        "_class_table",
        "_length_table",
        "_covering_table",
    )
    for name in memos:
        monkeypatch.setattr(identities, name, refuse(name))
    n = 5
    for r in (n + 1, 5000):
        for s in range(1, 4):
            for form in Form:
                assert conj1_sides(n, r, s, form) == (Polynomial(), Polynomial())
            extracted, closed = top_coeff_checks(n, r, s)
            assert extracted == closed == (Ratio(0), Ratio(0))
            for build in (conj3_sides, conj4_sides):
                lhs, rhs = build(n, r, s)
                assert lhs == rhs == Ratio(0)
                assert type(lhs) is type(rhs) is Ratio
    # the refusals are live
    with pytest.raises(AssertionError, match="_rising_row"):
        conj3_sides(n, n, 1)
    with pytest.raises(AssertionError, match="_length_totals"):
        conj1_sides(n, n, 1, Form.SIGNED)
    with pytest.raises(AssertionError, match="_conj1_bracket"):
        top_coeff_checks(n, n, 1)
    monkeypatch.setattr(identities, "_conj1_bracket", real_bracket)
    with pytest.raises(AssertionError, match="_rising_product"):
        top_coeff_checks(n, n, 1)


def test_scalar_ids_above_n_build_no_factorial(monkeypatch):
    # r > n makes the prefactor binom(n+s-1, n-r) zero, so CONST_TERM and
    # TOP_COEFF are zero without building r! or a product of r factors
    from partition_identities import identities

    n = 5
    for r in (n + 1, 200000):
        real = factorial

        def capped(k, r=r):
            if k >= r:
                raise AssertionError(f"built {k}!")
            return real(k)

        monkeypatch.setattr(identities, "factorial", capped)
        for s in range(1, 4):
            const_term = case_sides(IdentityCase(IdentityId.CONST_TERM, n, r, s))
            top_coeff = case_sides(IdentityCase(IdentityId.TOP_COEFF, n, r, s))
            assert const_term == (Ratio(0), Ratio(0))
            assert top_coeff == ((Ratio(0), Ratio(0)), (Ratio(0), Ratio(0)))
            for lhs, rhs in (const_term, *zip(*top_coeff)):
                assert type(lhs) is type(rhs) is Ratio


def test_coefficient_bridge_top():
    # (r-1)! times the X^{r-1} coefficient of the UNSIGNED LHS equals
    # the length-r scalar sum
    for n in range(1, 8):
        for r in range(1, n + 1):
            for s in range(1, 5):
                lhs, _ = conj1_sides(n, r, s, Form.UNSIGNED)
                bridge = factorial(r - 1) * frac(lhs.coefficient(r - 1))
                assert bridge == frac(conj3_sides(n, r, s)[0])


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
                assert frac(rhs.coefficient(r - 2)) == prefactor * bracket_coeff


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


@pytest.mark.parametrize(
    "fields",
    [
        # a form's name is not a Form: it was judged VERIFIED as UNSIGNED
        (IdentityId.CONJ1, 5, 3, 2, "SIGNED"),
        (IdentityId.CONJ3, 5.0, 3, 2, None),
        (IdentityId.CONJ3, 5, 3.0, 2, None),
        (IdentityId.CONJ3, 5, 3, 2.0, None),
        # a bool is an int subclass, and True would pass as 1
        (IdentityId.CONJ3, True, 1, 2, None),
        (IdentityId.CONJ3, 5, True, 2, None),
        (IdentityId.CONJ3, 5, 3, False, None),
        # an id's name, or no id, is not an IdentityId: both were a KeyError
        ("CONJ1", 5, 3, 2, Form.SIGNED),
        (None, 5),
    ],
)
def test_case_refuses_fields_of_the_wrong_type(fields):
    with pytest.raises(TypeError):
        IdentityCase(*fields)


#: (a value, an equal one built another way, an unequal one of its type,
#: its fields by name), one per value type
VALUES = [
    pytest.param(
        IdentityCase(IdentityId.CONJ1, 5, 3, 2, Form.SIGNED),
        IdentityCase(identity_id=IdentityId.CONJ1, n=5, r=3, s=2, form=Form.SIGNED),
        IdentityCase(IdentityId.CONJ1, 5, 3, 2, Form.UNSIGNED),
        {"identity_id": IdentityId.CONJ1, "n": 5, "r": 3, "s": 2, "form": Form.SIGNED},
        id="IdentityCase",
    ),
    pytest.param(
        Partition([3, 1]), Partition((3, 1)), Partition([3]), {"parts": (3, 1)}, id="Partition"
    ),
    # a pickled Ratio(2, 4) comes back as 1/2
    pytest.param(
        Ratio(1, 2), pickle.loads(pickle.dumps(Ratio(2, 4))), Ratio(1, 3), {"num": 1, "den": 2},
        id="Ratio",
    ),
    pytest.param(
        Polynomial([1, 2], 3), Polynomial([-2, -4, 0], -6), Polynomial([1, 2]),
        {"nums": (1, 2), "den": 3}, id="Polynomial",
    ),
]

#: one value of each type, for the checks across types
FOREIGN = (IdentityCase(IdentityId.HOCKEY_STICK, 3, 2), Partition([3]), Ratio(3), Polynomial([3]))


@pytest.mark.parametrize("value, same, other, named", VALUES)
def test_value_contract(value, same, other, named):
    fields = tuple(named.values())
    assert tuple(getattr(value, key) for key in named) == fields
    bag = {value}
    for key in (*named, "other"):
        with pytest.raises(AttributeError):
            setattr(value, key, 4)
        with pytest.raises(AttributeError):
            delattr(value, key)
    # nothing was changed, so the value is still found where it was put
    assert tuple(getattr(value, key) for key in named) == fields
    assert value in bag and same in bag
    # equal, and hash-equal, by value, also when built another way
    assert same is not value and same == value and hash(same) == hash(value)
    assert value != other and other not in bag
    # but not equal to the bare tuple of its fields, either way round
    assert value != fields and fields != value
    assert value.__eq__(fields) is NotImplemented
    # nor to a value of another type: Ratio(3) is not Polynomial([3])
    for foreign in FOREIGN:
        if type(foreign) is not type(value):
            assert value != foreign and foreign != value
    # a copy is built by the constructor from the fields, and so checked
    assert value.__reduce__() == (type(value), fields)
    for copied in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
        assert copied == value and type(copied) is type(value)


def test_spec_params_are_the_builder_parameters():
    # read once per spec from the builder's code object; only this test
    # asks inspect, which a sweep process never imports
    for iid, spec in IDENTITIES.items():
        assert spec.params == tuple(inspect.signature(spec.build).parameters), iid


def test_case_text_round_trip():
    # keyword construction leaves the fields an identity does not take None
    hockey = IdentityCase(IdentityId.HOCKEY_STICK, n=5, r=2)
    assert (hockey.s, hockey.form) == (None, None)
    assert hockey == IdentityCase(IdentityId.HOCKEY_STICK, 5, 2, None, None)
    assert repr(hockey) == (
        "IdentityCase(identity_id=<IdentityId.HOCKEY_STICK: 'HOCKEY_STICK'>, "
        "n=5, r=2, s=None, form=None)"
    )
    case = IdentityCase(IdentityId.CONJ1, n=5, r=3, s=2, form=Form.SIGNED)
    assert str(case) == "CONJ1(n=5,r=3,s=2,form=SIGNED)"
    assert IdentityCase.parse(str(case)) == case
    case = IdentityCase(IdentityId.CONJ3, n=4, r=2, s=0)
    assert IdentityCase.parse(str(case)) == case
    with pytest.raises(ValueError):
        IdentityCase.parse("NOPE(n=1)")
    with pytest.raises(ValueError):
        IdentityCase.parse("CONJ1")
    with pytest.raises(ValueError, match="unknown parameter"):
        IdentityCase.parse("CONJ3(n=3,x=1)")


def test_case_text_matches_the_field_by_field_oracle():
    # every case of the benchmark's grid-all grid: all nine ids, each with
    # the fields it takes, both forms where it has them
    cases = expand_cases(SweepConfig(
        identity_ids=tuple(IdentityId), n_range=(1, 10), r_range=(1, 10), s_range=(1, 8)
    ))
    assert len(cases) == 5160
    for case in cases:
        assert str(case) == oracles.case_text(case), repr(case)


def test_case_sides_dispatch():
    # every id reaches its own builder with its own fields, in order
    cases = [
        ("CLASSICAL(n=3,form=SIGNED)", classical_sides, (3, Form.SIGNED), Polynomial),
        ("CONJ1(n=3,r=2,s=1,form=UNSIGNED)", conj1_sides, (3, 2, 1, Form.UNSIGNED), Polynomial),
        ("CONJ2(n=3,s=2,form=UNSIGNED)", conj2_sides, (3, 2, Form.UNSIGNED), Polynomial),
        ("CONJ3(n=5,r=2,s=3)", conj3_sides, (5, 2, 3), Ratio),
        ("CONJ4(n=5,r=3,s=2)", conj4_sides, (5, 3, 2), Ratio),
        ("CONST_TERM(n=4,r=3,s=2)", const_term_sides, (4, 3, 2), Ratio),
        ("TOP_COEFF(n=3,r=2,s=1)", top_coeff_checks, (3, 2, 1), tuple),
        ("HOCKEY_STICK(n=5,r=2)", hockey_stick_sides, (5, 2), Ratio),
        ("BINOMIAL_TYPE(n=3,s=2)", binomial_type_sides, (3, 2), Polynomial),
    ]
    assert {IdentityCase.parse(text).identity_id for text, *_ in cases} == set(IdentityId)
    for text, build, args, kind in cases:
        sides = case_sides(IdentityCase.parse(text))
        # one pair, as the builder returns it
        assert type(sides) is tuple and len(sides) == 2, text
        assert sides == build(*args), text
        lhs, rhs = sides
        assert type(lhs) is type(rhs) is kind, text
        assert lhs == rhs


def test_arguments_getter_returns_a_tuple_for_one_field():
    # itemgetter of a single index would return the field itself
    from partition_identities.identities import IdentitySpec

    def of_n(n):
        pass

    def of_s(s):
        pass

    def of_n_form(n, form):
        pass

    values = (IdentityId.CONJ1, 5, 3, 2, Form.SIGNED)
    assert IdentitySpec.of(of_n).arguments(values) == (5,)
    assert IdentitySpec.of(of_s).arguments(values) == (2,)
    assert IdentitySpec.of(of_n_form).arguments(values) == (5, Form.SIGNED)
    assert IdentitySpec.of(conj1_sides).arguments(values) == values[1:]
    # and the presence of r, s and form follows the same names
    assert IdentitySpec.of(of_n).present == (False, False, False)
    assert IdentitySpec.of(of_s).present == (False, True, False)
    assert IdentitySpec.of(of_n_form).present == (False, False, True)
    assert IdentitySpec.of(conj1_sides).present == (True, True, True)


def test_cases_above_n_share_one_zero_pair():
    # every id that takes r returns the module's zero pair itself for r > n,
    # a pair equal to fresh zeros and written as them; TOP_COEFF's is the
    # pair of its two zero checks
    from partition_identities import identities

    polynomials = identities._ZERO_POLYNOMIALS
    ratios = identities._ZERO_RATIOS
    checks = identities._ZERO_CHECKS
    assert polynomials == (Polynomial(), Polynomial())
    assert ratios == (Ratio(0), Ratio(0))
    assert checks == ((Ratio(0), Ratio(0)), (Ratio(0), Ratio(0)))
    assert [serialize_side(v) for v in polynomials] == [[], []]
    assert [serialize_side(v) for v in ratios] == ["0", "0"]
    assert [serialize_side(v) for v in checks] == [["0", "0"], ["0", "0"]]
    taking_r = [iid for iid, spec in IDENTITIES.items() if "r" in spec.params]
    assert set(taking_r) == {
        IdentityId.CONJ1, IdentityId.CONJ3, IdentityId.CONJ4, IdentityId.CONST_TERM,
        IdentityId.TOP_COEFF, IdentityId.HOCKEY_STICK,
    }
    for n in (1, 4):
        for r in (n + 1, 50):
            for s in (1, 3):
                for form in Form:
                    case = IdentityCase(IdentityId.CONJ1, n, r, s, form)
                    assert case_sides(case) is polynomials
                for iid in (IdentityId.CONJ3, IdentityId.CONJ4, IdentityId.CONST_TERM):
                    assert case_sides(IdentityCase(iid, n, r, s)) is ratios
                assert case_sides(IdentityCase(IdentityId.TOP_COEFF, n, r, s)) is checks
            assert case_sides(IdentityCase(IdentityId.HOCKEY_STICK, n, r)) is ratios


@pytest.mark.parametrize(
    "fields, message",
    [
        ((IdentityId.CONJ1, 5, None, None, None), "CONJ1: parameter r required"),
        ((IdentityId.CONJ1, 5, 3, None, Form.SIGNED), "CONJ1: parameter s required"),
        ((IdentityId.CONJ1, 5, 3, 2, None), "CONJ1: form required"),
        ((IdentityId.CONJ2, 5, 3, None, None), "CONJ2: parameter r not applicable"),
        ((IdentityId.CONJ2, 5, None, 2, None), "CONJ2: form required"),
        ((IdentityId.CONJ3, 5, 3, 2, Form.SIGNED), "CONJ3: form not applicable"),
        ((IdentityId.HOCKEY_STICK, 5, 3, 2, None), "HOCKEY_STICK: parameter s not applicable"),
        ((IdentityId.CLASSICAL, 5, None, None, None), "CLASSICAL: form required"),
        ((IdentityId.BINOMIAL_TYPE, 5, 0, 0, None), "BINOMIAL_TYPE: parameter r not applicable"),
        # n is checked before the fields' presence, and presence before r and s
        ((IdentityId.CONJ1, 0, None, None, None), "CONJ1: n must be in 1..60"),
        ((IdentityId.CONJ2, 5, 0, 0, Form.SIGNED), "CONJ2: parameter r not applicable"),
        ((IdentityId.CONJ3, 5, 0, None, None), "CONJ3: parameter s required"),
        ((IdentityId.CONJ3, 5, 0, -1, None), "CONJ3: r must be >= 1"),
    ],
)
def test_case_presence_refusals_name_the_first_wrong_field(fields, message):
    with pytest.raises(ValueError) as info:
        IdentityCase(*fields)
    assert str(info.value) == message
