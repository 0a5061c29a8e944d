from fractions import Fraction
from math import comb, factorial, gcd, perm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from partition_identities.identities import _falling_coeffs, binomial_type_sides
from partition_identities.polynomials import (
    NEG_INFINITY,
    Polynomial,
    format_rational,
    int_str,
)

from oracles import (
    add,
    binom_rat,
    evaluate,
    falling,
    falling_poly_product,
    mul,
    neg_x,
    render,
    rising,
    sub,
)

#: the indeterminate, as a plain value
X = Polynomial([0, 1])


def falling_poly(c, n):
    """[X+c]_n from the builders' kernel, as a Polynomial."""
    return Polynomial.over(_falling_coeffs(c, n), 1)


def binomial_poly(c, r):
    """binom(X+c, r) as the builders make it: [X+c]_r over r!."""
    return Polynomial.over(_falling_coeffs(c, r), factorial(r))


rationals = st.fractions(
    min_value=-50, max_value=50, max_denominator=20
)
small_polys = st.lists(rationals, max_size=5).map(Polynomial)
# rationals with the units +-1 drawn often, as render drops a unit in front of X
render_polys = st.lists(rationals | st.sampled_from([1, -1]), max_size=5).map(Polynomial)


def test_canonical_form_trims_trailing_zeros():
    assert Polynomial([1, 2, 0, 0]).coeffs == (1, 2)
    assert Polynomial([0, 0]).coeffs == ()
    assert Polynomial().degree == NEG_INFINITY
    assert Polynomial([0, 0, 5]).degree == 2


def test_hash_agrees_with_eq():
    assert Polynomial([3]) == 3 and hash(Polynomial([3])) == hash(3)
    assert Polynomial() == 0 and hash(Polynomial()) == hash(0)
    assert hash(Polynomial([Fraction(1, 2)])) == hash(Fraction(1, 2))
    assert len({Polynomial([3]), 3}) == 1
    assert Polynomial.over([0, 2], 2) in {X}


def test_mul_examples():
    assert mul(X, add(X, 1)) == Polynomial([0, 1, 1])
    assert mul(Polynomial(), Polynomial([-1, 0, 3])) == Polynomial()
    assert mul(add(mul(2, X), 1), sub(mul(2, X), 1)) == Polynomial([-1, 0, 4])


def test_eval_examples():
    p = sub(mul(X, X), X)
    assert evaluate(p, 3) == 6
    assert evaluate(Polynomial(), Fraction(7, 2)) == 0
    binom_x_2 = Polynomial([0, Fraction(-1, 2), Fraction(1, 2)])
    assert evaluate(binom_x_2, Fraction(1, 2)) == Fraction(-1, 8)


def test_rising_factorial_examples():
    # (x)_n = perm(x+n-1, n) for x >= 1, as CONST_TERM computes it
    assert perm(3 + 2 - 1, 2) == rising(3, 2) == 12
    assert rising(Fraction(9, 7), 0) == 1
    assert rising(-1, 3) == 0


def test_falling_factorial_poly_examples():
    assert falling_poly(0, 2) == sub(mul(X, X), X)
    assert falling_poly(-1, 1) == sub(X, 1)
    assert evaluate(falling_poly(2, 3), 0) == 0
    assert falling_poly(-7, 0) == Polynomial([1])


#: the integer shifts c of [X+c]_n the differential tests run over
KERNEL_SHIFTS = range(-8, 9)


def test_falling_factorial_poly_matches_product_oracle():
    # the whole coefficient list, n + 1 entries with a leading 1
    for c in KERNEL_SHIFTS:
        for n in range(13):
            assert tuple(_falling_coeffs(c, n)) == falling_poly_product(c, n).coeffs


def test_binom_poly_matches_binom_rat_pointwise():
    # degree r and equal at r + 1 points: the same polynomial
    for c in KERNEL_SHIFTS:
        for r in range(11):
            p = binomial_poly(c, r)
            assert p.degree == r
            for x in range(-3, r - 2):
                assert evaluate(p, x) == binom_rat(x + c, r)


def test_falling_coeffs_type_contract():
    for c in (-3, 0, 5, 10**4):
        for n in range(8):
            coeffs = _falling_coeffs(c, n)
            assert type(coeffs) is list and all(type(k) is int for k in coeffs)
    assert _falling_coeffs(5, 0) == [1]


def test_binom_poly_examples():
    assert binomial_poly(0, 2) == Polynomial([0, Fraction(-1, 2), Fraction(1, 2)])
    assert binomial_poly(0, 0) == Polynomial([1])
    assert binomial_poly(-1, 1) == sub(X, 1)


def test_binom_rat_examples():
    assert binom_rat(4, 2) == 6
    assert binom_rat(4, -1) == 0
    assert binom_rat(-2, 2) == 3
    # binom_rat must never fall back to float division
    for x, k in ((5, 2), (-3, 2), (4, -1)):
        assert type(binom_rat(x, k)) is Fraction


@given(small_polys, small_polys, small_polys)
@settings(max_examples=60)
def test_ring_axioms(a, b, c):
    assert mul(a, b) == mul(b, a)
    assert mul(mul(a, b), c) == mul(a, mul(b, c))
    assert mul(a, add(b, c)) == add(mul(a, b), mul(a, c))
    assert add(a, b) == add(b, a)


@given(small_polys, small_polys)
@settings(max_examples=60)
def test_degree_of_product(a, b):
    if a and b:
        assert mul(a, b).degree == a.degree + b.degree


@given(rationals, st.integers(min_value=0, max_value=12))
def test_rising_equals_shifted_falling(x, n):
    # (x)_n = [x+n-1]_n: the UNSIGNED classical right-hand side times n!
    assert rising(x, n) == evaluate(falling_poly(n - 1, n), x)


def test_binomial_type_property_exhaustive():
    # [x+y]_n = sum_k C(n,k) [x]_{n-k} [y]_k, over the full integer grid
    table = {(x, k): falling(x, k) for x in range(-40, 41) for k in range(11)}
    for n in range(0, 11):
        for x in range(-20, 21):
            for y in range(-20, 21):
                total = sum(
                    comb(n, k) * table[x, n - k] * table[y, k] for k in range(n + 1)
                )
                assert total == table[x + y, n]


def test_binom_rat_matches_pascal():
    from oracles import pascal_triangle

    tri = pascal_triangle(31)
    for m in range(31):
        for k in range(m + 1):
            assert binom_rat(m, k) == tri[m][k]


@given(
    st.integers(min_value=-30, max_value=30),
    st.integers(min_value=0, max_value=12),
    st.integers(min_value=0, max_value=12),
)
@settings(max_examples=300)
def test_integer_kernels_match_oracle(x, n, k):
    # the math.perm kernels of the builders, on the domains they are called
    # at: (x)_n for x >= 1 (CONST_TERM) and [x]_n for x >= 0 (BINOMIAL_TYPE)
    if x >= 1:
        assert perm(x + n - 1, n) == rising(x, n)
    if x >= 0:
        assert perm(x, n) == falling(x, n)
    assert binom_rat(x, k) == Fraction(falling(x, k), factorial(k))


def test_binom_rat_integer_examples():
    # upper negation, and k above a non-negative x
    assert binom_rat(-1, 5) == -1
    assert binom_rat(-3, 2) == 6
    assert binom_rat(-3, 0) == 1
    assert binom_rat(2, 5) == 0


numerator_lists = st.lists(
    st.integers(min_value=-10**6, max_value=10**6), max_size=6
).flatmap(lambda nums: st.integers(0, 2).map(lambda zeros: nums + [0] * zeros))
denominators = st.integers(min_value=-720, max_value=720).filter(bool)


@given(numerator_lists, denominators)
@settings(max_examples=200)
def test_over_matches_fraction_constructor(nums, den):
    p = Polynomial.over(nums, den)
    q = Polynomial(Fraction(c, den) for c in nums)
    assert p == q and hash(p) == hash(q)
    assert p.coeffs == q.coeffs
    assert all(type(c) is Fraction for c in p.coeffs)
    assert p.to_strings() == [format_rational(c) for c in p.coeffs]
    # canonical form: no trailing zero, den > 0, nothing left to cancel
    assert not p.nums or p.nums[-1] != 0
    assert p.den > 0 and gcd(p.den, *p.nums) == 1
    assert all(p.coefficient(k) == Fraction(c, den) for k, c in enumerate(nums))


def test_over_canonical_examples():
    assert (Polynomial.over([0, 0], -7).nums, Polynomial.over([0, 0], -7).den) == ((), 1)
    p = Polynomial.over([4, -6, 0], -8)
    assert (p.nums, p.den) == ((-2, 3), 4)
    assert p.coeffs == (Fraction(-1, 2), Fraction(3, 4))
    p = Polynomial.over([3, -2], -1)
    assert (p.nums, p.den) == ((-3, 2), 1)
    assert Polynomial.over([6], 3) == 2 and hash(Polynomial.over([6], 3)) == hash(2)
    with pytest.raises(ZeroDivisionError):
        Polynomial.over([1], 0)


def test_rational_serialization_round_trip():
    assert format_rational(Fraction(3, 1)) == "3"
    assert format_rational(Fraction(-5, 2)) == "-5/2"
    for x in (Fraction(-5, 2), Fraction(7), Fraction(0)):
        assert Fraction(format_rational(x)) == x


def _digits_by_chunks(x):
    """Decimal digits of x >= 0, 18 at a time, each chunk far under any limit."""
    chunks = []
    while x >= 10**18:
        x, chunk = divmod(x, 10**18)
        chunks.append(f"{chunk:018d}")
    return str(x) + "".join(reversed(chunks))


def test_int_str_has_no_digit_limit():
    # CPython's str() refuses an int of more than 4300 digits by default
    for x in (0, 7, 10**602, 2**2000 - 1, 2**2000, 10**4300, 10**5000 - 1,
              3**60000, 7**30000 * 10**1000, 10**1000 + 1):
        assert int_str(x) == _digits_by_chunks(x)
        assert int_str(-x) == ("-" if x else "") + _digits_by_chunks(x)
    big = Fraction(3**20000, 2**20000 + 1)
    assert format_rational(big) == f"{_digits_by_chunks(3**20000)}/{_digits_by_chunks(2**20000 + 1)}"
    p = Polynomial.over([-(3**20000), 0, 5], 2)
    assert p.to_strings() == [f"-{_digits_by_chunks(3**20000)}/2", "0", "5/2"]
    assert p.render() == f"5/2·X^2 - {_digits_by_chunks(3**20000)}/2"
    # about the size of the sides of CONJ3(n=20,r=10,s=10000)
    big = 10**36000 - 1
    digits = _digits_by_chunks(big // 3)
    assert Polynomial.over([7, 0, -big, big], 3).render() == f"{digits}·X^3 - {digits}·X^2 + 7/3"


def test_polynomial_serialization_round_trip():
    p = Polynomial([Fraction(-1, 2), 0, 3])
    assert p.to_strings() == ["-1/2", "0", "3"]
    assert Polynomial(Fraction(s) for s in p.to_strings()) == p
    assert Polynomial().to_strings() == []


@given(render_polys)
@settings(max_examples=200)
def test_render_matches_oracle(p):
    assert p.render() == render(p)


def test_render_style(monkeypatch):
    # the left-hand side of BINOMIAL_TYPE(n=300, s=10^4)
    degree_300 = binomial_type_sides(300, 10**4)[0]
    expected = render(degree_300)

    def refuse(self):
        raise AssertionError("render read the Fraction view")

    # render formats the integer numerators, never one Fraction per term
    monkeypatch.setattr(Polynomial, "coeffs", property(refuse))
    p = Polynomial([0, Fraction(-1, 2), Fraction(1, 2)])
    assert p.render() == "1/2·X^2 - 1/2·X"
    assert Polynomial().render() == "0"
    assert Polynomial([Fraction(-7, 3)]).render() == "-7/3"
    assert Polynomial([-1, 1, -1, 1]).render() == "X^3 - X^2 + X - 1"
    assert Polynomial([Fraction(1, 2), Fraction(-1, 2), 0, -1]).render() == "-X^3 - 1/2·X + 1/2"
    assert X.render() == "X"
    assert Polynomial([-1, 1]).render() == "X - 1"
    assert Polynomial([0, -1]).render() == "-X"
    assert degree_300.render() == expected


def test_substitute_neg_x():
    p = Polynomial([1, 2, 3])
    assert neg_x(p) == Polynomial([1, -2, 3])


def test_negative_n_rejected():
    for c, n in ((3, -1), (0, -2)):
        with pytest.raises(ValueError):
            _falling_coeffs(c, n)
