from fractions import Fraction
from math import comb, factorial, gcd, perm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from partition_identities.identities import (
    MAX_S,
    _falling_coeffs,
    _rising_product,
    binomial_type_sides,
    conj3_sides,
    const_term_sides,
)
from partition_identities.polynomials import (
    NEG_INFINITY,
    Polynomial,
    Ratio,
    int_str,
    render as render_side,
)

from oracles import (
    add,
    binom_rat,
    coeffs,
    evaluate,
    falling,
    falling_poly_product,
    frac,
    mul,
    neg_x,
    poly,
    render,
    rising,
    sub,
)

#: the indeterminate, as a plain value
X = Polynomial([0, 1])


def falling_poly(c, n):
    """[X+c]_n from the builders' kernel, as a Polynomial."""
    return Polynomial(_falling_coeffs(c, n))


def binomial_poly(c, r):
    """binom(X+c, r) as the builders make it: [X+c]_r over r!."""
    return Polynomial(_falling_coeffs(c, r), factorial(r))


rationals = st.fractions(
    min_value=-50, max_value=50, max_denominator=20
)
small_polys = st.lists(rationals, max_size=5).map(poly)
# rationals with the units +-1 drawn often, as render drops a unit in front of X
render_polys = st.lists(rationals | st.sampled_from([1, -1]), max_size=5).map(poly)


def test_canonical_form_trims_trailing_zeros():
    assert Polynomial([1, 2, 0, 0]).nums == (1, 2)
    assert coeffs(poly([1, 2, 0, 0])) == (1, 2)
    assert Polynomial([0, 0]).nums == () and coeffs(poly([0, 0])) == ()
    assert Polynomial().degree == NEG_INFINITY
    assert Polynomial([0, 0, 5]).degree == 2


def test_hash_agrees_with_eq():
    for p, q in ((Polynomial([3]), Polynomial([6], 2)), (Polynomial(), Polynomial([0], 5))):
        assert p == q and hash(p) == hash(q)
    assert Polynomial([0, 2], 2) in {X}
    # a constant is a polynomial, not the scalar it holds
    for scalar in (3, Fraction(3), Ratio(3), (3,), ((3,), 1)):
        assert Polynomial([3]) != scalar and scalar != Polynomial([3])
    assert Polynomial() != 0 and Polynomial() != Ratio(0)
    assert len({Polynomial([3]), 3, Ratio(3)}) == 3
    # a polynomial is not equal to its text, nor to a float
    p = poly([0, Fraction(-1, 2), Fraction(1, 2)])
    assert p != "1/2·X^2 - 1/2·X" and p != p.to_strings() and Polynomial([3]) != "3"
    assert p.__eq__("1/2·X^2 - 1/2·X") is NotImplemented
    assert Polynomial([3]).__eq__(3.0) is NotImplemented


def test_mul_examples():
    assert mul(X, add(X, 1)) == Polynomial([0, 1, 1])
    assert mul(Polynomial(), Polynomial([-1, 0, 3])) == Polynomial()
    assert mul(add(mul(2, X), 1), sub(mul(2, X), 1)) == Polynomial([-1, 0, 4])


def test_eval_examples():
    p = sub(mul(X, X), X)
    assert evaluate(p, 3) == 6
    assert evaluate(Polynomial(), Fraction(7, 2)) == 0
    binom_x_2 = poly([0, Fraction(-1, 2), Fraction(1, 2)])
    assert evaluate(binom_x_2, Fraction(1, 2)) == Fraction(-1, 8)
    assert evaluate(binom_x_2, Ratio(1, 2)) == Fraction(-1, 8)
    assert evaluate(Ratio(-7, 3), 5) == Fraction(-7, 3)


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
            assert tuple(_falling_coeffs(c, n)) == coeffs(falling_poly_product(c, n))


def test_binom_poly_matches_binom_rat_pointwise():
    # degree r and equal at r + 1 points: the same polynomial
    for c in KERNEL_SHIFTS:
        for r in range(11):
            p = binomial_poly(c, r)
            assert p.degree == r
            for x in range(-3, r - 2):
                assert evaluate(p, x) == binom_rat(x + c, r)


def test_rising_product_matches_product_oracle():
    # P(lo, r) = [X+lo+r-1]_r, against the literal product of its factors
    # taken in the other order, from the top one down; negative lo is
    # BINOMIAL_TYPE's s-n+1 and CLASSICAL's 1-n
    _rising_product.cache_clear()
    for lo in (-298, -59, -1, 0, 5):
        for r in range(61):
            expected = falling_poly_product(lo + r - 1, r)
            assert Polynomial(_rising_product(lo, r)) == expected, (lo, r)


def test_rising_product_at_r_400_matches_pointwise():
    # degree 400, checked at a few points against the product of its values;
    # lo = MAX_S is TOP_COEFF's largest, 2-300 BINOMIAL_TYPE's lowest
    _rising_product.cache_clear()
    for lo in (-399, -298, 0, 3, MAX_S):
        product = Polynomial(_rising_product(lo, 400))
        assert product.degree == 400
        for x in (-lo - 400, -lo, -3, 0, 2, 7):
            assert evaluate(product, x) == rising(x + lo, 400), (lo, x)


def test_rising_product_does_not_depend_on_fill_order():
    # a product extended from a memo entry equals one built cold, whatever
    # order the memo was filled in, and whatever it evicted on the way
    import random

    keys = [(lo, r) for lo in (-5, 0, 3, MAX_S) for r in range(41)]
    cold = {}
    for key in keys:
        _rising_product.cache_clear()
        cold[key] = _rising_product(*key)
    shuffled = keys[:]
    random.Random(7).shuffle(shuffled)
    for order in (keys, keys[::-1], shuffled):
        _rising_product.cache_clear()
        filled = {key: _rising_product(*key) for key in order}
        assert filled == cold
        assert all(type(c) is tuple and all(type(k) is int for k in c) for c in filled.values())


def test_falling_coeffs_type_contract():
    for c in (-3, 0, 5, 10**4):
        for n in range(8):
            coeffs = _falling_coeffs(c, n)
            assert type(coeffs) is list and all(type(k) is int for k in coeffs)
    assert _falling_coeffs(5, 0) == [1]


def test_binom_poly_examples():
    assert binomial_poly(0, 2) == poly([0, Fraction(-1, 2), Fraction(1, 2)])
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
def test_constructor_matches_fraction_view(nums, den):
    p = Polynomial(nums, den)
    q = poly(Fraction(c, den) for c in nums)
    assert p == q and hash(p) == hash(q)
    assert coeffs(p) == tuple(Fraction(c, den) for c in nums[: len(p.nums)])
    assert p.to_strings() == [str(c) for c in coeffs(p)]
    assert p.to_strings() == [Ratio(c, p.den).to_string() for c in p.nums]
    # canonical form: no trailing zero, den > 0, nothing left to cancel
    assert not p.nums or p.nums[-1] != 0
    assert p.den > 0 and gcd(p.den, *p.nums) == 1
    for k, c in enumerate(nums):
        assert type(p.coefficient(k)) is Ratio and p.coefficient(k) == Ratio(c, den)
        assert frac(p.coefficient(k)) == Fraction(c, den)
    # zero outside the stored range, as top_coeff_checks reads it
    assert p.coefficient(-1) == p.coefficient(len(nums)) == Ratio(0)


def test_constructor_canonical_examples():
    assert (Polynomial([0, 0], -7).nums, Polynomial([0, 0], -7).den) == ((), 1)
    p = Polynomial([4, -6, 0], -8)
    assert (p.nums, p.den) == ((-2, 3), 4)
    assert coeffs(p) == (Fraction(-1, 2), Fraction(3, 4))
    p = Polynomial([3, -2], -1)
    assert (p.nums, p.den) == ((-3, 2), 1)
    p = Polynomial([6], 3)
    assert p == Polynomial([2]) and hash(p) == hash(Polynomial([2]))
    with pytest.raises(ZeroDivisionError):
        Polynomial([1], 0)
    # the numerators are ints: a rational goes through the view, ``poly``
    for bad in ([Fraction(1, 2)], [Fraction(2)], [0.5]):
        with pytest.raises(TypeError):
            Polynomial(bad)


def test_rational_serialization_round_trip():
    assert Ratio(3, 1).to_string() == "3"
    assert Ratio(-5, 2).to_string() == "-5/2"
    assert Ratio(10, -4).to_string() == "-5/2"
    for x in (Fraction(-5, 2), Fraction(7), Fraction(0)):
        text = Ratio(x.numerator, x.denominator).to_string()
        assert Fraction(text) == x
        assert text == str(x)


ratio_pairs = st.tuples(
    st.integers(min_value=-10**30, max_value=10**30),
    st.integers(min_value=-10**12, max_value=10**12).filter(bool),
)


@given(ratio_pairs, ratio_pairs)
@settings(max_examples=300)
def test_ratio_matches_fraction(a, b):
    # Fraction is the oracle of the reduced form, of == and of the text
    x, y = Ratio(*a), Ratio(*b)
    fx, fy = Fraction(*a), Fraction(*b)
    assert (x.num, x.den) == (fx.numerator, fx.denominator)
    assert frac(x) == fx
    assert (x == y) is (fx == fy) and (x != y) is (fx != fy)
    if x == y:
        assert hash(x) == hash(y)
    expected = f"{fx.numerator}/{fx.denominator}" if fx.denominator != 1 else f"{fx.numerator}"
    assert x.to_string() == expected


def test_ratio_equals_only_a_ratio():
    assert Ratio(0) == Ratio(0, -9) and (Ratio(0).num, Ratio(0).den) == (0, 1)
    assert Ratio(6, -4) == Ratio(-3, 2) and hash(Ratio(6, -4)) == hash(Ratio(-3, 2))
    for other in (3, Fraction(3), (3, 1), Polynomial([3]), "3", 3.0):
        assert Ratio(3) != other and other != Ratio(3)
        assert Ratio(3).__eq__(other) is NotImplemented
    assert len({Ratio(3), Fraction(3), (3, 1), Polynomial([3])}) == 4
    assert repr(Ratio(-6, 4)) == "Ratio(-3, 2)"
    with pytest.raises(ZeroDivisionError):
        Ratio(1, 0)
    with pytest.raises(ZeroDivisionError):
        Ratio(0, 0)
    # gcd(-1, 0) = 1, but a pair in lowest terms is kept as given only
    # over a positive den
    with pytest.raises(ZeroDivisionError):
        Ratio(-1, 0)
    assert Ratio(1, -1)._values == (-1, 1) and Ratio(-1, -1)._values == (1, 1)
    for args in ((Fraction(1, 2),), (3.0,), (1, 2.0)):
        with pytest.raises(TypeError):
            Ratio(*args)


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
    big = Ratio(3**20000, 2**20000 + 1)
    assert big.to_string() == f"{_digits_by_chunks(3**20000)}/{_digits_by_chunks(2**20000 + 1)}"
    assert repr(big) == f"Ratio({_digits_by_chunks(3**20000)}, {_digits_by_chunks(2**20000 + 1)})"
    assert render_side(big.to_string()) == big.to_string()
    p = Polynomial([-(3**20000), 0, 5], 2)
    assert p.to_strings() == [f"-{_digits_by_chunks(3**20000)}/2", "0", "5/2"]
    assert render_side(p.to_strings()) == f"5/2·X^2 - {_digits_by_chunks(3**20000)}/2"
    # about the size of the sides of CONJ3(n=20,r=10,s=10000)
    big = 10**36000 - 1
    digits = _digits_by_chunks(big // 3)
    text = render_side(Polynomial([7, 0, -big, big], 3).to_strings())
    assert text == f"{digits}·X^3 - {digits}·X^2 + 7/3"


def test_a_scalar_side_past_the_digit_limit_is_written_in_full():
    # the sides of CONJ3(n=20,r=10,s=10000) have about 36 000 digits, and
    # CONST_TERM's are as long and negative at odd r
    for lhs, rhs in (conj3_sides(20, 10, 10**4), const_term_sides(7, 3, 10**4)):
        assert lhs == rhs and frac(lhs).denominator == 1
        expected = ("-" if lhs.num < 0 else "") + _digits_by_chunks(abs(frac(lhs).numerator))
        assert len(expected) > 4300
        assert lhs.to_string() == rhs.to_string() == expected


def test_polynomial_serialization_round_trip():
    p = poly([Fraction(-1, 2), 0, 3])
    assert p.to_strings() == ["-1/2", "0", "3"]
    assert poly(Fraction(s) for s in p.to_strings()) == p
    assert Polynomial().to_strings() == []


@given(render_polys)
@settings(max_examples=200)
def test_render_matches_oracle(p):
    assert render_side(p.to_strings()) == render(p)


def test_render_style(monkeypatch):
    # the left-hand side of BINOMIAL_TYPE(n=300, s=10^4)
    degree_300 = binomial_type_sides(300, 10**4)[0]
    expected = render(degree_300)

    def refuse(*args):
        raise AssertionError("render built a Ratio")

    def shown(p):
        return render_side(p.to_strings())

    # a side is written from its integer numerators, never one rational
    # object per term
    p = poly([0, Fraction(-1, 2), Fraction(1, 2)])
    scalars = [(x, render(x)) for x in (Ratio(-7, 3), Ratio(0), Ratio(1))]
    monkeypatch.setattr(Polynomial, "coefficient", refuse)
    monkeypatch.setattr(Ratio, "__init__", refuse)
    assert shown(p) == "1/2·X^2 - 1/2·X"
    assert repr(p) == "Polynomial('1/2·X^2 - 1/2·X')"
    assert shown(Polynomial()) == "0"
    assert shown(Polynomial([-7], 3)) == "-7/3"
    assert shown(Polynomial([-1, 1, -1, 1])) == "X^3 - X^2 + X - 1"
    assert shown(Polynomial([1, -1, 0, -2], 2)) == "-X^3 - 1/2·X + 1/2"
    assert shown(X) == "X"
    assert shown(Polynomial([-1, 1])) == "X - 1"
    assert shown(Polynomial([0, -1])) == "-X"
    assert shown(degree_300) == expected
    # a scalar's text comes back as it is
    assert render_side("-7/3") == "-7/3" and render_side("0") == "0"
    for scalar, line in scalars:
        assert render_side(scalar.to_string()) == line


def test_substitute_neg_x():
    p = Polynomial([1, 2, 3])
    assert neg_x(p) == Polynomial([1, -2, 3])
    assert neg_x(Ratio(3, 2)) == Polynomial([3], 2)


def test_negative_n_rejected():
    for c, n in ((3, -1), (0, -2)):
        with pytest.raises(ValueError):
            _falling_coeffs(c, n)
