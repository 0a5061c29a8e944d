"""Independent reference computations used to cross-check the library."""
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, zip_longest
from math import comb, factorial

from partition_identities.genbinom import row_gen_poly
from partition_identities.partitions import Partition
from partition_identities.polynomials import Polynomial


@lru_cache(maxsize=None)
def partition_count(n: int) -> int:
    """p(n) via Euler's pentagonal-number recurrence."""
    if n < 0:
        return 0
    if n == 0:
        return 1
    total = 0
    k = 1
    while True:
        g1 = k * (3 * k - 1) // 2
        g2 = k * (3 * k + 1) // 2
        if g1 > n and g2 > n:
            break
        sign = 1 if k % 2 == 1 else -1
        total += sign * (partition_count(n - g1) + partition_count(n - g2))
        k += 1
    return total


def pascal_triangle(rows: int):
    """Binomial coefficients C(m, k) for 0 <= m < rows, by the recurrence."""
    tri = [[1]]
    for m in range(1, rows):
        prev = tri[-1]
        row = [1]
        for k in range(1, m):
            row.append(prev[k - 1] + prev[k])
        row.append(1)
        tri.append(row)
    return tri


def rising(x, n: int) -> Fraction:
    """Direct product definition of the ascending factorial."""
    acc = Fraction(1)
    for i in range(n):
        acc *= Fraction(x) + i
    return acc


def falling(x, n: int) -> Fraction:
    """Direct product definition of the descending factorial."""
    acc = Fraction(1)
    for i in range(n):
        acc *= Fraction(x) - i
    return acc


def binom_rat(x, k: int) -> Fraction:
    """binom(x, k) = [x]_k / k! for k >= 0; zero for negative k.

    An int x takes ``math.comb``, through upper negation,
    binom(x, k) = (-1)^k binom(k-x-1, k), when x < 0.
    """
    if k < 0:
        return Fraction(0)
    if isinstance(x, int):
        return Fraction(comb(x, k) if x >= 0 else (-1) ** k * comb(k - x - 1, k))
    return falling(x, k) / factorial(k)


# Ring arithmetic on polynomials, over the ``Fraction`` view ``coeffs``
# only, so that none of it shares code with how ``Polynomial`` stores its
# numerators.  A scalar operand stands for the constant polynomial.


def _terms(value) -> list:
    """The coefficients of a polynomial or a scalar, constant term first."""
    if isinstance(value, Polynomial):
        return list(value.coeffs)
    return [Fraction(value)]


def add(a, b) -> Polynomial:
    """a + b, one coefficient at a time."""
    return Polynomial(x + y for x, y in zip_longest(_terms(a), _terms(b), fillvalue=0))


def neg(a) -> Polynomial:
    """-a."""
    return Polynomial(-c for c in _terms(a))


def sub(a, b) -> Polynomial:
    """a - b."""
    return add(a, neg(b))


def mul(a, b) -> Polynomial:
    """a * b by the schoolbook convolution of the coefficient lists."""
    a, b = _terms(a), _terms(b)
    out = [Fraction(0)] * (len(a) + len(b))
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return Polynomial(out)


def evaluate(p: Polynomial, x) -> Fraction:
    """p(x), as the sum of c_k x^k."""
    return sum((c * Fraction(x) ** k for k, c in enumerate(p.coeffs)), Fraction(0))


def neg_x(p: Polynomial) -> Polynomial:
    """p(-X): the odd coefficients change sign."""
    return Polynomial(-c if k % 2 else c for k, c in enumerate(p.coeffs))


def falling_poly_product(c, n: int) -> Polynomial:
    """[X+c]_n as the literal product of the linear factors X + c - i."""
    acc = Polynomial([1])
    for i in range(n):
        acc = mul(acc, Polynomial((c - i, 1)))
    return acc


def partitions(n: int, max_part=None):
    """Partitions of n as tuples of weakly decreasing parts."""
    if n == 0:
        yield ()
        return
    for p in range(min(n, max_part or n), 0, -1):
        for rest in partitions(n - p, p):
            yield (p,) + rest


def z_value(parts) -> int:
    """prod_i i^{m_i} m_i! over the multiplicities m_i of the parts."""
    z = 1
    for i, m in Counter(parts).items():
        z *= i**m * factorial(m)
    return z


def covering_count(parts, r: int) -> int:
    """<mu, r>: the r-subsets of the Ferrers diagram that meet every row."""
    cells = [(row, col) for row, p in enumerate(parts) for col in range(p)]
    return sum(
        1
        for subset in combinations(cells, r)
        if len({row for row, _ in subset}) == len(parts)
    )


def covering_table(n: int) -> tuple:
    """The CONJ1 table [r-1][l-1][i], one mu at a time with unpacked rows.

    Each mu's whole row polynomial prod_i ((1+t)^mu_i - 1) is multiplied out
    as a coefficient list and (n!/z_mu) <mu, r> m_i(mu) is added entry by
    entry for every l(mu) <= r <= n.
    """
    table = [[[0] * (n + 1) for _ in range(r)] for r in range(1, n + 1)]
    for mu in partitions(n):
        row = row_gen_poly(Partition(mu))
        class_size = factorial(n) // z_value(mu)
        for r in range(len(mu), n + 1):
            vector = table[r - 1][len(mu) - 1]
            for i, m in Counter(mu).items():
                vector[i] += class_size * row[r] * m
    return tuple(tuple(map(tuple, lengths)) for lengths in table)


def partition_sum(n: int, weight, shift: int, sign_r=None) -> dict:
    """{power: coefficient} of sum over all mu |- n of weight(mu)/z_mu X^(l(mu)-shift).

    Term by term in Fractions; with ``sign_r`` each term carries
    (-1)^(sign_r - l(mu)).
    """
    coeffs: dict = {}
    for mu in partitions(n):
        term = Fraction(weight(mu), z_value(mu))
        if sign_r is not None and (sign_r - len(mu)) % 2 == 1:
            term = -term
        power = len(mu) - shift
        coeffs[power] = coeffs.get(power, Fraction(0)) + term
    return coeffs


def moments(n: int, length: int, weight) -> list:
    """[sum over mu |- n with length parts of weight(mu) m_i(mu), 0 <= i <= n].

    Adds weight(mu) once for every part of every such mu.
    """
    out = [0] * (n + 1)
    for mu in partitions(n):
        if len(mu) == length:
            for part in mu:
                out[part] += weight(mu)
    return out


def length_r_sum(n: int, r: int, s: int) -> Fraction:
    """(r-1)! sum over mu |- n, l(mu) = r of sum_i m_i (i)_s / prod_i m_i!."""
    total = Fraction(0)
    for mu in partitions(n):
        if len(mu) != r:
            continue
        mults = Counter(mu)
        denom = 1
        for m in mults.values():
            denom *= factorial(m)
        total += sum(m * rising(i, s) for i, m in mults.items()) / denom
    return factorial(r - 1) * total


def render(p: Polynomial) -> str:
    """Polynomial.render's text, term by term over the ``Fraction`` view.

    Descending powers; a zero coefficient is left out, a unit one is
    dropped in front of X, and the first term carries its sign as a bare
    "-".  Each coefficient is written with ``str``, so it must stay under
    the interpreter's int-to-str digit limit.
    """
    pieces = []
    for k in range(len(p.coeffs) - 1, -1, -1):
        c = p.coeffs[k]
        if c == 0:
            continue
        mag = abs(c)
        mag_text = str(mag.numerator) if mag.denominator == 1 else f"{mag.numerator}/{mag.denominator}"
        if k == 0:
            body = mag_text
        else:
            xpart = "X" if k == 1 else f"X^{k}"
            body = xpart if mag == 1 else f"{mag_text}·{xpart}"
        if not pieces:
            pieces.append(body if c > 0 else "-" + body)
        else:
            pieces.append(("+ " if c > 0 else "- ") + body)
    return " ".join(pieces) if pieces else "0"
