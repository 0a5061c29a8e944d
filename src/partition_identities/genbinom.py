"""Row-covering generalized binomial coefficients of a partition.

``gen_binom(lam, r)`` counts the r-subsets of the Ferrers diagram of
``lam`` that contain at least one cell in every row.  The fast path
multiplies out ``prod_i ((1+t)^{lam_i} - 1)`` one row at a time, keeping
only the terms of degree <= r; the coefficient of t^r is the answer.  It
is zero, with no product, unless l(lam) <= r <= |lam|, and refused when
|lam| r is above ``MAX_WORK``.  ``row_gen_poly`` is the whole row.
``_row_coeffs`` keeps no memo; the CONJ1 table of ``identities.py`` does
not call it, and multiplies packed rows instead.
A literal subset-counting oracle is kept alongside for validation.
"""
from __future__ import annotations

from itertools import combinations
from math import comb
from typing import Optional, Tuple

from .partitions import Partition

#: the largest |lambda| the brute-force oracle takes
ORACLE_LIMIT = 16

#: the largest |lambda| r ``gen_binom`` takes.  The product makes at most
#: |lambda| r term products, of at most |lambda| bits each.  At this bound
#: one call takes up to about a second on a 2-core Xeon (eight rows adding
#: up to 2500, r = 800); 2000+2000 at r = 2000 took 10 s
MAX_WORK = 2 * 10**6


def _row_coeffs(parts: Tuple[int, ...], top: Optional[int] = None) -> Tuple[int, ...]:
    """Coefficients of prod_i ((1+t)^{parts_i} - 1) up to t^top (all by default)."""
    acc = [1]
    for a in parts:
        degree = len(acc) - 1 + a
        if top is not None:
            degree = min(degree, top)
        row = [0] + [comb(a, k) for k in range(1, min(a, degree) + 1)]  # (1+t)^a - 1
        out = [0] * (degree + 1)
        for i, x in enumerate(acc):
            if x == 0:
                continue
            for j, y in enumerate(row[:degree - i + 1]):
                out[i + j] += x * y
        acc = out
    return tuple(acc)


def row_gen_poly(lam: Partition) -> Tuple[int, ...]:
    """Coefficient vector (⟨λ,0⟩, ⟨λ,1⟩, ..., ⟨λ,|λ|⟩)."""
    return _row_coeffs(lam.parts)


def gen_binom(lam: Partition, r: int) -> int:
    """Number of r-subsets of the diagram covering every row; 0 out of range."""
    if r < 0:
        raise ValueError("r must be non-negative")
    if not lam.length <= r <= lam.weight:
        return 0
    if lam.weight * r > MAX_WORK:
        raise ValueError(f"|lambda| r = {lam.weight} * {r} is above its limit {MAX_WORK}")
    return _row_coeffs(lam.parts, r)[r]


def gen_binom_bruteforce(lam: Partition, r: int) -> int:
    """Literal count over all r-subsets of cells; guarded against blowup."""
    if r < 0:
        raise ValueError("r must be non-negative")
    if lam.weight > ORACLE_LIMIT:
        raise ValueError(f"|lambda| = {lam.weight} exceeds oracle limit {ORACLE_LIMIT}")
    cells = list(lam.cells())
    rows = set(range(1, lam.length + 1))
    count = 0
    for subset in combinations(cells, r):
        if {i for i, _ in subset} == rows:
            count += 1
    return count
