"""Exact-arithmetic verification of partition identities.

Partitions, centralizer orders, row-covering generalized binomial
coefficients, and a sweep engine that checks a family of conjectured
polynomial and scalar identities by exact equality over parameter grids.
"""
from .genbinom import gen_binom, gen_binom_bruteforce, row_gen_poly
from .identities import Form, IdentityCase, IdentityId
from .partitions import Partition, enumerate_partitions
from .polynomials import (
    Polynomial,
    binom_poly,
    falling_factorial_poly,
    rising_factorial_eval,
)
from .verifier import Report, SweepConfig, compare_case, run_sweep

__all__ = [
    "Form",
    "IdentityCase",
    "IdentityId",
    "Partition",
    "Polynomial",
    "Report",
    "SweepConfig",
    "binom_poly",
    "compare_case",
    "enumerate_partitions",
    "falling_factorial_poly",
    "gen_binom",
    "gen_binom_bruteforce",
    "rising_factorial_eval",
    "row_gen_poly",
    "run_sweep",
]

__version__ = "0.1.0"
