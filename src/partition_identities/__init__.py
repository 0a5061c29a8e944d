"""Exact-arithmetic verification of partition identities.

Partitions, centralizer orders, row-covering generalized binomial
coefficients, and a sweep engine that checks a family of conjectured
polynomial and scalar identities by exact equality over parameter grids.
Each job has one implementation here; the slow literal oracles that the
fast paths are checked against (the subset count behind ``gen_binom``
among them) live with the tests, in ``tests/oracles.py``.
"""
from .genbinom import gen_binom
from .identities import Form, IdentityCase, IdentityId
from .partitions import Partition, enumerate_partitions
from .polynomials import Polynomial, Ratio
from .verifier import Report, SweepConfig, compare_case, run_sweep

__all__ = [
    "Form",
    "IdentityCase",
    "IdentityId",
    "Partition",
    "Polynomial",
    "Ratio",
    "Report",
    "SweepConfig",
    "compare_case",
    "enumerate_partitions",
    "gen_binom",
    "run_sweep",
]

__version__ = "0.1.0"
