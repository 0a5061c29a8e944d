import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))


@pytest.fixture
def corrupt_rhs(monkeypatch):
    """Make the sweep engine and the CLI see every RHS off by one.

    Each judged case then becomes a counterexample, which exercises the
    negative path end to end (single worker only: the patch lives in this
    process).
    """
    from partition_identities import cli, identities, verifier
    from partition_identities.polynomials import Polynomial, Ratio

    import oracles

    real = identities.case_sides

    def plus_one(side):
        if isinstance(side, Polynomial):
            return oracles.add(side, 1)
        return Ratio(side.num + side.den, side.den)

    def corrupted(case):
        return [(lhs, plus_one(rhs)) for lhs, rhs in real(case)]

    for module in (verifier, cli):
        monkeypatch.setattr(module, "case_sides", corrupted)
