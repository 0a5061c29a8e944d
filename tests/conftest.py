import os
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
        if isinstance(side, tuple):  # TOP_COEFF's checks: every one is wrong
            return tuple(map(plus_one, side))
        return Ratio(side.num + side.den, side.den)

    def corrupted(case):
        lhs, rhs = real(case)
        return lhs, plus_one(rhs)

    for module in (verifier, cli):
        monkeypatch.setattr(module, "case_sides", corrupted)


@pytest.fixture
def fault_in_child(monkeypatch):
    """Make a two-worker sweep run ``fault()`` at its forked child's cases.

    Call the fixture with ``fault``.  Two CPUs are then usable, so such a
    sweep forks one child.  At each case this process judges, it first
    waits until a child has exited, without reaping it: the child surely
    takes a slice, the fault fires there only, and this process meets the
    child's end only after that case's slice.
    """
    if not hasattr(os, "waitid"):
        pytest.skip("needs os.waitid")
    from partition_identities import verifier

    real = verifier.case_sides
    parent = os.getpid()

    def install(fault):
        def sides(case):
            if os.getpid() != parent:
                fault()
            else:
                os.waitid(os.P_ALL, 0, os.WEXITED | os.WNOWAIT)
            return real(case)

        monkeypatch.setattr(verifier, "case_sides", sides)
        monkeypatch.setattr(verifier, "_usable_cpus", lambda: 2)

    return install
