"""Self-test of the benchmark's correctness gate on doctored reports.

    PYTHONPATH=src python3 -m pytest bench/tests
"""
import copy
import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import check  # noqa: E402
from partition_identities.identities import IdentityId  # noqa: E402
from partition_identities.verifier import SweepConfig, expand_cases, run_sweep  # noqa: E402

# every identity, with the r = 1 cases that must be SKIPPED
CONFIG = SweepConfig(
    identity_ids=tuple(IdentityId),
    n_range=(1, 3),
    r_range=(1, 3),
    s_range=(1, 2),
)


@pytest.fixture(scope="module")
def sweep():
    report = json.loads(run_sweep(CONFIG).to_json())
    cases = [str(c) for c in expand_cases(CONFIG)]
    return cases, check.content_digest(report["results"]), report


def _first(report, status):
    return next(r for r in report["results"] if r["status"] == status)


def _alter_rhs(report):
    res = _first(report, "VERIFIED")
    res["rhs"] = res["rhs"] + ["1"] if isinstance(res["rhs"], list) else res["rhs"] + "1"


def _drop_case(report):
    del report["results"][len(report["results"]) // 2]


def _counterexample(report):
    _first(report, "VERIFIED")["status"] = "COUNTEREXAMPLE"


def _skip_verified(report):
    _first(report, "VERIFIED")["status"] = "SKIPPED"


def _verify_skipped(report):
    _first(report, "SKIPPED")["status"] = "VERIFIED"


def test_clean_report_passes(sweep):
    cases, digest, report = sweep
    assert any(check.expected_skipped(c) for c in cases)
    assert check.failed_cases(cases, digest, 0, report) == 0


@pytest.mark.parametrize(
    "doctor",
    [_alter_rhs, _drop_case, _counterexample, _skip_verified, _verify_skipped],
)
@pytest.mark.parametrize("redigest", [False, True], ids=["digest", "per-case"])
def test_doctored_report_fails(sweep, doctor, redigest):
    cases, digest, report = sweep
    bad = copy.deepcopy(report)
    doctor(bad)
    if redigest:
        # a digest recorded from the doctored report must not hide the fault
        digest = check.content_digest(bad["results"])
    assert check.failed_cases(cases, digest, 0, bad) > 0


def test_nonzero_exit_fails_every_case(sweep):
    cases, digest, report = sweep
    assert check.failed_cases(cases, digest, 1, report) == len(cases)


def test_missing_report_fails_every_case(sweep):
    cases, digest, _ = sweep
    assert check.failed_cases(cases, digest, 0, None) == len(cases)
