"""Every benchmark workload's report, byte for byte, against its pinned digest.

The digests live in ``bench/run.py``; a change that alters any serialized
side of those grids fails here under plain ``pytest``.
"""
import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"
sys.path.insert(0, str(BENCH))

import check  # noqa: E402
import run as bench_run  # noqa: E402
from partition_identities.identities import IdentityId  # noqa: E402
from partition_identities.verifier import SweepConfig, run_sweep  # noqa: E402


@pytest.mark.parametrize("name", sorted(bench_run.WORKLOADS))
def test_workload_matches_pinned_digest(name):
    workload = bench_run.WORKLOADS[name]
    config = SweepConfig(
        identity_ids=tuple(IdentityId(i) for i in workload.ids),
        n_range=workload.n,
        r_range=workload.r,
        s_range=workload.s,
    )
    report = run_sweep(config)
    cases = bench_run.expected_cases(workload)
    data = json.loads(report.to_json())
    assert check.failed_cases(cases, workload.digest, report.exit_code, data) == 0
