"""Every benchmark workload's report, byte for byte, against its pinned digest.

The digests live in ``bench/run.py``; a change that alters any serialized
side of those grids fails here under plain ``pytest``.
"""
import io
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
    buf = io.StringIO()
    report.to_json(buf)
    data = json.loads(buf.getvalue())
    assert check.failed_cases(cases, workload.digest, report.exit_code, data) == 0


def test_top_coeff_report_matches_pinned_digest():
    """TOP_COEFF past grid-all's r <= 10: r = 1 scalars, 2 <= r <= n check
    pairs and r > n zero checks, 3840 cases."""
    config = SweepConfig((IdentityId.TOP_COEFF,), (1, 30), (1, 32), (1, 4))
    report = run_sweep(config)
    buf = io.StringIO()
    report.to_json(buf)
    results = json.loads(buf.getvalue())["results"]
    assert len(results) == 3840 and report.summary["verified"] == 3840
    assert check.content_digest(results) == (
        "ac2f969765534b7783a30bf10441e300601ae4704c04f7abe36f17896593ea66"
    )
