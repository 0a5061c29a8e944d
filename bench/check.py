"""Correctness gate for one sweep report.

Pure functions over the JSON report the CLI writes, so the gate judges the
program from outside and its self-test can feed it doctored reports.
"""
from __future__ import annotations

import hashlib
import json
import re
from typing import Optional, Sequence

#: identities whose r = 1 cases are SKIPPED by convention, and no others
SKIPPED_AT_R1 = frozenset({"CONJ4", "HOCKEY_STICK"})

_CASE_RE = re.compile(r"^([A-Z_0-9]+)\((.*)\)$")


def content_digest(results: Sequence[dict]) -> str:
    """sha256 of every result's (case, status, lhs, rhs), in report order.

    Timing fields and the config object are left out, so the digest only
    changes when what the sweep verified changes.
    """
    rows = [[r["case"], r["status"], r["lhs"], r["rhs"]] for r in results]
    blob = json.dumps(rows, separators=(",", ":"), ensure_ascii=False)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def expected_skipped(case: str) -> bool:
    """True for exactly the cases the sweep must report as SKIPPED."""
    m = _CASE_RE.match(case)
    if m is None:
        return False
    params = dict(item.split("=", 1) for item in m.group(2).split(",") if item)
    return m.group(1) in SKIPPED_AT_R1 and params.get("r") == "1"


def failed_cases(
    expected_cases: Sequence[str],
    digest: str,
    exit_code: int,
    report: Optional[dict],
) -> int:
    """How many of ``expected_cases`` this sweep got wrong.

    A fault of the sweep as a whole (exit code, missing or reordered cases,
    digest mismatch) fails every case; otherwise each case fails on its own
    when it is a COUNTEREXAMPLE, is skipped or verified against the skip
    rule, or is VERIFIED with serialized sides that differ.
    """
    total = len(expected_cases)
    if exit_code != 0 or report is None:
        return total
    try:
        results = report["results"]
        if [r["case"] for r in results] != list(expected_cases):
            return total
        if content_digest(results) != digest:
            return total
        bad = 0
        for r in results:
            if expected_skipped(r["case"]):
                ok = r["status"] == "SKIPPED"
            else:
                ok = r["status"] == "VERIFIED" and r["lhs"] == r["rhs"]
            bad += not ok
        return bad
    except (KeyError, TypeError):
        return total

