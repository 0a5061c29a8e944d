"""Sweep engine: expand parameter grids, evaluate cases, report exactly.

Cases are independent pure computations, so the pool parallelizes across
cases only and merges results back into the deterministic grid order.
Each worker receives the expanded case list once, through the pool's
initializer (inherited without pickling under the fork start method), so a
task is one (lo, hi) index pair and a result is a plain
(status, lhs, rhs, elapsed_ms) tuple; no case object crosses the process
boundary. Slices end only where (identity, n) changes, so one identity's
table for one n is built by one worker.
"""
from __future__ import annotations

import concurrent.futures
import csv
import io
import json
import os
import time
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product
from math import prod
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple, Union

from .identities import IDENTITIES, MAX_S, Form, IdentityCase, IdentityId, SidePair, case_sides
from .polynomials import Polynomial, format_rational

if TYPE_CHECKING:  # multiprocessing is imported only by a sweep with a pool
    from multiprocessing.synchronize import Event

EXIT_OK = 0
EXIT_COUNTEREXAMPLE = 1
EXIT_CONFIG_ERROR = 2

STATUS_VERIFIED = "VERIFIED"
STATUS_COUNTEREXAMPLE = "COUNTEREXAMPLE"
STATUS_SKIPPED = "SKIPPED"

SerializedSide = Union[str, List[str]]

#: the most cases one sweep may expand, the same one-million policy as
#: ``partitions.MAX_PARTITIONS``
MAX_CASES = 10**6


class ConfigError(ValueError):
    """Invalid sweep configuration; reported before any evaluation."""


@dataclass(frozen=True)
class SweepConfig:
    identity_ids: Tuple[IdentityId, ...]
    n_range: Tuple[int, int]
    r_range: Tuple[int, int] = (1, 1)
    s_range: Tuple[int, int] = (1, 1)
    form: Optional[Form] = None  # None means BOTH
    worker_count: int = 1

    def validate(self) -> None:
        if not self.identity_ids:
            raise ConfigError("no identities selected")
        specs = [IDENTITIES[i] for i in self.identity_ids]
        # a parameter no selected identity uses has no floor and no ceiling;
        # r has no ceiling, since every builder gives zero for r > n
        s_mins = [spec.s_min for spec in specs if "s" in spec.params]
        for name, (lo, hi), floor, ceiling in (
            ("n", self.n_range, 1, min(spec.max_n for spec in specs)),
            ("r", self.r_range, 1 if any("r" in spec.params for spec in specs) else None, None),
            ("s", self.s_range, min(s_mins, default=None), MAX_S if s_mins else None),
        ):
            if lo > hi:
                raise ConfigError(f"empty {name} range {lo}..{hi}")
            if floor is not None and lo < floor:
                raise ConfigError(f"{name} range must start at {floor} or above")
            if ceiling is not None and hi > ceiling:
                raise ConfigError(f"{name}={max(lo, ceiling + 1)} is above its limit {ceiling}")
        try:
            too_many = sum(prod(map(len, axes)) for _, axes in _grid_axes(self)) > MAX_CASES
        except OverflowError:  # an axis longer than sys.maxsize
            too_many = True
        if too_many:
            raise ConfigError(f"grid has more than {MAX_CASES} cases, the most one sweep may run")
        if self.form is not None and not any("form" in spec.params for spec in specs):
            raise ConfigError(f"form {self.form.value} given, but no selected identity has forms")
        if self.worker_count < 1:
            raise ConfigError("worker_count must be >= 1")

    def to_dict(self) -> Dict:
        return {
            "identity_ids": [i.value for i in self.identity_ids],
            "n_range": list(self.n_range),
            "r_range": list(self.r_range),
            "s_range": list(self.s_range),
            "form": self.form.value if self.form else "BOTH",
            "worker_count": self.worker_count,
        }


@dataclass
class CaseResult:
    case: IdentityCase
    status: str
    lhs: SerializedSide
    rhs: SerializedSide
    elapsed_ms: float

    def to_dict(self) -> Dict:
        return {
            "case": str(self.case),
            "status": self.status,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "elapsed_ms": self.elapsed_ms,
        }

    @classmethod
    def judge(cls, case: IdentityCase, pairs: List[SidePair], start: float) -> "CaseResult":
        """Judge ``pairs`` by exact equality; elapsed time runs from ``start``."""
        equal = [lhs == rhs for lhs, rhs in pairs]
        if case.skipped:
            status = STATUS_SKIPPED
        elif all(equal):
            status = STATUS_VERIFIED
        else:
            status = STATUS_COUNTEREXAMPLE
        elapsed_ms = (time.perf_counter() - start) * 1000.0
        texts = [_serialize_pair(*pair, same) for pair, same in zip(pairs, equal)]
        if len(texts) == 1:
            lhs, rhs = texts[0]
        else:
            lhs, rhs = map(list, zip(*texts))
        return cls(case, status, lhs, rhs, elapsed_ms)


@dataclass
class Report:
    config: SweepConfig
    results: List[CaseResult] = field(default_factory=list)
    total_ms: float = 0.0

    @property
    def summary(self) -> Dict[str, int]:
        counts = {"verified": 0, "counterexamples": 0, "skipped": 0}
        for res in self.results:
            if res.status == STATUS_VERIFIED:
                counts["verified"] += 1
            elif res.status == STATUS_COUNTEREXAMPLE:
                counts["counterexamples"] += 1
            else:
                counts["skipped"] += 1
        return counts

    @property
    def exit_code(self) -> int:
        return EXIT_COUNTEREXAMPLE if self.summary["counterexamples"] else EXIT_OK

    def counterexamples(self) -> List[CaseResult]:
        return [r for r in self.results if r.status == STATUS_COUNTEREXAMPLE]

    def to_dict(self) -> Dict:
        return {
            "config": self.config.to_dict(),
            "results": [r.to_dict() for r in self.results],
            "summary": self.summary,
            "total_ms": self.total_ms,
        }

    def to_json(self) -> str:
        # no indent: json.dumps then runs its C encoder
        return json.dumps(self.to_dict(), ensure_ascii=False)

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["case", "status", "lhs", "rhs", "elapsed_ms"])
        for res in self.results:
            writer.writerow(
                [
                    str(res.case),
                    res.status,
                    _csv_side(res.lhs),
                    _csv_side(res.rhs),
                    res.elapsed_ms,
                ]
            )
        return buf.getvalue()

    def content_dict(self) -> Dict:
        """Report content with timing fields removed, for determinism checks."""
        data = self.to_dict()
        data.pop("total_ms")
        data["config"].pop("worker_count")
        for res in data["results"]:
            res.pop("elapsed_ms")
        return data


def _csv_side(side: SerializedSide) -> str:
    if isinstance(side, list):
        return "|".join(side)
    return side


def serialize_side(value) -> SerializedSide:
    """Rational -> "p/q" string; polynomial -> coefficient array."""
    if isinstance(value, Polynomial):
        return value.to_strings()
    if isinstance(value, (Fraction, int)):
        return format_rational(value)
    raise TypeError(f"cannot serialize side {value!r}")


def _serialize_pair(lhs, rhs, equal: bool) -> Tuple[SerializedSide, SerializedSide]:
    """Both sides' texts; equal values of one type have one canonical text,
    so such a rhs shares the lhs text instead of being serialized again."""
    text = serialize_side(lhs)
    return text, text if equal and type(lhs) is type(rhs) else serialize_side(rhs)


def compare_case(case: IdentityCase) -> CaseResult:
    """Evaluate one case and compare both sides by exact canonical equality."""
    start = time.perf_counter()
    return CaseResult.judge(case, case_sides(case), start)


def _grid_axes(config: SweepConfig) -> List[Tuple[IdentityId, Tuple[Sequence, ...]]]:
    """Each selected identity, in registry (= IdentityId) order, with its axes.

    The axes are n, r, s and form.  One the identity does not take is
    (None,), and s starts at the identity's own floor.  The grid is the
    union of the axes' products, so their lengths multiply to its size.
    """
    (n_lo, n_hi), (r_lo, r_hi), (s_lo, s_hi) = config.n_range, config.r_range, config.s_range
    forms = (config.form,) if config.form else tuple(Form)
    return [
        (iid, (
            range(n_lo, n_hi + 1),
            range(r_lo, r_hi + 1) if "r" in spec.params else (None,),
            range(max(s_lo, spec.s_min), s_hi + 1) if "s" in spec.params else (None,),
            forms if "form" in spec.params else (None,),
        ))
        for iid, spec in IDENTITIES.items()
        if iid in config.identity_ids
    ]


def expand_cases(config: SweepConfig) -> List[IdentityCase]:
    """Grid cases in deterministic (identity_id, n, r, s, form) order."""
    return [
        IdentityCase(iid, *params)
        for iid, axes in _grid_axes(config)
        for params in product(*axes)
    ]


#: the sweep's cases as a pool worker sees them, and the event set once the
#: sweep has failed, both set by ``_install_cases``
_CASES: Sequence[IdentityCase] = ()
_STOP: Optional[Event] = None

#: a ``CaseResult`` without its case, the form a pool worker sends back
Verdict = Tuple[str, SerializedSide, SerializedSide, float]


def _install_cases(cases: Sequence[IdentityCase], stop: Event) -> None:
    """Pool initializer: keep the case list, so that a task is two indices."""
    global _CASES, _STOP
    _CASES, _STOP = cases, stop


def _judge_slice(bounds: Tuple[int, int]) -> List[Verdict]:
    """Judge ``_CASES[lo:hi]`` in a pool worker; nothing once the sweep has failed."""
    if _STOP.is_set():
        return []
    lo, hi = bounds
    return [(r.status, r.lhs, r.rhs, r.elapsed_ms) for r in map(compare_case, _CASES[lo:hi])]


def _slices(cases: Sequence[IdentityCase], size: int) -> List[Tuple[int, int]]:
    """Contiguous (lo, hi) index pairs that cover ``cases`` in order.

    Each holds ``size`` cases (the last may hold fewer), extended to the end
    of the (identity, n) run it ends inside: grid order keeps each run
    contiguous, so each identity's table for one n is built in one worker.
    """
    slices = []
    lo, total = 0, len(cases)
    while lo < total:
        hi = min(lo + size, total)
        last = cases[hi - 1]
        while hi < total and cases[hi].n == last.n and cases[hi].identity_id is last.identity_id:
            hi += 1
        slices.append((lo, hi))
        lo = hi
    return slices


def _usable_cpus() -> int:
    """The CPUs this process may run on, else all the machine reports."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def run_sweep(config: SweepConfig) -> Report:
    """Evaluate every grid case exactly once and aggregate the report."""
    config.validate()
    cases = expand_cases(config)
    start = time.perf_counter()
    # never more processes than usable CPUs or slices: a fork start method
    # creates every worker up front
    workers = min(config.worker_count, _usable_cpus())
    slices = _slices(cases, max(1, len(cases) // (workers * 4))) if workers > 1 else []
    workers = min(workers, len(slices))
    if workers <= 1:
        results = [compare_case(c) for c in cases]
    else:
        import multiprocessing

        stop = multiprocessing.Event()
        with concurrent.futures.ProcessPoolExecutor(
            workers, initializer=_install_cases, initargs=(cases, stop)
        ) as pool:
            try:
                verdicts = [v for part in pool.map(_judge_slice, slices) for v in part]
            except BaseException:
                # map cancels the slices no worker has been handed yet; the
                # ones already queued to a worker return at once instead
                stop.set()
                raise
        results = [CaseResult(case, *v) for case, v in zip(cases, verdicts, strict=True)]
    total_ms = (time.perf_counter() - start) * 1000.0
    return Report(config=config, results=results, total_ms=total_ms)
