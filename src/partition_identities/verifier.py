"""Sweep engine: expand parameter grids, evaluate cases, report exactly.

Cases are independent pure computations, so a sweep with more than one
worker parallelizes across cases only and merges results back into the
deterministic grid order.  ``--workers N`` runs N processes: the sweep's
own and N - 1 children forked after the cases are expanded.  The children
inherit the case list and its slices, so a task is one slice number, taken
from a pipe shared by all N processes.  The sweep's own process judges the
slices it takes in place; a child's result is the slice's (status, lhs,
rhs, elapsed_ms) tuples, marshalled to the child's own pipe.  marshal
takes builtin values only, so no case object or other program object
crosses the process boundary.  Slices end only where (identity, n)
changes, so one identity's table for one n is built by one worker.  The
sweep's own process checks its children between its slices, so the first
error in a child is met within one of those slices: every child is then
killed and the error raised by the sweep.  Where there is no fork, a
sweep runs in-process.

A report writes itself to a text sink, a file or stdout, in any of its
three formats; its JSON is formatted and written one row at a time, so the
whole text is never held at once.
"""
from __future__ import annotations

import io
import json
import marshal
import os
import time
from collections import Counter
from itertools import product
from json.encoder import encode_basestring
from math import prod
from operator import attrgetter
from typing import Dict, List, NamedTuple, Optional, Sequence, TextIO, Tuple, Union

from .identities import IDENTITIES, MAX_S, Form, IdentityCase, IdentityId, SidePair, case_sides
from .polynomials import Polynomial, Ratio

EXIT_OK = 0
EXIT_COUNTEREXAMPLE = 1
EXIT_CONFIG_ERROR = 2
#: any other error, such as a sweep worker killed before it sent its
#: verdicts: no verdict was reached, so it is not EXIT_COUNTEREXAMPLE
EXIT_FAILURE = 3

STATUS_VERIFIED = "VERIFIED"
STATUS_COUNTEREXAMPLE = "COUNTEREXAMPLE"
STATUS_SKIPPED = "SKIPPED"

SerializedSide = Union[str, List[str]]

#: the most cases one sweep may expand, the same one-million policy as
#: ``partitions.MAX_PARTITIONS``
MAX_CASES = 10**6


class ConfigError(ValueError):
    """Invalid sweep configuration; reported before any evaluation."""


class SweepConfig(NamedTuple):
    identity_ids: Tuple[IdentityId, ...]
    n_range: Tuple[int, int]
    r_range: Tuple[int, int] = (1, 1)
    s_range: Tuple[int, int] = (1, 1)
    form: Optional[Form] = None  # None means BOTH
    worker_count: int = 1

    def validate(self) -> None:
        # exact types, as ``IdentityCase`` checks them: a bool, a float or an
        # id's name is refused here, not failed on or echoed into the report
        if not self.identity_ids:
            raise ConfigError("no identities selected")
        ids = self.identity_ids
        if type(ids) is not tuple or any(type(i) is not IdentityId for i in ids):
            raise ConfigError(f"identity_ids must be a tuple of IdentityId values, got {ids!r}")
        if len(set(ids)) < len(ids):
            raise ConfigError("an identity is selected more than once")
        for name, bounds in (("n", self.n_range), ("r", self.r_range), ("s", self.s_range)):
            if type(bounds) is not tuple or len(bounds) != 2 or {type(b) for b in bounds} != {int}:
                raise ConfigError(f"{name} range must be a pair of ints, got {bounds!r}")
        if type(self.worker_count) is not int:
            raise ConfigError(f"worker_count must be an int, got {self.worker_count!r}")
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
        if self.form is not None:
            if type(self.form) is not Form:
                raise ConfigError(f"form must be a Form, got {self.form!r}")
            if not any("form" in spec.params for spec in specs):
                raise ConfigError(
                    f"form {self.form.value} given, but no selected identity has forms"
                )
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


class CaseResult(NamedTuple):
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


class Report:
    """A sweep's config, its results in grid order and its run time.

    ``summary`` counts the results by status once, when the report is made:
    a writer and ``exit_code`` then read the same counts.
    """

    __slots__ = ("config", "results", "total_ms", "summary")

    def __init__(self, config: SweepConfig, results: List[CaseResult], total_ms: float = 0.0):
        self.config = config
        self.results = results
        self.total_ms = total_ms
        counts = Counter(map(attrgetter("status"), results))
        self.summary: Dict[str, int] = {
            "verified": counts[STATUS_VERIFIED],
            "counterexamples": counts[STATUS_COUNTEREXAMPLE],
            "skipped": counts[STATUS_SKIPPED],
        }

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

    def to_json(self, sink: Optional[TextIO] = None) -> Optional[str]:
        """Write ``json.dumps(self.to_dict(), ensure_ascii=False)`` to ``sink``.

        Each result is formatted from its fields as one row of text and
        written on its own, so only one row's text is held at once, not
        the whole report's.  With no sink the text is returned: the
        benchmark's self-test reads a report so.
        """
        if sink is None:
            buf = io.StringIO()
            self.to_json(buf)
            return buf.getvalue()
        write = sink.write
        config = json.dumps(self.config.to_dict(), ensure_ascii=False)
        write('{"config": ' + config + ', "results": [')
        sep = ""
        # a status needs no escape, and an elapsed time is a finite float,
        # whose JSON text is its repr; equal sides share one text
        for case, status, lhs, rhs, elapsed_ms in self.results:
            lhs_text = _json_side(lhs)
            write(
                f'{sep}{{"case": {encode_basestring(str(case))}, "status": "{status}", '
                f'"lhs": {lhs_text}, "rhs": {lhs_text if rhs == lhs else _json_side(rhs)}, '
                f'"elapsed_ms": {elapsed_ms!r}}}'
            )
            sep = ", "
        write(
            '], "summary": ' + json.dumps(self.summary) + ', "total_ms": '
            + json.dumps(self.total_ms) + "}"
        )
        return None

    def to_csv(self, sink: TextIO) -> None:
        import csv

        writer = csv.writer(sink)
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

    def to_human(self, sink: TextIO) -> None:
        for res in self.results:
            sink.write(f"{res.case}: {res.status}\n")
        sink.write(
            "summary: {verified} verified, {counterexamples} counterexamples, "
            "{skipped} skipped\n".format(**self.summary)
        )

    def content_dict(self) -> Dict:
        """Report content with timing fields removed, for determinism checks."""
        data = self.to_dict()
        data.pop("total_ms")
        data["config"].pop("worker_count")
        for res in data["results"]:
            res.pop("elapsed_ms")
        return data


def _json_side(side: SerializedSide) -> str:
    """A side's JSON text; its texts need no escape, as ``serialize_side``
    writes only digits, "-" and "/"."""
    if type(side) is str:
        return f'"{side}"'
    return '["' + '", "'.join(side) + '"]' if side else "[]"


def _csv_side(side: SerializedSide) -> str:
    if isinstance(side, list):
        return "|".join(side)
    return side


def serialize_side(value) -> SerializedSide:
    """Rational -> "p/q" string; polynomial -> coefficient array."""
    if isinstance(value, Polynomial):
        return value.to_strings()
    if isinstance(value, Ratio):
        return value.to_string()
    raise TypeError(f"cannot serialize side {value!r}")


def _serialize_pair(lhs, rhs, equal: bool) -> Tuple[SerializedSide, SerializedSide]:
    """Both sides' texts; equal values are of one type and have one
    canonical text, so such a rhs shares the lhs text instead of being
    serialized again."""
    text = serialize_side(lhs)
    return text, text if equal else serialize_side(rhs)


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


#: a ``CaseResult`` without its case, the form a pool worker sends back
Verdict = Tuple[str, SerializedSide, SerializedSide, float]

#: bytes of one slice number on the task pipe
_TASK_BYTES = 4


def _judge_slice(cases: Sequence[IdentityCase], bounds: Tuple[int, int]) -> List[Verdict]:
    """The verdicts of ``cases[lo:hi]``, as plain tuples."""
    lo, hi = bounds
    return [(r.status, r.lhs, r.rhs, r.elapsed_ms) for r in map(compare_case, cases[lo:hi])]


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


def _work(
    cases: Sequence[IdentityCase], slices: Sequence[Tuple[int, int]], tasks: int, out: int
) -> None:
    """Body of a forked worker; it never returns.

    It takes slice numbers from the shared ``tasks`` pipe until that is
    empty, then marshals one list of (number, verdicts) pairs to its own
    ``out`` pipe; on an error, it sends the exception, pickled, instead.
    Exit status 0 means all it sends has been written.
    """
    status, done = 1, []
    try:
        try:
            while number := os.read(tasks, _TASK_BYTES):
                i = int.from_bytes(number, "little")
                done.append((i, _judge_slice(cases, slices[i])))
            payload = marshal.dumps(done)
        except BaseException as exc:
            import pickle

            payload = marshal.dumps(pickle.dumps(exc))
        with open(out, "wb") as sink:
            sink.write(payload)
        status = 0
    finally:
        os._exit(status)


def _fork_pool(
    cases: Sequence[IdentityCase], slices: Sequence[Tuple[int, int]], workers: int
) -> List[CaseResult]:
    """The results of ``cases``, judged slice by slice in ``workers``
    processes: this one and ``workers - 1`` forked children.  Each child
    inherits ``cases`` and ``slices``, and every process takes the next
    slice number whenever it is free.  This process keeps the results of
    its own slices as they are; only the children's verdicts are read back
    and rebuilt.  Between its own slices it checks the children without
    blocking, so a child's error or early exit is met within one of this
    process's slices: every child is then killed and the sweep raises."""
    import select

    by_slice: List[Optional[List[CaseResult]]] = [None] * len(slices)
    children: Dict[int, int] = {}  # a child's result pipe -> its pid, until reaped
    streams: Dict[int, List[bytes]] = {}
    tasks, feed = os.pipe()
    held = [tasks, feed]  # the pipe ends this process has to close

    def collect(ready: List[int]) -> None:
        for fd in ready:
            chunk = os.read(fd, 1 << 16)
            if chunk:
                streams[fd].append(chunk)
                continue
            code = os.waitstatus_to_exitcode(os.waitpid(children[fd], 0)[1])
            del children[fd]
            if code:
                raise RuntimeError(
                    f"a sweep worker exited with status {code} before sending its verdicts"
                )
            sent = marshal.loads(b"".join(streams.pop(fd)))
            if isinstance(sent, bytes):
                import pickle

                raise pickle.loads(sent)
            for i, verdicts in sent:
                lo, hi = slices[i]
                by_slice[i] = [
                    CaseResult(c, *v) for c, v in zip(cases[lo:hi], verdicts, strict=True)
                ]

    try:
        # at most 8 slices a worker, of 4 bytes each: far below a pipe's
        # capacity, so every number is written before the first child starts
        os.write(feed, b"".join(i.to_bytes(_TASK_BYTES, "little") for i in range(len(slices))))
        os.close(feed)
        held.remove(feed)
        for _ in range(workers - 1):
            fd, out = os.pipe()
            held += (fd, out)
            pid = children[fd] = os.fork()
            if pid == 0:
                _work(cases, slices, tasks, out)
            os.close(out)
            held.remove(out)
            streams[fd] = []
        while number := os.read(tasks, _TASK_BYTES):
            i = int.from_bytes(number, "little")
            lo, hi = slices[i]
            by_slice[i] = list(map(compare_case, cases[lo:hi]))
            # the pipes are read until none is ready, so a child that failed
            # and exited before this slice ended is met now, not a slice later
            while children and (ready := select.select(list(children), [], [], 0)[0]):
                collect(ready)
        while children:
            collect(select.select(list(children), [], [])[0])
    finally:
        if children:
            import signal

            for pid in children.values():
                os.kill(pid, signal.SIGKILL)
            for pid in children.values():
                os.waitpid(pid, 0)
        for fd in held:
            os.close(fd)
    return [r for part in by_slice for r in part]


def run_sweep(config: SweepConfig) -> Report:
    """Evaluate every grid case exactly once and aggregate the report."""
    config.validate()
    cases = expand_cases(config)
    start = time.perf_counter()
    # never more processes than usable CPUs or slices, as every child is
    # forked up front; one, in-process, where there is no fork
    workers = min(config.worker_count, _usable_cpus() if hasattr(os, "fork") else 1)
    slices = _slices(cases, max(1, len(cases) // (workers * 4))) if workers > 1 else []
    workers = min(workers, len(slices))
    if workers <= 1:
        results = [compare_case(c) for c in cases]
    else:
        results = _fork_pool(cases, slices, workers)
    total_ms = (time.perf_counter() - start) * 1000.0
    return Report(config=config, results=results, total_ms=total_ms)
