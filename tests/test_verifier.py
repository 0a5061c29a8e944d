import io
import json
import marshal
import multiprocessing
import os
import re
import select
import time
import tracemalloc
from collections import Counter
from fractions import Fraction
from math import prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from partition_identities import verifier
from partition_identities.identities import Form, IdentityCase, IdentityId, case_sides
from partition_identities.polynomials import Polynomial, Ratio
from partition_identities.verifier import (
    STATUS_COUNTEREXAMPLE,
    STATUS_SKIPPED,
    STATUS_VERIFIED,
    CaseResult,
    ConfigError,
    Report,
    SweepConfig,
    compare_case,
    expand_cases,
    run_sweep,
    serialize_side,
)


def test_compare_case_examples():
    res = compare_case(IdentityCase.parse("CONJ2(n=2,s=2,form=SIGNED)"))
    assert res.status == STATUS_VERIFIED
    assert res.lhs == res.rhs == ["-3", "2"]

    res = compare_case(IdentityCase.parse("CONJ1(n=3,r=5,s=1,form=SIGNED)"))
    assert res.status == STATUS_VERIFIED
    assert res.lhs == res.rhs == []

    res = compare_case(IdentityCase.parse("CONJ3(n=3,r=2,s=1)"))
    assert res.status == STATUS_VERIFIED
    assert res.lhs == res.rhs == "3"

    # a side is a Polynomial or an exact rational, nothing else
    for value in (1.5, "3", None):
        with pytest.raises(TypeError, match="cannot serialize"):
            serialize_side(value)


def test_compare_case_perturbed(corrupt_rhs):
    res = compare_case(IdentityCase.parse("CLASSICAL(n=2,form=SIGNED)"))
    assert res.status == STATUS_COUNTEREXAMPLE
    assert res.lhs != res.rhs


def test_counterexample_rhs_text_is_its_own(corrupt_rhs):
    # a side that differs from its lhs is serialized from its own value
    for text, rhs in (
        ("CONJ3(n=3,r=2,s=1)", "4"),
        ("CONJ2(n=2,s=2,form=SIGNED)", ["-2", "2"]),
        ("TOP_COEFF(n=4,r=3,s=2)", ["6", "-19"]),
    ):
        case = IdentityCase.parse(text)
        res = compare_case(case)
        assert res.status == STATUS_COUNTEREXAMPLE
        assert res.rhs == rhs
        assert res.rhs == serialize_side(verifier.case_sides(case)[1])


def test_equal_sides_are_serialized_once(monkeypatch):
    calls = Counter()
    real = verifier.serialize_side

    def counted(value):
        calls[type(value).__name__] += 1
        return real(value)

    monkeypatch.setattr(verifier, "serialize_side", counted)
    # one serialization per verified case, whose rhs shares the lhs text;
    # TOP_COEFF's two checks are one tuple on each side
    for text, kind in (
        ("CONJ3(n=3,r=2,s=1)", "Ratio"),
        ("CONJ1(n=4,r=3,s=2,form=SIGNED)", "Polynomial"),
        ("TOP_COEFF(n=4,r=3,s=2)", "tuple"),
        ("HOCKEY_STICK(n=5,r=3)", "Ratio"),
    ):
        calls.clear()
        res = compare_case(IdentityCase.parse(text))
        assert res.lhs == res.rhs
        assert calls == Counter({kind: 1}), text
        assert res.rhs is res.lhs
    # a constant polynomial and the scalar it holds are values of two types,
    # so they are unequal: the verdict is a counterexample, and each side
    # keeps its own text
    const = Polynomial([3])
    for pair, texts in (((const, Ratio(3)), (["3"], "3")), ((Ratio(3), const), ("3", ["3"]))):
        calls.clear()
        res = CaseResult.judge(IdentityCase.parse("CONJ3(n=3,r=2,s=1)"), pair, time.perf_counter())
        assert res.status == STATUS_COUNTEREXAMPLE
        assert (res.lhs, res.rhs) == texts
        assert calls == Counter({"Polynomial": 1, "Ratio": 1})
    # a side is a Polynomial or a Ratio: a rational of another type is refused
    for value in (Fraction(3), 3):
        with pytest.raises(TypeError):
            real(value)


#: one case of every identity, TOP_COEFF at r = 1, at r >= 2 and past n
#: among them, and the two ids' cases skipped at r = 1
JUDGED_CASES = (
    "CLASSICAL(n=4,form=SIGNED)",
    "CONJ1(n=4,r=3,s=2,form=SIGNED)",
    "CONJ2(n=3,s=2,form=UNSIGNED)",
    "CONJ3(n=4,r=2,s=3)",
    "CONJ4(n=4,r=2,s=2)",
    "CONJ4(n=4,r=1,s=1)",
    "HOCKEY_STICK(n=5,r=3)",
    "HOCKEY_STICK(n=5,r=1)",
    "BINOMIAL_TYPE(n=4,s=3)",
    "CONST_TERM(n=4,r=2,s=2)",
    "TOP_COEFF(n=4,r=1,s=2)",
    "TOP_COEFF(n=4,r=3,s=2)",
    "TOP_COEFF(n=3,r=5,s=1)",
)


@pytest.mark.parametrize("corrupt", [False, True], ids=["equal", "corrupted"])
def test_judge_shares_the_lhs_text_exactly_when_equal(request, corrupt):
    # every case is one (lhs, rhs) pair, judged once: each side is written
    # as its own text, and the rhs text is the lhs text object exactly when
    # the sides are equal
    if corrupt:
        request.getfixturevalue("corrupt_rhs")
    statuses = Counter()
    for text in JUDGED_CASES:
        case = IdentityCase.parse(text)
        lhs, rhs = sides = verifier.case_sides(case)
        res = CaseResult.judge(case, sides, time.perf_counter())
        assert (res.lhs, res.rhs) == (serialize_side(lhs), serialize_side(rhs)), text
        assert (res.rhs is res.lhs) == (lhs == rhs), text
        statuses[res.status] += 1
    judged = STATUS_COUNTEREXAMPLE if corrupt else STATUS_VERIFIED
    assert statuses == Counter({STATUS_SKIPPED: 2, judged: len(JUDGED_CASES) - 2})


def test_every_case_is_one_pair_of_sides_of_one_kind():
    # over grid-all's grid: case_sides returns one 2-tuple, whose sides are
    # both Polynomial or both Ratio, or, exactly for TOP_COEFF at r >= 2,
    # both 2-tuples of Ratio
    cases = expand_cases(SweepConfig(tuple(IdentityId), (1, 10), (1, 10), (1, 8)))
    assert len(cases) == 5160
    kinds = Counter()
    for case in cases:
        sides = case_sides(case)
        assert type(sides) is tuple and len(sides) == 2, case
        lhs, rhs = sides
        if case.identity_id is IdentityId.TOP_COEFF and case.r >= 2:
            for side in sides:
                assert type(side) is tuple and len(side) == 2, case
                assert {type(v) for v in side} == {Ratio}, case
            kinds["checks"] += 1
        else:
            assert type(lhs) is type(rhs) and type(lhs) in (Polynomial, Ratio), case
            kinds[type(lhs).__name__] += 1
    assert kinds["checks"] == 720 and kinds["Polynomial"] and kinds["Ratio"]
    # a tuple side holds Ratios only, as a bare side is a Ratio, not an int
    # or another type's rational
    assert serialize_side((Ratio(1, 2), Ratio(-3))) == ["1/2", "-3"]
    for value in ((Ratio(1), 1), (Fraction(1, 2), Ratio(1)), (Ratio(1), Fraction(3))):
        with pytest.raises(TypeError, match="cannot serialize"):
            serialize_side(value)


def test_elapsed_time_excludes_writing(monkeypatch):
    # on a clock that only writing a side moves, by 1000 s a text, every
    # case reads under 1000 ms, whether its sides are scalars or TOP_COEFF's
    # checks
    now = [0.0]
    monkeypatch.setattr(verifier.time, "perf_counter", lambda: now[0])
    real = verifier.serialize_side

    def slow(value):
        now[0] += 1000.0
        return real(value)

    monkeypatch.setattr(verifier, "serialize_side", slow)
    report = run_sweep(SweepConfig(tuple(IdentityId), (1, 4), (1, 3), (1, 2)))
    shapes = {type(r.lhs) for r in report.results if r.case.identity_id is IdentityId.TOP_COEFF}
    assert shapes == {str, list}
    assert now[0] >= 1000.0 * len(report.results)
    assert all(r.elapsed_ms < 1000.0 for r in report.results)


def test_skipped_conventions():
    res = compare_case(IdentityCase.parse("CONJ4(n=4,r=1,s=1)"))
    assert res.status == STATUS_SKIPPED
    res = compare_case(IdentityCase.parse("HOCKEY_STICK(n=5,r=1)"))
    assert res.status == STATUS_SKIPPED


def test_config_validation():
    with pytest.raises(ConfigError):
        SweepConfig(identity_ids=(), n_range=(1, 3)).validate()
    with pytest.raises(ConfigError):
        SweepConfig(
            identity_ids=(IdentityId.CONJ1,), n_range=(3, 1)
        ).validate()
    with pytest.raises(ConfigError):
        SweepConfig(
            identity_ids=(IdentityId.CONJ1,), n_range=(1, 3), s_range=(0, 2)
        ).validate()
    # s = 0 allowed once the scalar identity is in the sweep
    SweepConfig(
        identity_ids=(IdentityId.CONJ3,), n_range=(1, 3), s_range=(0, 2)
    ).validate()
    with pytest.raises(ConfigError):
        SweepConfig(
            identity_ids=(IdentityId.CONJ1,), n_range=(1, 2), worker_count=0
        ).validate()
    # a form's name is not a Form: its cases would be refused only at expansion
    with pytest.raises(ConfigError, match="Form"):
        SweepConfig(
            identity_ids=(IdentityId.CONJ1,), n_range=(1, 2), form="SIGNED"
        ).validate()


def test_config_keyword_construction_takes_the_defaults():
    config = SweepConfig(identity_ids=(IdentityId.HOCKEY_STICK,), n_range=(2, 4))
    defaults = (config.r_range, config.s_range, config.form, config.worker_count)
    assert defaults == ((1, 1), (1, 1), None, 1)
    config.validate()
    assert len(run_sweep(config).results) == 3


@pytest.mark.parametrize(
    "fields, message",
    [
        ({"worker_count": 1.5}, "worker_count"),
        ({"worker_count": True}, "worker_count"),
        ({"identity_ids": ("CONJ1",)}, "IdentityId"),
        ({"identity_ids": "CONJ1"}, "IdentityId"),
        ({"identity_ids": IdentityId.CONJ1}, "IdentityId"),
        ({"identity_ids": (IdentityId.CONJ1, IdentityId.CONJ1)}, "more than once"),
        ({"n_range": (1, 2.0)}, "n range"),
        ({"n_range": (1, True)}, "n range"),
        ({"r_range": (1, 2, 3)}, "r range"),
        ({"s_range": [1, 2]}, "s range"),
        ({"s_range": 2}, "s range"),
    ],
)
def test_config_refuses_badly_typed_fields(fields, message):
    # exact types, as IdentityCase checks them: each of these once passed,
    # was echoed into the report, or failed with a bare KeyError, TypeError
    # or unpack ValueError
    base = {"identity_ids": (IdentityId.CONJ1,), "n_range": (1, 2)}
    with pytest.raises(ConfigError, match=message):
        SweepConfig(**{**base, **fields}).validate()
    SweepConfig(**base).validate()


@pytest.mark.parametrize("cpus, expected", [(64, [2]), (3, [2]), (None, []), (1, [])])
def test_worker_count_capped(monkeypatch, cpus, expected):
    # four cases in two (identity, n) slices; a huge request must never
    # reach the pool, nor give it more workers than slices or usable CPUs.
    # The sweep's own process is one of them, so it forks one child fewer.
    # cpus is what sched_getaffinity allows, on a machine of 64 CPUs;
    # None is a platform without it, whose os.cpu_count() is unknown
    sizes, started = [], []
    real_pool, real_fork = verifier._fork_pool, os.fork

    def recording_pool(cases, slices, workers):
        sizes.append(workers)
        return real_pool(cases, slices, workers)

    def counting_fork():
        pid = real_fork()
        started.append(pid)
        return pid

    monkeypatch.setattr(verifier, "_fork_pool", recording_pool)
    monkeypatch.setattr(verifier.os, "fork", counting_fork)
    if cpus is None:
        monkeypatch.delattr(verifier.os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(verifier.os, "cpu_count", lambda: None)
    else:
        monkeypatch.setattr(verifier.os, "sched_getaffinity", lambda pid: set(range(cpus)))
        monkeypatch.setattr(verifier.os, "cpu_count", lambda: 64)
    config = SweepConfig(
        identity_ids=(IdentityId.CLASSICAL,), n_range=(1, 2), worker_count=10**6
    )
    report = run_sweep(config)
    assert len(report.results) == 4
    assert sizes == expected
    assert len(started) == sum(w - 1 for w in expected)
    assert report.summary["verified"] == 4
    assert report.to_dict()["config"]["worker_count"] == 10**6


def _assert_plain(value):
    """Only builtin scalars, lists and tuples: no program object."""
    if isinstance(value, (list, tuple)):
        for item in value:
            _assert_plain(item)
    else:
        assert type(value) in (str, int, float), type(value)


def test_pool_ships_index_slices_and_tuples(monkeypatch):
    # an in-process stand-in for the forked pool: every task and every slice
    # result goes through marshal, as it does between processes
    tasks, sizes = [], []

    def marshalling_pool(cases, slices, workers):
        sizes.append(workers)
        results = []
        for number in range(len(slices)):
            task = marshal.loads(marshal.dumps(number))
            assert type(task) is int, task
            tasks.append(task)
            lo, hi = slices[task]
            verdicts = marshal.loads(marshal.dumps(verifier._judge_slice(cases, (lo, hi))))
            _assert_plain(verdicts)
            results += [CaseResult(c, *v) for c, v in zip(cases[lo:hi], verdicts, strict=True)]
        return results

    monkeypatch.setattr(verifier, "_fork_pool", marshalling_pool)
    monkeypatch.setattr(verifier, "_usable_cpus", lambda: 2)
    base = dict(
        identity_ids=(IdentityId.CONJ1, IdentityId.CONJ3, IdentityId.HOCKEY_STICK),
        n_range=(1, 4),
        r_range=(1, 4),
        s_range=(1, 2),
    )
    report2 = run_sweep(SweepConfig(worker_count=2, **base))
    report1 = run_sweep(SweepConfig(worker_count=1, **base))
    assert sizes == [2]
    assert len(tasks) > 1
    assert report2.content_dict() == report1.content_dict()


def _case_key(case):
    return case.identity_id, case.n


@given(
    st.lists(st.sampled_from(list(IdentityId)), min_size=1, max_size=3, unique=True),
    st.integers(1, 4),
    st.integers(0, 3),
    st.integers(1, 3),
    st.integers(0, 2),
    st.integers(1, 40),
)
@settings(max_examples=200, deadline=None)
def test_slices_cover_grid_and_cut_at_identity_n(ids, n_lo, n_span, r_hi, s_hi, size):
    config = SweepConfig(tuple(ids), (n_lo, n_lo + n_span), (1, r_hi), (0, s_hi))
    try:
        config.validate()
    except ConfigError:  # s = 0 without CONJ3
        return
    cases = expand_cases(config)
    slices = verifier._slices(cases, size)
    # contiguous, in order, each index exactly once
    assert [i for lo, hi in slices for i in range(lo, hi)] == list(range(len(cases)))
    assert all(lo < hi for lo, hi in slices)
    for lo, hi in slices:
        # at least size cases, unless it is the last; no longer than needed
        assert hi - lo >= size or hi == len(cases)
        if hi - lo > size:
            assert _case_key(cases[lo + size - 1]) == _case_key(cases[hi - 1])
        # cut only where (identity, n) changes
        if hi < len(cases):
            assert _case_key(cases[hi - 1]) != _case_key(cases[hi])


def test_grid_all_same_content_at_one_and_two_workers():
    base = (tuple(IdentityId), (1, 10), (1, 10), (1, 8))
    report1 = run_sweep(SweepConfig(*base, worker_count=1))
    report2 = run_sweep(SweepConfig(*base, worker_count=2))
    assert len(report1.results) == 5160
    assert report1.content_dict() == report2.content_dict()


needs_fork = pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")


def _assert_no_child():
    assert multiprocessing.active_children() == []
    # no child is left unreaped either
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@needs_fork
def test_worker_error_reaches_caller_and_leaves_no_process(monkeypatch):
    real = verifier.case_sides
    poisoned = IdentityCase.parse("CONJ1(n=3,r=2,s=1,form=SIGNED)")

    def failing(case):
        if case == poisoned:
            raise RuntimeError("poisoned case")
        return real(case)

    # the workers fork after the patch, so they see it too
    monkeypatch.setattr(verifier, "case_sides", failing)
    monkeypatch.setattr(verifier, "_usable_cpus", lambda: 2)
    config = SweepConfig((IdentityId.CONJ1,), (1, 5), (1, 3), (1, 2), worker_count=2)
    with pytest.raises(RuntimeError, match="poisoned case"):
        run_sweep(config)
    _assert_no_child()


@needs_fork
def test_worker_error_stops_the_sweep(monkeypatch):
    # 8 slices of 64 cases at 2 workers, the first case raising once the
    # other worker has judged a case: the other worker is then killed at
    # once, so only a few cases are judged; with an executor, whose running
    # slices ran on to their end, about two slices were
    real = verifier.case_sides
    config = SweepConfig((IdentityId.CONJ1,), (1, 8), (1, 8), (1, 4), worker_count=2)
    cases = expand_cases(config)
    assert len(verifier._slices(cases, len(cases) // 8)) == 8
    judged = multiprocessing.get_context("fork").Value("i", 0)

    def failing(case):
        if case == cases[0]:
            deadline = time.monotonic() + 30
            while judged.value == 0 and time.monotonic() < deadline:
                time.sleep(0.001)
            raise RuntimeError("first case")
        # a slice then takes longer than the caller takes to see the error
        time.sleep(0.003)
        with judged.get_lock():
            judged.value += 1
        return real(case)

    # the workers fork after the patch, so they see it and share the counter
    monkeypatch.setattr(verifier, "case_sides", failing)
    monkeypatch.setattr(verifier, "_usable_cpus", lambda: 2)
    with pytest.raises(RuntimeError, match="first case"):
        run_sweep(config)
    _assert_no_child()
    assert 0 < judged.value <= 3 * len(cases) // 8


@needs_fork
def test_worker_dying_without_verdicts_fails_the_sweep(fault_in_child):
    fault_in_child(lambda: os._exit(3))
    config = SweepConfig((IdentityId.CONJ1,), (1, 5), (1, 3), (1, 2), worker_count=2)
    with pytest.raises(RuntimeError, match="status 3"):
        run_sweep(config)
    _assert_no_child()


@needs_fork
def test_child_error_is_met_within_the_slice_in_hand(monkeypatch, fault_in_child):
    # the child fails at its first case while this process waits at its
    # own first case; once that slice ends, the child's error is raised,
    # and this process takes no later slice
    def fail():
        raise RuntimeError("failed in a child")

    fault_in_child(fail)
    faulty, judged = verifier.case_sides, []
    # a child appends to its own copy of the list
    monkeypatch.setattr(verifier, "case_sides", lambda case: judged.append(case) or faulty(case))
    config = SweepConfig((IdentityId.CONJ1,), (1, 8), (1, 8), (1, 4), worker_count=2)
    cases = expand_cases(config)
    slices = verifier._slices(cases, len(cases) // 8)
    assert len(slices) == 8
    with pytest.raises(RuntimeError, match="failed in a child"):
        run_sweep(config)
    _assert_no_child()
    assert [cases[lo:hi] for lo, hi in slices].count(judged) == 1


@needs_fork
def test_sweep_process_is_one_of_its_workers(monkeypatch):
    # at two workers on two usable CPUs, one child is forked, and this
    # process judges whole slices itself.  The child's cases are slowed,
    # so this process surely takes a slice however the two are scheduled
    base = dict(identity_ids=(IdentityId.CONJ1, IdentityId.CONJ3), n_range=(1, 6),
                r_range=(1, 6), s_range=(1, 3))
    report1 = run_sweep(SweepConfig(worker_count=1, **base))
    real_fork, real_compare = os.fork, verifier.compare_case
    parent, forks, judged = os.getpid(), [], []

    def counting_fork():
        pid = real_fork()
        forks.append(pid)
        return pid

    def compare(case):
        if os.getpid() == parent:
            judged.append(case)
        else:
            time.sleep(0.001)
        return real_compare(case)

    monkeypatch.setattr(verifier.os, "fork", counting_fork)
    monkeypatch.setattr(verifier, "compare_case", compare)
    monkeypatch.setattr(verifier, "_usable_cpus", lambda: 2)
    report2 = run_sweep(SweepConfig(worker_count=2, **base))
    assert len(forks) == 1
    assert report2.content_dict() == report1.content_dict()
    cases = expand_cases(SweepConfig(**base))
    slices = verifier._slices(cases, len(cases) // 8)
    mine = [cases[lo:hi] for lo, hi in slices if cases[lo] in judged]
    assert mine and judged == [case for part in mine for case in part]
    _assert_no_child()


@needs_fork
def test_interrupted_sweep_leaves_no_process(monkeypatch):
    # a child's verdicts and the end of its pipe are two reads.  This
    # process waits at its first case until the child judges one, and the
    # child's cases are slow, so the child is still in its slice when this
    # process has judged all the others and blocks: it waits twice at
    # least, and the second blocking wait is interrupted.  The checks
    # between slices do not block, and are not counted.  The pool imports
    # select when it starts, so the patch is on the module itself
    real = verifier.case_sides
    real_select = select.select
    parent, waits = os.getpid(), []
    started = multiprocessing.get_context("fork").Value("i", 0)

    def slow(case):
        if os.getpid() == parent:
            deadline = time.monotonic() + 30
            while started.value == 0 and time.monotonic() < deadline:
                time.sleep(0.001)
        else:
            started.value = 1
            time.sleep(0.005)
        return real(case)

    def interrupted_select(*args):
        if args[3:] != (0,):
            waits.append(args)
            if len(waits) > 1:
                raise KeyboardInterrupt
        return real_select(*args)

    monkeypatch.setattr(verifier, "case_sides", slow)
    monkeypatch.setattr(select, "select", interrupted_select)
    monkeypatch.setattr(verifier, "_usable_cpus", lambda: 2)
    config = SweepConfig((IdentityId.CONJ1,), (1, 6), (1, 6), (1, 2), worker_count=2)
    with pytest.raises(KeyboardInterrupt):
        run_sweep(config)
    assert len(waits) == 2
    _assert_no_child()


def test_sweep_without_fork_runs_in_process(monkeypatch):
    base = dict(identity_ids=(IdentityId.CONJ1, IdentityId.CONJ4), n_range=(1, 4),
                r_range=(1, 4), s_range=(1, 2))
    report1 = run_sweep(SweepConfig(worker_count=1, **base))
    monkeypatch.setattr(verifier, "_usable_cpus", lambda: 2)
    monkeypatch.delattr(os, "fork", raising=False)
    report2 = run_sweep(SweepConfig(worker_count=2, **base))
    assert report2.content_dict() == report1.content_dict()
    assert report2.to_dict()["config"]["worker_count"] == 2


def test_grid_order_deterministic():
    config = SweepConfig(
        identity_ids=(IdentityId.CONJ3, IdentityId.CONJ1),
        n_range=(1, 2),
        r_range=(1, 2),
        s_range=(1, 2),
    )
    cases = expand_cases(config)
    # identities come back in enum order regardless of input order; the
    # grid walks the registry, which lists them in that order
    assert list(verifier.IDENTITIES) == list(IdentityId)
    assert cases[0].identity_id is IdentityId.CONJ1
    keys = [
        (list(IdentityId).index(c.identity_id), c.n, c.r or 0, c.s or 0)
        for c in cases
    ]
    assert keys == sorted(keys)
    assert len(cases) == len(set(cases))


def test_grid_skips_s_zero_outside_conj3():
    config = SweepConfig(
        identity_ids=(IdentityId.CONJ3, IdentityId.CONJ4),
        n_range=(2, 2),
        r_range=(2, 2),
        s_range=(0, 1),
    )
    cases = expand_cases(config)
    conj4_s = [c.s for c in cases if c.identity_id is IdentityId.CONJ4]
    conj3_s = [c.s for c in cases if c.identity_id is IdentityId.CONJ3]
    assert conj4_s == [1]
    assert conj3_s == [0, 1]


def test_run_sweep_all_verified():
    report = run_sweep(
        SweepConfig(
            identity_ids=(IdentityId.CONJ1,),
            n_range=(1, 5),
            r_range=(1, 5),
            s_range=(1, 4),
        )
    )
    assert report.summary == {
        "verified": len(report.results),
        "counterexamples": 0,
        "skipped": 0,
    }
    assert report.exit_code == 0


def test_run_sweep_classical_range():
    report = run_sweep(
        SweepConfig(identity_ids=(IdentityId.CLASSICAL,), n_range=(1, 12))
    )
    assert report.summary["counterexamples"] == 0
    assert report.summary["verified"] == 24  # both forms


def test_run_sweep_perturbed_counterexamples(corrupt_rhs):
    report = run_sweep(
        SweepConfig(identity_ids=(IdentityId.CLASSICAL,), n_range=(1, 3))
    )
    assert report.summary["counterexamples"] == len(report.results)
    assert report.exit_code == 1
    for res in report.counterexamples():
        assert res.lhs != res.rhs


def test_schedule_independence():
    config1 = SweepConfig(
        identity_ids=(IdentityId.CONJ1, IdentityId.CONJ3),
        n_range=(1, 5),
        r_range=(1, 5),
        s_range=(1, 3),
        worker_count=1,
    )
    config4 = SweepConfig(
        identity_ids=(IdentityId.CONJ1, IdentityId.CONJ3),
        n_range=(1, 5),
        r_range=(1, 5),
        s_range=(1, 3),
        worker_count=4,
    )
    rep1 = run_sweep(config1)
    rep4 = run_sweep(config4)
    assert rep1.content_dict() == rep4.content_dict()


def test_report_json_schema():
    report = run_sweep(
        SweepConfig(identity_ids=(IdentityId.CONJ2,), n_range=(1, 3))
    )
    data = json.loads(_json_text(report))
    assert set(data) == {"config", "results", "summary", "total_ms"}
    assert list(data["config"]) == [
        "identity_ids", "n_range", "r_range", "s_range", "form", "worker_count"
    ]
    assert set(data["summary"]) == {"verified", "counterexamples", "skipped"}
    for res in data["results"]:
        assert set(res) == {"case", "status", "lhs", "rhs", "elapsed_ms"}
        assert isinstance(res["lhs"], list)  # polynomial sides


def _json_text(report):
    buf = io.StringIO()
    assert report.to_json(buf) is None
    return buf.getvalue()


def test_report_json_is_one_line_of_the_report_dict():
    report = run_sweep(
        SweepConfig(identity_ids=(IdentityId.CONJ1,), n_range=(1, 3), r_range=(1, 3))
    )
    text = _json_text(report)
    assert "\n" not in text
    assert json.loads(text) == report.to_dict()


class _Writes:
    """A text sink that keeps each text written to it, one item a call."""

    def __init__(self):
        self.texts = []

    def write(self, text):
        self.texts.append(text)


def test_streamed_json_equals_one_dumps_of_the_report_dict():
    # the writer formats each row itself; the joins between rows, and
    # around none or one, must leave json.dumps' bytes
    sweep = run_sweep(
        SweepConfig(
            identity_ids=tuple(IdentityId), n_range=(1, 6), r_range=(1, 6), s_range=(0, 3)
        )
    )
    assert len(sweep.results) > 773
    rows = sweep.results
    reports = [sweep] + [
        Report(sweep.config, [rows[i % len(rows)] for i in range(count)], total_ms)
        for count, total_ms in (
            (0, 0.0), (1, 1e-7), (256, 12.5), (257, 3.0), (773, 1e21)
        )
    ]
    # rows with big-s sides, one row a write: a write holds one row's text
    big = "9" * 70_000
    case = IdentityCase.parse("CONJ3(n=2,r=1,s=9999)")
    big_rows = [CaseResult(case, STATUS_VERIFIED, big, big, 0.5)] * 5
    sink = _Writes()
    Report(sweep.config, big_rows, 2.0).to_json(sink)
    assert len(sink.texts) == 2 + len(big_rows)
    assert all(2 * len(big) < len(text) < 2 * len(big) + 200 for text in sink.texts[1:-1])
    reports.append(Report(sweep.config, big_rows, 2.0))
    for report in reports:
        text = _json_text(report)
        assert text == json.dumps(report.to_dict(), ensure_ascii=False), len(report.results)
        assert report.to_json() == text  # no sink: the same text, returned


_SIDE_TEXT = re.compile(r"-?[0-9]+(/[0-9]+)?")


def test_side_texts_need_no_json_escape():
    # the JSON writer quotes side texts as they are, which is json.dumps'
    # text only while serialize_side writes nothing but numerals, "-", "/"
    cases = expand_cases(
        SweepConfig(
            identity_ids=tuple(IdentityId), n_range=(1, 6), r_range=(1, 6), s_range=(0, 3)
        )
    )
    cases += [
        IdentityCase.parse("CONJ1(n=4,r=3,s=10000,form=SIGNED)"),  # big s
        IdentityCase.parse("CONJ2(n=2,s=2,form=SIGNED)"),  # ["-3", "2"]
    ]
    values = [value for case in cases for value in case_sides(case)]
    values += [Ratio(-(10**50), 3), Polynomial([-7, 0, 5, -(10**40)], 6)]
    texts = []
    for value in values:
        side = serialize_side(value)
        texts += [side] if isinstance(side, str) else side
    for text in texts:
        assert _SIDE_TEXT.fullmatch(text), text
    assert any(t.startswith("-") and "/" in t for t in texts)
    assert max(map(len, texts)) > 35_000


class _CharCount:
    """A text sink that keeps only the number of characters written to it."""

    def __init__(self):
        self.chars = 0

    def write(self, text):
        self.chars += len(text)


def test_json_writer_holds_one_batch_not_the_report():
    # about 6.5 MB of report text, which the writer held whole, peaking at
    # over twice its length; a batch is far less than a quarter of it
    case = IdentityCase.parse("CONJ2(n=2,s=2,form=SIGNED)")
    side = [str(10**40 + i) for i in range(6)]
    results = [CaseResult(case, STATUS_VERIFIED, side, side, i / 7) for i in range(10000)]
    report = Report(
        SweepConfig(identity_ids=(IdentityId.CONJ2,), n_range=(2, 2), s_range=(2, 2)), results
    )
    sink = _CharCount()
    tracemalloc.start()
    try:
        report.to_json(sink)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sink.chars > 10**6
    assert peak < sink.chars / 4, (peak, sink.chars)


def test_report_csv():
    report = run_sweep(
        SweepConfig(identity_ids=(IdentityId.CONJ3,), n_range=(2, 3), r_range=(1, 2))
    )
    buf = io.StringIO()
    assert report.to_csv(buf) is None
    lines = buf.getvalue().strip().splitlines()
    assert lines[0] == "case,status,lhs,rhs,elapsed_ms"
    assert len(lines) == len(report.results) + 1
    assert "CONJ3(n=2,r=1,s=1)" in lines[1]


def test_determinism_repeated_runs():
    config = SweepConfig(
        identity_ids=(IdentityId.CONJ2,), n_range=(1, 4), s_range=(1, 3)
    )
    assert run_sweep(config).content_dict() == run_sweep(config).content_dict()


def test_registry_regression_all_identities():
    # the s floor, forms, parameter use and skip rule of every identity
    config = SweepConfig(
        identity_ids=tuple(IdentityId),
        n_range=(1, 3),
        r_range=(1, 3),
        s_range=(0, 2),
    )
    config.validate()
    cases = expand_cases(config)
    counts = Counter(c.identity_id.value for c in cases)
    assert counts == {
        "CONJ1": 36,
        "CONJ3": 27,
        "CONJ4": 18,
        "CONST_TERM": 18,
        "TOP_COEFF": 18,
        "CONJ2": 12,
        "HOCKEY_STICK": 9,
        "CLASSICAL": 6,
        "BINOMIAL_TYPE": 6,
    }
    assert len(cases) == 150
    assert _grid_size(config) == 150
    report = run_sweep(config)
    skipped = {str(r.case) for r in report.results if r.status == STATUS_SKIPPED}
    expected = {f"CONJ4(n={n},r=1,s={s})" for n in (1, 2, 3) for s in (1, 2)}
    expected |= {f"HOCKEY_STICK(n={n},r=1)" for n in (1, 2, 3)}
    assert skipped == expected
    assert report.summary == {"verified": 141, "counterexamples": 0, "skipped": 9}


def _grid_size(config):
    """The grid's size from its axes, without expanding it."""
    return sum(prod(map(len, axes)) for _, axes in verifier._grid_axes(config))


def test_grid_size_from_axes_matches_expansion():
    configs = [
        # grid-all: every id and skip rule, 5160 cases
        SweepConfig(tuple(IdentityId), (1, 10), (1, 10), (1, 8), worker_count=2),
        SweepConfig((IdentityId.CONJ3, IdentityId.CONJ1), (2, 4), (1, 3), (0, 2), Form.SIGNED),
        # CONJ1's s axis is empty below its floor
        SweepConfig((IdentityId.CONJ1, IdentityId.CONJ3), (1, 2), (1, 2), (0, 0)),
    ]
    for config in configs:
        config.validate()
        assert _grid_size(config) == len(expand_cases(config)), config
    assert _grid_size(configs[0]) == 5160


def test_grid_bound_refused_before_expansion():
    at_bound = SweepConfig((IdentityId.HOCKEY_STICK,), (1, 1000), (1, 1000))
    at_bound.validate()
    # r has no ceiling, so only the grid bound refuses a long r axis; an n
    # past HOCKEY_STICK's own limit is refused by that limit, as fast
    too_many = str(verifier.MAX_CASES)
    past_n = f"n={verifier.IDENTITIES[IdentityId.HOCKEY_STICK].max_n + 1}"
    for n_hi, r_hi, message in (
        (1001, 1000, too_many),
        (1000, 10**30, too_many),
        (100000, 100000, past_n),
        (10**30, 2, past_n),
    ):
        config = SweepConfig((IdentityId.HOCKEY_STICK,), (1, n_hi), (1, r_hi))
        start = time.perf_counter()
        with pytest.raises(ConfigError, match=message):
            config.validate()
        assert time.perf_counter() - start < 0.01
    with pytest.raises(ConfigError):
        run_sweep(SweepConfig((IdentityId.HOCKEY_STICK,), (1, 100000), (1, 100000)))
