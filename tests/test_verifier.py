import json
import multiprocessing
import pickle
import time
from collections import Counter
from fractions import Fraction
from math import prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from partition_identities import verifier
from partition_identities.identities import Form, IdentityCase, IdentityId
from partition_identities.polynomials import Polynomial
from partition_identities.verifier import (
    STATUS_COUNTEREXAMPLE,
    STATUS_SKIPPED,
    STATUS_VERIFIED,
    CaseResult,
    ConfigError,
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
        texts = [serialize_side(value) for _, value in verifier.case_sides(case)]
        assert res.rhs == (texts if len(texts) > 1 else texts[0])


def test_equal_sides_are_serialized_once(monkeypatch):
    calls = Counter()
    real = verifier.serialize_side

    def counted(value):
        calls[type(value).__name__] += 1
        return real(value)

    monkeypatch.setattr(verifier, "serialize_side", counted)
    # one serialization per verified pair, whose rhs shares the lhs text
    for text, sides in (
        ("CONJ3(n=3,r=2,s=1)", 1),
        ("CONJ1(n=4,r=3,s=2,form=SIGNED)", 1),
        ("TOP_COEFF(n=4,r=3,s=2)", 2),
        ("HOCKEY_STICK(n=5,r=3)", 1),
    ):
        calls.clear()
        res = compare_case(IdentityCase.parse(text))
        assert res.lhs == res.rhs
        assert sum(calls.values()) == sides, text
        if sides == 1:
            assert res.rhs is res.lhs
    # equal values of different types keep each side's own text
    const = Polynomial.over([3], 1)
    for pair, texts in (((const, Fraction(3)), (["3"], "3")), ((Fraction(3), const), ("3", ["3"]))):
        calls.clear()
        res = CaseResult.judge(IdentityCase.parse("CONJ3(n=3,r=2,s=1)"), [pair], time.perf_counter())
        assert res.status == STATUS_VERIFIED
        assert (res.lhs, res.rhs) == texts
        assert calls == Counter({"Polynomial": 1, "Fraction": 1})


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


class _RecordingExecutor:
    """In-process stand-in for ProcessPoolExecutor that records its size."""

    sizes = []

    def __init__(self, max_workers, initializer, initargs):
        self.sizes.append(max_workers)
        initializer(*initargs)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items):
        return map(fn, items)


@pytest.mark.parametrize("cpus, expected", [(64, [2]), (3, [2]), (None, []), (1, [])])
def test_worker_count_capped(monkeypatch, cpus, expected):
    # four cases in two (identity, n) slices; a huge request must never
    # reach the executor, nor more workers than slices or usable CPUs.
    # cpus is what sched_getaffinity allows, on a machine of 64 CPUs;
    # None is a platform without it, whose os.cpu_count() is unknown
    monkeypatch.setattr(verifier.concurrent.futures, "ProcessPoolExecutor", _RecordingExecutor)
    monkeypatch.setattr(verifier, "_CASES", ())
    if cpus is None:
        monkeypatch.delattr(verifier.os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(verifier.os, "cpu_count", lambda: None)
    else:
        monkeypatch.setattr(verifier.os, "sched_getaffinity", lambda pid: set(range(cpus)))
        monkeypatch.setattr(verifier.os, "cpu_count", lambda: 64)
    monkeypatch.setattr(_RecordingExecutor, "sizes", [])
    config = SweepConfig(
        identity_ids=(IdentityId.CLASSICAL,), n_range=(1, 2), worker_count=10**6
    )
    report = run_sweep(config)
    assert len(report.results) == 4
    assert _RecordingExecutor.sizes == expected
    assert report.summary["verified"] == 4
    assert report.to_dict()["config"]["worker_count"] == 10**6


def _assert_plain(value):
    """Only builtin scalars, lists and tuples: no program object."""
    if isinstance(value, (list, tuple)):
        for item in value:
            _assert_plain(item)
    else:
        assert type(value) in (str, int, float), type(value)


class _PicklingExecutor(_RecordingExecutor):
    """Stand-in for ProcessPoolExecutor under fork: the initializer runs in
    this process, and every task and result goes through pickle, as it
    would between processes."""

    tasks = []

    def map(self, fn, items):
        for item in items:
            arg = pickle.loads(pickle.dumps(item))
            assert type(arg) is tuple and len(arg) == 2, arg
            assert all(type(i) is int for i in arg), arg
            self.tasks.append(arg)
            result = pickle.loads(pickle.dumps(fn(arg)))
            _assert_plain(result)
            yield result


def test_pool_ships_index_slices_and_tuples(monkeypatch):
    monkeypatch.setattr(verifier.concurrent.futures, "ProcessPoolExecutor", _PicklingExecutor)
    monkeypatch.setattr(verifier, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(verifier, "_CASES", ())
    monkeypatch.setattr(_PicklingExecutor, "tasks", [])
    monkeypatch.setattr(_PicklingExecutor, "sizes", [])
    base = dict(
        identity_ids=(IdentityId.CONJ1, IdentityId.CONJ3, IdentityId.HOCKEY_STICK),
        n_range=(1, 4),
        r_range=(1, 4),
        s_range=(1, 2),
    )
    report2 = run_sweep(SweepConfig(worker_count=2, **base))
    report1 = run_sweep(SweepConfig(worker_count=1, **base))
    assert _PicklingExecutor.sizes == [2]
    assert len(_PicklingExecutor.tasks) > 1
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


@pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork", reason="needs the fork start method"
)
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
    assert multiprocessing.active_children() == []


@pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork", reason="needs the fork start method"
)
def test_worker_error_stops_the_sweep(monkeypatch):
    # 8 slices of 64 cases at 2 workers, the first case raising: the slices
    # no worker holds yet are cancelled, and those already queued to a worker
    # return without judging a case, so about two slices run; with the
    # cancelling alone, five did
    real = verifier.case_sides
    config = SweepConfig((IdentityId.CONJ1,), (1, 8), (1, 8), (1, 4), worker_count=2)
    cases = expand_cases(config)
    assert len(verifier._slices(cases, len(cases) // 8)) == 8
    judged = multiprocessing.Value("i", 0)

    def failing(case):
        if case == cases[0]:
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
    assert multiprocessing.active_children() == []
    assert 0 < judged.value <= 3 * len(cases) // 8


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
    data = json.loads(report.to_json())
    assert set(data) == {"config", "results", "summary", "total_ms"}
    assert list(data["config"]) == [
        "identity_ids", "n_range", "r_range", "s_range", "form", "worker_count"
    ]
    assert set(data["summary"]) == {"verified", "counterexamples", "skipped"}
    for res in data["results"]:
        assert set(res) == {"case", "status", "lhs", "rhs", "elapsed_ms"}
        assert isinstance(res["lhs"], list)  # polynomial sides


def test_report_json_is_one_line_of_the_report_dict():
    report = run_sweep(
        SweepConfig(identity_ids=(IdentityId.CONJ1,), n_range=(1, 3), r_range=(1, 3))
    )
    text = report.to_json()
    assert "\n" not in text
    assert json.loads(text) == report.to_dict()


def test_report_csv():
    report = run_sweep(
        SweepConfig(identity_ids=(IdentityId.CONJ3,), n_range=(2, 3), r_range=(1, 2))
    )
    lines = report.to_csv().strip().splitlines()
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
