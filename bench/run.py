"""Benchmark of ``partid sweep`` on three fixed grids.

    python3 bench/run.py --workload conj1-deep|scalar-deep|grid-all|all \
        --seed N --seconds S --trace 0|1

Run it from the root of a checkout: it runs the program from ``src`` there.

``--trace 0`` times whole ``partid sweep ... --out FILE`` processes, one
after another (a closed loop with one client), from outside: wall time and
peak memory from ``wait4``, engine time and per-case times from the JSON
report. Times are scaled to a reference host speed: ``reference_loop``, a
fixed amount of Fraction arithmetic, runs in this process before every
sweep, and each time is multiplied by ``REFERENCE_S`` over the loop's
median in the same run (throughput is divided by it). On a shared
2-vCPU Xeon host under CPython 3.11, whose speed drifted by about 20% over
minutes, this cut the spread of ``sweep_s`` between 40 s runs of
each workload from 0.15-0.24 to 0.04-0.15 (interquartile range over the
median, ten runs). The human lines give the raw values too.

``--trace 1`` runs the grid in-process three times, each pass in a
fresh interpreter: untraced with one worker, untraced with two workers, and
traced with one worker (spans in pool workers would be lost). These give
the per-layer metrics, the pool speed-up and the tracing overhead. Every
report is checked by ``check.failed_cases`` before its numbers are used.

Each workload is a fixed grid, so ``--seed`` only orders the work: the
interleaving of workloads (with ``all``) and of the three traced passes.
The human-readable lines come first; the last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
The exit code is 1 when any case failed, 2 when the program is missing.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import platform
import random
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import check

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
PROGRAM = SRC / "partition_identities" / "cli.py"

#: every run ends well inside the 180 s a run may take
HARD_LIMIT_S = 165.0
#: fewest sweeps per workload in a timed run, so medians exist
MIN_SWEEPS = 3
#: Fraction steps of ``reference_loop``, and the seconds they take on the
#: reference host. End-to-end times are scaled by REFERENCE_S over the
#: loop's median in the same run, because a shared host's speed drifts by
#: about 20% over minutes and the loop slows down with the program.
REFERENCE_STEPS = 15000
REFERENCE_S = 0.2

ALL_IDS = (
    "CLASSICAL",
    "CONJ1",
    "CONJ2",
    "CONJ3",
    "CONJ4",
    "CONST_TERM",
    "TOP_COEFF",
    "BINOMIAL_TYPE",
    "HOCKEY_STICK",
)


@dataclass(frozen=True)
class Workload:
    name: str
    ids: Tuple[str, ...]
    n: Tuple[int, int]
    r: Tuple[int, int]
    s: Tuple[int, int]
    workers: int
    #: ``check.content_digest`` of the report at the seed commit
    digest: str

    def sweep_args(self, workers: Optional[int] = None) -> List[str]:
        args = ["--ids", ",".join(self.ids)]
        for flag, (lo, hi) in (("--n", self.n), ("--r", self.r), ("--s", self.s)):
            args += [flag, f"{lo}..{hi}"]
        return args + ["--workers", str(workers or self.workers)]


# Why these grids (README.md has the layer map and baseline numbers):
# conj1-deep piles p(18) = 385 partitions into every case: LHS accumulation
# (rising factorials, Polynomial.__add__) with the pool bypassed.
# scalar-deep filters all p(30) = 5604 partitions by exact length per case
# and uses only scalar Fractions: gen_binom and Polynomial are never called.
# grid-all has many small cases over all nine ids and both pool workers:
# RHS construction, per-case overhead, serialization and fan-out dominate.
WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "conj1-deep", ("CONJ1",), (18, 18), (1, 18), (1, 4), 1,
            "7b14783e560c012873b7cf411d1b3e003dc9cb160f129f7de6de16226320110c",
        ),
        Workload(
            "scalar-deep", ("CONJ3", "CONJ4"), (30, 30), (1, 30), (0, 5), 1,
            "46ee1dc15ffbcb1f9c5804fc17cdd4f84f3ca6a00f7629c4b31c9e3a1748bbce",
        ),
        Workload(
            "grid-all", ALL_IDS, (1, 10), (1, 10), (1, 8), 2,
            "130748da0ccd7ae1c7113cfa2bc965d79cd287ccb29a33d18360c35dd36894cd",
        ),
    )
}

#: end-to-end metrics (trace 0): name -> unit
END_TO_END = {
    "sweep_s": "s",
    "cases_per_s": "1/s",
    "case_ms_p50": "ms",
    "case_ms_tail": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

#: per-layer metrics (trace 1) in the JSON line: name -> unit. Only times
#: that are above zero on every workload are listed; the human lines also
#: give the times of layers a workload never calls.
PER_LAYER = {
    "partitions.enumerate_calls": "count",
    "partitions.enumerate_self_s": "s",
    "partitions.returned": "count",
    "partitions.stats_self_s": "s",
    "genbinom.calls": "count",
    "genbinom.nonzero_ratio": "ratio",
    "polynomials.rising_calls": "count",
    "polynomials.rising_self_s": "s",
    "polynomials.poly_add_calls": "count",
    "polynomials.poly_mul_calls": "count",
    "polynomials.binom_self_s": "s",
    "polynomials.max_coeff_bits": "bits",
    "identities.self_s": "s",
    "verifier.compare_self_s": "s",
    "verifier.serialize_s": "s",
    "verifier.expand_s": "s",
    "verifier.pool_speedup": "ratio",
    "verifier.pool_overhead_s": "s",
    "cli.to_json_s": "s",
    "cli.report_bytes": "bytes",
    "trace.overhead_ratio": "ratio",
    "trace.unattributed_s": "s",
    "trace.wall_s": "s",
}

#: shown in the human lines only: zero on a workload that bypasses the layer
LAYER_EXTRA = {
    "genbinom.self_s": "s",
    "polynomials.poly_add_self_s": "s",
    "polynomials.poly_mul_self_s": "s",
    **{f"identities.{iid}.case_s": "s" for iid in ALL_IDS},
}

LAYERS = ("partitions", "genbinom", "polynomials", "identities", "verifier", "cli")


class Budget:
    """Run-time bookkeeping: the soft target and the hard limit of one run."""

    def __init__(self, seconds: float) -> None:
        self.start = time.monotonic()
        self.seconds = seconds

    def elapsed(self) -> float:
        return time.monotonic() - self.start

    def remaining_hard(self) -> float:
        return HARD_LIMIT_S - self.elapsed()

    def another_round(self, rounds: int, min_rounds: int) -> bool:
        """Start another round only if it should still end inside the target."""
        if rounds < min_rounds:
            return self.remaining_hard() > 0
        per_round = self.elapsed() / rounds
        return self.elapsed() + per_round <= min(self.seconds, HARD_LIMIT_S)


def program_env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    return env


def spawn(cmd: List[str], stdout: Path, budget: Budget) -> Optional[dict]:
    """Run ``cmd`` through ``spawn.py`` in a process group of its own.

    Returns spawn.py's record (exit code, wall seconds, peak memory), or
    None if the group had to be killed at the run's hard limit.
    """
    record = stdout.with_name(stdout.name + ".spawn.json")
    record.unlink(missing_ok=True)
    wrapper = [sys.executable, str(BENCH_DIR / "spawn.py"), str(record)]
    with open(stdout, "wb") as out:
        proc = subprocess.Popen(
            wrapper + cmd, cwd=ROOT, env=program_env(), stdout=out, start_new_session=True
        )
        try:
            proc.wait(timeout=max(0.0, budget.remaining_hard()))
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            return None
    return load_json(record)


def load_json(path: Path) -> Optional[dict]:
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError):
        return None


def max_coeff_bits(results: Sequence[dict]) -> int:
    """Largest numerator or denominator bit length in the serialized sides."""
    best = 0
    for r in results:
        for side in (r["lhs"], r["rhs"]):
            for item in side if isinstance(side, list) else [side]:
                for token in item.replace("|", "/").split("/"):
                    if token:
                        best = max(best, int(token).bit_length())
    return best


def expected_cases(workload: Workload) -> List[str]:
    """Case strings of the grid, as the program's own expansion lists them."""
    from partition_identities.identities import IdentityId
    from partition_identities.verifier import SweepConfig, expand_cases

    config = SweepConfig(
        identity_ids=tuple(IdentityId(i) for i in workload.ids),
        n_range=workload.n,
        r_range=workload.r,
        s_range=workload.s,
        worker_count=workload.workers,
    )
    return [str(c) for c in expand_cases(config)]


def tail_percentile(count: int) -> Optional[int]:
    """Highest whole percentile with at least ten samples beyond it."""
    if count <= 20:
        return None
    return math.floor(100 * (1 - 10 / count))


def percentile(values: List[float], pct: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(pct / 100 * len(ordered)) - 1)]


def describe(values: List[float], unit: str) -> str:
    """Median, the tail percentile where the count allows one, and the count."""
    text = f"median {statistics.median(values):.6g} {unit}"
    pct = tail_percentile(len(values))
    if pct is not None:
        text += f", p{pct} {percentile(values, pct):.6g} {unit}"
    return text + f", n={len(values)}"


class Tally:
    """Cases attempted and failed, per workload, across every checked report."""

    def __init__(self) -> None:
        self.counts: Dict[str, List[int]] = {}

    def add(self, name: str, attempted: int, failed: int) -> None:
        counts = self.counts.setdefault(name, [0, 0])
        counts[0] += attempted
        counts[1] += failed

    def line(self, name: str) -> str:
        attempted, failed = self.counts.get(name, [0, 0])
        frac = failed / attempted if attempted else 1.0
        return f"failed_frac   {frac:.6g} ({failed} of {attempted} cases)"


# ---------------------------------------------------------------- end to end


def one_sweep(workload: Workload, cases: List[str], tmp: Path, budget: Budget):
    out = tmp / f"{workload.name}.json"
    out.unlink(missing_ok=True)
    cmd = [sys.executable, "-m", "partition_identities.cli", "sweep"]
    cmd += workload.sweep_args() + ["--out", str(out)]
    run = spawn(cmd, tmp / "sweep.out", budget)
    report = load_json(out)
    failed = check.failed_cases(cases, workload.digest, run["exit_code"] if run else 1, report)
    if report is None or failed == len(cases):
        return None, failed
    total_s = report["total_ms"] / 1000.0
    return {
        "sweep_s": run["wall_s"],
        "total_s": total_s,
        "case_ms": [r["elapsed_ms"] for r in report["results"]],
        "peak_rss_mb": run["maxrss_kb"] / 1024.0,
    }, failed


def reference_loop() -> float:
    """Seconds this process takes for a fixed amount of Fraction arithmetic."""
    start = time.perf_counter()
    acc = Fraction(0)
    for i in range(1, REFERENCE_STEPS):
        acc += Fraction(i, i + 1) * (i % 7 + 1)
    return time.perf_counter() - start


def end_to_end(workloads, rng, budget: Budget, tmp: Path, tally: Tally):
    cases = {w.name: expected_cases(w) for w in workloads}
    sweeps: Dict[str, list] = {w.name: [] for w in workloads}
    refs = []
    rounds = 0
    while budget.another_round(rounds, MIN_SWEEPS):
        for w in rng.sample(workloads, len(workloads)):
            refs.append(reference_loop())
            sweep, failed = one_sweep(w, cases[w.name], tmp, budget)
            tally.add(w.name, len(cases[w.name]), failed)
            if sweep is not None:
                sweeps[w.name].append(sweep)
        rounds += 1
    refs.append(reference_loop())
    scale = REFERENCE_S / statistics.median(refs)
    host = (
        f"host          reference loop {describe(refs, 's')}; times are scaled "
        f"by {scale:.4f} to a host where it takes {REFERENCE_S} s"
    )
    results = {}
    for w in workloads:
        got = sweeps[w.name]
        if not got:
            results[w.name] = ({}, [f"{w.name}: no sweep passed the check"])
            continue
        case_ms = [ms for s in got for ms in s["case_ms"]]
        pct = tail_percentile(len(cases[w.name]))
        setup = [s["sweep_s"] - s["total_s"] for s in got]
        raw = {
            "sweep_s": statistics.median(s["sweep_s"] for s in got),
            "cases_per_s": statistics.median(len(cases[w.name]) / s["total_s"] for s in got),
            "case_ms_p50": statistics.median(case_ms),
            "case_ms_tail": percentile(case_ms, pct),
            "setup_s": statistics.median(setup),
        }
        metrics = {k: v / scale if k == "cases_per_s" else v * scale for k, v in raw.items()}
        metrics["peak_rss_mb"] = statistics.median(s["peak_rss_mb"] for s in got)
        lines = [
            host,
            f"sweep_s       {metrics['sweep_s']:.6g} s scaled; raw "
            f"{describe([s['sweep_s'] for s in got], 's')}",
            f"cases_per_s   {metrics['cases_per_s']:.6g} 1/s scaled; raw median "
            f"{raw['cases_per_s']:.6g} 1/s ({len(cases[w.name])} cases a sweep), n={len(got)}",
            f"case_ms_p50   {metrics['case_ms_p50']:.6g} ms scaled; raw "
            f"{raw['case_ms_p50']:.6g} ms, n={len(case_ms)}",
            f"case_ms_tail  {metrics['case_ms_tail']:.6g} ms scaled; raw p{pct} "
            f"{raw['case_ms_tail']:.6g} ms, n={len(case_ms)}",
            f"setup_s       {metrics['setup_s']:.6g} s scaled; raw {describe(setup, 's')}",
            f"peak_rss_mb   {describe([s['peak_rss_mb'] for s in got], 'MB')}",
        ]
        results[w.name] = (metrics, lines)
    return results


# ------------------------------------------------------------------- traced

PASSES = (("plain", 1), ("plain", 2), ("traced", 1))


def one_pass(workload, mode, workers, cases, tmp, budget: Budget):
    """One in-process sweep in a fresh interpreter; None unless it checks out."""
    out = tmp / f"{workload.name}-{mode}-{workers}.json"
    result = tmp / "pass.json"
    out.unlink(missing_ok=True)
    cmd = [sys.executable, str(BENCH_DIR / "tracing.py"), "--mode", mode]
    cmd += ["--out", str(out), "--"] + workload.sweep_args(workers)
    run = spawn(cmd, result, budget)
    data = load_json(result) if run and run["exit_code"] == 0 else None
    report = load_json(out)
    exit_code = data["exit_code"] if data else 1
    failed = check.failed_cases(cases, workload.digest, exit_code, report)
    if data is None or failed:
        return None, failed
    data["report_bytes"] = out.stat().st_size
    data["max_coeff_bits"] = max_coeff_bits(report["results"])
    return data, failed


def layer_metrics(plain1: dict, plain2: dict, traced: dict) -> Dict[str, float]:
    spans = traced["spans"]

    def get(name: str, field: int) -> float:
        return spans.get(name, [0, 0.0, 0.0, 0])[field]

    def self_of(*names: str) -> float:
        return sum(get(n, 2) for n in names)

    layer_self = {
        layer: sum(v[2] for k, v in spans.items() if k.split(".")[0] == layer)
        for layer in LAYERS
    }
    calls = get("genbinom.gen_binom", 0)
    m = {
        "partitions.enumerate_calls": get("partitions.enumerate_partitions", 0),
        "partitions.enumerate_self_s": self_of(
            "partitions.enumerate_partitions", "partitions.warm_cache"
        ),
        "partitions.returned": get("partitions.enumerate_partitions", 3),
        "partitions.stats_self_s": self_of(
            "partitions.Partition.z_value", "partitions.Partition.multiplicities"
        ),
        "genbinom.calls": calls,
        "genbinom.nonzero_ratio": get("genbinom.gen_binom", 3) / calls if calls else 0.0,
        "genbinom.self_s": layer_self["genbinom"],
        "polynomials.rising_calls": get("polynomials.rising_factorial_eval", 0),
        "polynomials.rising_self_s": self_of("polynomials.rising_factorial_eval"),
        "polynomials.poly_add_calls": get("polynomials.Polynomial.__add__", 0),
        "polynomials.poly_add_self_s": self_of("polynomials.Polynomial.__add__"),
        "polynomials.poly_mul_calls": get("polynomials.Polynomial.__mul__", 0),
        "polynomials.poly_mul_self_s": self_of("polynomials.Polynomial.__mul__"),
        "polynomials.binom_self_s": self_of(
            "polynomials.binom_poly",
            "polynomials.binom_rat",
            "polynomials.falling_factorial_poly",
            "polynomials.falling_factorial_eval",
        ),
        "polynomials.max_coeff_bits": traced["max_coeff_bits"],
        "identities.self_s": layer_self["identities"],
        "verifier.compare_self_s": self_of("verifier.compare_case"),
        "verifier.serialize_s": get("verifier.serialize_side", 1),
        "verifier.expand_s": get("verifier.expand_cases", 1),
        "verifier.pool_speedup": plain1["wall_s"] / plain2["wall_s"],
        "verifier.pool_overhead_s": plain2["total_s"] - plain2["case_s_sum"] / 2,
        "cli.to_json_s": get("cli.Report.to_json", 1),
        "cli.report_bytes": traced["report_bytes"],
        "trace.overhead_ratio": traced["wall_s"] / plain1["wall_s"],
        "trace.unattributed_s": traced["outside_s"],
        "trace.wall_s": traced["wall_s"],
    }
    for iid in ALL_IDS:
        m[f"identities.{iid}.case_s"] = get(f"identities.case_sides[{iid}]", 1)
    for layer, value in layer_self.items():
        m[f"layer.{layer}.self_s"] = value
    return m


def traced_run(workloads, rng, budget: Budget, tmp: Path, tally: Tally):
    cases = {w.name: expected_cases(w) for w in workloads}
    rounds_done: Dict[str, List[Dict[str, float]]] = {w.name: [] for w in workloads}
    rounds = 0
    while budget.another_round(rounds, 1):
        jobs = [(w, mode, k) for w in workloads for mode, k in PASSES]
        got: Dict[Tuple[str, str, int], dict] = {}
        for w, mode, k in rng.sample(jobs, len(jobs)):
            data, failed = one_pass(w, mode, k, cases[w.name], tmp, budget)
            tally.add(w.name, len(cases[w.name]), failed)
            if data is not None:
                got[(w.name, mode, k)] = data
        for w in workloads:
            keys = [(w.name, mode, k) for mode, k in PASSES]
            if not all(key in got for key in keys):
                continue
            plain1, plain2, traced = (got[key] for key in keys)
            if plain1["content_digest"] != plain2["content_digest"]:
                # reports differ between worker counts: nondeterminism
                tally.add(w.name, 0, len(cases[w.name]))
                continue
            rounds_done[w.name].append(layer_metrics(plain1, plain2, traced))
        rounds += 1
    results = {}
    for w in workloads:
        per_round = rounds_done[w.name]
        if not per_round:
            results[w.name] = ({}, [f"{w.name}: no traced round passed the check"])
            continue
        # one whole round, so that its self times still add up to its wall
        per_round.sort(key=lambda r: r["trace.wall_s"])
        merged = per_round[(len(per_round) - 1) // 2]
        lines = [f"traced rounds: {len(per_round)}; the one with the median traced wall"]
        for name, unit in {**PER_LAYER, **LAYER_EXTRA}.items():
            lines.append(f"{name:34s} {merged[name]:.6g} {unit}")
        parts = " + ".join(
            f"{layer} {merged[f'layer.{layer}.self_s']:.4f}" for layer in LAYERS
        )
        total = sum(merged[f"layer.{layer}.self_s"] for layer in LAYERS)
        lines.append(
            f"self times: {parts} + unattributed {merged['trace.unattributed_s']:.6f}"
            f" = {total + merged['trace.unattributed_s']:.4f} s"
            f" (traced wall {merged['trace.wall_s']:.4f} s)"
        )
        results[w.name] = ({k: merged[k] for k in PER_LAYER}, lines)
    return results


# --------------------------------------------------------------------- main


def machine_facts() -> Dict[str, object]:
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "cpu": cpu,
    }


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not PROGRAM.is_file():
        print(f"error: program not found at {PROGRAM}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workloads = list(WORKLOADS.values()) if args.workload == "all" else [WORKLOADS[args.workload]]
    rng = random.Random(args.seed)
    budget = Budget(args.seconds * len(workloads))
    tally = Tally()
    (ROOT / ".bench_build").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=ROOT / ".bench_build") as tmp:
        run = traced_run if args.trace else end_to_end
        results = run(workloads, rng, budget, Path(tmp), tally)

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine_facts(),
    }
    print("run " + json.dumps(record))
    units = PER_LAYER if args.trace else END_TO_END
    metrics = {}
    for w in workloads:
        values, lines = results[w.name]
        print(f"== {w.name}: partid sweep {' '.join(w.sweep_args())}")
        for line in lines + [tally.line(w.name)]:
            print("  " + line)
        prefix = f"{w.name}." if len(workloads) > 1 else ""
        for name, unit in units.items():
            if name in values:
                metrics[prefix + name] = {"value": values[name], "unit": unit}
    attempted = sum(c[0] for c in tally.counts.values())
    failed = sum(c[1] for c in tally.counts.values())
    correct = failed == 0 and attempted > 0 and all(r[0] for r in results.values())
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
