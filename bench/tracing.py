"""One in-process sweep through ``partid``'s ``main``, optionally traced.

    python3 bench/tracing.py --mode plain|traced --out FILE -- <sweep args>

Run as a child of ``run.py`` with ``src`` on ``PYTHONPATH``, so each pass
starts with cold program caches, as a ``partid sweep`` process does. It
prints one JSON object: the wall time of ``main``, its exit code, the
report's ``content_dict()`` digest and, when traced, per-span statistics.

Tracing wraps the public functions of each program module, and the methods
named in ``METHODS``, wherever a program module holds a reference to them,
so calls are seen at the names their callers use. Spans are folded into
per-name totals as they close (calls, inclusive time, self time, and an
optional count of the returned value) instead of being stored, because a
deep sweep opens about a million of them. Self time is a span's duration
minus the durations of the spans it directly encloses, so the self times
of all spans plus the time outside every span equal the traced wall time.
"""
from __future__ import annotations

import argparse
import functools
import hashlib
import importlib
import inspect
import json
import sys
import time

PACKAGE = "partition_identities"
MODULES = ("partitions", "genbinom", "polynomials", "identities", "verifier", "cli")

#: (layer, module, class, method): methods traced besides public functions
METHODS = (
    ("partitions", "partitions", "Partition", "z_value"),
    ("partitions", "partitions", "Partition", "multiplicities"),
    ("polynomials", "polynomials", "Polynomial", "__add__"),
    ("polynomials", "polynomials", "Polynomial", "__mul__"),
    ("cli", "verifier", "Report", "to_json"),
)

#: span name -> what to count from its return value
RESULT_COUNTS = {
    "partitions.enumerate_partitions": len,
    "genbinom.gen_binom": lambda value: value != 0,
}

#: span name -> key function giving a per-argument suffix
KEYED = {
    "identities.case_sides": lambda case, *_: case.identity_id.value,
}


class Tracer:
    """Folds nested spans into ``stats[name] = [calls, inclusive, self, count]``."""

    def __init__(self) -> None:
        self.stats: dict = {}
        # child time accumulated under each open span; [0] is the root
        self._open = [0.0]

    def outside(self, wall: float) -> float:
        """Traced wall time that no span covers."""
        return wall - self._open[0]

    def wrap(self, name: str, fn):
        open_spans = self._open
        clock = time.perf_counter
        count = RESULT_COUNTS.get(name)
        key_of = KEYED.get(name)
        stats = self.stats
        entry = None if key_of else stats.setdefault(name, [0, 0.0, 0.0, 0])

        @functools.wraps(fn)
        def span(*args, **kwargs):
            open_spans.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                inner = open_spans.pop()
                open_spans[-1] += elapsed
                rec = entry
                if key_of is not None:
                    sub = f"{name}[{key_of(*args, **kwargs)}]"
                    rec = stats.get(sub) or stats.setdefault(sub, [0, 0.0, 0.0, 0])
                rec[0] += 1
                rec[1] += elapsed
                rec[2] += elapsed - inner
            if count is not None:
                rec[3] += count(result)
            return result

        return span


def _public_functions(module):
    for attr, value in vars(module).items():
        if (
            not attr.startswith("_")
            and inspect.isfunction(value)
            and value.__module__ == module.__name__
        ):
            yield attr, value


def install(tracer: Tracer, modules: dict) -> None:
    """Replace every traced callable at every name the program binds it to."""
    targets = []
    for short, module in modules.items():
        for attr, fn in _public_functions(module):
            targets.append((f"{short}.{attr}", fn))
    for layer, short, cls_name, method in METHODS:
        cls = getattr(modules[short], cls_name, None)
        fn = getattr(cls, method, None) if cls is not None else None
        if fn is None:
            print(f"tracing: {short}.{cls_name}.{method} not found", file=sys.stderr)
            continue
        targets.append((f"{layer}.{cls_name}.{method}", fn))
    for name, fn in targets:
        wrapped = tracer.wrap(name, fn)
        for module in modules.values():
            for holder in [module] + [
                v for v in vars(module).values() if inspect.isclass(v)
            ]:
                for attr, value in list(vars(holder).items()):
                    if value is fn:
                        setattr(holder, attr, wrapped)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--mode", choices=("plain", "traced"), required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("sweep_args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    sweep_args = [a for a in args.sweep_args if a != "--"]

    modules = {m: importlib.import_module(f"{PACKAGE}.{m}") for m in MODULES}
    cli = modules["cli"]
    tracer = Tracer()
    if args.mode == "traced":
        install(tracer, modules)
    reports = []
    run_sweep = cli.run_sweep

    def capture(config):
        report = run_sweep(config)
        reports.append(report)
        return report

    cli.run_sweep = capture
    start = time.perf_counter()
    code = cli.main(["sweep", *sweep_args, "--out", args.out])
    wall = time.perf_counter() - start

    out = {"wall_s": wall, "exit_code": code}
    if reports:
        report = reports[0]
        content = json.dumps(report.content_dict(), sort_keys=True, ensure_ascii=False)
        out["content_digest"] = hashlib.sha256(content.encode("utf-8")).hexdigest()
        out["total_s"] = report.total_ms / 1000.0
        out["case_s_sum"] = sum(r.elapsed_ms for r in report.results) / 1000.0
    if args.mode == "traced":
        out["spans"] = tracer.stats
        out["outside_s"] = tracer.outside(wall)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
