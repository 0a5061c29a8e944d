"""Command-line front end: individual quantities, identity checks, sweeps."""
from __future__ import annotations

import argparse
import gc
import json
import os
import signal
import sys
import time
from json.encoder import encode_basestring
from typing import Callable, Optional, Sequence, TextIO, Tuple

from .genbinom import gen_binom
from .identities import Form, IdentityCase, IdentityId, case_sides
from .partitions import Partition, for_each_partition
from .polynomials import int_str, render
from .verifier import (
    EXIT_CONFIG_ERROR,
    EXIT_COUNTEREXAMPLE,
    EXIT_FAILURE,
    EXIT_OK,
    STATUS_COUNTEREXAMPLE,
    CaseResult,
    SweepConfig,
    run_sweep,
)

FORMATS = ("human", "json", "csv")


def _parse_range(text: str) -> Tuple[int, int]:
    """"a..b" inclusive, or a single integer."""
    if ".." in text:
        lo_s, _, hi_s = text.partition("..")
        lo, hi = int(lo_s), int(hi_s)
    else:
        lo = hi = int(text)
    return lo, hi


def _cmd_partitions(args) -> int:
    # each partition is written as the walk reaches it, so memory does not
    # grow with p(n); the JSON bytes are those of json.dumps(list), whose
    # strings are quoted by encode_basestring when ensure_ascii is off
    as_json = args.format == "json"
    total = 0

    def write(p: Partition) -> None:
        nonlocal total
        if as_json:
            sys.stdout.write(("[" if total == 0 else ", ") + encode_basestring(str(p)))
        else:
            sys.stdout.write(f"{p}\n")
        total += 1

    lengths = () if args.len is None else (args.len, args.len)
    for_each_partition(args.n, write, *lengths)
    if as_json:
        print("]" if total else "[]")
    elif args.format == "human":
        print(f"total: {total}")
    return EXIT_OK


def _cmd_zvalue(args) -> int:
    print(int_str(Partition.parse(args.partition).z_value()))
    return EXIT_OK


def _cmd_genbinom(args) -> int:
    print(int_str(gen_binom(Partition.parse(args.partition), args.r)))
    return EXIT_OK


def _cmd_identity(args) -> int:
    case = IdentityCase.parse(args.case)
    start = time.perf_counter()
    sides = case_sides(case)
    result = CaseResult.judge(case, sides, start)
    if args.format == "json":
        print(json.dumps(result.to_dict(), ensure_ascii=False, indent=2))
    else:
        # the texts the judge wrote; a side of checks is a tuple of them,
        # written as a list of texts and shown a check at a time
        texts = [(result.lhs, result.rhs)]
        if type(sides[0]) is tuple:
            texts = zip(result.lhs, result.rhs)
        for lhs, rhs in texts:
            print(f"LHS = {render(lhs)}")
            print(f"RHS = {render(rhs)}")
        print(result.status)
    return EXIT_COUNTEREXAMPLE if result.status == STATUS_COUNTEREXAMPLE else EXIT_OK


def _cmd_sweep(args) -> int:
    ids = tuple(IdentityId(tok.strip()) for tok in args.ids.split(","))
    form = None if args.form == "BOTH" else Form(args.form)
    config = SweepConfig(
        identity_ids=ids,
        n_range=_parse_range(args.n),
        r_range=_parse_range(args.r),
        s_range=_parse_range(args.s),
        form=form,
        worker_count=args.workers,
    )
    # a bad config, then an unwritable --out, is refused before any case runs
    config.validate()
    if not args.out:
        return _sweep_into(config, args, None)
    if os.path.exists(args.out) and not os.path.isfile(args.out):
        # a directory, a device or a pipe holds no report to keep: open
        # refuses the first and writes straight through to the others
        with open(args.out, "w", encoding="utf-8") as sink:
            return _sweep_into(config, args, sink)
    # the report goes to a new file beside --out, or beside the file it
    # links to, which it replaces only once it is written whole: a sweep
    # that fails or is interrupted leaves an existing report as it was
    target = os.path.realpath(args.out)
    parent = os.getpid()
    partial = f"{target}.{parent}.partial"
    terminated = False

    def interrupt(signum, frame) -> None:
        # SIGTERM ends the sweep as Ctrl-C does, so the new file goes too;
        # then the sweep dies of the signal.  A forked worker inherits this
        # handler, and dies of it at once
        nonlocal terminated
        if os.getpid() == parent:
            terminated = True
            raise KeyboardInterrupt
        _die_of(signum)

    # SIGINT and SIGTERM wait from before the file exists until the try
    # that removes it: one that came in between would leave it behind
    release = _hold_interrupts()
    try:
        fd = os.open(partial, os.O_CREAT | os.O_EXCL | os.O_WRONLY, 0o666)
    except OSError as exc:  # named by --out, the path that was given
        release()
        raise OSError(exc.errno, exc.strerror, args.out) from None
    previous = signal.signal(signal.SIGTERM, interrupt)
    try:
        with open(fd, "w", encoding="utf-8") as sink:
            release()  # a signal held meanwhile is handled here
            code = _sweep_into(config, args, sink)
        os.replace(partial, target)
    except BaseException:
        os.unlink(partial)
        if terminated:
            _die_of(signal.SIGTERM)
        raise
    finally:
        signal.signal(signal.SIGTERM, previous)
    return code


def _hold_interrupts() -> Callable[[], object]:
    """Block SIGINT and SIGTERM, where ``signal.pthread_sigmask`` exists.

    Returns what restores the mask it found, and so delivers a signal that
    came meanwhile; where the platform has no mask, both do nothing.
    """
    if not hasattr(signal, "pthread_sigmask"):
        return lambda: None
    held = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGINT, signal.SIGTERM})
    return lambda: signal.pthread_sigmask(signal.SIG_SETMASK, held)


def _die_of(signum: int) -> None:
    """End this process by the signal ``signum``, as its default action does."""
    signal.signal(signum, signal.SIG_DFL)
    os.kill(os.getpid(), signum)


def _sweep_into(config: SweepConfig, args, sink: Optional[TextIO]) -> int:
    """Run the sweep and write its report to ``sink``, else to stdout."""
    report = run_sweep(config)
    writers = {"csv": report.to_csv, "human": report.to_human, "json": report.to_json}
    writers[args.format](sink or sys.stdout)
    if sink is None and args.format == "json":
        sys.stdout.write("\n")
    return report.exit_code


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="partid",
        description=(
            "Exact verification of partition identities and generalized "
            "binomial coefficients."
        ),
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("partitions", help="list partitions of n")
    p.add_argument("n", type=int)
    p.add_argument("--len", type=int, default=None, help="exact length filter")
    p.add_argument("--format", choices=FORMATS, default="human")
    p.set_defaults(func=_cmd_partitions)

    p = sub.add_parser("zvalue", help="centralizer order z of a partition")
    p.add_argument("partition", help='partition as "3+1+1"')
    p.set_defaults(func=_cmd_zvalue)

    p = sub.add_parser("genbinom", help="row-covering binomial coefficient")
    p.add_argument("partition", help='partition as "3+1+1"')
    p.add_argument("r", type=int)
    p.set_defaults(func=_cmd_genbinom)

    p = sub.add_parser("identity", help="evaluate both sides of one case")
    p.add_argument("case", help='e.g. "CONJ2(n=2,s=2,form=SIGNED)"')
    p.add_argument("--format", choices=("human", "json"), default="human")
    p.set_defaults(func=_cmd_identity)

    p = sub.add_parser("sweep", help="run a verification sweep over a grid")
    p.add_argument("--ids", required=True, help="comma-separated identity ids")
    p.add_argument("--n", required=True, help='range "a..b" or single integer')
    p.add_argument("--r", default="1", help='range "a..b" or single integer')
    p.add_argument("--s", default="1", help='range "a..b" or single integer')
    p.add_argument(
        "--form", choices=("SIGNED", "UNSIGNED", "BOTH"), default="BOTH"
    )
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--out", default=None, help="write the report to a file")
    p.add_argument("--format", choices=FORMATS, default="json")
    p.set_defaults(func=_cmd_sweep)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        # argparse hands a positional that got only "--" over as [], without
        # applying its type (`partid genbinom 3 -- --`); refuse it as missing
        for name, value in vars(args).items():
            if value == []:
                parser.error(f"argument {name}: expected one argument")
    except SystemExit as exc:
        return exc.code if exc.code is not None else EXIT_CONFIG_ERROR
    # the objects the imports made live until exit.  Frozen, they are walked
    # by no later collection: not the sweep's, not a forked worker's (which
    # then writes to none of their pages), and not the full one at exit.
    # The cost: cyclic garbage that exists now is never collected
    gc.freeze()
    try:
        code = args.func(args)
        sys.stdout.flush()  # so a closed pipe is met here, not at exit
        return code
    except BrokenPipeError:
        # the reader is gone (`partid partitions 40 | head -1`): stdout's
        # flush at exit goes to the null device, so no traceback follows
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_CONFIG_ERROR
    except (ValueError, OSError) as exc:  # ConfigError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    except Exception:
        # Python's own exit status for it would be 1, a counterexample
        import traceback

        traceback.print_exc()
        return EXIT_FAILURE


if __name__ == "__main__":
    sys.exit(main())
