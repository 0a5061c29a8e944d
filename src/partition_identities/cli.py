"""Command-line front end: individual quantities, identity checks, sweeps."""
from __future__ import annotations

import argparse
import json
import sys
import time
from typing import Optional, Sequence, Tuple

from .genbinom import gen_binom
from .identities import Form, IdentityCase, IdentityId, case_sides
from .partitions import Partition, for_each_partition
from .polynomials import Polynomial, format_rational, int_str
from .verifier import (
    EXIT_CONFIG_ERROR,
    EXIT_COUNTEREXAMPLE,
    EXIT_OK,
    STATUS_COUNTEREXAMPLE,
    CaseResult,
    ConfigError,
    Report,
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


def _render_side(side) -> str:
    if isinstance(side, Polynomial):
        return side.render()
    return format_rational(side)


def _cmd_partitions(args) -> int:
    # each partition is written as the walk reaches it, so memory does not
    # grow with p(n); the JSON bytes are those of json.dumps(list)
    as_json = args.format == "json"
    total = 0

    def write(p: Partition) -> None:
        nonlocal total
        if as_json:
            sys.stdout.write(("[" if total == 0 else ", ") + json.dumps(str(p), ensure_ascii=False))
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
    pairs = case_sides(case)
    result = CaseResult.judge(case, pairs, start)
    if args.format == "json":
        print(json.dumps(result.to_dict(), ensure_ascii=False, indent=2))
    else:
        for lhs, rhs in pairs:
            print(f"LHS = {_render_side(lhs)}")
            print(f"RHS = {_render_side(rhs)}")
        print(result.status)
    return EXIT_COUNTEREXAMPLE if result.status == STATUS_COUNTEREXAMPLE else EXIT_OK


def _cmd_sweep(args) -> int:
    try:
        ids = tuple(IdentityId(tok.strip()) for tok in args.ids.split(","))
    except ValueError as exc:
        raise ConfigError(str(exc))
    form = None if args.form == "BOTH" else Form(args.form)
    config = SweepConfig(
        identity_ids=ids,
        n_range=_parse_range(args.n),
        r_range=_parse_range(args.r),
        s_range=_parse_range(args.s),
        form=form,
        worker_count=args.workers,
    )
    report = run_sweep(config)
    _emit_report(report, args)
    return report.exit_code


def _emit_report(report: Report, args) -> None:
    if args.format == "csv":
        text = report.to_csv()
    elif args.format == "human":
        lines = [
            f"{res.case}: {res.status}" for res in report.results
        ]
        summary = report.summary
        lines.append(
            "summary: {verified} verified, {counterexamples} counterexamples, "
            "{skipped} skipped".format(**summary)
        )
        text = "\n".join(lines) + "\n"
    else:
        text = report.to_json()
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        print(text, end="" if text.endswith("\n") else "\n")


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
    try:
        return args.func(args)
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR


if __name__ == "__main__":
    sys.exit(main())
