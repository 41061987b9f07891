"""Command-line frontend: field-info, check, scan, search, verify-paper.

All commands print JSON to stdout and diagnostics to stderr.  Exit codes:
0 success / all assertions pass, 1 counterexample or assertion failure,
2 usage error (including an MDS test too large to run), 141 stdout closed
by its reader.  Randomized commands take an explicit --seed and fall back
to a fixed documented default (never entropy), so every run is
reproducible; report timing fields are the only non-deterministic output.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import props
from .field import FieldError, GF2m, get_field
from .matgf import DimensionMismatch
from .props import Properties, classification_json, classify, matrix_properties_json
from .verify import (
    DEFAULT_BUDGET,
    DEFAULT_SAMPLES,
    DEFAULT_SEED,
    EXHAUSTIVE,
    RANDOM,
    ScanConfig,
    SplitMix64,
    index_to_row,
    run_suite,
    verification_plan,
    verify_example,
)


class UsageError(Exception):
    pass


def parse_field(text: str) -> GF2m:
    """Parse the `--field m:POLYHEX` flag, e.g. `8:0x11D`."""
    parts = text.split(":")
    if len(parts) != 2:
        raise UsageError(f"--field expects m:POLYHEX, got {text!r}")
    try:
        m = int(parts[0])
        poly = int(parts[1], 16)
    except ValueError as exc:
        raise UsageError(f"bad field spec {text!r}: {exc}") from None
    try:
        return get_field(m, poly)
    except FieldError as exc:
        raise UsageError(f"bad field spec {text!r}: {exc}") from None


def parse_row(gf: GF2m, text: str) -> tuple[int, ...]:
    try:
        return tuple(gf.parse_element(part) for part in text.split(","))
    except FieldError as exc:
        raise UsageError(f"bad element list {text!r}: {exc}") from None


def emit(obj) -> None:
    json.dump(obj, sys.stdout, indent=2)
    sys.stdout.write("\n")


# -- commands -----------------------------------------------------------------


def cmd_field_info(args) -> int:
    gf = parse_field(args.field)
    emit({
        "schema_version": props.SCHEMA_VERSION,
        "m": gf.m,
        "poly": f"0x{gf.poly:X}",
        "order": gf.order,
        "multiplicative_group_order": gf.order - 1,
        "irreducible": True,  # construction already verified this
        "x_primitive": gf.x_is_primitive(),
        "x_order": gf.element_order(2) if gf.m > 1 else None,
        "generator": gf.format_element(gf.generator),
    })
    return 0


def cmd_check(args) -> int:
    gf = parse_field(args.field)
    if args.circulant:
        row = parse_row(gf, args.circulant)
        emit(classification_json(gf, classify(gf, row)))
        return 0
    entries = parse_row(gf, args.matrix)
    r, c = args.rows, args.cols
    if r is None or c is None or r < 1 or c < 1 or r * c != len(entries):
        raise UsageError("--matrix needs positive --rows and --cols matching the entry count")
    A = [list(entries[i * c:(i + 1) * c]) for i in range(r)]
    try:
        emit(matrix_properties_json(gf, A))
    except DimensionMismatch as exc:
        raise UsageError(str(exc)) from None
    return 0


def _split_csv(values) -> tuple[str, ...]:
    out = []
    for chunk in values:
        out.extend(s for s in (p.strip() for p in chunk.split(",")) if s)
    return tuple(out)


def _validated(config: ScanConfig) -> ScanConfig:
    """`config` once `ScanConfig.validate` accepts it; a rejection is a usage error."""
    try:
        config.validate()
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    return config


def cmd_scan(args) -> int:
    gf = parse_field(args.field)
    suites = _split_csv(args.suite)
    if not suites:
        raise UsageError("at least one --suite required")
    extra = tuple(parse_row(gf, t) for t in args.include_row or ())
    config = ScanConfig(
        field=gf,
        order=args.order,
        suites=suites,
        mode=args.mode,
        seed=args.seed,
        sample_count=args.samples,
        extra_rows=extra,
        worker_count=args.jobs,
        budget=args.budget,
    )
    report = run_suite(_validated(config))
    emit(report.to_dict())
    return 0 if report.ok() else 1


# --require name -> test of a row's Properties, cheapest first, as a row stops
# at its first false test.  "nonzero-trace" looks at the pairs of the semi
# relations that --require names, or of both when it names neither.
_SEARCH_PREDICATES = {
    "semi-orthogonal": lambda p, relations: p.semi("orthogonal").found,
    "semi-involutory": lambda p, relations: p.semi("involutory").found,
    "involutory": lambda p, relations: p.involutory(),
    "orthogonal": lambda p, relations: p.orthogonal(),
    "mds": lambda p, relations: p.mds().is_mds,
    "nonzero-trace": lambda p, relations: any(
        p.semi(r).trace_d1 or p.semi(r).trace_d2 for r in relations),
}


def cmd_search(args) -> int:
    gf = parse_field(args.field)
    wanted = _split_csv(args.require)
    if not wanted:
        raise UsageError("at least one --require predicate required")
    for name in wanted:
        if name not in _SEARCH_PREDICATES:
            raise UsageError(
                f"unknown predicate {name!r}; choose from {', '.join(_SEARCH_PREDICATES)}"
            )
    if args.order < 1:
        raise UsageError(f"order must be at least 1, got {args.order}")
    if args.limit < 0:
        raise UsageError(f"limit must not be negative, got {args.limit}")
    if args.samples < 0:
        raise UsageError(f"sample count must not be negative, got {args.samples}")
    tests = [test for name, test in _SEARCH_PREDICATES.items() if name in wanted]
    relations = tuple(r for r in ("orthogonal", "involutory") if "semi-" + r in wanted)
    relations = relations or ("orthogonal", "involutory")
    n = args.order
    q = gf.order
    space = q ** n
    if args.mode == EXHAUSTIVE:
        if space > args.budget:
            raise UsageError(
                f"exhaustive space {space} exceeds budget {args.budget}; "
                "use --mode random or raise --budget"
            )
        candidates = (index_to_row(i, q, n) for i in range(space))
    else:
        rng = SplitMix64(args.seed)
        candidates = (
            index_to_row(rng.next_below(space), q, n) for _ in range(args.samples)
        )
    found = 0
    for row in candidates:
        if found >= args.limit:
            break
        p = Properties(gf, row)
        if all(test(p, relations) for test in tests):
            emit(classification_json(gf, p.classification()))
            found += 1
    print(f"found {found} matching first rows", file=sys.stderr)
    return 0


def cmd_verify_paper(args) -> int:
    configs = [_validated(c) for c in verification_plan(args.scale, worker_count=args.jobs)]
    records = []
    all_ok = True
    for example_id in (1, 2):
        rec = verify_example(example_id)
        records.append(rec.to_dict())
        status = "PASS" if rec.ok else "FAIL"
        print(f"[{status}] example {example_id}", file=sys.stderr)
        if not rec.ok:
            for name, ok, detail in rec.assertions:
                if not ok:
                    print(f"    {name}: {detail}", file=sys.stderr)
            all_ok = False

    scans = []
    for config in configs:
        report = run_suite(config)
        ok = report.ok()
        if "SO-ODD-EXIST" in config.suites:
            # the survey must actually surface a nonzero-trace instance
            extras = report.suites["SO-ODD-EXIST"].extras
            ok = ok and extras.get("nonzero_trace", 0) >= 1
        gf = config.field
        label = (
            f"GF(2^{gf.m})/0x{gf.poly:X} n={config.order} "
            f"{'+'.join(config.suites)} [{config.mode}]"
        )
        print(f"[{'PASS' if ok else 'FAIL'}] {label}", file=sys.stderr)
        scans.append({"label": label, "ok": ok, "report": report.to_dict()})
        all_ok = all_ok and ok

    emit({
        "schema_version": props.SCHEMA_VERSION,
        "scale": args.scale,
        "examples": records,
        "scans": scans,
        "ok": all_ok,
    })
    return 0 if all_ok else 1


# -- argument parsing ------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="circmds",
        description="Circulant matrix property analysis over GF(2^m)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("field-info", help="describe a field given m:POLYHEX")
    p.add_argument("--field", required=True)
    p.set_defaults(fn=cmd_field_info)

    p = sub.add_parser("check", help="classify a circulant row or explicit matrix")
    p.add_argument("--field", required=True)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--circulant", help="comma-separated hex first row")
    group.add_argument("--matrix", help="comma-separated hex entries, row-major")
    p.add_argument("--rows", type=int)
    p.add_argument("--cols", type=int)
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("scan", help="run theorem suites over a candidate space")
    p.add_argument("--field", required=True)
    p.add_argument("--order", type=int, required=True)
    p.add_argument("--suite", action="append", required=True,
                   help="suite name; repeatable or comma-separated")
    p.add_argument("--mode", choices=(EXHAUSTIVE, RANDOM), default=EXHAUSTIVE)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--samples", type=int, default=DEFAULT_SAMPLES)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    p.add_argument("--include-row", action="append",
                   help="force a first row into the candidate stream; repeatable")
    p.set_defaults(fn=cmd_scan)

    p = sub.add_parser("search", help="stream first rows matching predicates")
    p.add_argument("--field", required=True)
    p.add_argument("--order", type=int, required=True)
    p.add_argument("--require", action="append", required=True,
                   help=f"predicates from: {', '.join(_SEARCH_PREDICATES)}")
    p.add_argument("--limit", type=int, default=1)
    p.add_argument("--mode", choices=(EXHAUSTIVE, RANDOM), default=EXHAUSTIVE)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--samples", type=int, default=DEFAULT_SAMPLES)
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    p.set_defaults(fn=cmd_search)

    p = sub.add_parser("verify-paper",
                       help="run the bundled golden instances and theorem scans")
    p.add_argument("--scale", choices=("small", "full"), default="full")
    p.add_argument("--jobs", type=int, default=1)
    p.set_defaults(fn=cmd_verify_paper)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        status = args.fn(args)
        sys.stdout.flush()
        return status
    except (UsageError, props.MinorLayerTooLarge) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # the reader closed stdout early (`| head`): exit 128 + SIGPIPE, and point
        # stdout at /dev/null so the interpreter's last flush cannot fail too
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141


if __name__ == "__main__":
    sys.exit(main())
