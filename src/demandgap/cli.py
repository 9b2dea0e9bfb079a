"""Command-line workflow: analyze, equilibrium, demo.

Exit codes: 0 success, 2 schema error (any unreadable, undecodable or
malformed input file), 3 computation/config error (an unwritable ``--out``
included), 4 equilibrium not certified.  Each warning prints as one
``warning: <message>`` line on stderr.
"""

from __future__ import annotations

import argparse
import errno
import json
import os
import sys
from pathlib import Path

from .demo import run_demo
from .errors import DemandGapError, SchemaError
from ._policy import _warning_lines
from .exchange import DEFAULT_TOL
from .leontief import AggregationMap, aggregate_accounts, check_value_equilibrium, solve_national_equilibrium
from .niot import parse_blocks, parse_niot, parse_pi
from .recession import analyze_accounts
from .registries import registry_for
from . import reporting

EXIT_OK = 0
EXIT_SCHEMA = 2
EXIT_COMPUTE = 3
EXIT_UNCERTIFIED = 4


def _add_table_options(parser: argparse.ArgumentParser, formats: list[str]) -> None:
    parser.add_argument("table", help="normalized table CSV")
    parser.add_argument("--out", default=".", help="directory for report files")
    parser.add_argument("--pi", default="1.0", help="taxation shares: scalar or CSV file")
    parser.add_argument("--tol", type=float, default=DEFAULT_TOL, help="equality tolerance")
    parser.add_argument("--aggregate", default=None, help="aggregation map file")
    parser.add_argument("--format", default="text", choices=formats)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="demandgap",
        description="Input-output recession diagnostics and equilibrium checks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_an = sub.add_parser("analyze", help="demand/supply deficits, recession ratio, rankings")
    _add_table_options(p_an, ["json", "csv", "text"])
    p_an.add_argument("--top", type=int, default=4, help="rows per ranking table")

    p_eq = sub.add_parser("equilibrium", help="national equilibrium solve and value test")
    _add_table_options(p_eq, ["json", "text"])

    p_demo = sub.add_parser("demo", help="built-in construction walkthroughs")
    p_demo.add_argument("fixture", help="E1, E2 or random:seed=42,n=4,l=3,I=2")
    p_demo.add_argument("--format", default="text", choices=["json", "text"])
    p_demo.add_argument(
        "--seed", type=int, default=None, help="seed for randomized demos (overrides the fixture's)"
    )
    return parser


def _load(args) -> tuple:
    pi = parse_pi(args.pi)
    blocks = parse_blocks(args.aggregate) if args.aggregate else None
    if not args.tol > 0:
        raise ValueError("tol must be positive")
    table = parse_niot(args.table)
    names = table.names
    if not any(names):
        builtin = registry_for(table.m)
        if builtin:
            names = builtin
    acc = table.to_accounts(pi=pi if blocks is None else 1.0)
    indices = table.indices
    if blocks is not None:
        mapping = AggregationMap(blocks)
        acc = aggregate_accounts(acc, mapping, pi=pi)
        names = tuple(
            " + ".join(names[k] for k in block) for block in mapping.blocks
        )
        indices = tuple(range(1, mapping.m + 1))
    return table, acc, names, indices


def _emit(args, table, reports: dict[str, str], summary, *data) -> None:
    """Write every report to ``--out`` as ``<country>_<year>_<suffix>``, or
    none, then print the first report whose suffix has the ``--format``
    extension, or ``summary(country, year, *data)`` for ``--format text``.

    Each report is written to a hidden temporary beside its target, and the
    temporaries replace their targets only once all of them are written, so
    a write that fails leaves no file of the run and every existing report
    as it was.  A target that is a directory fails before anything is
    written."""
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    paths = [out / f"{table.country}_{table.year}_{suffix}" for suffix in reports]
    for path in paths:
        if path.is_dir():
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(path))
    written: list[Path] = []
    try:
        for path, text in zip(paths, reports.values()):
            tmp = path.with_name(f".{path.name}.tmp")
            with open(tmp, "w") as fh:
                written.append(tmp)
                fh.write(text)
        for tmp, path in zip(written, paths):
            tmp.replace(path)
    except BaseException:
        for tmp in written:
            tmp.unlink(missing_ok=True)
        raise
    shown = [text for suffix, text in reports.items() if suffix.endswith(f".{args.format}")]
    sys.stdout.write(shown[0] if shown else summary(table.country, table.year, *data))


def _cmd_analyze(args) -> int:
    table, acc, names, indices = _load(args)
    report = analyze_accounts(acc, names=names, indices=indices, tol=args.tol, top=args.top)
    payload = reporting.analysis_dict(
        table.country,
        table.year,
        acc.pi,
        report,
        diagnostics={"currency": table.currency, "tol": args.tol},
    )
    reports = {
        "report.json": reporting.to_json(payload),
        "deficit.csv": reporting.deficit_csv(report),
        "histogram.csv": reporting.histogram_csv(report),
    }
    _emit(args, table, reports, reporting.analysis_text, report)
    return EXIT_OK


def _cmd_equilibrium(args) -> int:
    table, acc, names, indices = _load(args)
    solution = solve_national_equilibrium(acc, tol=args.tol, strict=False)
    balance = check_value_equilibrium(acc, tol=args.tol)
    payload = reporting.equilibrium_dict(table.country, table.year, acc.pi, solution, balance)
    reports = {"equilibrium.json": reporting.to_json(payload)}
    _emit(args, table, reports, reporting.equilibrium_text, solution, balance)
    return EXIT_OK if solution.certified else EXIT_UNCERTIFIED


def _cmd_demo(args) -> int:
    transcript = run_demo(args.fixture, seed=args.seed)
    if args.format == "json":
        sys.stdout.write(json.dumps(transcript, indent=2) + "\n")
    else:
        for key, value in transcript.items():
            sys.stdout.write(f"{key}: {value}\n")
    return EXIT_OK


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    with _warning_lines():
        try:
            if args.command == "analyze":
                return _cmd_analyze(args)
            if args.command == "equilibrium":
                return _cmd_equilibrium(args)
            return _cmd_demo(args)
        except SchemaError as e:
            print(f"schema error: {e}", file=sys.stderr)
            return EXIT_SCHEMA
        except (DemandGapError, ValueError, OSError) as e:
            print(f"error: {e}", file=sys.stderr)
            return EXIT_COMPUTE


if __name__ == "__main__":
    sys.exit(main())
