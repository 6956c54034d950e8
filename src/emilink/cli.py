"""Command-line entry point: ``emilink <fig> [options]``."""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import bench


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="emilink",
        description="Minimum-power sweeps for IRS- and DF-relay-assisted links under EMI.")
    parser.add_argument("figure", choices=sorted(bench.RUNNERS),
                        help="which experiment sweep to run")
    parser.add_argument("--config", type=Path, default=None,
                        help="JSON scenario file (defaults reproduce the reference setup)")
    parser.add_argument("--out", type=Path, default=Path("out"),
                        help="output directory (default: ./out)")
    parser.add_argument("--format", choices=("csv", "svg"), default="csv",
                        help="output format (default: csv)")
    parser.add_argument("--dump-corr", action="store_true",
                        help="also dump the EMI correlation matrices used (CSV)")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        scenario = bench.load_scenario(args.config) if args.config else bench.Scenario()
        result = bench.RUNNERS[args.figure](scenario)
        args.out.mkdir(parents=True, exist_ok=True)
        target = args.out / f"{args.figure}.{args.format}"
        bench.emit(result, args.format, target)
        print(target)
        if args.dump_corr:
            for name, matrix in sorted(bench.correlations(args.figure, scenario).items()):
                dump_path = args.out / f"{name}_corr.csv"
                bench.dump_matrix_csv(matrix, dump_path)
                print(dump_path)
    except Exception as exc:  # noqa: BLE001 - single reporting point for exit code 1
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if not any(row.feasible for row in result.rows):
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
