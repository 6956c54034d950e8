"""Command-line entry point: ``emilink FIGURE... [options]``.

Each figure named (``all`` names fig3..fig8) runs once, in the order given,
on one scenario loaded once per process, and writes the files a run of that
figure alone writes.  The options are read by a loop over the words, not by
argparse: argparse, gettext and the ``locale`` module that its translated
help titles import take about as long to load as fig3 takes to compute.
Exit status: 1 on any error, a usage error included, else 2 when a figure
has no feasible row, else 0.
"""

from __future__ import annotations

import sys
from pathlib import Path

from . import bench

USAGE = "usage: emilink FIGURE... [--config FILE] [--out DIR] [--format csv|svg] [--dump-corr]"
HELP = f"""{USAGE}

Minimum-power sweeps for IRS- and DF-relay-assisted links under EMI.

FIGURE is fig3, fig4, fig5, fig6, fig7, fig8 or all (the six); each runs
once, in the order given, and writes DIR/FIGURE.csv (or .svg).

options:
  --config FILE    JSON scenario file (defaults reproduce the reference setup)
  --out DIR        output directory (default: ./out)
  --format FORMAT  csv or svg (default: csv)
  --dump-corr      also dump the EMI correlation matrices used (CSV)
  -h, --help       show this help and exit

An option's value is the next word or follows '=' (--out=DIR).
Exit status: 0; 1 on any error; 2 when a figure has no feasible row."""


def _parse(words):
    """``(figures, options)`` from the command line's words, or None for
    ``--help``.  A usage error is a ValueError."""
    figures, options, words = {}, {"--out": "out", "--format": "csv"}, iter(words)
    for word in words:
        name, eq, value = word.partition("=")
        if word in ("-h", "--help"):
            return None
        if word == "--dump-corr":
            options[word] = True
        elif name in ("--config", "--out", "--format"):
            if not eq:
                value = next(words, None)
                if value is None or value.startswith("-"):
                    raise ValueError(f"{name} expects a value")
            options[name] = value
        elif word.startswith("-"):
            raise ValueError(f"unknown option {word}")
        elif word == "all" or word in bench.RUNNERS:
            figures.update(dict.fromkeys(bench.RUNNERS if word == "all" else (word,)))
        else:
            raise ValueError(f"unknown figure {word} (fig3..fig8 or all)")
    if not figures:
        raise ValueError("no figure given")
    if options["--format"] not in ("csv", "svg"):
        raise ValueError(f"--format must be csv or svg, not {options['--format']}")
    return list(figures), options


def main(argv=None) -> int:
    try:
        parsed = _parse(sys.argv[1:] if argv is None else argv)
    except ValueError as exc:
        print(USAGE, f"error: {exc}", sep="\n", file=sys.stderr)
        return 1
    if parsed is None:
        print(HELP)
        return 0
    figures, options = parsed
    out, fmt, code = Path(options["--out"]), options["--format"], 0
    try:
        config = options.get("--config")
        scenario = bench.Scenario() if config is None else bench.load_scenario(config)
        for figure in figures:
            result = bench.RUNNERS[figure](scenario)
            out.mkdir(parents=True, exist_ok=True)
            target = out / f"{figure}.{fmt}"
            bench.emit(result, fmt, target)
            print(target)
            if "--dump-corr" in options:
                for name, matrix in sorted(bench.correlations(figure, scenario).items()):
                    dump_path = out / f"{name}_corr.csv"
                    bench.dump_matrix_csv(matrix, dump_path)
                    print(dump_path)
            if not any(row.feasible for row in result.rows):
                code = 2
    except Exception as exc:  # noqa: BLE001 - single reporting point for exit code 1
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
