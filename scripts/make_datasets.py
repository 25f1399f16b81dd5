#!/usr/bin/env python3
"""Regenerate every dataset the experiments ship: sweeps, the share table,
both calibration panel pairs, and the crossover table.

Each file is produced by the CLI, so re-running this script is byte-stable.
"""

import argparse
import functools
import sys
from pathlib import Path

from sybilcost import cli


@functools.cache
def _parser():
    # Built once: each build makes new attribute-name strings, and CPython's type
    # attribute cache keeps one per slot, so a parser per call would keep memory.
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="datasets", help="target directory (default: ./datasets)")
    return parser


def main(argv=None):
    args = _parser().parse_args(argv)
    # Each write makes its own directory, under $SYBILCOST_OUT when that is set.
    out = Path(args.out)

    commands = [
        ["sweep", "--preset", "fig1", "--out", str(out / "fig1.csv")],
        ["sweep", "--preset", "fig2", "--out", str(out / "fig2.csv")],
        ["fig3", "--out", str(out / "fig3.csv")],
        ["calibrate", "eth", "--out", str(out)],
        ["calibrate", "btc", "--out", str(out)],
        ["crossover", "--table", "--out", str(out / "crossover.csv")],
        ["taxonomy", "--out", str(out / "taxonomy.csv")],
    ]
    for command in commands:
        code = cli.dispatch(command)
        if code != 0:
            print(f"failed ({code}): {' '.join(command)}", file=sys.stderr)
            return code
    return 0


if __name__ == "__main__":
    sys.exit(main())
