"""`sybilcost crossover`: one regime crossover threshold, or the default table."""

import argparse

from .. import cli, costs


def run(args: argparse.Namespace) -> int:
    if args.table:
        for flag, value in (("--T", args.T), ("--rmin", args.rmin)):
            if value is not None:
                raise ValueError(f"{flag} does not apply to crossover --table")
        table = costs.crossover_table()
        rows = [{"T": T, "r_min": r_min, "s_star": value} for T, r_min, value in table]
        cli._emit(args, rows, rows=rows)
        return cli.EXIT_OK
    if args.T is None or args.rmin is None:
        raise ValueError("crossover needs --table, or both --T and --rmin")
    # One threshold prints as a bare number, so it has no format and no file.
    for flag, value in (("--format", args.format), ("--out", args.out)):
        if value is not None:
            raise ValueError(f"{flag} applies only to crossover --table")
    value = costs.crossover(args.T, args.rmin)
    print("undefined" if value is None else value)
    return cli.EXIT_OK
