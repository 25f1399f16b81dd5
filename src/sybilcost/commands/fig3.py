"""`sybilcost fig3`: the adversary's influence share against the channel count."""

import argparse
import sys
import warnings

from .. import cli, simulation


def run(args: argparse.Namespace) -> int:
    m_values = range(args.m_min, args.m_max + 1, args.m_step)
    # The library warns with a source location; the CLI says it in one line.
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        shares = simulation.non_amplification_experiment(m_values, args.s_values, args.n)
    share_names = [f"share_s{s}" for s in args.s_values]

    def table():
        for m, row in zip(m_values, shares):
            yield {"m": m, **dict(zip(share_names, row))}
        # Said once every row is written: a row that raises ends the run with one line.
        for warning in caught:
            print(f"warning: {warning.message}", file=sys.stderr)

    rows = table()
    cli._emit(args, rows, n=args.n, s_values=list(args.s_values), rows=rows)
    return cli.EXIT_OK
