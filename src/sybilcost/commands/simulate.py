"""`sybilcost simulate`: a window-by-window trace of one scenario."""

import argparse
from dataclasses import asdict

from .. import cli, resources, simulation


def run(args: argparse.Namespace) -> int:
    spec = resources.resolve(args.spec)
    if args.m is not None and not spec.throughput_bounded:
        raise ValueError("--m applies only to a throughput-bounded spec")
    config = simulation.ScenarioConfig(n_honest=args.n, m=args.m or 0, s=args.s, T=args.T, spec=spec)
    trace = simulation.run(config)
    # `asdict`, not `vars`: on Python 3.11 `vars(row)` makes each WindowRow's attribute
    # dict, which lives as long as the trace (a T = 200,000 CSV peaked 52.6 -> 63.4 MB).
    rows = (asdict(row) for row in trace.per_window)
    cli._emit(args, rows, total_cost=trace.total_cost, windows=rows)
    return cli.EXIT_OK
