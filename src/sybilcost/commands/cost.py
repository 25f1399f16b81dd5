"""`sybilcost cost`: one closed-form law's report."""

import argparse

from .. import cli, costs
from ..law import ZERO_COORDINATION


def run(args: argparse.Namespace) -> int:
    law = args.cost_class
    if law == "partial" and args.alpha is None:
        raise ValueError("--class partial requires --alpha")
    if law == "bounded-reuse" and args.k is None:
        raise ValueError("--class bounded-reuse requires --k")
    if args.alpha is not None and law != "partial":
        raise ValueError("--alpha applies only to --class partial")
    if args.k is not None and law != "bounded-reuse":
        raise ValueError("--k applies only to --class bounded-reuse")
    if args.coord is not None and law in ("bnd", "bounded-reuse"):
        raise ValueError("--coord applies only to --class par, hybrid or partial")
    coordination = args.coord or ZERO_COORDINATION

    row: dict[str, object] = {
        "law": law, "s": args.s, "T": args.T, "r_min": args.rmin, "alpha": args.alpha
    }
    if law == "partial":
        bound = costs.cost_partial_transferability(args.s, args.T, args.rmin, args.alpha, coordination)
        row.update(bound._asdict())
    else:
        if law == "par":
            report = costs.cost_parallelizable(args.s, args.T, args.rmin, coordination)
        elif law == "bnd":
            report = costs.cost_throughput_bounded(args.s, args.T, args.rmin)
        elif law == "hybrid":
            # One r_min for both components; the composed law keeps the renewal floor.
            report = costs.governance_hybrid(args.s, args.T, args.rmin, args.rmin, coordination)
        else:
            report = costs.cost_bounded_reuse(args.s, args.T, args.rmin, args.k)
        row["k"] = args.k
        row.update(vars(report))
    # JSON leaves out an unused alpha or k; CSV keeps its empty cell.
    payload = {
        key: value for key, value in row.items() if value is not None or key not in ("alpha", "k")
    }
    cli._emit(args, [row], report=payload)
    return cli.EXIT_OK
