"""`sybilcost oracle`: the grid minimum of one scenario, its witness and its bound checks."""

import argparse

from .. import cli, oracle, plans, resources


def run(args: argparse.Namespace) -> int:
    spec = resources.resolve(args.spec)
    scenario = plans.OracleScenario(s=args.s, T=args.T, spec=spec, coordination=args.coord)
    grid = plans.PlanGrid.for_window(args.s, spec, step=args.grid_step, ceiling=args.ceiling)
    # verify_bounds compares with the law at r_min itself, so the grid must hold r_min.
    if not grid.holds(spec.r_min):
        raise ValueError(f"--grid-step {grid.step} does not divide r_min {spec.r_min} of {spec.name!r}")
    result = oracle.min_cost(scenario, grid=grid)
    report = oracle.verify_bounds(result, scenario)
    cli._emit(
        args, None,
        scenario={"spec": spec.name, "s": args.s, "T": args.T, "coordination": args.coord.value},
        **vars(result),
        verification={"passed": report.passed, **vars(report)},
    )
    return cli.EXIT_OK if report.passed else cli.EXIT_VERIFICATION
