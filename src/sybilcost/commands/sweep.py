"""`sybilcost sweep`: both closed-form laws over a parameter grid."""

import argparse
import itertools

from .. import cli, costs, law
from ..arguments import _SWEEP_PRESETS


def _sweep_row(point: tuple[int, int, float, law.CoordinationModel]) -> dict[str, object]:
    s, T, r_min, coord = point
    par = costs.cost_parallelizable(s, T, r_min, coord)
    bnd = costs.cost_throughput_bounded(s, T, r_min)
    return {
        "s": s,
        "T": T,
        "r_min": r_min,
        "coord": coord.value,
        "total_par": par.total,
        "normalized_par": par.normalized,
        "marginal_par": par.marginal,
        "total_bnd": bnd.total,
        "normalized_bnd": bnd.normalized,
        "marginal_bnd": bnd.marginal,
    }


def run(args: argparse.Namespace) -> int:
    """Both closed-form laws over the grid, one row per point in nested axis order.

    Each flag replaces its preset axis; coordination defaults to zero.  The
    law refuses a threshold that is not positive in the row that holds it,
    before any byte is written.
    """
    preset = _SWEEP_PRESETS.get(args.preset, (None, None, None, (law.ZERO_COORDINATION,)))
    flags = (args.s, args.T, args.rmin, args.coord)
    axes = [preset_axis if flag is None else flag for preset_axis, flag in zip(preset, flags)]
    s_values, T_values, r_min_values, _kinds = axes
    if s_values is None or T_values is None or r_min_values is None:
        raise ValueError("sweep needs --preset or explicit --s, --T, and --rmin grids")
    if not all(axes):
        raise ValueError("sweep grids must be nonempty")
    if min(s_values) < 1 or min(T_values) < 1:
        raise ValueError("sweep targets and horizons must be positive")
    rows = map(_sweep_row, itertools.product(*axes))
    cli._emit(args, rows, rows=rows)
    return cli.EXIT_OK
