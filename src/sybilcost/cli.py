"""What each `sybilcost` command does, and the exit code it ends with.

`arguments` holds what the command line accepts and the help text; this
module runs the command `args.command` names.  Emitted bytes are
deterministic, and every file goes through `_write_text`, which writes a
scratch file and renames it, so a failed write never leaves a partial dataset.
"""

from __future__ import annotations

import argparse
import functools
import io
import itertools
import json
import math
import os
import sys
import warnings
from dataclasses import asdict
from pathlib import Path
from typing import Iterable

# calibration, oracle and simulation are imported by the handlers that use
# them, and csv by the CSV branch of `_table_text`, so the other commands
# never load them.
from . import costs, resources
from .arguments import _SWEEP_PRESETS, OUTPUT_DIR_ENV, _UsageError, build_parser

__all__ = [
    "EXIT_BUDGET",
    "EXIT_OK",
    "EXIT_USAGE",
    "EXIT_VERIFICATION",
    "OUTPUT_DIR_ENV",
    "build_parser",
    "dispatch",
    "main",
]

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VERIFICATION = 2
EXIT_BUDGET = 3

# ---------------------------------------------------------------------------
# Emission helpers
# ---------------------------------------------------------------------------


def _json_text(payload: object) -> str:
    return json.dumps(payload, sort_keys=True, indent=2, allow_nan=False) + "\n"


def _table_text(fmt: str, rows: Iterable[dict[str, object]], /, **payload: object) -> str:
    """A table of row dicts as CSV, or as the JSON object of the keyword arguments.

    `rows` may be any iterable, such as a generator: CSV writes one row at a
    time, so the table never exists as row dicts all at once.  The CSV header
    is the first row's keys, and a None cell is left empty.  The JSON object
    names the rows itself, so it can hold them under any key; a payload value
    that is `rows` itself is listed there.  Both formats refuse a non-finite
    number.
    """
    if fmt == "json":
        return _json_text(
            {key: list(rows) if value is rows else value for key, value in payload.items()}
        )
    import csv

    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    for index, row in enumerate(rows):
        for key, value in row.items():
            if isinstance(value, float) and not math.isfinite(value):
                raise ValueError(f"non-finite value {value} in column {key!r} is not CSV compliant")
        if index == 0:
            writer.writerow(row)
        writer.writerow(row.values())
    return buffer.getvalue()


def _meta(args: argparse.Namespace) -> dict[str, object]:
    return {"seed": getattr(args, "seed", None)}


def _resolve_out(path_text: str) -> Path:
    """Resolve an --out path, rooting relative paths in the output-dir env var."""
    path = Path(path_text)
    base = os.environ.get(OUTPUT_DIR_ENV)
    if base and not path.is_absolute():
        return Path(base) / path
    return path


def _write_text(path: Path, text: str) -> None:
    """Write through a scratch file of this call's own, then rename it over path.

    The scratch name is random and opened exclusively, so a concurrent writer's
    file is never reused or clobbered.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    scratch = f"{path}.{os.urandom(8).hex()}.tmp"  # a str: a new Path would intern the name
    handle = open(scratch, "x")
    try:
        with handle:
            handle.write(text)
        os.replace(scratch, path)
    except BaseException:
        Path(scratch).unlink(missing_ok=True)
        raise


def _emit(args: argparse.Namespace, text: str) -> None:
    out = getattr(args, "out", None)
    if out:
        target = _resolve_out(out)
        _write_text(target, text)
        print(f"wrote {target}")
    else:
        sys.stdout.write(text)


def _resolve_spec(token: str) -> resources.ResourceSpec:
    try:
        return resources.preset(token)
    except ValueError:
        pass
    path = Path(token)
    if path.exists():
        specs = resources.load_specs(path)
        if len(specs) != 1:
            raise _UsageError(f"spec file {token!r} must contain exactly one spec, found {len(specs)}")
        return specs[0]
    raise _UsageError(f"{token!r} is neither a built-in preset nor a spec file")


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def _cmd_taxonomy(args: argparse.Namespace) -> int:
    rows = resources.taxonomy_rows()
    _emit(args, _table_text(args.format, rows, meta=_meta(args), rows=rows))
    return EXIT_OK


def _cmd_classify(args: argparse.Namespace) -> int:
    spec = _resolve_spec(args.spec)
    outcome = resources.classify(spec)
    payload = {
        "meta": _meta(args),
        "name": spec.name,
        "resource_class": outcome.resource_class.value,
        "reasons": list(outcome.reasons),
    }
    _emit(args, _json_text(payload))
    return EXIT_OK


def _cmd_cost(args: argparse.Namespace) -> int:
    law = args.cost_class
    if law == "partial" and args.alpha is None:
        raise _UsageError("--class partial requires --alpha")
    if law == "bounded-reuse" and args.k is None:
        raise _UsageError("--class bounded-reuse requires --k")
    if args.alpha is not None and law != "partial":
        raise _UsageError("--alpha applies only to --class partial")
    if args.k is not None and law != "bounded-reuse":
        raise _UsageError("--k applies only to --class bounded-reuse")
    if args.coord is not None and law in ("bnd", "bounded-reuse"):
        raise _UsageError("--coord applies only to --class par, hybrid or partial")
    coordination = costs.CoordinationModel(args.coord or "zero")

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
        row.update(asdict(report))
    # JSON leaves out an unused alpha or k; CSV keeps its empty cell.
    payload = {
        key: value for key, value in row.items() if value is not None or key not in ("alpha", "k")
    }
    _emit(args, _table_text(args.format, [row], meta=_meta(args), report=payload))
    return EXIT_OK


def _cmd_crossover(args: argparse.Namespace) -> int:
    if args.table:
        for flag, value in (("--T", args.T), ("--rmin", args.rmin)):
            if value is not None:
                raise _UsageError(f"{flag} does not apply to crossover --table")
        table = costs.crossover_table()
        rows = [{"T": T, "r_min": r_min, "s_star": value} for T, r_min, value in table]
        _emit(args, _table_text(args.format or "csv", rows, meta=_meta(args), rows=rows))
        return EXIT_OK
    if args.T is None or args.rmin is None:
        raise _UsageError("crossover needs --table, or both --T and --rmin")
    # One threshold prints as a bare number, so it has no format and no file.
    for flag, value in (("--format", args.format), ("--out", args.out)):
        if value is not None:
            raise _UsageError(f"{flag} applies only to crossover --table")
    value = costs.crossover(args.T, args.rmin)
    print("undefined" if value is None else value)
    return EXIT_OK


def _cmd_oracle(args: argparse.Namespace) -> int:
    from . import oracle

    spec = _resolve_spec(args.spec)
    scenario = oracle.OracleScenario(
        s=args.s, T=args.T, spec=spec, coordination=costs.CoordinationModel(args.coord)
    )
    ceiling = oracle.DEFAULT_PLAN_CEILING if args.ceiling is None else args.ceiling
    grid = oracle.PlanGrid.for_scenario(scenario, step=args.grid_step, ceiling=ceiling)
    # verify_bounds compares with the law at r_min itself, so the grid must hold r_min.
    if not grid.holds(spec.r_min):
        raise _UsageError(f"--grid-step {grid.step} does not divide r_min {spec.r_min} of {spec.name!r}")
    try:
        result = oracle.min_cost(scenario, grid=grid)
    except oracle.PlanBudgetExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    report = oracle.verify_bounds(result, scenario)
    payload = {
        "meta": _meta(args),
        "scenario": {"spec": spec.name, "s": args.s, "T": args.T, "coordination": args.coord},
        **asdict(result),
        "verification": {"passed": report.passed, **asdict(report)},
    }
    _emit(args, _json_text(payload))
    return EXIT_OK if report.passed else EXIT_VERIFICATION


def _cmd_simulate(args: argparse.Namespace) -> int:
    from . import simulation

    spec = _resolve_spec(args.spec)
    if args.m is not None and not spec.throughput_bounded:
        raise _UsageError("--m applies only to a throughput-bounded spec")
    config = simulation.ScenarioConfig(n_honest=args.n, m=args.m or 0, s=args.s, T=args.T, spec=spec)
    trace = simulation.run(config)
    rows = (asdict(row) for row in trace.per_window)
    text = _table_text(
        args.format, rows, meta=_meta(args), total_cost=trace.total_cost, windows=rows
    )
    _emit(args, text)
    return EXIT_OK


def _cmd_fig3(args: argparse.Namespace) -> int:
    from . import simulation

    m_values = range(args.m_min, args.m_max + 1, args.m_step)
    # The library warns with a source location; the CLI says it in one line.
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        shares = simulation.non_amplification_experiment(m_values, args.s_values, args.n)
    share_names = [f"share_s{s}" for s in args.s_values]
    rows = ({"m": m, **dict(zip(share_names, row))} for m, row in zip(m_values, shares))
    text = _table_text(
        args.format, rows, meta=_meta(args), n=args.n, s_values=list(args.s_values), rows=rows
    )
    # Said once every row is computed: a row that raises ends the run with one line.
    for warning in caught:
        print(f"warning: {warning.message}", file=sys.stderr)
    _emit(args, text)
    return EXIT_OK


# Per scenario: its default coordination and the (file, metric) of its left and
# right panels: staking totals and ratios, mining ratios and marginal costs.
_CALIBRATIONS = {
    "eth": ("zero", (("fig4-left.csv", "total"), ("fig4-right.csv", "normalized"))),
    "btc": ("linear", (("fig5-left.csv", "normalized"), ("fig5-right.csv", "marginal"))),
}


def _cmd_calibrate(args: argparse.Namespace) -> int:
    from . import calibration

    scenario = calibration.eth_scenario() if args.scenario == "eth" else calibration.btc_tiers()
    default_coord, panels = _CALIBRATIONS[args.scenario]
    coordination = costs.CoordinationModel(args.coord or default_coord)
    series = calibration.run_calibration(scenario, law=args.law, coordination=coordination)

    def panel(metric: str) -> str:
        columns = {f"{metric}_{one.law}_{one.tier}": one.reports for one in series}
        rows = (
            {"T": T, **{name: getattr(reports[index], metric) for name, reports in columns.items()}}
            for index, T in enumerate(scenario.T_range)
        )
        return _table_text("csv", rows)

    # Both panels are built before either is written, so a failure writes neither.
    texts = [(name, panel(metric)) for name, metric in panels]
    out_dir = _resolve_out(args.out or ".")
    for name, text in texts:
        target = out_dir / name
        _write_text(target, text)
        print(f"wrote {target}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# Parameter sweeps
# ---------------------------------------------------------------------------


def _sweep_row(point: tuple[int, int, float, str]) -> dict[str, object]:
    s, T, r_min, coord_name = point
    par = costs.cost_parallelizable(s, T, r_min, costs.CoordinationModel(coord_name))
    bnd = costs.cost_throughput_bounded(s, T, r_min)
    return {
        "s": s,
        "T": T,
        "r_min": r_min,
        "coord": coord_name,
        "total_par": par.total,
        "normalized_par": par.normalized,
        "marginal_par": par.marginal,
        "total_bnd": bnd.total,
        "normalized_bnd": bnd.normalized,
        "marginal_bnd": bnd.marginal,
    }


def _cmd_sweep(args: argparse.Namespace) -> int:
    """Both closed-form laws over the grid, one row per point in nested axis order.

    Each flag replaces its preset axis; coordination defaults to zero.
    """
    preset = _SWEEP_PRESETS.get(args.preset, (None, None, None, ("zero",)))
    flags = (args.s, args.T, args.rmin, args.coord)
    axes = tuple(preset_axis if flag is None else flag for preset_axis, flag in zip(preset, flags))
    s_values, T_values, r_min_values, _kinds = axes
    if s_values is None or T_values is None or r_min_values is None:
        raise _UsageError("sweep needs --preset or explicit --s, --T, and --rmin grids")
    if not all(axes):
        raise _UsageError("sweep grids must be nonempty")
    if min(s_values) < 1 or min(T_values) < 1:
        raise _UsageError("sweep targets and horizons must be positive")
    if min(r_min_values) <= 0:
        raise _UsageError("sweep thresholds must be positive")
    rows = map(_sweep_row, itertools.product(*axes))
    _emit(args, _table_text(args.format, rows, meta=_meta(args), rows=rows))
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify-all
# ---------------------------------------------------------------------------


def _cmd_verify_all(args: argparse.Namespace) -> int:
    from .verification import verify_all

    all_ok = True
    for group, count, failures in verify_all():
        if failures:
            all_ok = False
            print(f"FAIL {group}: {len(failures)} of {count} checks failed")
            for failure in failures[:8]:
                print(f"  {failure}")
        else:
            print(f"ok   {group}: {count} checks")
    print("all checks passed" if all_ok else "verification FAILED")
    return EXIT_OK if all_ok else EXIT_VERIFICATION


# The handler of each subcommand that `arguments.build_parser` names.
_HANDLERS = {
    "taxonomy": _cmd_taxonomy,
    "classify": _cmd_classify,
    "cost": _cmd_cost,
    "crossover": _cmd_crossover,
    "oracle": _cmd_oracle,
    "simulate": _cmd_simulate,
    "fig3": _cmd_fig3,
    "calibrate": _cmd_calibrate,
    "sweep": _cmd_sweep,
    "verify-all": _cmd_verify_all,
}


@functools.cache
def _shared_parser() -> argparse.ArgumentParser:
    # Parsing stores nothing on the parser (each call fills a new namespace),
    # so every dispatch in a process can reuse the one built here.
    return build_parser()


def dispatch(argv: list[str] | None = None) -> int:
    """Parse arguments and run one subcommand, mapping failures to exit codes."""
    try:
        args = _shared_parser().parse_args(argv)
        return _HANDLERS[args.command](args)
    except (_UsageError, ValueError, OverflowError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
