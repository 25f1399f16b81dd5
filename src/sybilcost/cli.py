"""Command-line entry point: cost laws, oracle runs, simulations, and datasets.

Every emitting subcommand is deterministic: re-running a command with the same
arguments produces byte-identical output (no timestamps inside data files).
Files are written through a temporary path and renamed, so a failed write
never leaves a partial dataset behind.

Exit codes: 0 success, 1 usage error, 2 verification failure, 3 enumeration
budget exceeded.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import itertools
import json
import math
import os
import sys
from dataclasses import asdict, dataclass
from pathlib import Path

# calibration and simulation are imported by the handlers that use them, so
# the other commands never load them.
from . import costs, oracle, resources

__all__ = [
    "EXIT_BUDGET",
    "EXIT_OK",
    "EXIT_USAGE",
    "EXIT_VERIFICATION",
    "OUTPUT_DIR_ENV",
    "SweepSpec",
    "build_parser",
    "dispatch",
    "main",
    "sweep",
]

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VERIFICATION = 2
EXIT_BUDGET = 3

OUTPUT_DIR_ENV = "SYBILCOST_OUT"

_COORDINATION = {
    "zero": costs.ZERO_COORDINATION,
    "linear": costs.LINEAR_COORDINATION,
}


class _UsageError(Exception):
    """Bad invocation; converted to a one-line diagnostic and exit code 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # type: ignore[override]
        raise _UsageError(message)


# ---------------------------------------------------------------------------
# Argument conversion
# ---------------------------------------------------------------------------


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return value


def _nonnegative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected a nonnegative integer, got {text!r}")
    return value


def _positive_float(text: str) -> float:
    value = float(text)
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(f"expected a finite positive number, got {text!r}")
    return value


def _int_list(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(",") if part != "")
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}") from None


def _float_list(text: str) -> tuple[float, ...]:
    try:
        values = tuple(float(part) for part in text.split(",") if part != "")
        if all(math.isfinite(value) for value in values):
            return values
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"expected comma-separated finite numbers, got {text!r}")


def _coord_list(text: str) -> tuple[str, ...]:
    kinds = tuple(part for part in text.split(",") if part != "")
    for kind in kinds:
        if kind not in _COORDINATION:
            raise argparse.ArgumentTypeError(f"unknown coordination kind {kind!r}")
    return kinds


# ---------------------------------------------------------------------------
# Emission helpers
# ---------------------------------------------------------------------------


def _json_text(payload: object) -> str:
    return json.dumps(payload, sort_keys=True, indent=2, allow_nan=False) + "\n"


def _table_text(fmt: str, rows: list[dict[str, object]], /, **payload: object) -> str:
    """A table of row dicts as CSV, or as the JSON object of the keyword arguments.

    The CSV header is the first row's keys, and a None cell is left empty.
    The JSON object names the rows itself, so it can hold them under any key.
    Both formats refuse a non-finite number.
    """
    if fmt == "json":
        return _json_text(payload)
    for row in rows:
        for key, value in row.items():
            if isinstance(value, float) and not math.isfinite(value):
                raise ValueError(f"non-finite value {value} in column {key!r} is not CSV compliant")
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(rows[0])
    writer.writerows(row.values() for row in rows)
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
    scratch = path.with_name(f"{path.name}.{os.urandom(8).hex()}.tmp")
    handle = open(scratch, "x")
    try:
        with handle:
            handle.write(text)
        os.replace(scratch, path)
    except BaseException:
        scratch.unlink(missing_ok=True)
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
    rows = [dict(row) for row in resources.taxonomy_rows()]
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
    coordination = _COORDINATION[args.coord]
    law = args.cost_class
    if law == "partial" and args.alpha is None:
        raise _UsageError("--class partial requires --alpha")
    if law == "bounded-reuse" and args.k is None:
        raise _UsageError("--class bounded-reuse requires --k")
    if args.alpha is not None and law != "partial":
        raise _UsageError("--alpha applies only to --class partial")
    if args.k is not None and law != "bounded-reuse":
        raise _UsageError("--k applies only to --class bounded-reuse")

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
        table = costs.crossover_table()
        rows = [{"T": T, "r_min": r_min, "s_star": value} for T, r_min, value in table]
        _emit(args, _table_text(args.format, rows, meta=_meta(args), rows=rows))
        return EXIT_OK
    if args.T is None or args.rmin is None:
        raise _UsageError("crossover needs --table, or both --T and --rmin")
    value = costs.crossover(args.T, args.rmin)
    print("undefined" if value is None else value)
    return EXIT_OK


def _cmd_oracle(args: argparse.Namespace) -> int:
    spec = _resolve_spec(args.spec)
    scenario = oracle.OracleScenario(
        s=args.s, T=args.T, spec=spec, coordination=_COORDINATION[args.coord]
    )
    grid = oracle.PlanGrid.for_scenario(scenario, step=args.grid_step, ceiling=args.ceiling)
    result = oracle.min_cost(scenario, grid=grid)
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
    config = simulation.ScenarioConfig(n_honest=args.n, m=args.m, s=args.s, T=args.T, spec=spec)
    trace = simulation.run(config)
    rows = [asdict(row) for row in trace.per_window]
    text = _table_text(
        args.format, rows, meta=_meta(args), total_cost=trace.total_cost, windows=rows
    )
    _emit(args, text)
    return EXIT_OK


def _cmd_fig3(args: argparse.Namespace) -> int:
    from . import simulation

    m_values = range(args.m_min, args.m_max + 1, args.m_step)
    table = simulation.non_amplification_experiment(m_values, args.s_values, args.n)
    share_names = [f"share_s{s}" for s in table.s_values]
    rows = [
        {"m": m, **dict(zip(share_names, shares))} for m, shares in zip(table.m_values, table.rows)
    ]
    text = _table_text(
        args.format, rows, meta=_meta(args), n=args.n, s_values=list(table.s_values), rows=rows
    )
    _emit(args, text)
    return EXIT_OK


_PANEL_FILES = {
    "eth": ("fig4-left.csv", "fig4-right.csv"),
    "btc": ("fig5-left.csv", "fig5-right.csv"),
}


def _cmd_calibrate(args: argparse.Namespace) -> int:
    from . import calibration

    if args.scenario == "eth":
        scenario = calibration.eth_scenario()
        coord_name = args.coord or "zero"
    else:
        scenario = calibration.btc_tiers()
        coord_name = args.coord or "linear"
    series = calibration.run_calibration(scenario, law=args.law, coordination=_COORDINATION[coord_name])

    out_dir = Path(args.out) if args.out else Path(os.environ.get(OUTPUT_DIR_ENV, "."))
    left_name, right_name = _PANEL_FILES[args.scenario]

    def panel(metric: str) -> str:
        columns = {f"{metric}_{one.law}_{one.tier}": one.reports for one in series}
        rows = [
            {"T": T, **{name: getattr(reports[index], metric) for name, reports in columns.items()}}
            for index, T in enumerate(scenario.T_range)
        ]
        return _table_text("csv", rows)

    # Left panel: totals for the staking scenario, normalized ratios for the
    # mining scenario; right panel: normalized ratios vs marginal costs.
    if args.scenario == "eth":
        left_text, right_text = panel("total"), panel("normalized")
    else:
        left_text, right_text = panel("normalized"), panel("marginal")

    for name, text in ((left_name, left_text), (right_name, right_text)):
        target = out_dir / name
        _write_text(target, text)
        print(f"wrote {target}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# Parameter sweeps
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SweepSpec:
    """A rectangular (s, T, r_min, coordination) grid and its output target."""

    s_values: tuple[int, ...]
    T_values: tuple[int, ...]
    r_min_values: tuple[float, ...]
    coordination_kinds: tuple[str, ...] = ("zero",)
    out: Path | None = None
    fmt: str = "csv"
    seed: int | None = None

    def __post_init__(self) -> None:
        if not (self.s_values and self.T_values and self.r_min_values and self.coordination_kinds):
            raise ValueError("sweep grids must be nonempty")
        if any(s < 1 for s in self.s_values) or any(T < 1 for T in self.T_values):
            raise ValueError("sweep targets and horizons must be positive")
        if any(r <= 0 for r in self.r_min_values):
            raise ValueError("sweep thresholds must be positive")
        unknown = [kind for kind in self.coordination_kinds if kind not in _COORDINATION]
        if unknown:
            raise ValueError(f"unknown coordination kinds: {unknown}")
        if self.fmt not in ("csv", "json"):
            raise ValueError(f"format must be csv or json, got {self.fmt!r}")


def _sweep_row(point: tuple[int, int, float, str]) -> dict[str, object]:
    s, T, r_min, coord_name = point
    par = costs.cost_parallelizable(s, T, r_min, _COORDINATION[coord_name])
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


def sweep(spec: SweepSpec) -> str:
    """Evaluate both closed-form laws over the grid; return the emitted text.

    Rows follow nested grid order (s, then T, then r_min, then coordination),
    so output is deterministic and re-running is byte-stable.
    """
    points = itertools.product(
        spec.s_values, spec.T_values, spec.r_min_values, spec.coordination_kinds
    )
    rows = [_sweep_row(point) for point in points]
    text = _table_text(spec.fmt, rows, meta={"seed": spec.seed}, rows=rows)
    if spec.out is not None:
        _write_text(spec.out, text)
    return text


_SWEEP_PRESETS: dict[str, dict[str, tuple]] = {
    # Normalized-ratio decay in s at a fixed horizon.
    "fig1": {
        "s_values": tuple(range(1, 1001)),
        "T_values": (100,),
        "r_min_values": (1.0,),
        "coordination_kinds": ("linear",),
    },
    # Totals and ratios against the horizon for three thresholds.
    "fig2": {
        "s_values": (10,),
        "T_values": tuple(range(1, 201)),
        "r_min_values": (0.5, 1.0, 2.0),
        "coordination_kinds": ("linear",),
    },
}


def _cmd_sweep(args: argparse.Namespace) -> int:
    grids: dict[str, tuple] = {}
    if args.preset:
        grids.update(_SWEEP_PRESETS[args.preset])
    if args.s is not None:
        grids["s_values"] = args.s
    if args.T is not None:
        grids["T_values"] = args.T
    if args.rmin is not None:
        grids["r_min_values"] = args.rmin
    if args.coord is not None:
        grids["coordination_kinds"] = args.coord
    missing = [name for name in ("s_values", "T_values", "r_min_values") if name not in grids]
    if missing:
        raise _UsageError("sweep needs --preset or explicit --s, --T, and --rmin grids")
    grids.setdefault("coordination_kinds", ("zero",))
    out = _resolve_out(args.out) if args.out else None
    try:
        spec = SweepSpec(out=out, fmt=args.format, seed=args.seed, **grids)
    except ValueError as exc:
        raise _UsageError(str(exc)) from exc
    text = sweep(spec)
    if out is None:
        sys.stdout.write(text)
    else:
        print(f"wrote {out}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify-all
# ---------------------------------------------------------------------------

def _cmd_verify_all(args: argparse.Namespace) -> int:
    all_ok = True
    for group, count, failures in oracle.verify_all():
        if failures:
            all_ok = False
            print(f"FAIL {group}: {len(failures)} of {count} checks failed")
            for failure in failures[:8]:
                print(f"  {failure}")
        else:
            print(f"ok   {group}: {count} checks")
    print("all checks passed" if all_ok else "verification FAILED")
    return EXIT_OK if all_ok else EXIT_VERIFICATION


# ---------------------------------------------------------------------------
# Parser assembly
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    """A new parser for the whole command line."""
    parser = _Parser(prog="sybilcost", description=__doc__)
    subparsers = parser.add_subparsers(dest="command", metavar="command", required=True)

    common = _Parser(add_help=False)
    common.add_argument("--seed", type=int, default=None, help="recorded in JSON metadata; no operation is randomized")

    fmt = _Parser(add_help=False)
    fmt.add_argument("--format", choices=("csv", "json"), default="csv")
    fmt.add_argument("--out", default=None, help="write to this file instead of standard output")

    sub = subparsers.add_parser("taxonomy", parents=[common, fmt], help="export the built-in resource taxonomy")
    sub.set_defaults(handler=_cmd_taxonomy)

    sub = subparsers.add_parser("classify", parents=[common], help="classify a resource spec")
    sub.add_argument("--spec", required=True, help="preset name or JSON spec file")
    sub.add_argument("--out", default=None)
    sub.set_defaults(handler=_cmd_classify, format="json")

    sub = subparsers.add_parser("cost", parents=[common], help="evaluate one closed-form cost law")
    sub.add_argument("--class", dest="cost_class", required=True,
                     choices=("par", "bnd", "hybrid", "partial", "bounded-reuse"))
    sub.add_argument("--s", type=_nonnegative_int, required=True)
    sub.add_argument("--T", type=_nonnegative_int, required=True)
    sub.add_argument("--rmin", type=_positive_float, required=True)
    sub.add_argument("--alpha", type=float, default=None)
    sub.add_argument("--k", type=_positive_int, default=None)
    sub.add_argument("--coord", choices=tuple(_COORDINATION), default="zero")
    sub.add_argument("--format", choices=("csv", "json"), default="json")
    sub.add_argument("--out", default=None)
    sub.set_defaults(handler=_cmd_cost)

    sub = subparsers.add_parser("crossover", parents=[common, fmt], help="regime-crossover thresholds")
    sub.add_argument("--table", action="store_true", help="emit the full default (T, r_min) grid")
    sub.add_argument("--T", type=_positive_int, default=None)
    sub.add_argument("--rmin", type=_positive_float, default=None)
    sub.set_defaults(handler=_cmd_crossover)

    sub = subparsers.add_parser("oracle", parents=[common], help="brute-force minimum plan cost")
    sub.add_argument("--spec", required=True)
    sub.add_argument("--s", type=_nonnegative_int, required=True)
    sub.add_argument("--T", type=_positive_int, required=True)
    sub.add_argument("--grid-step", type=_positive_float, default=None)
    sub.add_argument("--ceiling", type=_positive_int, default=oracle.DEFAULT_PLAN_CEILING)
    sub.add_argument("--coord", choices=tuple(_COORDINATION), default="zero")
    sub.add_argument("--out", default=None)
    sub.set_defaults(handler=_cmd_oracle, format="json")

    sub = subparsers.add_parser("simulate", parents=[common, fmt], help="window-by-window share trace")
    sub.add_argument("--spec", required=True)
    sub.add_argument("--m", type=_nonnegative_int, default=0, help="adversarial channel count")
    sub.add_argument("--s", type=_nonnegative_int, required=True)
    sub.add_argument("--n", type=_nonnegative_int, required=True, help="honest validator count")
    sub.add_argument("--T", type=_positive_int, required=True)
    sub.set_defaults(handler=_cmd_simulate)

    sub = subparsers.add_parser("fig3", parents=[common, fmt],
                                help="identity-vs-channel share dataset")
    sub.add_argument("--n", type=_nonnegative_int, default=200)
    sub.add_argument("--s-values", dest="s_values", type=_int_list, default=(400, 700, 1000))
    sub.add_argument("--m-min", dest="m_min", type=_positive_int, default=10)
    sub.add_argument("--m-max", dest="m_max", type=_positive_int, default=200)
    sub.add_argument("--m-step", dest="m_step", type=_positive_int, default=1)
    sub.set_defaults(handler=_cmd_fig3)

    sub = subparsers.add_parser("calibrate", parents=[common],
                                help="emit calibration figure panels as CSV")
    sub.add_argument("scenario", choices=("eth", "btc"))
    sub.add_argument("--law", choices=("par", "bnd", "both"), default="both")
    sub.add_argument("--coord", choices=tuple(_COORDINATION), default=None,
                     help="default: zero for eth totals, linear for btc ratios")
    sub.add_argument("--out", default=None, help=f"output directory (default: ${OUTPUT_DIR_ENV} or '.')")
    sub.set_defaults(handler=_cmd_calibrate)

    sub = subparsers.add_parser("sweep", parents=[common, fmt], help="closed-form law sweep over a grid")
    sub.add_argument("--preset", choices=tuple(_SWEEP_PRESETS), default=None)
    sub.add_argument("--s", type=_int_list, default=None)
    sub.add_argument("--T", type=_int_list, default=None)
    sub.add_argument("--rmin", type=_float_list, default=None)
    sub.add_argument("--coord", type=_coord_list, default=None)
    sub.set_defaults(handler=_cmd_sweep)

    sub = subparsers.add_parser("verify-all", parents=[common],
                                help="oracle vs closed-form checks on the full small grid")
    sub.set_defaults(handler=_cmd_verify_all)

    return parser


@functools.cache
def _shared_parser() -> argparse.ArgumentParser:
    # Parsing stores nothing on the parser (each call fills a new namespace),
    # so every dispatch in a process can reuse the one built here.
    return build_parser()


def dispatch(argv: list[str] | None = None) -> int:
    """Parse arguments and run one subcommand, mapping failures to exit codes."""
    try:
        args = _shared_parser().parse_args(argv)
        return args.handler(args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except oracle.PlanBudgetExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
