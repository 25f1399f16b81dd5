"""What the `sybilcost` command line accepts: its subcommands, options and help.

`build_parser` names no handler: `cli.dispatch` runs the subcommand that
`args.command` names.  So this module holds the whole grammar, and `cli`
holds what each command does.
"""

from __future__ import annotations

import argparse

from . import law

__all__ = ["OUTPUT_DIR_ENV", "build_parser"]

# The parser's description, printed by --help.
_DESCRIPTION = """Command-line entry point: cost laws, oracle runs, simulations, and datasets.

Every emitting subcommand is deterministic: re-running a command with the same
arguments produces byte-identical output (no timestamps inside data files).
Files are written through a temporary path and renamed, so a failed write
never leaves a partial dataset behind.

Exit codes: 0 success, 1 usage error, 2 verification failure, 3 enumeration
budget exceeded.
"""

OUTPUT_DIR_ENV = "SYBILCOST_OUT"

# Each sweep preset's (s, T, r_min, coordination) axes; only `sweep` walks a range.
_SWEEP_PRESETS: dict[str, tuple] = {
    # Normalized-ratio decay in s at a fixed horizon.
    "fig1": (range(1, 1001), (100,), (1.0,), (law.LINEAR_COORDINATION,)),
    # Totals and ratios against the horizon for three thresholds.
    "fig2": ((10,), range(1, 201), (0.5, 1.0, 2.0), (law.LINEAR_COORDINATION,)),
}


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # type: ignore[override]
        # `cli.dispatch` prints every ValueError as one line and exits 1.
        raise ValueError(message)


# ---------------------------------------------------------------------------
# Argument conversion
# ---------------------------------------------------------------------------


# fig3's channel range needs m >= 1, a rule of the command: the library accepts
# m = 0.  Every other number is checked by the library rule that owns it.
def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return value


def _comma_list(item, kind: str):
    """A converter of comma-separated items, each read by `item`; empty items are skipped."""

    def convert(text: str) -> tuple:
        try:
            return tuple([item(part) for part in text.split(",") if part != ""])
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected comma-separated {kind}, got {text!r}") from None

    return convert


_int_list = _comma_list(int, "integers")
_float_list = _comma_list(float, "numbers")
_coord_list = _comma_list(law.CoordinationModel, "coordination kinds")

# --coord converts each name to its member, so `law.CoordinationModel` refuses a
# bad name; --help lists the names as `choices` would.
_COORD_METAVAR = "{" + ",".join([model.value for model in law.CoordinationModel]) + "}"


# ---------------------------------------------------------------------------
# Parser assembly
# ---------------------------------------------------------------------------


def _format_options(default: str | None) -> argparse.ArgumentParser:
    """A parent parser for --format, with this default, and --out."""
    fmt = _Parser(add_help=False)
    fmt.add_argument("--format", choices=("csv", "json"), default=default)
    fmt.add_argument("--out", default=None, help="write to this file instead of standard output")
    return fmt


def build_parser() -> argparse.ArgumentParser:
    """A new parser for the whole command line."""
    parser = _Parser(prog="sybilcost", description=_DESCRIPTION)
    subparsers = parser.add_subparsers(dest="command", metavar="command", required=True)

    common = _Parser(add_help=False)
    common.add_argument("--seed", type=int, default=None, help="recorded in JSON metadata; no operation is randomized")

    fmt = _format_options("csv")

    subparsers.add_parser("taxonomy", parents=[common, fmt], help="export the built-in resource taxonomy")

    sub = subparsers.add_parser("classify", parents=[common], help="classify a resource spec")
    sub.add_argument("--spec", required=True, help="preset name or JSON spec file")
    sub.add_argument("--out", default=None)

    sub = subparsers.add_parser("cost", parents=[common], help="evaluate one closed-form cost law")
    sub.add_argument("--class", dest="cost_class", required=True,
                     choices=("par", "bnd", "hybrid", "partial", "bounded-reuse"))
    sub.add_argument("--s", type=int, required=True)
    sub.add_argument("--T", type=int, required=True)
    sub.add_argument("--rmin", type=float, required=True)
    sub.add_argument("--alpha", type=float, default=None)
    sub.add_argument("--k", type=int, default=None)
    sub.add_argument("--coord", type=law.CoordinationModel, metavar=_COORD_METAVAR, help="default: zero")
    sub.add_argument("--format", choices=("csv", "json"), default="json")
    sub.add_argument("--out", default=None)

    # No --format default: without --table, a given --format is refused.
    sub = subparsers.add_parser("crossover", parents=[common, _format_options(None)],
                                help="regime-crossover thresholds")
    sub.add_argument("--table", action="store_true", help="emit the full default (T, r_min) grid")
    sub.add_argument("--T", type=int, default=None)
    sub.add_argument("--rmin", type=float, default=None)

    sub = subparsers.add_parser("oracle", parents=[common], help="exact minimum plan cost on a grid")
    sub.add_argument("--spec", required=True)
    sub.add_argument("--s", type=int, required=True)
    sub.add_argument("--T", type=int, required=True)
    sub.add_argument("--grid-step", type=float, default=None)
    sub.add_argument("--ceiling", type=int, default=law.DEFAULT_PLAN_CEILING)
    sub.add_argument("--coord", type=law.CoordinationModel, metavar=_COORD_METAVAR, default="zero")
    sub.add_argument("--out", default=None)

    sub = subparsers.add_parser("simulate", parents=[common, fmt], help="window-by-window share trace")
    sub.add_argument("--spec", required=True)
    sub.add_argument("--m", type=int, default=None,
                     help="adversarial channel count of a throughput-bounded spec (default: 0)")
    sub.add_argument("--s", type=int, required=True)
    sub.add_argument("--n", type=int, required=True, help="honest validator count")
    sub.add_argument("--T", type=int, required=True)

    sub = subparsers.add_parser("fig3", parents=[common, fmt],
                                help="identity-vs-channel share dataset")
    sub.add_argument("--n", type=int, default=200)
    sub.add_argument("--s-values", dest="s_values", type=_int_list, default=(400, 700, 1000))
    sub.add_argument("--m-min", dest="m_min", type=_positive_int, default=10)
    sub.add_argument("--m-max", dest="m_max", type=_positive_int, default=200)
    sub.add_argument("--m-step", dest="m_step", type=_positive_int, default=1)

    sub = subparsers.add_parser("calibrate", parents=[common],
                                help="emit calibration figure panels as CSV")
    sub.add_argument("scenario", choices=("eth", "btc"))
    sub.add_argument("--law", choices=("par", "bnd", "both"), default="both")
    sub.add_argument("--coord", type=law.CoordinationModel, metavar=_COORD_METAVAR,
                     help="default: zero for eth totals, linear for btc ratios")
    sub.add_argument("--out", default=None, help=f"output directory (default: ${OUTPUT_DIR_ENV} or '.')")

    sub = subparsers.add_parser("sweep", parents=[common, fmt], help="closed-form law sweep over a grid")
    sub.add_argument("--preset", choices=tuple(_SWEEP_PRESETS), default=None)
    sub.add_argument("--s", type=_int_list, default=None)
    sub.add_argument("--T", type=_int_list, default=None)
    sub.add_argument("--rmin", type=_float_list, default=None)
    sub.add_argument("--coord", type=_coord_list, default=None)

    subparsers.add_parser("verify-all", parents=[common],
                          help="oracle vs closed-form checks on the full small grid")

    return parser
