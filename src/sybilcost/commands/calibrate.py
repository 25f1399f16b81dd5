"""`sybilcost calibrate`: the two calibration panels of one scenario, as CSV files."""

import argparse
import io

from .. import calibration, cli

# Per scenario: its constructor and the (file, metric) of its left and right
# panels: staking totals and ratios, mining ratios and marginal costs.
_CALIBRATIONS = {
    "eth": (calibration.eth_scenario,
            (("fig4-left.csv", "total"), ("fig4-right.csv", "normalized"))),
    "btc": (calibration.btc_tiers,
            (("fig5-left.csv", "normalized"), ("fig5-right.csv", "marginal"))),
}


def run(args: argparse.Namespace) -> int:
    make_scenario, panels = _CALIBRATIONS[args.scenario]
    scenario = make_scenario()
    series = calibration.run_calibration(scenario, law=args.law, coordination=args.coord)

    def panel(metric: str) -> str:
        columns = {f"{metric}_{one.law}_{one.tier}": one.reports for one in series}
        rows = (
            {"T": T, **{name: getattr(reports[index], metric) for name, reports in columns.items()}}
            for index, T in enumerate(scenario.T_range)
        )
        buffer = io.StringIO()
        cli._write_table(buffer, "csv", rows)
        return buffer.getvalue()

    # Both panels are built before either is written, so a failure writes neither.
    texts = [(name, panel(metric)) for name, metric in panels]
    out_dir = cli._resolve_out(args.out or ".")
    for name, text in texts:
        target = out_dir / name
        cli._write_text(target, text)
        print(f"wrote {target}")
    return cli.EXIT_OK
