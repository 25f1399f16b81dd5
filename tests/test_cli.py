import argparse
import io
import itertools
import json
import os
import runpy
import subprocess
import sys
import time
import tracemalloc
from dataclasses import asdict, replace
from pathlib import Path

import pytest

from sybilcost import cli, costs, law, oracle, plans, resources
from sybilcost.commands import sweep


def run_cli(capsys, *argv):
    code = cli.dispatch(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _table(fmt, rows, **payload):
    """What `cli._write_table` writes, as one string."""
    buffer = io.StringIO()
    cli._write_table(buffer, fmt, rows, **payload)
    return buffer.getvalue()


def test_unknown_subcommand_is_a_usage_error(capsys):
    code, _, err = run_cli(capsys, "frobnicate")
    assert code == cli.EXIT_USAGE
    assert err.startswith("error:")
    assert err.count("\n") == 1


def test_missing_subcommand_is_a_usage_error(capsys):
    code, _, err = run_cli(capsys)
    assert code == cli.EXIT_USAGE
    assert err.startswith("error:")


def test_help_exits_zero():
    with pytest.raises(SystemExit) as outcome:
        cli.dispatch(["--help"])
    assert outcome.value.code == 0


def test_cost_json_is_canonical(capsys):
    code, out, _ = run_cli(capsys, "cost", "--class", "bnd", "--s", "10", "--T", "100", "--rmin", "1")
    assert code == cli.EXIT_OK
    payload = json.loads(out)
    assert payload["report"]["normalized"] == 1.0
    assert payload["report"]["total"] == 1000.0
    # Canonical form: sorted keys, two-space indent, one trailing newline.
    assert out == json.dumps(payload, sort_keys=True, indent=2) + "\n"


def test_cost_records_seed_in_metadata(capsys):
    _, out, _ = run_cli(capsys, "cost", "--class", "par", "--s", "2", "--T", "3",
                        "--rmin", "1", "--seed", "7")
    assert json.loads(out)["meta"]["seed"] == 7


def test_cost_partial_at_full_alpha_survives_an_overflowing_renewal(capsys):
    # The renewed share has weight 0, so its overflowing product adds 0.0, not nan.
    code, out, _ = run_cli(capsys, "cost", "--class", "partial", "--s", "1", "--T", "2",
                           "--rmin", "1e308", "--alpha", "1")
    assert code == cli.EXIT_OK
    report = json.loads(out)["report"]
    assert (report["lower_bound"], report["model_cost"]) == (0.0, 1e308)


def test_cost_partial_requires_alpha(capsys):
    code, _, err = run_cli(capsys, "cost", "--class", "partial", "--s", "2", "--T", "3", "--rmin", "1")
    assert code == cli.EXIT_USAGE
    assert "alpha" in err


def test_cost_rejects_stray_k(capsys):
    code, _, err = run_cli(capsys, "cost", "--class", "par", "--s", "2", "--T", "3",
                           "--rmin", "1", "--k", "2")
    assert code == cli.EXIT_USAGE


@pytest.mark.parametrize("law", [("bnd",), ("bounded-reuse", "--k", "2")], ids=["bnd", "bounded-reuse"])
@pytest.mark.parametrize("coord", ["zero", "linear"])
def test_cost_rejects_coord_for_a_law_without_overhead(capsys, law, coord):
    code, out, err = run_cli(capsys, "cost", "--class", *law, "--s", "3", "--T", "4",
                             "--rmin", "1", "--coord", coord)
    assert code == cli.EXIT_USAGE
    assert out == ""
    assert err == "error: --coord applies only to --class par, hybrid or partial\n"


@pytest.mark.parametrize("coord", ["zero", "linear"])
def test_calibrate_rejects_coord_for_the_bounded_law_alone(tmp_path, capsys, coord):
    code, out, err = run_cli(capsys, "calibrate", "eth", "--law", "bnd", "--coord", coord,
                             "--out", str(tmp_path))
    # `calibration.run_calibration` refuses the coordination before any panel is built.
    message = "error: coordination applies only to law 'par' or 'both'\n"
    assert (code, out, err) == (cli.EXIT_USAGE, "", message)
    assert list(tmp_path.iterdir()) == []


# Each command that takes --coord, with its other arguments.
COORD_COMMANDS = {
    "cost": ("cost", "--class", "par", "--s", "3", "--T", "4", "--rmin", "1"),
    "oracle": ("oracle", "--spec", "pos-stake", "--s", "1", "--T", "2"),
    "calibrate": ("calibrate", "eth"),
    "sweep": ("sweep", "--s", "3", "--T", "4", "--rmin", "1"),
}


@pytest.mark.parametrize("command", sorted(COORD_COMMANDS))
def test_coord_accepts_exactly_the_coordination_model_values(capsys, command):
    # The parser hands each command members, never names; only oracle has a default.
    parser = cli.build_parser()
    default = law.ZERO_COORDINATION if command == "oracle" else None
    assert parser.parse_args(COORD_COMMANDS[command]).coord is default
    for model in law.CoordinationModel:
        args = parser.parse_args([*COORD_COMMANDS[command], "--coord", model.value])
        assert args.coord in (model, (model,))
    # The enum refuses a name, in argparse's words for a bad typed value (as for `--s x`).
    refusal = ("expected comma-separated coordination kinds, got {!r}" if command == "sweep"
               else "invalid CoordinationModel value: {!r}")
    for name in ("quadratic", "LINEAR_SUM", "Linear"):
        code, out, err = run_cli(capsys, *COORD_COMMANDS[command], "--coord", name)
        message = f"error: argument --coord: {refusal.format(name)}\n"
        assert (code, out, err) == (cli.EXIT_USAGE, "", message), name


def test_running_out_of_memory_is_a_one_line_error(capsys, monkeypatch):
    def run(config):
        raise MemoryError

    monkeypatch.setattr("sybilcost.simulation.run", run)
    result = run_cli(capsys, "simulate", "--spec", "pos-stake", "--s", "1", "--n", "1", "--T", "1")
    assert result == (cli.EXIT_USAGE, "", "error: out of memory\n")


def test_cost_csv_format(capsys):
    code, out, _ = run_cli(capsys, "cost", "--class", "bounded-reuse", "--s", "2", "--T", "10",
                           "--rmin", "1", "--k", "5", "--format", "csv")
    assert code == cli.EXIT_OK
    lines = out.splitlines()
    assert lines[0].startswith("law,s,T,r_min")
    assert lines[1].split(",")[0] == "bounded-reuse"
    assert out.endswith("\n") and not out.endswith("\n\n")


def test_crossover_single_value(capsys):
    code, out, _ = run_cli(capsys, "crossover", "--T", "10", "--rmin", "1")
    assert code == cli.EXIT_OK
    assert out.strip() == "1.25"


def test_crossover_reports_undefined(capsys):
    code, out, _ = run_cli(capsys, "crossover", "--T", "2", "--rmin", "0.5")
    assert code == cli.EXIT_OK
    assert out.strip() == "undefined"


def test_crossover_needs_arguments(capsys):
    code, _, err = run_cli(capsys, "crossover")
    assert code == cli.EXIT_USAGE


@pytest.mark.parametrize("flag, value", [("--out", "x.csv"), ("--format", "json")])
def test_crossover_refuses_a_table_flag_without_the_table(tmp_path, monkeypatch, capsys, flag, value):
    monkeypatch.chdir(tmp_path)
    code, out, err = run_cli(capsys, "crossover", "--T", "10", "--rmin", "1", flag, value)
    assert (code, out, err) == (cli.EXIT_USAGE, "", f"error: {flag} applies only to crossover --table\n")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("flag, value", [("--T", "10"), ("--rmin", "1")])
def test_crossover_table_refuses_a_single_value_flag(capsys, flag, value):
    code, out, err = run_cli(capsys, "crossover", "--table", flag, value)
    assert (code, out, err) == (cli.EXIT_USAGE, "", f"error: {flag} does not apply to crossover --table\n")


def test_crossover_table_csv(capsys):
    code, out, _ = run_cli(capsys, "crossover", "--table")
    assert code == cli.EXIT_OK
    lines = out.splitlines()
    assert lines[0] == "T,r_min,s_star"
    assert len(lines) == 16
    assert out.endswith("\n") and not out.endswith("\n\n")


def test_taxonomy_csv_lists_all_presets(capsys):
    code, out, _ = run_cli(capsys, "taxonomy")
    assert code == cli.EXIT_OK
    lines = out.splitlines()
    assert len(lines) == 8
    assert lines[0].startswith("name,")
    assert lines[1].startswith("pow-hardware,")


def test_taxonomy_json(capsys):
    code, out, _ = run_cli(capsys, "taxonomy", "--format", "json")
    payload = json.loads(out)
    assert len(payload["rows"]) == 7
    assert payload["rows"][2]["resource_class"] == "Parallelizable"


def test_classify_preset(capsys):
    code, out, _ = run_cli(capsys, "classify", "--spec", "device-bound")
    assert code == cli.EXIT_OK
    payload = json.loads(out)
    assert payload["resource_class"] == "ThroughputBounded"
    assert payload["reasons"]


def test_classify_spec_file(tmp_path, capsys):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(asdict(resources.preset("pos-stake"))))
    code, out, _ = run_cli(capsys, "classify", "--spec", str(path))
    assert code == cli.EXIT_OK
    assert json.loads(out)["resource_class"] == "Parallelizable"


def test_classify_rejects_multi_spec_files(tmp_path, capsys):
    path = tmp_path / "specs.json"
    payload = [
        asdict(resources.preset("pos-stake")),
        asdict(resources.preset("device-bound")),
    ]
    path.write_text(json.dumps(payload))
    code, out, err = run_cli(capsys, "classify", "--spec", str(path))
    assert (code, out) == (cli.EXIT_USAGE, "")
    assert err == f"error: spec file {str(path)!r} must contain exactly one spec, found 2\n"


def test_classify_unknown_spec(tmp_path, capsys):
    # An empty token names the current directory; neither it nor any directory is a spec file.
    for token in ("no-such-thing", "", str(tmp_path)):
        code, out, err = run_cli(capsys, "classify", "--spec", token)
        assert (code, out) == (cli.EXIT_USAGE, "")
        assert err == f"error: {token!r} is neither a built-in preset nor a spec file\n"


def test_oracle_json_payload(capsys):
    code, out, _ = run_cli(capsys, "oracle", "--spec", "pos-stake", "--s", "2", "--T", "3")
    assert code == cli.EXIT_OK
    payload = json.loads(out)
    assert payload["min_cost"] == 2.0
    assert payload["verification"]["passed"] is True
    assert payload["witness"]["acquisitions"] == [2.0, 0.0, 0.0]
    assert payload["plans_examined"] > 0


# One spec per carry-over rule: reusable stock, window-local flow, a partial
# alpha and a bounded k.
STAKE = resources.preset("pos-stake")
ORACLE_SPECS = {
    "pos-stake": STAKE,
    "device-bound": resources.preset("device-bound"),
    "partial": replace(STAKE, name="partial-a0.5", identity_transferable=None, alpha=0.5),
    "bounded-reuse": replace(STAKE, name="bounded-k2", temporally_reusable=None, k=2),
}


@pytest.mark.parametrize("coord", list(law.CoordinationModel), ids=lambda model: model.value)
@pytest.mark.parametrize("name", list(ORACLE_SPECS))
def test_oracle_json_is_its_results_copied_field_by_field(tmp_path, capsys, name, coord):
    # `cli._write_table` writes each dataclass as its fields where it stands; the
    # bytes must be those of a payload built from `asdict` copies.
    spec, s, T = ORACLE_SPECS[name], 3, 4
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(asdict(spec)))
    code, out, _ = run_cli(capsys, "oracle", "--spec", str(path), "--s", str(s), "--T", str(T),
                           "--coord", coord.value)
    scenario = plans.OracleScenario(s, T, spec, coord)
    result = oracle.min_cost(scenario)
    report = oracle.verify_bounds(result, scenario)
    payload = {
        "meta": {"seed": None},
        "scenario": {"spec": spec.name, "s": s, "T": T, "coordination": coord.value},
        **asdict(result),
        "verification": {"passed": report.passed, **asdict(report)},
    }
    assert code == cli.EXIT_OK
    assert out == json.dumps(payload, sort_keys=True, indent=2) + "\n"


def test_oracle_prices_spent_energy_as_window_local_flow(capsys):
    code, out, _ = run_cli(capsys, "oracle", "--spec", "pow-energy", "--s", "2", "--T", "3")
    assert code == cli.EXIT_OK
    payload = json.loads(out)
    assert payload["min_cost"] == 6.0
    names = [check["name"] for check in payload["verification"]["checks"]]
    assert names[2:] == ["flow-lower-bound", "tight-plan-value"]


def test_simulate_runs_spent_energy(capsys):
    code, out, _ = run_cli(capsys, "simulate", "--spec", "pow-energy", "--s", "3",
                           "--n", "10", "--T", "4", "--format", "json")
    assert code == cli.EXIT_OK
    assert json.loads(out)["total_cost"] == 12.0


@pytest.mark.parametrize("spec", ["pos-stake", "pow-energy"])
def test_simulate_channel_count_applies_only_to_throughput_bounded_specs(capsys, spec):
    code, out, err = run_cli(capsys, "simulate", "--spec", spec, "--m", "2", "--s", "10",
                             "--n", "10", "--T", "1")
    assert code == cli.EXIT_USAGE
    assert out == ""
    assert err == "error: --m applies only to a throughput-bounded spec\n"


def test_simulate_channel_count_defaults_to_zero(capsys):
    code, out, _ = run_cli(capsys, "simulate", "--spec", "device-bound", "--s", "10",
                           "--n", "10", "--T", "1")
    assert code == cli.EXIT_OK
    assert out.splitlines()[1] == "1,0,0.0,10.0,0.0,0.0"


@pytest.mark.parametrize("command", [["oracle"], ["simulate", "--n", "10"]])
def test_a_spec_with_no_carry_over_rule_is_a_usage_error(capsys, command):
    code, out, err = run_cli(capsys, *command, "--spec", "social-graph", "--s", "2", "--T", "3")
    assert code == cli.EXIT_USAGE
    assert out == ""
    assert err.startswith("error: no carry-over rule for 'social-graph'")
    assert err.count("\n") == 1


def test_oracle_budget_exhaustion_is_exit_three(capsys):
    code, _, err = run_cli(capsys, "oracle", "--spec", "pos-stake", "--s", "4", "--T", "2",
                           "--ceiling", "10")
    assert code == cli.EXIT_BUDGET
    assert err.startswith("error:")


def test_oracle_budget_guard_counts_without_building_the_grid(capsys):
    argv = ["oracle", "--spec", "pos-stake", "--s", "2", "--T", "3", "--grid-step", "1e-6"]
    tracemalloc.start()
    try:
        code, _, err = run_cli(capsys, *argv)
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == cli.EXIT_BUDGET
    assert "exceed the ceiling" in err
    assert peak < 1_000_000


@pytest.mark.parametrize("s", ["1000", "100000", "1000000"])
def test_oracle_refuses_a_huge_grid_at_once_in_one_short_line(capsys, s):
    # At s = 1e6 the whole count has about 830,000 digits: the refusal must
    # neither compute it nor print it.
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "oracle", "--spec", "pos-stake", "--s", s, "--T", "2")
    elapsed = time.perf_counter() - start
    assert (code, out) == (cli.EXIT_BUDGET, "")
    assert err.startswith("error: ") and err.count("\n") == 1 and len(err) < 100, err
    assert "exceed the ceiling of 10000000" in err
    assert elapsed < 1.0


@pytest.mark.parametrize("s", ["0", "3"])
def test_oracle_refuses_a_huge_horizon_at_once_in_one_line(capsys, s):
    # The witness alone would hold about 10^8 values, even with no identity fielded.
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "oracle", "--spec", "pos-stake", "--s", s, "--T", "99999999")
    elapsed = time.perf_counter() - start
    assert (code, out) == (cli.EXIT_BUDGET, "")
    assert err.startswith("error: a witness of ") and err.count("\n") == 1, err
    assert elapsed < 1.0


def test_simulate_refuses_a_huge_horizon_at_once_in_one_line(capsys):
    # Its T rows of six values would hold 6 * 10^8 values.
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "simulate", "--spec", "pos-stake", "--s", "1", "--n", "1",
                             "--T", "100000000")
    elapsed = time.perf_counter() - start
    assert (code, out) == (cli.EXIT_BUDGET, "")
    assert err == "error: a trace of 600000000 values exceeds the ceiling of 10000000\n"
    assert elapsed < 1.0


def test_oracle_ceiling_defaults_to_the_plan_ceiling():
    parser = cli.build_parser()
    args = parser.parse_args(["oracle", "--spec", "pos-stake", "--s", "1", "--T", "1"])
    assert args.ceiling == law.DEFAULT_PLAN_CEILING


def test_oracle_grid_too_fine_to_count_is_a_usage_error(capsys):
    code, _, err = run_cli(capsys, "oracle", "--spec", "pos-stake", "--s", "2", "--T", "3",
                           "--grid-step", "5e-324")
    assert code == cli.EXIT_USAGE
    assert err.startswith("error: step 5e-324 is too fine")
    assert err.count("\n") == 1


@pytest.mark.parametrize("spec", ["pos-stake", "pow-energy"])
def test_oracle_refuses_a_grid_step_that_does_not_divide_r_min(capsys, spec):
    # On such a grid the lowest active level is above r_min, so the grid
    # optimum is not the closed form the bounds are checked against.
    code, out, err = run_cli(capsys, "oracle", "--spec", spec, "--s", "3", "--T", "4",
                             "--grid-step", "0.7")
    assert (code, out) == (cli.EXIT_USAGE, "")
    assert err == f"error: --grid-step 0.7 does not divide r_min 1.0 of {spec!r}\n"


@pytest.mark.parametrize("step", ["0.25", "0.1"])
def test_oracle_accepts_a_grid_step_that_divides_r_min(capsys, step):
    # 0.1 divides 1.0 within FEASIBILITY_EPS, though not in binary floating point.
    code, out, err = run_cli(capsys, "oracle", "--spec", "pow-energy", "--s", "3", "--T", "4",
                             "--grid-step", step)
    assert (code, err) == (cli.EXIT_OK, "")
    assert json.loads(out)["verification"]["passed"] is True


def test_oracle_passes_a_correct_search_at_a_large_threshold(tmp_path, capsys):
    data = asdict(resources.preset("pos-stake"))
    data.update(identity_transferable=None, alpha=0.7, r_min=1e6 + 0.1)
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(data))
    code, out, err = run_cli(capsys, "oracle", "--spec", str(path), "--s", "3", "--T", "9")
    assert (code, err) == (cli.EXIT_OK, "")
    assert json.loads(out)["verification"]["passed"] is True


@pytest.mark.parametrize("r_min, minimum", [(1e-9, 2e-09), (1e-12, 2e-12), (1e-320, 2e-320)])
def test_oracle_finds_the_law_at_a_tiny_threshold(tmp_path, capsys, r_min, minimum):
    # The oracle's tolerance is relative to the values it compares, so a tiny
    # unit searches the same 70 configurations as a threshold of 1.
    data = asdict(resources.preset("pos-stake"))
    data["r_min"] = r_min
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(data))
    code, out, err = run_cli(capsys, "oracle", "--spec", str(path), "--s", "2", "--T", "2")
    assert (code, err) == (cli.EXIT_OK, "")
    payload = json.loads(out)
    assert (payload["min_cost"], payload["plans_examined"]) == (minimum, 70)
    assert payload["verification"]["passed"] is True


def test_oracle_verification_failure_is_exit_two(capsys, monkeypatch):
    forced = oracle.VerificationReport(
        checks=(oracle.VerificationCheck(name="forced", passed=False, detail="test hook"),)
    )
    monkeypatch.setattr(oracle, "verify_bounds", lambda result, scenario: forced)
    code, out, _ = run_cli(capsys, "oracle", "--spec", "pos-stake", "--s", "1", "--T", "1")
    assert code == cli.EXIT_VERIFICATION
    assert json.loads(out)["verification"]["passed"] is False


def test_simulate_csv(capsys):
    code, out, _ = run_cli(capsys, "simulate", "--spec", "device-bound", "--m", "50",
                           "--s", "400", "--n", "200", "--T", "3")
    assert code == cli.EXIT_OK
    lines = out.splitlines()
    assert lines[0] == "window,active_identities,adversary_influence,total_influence,share,window_cost"
    assert lines[1] == "1,50,50.0,250.0,0.2,50.0"
    assert len(lines) == 4


def test_simulate_json_total(capsys):
    code, out, _ = run_cli(capsys, "simulate", "--spec", "pos-stake", "--s", "400",
                           "--n", "200", "--T", "10", "--format", "json")
    payload = json.loads(out)
    assert payload["total_cost"] == 400.0
    assert len(payload["windows"]) == 10


def test_fig3_default_grid(capsys):
    code, out, _ = run_cli(capsys, "fig3")
    assert code == cli.EXIT_OK
    lines = out.splitlines()
    assert lines[0] == "m,share_s400,share_s700,share_s1000"
    assert len(lines) == 1 + 191
    for line in lines[1:]:
        cells = line.split(",")
        assert cells[1] == cells[2] == cells[3]


def test_fig3_warns_in_one_stderr_line(capsys):
    code, out, err = run_cli(capsys, "fig3", "--s-values", "5,10", "--m-min", "1", "--m-max", "20")
    assert code == cli.EXIT_OK
    assert out.startswith("m,share_s5,share_s10\n")
    assert err == (
        "warning: identity counts do not all exceed the channel range; share columns may differ\n"
    )


@pytest.mark.parametrize(
    "argv",
    [
        ("simulate", "--spec", "pos-stake", "--s", "0", "--n", "0", "--T", "2"),
        ("fig3", "--n", "0", "--s-values", "0"),
    ],
    ids=["simulate", "fig3"],
)
def test_a_share_with_no_participants_is_a_one_line_usage_error(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == cli.EXIT_USAGE
    assert out == ""
    assert err == "error: share is undefined with no active identities and no honest validators\n"


def test_fig3_rejects_a_repeated_identity_count(capsys):
    code, out, err = run_cli(capsys, "fig3", "--s-values", "400,400")
    assert code == cli.EXIT_USAGE
    assert out == ""
    assert err == "error: s_values must not repeat an identity count, got [400, 400]\n"


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_fig3_warns_before_it_says_what_it_wrote(tmp_path, monkeypatch, fmt):
    both = io.StringIO()
    monkeypatch.setattr(sys, "stdout", both)
    monkeypatch.setattr(sys, "stderr", both)
    target = tmp_path / f"fig3.{fmt}"
    code = cli.dispatch(["fig3", "--s-values", "5,10", "--m-min", "1", "--m-max", "20",
                         "--format", fmt, "--out", str(target)])
    assert code == cli.EXIT_OK
    assert both.getvalue() == (
        "warning: identity counts do not all exceed the channel range; share columns may differ\n"
        f"wrote {target}\n"
    )


def test_fig3_respects_out_file(tmp_path, capsys):
    target = tmp_path / "fig3.csv"
    code, out, _ = run_cli(capsys, "fig3", "--out", str(target))
    assert code == cli.EXIT_OK
    assert f"wrote {target}" in out
    assert target.read_text().startswith("m,share_s400")


def test_output_env_var_roots_relative_paths(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv(cli.OUTPUT_DIR_ENV, str(tmp_path))
    code, _, _ = run_cli(capsys, "fig3", "--out", "nested/fig3.csv")
    assert code == cli.EXIT_OK
    assert (tmp_path / "nested" / "fig3.csv").exists()


def test_output_env_var_roots_a_relative_calibrate_directory(tmp_path, capsys, monkeypatch):
    base, cwd = tmp_path / "base", tmp_path / "cwd"
    cwd.mkdir()
    monkeypatch.chdir(cwd)
    monkeypatch.setenv(cli.OUTPUT_DIR_ENV, str(base))
    code, out, _ = run_cli(capsys, "calibrate", "eth", "--out", "rel")
    assert code == cli.EXIT_OK
    assert sorted(path.name for path in (base / "rel").iterdir()) == [
        "fig4-left.csv", "fig4-right.csv"
    ]
    assert list(cwd.iterdir()) == []
    written = [base / "rel" / name for name in ("fig4-left.csv", "fig4-right.csv")]
    assert out == "".join(f"wrote {path}\n" for path in written)


def test_output_env_var_roots_every_dataset_file(tmp_path, capsys, monkeypatch):
    base, cwd = tmp_path / "base", tmp_path / "cwd"
    cwd.mkdir()
    monkeypatch.chdir(cwd)
    monkeypatch.setenv(cli.OUTPUT_DIR_ENV, str(base))
    script = Path(__file__).resolve().parent.parent / "scripts" / "make_datasets.py"
    assert runpy.run_path(str(script))["main"](["--out", "datasets"]) == 0
    assert len(list((base / "datasets").iterdir())) == 9
    assert list(cwd.iterdir()) == []


# Specs whose float fields are written as JSON integers: r_min with tau, and with alpha.
INTEGER_SPECS = {
    "tau": {"name": "channel-file", "divisible": True, "additive_influence": True,
            "temporally_reusable": False, "identity_transferable": False,
            "throughput_bounded": True, "r_min": 2, "tau": 4},
    "alpha": {"name": "partial-file", "divisible": True, "additive_influence": True,
              "temporally_reusable": True, "r_min": 2, "alpha": 1},
}


@pytest.mark.parametrize("name", sorted(INTEGER_SPECS))
def test_an_integer_in_a_float_field_prints_what_its_float_twin_prints(tmp_path, capsys, name):
    data = INTEGER_SPECS[name]
    twin = {key: float(value) if key in ("r_min", "tau", "alpha") else value
            for key, value in data.items()}
    outputs = []
    for stem, spec in (("integer", data), ("float", twin)):
        path = tmp_path / f"{stem}.json"
        path.write_text(json.dumps(spec))
        outputs.append([
            run_cli(capsys, *argv, "--spec", str(path))
            for argv in (("oracle", "--s", "2", "--T", "3"),
                         ("simulate", "--s", "2", "--n", "3", "--T", "4"),
                         ("classify",))
        ])
    assert outputs[0] == outputs[1]
    assert [code for code, _out, _err in outputs[0]] == [cli.EXIT_OK] * 3


def test_a_spec_integer_past_the_float_range_is_refused_by_its_field(tmp_path, capsys):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(dict(INTEGER_SPECS["alpha"], r_min=10**400)))
    code, out, err = run_cli(capsys, "classify", "--spec", str(path))
    assert (code, out) == (cli.EXIT_USAGE, "")
    assert err == f"error: resource field 'r_min' must be a finite number, got {10**400!r}\n"


def test_calibrate_eth_writes_both_panels(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "calibrate", "eth", "--out", str(tmp_path))
    assert code == cli.EXIT_OK
    left = (tmp_path / "fig4-left.csv").read_text()
    right = (tmp_path / "fig4-right.csv").read_text()
    lines = left.splitlines()
    assert lines[0] == "T,total_par_lido,total_bnd_lido,total_par_small-operator,total_bnd_small-operator"
    assert lines[1] == "1,9600000.0,9600000.0,3200.0,3200.0"
    assert right.splitlines()[0].startswith("T,normalized_par_lido")


def test_calibrate_btc_writes_both_panels(tmp_path, capsys):
    code, _, _ = run_cli(capsys, "calibrate", "btc", "--out", str(tmp_path))
    assert code == cli.EXIT_OK
    left = (tmp_path / "fig5-left.csv").read_text()
    right = (tmp_path / "fig5-right.csv").read_text()
    assert len(left.splitlines()) == 51
    assert left.splitlines()[0].count("normalized_") == 10
    assert right.splitlines()[0].count("marginal_") == 10


def test_calibrate_law_filter_narrows_columns(tmp_path, capsys):
    run_cli(capsys, "calibrate", "eth", "--law", "par", "--out", str(tmp_path))
    header = (tmp_path / "fig4-left.csv").read_text().splitlines()[0]
    assert "bnd" not in header
    assert header == "T,total_par_lido,total_par_small-operator"


def test_calibrate_default_directory_comes_from_env(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv(cli.OUTPUT_DIR_ENV, str(tmp_path))
    code, _, _ = run_cli(capsys, "calibrate", "eth")
    assert code == cli.EXIT_OK
    assert (tmp_path / "fig4-left.csv").exists()


def test_calibrate_writes_no_panel_when_one_fails(tmp_path, capsys, monkeypatch):
    write_table = cli._write_table
    calls = []

    def fail_second(*args, **kwargs):
        calls.append(args[1])
        if len(calls) == 2:
            raise ValueError("second panel failed")
        return write_table(*args, **kwargs)

    monkeypatch.setattr(cli, "_write_table", fail_second)
    code, out, err = run_cli(capsys, "calibrate", "btc", "--out", str(tmp_path))
    assert (code, out, err) == (cli.EXIT_USAGE, "", "error: second panel failed\n")
    assert list(tmp_path.iterdir()) == []


def test_calibrate_rerun_is_byte_identical(tmp_path, capsys):
    run_cli(capsys, "calibrate", "btc", "--out", str(tmp_path))
    first = (tmp_path / "fig5-left.csv").read_bytes()
    run_cli(capsys, "calibrate", "btc", "--out", str(tmp_path))
    assert (tmp_path / "fig5-left.csv").read_bytes() == first


def test_sweep_requires_a_grid(capsys):
    code, _, err = run_cli(capsys, "sweep")
    assert code == cli.EXIT_USAGE
    assert "grid" in err or "preset" in err


def test_sweep_rejects_empty_grid(capsys):
    code, _, err = run_cli(capsys, "sweep", "--s", "", "--T", "5", "--rmin", "1")
    assert code == cli.EXIT_USAGE


def test_sweep_explicit_grid(capsys):
    code, out, _ = run_cli(capsys, "sweep", "--s", "1,2", "--T", "3", "--rmin", "0.5,1")
    assert code == cli.EXIT_OK
    lines = out.splitlines()
    assert lines[0].startswith("s,T,r_min,coord,total_par")
    assert len(lines) == 1 + 4  # 2 targets x 1 horizon x 2 thresholds


def test_sweep_rows_follow_grid_order(capsys):
    _, out, _ = run_cli(capsys, "sweep", "--s", "2,1", "--T", "3", "--rmin", "1")
    rows = [line.split(",")[0] for line in out.splitlines()[1:]]
    assert rows == ["2", "1"]  # declared order, not sorted


def test_sweep_rerun_is_byte_identical(tmp_path, capsys):
    first = tmp_path / "first.csv"
    second = tmp_path / "second.csv"
    run_cli(capsys, "sweep", "--preset", "fig2", "--out", str(first))
    run_cli(capsys, "sweep", "--preset", "fig2", "--out", str(second))
    assert first.read_bytes() == second.read_bytes()


def test_sweep_preset_flags_can_be_overridden(capsys):
    _, out, _ = run_cli(capsys, "sweep", "--preset", "fig2", "--T", "7")
    lines = out.splitlines()
    assert len(lines) == 1 + 3  # three thresholds, single horizon
    assert all(line.split(",")[1] == "7" for line in lines[1:])


def test_sweep_json_format(capsys):
    _, out, _ = run_cli(capsys, "sweep", "--s", "10", "--T", "100", "--rmin", "1",
                        "--coord", "linear", "--format", "json")
    payload = json.loads(out)
    assert payload["rows"][0]["total_par"] == 120.0


@pytest.mark.parametrize("value", [(), None], ids=["empty-tuple", "none"])
def test_a_document_with_no_rows_encodes_every_payload_value(capsys, value):
    # A document with no rows passes None for them, so no payload value, not even
    # None or the one empty tuple, is listed as the rows.
    payload = {"empty": value, "nested": {"inner": value, "list": [value]}, "number": 1.5}
    expected = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    assert _table("json", None, **payload) == expected
    cli._emit(argparse.Namespace(seed=None), None, **payload)
    assert capsys.readouterr().out == json.dumps(
        {"meta": {"seed": None}, **payload}, sort_keys=True, indent=2
    ) + "\n"


def test_csv_from_a_generator_matches_csv_from_a_list():
    rows = [{"m": m, "share": m / 7, "note": None if m % 2 else "even"} for m in range(1, 6)]
    text = _table("csv", rows)
    assert _table("csv", (dict(row) for row in rows)) == text
    assert text.splitlines()[:2] == ["m,share,note", "1,0.14285714285714285,"]


def test_sweep_csv_streams_within_a_small_multiple_of_its_text(tmp_path):
    target = tmp_path / "sweep.csv"

    def write_sweep(axes):
        rows = map(sweep._sweep_row, itertools.product(*axes))
        cli._write_with(target, lambda handle: cli._write_table(handle, "csv", rows))

    # Built before tracing: itertools.product materializes its inputs.
    axes = (tuple(range(1, 20_001)), (100,), (1.0,), (law.LINEAR_COORDINATION,))
    write_sweep(((1,), (1,), (1.0,), (law.ZERO_COORDINATION,)))  # warm caches
    tracemalloc.start()
    try:
        write_sweep(axes)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    size = target.stat().st_size
    assert target.read_text().count("\n") == 20_001
    # Streamed, the peak is about 0.11 x the file: the copy of the s axis that
    # product() makes.  Building the text before writing it peaks at 2.9 x.
    assert peak < 0.2 * size


def test_sweep_json_streams_within_a_small_multiple_of_its_text(tmp_path):
    target = tmp_path / "sweep.json"

    def write_sweep(axes):
        rows = map(sweep._sweep_row, itertools.product(*axes))
        cli._write_with(target, lambda handle: cli._write_table(
            handle, "json", rows, meta={"seed": None}, rows=rows
        ))

    # Built before tracing: itertools.product materializes its inputs.
    axes = (tuple(range(1, 20_001)), (100,), (1.0,), (law.LINEAR_COORDINATION,))
    write_sweep(((1,), (1,), (1.0,), (law.ZERO_COORDINATION,)))  # warm caches
    tracemalloc.start()
    try:
        write_sweep(axes)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    size = target.stat().st_size
    assert len(json.loads(target.read_text())["rows"]) == 20_000
    # Streamed, the peak is about 0.025 x the file: the copy of the s axis that
    # product() makes.  Listing the rows before writing them peaks at 1.54 x.
    assert peak < 0.2 * size


def test_fig3_streams_within_a_small_multiple_of_its_text(tmp_path, capsys):
    target = tmp_path / "fig3.csv"
    argv = ["fig3", "--m-max", "20000", "--s-values", "300000,400000,500000", "--out", str(target)]
    run_cli(capsys, "fig3", "--m-max", "11", "--out", str(target))  # warm caches
    tracemalloc.start()
    try:
        code, _, _ = run_cli(capsys, *argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    size = target.stat().st_size
    assert code == cli.EXIT_OK
    assert size > 1_000_000
    # Streamed, the peak is about 0.14 x the file.  Building the text before
    # writing it peaks at 3 x, and every row before the first, above 5 x.
    assert peak < 0.25 * size


def test_the_oracle_witness_streams_within_a_small_multiple_of_its_text(tmp_path, capsys):
    # The witness is written where it stands, not copied into the payload first.
    target = tmp_path / "oracle.json"
    run_cli(capsys, "oracle", "--spec", "pos-stake", "--s", "3", "--T", "3", "--out", str(target))
    tracemalloc.start()
    try:
        code, _, _ = run_cli(capsys, "oracle", "--spec", "pos-stake", "--s", "3", "--T", "20000",
                             "--out", str(target))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    size = target.stat().st_size
    assert code == cli.EXIT_OK
    assert size > 500_000
    # The peak is about 0.84 x the file; with the witness copied by `asdict`
    # first, 2.1 x, and with the text also built first, 8.6 x.
    assert peak < 1.5 * size


def test_non_finite_cell_mid_stream_writes_no_file(tmp_path, capsys):
    rows = ({"s": s, "total": 1e308 * s} for s in (1, 2, 3))
    with pytest.raises(ValueError, match="non-finite value inf in column 'total'"):
        _table("csv", rows)
    # (s=2, r_min=1e308) overflows in the middle of the grid.
    target = tmp_path / "sweep.csv"
    code, _, err = run_cli(capsys, "sweep", "--s", "1,2,3", "--T", "1", "--rmin", "1,1e308",
                           "--out", str(target))
    assert code == cli.EXIT_USAGE
    assert err.startswith("error: non-finite value inf")
    assert list(tmp_path.iterdir()) == []


# (s=2, r_min=1e308) overflows part way through the grid: CSV refuses the row as
# it comes, and JSON refuses it after the "meta" key is written.
OVERFLOWING_SWEEP = ("sweep", "--s", "1,2,3", "--T", "1", "--rmin", "1,1e308")
FORMATS = pytest.mark.parametrize("fmt", [(), ("--format", "json")], ids=["csv", "json"])


@FORMATS
def test_a_refusal_part_way_prints_nothing_on_stdout(capsys, fmt):
    code, out, err = run_cli(capsys, *OVERFLOWING_SWEEP, *fmt)
    assert (code, out) == (cli.EXIT_USAGE, "")
    assert err.startswith("error:")
    assert err.count("\n") == 1


@FORMATS
def test_a_refusal_part_way_leaves_neither_the_file_nor_its_scratch(tmp_path, capsys, fmt):
    code, out, err = run_cli(capsys, *OVERFLOWING_SWEEP, *fmt, "--out", str(tmp_path / "sweep.out"))
    assert (code, out) == (cli.EXIT_USAGE, "")
    assert err.startswith("error:")
    assert err.count("\n") == 1
    assert list(tmp_path.iterdir()) == []


def _without_out(argv):
    """ARGV with its `--out PATH` pair, if any, taken out."""
    if "--out" not in argv:
        return list(argv)
    index = argv.index("--out")
    return [*argv[:index], *argv[index + 2:]]


# Each README command that writes one document: not `calibrate`, whose --out
# names a directory, nor one crossover threshold, which prints a bare number.
README_COMMANDS = [
    line.split("#")[0].split()[1:]
    for line in (Path(__file__).resolve().parent.parent / "README.md").read_text().splitlines()
    if line.startswith("sybilcost ")
]
ONE_DOCUMENT_COMMANDS = [
    _without_out(argv) for argv in README_COMMANDS
    if argv[0] not in ("calibrate", "verify-all") and (argv[0] != "crossover" or "--table" in argv)
]


def test_the_readme_names_eight_one_document_commands():
    assert sorted({argv[0] for argv in ONE_DOCUMENT_COMMANDS}) == [
        "classify", "cost", "crossover", "fig3", "oracle", "simulate", "sweep", "taxonomy",
    ]


@pytest.mark.parametrize("argv", ONE_DOCUMENT_COMMANDS, ids=" ".join)
def test_a_file_holds_the_bytes_stdout_prints(tmp_path, capsys, argv):
    code, printed, err = run_cli(capsys, *argv)
    assert (code, err) == (cli.EXIT_OK, "")
    target = tmp_path / "out"
    assert run_cli(capsys, *argv, "--out", str(target)) == (cli.EXIT_OK, f"wrote {target}\n", "")
    assert target.read_bytes() == printed.encode()


def test_failed_write_leaves_no_partial_file(tmp_path, monkeypatch):
    target = tmp_path / "data.csv"

    def explode(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(os, "replace", explode)
    with pytest.raises(OSError):
        cli._write_text(target, "header\n")
    assert not target.exists()
    assert list(tmp_path.iterdir()) == []


def test_failure_after_the_rename_raises_its_own_error(tmp_path, monkeypatch):
    # The scratch file is already gone, so cleanup must not mask the failure.
    target = tmp_path / "data.csv"
    rename = os.replace

    def rename_then_fail(src, dst):
        rename(src, dst)
        raise KeyboardInterrupt

    monkeypatch.setattr(os, "replace", rename_then_fail)
    with pytest.raises(KeyboardInterrupt):
        cli._write_text(target, "header\n")
    assert [path.name for path in tmp_path.iterdir()] == ["data.csv"]


def test_write_leaves_a_strangers_scratch_file_alone(tmp_path):
    target = tmp_path / "data.csv"
    stranger = tmp_path / "data.csv.tmp"
    stranger.write_text("another writer's bytes\n")
    cli._write_text(target, "header\n")
    assert target.read_text() == "header\n"
    assert stranger.read_text() == "another writer's bytes\n"
    assert sorted(path.name for path in tmp_path.iterdir()) == ["data.csv", "data.csv.tmp"]


def test_write_failure_surfaces_as_nonzero_exit(tmp_path, capsys):
    blocker = tmp_path / "blocker"
    blocker.write_text("a file, not a directory")
    code, _, err = run_cli(capsys, "fig3", "--out", str(blocker / "fig3.csv"))
    assert code != cli.EXIT_OK
    assert err.startswith("error:")


def test_verify_all_passes(capsys):
    code, out, _ = run_cli(capsys, "verify-all")
    assert code == cli.EXIT_OK
    assert "all checks passed" in out
    assert out.count("ok   ") == 7
    assert "FAIL" not in out


def test_verify_all_reports_a_failing_group(capsys, monkeypatch):
    cost_bounded_reuse = costs.cost_bounded_reuse

    def off_by_one(s, T, r_min, k):
        report = cost_bounded_reuse(s, T, r_min, k)
        return replace(report, total=report.total + 1.0)

    monkeypatch.setattr(costs, "cost_bounded_reuse", off_by_one)
    code, out, _ = run_cli(capsys, "verify-all")
    lines = out.splitlines()
    assert code == cli.EXIT_VERIFICATION
    # 120 bounded-reuse instances, each failing its closed-form check once.
    header = lines.index("FAIL intermediate-regimes: 120 of 528 checks failed")
    listed = list(itertools.takewhile(lambda line: line.startswith("  "), lines[header + 1 :]))
    assert listed == [
        "  bounded-k1 s=1 T=1 r_min=0.5: oracle 0.5 != 1.5",
        "  bounded-k2 s=1 T=1 r_min=0.5: oracle 0.5 != 1.5",
        "  bounded-k1 s=1 T=2 r_min=0.5: oracle 1.0 != 2.0",
        "  bounded-k2 s=1 T=2 r_min=0.5: oracle 0.5 != 1.5",
        "  bounded-k1 s=1 T=3 r_min=0.5: oracle 1.5 != 2.5",
        "  bounded-k2 s=1 T=3 r_min=0.5: oracle 1.0 != 2.0",
        "  bounded-k3 s=1 T=3 r_min=0.5: oracle 0.5 != 1.5",
        "  bounded-k1 s=1 T=4 r_min=0.5: oracle 2.0 != 3.0",
    ]
    assert out.count("ok   ") == 6
    assert lines[-1] == "verification FAILED"


def _run_module(*argv):
    """Run `python -m sybilcost.cli ARGV` on this checkout's package."""
    src = Path(cli.__file__).resolve().parents[1]
    path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    argv = [sys.executable, "-m", "sybilcost.cli", *argv]
    return subprocess.run(argv, capture_output=True, text=True, env=env, timeout=60)


def test_module_entry_point_runs_a_command():
    proc = _run_module("crossover", "--T", "10", "--rmin", "1")
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "1.25\n", "")


def test_module_entry_point_writes_the_bytes_dispatch_writes(tmp_path, capsys):
    proc = _run_module("calibrate", "eth", "--out", str(tmp_path / "module"))
    assert (proc.returncode, proc.stderr) == (0, "")
    code, out, _ = run_cli(capsys, "calibrate", "eth", "--out", str(tmp_path / "dispatch"))
    assert code == cli.EXIT_OK
    assert proc.stdout.replace(str(tmp_path / "module"), str(tmp_path / "dispatch")) == out
    written = sorted(path.name for path in (tmp_path / "module").iterdir())
    assert written == ["fig4-left.csv", "fig4-right.csv"]
    for name in written:
        assert (tmp_path / "module" / name).read_bytes() == (tmp_path / "dispatch" / name).read_bytes()


@pytest.mark.parametrize(
    "argv",
    [
        ("cost", "--class", "par", "--s", "10", "--T", "10", "--rmin", "nan"),
        ("crossover", "--T", "10", "--rmin", "inf"),
        ("sweep", "--s", "1", "--T", "2", "--rmin", "nan", "--format", "json"),
        ("sweep", "--s", "1", "--T", "2", "--rmin", "inf"),
        ("sweep", "--s", "1", "--T", "2", "--rmin", "1,nan"),
        # Finite input whose total overflows: the JSON and CSV emitters refuse inf.
        ("cost", "--class", "par", "--s", "10", "--T", "10", "--rmin", "1e308"),
        ("cost", "--class", "par", "--s", "10", "--T", "10", "--rmin", "1e308", "--format", "csv"),
        ("sweep", "--s", "10", "--T", "10", "--rmin", "1e308"),
    ],
    ids=["cost-nan", "crossover-inf", "sweep-nan", "sweep-inf", "sweep-finite-then-nan",
         "cost-overflow", "cost-overflow-csv", "sweep-overflow-csv"],
)
def test_non_finite_numbers_are_a_one_line_usage_error(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == cli.EXIT_USAGE
    assert out == ""
    assert err.startswith("error:")
    assert err.count("\n") == 1


# A valid invocation of each command; a case appends one option, whose last
# value is the one argparse keeps.
_VALID_ARGV = {
    "cost": ("cost", "--class", "par", "--s", "2", "--T", "3", "--rmin", "1"),
    "cost-k": ("cost", "--class", "bounded-reuse", "--s", "2", "--T", "3", "--rmin", "1",
               "--k", "2"),
    "crossover": ("crossover", "--T", "10", "--rmin", "1"),
    "oracle": ("oracle", "--spec", "pos-stake", "--s", "2", "--T", "2"),
    "simulate": ("simulate", "--spec", "device-bound", "--s", "2", "--n", "1", "--T", "2"),
    "fig3": ("fig3",),
}
_THRESHOLDS = ("0", "-2", "nan", "inf")
_OUT_OF_RANGE = [
    *[("cost", flag, "-1") for flag in ("--s", "--T")],
    *[("cost", "--rmin", value) for value in _THRESHOLDS],
    *[("cost-k", "--k", value) for value in ("0", "-1")],
    *[("crossover", "--T", value) for value in ("0", "-1")],
    *[("crossover", "--rmin", value) for value in _THRESHOLDS],
    ("oracle", "--s", "-1"),
    *[("oracle", flag, value) for flag in ("--T", "--ceiling") for value in ("0", "-1")],
    *[("oracle", "--grid-step", value) for value in _THRESHOLDS],
    *[("simulate", flag, "-1") for flag in ("--m", "--s", "--n")],
    *[("simulate", "--T", value) for value in ("0", "-1")],
    ("fig3", "--n", "-1"),
    # The channel range is the one count the CLI checks itself: the library accepts m = 0.
    *[("fig3", flag, "0") for flag in ("--m-min", "--m-max", "--m-step")],
    ("fig3", "--m-step", "-1"),
]


@pytest.mark.parametrize(
    "command, flag, value", _OUT_OF_RANGE, ids=[f"{c}{f}={v}" for c, f, v in _OUT_OF_RANGE]
)
def test_out_of_range_numbers_are_a_one_line_usage_error(capsys, command, flag, value):
    code, out, err = run_cli(capsys, *_VALID_ARGV[command], flag, value)
    assert (code, out) == (cli.EXIT_USAGE, "")
    assert err.startswith("error:")
    assert err.count("\n") == 1


# The library checks the honest count under the flag's name, n, for both commands.
@pytest.mark.parametrize("command", ["simulate", "fig3"])
def test_a_negative_honest_count_is_named_n(capsys, command):
    code, out, err = run_cli(capsys, *_VALID_ARGV[command], "--n", "-1")
    assert (code, out, err) == (cli.EXIT_USAGE, "", "error: n must be a nonnegative integer, got -1\n")


# The comma-list options share one message form; each value is checked by the library.
@pytest.mark.parametrize(
    "flag, value, kind",
    [("--s", "1,x", "integers"), ("--rmin", "abc", "numbers"),
     ("--coord", "zero,foo", "coordination kinds")],
)
def test_comma_lists_share_one_message(capsys, flag, value, kind):
    code, out, err = run_cli(capsys, "sweep", "--s", "1", "--T", "1", "--rmin", "1", flag, value)
    message = f"error: argument {flag}: expected comma-separated {kind}, got {value!r}\n"
    assert (code, out, err) == (cli.EXIT_USAGE, "", message)


@pytest.mark.parametrize("command", sorted(_VALID_ARGV))
def test_the_out_of_range_cases_start_from_valid_invocations(capsys, command):
    code, _, _ = run_cli(capsys, *_VALID_ARGV[command])
    assert code == cli.EXIT_OK


@pytest.mark.parametrize(
    "fmt, message",
    [("csv", "error: non-finite value inf in column 'adversary_influence' is not CSV compliant\n"),
     ("json", "error: Out of range float values are not JSON compliant: inf\n")],
)
def test_simulate_refuses_an_aggregate_past_the_float_range(tmp_path, capsys, fmt, message):
    data = asdict(resources.preset("pos-stake"))
    data["r_min"] = 1e308
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(data))
    code, out, err = run_cli(capsys, "simulate", "--spec", str(path), "--s", "10", "--n", "1",
                             "--T", "2", "--format", fmt)
    assert (code, out, err) == (cli.EXIT_USAGE, "", message)


@pytest.mark.parametrize(
    "argv",
    [
        ("cost", "--class", "par", "--coord", "linear", "--T", "2", "--rmin", "1"),
        ("simulate", "--spec", "pos-stake", "--n", "1", "--T", "2"),
        ("oracle", "--spec", "pos-stake", "--T", "2"),
        ("sweep", "--T", "1", "--rmin", "1"),
    ],
    ids=["cost", "simulate", "oracle", "sweep"],
)
def test_a_count_too_large_for_a_float_is_a_one_line_usage_error(capsys, argv):
    code, out, err = run_cli(capsys, *argv, "--s", "9" * 400)
    assert (code, out) == (cli.EXIT_USAGE, "")
    assert err.startswith("error:")
    assert err.count("\n") == 1


def test_spec_file_with_non_object_entries_is_a_one_line_error(tmp_path, capsys):
    path = tmp_path / "spec.json"
    path.write_text("[1, 2]")
    code, out, err = run_cli(capsys, "classify", "--spec", str(path))
    assert code == cli.EXIT_USAGE
    assert out == ""
    assert err == "error: spec file must hold an object or an array of objects\n"


@pytest.mark.parametrize(
    "argv",
    [
        ("classify",),
        ("oracle", "--s", "1", "--T", "1"),
        ("simulate", "--s", "1", "--n", "1", "--T", "1"),
    ],
    ids=["classify", "oracle", "simulate"],
)
def test_a_deeply_nested_spec_file_is_a_one_line_error(tmp_path, capsys, argv):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000 + "]" * 100_000)
    code, out, err = run_cli(capsys, *argv, "--spec", str(path))
    assert (code, out) == (cli.EXIT_USAGE, "")
    assert err == f"error: spec file {str(path)!r} is nested too deeply to parse\n"


def test_spec_file_with_a_wrongly_typed_field_names_it(tmp_path, capsys):
    data = asdict(resources.preset("pos-stake"))
    data["r_min"] = "1"
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(data))
    code, out, err = run_cli(capsys, "classify", "--spec", str(path))
    assert code == cli.EXIT_USAGE
    assert out == ""
    assert err == "error: resource field 'r_min' must be a finite number, got '1'\n"
