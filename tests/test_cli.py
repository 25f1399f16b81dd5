import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from sybilcost import cli, oracle, resources


def run_cli(capsys, *argv):
    code = cli.dispatch(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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


def test_cost_partial_requires_alpha(capsys):
    code, _, err = run_cli(capsys, "cost", "--class", "partial", "--s", "2", "--T", "3", "--rmin", "1")
    assert code == cli.EXIT_USAGE
    assert "alpha" in err


def test_cost_rejects_stray_k(capsys):
    code, _, err = run_cli(capsys, "cost", "--class", "par", "--s", "2", "--T", "3",
                           "--rmin", "1", "--k", "2")
    assert code == cli.EXIT_USAGE


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
    path.write_text(json.dumps(resources.spec_to_dict(resources.preset("pos-stake"))))
    code, out, _ = run_cli(capsys, "classify", "--spec", str(path))
    assert code == cli.EXIT_OK
    assert json.loads(out)["resource_class"] == "Parallelizable"


def test_classify_rejects_multi_spec_files(tmp_path, capsys):
    path = tmp_path / "specs.json"
    payload = [
        resources.spec_to_dict(resources.preset("pos-stake")),
        resources.spec_to_dict(resources.preset("device-bound")),
    ]
    path.write_text(json.dumps(payload))
    code, _, err = run_cli(capsys, "classify", "--spec", str(path))
    assert code == cli.EXIT_USAGE
    assert "exactly one" in err


def test_classify_unknown_spec(capsys):
    code, _, err = run_cli(capsys, "classify", "--spec", "no-such-thing")
    assert code == cli.EXIT_USAGE


def test_oracle_json_payload(capsys):
    code, out, _ = run_cli(capsys, "oracle", "--spec", "pos-stake", "--s", "2", "--T", "3")
    assert code == cli.EXIT_OK
    payload = json.loads(out)
    assert payload["min_cost"] == 2.0
    assert payload["verification"]["passed"] is True
    assert payload["witness"]["acquisitions"] == [2.0, 0.0, 0.0]
    assert payload["plans_examined"] > 0


def test_oracle_budget_exhaustion_is_exit_three(capsys):
    code, _, err = run_cli(capsys, "oracle", "--spec", "pos-stake", "--s", "4", "--T", "2",
                           "--ceiling", "10")
    assert code == cli.EXIT_BUDGET
    assert err.startswith("error:")


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


def test_fig3_rejects_a_repeated_identity_count(capsys):
    code, out, err = run_cli(capsys, "fig3", "--s-values", "400,400")
    assert code == cli.EXIT_USAGE
    assert out == ""
    assert err == "error: s_values must not repeat an identity count, got [400, 400]\n"


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


def test_failed_write_leaves_no_partial_file(tmp_path, monkeypatch):
    target = tmp_path / "data.csv"

    def explode(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(os, "replace", explode)
    with pytest.raises(OSError):
        cli._write_text(target, "header\n")
    assert not target.exists()
    assert list(tmp_path.iterdir()) == []


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
    closed_form = oracle.closed_form

    def off_by_one_for_bounded_reuse(scenario):
        semantics = oracle.allocation_semantics(scenario.spec)
        bump = 1.0 if semantics is oracle.AllocationSemantics.BOUNDED_REUSE else 0.0
        return closed_form(scenario) + bump

    monkeypatch.setattr(oracle, "closed_form", off_by_one_for_bounded_reuse)
    code, out, _ = run_cli(capsys, "verify-all")
    lines = out.splitlines()
    assert code == cli.EXIT_VERIFICATION
    # 120 bounded-reuse instances, each failing its closed-form check once.
    header = lines.index("FAIL intermediate-regimes: 120 of 528 checks failed")
    listed = list(itertools.takewhile(lambda line: line.startswith("  "), lines[header + 1 :]))
    assert len(listed) == 8
    assert all(" bounded-k" in line for line in listed)
    assert out.count("ok   ") == 6
    assert lines[-1] == "verification FAILED"


def test_module_entry_point_runs_a_command():
    src = Path(cli.__file__).resolve().parents[1]
    path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    argv = [sys.executable, "-m", "sybilcost.cli", "crossover", "--T", "10", "--rmin", "1"]
    proc = subprocess.run(argv, capture_output=True, text=True, env=env, timeout=60)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "1.25\n", "")


@pytest.mark.parametrize(
    "argv",
    [
        ("cost", "--class", "par", "--s", "10", "--T", "10", "--rmin", "nan"),
        ("crossover", "--T", "10", "--rmin", "inf"),
        ("sweep", "--s", "1", "--T", "2", "--rmin", "nan", "--format", "json"),
        # Finite input whose total overflows: the JSON and CSV emitters refuse inf.
        ("cost", "--class", "par", "--s", "10", "--T", "10", "--rmin", "1e308"),
        ("cost", "--class", "par", "--s", "10", "--T", "10", "--rmin", "1e308", "--format", "csv"),
        ("sweep", "--s", "10", "--T", "10", "--rmin", "1e308"),
    ],
    ids=["cost-nan", "crossover-inf", "sweep-nan", "cost-overflow", "cost-overflow-csv",
         "sweep-overflow-csv"],
)
def test_non_finite_numbers_are_a_one_line_usage_error(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == cli.EXIT_USAGE
    assert out == ""
    assert err.startswith("error:")
    assert err.count("\n") == 1


def test_spec_file_with_non_object_entries_is_a_one_line_error(tmp_path, capsys):
    path = tmp_path / "spec.json"
    path.write_text("[1, 2]")
    code, out, err = run_cli(capsys, "classify", "--spec", str(path))
    assert code == cli.EXIT_USAGE
    assert out == ""
    assert err == "error: spec file must hold an object or an array of objects\n"


def test_spec_file_with_a_wrongly_typed_field_names_it(tmp_path, capsys):
    data = resources.spec_to_dict(resources.preset("pos-stake"))
    data["r_min"] = "1"
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(data))
    code, out, err = run_cli(capsys, "classify", "--spec", str(path))
    assert code == cli.EXIT_USAGE
    assert out == ""
    assert err == "error: resource field 'r_min' must be a finite number, got '1'\n"
