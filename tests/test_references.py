"""Byte-identity gate: what the CLI emits matches the recorded references.

Every op of the benchmark's verify-grid, datasets and cli-cold workloads is
replayed once and checked against perfbench/references.json, through the
benchmark's own workload code, so the harness is exercised too.  Outputs in
formats those workloads never request (JSON tables, CSV cost reports, other
coordination models) are pinned below by the sha256 of their stdout.
"""

import hashlib
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

from sybilcost import cli

ROOT = Path(__file__).resolve().parent.parent


def _load_workloads():
    path = ROOT / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


WORKLOADS = _load_workloads()
REFERENCES = json.loads(WORKLOADS.REFERENCES.read_text())


@pytest.mark.parametrize("name", ["verify-grid", "datasets", "cli-cold"])
def test_benchmark_ops_match_their_references(name, tmp_path):
    workload = WORKLOADS.WORKLOADS[name](REFERENCES, tmp_path)
    assert set(workload.items) == set(REFERENCES[name])
    problems = [workload.run(item).problem for item in workload.items]
    assert [problem for problem in problems if problem is not None] == []


PINNED = {
    "taxonomy --format json":
        "bd55c4a0fd899643638adeee9db1d005ece728e74fb556bbcdbfbddfa546af65",
    "crossover --table --format json":
        "af902b713385d3f4ac3ecc4a5b963f76fb9b4eadb49138c3a36301fb9ee2581b",
    "simulate --spec device-bound --m 50 --s 400 --n 200 --T 10 --format json":
        "2f0f3d79303af1cbf9aab744a47159498f9e9ec017d06e27cad28d40f2653e43",
    "simulate --spec pos-stake --s 400 --n 200 --T 10 --format json":
        "62cdc6409e69c2e8387df507a8d5f8c9570171729d71b1a4ea0c43bac0a4cd78",
    "fig3 --format json":
        "7c2d5418b9949edbeda333b2ecaebf1c4e634fe1207d636e23a46e5fbaa41a26",
    "sweep --preset fig2 --format json":
        "831e45dfb844bb865bb6dc297a4514c2b92b5d5b9bd9a48666270173e2f75d8f",
    "sweep --s 1,2 --T 3 --rmin 0.5,1 --coord zero,linear --format json":
        "bbfe17394e06540aff43f68afd6d4d3e277a71943397c97ccf702531364dbf38",
    "cost --class par --s 10 --T 100 --rmin 1 --coord linear --format csv":
        "75afbe675ea7814ed51672efab13e9574d3b1ec71bf234bf0873f44337510033",
    "cost --class bnd --s 10 --T 100 --rmin 1 --format csv":
        "faeed2454a1358d0a9424cf89f898b93bfb63182e8e0f86a5f5f921e68c30027",
    "cost --class hybrid --s 10 --T 100 --rmin 1 --coord linear --format csv":
        "83993e3c3616909ace8c6964852e68f3fb0415a87b95113700dfc32db99d0ee2",
    "cost --class partial --s 4 --T 10 --rmin 1 --alpha 0.5 --format csv":
        "cd502727d8352c3e22f40a4872dbb4aba175e6a78eebf3702ef909b0f81500e1",
    "cost --class bounded-reuse --s 2 --T 10 --rmin 1 --k 5 --format csv":
        "5e236917508538a2ee1f454151a1a63fd09948981544f4987fddaad304dd5e1b",
    "cost --class par --s 10 --T 100 --rmin 1 --coord linear":
        "01c82c56188640c81567c78785c820e8ce0eb67763eb1eeb9542052d89641133",
    "cost --class hybrid --s 0 --T 5 --rmin 0.5":
        "a59d465dfd0b71c3991371e4de5731edc5f19fc70b91d3037ccdfb36221e4045",
    "cost --class bounded-reuse --s 2 --T 10 --rmin 1 --k 5":
        "27a1d7890a364ede0ee2e4bad4cc41189f2c3ff259dfabc5f30c7dda0bb0dae9",
    "oracle --spec pos-stake --s 3 --T 2 --coord linear":
        "df53b1d9f108c1eac96ff999c6fe180630bac61dbe3c8f7c06f2463d6c0f0f3d",
}


@pytest.mark.parametrize("command", list(PINNED))
def test_output_matches_its_pinned_digest(command, capsys):
    code = cli.dispatch(command.split())
    out = capsys.readouterr().out
    assert code == cli.EXIT_OK
    assert hashlib.sha256(out.encode()).hexdigest() == PINNED[command]


def test_benchmark_smoke_mode_runs_every_workload():
    # Two ops per workload, untraced and traced: the tracer looks its wrapped
    # names up in the package, so renaming one breaks the traced runs.
    argv = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--smoke"]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert sum(line.endswith(": ok") for line in proc.stdout.splitlines()) == 8


def test_reused_parser_carries_no_state_between_dispatches(capsys, monkeypatch):
    builds = []
    build_parser = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: builds.append(1) or build_parser())
    without_alpha = "cost --class partial --s 4 --T 10 --rmin 1"
    command = without_alpha + " --alpha 0.5"
    assert cli.dispatch(without_alpha.split()) == cli.EXIT_USAGE
    assert cli.dispatch("cost --class par --s 1 --T 1 --rmin nan".split()) == cli.EXIT_USAGE
    capsys.readouterr()
    assert cli.dispatch(command.split()) == cli.EXIT_OK
    out = capsys.readouterr().out.encode()
    assert hashlib.sha256(out).hexdigest() == REFERENCES["cli-cold"][command]["stdout_sha256"]
    assert len(builds) <= 1  # one parser serves every dispatch in a process
    assert build_parser() is not build_parser()
