"""The package loads each module on first use: a fresh interpreter's footprint."""

import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"


def _env():
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path)


# Run in a fresh interpreter, so no module loaded by another test counts.
PROBE = """
import json, sys

def loaded():
    return sorted(name for name in sys.modules if name.startswith("sybilcost."))

import sybilcost
after_package = loaded()
import sybilcost.cli
after_cli = loaded()
same_object = all(
    getattr(sybilcost, name) is getattr(sys.modules[getattr(sybilcost, name).__module__], name)
    for name in sybilcost.__all__
)
namespace = {}
exec("from sybilcost import *", namespace)
# A stale __all__ entry in any submodule makes its star import raise.
for module in ("arguments", "calibration", "cli", "costs", "oracle", "plans", "resources",
               "simulation", "verification"):
    exec(f"from sybilcost.{module} import *", {})
try:
    sybilcost.no_such_name
    unknown = "resolved"
except AttributeError as exc:
    unknown = str(exc)
print(json.dumps({
    "after_package": after_package,
    "after_cli": after_cli,
    "all": sybilcost.__all__,
    "same_object": same_object,
    "star": sorted(set(namespace) - {"__builtins__"}),
    "unknown": unknown,
    "after_all": loaded(),
}))
"""

# The package's public names, sorted: a removed or added export shows by name.
PUBLIC_NAMES = [
    "AllocationPlan", "CalibrationScenario", "CalibrationSeries", "CoordinationModel",
    "CostReport", "OracleResult", "OracleScenario", "PlanBudgetExceeded", "PlanGrid",
    "ResourceClass", "ResourceClassification", "ResourceSpec", "ScenarioConfig", "SimTrace",
    "btc_tiers", "classify", "cost_bounded_reuse", "cost_hybrid", "cost_parallelizable",
    "cost_partial_transferability", "cost_throughput_bounded", "crossover", "crossover_table",
    "eth_scenario", "governance_hybrid", "influence_share", "is_parallelizable", "min_cost",
    "non_amplification_experiment", "plan_cost", "plan_feasible", "preset", "run",
    "run_calibration", "verify_bounds",
]


def test_modules_load_on_first_use():
    proc = subprocess.run([sys.executable, "-c", PROBE], capture_output=True, text=True,
                          env=_env(), timeout=60)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["after_package"] == []
    assert report["after_cli"] == [
        "sybilcost.arguments", "sybilcost.cli", "sybilcost.costs", "sybilcost.resources",
    ]
    assert report["all"] == PUBLIC_NAMES
    assert report["same_object"] is True
    assert report["star"] == sorted(report["all"])
    assert report["unknown"] == "module 'sybilcost' has no attribute 'no_such_name'"
    assert report["after_all"] == [
        "sybilcost.arguments", "sybilcost.calibration", "sybilcost.cli", "sybilcost.costs",
        "sybilcost.oracle", "sybilcost.plans", "sybilcost.resources", "sybilcost.simulation",
        "sybilcost.verification",
    ]


# With no bytecode cache, each process compiles every module it loads, and the
# compiler's peak memory is not returned: the largest unit on a run's path sets
# a floor under that run's peak RSS.
COMPILE_PEAK_LIMIT = 1_200 * 1024
# Every searching process compiles the oracle, the plan model and the resource
# specs, and the largest of the three sets a floor under its peak RSS, so all
# three are held lower.
SEARCH_COMPILE_PEAK_LIMIT = 700 * 1024


def _compile_peak(path):
    source = path.read_text()
    tracemalloc.start()
    try:
        compile(source, str(path), "exec")
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("path", sorted((SRC / "sybilcost").glob("*.py")), ids=lambda p: p.name)
def test_no_module_is_a_large_compile_unit(path):
    peak = _compile_peak(path)
    assert peak <= COMPILE_PEAK_LIMIT, f"{path.name} compiles with a {peak // 1024} KiB peak"


@pytest.mark.parametrize("name", ["oracle.py", "plans.py", "resources.py"])
def test_the_search_modules_are_small_compile_units(name):
    peak = _compile_peak(SRC / "sybilcost" / name)
    assert peak <= SEARCH_COMPILE_PEAK_LIMIT, f"{name} compiles with a {peak // 1024} KiB peak"


# A fresh `import sybilcost.oracle` loads what the search needs and no more.
SEARCH_PROBE = """
import json, sys
import sybilcost.oracle
print(json.dumps(sorted(name for name in sys.modules if name.split(".")[0] == "sybilcost")))
"""


def test_the_oracle_loads_only_what_it_searches_with():
    proc = subprocess.run([sys.executable, "-c", SEARCH_PROBE], capture_output=True, text=True,
                          env=_env(), timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [
        "sybilcost", "sybilcost.costs", "sybilcost.oracle", "sybilcost.plans",
        "sybilcost.resources",
    ]


# Which commands load the oracle (only the two that search) and the verification grid.
ORACLE_PROBE = """
import contextlib, io, json, runpy, sys
from sybilcost import cli

with contextlib.redirect_stdout(io.StringIO()):
    if sys.argv[1] == "make_datasets":
        code = runpy.run_path(sys.argv[2])["main"](["--out", sys.argv[3]])
    else:
        code = cli.dispatch(sys.argv[1:])
print(json.dumps({"exit": code, "oracle": "sybilcost.oracle" in sys.modules}))
print(json.dumps("sybilcost.verification" in sys.modules))
"""


def _run_probe(argv):
    """Run ORACLE_PROBE on ARGV; return its report line and whether the grid loaded."""
    proc = subprocess.run([sys.executable, "-c", ORACLE_PROBE, *argv], capture_output=True,
                          text=True, env=_env(), timeout=60)
    assert proc.returncode == 0, proc.stderr
    report, verification = proc.stdout.splitlines()
    return json.loads(report), json.loads(verification)


@pytest.mark.parametrize(
    "argv, loads_oracle",
    [
        (["make_datasets", str(SRC.parent / "scripts" / "make_datasets.py")], False),
        (["oracle", "--spec", "device-bound", "--s", "2", "--T", "3"], True),
        (["verify-all"], True),
        (["simulate", "--spec", "device-bound", "--m", "50", "--s", "400", "--n", "200",
          "--T", "10"], False),
    ],
    ids=["make_datasets", "oracle", "verify-all", "simulate"],
)
def test_only_searching_commands_load_the_oracle(tmp_path, argv, loads_oracle):
    if argv[0] == "make_datasets":
        argv = [*argv, str(tmp_path / "datasets")]
    report, _verification = _run_probe(argv)
    assert report == {"exit": 0, "oracle": loads_oracle}


@pytest.mark.parametrize(
    "argv, loads_grid",
    [(["oracle", "--spec", "device-bound", "--s", "2", "--T", "3"], False), (["verify-all"], True)],
    ids=["oracle", "verify-all"],
)
def test_only_verify_all_loads_the_verification_grid(argv, loads_grid):
    report, verification = _run_probe(argv)
    assert report["exit"] == 0
    assert verification is loads_grid


# The CSV writer loads only for a command that writes CSV.
CSV_PROBE = """
import contextlib, io, json, sys
from sybilcost import cli

with contextlib.redirect_stdout(io.StringIO()):
    code = cli.dispatch(sys.argv[1:])
print(json.dumps([code, "csv" in sys.modules, "_csv" in sys.modules]))
"""


@pytest.mark.parametrize(
    "argv, loads_csv",
    [
        (["verify-all"], False),
        (["oracle", "--spec", "device-bound", "--s", "2", "--T", "3"], False),
        (["crossover", "--table"], True),
    ],
    ids=["verify-all", "oracle", "crossover-table"],
)
def test_only_csv_output_loads_the_csv_writer(argv, loads_csv):
    proc = subprocess.run([sys.executable, "-c", CSV_PROBE, *argv], capture_output=True,
                          text=True, env=_env(), timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [0, loads_csv, loads_csv]
