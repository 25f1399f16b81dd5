"""The package loads each module on first use: a fresh interpreter's footprint."""

import argparse
import ast
import dataclasses
import importlib
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from sybilcost import arguments
from sybilcost.resources import ResourceSpec

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
for module in ("arguments", "calibration", "cli", "costs", "law", "oracle", "plans", "resources",
               "simulation", "specfiles", "verification"):
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
    assert report["after_cli"] == ["sybilcost.arguments", "sybilcost.cli", "sybilcost.law"]
    assert report["all"] == PUBLIC_NAMES
    assert report["same_object"] is True
    assert report["star"] == sorted(report["all"])
    assert report["unknown"] == "module 'sybilcost' has no attribute 'no_such_name'"
    assert report["after_all"] == [
        "sybilcost.arguments", "sybilcost.calibration", "sybilcost.cli", "sybilcost.costs",
        "sybilcost.law", "sybilcost.oracle", "sybilcost.plans", "sybilcost.resources",
        "sybilcost.simulation", "sybilcost.specfiles", "sybilcost.verification",
    ]


# With no bytecode cache, each process compiles every module it loads, and the
# compiler's peak memory is not returned: the largest unit on a run's path sets
# a floor under that run's peak RSS.  Every process compiles `cli`, and a
# command's own module holds its handler, so `cli` is held lower still.
COMPILE_PEAK_LIMIT = 700 * 1024
CLI_COMPILE_PEAK_LIMIT = 400 * 1024


def _compile_peak(path):
    source = path.read_text()
    tracemalloc.start()
    try:
        compile(source, str(path), "exec")
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


MODULE_PATHS = sorted((SRC / "sybilcost").rglob("*.py"))


@pytest.mark.parametrize("path", MODULE_PATHS,
                         ids=lambda p: p.relative_to(SRC / "sybilcost").as_posix())
def test_no_module_is_a_large_compile_unit(path):
    peak = _compile_peak(path)
    assert peak <= COMPILE_PEAK_LIMIT, f"{path.name} compiles with a {peak // 1024} KiB peak"


# A process that searches and checks the minimum against the regime laws
# (`from sybilcost import costs, oracle, resources`) compiles these five, so
# each is pinned by name and held lower than the rest: a rename or a split that
# moves the search's code out of reach of the guard shows here.
SEARCH_COMPILE_PEAK_LIMIT = 550 * 1024


@pytest.mark.parametrize("name", ["costs.py", "law.py", "oracle.py", "plans.py", "resources.py"])
def test_the_search_modules_are_small_compile_units(name):
    peak = _compile_peak(SRC / "sybilcost" / name)
    assert peak <= SEARCH_COMPILE_PEAK_LIMIT, f"{name} compiles with a {peak // 1024} KiB peak"


def test_cli_is_a_small_compile_unit():
    peak = _compile_peak(SRC / "sybilcost" / "cli.py")
    assert peak <= CLI_COMPILE_PEAK_LIMIT, f"cli.py compiles with a {peak // 1024} KiB peak"


# A tuple built from a generator is kept on a free list after every call, so
# repeated commands grow the heap (see test_memory.py); build it from a list.
def test_no_tuple_is_built_from_a_generator():
    sites = []
    for path in MODULE_PATHS:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "tuple"
                and node.args
                and isinstance(node.args[0], ast.GeneratorExp)
            ):
                sites.append(f"{path.relative_to(SRC).as_posix()}:{node.lineno}")
    assert not sites, f"tuple(<generator>) at {', '.join(sorted(sites))}"


# `law` owns two rules that a module might restate: a quotient rounded to inf
# past the float range (`law._quotient`) and the integer-count rule
# (`law._check_count`).  An `except OverflowError` or a `type(...) is int`
# anywhere else is a second copy, except in `cli.dispatch`, which turns every
# refusal into one `error:` line, and `specfiles._has_type`, which checks JSON types.
RULE_EXEMPT = {("cli.py", "dispatch"), ("specfiles.py", "_has_type")}


def _restated_rules(path):
    """(rule, "file:line") for each OverflowError handler and `type(...) is int` in a module."""
    name = path.relative_to(SRC / "sybilcost").as_posix()
    tree = ast.parse(path.read_text(), str(path))
    exempt = {id(node) for function in ast.walk(tree)
              if isinstance(function, ast.FunctionDef) and (name, function.name) in RULE_EXEMPT
              for node in ast.walk(function)}
    sites = []
    for node in ast.walk(tree):
        if id(node) in exempt:
            continue
        if isinstance(node, ast.ExceptHandler) and node.type is not None:
            kinds = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
            if any(isinstance(kind, ast.Name) and kind.id == "OverflowError" for kind in kinds):
                sites.append(("overflow", f"{name}:{node.lineno}"))
        if (
            isinstance(node, ast.Compare)
            and isinstance(node.left, ast.Call)
            and isinstance(node.left.func, ast.Name)
            and node.left.func.id == "type"
            and any(isinstance(op, (ast.Is, ast.IsNot)) for op in node.ops)
            and any(isinstance(right, ast.Name) and right.id == "int" for right in node.comparators)
        ):
            sites.append(("count", f"{name}:{node.lineno}"))
    return sites


def test_each_rule_that_law_owns_is_written_only_there():
    owner = SRC / "sybilcost" / "law.py"
    # The walk finds both rules in their owner, so finding none elsewhere means something.
    assert {rule for rule, _ in _restated_rules(owner)} == {"overflow", "count"}
    copies = [site for path in MODULE_PATHS if path != owner for _, site in _restated_rules(path)]
    assert not copies, f"a rule that `law` owns is restated at {', '.join(sorted(copies))}"


# The parser turns every --coord name into its member, so a command module that
# calls `CoordinationModel(...)` converts a name a second time.
def test_no_command_converts_a_coordination_name():
    sites = [
        f"{path.name}:{node.lineno}"
        for path in sorted((SRC / "sybilcost" / "commands").glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Call)
        and getattr(node.func, "id", getattr(node.func, "attr", None)) == "CoordinationModel"
    ]
    assert not sites, f"a command converts a coordination name at {', '.join(sites)}"


# `cli.dispatch` turns every refusal into its one `error:` line and exit code, the
# plan ceiling's exit 3 among them, so a command module catches nothing.
def test_no_command_catches_an_exception():
    sites = [
        f"{path.name}:{node.lineno}"
        for path in sorted((SRC / "sybilcost" / "commands").glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Try)
    ]
    assert not sites, f"a command catches an exception at {', '.join(sites)}"


# The spec-file format is `ResourceSpec`'s fields and annotations, so `specfiles`
# names no field: a string that is a field's name would restate the dataclass.
def test_the_spec_reader_names_no_field():
    names = {field.name for field in dataclasses.fields(ResourceSpec)}
    path = SRC / "sybilcost" / "specfiles.py"
    sites = [
        f"{path.name}:{node.lineno}"
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Constant) and node.value in names
    ]
    assert not sites, f"the spec reader names a field at {', '.join(sites)}"


def _calls(path):
    """(enclosing function or None, call node) for each call in a module."""
    tree = ast.parse(path.read_text(), str(path))
    owner = {id(node): function.name for function in ast.walk(tree)
             if isinstance(function, ast.FunctionDef) for node in ast.walk(function)}
    return [(owner.get(id(node)), node) for node in ast.walk(tree) if isinstance(node, ast.Call)]


# `cli._write_with` writes every file through a scratch file it renames, so no
# other code opens or writes a file itself.
def test_the_cli_sink_is_the_only_code_that_opens_a_file():
    sites = [
        (path.relative_to(SRC / "sybilcost").as_posix(), function)
        for path in MODULE_PATHS
        for function, call in _calls(path)
        if getattr(call.func, "id", getattr(call.func, "attr", None))
        in ("open", "write_text", "write_bytes")
    ]
    assert sites == [("cli.py", "_write_with")]


# `law._check_rows` sizes every result of T rows against the plan ceiling, so the
# only other budget refusal is the grid count in `oracle.best_window`.
def test_the_budget_refusal_is_raised_only_by_its_two_owners():
    sites = {
        (path.relative_to(SRC / "sybilcost").as_posix(), function)
        for path in MODULE_PATHS
        for function, call in _calls(path)
        if getattr(call.func, "id", getattr(call.func, "attr", None)) == "PlanBudgetExceeded"
    }
    assert sites == {("law.py", "_check_rows"), ("oracle.py", "best_window")}


# `cli._write_table` owns the output formats, so a command module hands
# `cli._emit` its rows and payload and serializes nothing itself.
def test_no_command_serializes_its_own_output():
    sites = [
        f"{path.name}:{call.lineno}"
        for path in sorted((SRC / "sybilcost" / "commands").glob("*.py"))
        for _function, call in _calls(path)
        if isinstance(call.func, ast.Attribute)
        and (getattr(call.func.value, "id", None), call.func.attr)
        in (("json", "dumps"), ("json", "dump"), ("csv", "writer"))
    ]
    assert not sites, f"a command serializes its output at {', '.join(sites)}"



# One JSON encoder: every document, table or not, is encoded in `cli._write_table`.
def test_only_the_table_writer_encodes_json():
    sites = [
        f"{path.relative_to(SRC / 'sybilcost').as_posix()}:{function}"
        for path in MODULE_PATHS
        for function, call in _calls(path)
        if isinstance(call.func, ast.Attribute)
        and (getattr(call.func.value, "id", None), call.func.attr)
        in (("json", "dump"), ("json", "dumps"), ("json", "JSONEncoder"))
    ]
    assert sites == ["cli.py:_write_table"]

def _module_name(command):
    return "sybilcost.commands." + command.replace("-", "_")


def _subcommands():
    """The subcommand names `arguments.build_parser()` accepts."""
    (subcommands,) = [action.choices for action in arguments.build_parser()._actions
                      if isinstance(action, argparse._SubParsersAction)]
    return set(subcommands)


def test_every_subcommand_has_a_command_module():
    subcommands = _subcommands()
    for command in subcommands:
        assert callable(importlib.import_module(_module_name(command)).run), command
    modules = {path.stem for path in (SRC / "sybilcost" / "commands").glob("*.py")}
    assert modules - {"__init__"} == {command.replace("-", "_") for command in subcommands}


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
        "sybilcost", "sybilcost.law", "sybilcost.oracle", "sybilcost.plans",
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


# Each command loads its own command module and no other, and of the library
# only the modules it calls.
COMMAND_PROBE = """
import contextlib, io, json, sys
from sybilcost import cli

with contextlib.redirect_stdout(io.StringIO()):
    code = cli.dispatch(sys.argv[1:])
loaded = sorted(name for name in sys.modules if name.startswith("sybilcost."))
print(json.dumps([code, [name for name in loaded if name.startswith("sybilcost.commands.")],
                  [name for name in loaded if name.count(".") == 1]]))
"""

# Every command loads these: the parser names the coordination models.
CLI_MODULES = {"arguments", "cli", "commands", "law"}
# What each command loads besides: only `oracle` and `verify-all` search,
# `taxonomy`, `classify`, `oracle`, `simulate` and `fig3` price no regime law,
# and `cost`, `crossover`, `calibrate` and `sweep` read no resource spec.
LIBRARY_MODULES = {
    "calibrate": {"calibration", "costs"},
    "classify": {"resources"},
    "cost": {"costs"},
    "crossover": {"costs"},
    "fig3": {"resources", "simulation"},
    "oracle": {"oracle", "plans", "resources"},
    "simulate": {"resources", "simulation"},
    "sweep": {"costs"},
    "taxonomy": {"resources"},
    "verify-all": {"costs", "oracle", "plans", "resources", "verification"},
}


def _readme_commands():
    """The argv of each `sybilcost ...` line in the README's shell blocks."""
    readme = (SRC.parent / "README.md").read_text()
    return [line.split("#")[0].split()[1:] for line in readme.splitlines()
            if line.startswith("sybilcost ")]


README_COMMANDS = _readme_commands()


def test_the_readme_names_every_subcommand():
    assert {argv[0] for argv in README_COMMANDS} == _subcommands()


def _loaded_by(argv, cwd):
    """Run COMMAND_PROBE on ARGV: exit code, command modules, library modules by short name."""
    proc = subprocess.run([sys.executable, "-c", COMMAND_PROBE, *argv], capture_output=True,
                          text=True, env=_env(), cwd=cwd, timeout=60)
    assert proc.returncode == 0, proc.stderr
    code, commands, library = json.loads(proc.stdout)
    return code, commands, {name.split(".")[1] for name in library}


@pytest.mark.parametrize("argv", README_COMMANDS, ids=" ".join)
def test_each_command_loads_only_its_own_module(tmp_path, argv):
    code, commands, library = _loaded_by(argv, tmp_path)
    assert (code, commands) == (0, [_module_name(argv[0])])
    assert library == CLI_MODULES | LIBRARY_MODULES[argv[0]]


# `classify --spec pos-stake` above loads no JSON reader; a spec file loads `specfiles`.
def test_a_spec_file_loads_the_spec_reader(tmp_path):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({
        "name": "stake-file", "divisible": True, "additive_influence": True,
        "temporally_reusable": True, "identity_transferable": True,
    }))
    code, _commands, library = _loaded_by(["classify", "--spec", str(spec)], tmp_path)
    assert code == 0
    assert library == CLI_MODULES | {"resources", "specfiles"}
