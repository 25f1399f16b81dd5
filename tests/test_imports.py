"""The package loads each module on first use: a fresh interpreter's footprint."""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

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
for module in ("calibration", "cli", "costs", "oracle", "resources", "simulation"):
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


def test_modules_load_on_first_use():
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    proc = subprocess.run([sys.executable, "-c", PROBE], capture_output=True, text=True,
                          env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["after_package"] == []
    assert report["after_cli"] == [
        "sybilcost.cli", "sybilcost.costs", "sybilcost.oracle", "sybilcost.resources"
    ]
    assert len(report["all"]) == 38
    assert report["same_object"] is True
    assert report["star"] == sorted(report["all"])
    assert report["unknown"] == "module 'sybilcost' has no attribute 'no_such_name'"
    assert report["after_all"] == [
        "sybilcost.calibration", "sybilcost.cli", "sybilcost.costs", "sybilcost.oracle",
        "sybilcost.resources", "sybilcost.simulation",
    ]
