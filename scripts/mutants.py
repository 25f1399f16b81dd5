#!/usr/bin/env python3
"""Run a fixed list of one-line source mutants against the oracle's checks.

Each mutant replaces one text that occurs exactly once in one file under
src/sybilcost/.  For each, the tree is copied to a temporary directory and
patched there, never in the checkout, and these checks run one subprocess at
a time: tests/test_oracle.py, tests/test_oracle_scan.py and
tests/test_uniform_plan.py until one fails, then `python -m sybilcost.cli
verify-all` always.  A mutant is killed by the first check that fails, and
survives if all pass; the "verify-all alone" column says whether verify-all
fails on it, whatever the tests did.  The unmutated copy must pass them all
first.  Every mutant is run, and the kill table goes to stdout.  The exit
code is 0 only when every mutant is killed.

    python scripts/mutants.py   # a few minutes
"""

import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# (name, file under src/sybilcost/, old text, new text)
MUTANTS = (
    ("bounded-reuse-k-is-T", "resources.py",
     "if spec.k is None else spec.k", "if spec.k is None else T"),
    ("partial-transfer-alpha-is-1", "resources.py",
     "if spec.alpha is None else spec.alpha", "if spec.alpha is None else 1.0"),
    ("renewals-plus-one", "law.py",
     "flow += a * renewals * p * scale", "flow += a * (renewals + 1) * p * scale"),
    ("renew-every-k-plus-1-windows", "law.py",
     "window % k == 0", "window % (k + 1) == 0"),
    ("floor-units-eps-toward-zero", "plans.py",
     "count * n * f + e * abs(count * n)", "count * n * f - e * abs(count * n)"),
    ("floor-units-rounds-up", "plans.py",
     "* q // (d * f * p)", "* q // -(d * f * p) * -1"),
    ("search-ignores-tau", "oracle.py",
     "hi = min(hi, _floor_units(spec.tau, 1, step))", "hi = hi"),
    ("plan-feasible-ignores-tau", "plans.py",
     "cap = math.inf if spec.tau is None else", "cap = math.inf if True else"),
    ("search-target-strict", "oracle.py",
     "if reached < need:", "if reached <= need:"),
    ("search-skips-threshold-level", "oracle.py",
     "range(lo, hi + 1)", "range(lo + 1, hi + 1)"),
    ("search-drops-zero-level", "oracle.py",
     "(0, *range(lo, hi + 1))", "(*range(lo, hi + 1),)"),
    ("plan-cost-drops-coordination", "plans.py",
     "return sum(plan.acquisitions) + scenario.coordination.evaluate(scenario.s, scenario.T)",
     "return sum(plan.acquisitions)"),
    ("verify-floor-eps-flipped", "oracle.py",
     "floor_value * (1.0 - FEASIBILITY_EPS)", "floor_value * (1.0 + FEASIBILITY_EPS)"),
    ("count-check-ignores-least", "law.py",
     "type(value) is not int or value < least", "type(value) is not int or value < 0"),
    ("threshold-check-admits-zero", "law.py",
     "math.isfinite(value) and value > 0", "math.isfinite(value) and value >= 0"),
    ("bounded-reuse-k-minus-1", "resources.py",
     "else spec.k", "else max(1, spec.k - 1)"),
    ("partial-transfer-alpha-halved", "resources.py",
     "else spec.alpha", "else spec.alpha / 2"),
    ("bnd-priced-from-stake-window", "verification.py",
     '_search("bnd", device,', '_search("bnd", stake,'),
)

TESTS = ("tests/test_oracle.py", "tests/test_oracle_scan.py", "tests/test_uniform_plan.py")
TIMEOUT_S = 600


def _failure(tree, label, argv):
    """None if the check passes in TREE, else the failing test's id or the check's label."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    try:
        proc = subprocess.run(argv, cwd=tree, env=env, capture_output=True, text=True,
                              timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return f"{label} (timed out after {TIMEOUT_S} s)"
    if proc.returncode == 0:
        return None
    failed = re.search(r"^FAILED (\S+)", proc.stdout, re.MULTILINE)
    return failed.group(1) if failed else f"{label} (exit {proc.returncode})"


def _failures(tree):
    """(the first check to fail in TREE, verify-all's failure), each None if none fails.

    The test files run until one fails; verify-all runs whatever they did.
    """
    pytest = [sys.executable, "-m", "pytest", "-x", "-q", "-rf", "-p", "no:cacheprovider",
              "--hypothesis-seed=0"]
    tests = next(filter(None, (_failure(tree, path, [*pytest, path]) for path in TESTS)), None)
    verify = _failure(tree, "verify-all", [sys.executable, "-m", "sybilcost.cli", "verify-all"])
    return tests or verify, verify


def _copy_tree(target):
    # No bytecode is copied: a patched file of the same size and timestamp could
    # otherwise load its unpatched cache.
    ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
    for name in ("src", "tests"):
        shutil.copytree(ROOT / name, target / name, ignore=ignore)
    shutil.copy(ROOT / "pyproject.toml", target / "pyproject.toml")


def _patch(tree, file, old, new):
    path = tree / "src" / "sybilcost" / file
    text = path.read_text()
    if text.count(old) != 1:
        raise SystemExit(f"{file}: expected one {old!r}, found {text.count(old)}")
    path.write_text(text.replace(old, new))


def main():
    with tempfile.TemporaryDirectory(prefix="sybilcost-mutants-") as scratch:
        base = Path(scratch) / "base"
        _copy_tree(base)
        failure, _ = _failures(base)
        if failure is not None:
            print(f"the unmutated tree fails {failure}; no mutant was run", file=sys.stderr)
            return 1
        rows = []
        for name, file, old, new in MUTANTS:
            tree = Path(scratch) / name
            _copy_tree(tree)
            _patch(tree, file, old, new)
            killer, verify = _failures(tree)
            rows.append((name, file, "killed" if killer else "SURVIVED", killer or "-",
                         "killed" if verify else "survived"))
            print(f"{name}: {rows[-1][2]}", file=sys.stderr, flush=True)
            shutil.rmtree(tree)

    header = ("mutant", "file", "result", "killed by", "verify-all alone")
    widths = [max(len(row[i]) for row in [header, *rows]) for i in range(len(header))]
    for row in [header, *rows]:
        print("  ".join(cell.ljust(width) for cell, width in zip(row, widths)).rstrip())
    survivors = sum(row[2] == "SURVIVED" for row in rows)
    alone = sum(row[4] == "killed" for row in rows)
    print(f"{len(rows) - survivors} of {len(rows)} killed;"
          f" verify-all alone kills {alone} of {len(rows)}")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
