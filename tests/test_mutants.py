"""The mutation list in scripts/mutants.py stays applicable: each old text occurs once.

Running the mutants takes minutes and stays out of this suite; this only
keeps the list from rotting when the code it patches changes.
"""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _load_mutants():
    spec = importlib.util.spec_from_file_location("mutants", ROOT / "scripts" / "mutants.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.MUTANTS


MUTANTS = _load_mutants()


def test_mutant_names_are_distinct():
    names = [name for name, *_ in MUTANTS]
    assert len(set(names)) == len(names)


@pytest.mark.parametrize("name, file, old, new", MUTANTS, ids=[mutant[0] for mutant in MUTANTS])
def test_each_mutant_patches_exactly_one_place(name, file, old, new):
    text = (ROOT / "src" / "sybilcost" / file).read_text()
    assert text.count(old) == 1
    assert old != new
