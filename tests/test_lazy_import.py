"""The analysis half of drslab loads on first use.

``import drslab`` loads ``operators``, ``drs`` and ``catalog``; ``blocks``,
``ppa``, ``equivalence`` and ``cyclic`` load when one of their names is first
taken from the package, which then binds that name for good.
"""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import drslab as dl

ANALYSIS = ("blocks", "ppa", "equivalence", "cyclic")

#: Public names that are not a class or function defined in their module.
CONSTANTS = {
    "blocks": (),
    "ppa": ("PpaSystem",),
    "equivalence": ("RECURSION", "LIFTED", "REDUCED", "REDUCED_DIRECT", "REDUCED_FALLBACK"),
    "cyclic": ("PROXIMAL", "NOT_PROXIMAL", "INCONCLUSIVE"),
}


def public_names(home, module):
    """The classes and functions the module defines, and its CONSTANTS."""
    defined = [name for name, value in vars(module).items()
               if not name.startswith("_") and getattr(value, "__module__", None) == module.__name__]
    return sorted({*defined, *CONSTANTS[home]})


def test_a_solve_loads_no_analysis_module():
    code = """
import sys
import drslab
analysis = {f"drslab.{m}" for m in ("blocks", "ppa", "equivalence", "cyclic")}
def loaded():
    return sorted(analysis & set(sys.modules))
drslab.run, drslab.standard_catalog, drslab.solution_certificate
assert loaded() == [], loaded()
assert {"sample_cycles", "compare_formulations", "cyclic"} <= set(dir(drslab)), dir(drslab)
assert loaded() == [], loaded()
drslab.compare_formulations
assert loaded() == ["drslab.blocks", "drslab.equivalence", "drslab.ppa"], loaded()
from drslab import sample_cycles
assert loaded() == sorted(analysis), loaded()
"""
    env = dict(os.environ, PYTHONPATH=str(Path(dl.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("home", ANALYSIS)
def test_analysis_names_resolve_to_their_module(home):
    module = importlib.import_module(f"drslab.{home}")
    assert getattr(dl, home) is module
    for name in public_names(home, module):
        assert getattr(dl, name) is getattr(module, name), name
        assert name in dir(dl), name


def test_the_two_system_names_are_one_class():
    assert dl.PpaSystem is dl.BlockSystem


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        dl.no_such_name
    assert not hasattr(dl, "no_such_name")


def fresh_import():
    """perfbench's ``fresh_import``: purge drslab from sys.modules and import it anew."""
    for name in [n for n in sys.modules if n == "drslab" or n.startswith("drslab.")]:
        del sys.modules[name]
    return importlib.import_module("drslab")


def outcomes(first, entry, op):
    report = first.compare_formulations(entry.problem, np.linspace(-1.0, 1.0, entry.dim), 20)
    witness = first.sample_cycles(op, 3, 200, 5, dim=2)
    return report.to_dict(), witness.to_dict()


def test_a_package_kept_across_a_new_import_keeps_its_own_names():
    """perfbench purges and imports drslab again between set-ups while the
    operations keep the first package: its names must stay its own."""
    saved = {n: m for n, m in sys.modules.items() if n == "drslab" or n.startswith("drslab.")}
    try:
        first = fresh_import()
        entry = first.catalog_by_name("random_monotone_5d")
        op = first.LinearRelation([[0.0, -1.0], [1.0, 0.0]])
        before = outcomes(first, entry, op)
        second = fresh_import()
        assert second is not first
        assert outcomes(first, entry, op) == before
    finally:
        for name in [n for n in sys.modules if n == "drslab" or n.startswith("drslab.")]:
            del sys.modules[name]
        sys.modules.update(saved)
