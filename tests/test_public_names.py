"""Every ``dl.<name>`` the demos and the benchmark use resolves on ``drslab``.

The package keeps no ``__all__``; this test is what notices when a name that
callers rely on is removed or renamed.
"""

import importlib
import re
from pathlib import Path

import pytest

import drslab as dl

ROOT = Path(__file__).resolve().parents[1]
CALLERS = sorted(ROOT.glob("demos/*.py")) + sorted(ROOT.glob("perfbench/*.py"))


def used_names():
    """(file, dotted name) for each ``dl.a.b`` chain in the callers."""
    found = set()
    for path in CALLERS:
        for chain in re.findall(r"\bdl((?:\.[A-Za-z_]\w*)+)", path.read_text()):
            found.add((path.relative_to(ROOT).as_posix(), chain[1:]))
    return sorted(found)


def test_callers_are_found():
    files = {source for source, _ in used_names()}
    assert {"demos/three_forms.py", "perfbench/workloads.py"} <= files


@pytest.mark.parametrize("source, name", used_names())
def test_name_used_by_a_caller_resolves(source, name):
    obj = dl
    for part in name.split("."):
        if not hasattr(obj, part):  # a submodule not imported yet, such as cli
            importlib.import_module(f"{obj.__name__}.{part}")
        obj = getattr(obj, part)
