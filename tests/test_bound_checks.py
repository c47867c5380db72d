"""Every count, seed and caller-given dimension passes one gate.

``operators._count`` holds a count's or a seed's floor and
``operators._dimension`` holds a caller's ``dim`` to the dimension the
operators or a point fix, so each bound, and the text a user reads when it
is broken, is written once.  This test fails on any line of
``src/drslab/*.py`` outside ``operators.py`` that words such a bound itself.
"""

import re
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "drslab"
BOUND = re.compile(r"must be at least|must be nonnegative|conflicts with")


def test_bound_texts_are_written_only_in_the_gates():
    found = [f"{path.name}:{number}: {line.strip()}"
             for path in sorted(SRC.glob("*.py")) if path.name != "operators.py"
             for number, line in enumerate(path.read_text().splitlines(), start=1)
             if BOUND.search(line)]
    assert not found, "bounds worded outside operators._count and _dimension:\n" + "\n".join(found)
