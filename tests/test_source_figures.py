"""The package's docstrings and comments state contracts, not measurements.

A timing, a rate or a size belongs to README, next to the host and the change
it was measured on; in ``src/`` it goes stale as soon as the code or the host
moves.  This test fails on any line of ``src/drslab/*.py`` that holds a number
followed by a time, rate or size unit.
"""

import re
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "drslab"
FIGURE = re.compile(r"\d\s?(?:us|µs|ms|ops/s|KB|MB|KiB)\b")


def test_no_measurement_figures_in_the_package():
    found = [f"{path.name}:{number}: {line.strip()}"
             for path in sorted(SRC.glob("*.py"))
             for number, line in enumerate(path.read_text().splitlines(), start=1)
             if FIGURE.search(line)]
    assert not found, "measurement figures in src/ (move them to README):\n" + "\n".join(found)
