"""The Report grid: every suite's Reports on clean and corrupted structures.

Each line is ``p|structure|N|name|status|checked|first_failure`` (an empty
last field for a passing Report), and the lines are sorted, so a diff of
``tests/data/report_grid.txt`` names exactly the Reports a change moved.
``tests/test_report_grid.py`` regenerates the grid and compares it with
that file.  A change that alters a Report on purpose rewrites it:

    PYTHONPATH=src python tests/report_grid.py --write
"""

from __future__ import annotations

import dataclasses
import sys
from fractions import Fraction
from pathlib import Path

from rahman.form import BilinearForm
from rahman.matrices import Mat
from rahman.params import ParameterSet
from rahman.scalars import format_rational
from rahman.sl3 import build
from rahman.theorems import SUITES

from conftest import shifted_entry, with_corrupted_eta_t

GOLDEN = Path(__file__).parent / "data" / "report_grid.txt"

PARAMETERS = [
    ParameterSet.of(1, 2, 3, 5),
    ParameterSet.of(2, 1, 7, 3),
    ParameterSet.of(1, -2, 3, 5),
    ParameterSet.of(Fraction(-3, 2), 5, Fraction(1, 2), -3),
]
DEGREES = range(4)
IDENTITY = Mat.identity()


def structures(p: ParameterSet) -> dict:
    """label -> structure: the built one, each targeted corruption, and the
    dual of each."""
    s = build(p)
    found = {"built": s}
    for i in range(3):
        eta = s.d.eta_t[i]
        for text, delta in (("+ 1", 1), (f"- eta~_{i}/2", -eta / 2), ("= 0", -eta)):
            found[f"eta~_{i} {text}"] = with_corrupted_eta_t(s, i, delta)
    for field in ("t", "u", "v", "w"):
        shifted = dataclasses.replace(s.d, **{field: getattr(s.d, field) + 1})
        found[f"{field} + 1"] = build(p, shifted)
    found["R = R^-1 = I"] = dataclasses.replace(s, R=IDENTITY, Rinv=IDENTITY)
    found["R[0][1] + 1"] = dataclasses.replace(s, R=shifted_entry(s.R))
    found["R^-1[0][1] + 1"] = dataclasses.replace(s, Rinv=shifted_entry(s.Rinv))
    return {**found, **{f"dual of {label}": t.dual() for label, t in found.items()}}


def grid_lines() -> list:
    """Every line of the grid, sorted."""
    lines = []
    for p in PARAMETERS:
        p_text = ",".join(format_rational(x) for x in p.as_tuple())
        for label, s in structures(p).items():
            for n in DEGREES:
                f = BilinearForm(s, n)
                for suite in SUITES.values():
                    for r in suite(s, f, n):
                        failure = r.first_failure or ""
                        assert "\n" not in failure, failure
                        lines.append(
                            f"{p_text}|{label}|{n}|{r.name}|{r.status}|{r.checked}|{failure}"
                        )
    return sorted(lines)


def main(argv) -> int:
    if argv != ["--write"]:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    GOLDEN.write_text("".join(line + "\n" for line in grid_lines()))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
