"""Every Report of the grid keeps its name, status, checked count and
first-failure text (see ``report_grid.py``)."""

from report_grid import GOLDEN, grid_lines


def test_the_report_grid_matches_its_golden():
    golden = GOLDEN.read_text().splitlines()
    current = grid_lines()
    gone = sorted(set(golden) - set(current))
    new = sorted(set(current) - set(golden))
    changed = [f"- {line}" for line in gone] + [f"+ {line}" for line in new]
    assert not changed, "\n".join([f"{len(changed)} changed lines:", *changed])
    assert current == golden
