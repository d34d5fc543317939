"""The known repros of `tools/repros.py` against the verdicts they read today.

Each row of the table is (id, exit code, verdict kind, category), wrong
verdicts included, so that any change to a repro's answer shows here: a
change that mends or moves a repro updates its row and says so in
CHANGES.md.  No row is dropped.
"""

import sys
from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parents[1] / "tools"
sys.path.insert(0, str(TOOLS))
try:
    import repros
finally:
    sys.path.remove(str(TOOLS))

#: (id, exit code, verdict kind, category) of each row of `repros.ROWS`.
EXPECTED = (
    ("xx-d2", 0, "reduced", "within-err"),
    ("2x-d3", 0, "reduced", "outside-err"),
    ("x1x-d1", 0, "reduced", "within-err"),
    ("x1x-d1-plus", 0, "reduced", "within-err"),
    ("x1.5-d2", 0, "reduced", "outside-err"),
    ("abs(x-1)-d5", 0, "undetermined", "not-reduced"),
    ("abs(x)-d4-at0.5", 0, "undetermined", "not-reduced"),
    ("abs(sin)-d3", 0, "undetermined", "not-reduced"),
    ("abs(x-1)-d2", 0, "reduced", "outside-err"),
    ("abs(x+5)-d43", 1, "error", "not-reduced"),
    ("abs(x)-d1-bump", 0, "reduced", "outside-err"),
    ("abs(x)-d1-plus", 0, "reduced", "outside-err"),
    ("abs(x)-d2", 0, "irreducible", "not-reduced"),
    ("equiv-d4", 0, "irreducible_side", "not-reduced"),
)


def test_every_repro_has_one_expected_row():
    assert [name for name, _argv, _truth in repros.ROWS] == [row[0] for row in EXPECTED]


@pytest.mark.parametrize("name, status, kind, category", EXPECTED, ids=[r[0] for r in EXPECTED])
def test_repro_reads_its_recorded_verdict(name, status, kind, category):
    argv, truth = next((argv, truth) for n, argv, truth in repros.ROWS if n == name)
    got_status, got_kind, _value, _err, got_category = repros.row(argv, truth)
    assert (got_status, got_kind, got_category) == (status, kind, category)
