"""Print one line per known repro: its answer next to its truth.

Each row runs one CLI query in-process through `deltacalc.cli.run_command`
and prints

    <id> <exit code> <verdict kind> <value> <err> <truth> <within-err|outside-err|not-reduced>

with the value and err at full precision ("-" where the answer has none),
so that two checkouts' rows can be compared line by line with `diff`:

    PYTHONPATH=src python3 tools/repros.py > repros.txt

A truth that is a verdict (irreducible, consistent) is checked by reading
the verdict kind: such a row always reads not-reduced.
"""

from __future__ import annotations

import io
import json
import math

from deltacalc.cli import run_command

#: (id, argv, truth): the truths as literals, a number or a verdict kind.
ROWS = (
    ("xx-d2", ["integrate", "x^x*ddelta(x-1,2)"], 2.0),
    # -(ln 2)^3 sqrt(2)
    ("2x-d3", ["integrate", "2^x*ddelta(x-0.5,3)"], -0.4709679794473242),
    ("x1x-d1", ["integrate", "x^(1+x)*ddelta(x-1,1)"], -2.0),
    ("x1x-d1-plus", ["integrate", "x^(1+x)*ddelta(x-1,1)", "--kernel", "plus"], -2.0),
    # 0.75 / sqrt(2)
    ("x1.5-d2", ["integrate", "x^1.5*ddelta(x-2,2)"], 0.5303300858899106),
    ("abs(x-1)-d5", ["integrate", "abs(x-1)*ddelta(x,5)"], 0.0),
    ("abs(x)-d4-at0.5", ["integrate", "abs(x)*ddelta(x-0.5,4)"], 0.0),
    # cos 1
    ("abs(sin)-d3", ["integrate", "abs(sin(x))*ddelta(x-1,3)"], 0.5403023058681398),
    ("abs(x-1)-d2", ["integrate", "abs(x-1)*ddelta(x,2)"], 0.0),
    ("abs(x+5)-d43", ["integrate", "abs(x+5)*ddelta(x,43)"], 0.0),
    ("abs(x)-d1-bump", ["integrate", "abs(x)*ddelta(x,1)"], 0.0),
    ("abs(x)-d1-plus", ["integrate", "abs(x)*ddelta(x,1)", "--kernel", "plus"], -1.0),
    ("abs(x)-d2", ["integrate", "abs(x)*ddelta(x,2)"], "irreducible"),
    ("equiv-d4", ["equiv", "ddelta(x-0.5,4)", "ddelta(x-0.5,4)"], "consistent"),
)


def row(argv, truth):
    """(exit code, verdict kind, value, err, category) of one query."""
    out, err = io.StringIO(), io.StringIO()
    try:
        status = run_command([*argv, "--json"], out=out, err=err)
    except Exception as exc:  # noqa: BLE001 (a crash is recorded, not raised)
        return "crash", type(exc).__name__, None, None, "not-reduced"
    payload = json.loads(out.getvalue()) if status == 0 else {"variant": "error"}
    kind, value, error = payload["variant"], payload.get("value"), payload.get("error")
    if kind != "reduced" or isinstance(truth, str):
        return status, kind, value, error, "not-reduced"
    within = math.isfinite(error) and abs(value - truth) <= error
    return status, kind, value, error, "within-err" if within else "outside-err"


def main():
    for name, argv, truth in ROWS:
        status, kind, value, error, category = row(argv, truth)
        fields = [repr(v) if v is not None else "-" for v in (value, error)]
        print(name, status, kind, *fields, truth, category)


if __name__ == "__main__":
    main()
