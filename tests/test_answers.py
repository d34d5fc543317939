"""The judged diff of `tools/answers.py --against`: one class per pair of lines."""

import io
import sys
from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parents[1] / "tools"
sys.path.insert(0, str(TOOLS))
try:
    import answers
finally:
    sys.path.remove(str(TOOLS))

REDUCED = "q 0 d reduced value=1 error=1e-12 integrate 'delta(x)' --json"
EQUIV = "q 0 d consistent_equivalent max_deviation=1e-09 equiv 'delta(x)' 'delta(x)' --json"


@pytest.mark.parametrize("base, head, cls", [
    (REDUCED, REDUCED, "identical"),
    (REDUCED, REDUCED.replace("d reduced value=1 error=1e-12", "e reduced value=1 error=3e-12"),
     "error only"),
    (REDUCED, REDUCED.replace("value=1 error=1e-12", "value=1.0000000000005 error=0"), "within"),
    (REDUCED, REDUCED.replace("value=1 ", "value=1.000000000002 "), "outside"),
    (REDUCED.replace("error=1e-12", "error=0"),
     REDUCED.replace("value=1 error=1e-12", "value=1.0000000000000002 error=0"), "outside"),
    (EQUIV, EQUIV.replace("1e-09", "9e-07"), "within"),
    (EQUIV, EQUIV.replace("1e-09", "2e-06"), "outside"),
    ("q 0 d irreducible exponent=0.5 integrate 'delta(x^2)' --json",
     "q 0 e irreducible exponent=0.50000000000001 integrate 'delta(x^2)' --json", "outside"),
    (REDUCED, REDUCED.replace("q 0", "q 1"), "verdict"),
    (REDUCED, "q 0 e undetermined integrate 'delta(x)' --json", "verdict"),
    (REDUCED, REDUCED.replace("value=1 error=1e-12", "value=1"), "verdict"),
    (REDUCED, REDUCED.replace(" d ", " e "), "verdict"),
    ("q 0 d normal_form simplify 'delta(2*x)' --json",
     "q 0 e normal_form simplify 'delta(2*x)' --json", "verdict"),
], ids=["identical", "error-only", "within", "outside", "outside-at-error-0",
        "deviation-within", "deviation-outside", "exponent-without-error", "exit-code",
        "kind", "number-gone", "text-only", "normal-form"])
def test_each_pair_of_lines_reads_one_class(base, head, cls):
    assert answers.judge(base, head) == cls


def test_report_counts_per_verb_and_lists_what_moved():
    base = [REDUCED, EQUIV.replace("q ", "r "), "s 0 d - check-dirac --json"]
    head = [REDUCED.replace("value=1 ", "value=2 "), EQUIV.replace("q ", "r ")]
    out = io.StringIO()
    answers.report(base, head, out)
    rows = {line.split()[0]: line.split()[1:] for line in out.getvalue().splitlines()[1:6]}
    assert rows["identical"] == ["1", "1", "0", "0", "0", "0"]
    assert rows["outside"] == ["1", "0", "1", "0", "0", "0"]
    assert rows["verdict"] == ["1", "0", "0", "0", "0", "1"]
    assert out.getvalue().count("\n  - ") == 2
    assert "  + (none)" in out.getvalue()
