"""The benchmark's span tracer rebinds package attributes by name; each
name it looks up must still exist.  perfbench/tracer.py is read as text,
not imported."""

import ast
import dataclasses
import inspect
from pathlib import Path

import pytest

import deltacalc
import deltacalc.cli  # noqa: F401  (the package does not import its CLI)

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _spans():
    tree = ast.parse(TRACER.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["SPANS"]:
            return [(mod, attr) for mod, attr, _name in ast.literal_eval(node.value)]
    raise AssertionError("perfbench/tracer.py defines no SPANS")


#: Names Tracer.install rebinds besides SPANS.
OTHERS = [("vintegral", "quad"), ("exprlang", "to_real_function"),
          ("rewrite", "standard_battery"), ("rewrite", "sift_battery")]


@pytest.mark.parametrize("mod, attr", _spans() + OTHERS)
def test_traced_name_exists(mod, attr):
    assert callable(getattr(getattr(deltacalc, mod), attr))


def test_traced_real_function_fields_exist():
    # The tracer wraps a RealFunction's `fn` and `derivs` with dataclasses.replace.
    fields = {f.name for f in dataclasses.fields(deltacalc.RealFunction)}
    assert {"fn", "derivs"} <= fields
    assert set(deltacalc.cli.BATTERIES) == {"standard", "sift"}


def test_traced_expression_keeps_its_derivative_rule():
    # Tracer._wrap_real_function replaces `fn` and `derivs`; an expression's
    # derivatives come from its rule, `nth_deriv`, which the copy keeps.
    from deltacalc.exprlang import parse, to_real_function

    rf = to_real_function(parse("x^3-2*x"))
    traced = dataclasses.replace(rf, fn=lambda x, f=rf.fn: f(x), derivs=())
    assert traced.derivative(3)(0.5) == 6.0


def test_traced_reduce_sequence_arguments_exist():
    # Tracer._after_reduce_sequence compares len(result.rank_values) with
    # the length of the call's first argument, the schedule.
    params = list(inspect.signature(deltacalc.vintegral.reduce_sequence).parameters)
    assert params[0] == "schedule"
    fields = {f.name for f in dataclasses.fields(deltacalc.IntegralResult)}
    assert "rank_values" in fields
