"""Start-up: importing the package loads numpy but no SciPy, and each SciPy
routine the engine uses is imported where it is first needed.  Each check
runs in a fresh interpreter, where nothing has been imported yet."""

import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import deltacalc
from deltacalc.cli import run_command

#: Runs argv through run_command and prints its exit status, streams and
#: the SciPy subpackages loaded by then, as one JSON object.
FRESH_RUN = """
import io, json, sys
from deltacalc.cli import run_command
out, err = io.StringIO(), io.StringIO()
status = run_command(sys.argv[1:], out=out, err=err)
print(json.dumps({"status": status, "out": out.getvalue(), "err": err.getvalue(),
                  "scipy": sorted(m for m in sys.modules if m.startswith("scipy"))}))
"""


def _fresh(script, *argv):
    env = dict(os.environ, PYTHONPATH=str(Path(deltacalc.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", script, *argv],
                          capture_output=True, text=True, env=env, check=True)
    return json.loads(proc.stdout)


def test_import_and_a_sift_load_no_scipy():
    loaded = _fresh("""
import io, json, sys
import deltacalc, deltacalc.cli
at_import = [m for m in sys.modules if m.startswith("scipy")]
status = deltacalc.cli.run_command(["integrate", "cos(x)*delta(x-0.3)"], out=io.StringIO())
after = [m for m in sys.modules if m.startswith("scipy")]
print(json.dumps({"import": at_import, "query": after, "status": status}))
""")
    assert loaded == {"import": [], "query": [], "status": 0}


@pytest.mark.parametrize("argv, needs", [
    # The convolution table is a CubicSpline.
    (["check-dirac", "--kernel", "conv"], "scipy.interpolate"),
    # Sign-change roots are refined by brentq.
    (["integrate", "cos(x)*delta(x^2-4)"], "scipy.optimize"),
    # |x^2+1| dips to 1 at 0 without a root: bisected, with no SciPy.
    (["integrate", "delta(x^2+1)"], None),
    # The bump's two fixed rules disagree at rank 16: adaptive quad decides.
    (["equiv", "cos(1.4464*x+0.5193)*delta(x-0.0587)",
      "(0.8229547534162982)*delta(x-0.0587)", "--kernel", "bump"], "scipy.integrate"),
], ids=["spline", "root", "dip", "quad"])
def test_lazy_scipy_path_works_on_first_use(argv, needs):
    fresh = _fresh(FRESH_RUN, *argv)
    if needs is None:
        assert fresh["scipy"] == []
    else:
        assert needs in fresh["scipy"]
    out, err = io.StringIO(), io.StringIO()
    status = run_command(argv, out=out, err=err)
    assert (fresh["status"], fresh["out"], fresh["err"]) == (status, out.getvalue(),
                                                             err.getvalue())
    assert status == 0
