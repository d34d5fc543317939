"""Start-up: importing the package loads numpy but no SciPy, and each SciPy
routine the engine uses is imported where it is first needed.  Each check
runs in a fresh interpreter, where nothing has been imported yet."""

import io
import json
import math
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


def test_sift_of_a_weight_that_takes_no_array_loads_no_scipy():
    # math.cos is called node by node on the fixed rules.
    loaded = _fresh("""
import json, math, sys
import deltacalc as dc
res = dc.sift(dc.bump_delta(), math.cos, 0.3)
print(json.dumps({"value": res.value,
                  "scipy": sorted(m for m in sys.modules if m.startswith("scipy"))}))
""")
    assert loaded["scipy"] == [] and abs(loaded["value"] - math.cos(0.3)) < 1e-9


@pytest.mark.parametrize("argv, needs", [
    # A contraction is evaluated on the fixed rules, its derivatives too.
    (["check-dirac", "--kernel", "conv"], None),
    (["integrate", "exp(x)*ddelta(x,1)", "--kernel", "conv"], None),
    # Sign-change roots are refined by Brent's method, with no SciPy, in
    # every verb that reads them.
    (["integrate", "cos(x)*delta(x^2-4)"], None),
    (["simplify", "delta(x^2-4)"], None),
    (["equiv", "delta(x^2-4)", "0.25*delta(x-2)+0.25*delta(x+2)"], None),
    (["probe-kernels", "x^2-4"], None),
    # |x^2+1| dips to 1 at 0 without a root: bisected, with no SciPy.
    (["integrate", "delta(x^2+1)"], None),
    # The bump's two fixed rules disagree at rank 16, where the kink of the
    # battery's |x|(1+0.5sin(3x)) lies in the support: refined on arrays.
    (["equiv", "cos(1.4464*x+0.5193)*delta(x-0.0587)",
      "(0.8229547534162982)*delta(x-0.0587)", "--kernel", "bump"], None),
    # A smooth summand is integrated on its octave panels, on arrays.
    (["integrate", "exp(-x^2)+delta(x-0.3)", "--lower", "0", "--upper", "1"], None),
    # The battery's exp(+x) overflows at 800: the adaptive rule gives up
    # to adaptive quad, which is imported then.
    (["equiv", "delta(x-800)", "delta(x-800)"], "scipy.integrate"),
], ids=["conv", "conv-ddelta", "root", "simplify", "equiv", "probe", "dip", "refined",
        "smooth", "quad"])
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


def test_import_leaves_numpy_ma_out():
    loaded = _fresh("""
import json, sys
import deltacalc.cli
print(json.dumps(sorted(m for m in sys.modules if m == "numpy.ma" or m.startswith("numpy.ma."))))
""")
    assert loaded == []


#: Runs the first cycle of a benchmark stream (perfbench/workloads.py, read
#: from its directory) through run_command, and prints how many ranks were
#: refined on arrays and the SciPy modules loaded by then.
FRESH_CYCLE = """
import io, json, sys
sys.path.insert(0, sys.argv[1])
import workloads
from deltacalc import vintegral
from deltacalc.cli import run_command
refined, real = [], vintegral._refined
vintegral._refined = lambda *a: refined.append(real(*a)) or refined[-1]
workload, seed = sys.argv[2], int(sys.argv[3])
for q, _ in zip(workloads.stream(workload, seed), workloads.cycle(workload)):
    run_command(list(q.argv), out=io.StringIO(), err=io.StringIO())
print(json.dumps({"refined": sum(v is not None for v in refined),
                  "scipy": sorted(m for m in sys.modules if m.startswith("scipy"))}))
"""


@pytest.mark.parametrize("workload, seed", [("compose", 6), ("sift", 20)])
def test_benchmark_cycle_with_a_refined_rank_loads_no_scipy(workload, seed):
    perfbench = Path(__file__).resolve().parents[1] / "perfbench"
    fresh = _fresh(FRESH_CYCLE, str(perfbench), workload, str(seed))
    assert fresh["refined"] >= 1 and fresh["scipy"] == []
