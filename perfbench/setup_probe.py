"""Set-up of a workload process, and the reference loop that times are
scaled by.

    python3 perfbench/setup_probe.py sift

imports deltacalc from the checkout's src/, builds once each CLI kernel
the workload names, and prints {"setup_s": ..., "reference_s": ...} as
one JSON line: the CPU seconds of the set-up, and the CPU seconds of the
reference loop right after it.  run.py takes its own set-up the same way
(`import_and_build`).

The reference loop is fixed pure-Python work, independent of deltacalc.
The shared host's speed swings by up to 1.4x for minutes at a time, and
the CPU time of the same queries swings with it; the reference loop,
timed in the same process at the same moments, swings alike.  run.py
reports times scaled by REFERENCE_S / (the loop's measured time), that
is, as seconds at the host's usual speed.
"""

import json
import statistics
import sys
from pathlib import Path
from time import process_time

#: CLI kernels of each workload, all built once in set-up.
KERNELS = {
    "sift": ("bump", "square", "plus", "minus", "mix"),
    "compose": ("bump", "minus", "square"),
}

#: CPU seconds of one `reference_loop` at the usual speed of the 2-core
#: x86_64 machine the baseline was measured on.  A unit, fixed for good:
#: changing it rescales every reported time.
REFERENCE_S = 0.002


def reference_loop():
    s = 0
    for i in range(20_000):
        s += i * i % 7
    return s


def time_reference():
    """CPU seconds of one reference loop, now."""
    t0 = process_time()
    reference_loop()
    return process_time() - t0


def import_and_build(workload):
    """Import deltacalc and build each kernel once.

    Returns (pkg, import_s, build_s, reference_s): CPU seconds of the
    import and of the builds, and the median of 15 reference loops timed
    right after them.
    """
    t0 = process_time()
    import deltacalc
    import deltacalc.cli

    t1 = process_time()
    for name in KERNELS[workload]:
        deltacalc.cli.KERNELS[name]()
    t2 = process_time()
    reference_s = statistics.median(time_reference() for _ in range(15))
    return deltacalc, t1 - t0, t2 - t1, reference_s


def main():
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    _pkg, import_s, build_s, reference_s = import_and_build(sys.argv[1])
    print(json.dumps({"setup_s": import_s + build_s, "reference_s": reference_s}))


if __name__ == "__main__":
    main()
