"""Print one line per benchmark query: its answer's fingerprint.

Builds the sift and compose query streams of `perfbench/workloads.py` at
seeds 1, 9001, 3, 6 and 20, two cycles each (1,890 queries), runs each
query in-process through `deltacalc.cli.run_command`, and prints

    <workload>-<seed>-<qid> <exit code> <sha256 of stdout + stderr> <argv>

so that two checkouts' answers can be compared line by line with `diff`:

    PYTHONPATH=src python3 tools/answers.py > answers.txt
"""

from __future__ import annotations

import hashlib
import io
import shlex
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))  # for oracle

import workloads  # noqa: E402

from deltacalc.cli import run_command  # noqa: E402

SEEDS = (1, 9001, 3, 6, 20)


def queries(workload, seed):
    """The first two cycles of the workload's stream at `seed`."""
    n = 2 * len(workloads.cycle(workload))
    return [q for q, _ in zip(workloads.stream(workload, seed), range(n))]


def answer(argv):
    """(exit code, stdout + stderr) of one in-process CLI run; an exception
    that escapes it is answer "crash" with the exception's repr."""
    out, err = io.StringIO(), io.StringIO()
    try:
        status = run_command(list(argv), out=out, err=err)
    except Exception as exc:  # noqa: BLE001 (a crash is recorded, not raised)
        return "crash", repr(exc)
    return status, out.getvalue() + err.getvalue()


def main():
    for workload in ("sift", "compose"):
        for seed in SEEDS:
            for q in queries(workload, seed):
                status, text = answer(q.argv)
                digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
                print(f"{workload}-{seed}-{q.qid} {status} {digest} {shlex.join(q.argv)}")


if __name__ == "__main__":
    main()
