"""Print one line per benchmark query, and per fixed query: its answer's
fingerprint.

Builds the sift and compose query streams of `perfbench/workloads.py` at
seeds 1, 9001, 3, 6 and 20, two cycles each (1,890 queries), and adds the
fixed queries of FIXED (1,906 in all); runs each query in-process through
`deltacalc.cli.run_command`, and prints one line

    <workload>-<seed>-<qid> (or fixed-<index>) <exit code> <sha256 of stdout + stderr>
        <kind> [<name>=<number> ...] <argv>

where kind is the JSON answer's variant ("normal_form" for a simplify
answer, "probe" for a kernel probe, "-" where the answer is no JSON) and
the numbers are its `value`, `error`, `exponent` and `max_deviation`, the
probe's per kernel, at %.17g: a line that differs shows how far each
number moved.  Two checkouts' answers can be compared line by line with
`diff`:

    PYTHONPATH=src python3 tools/answers.py > answers.txt
"""

from __future__ import annotations

import hashlib
import io
import json
import shlex
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))  # for oracle

import workloads  # noqa: E402

from deltacalc.cli import run_command  # noqa: E402

SEEDS = (1, 9001, 3, 6, 20)

#: CLI queries that neither stream makes: a smooth summand, a summand and
#: a delta in `equiv` (the second reads IrreducibleSide against x^2+5, the
#: third exits 1 where exp(+x) overflows on the octave panels at x = 768,
#: after the stacked pass raises and each member is taken alone), the
#: contraction and mixture kernels, `check-dirac`, a finite bound that cuts
#: the support, a composite with a pole, and the composite paths neither
#: stream meets: x pieces beside a turn at ranks 16 and 32, a piece in u
#: that the fixed rules reject, two roots inside one turn's grid bracket
#: (it reads Undetermined), and a composite's `equiv`; the kernel probe's
#: two flagged reasons (outcomes that differ in kind, reduced values that
#: disagree) and an `equiv` whose rhs is the irreducible side.  Their lines
#: read fixed-<index>.
FIXED = (
    ("integrate", "exp(-x^2)+delta(x-0.3)"),
    ("equiv", "1/(1+x^2)+delta(x)", "1/(1+x^2)+delta(x)", "--battery", "sift"),
    ("equiv", "exp(-x^2)+delta(x)", "exp(-x^2)+delta(x)"),
    ("integrate", "cos(x)*delta(x-0.2)", "--kernel", "conv"),
    ("integrate", "cos(x)*delta(x-0.2)", "--kernel", "mix"),
    ("check-dirac", "--kernel", "conv"),
    ("check-dirac", "--kernel", "mix"),
    ("integrate", "exp(-x)*delta(x-0.01)", "--lower", "0"),
    ("integrate", "delta(1/(x-1.5)-2)"),
    ("integrate", "cos(x)*delta(-1.0547*(x+2.515)*(x+2.231))"),
    ("integrate", "abs(x-2.001)*delta(x^2-4)"),
    ("integrate", "delta((x-0.293)*(x-0.308))"),
    ("equiv", "delta(x^2-4)", "0.25*delta(x-2)+0.25*delta(x+2)"),
    ("probe-kernels", "x^2"),
    ("probe-kernels", "abs(x)", "--kernels", "bump,plus"),
    ("equiv", "0", "delta(x^2)", "--kernel", "square"),
)

#: The keys of the numbers an answer's line prints.
NUMBERS = ("value", "error", "exponent", "max_deviation")


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


def summary(text):
    """The kind and the numbers (NUMBERS, in the order the JSON answer in
    `text` holds them, nested ones too) of one answer."""
    try:
        payload = json.loads(text.partition("\n")[0])
    except ValueError:
        return "-"
    if not isinstance(payload, dict):
        return "-"
    kind = payload.get("variant") or ("normal_form" if "terms" in payload else
                                      "probe" if "outcomes" in payload else "-")
    found = []

    def walk(node):
        if isinstance(node, dict):
            for key, item in node.items():
                if key in NUMBERS and isinstance(item, (int, float)):
                    found.append(f"{key}={item:.17g}")
                else:
                    walk(item)
        elif isinstance(node, list):
            for item in node:
                walk(item)

    walk(payload)
    return " ".join([kind, *found])


def main():
    rows = [(f"{workload}-{seed}-{q.qid}", q.argv) for workload in ("sift", "compose")
            for seed in SEEDS for q in queries(workload, seed)]
    rows += [(f"fixed-{i}", (*argv, "--json")) for i, argv in enumerate(FIXED)]
    for name, argv in rows:
        status, text = answer(argv)
        digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
        print(f"{name} {status} {digest} {summary(text)} {shlex.join(argv)}")


if __name__ == "__main__":
    main()
