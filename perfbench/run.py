#!/usr/bin/env python3
"""Closed-loop query benchmark for deltacalc.

    python3 perfbench/run.py --workload sift --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; deltacalc is imported from its src/.
One client sends one query at a time through `deltacalc.cli.run_command`
in-process and sends the next when the previous one has answered.
Queries and their expected answers come from `--seed` (see workloads.py
and oracle.py); every answer is checked after the timed loop.

--trace 0 measures the end-to-end metrics: a fixed number of whole cycles
of queries, sized from `--seconds` (see workloads.py), then set-up samples
in fresh interpreters, one at a time.  --trace 1 runs the same queries
under the span tracer (tracer.py), reports per-layer metrics (unscaled),
then runs the first cycle again untraced to report the tracing overhead.
Both print a summary, then one JSON line: {"correct", "attempted",
"failed", "metrics"}.
Query latency and set-up time are CPU time of the process that does the
work (`time.process_time`).  The client is one thread that never waits on
I/O, so its CPU time is the time it took to answer; wall time also counts
the moments a shared host runs something else in its place.  Both are
then scaled to the host's usual speed by a reference loop timed in the
same process (setup_probe.py): after each query for the query times,
right after each set-up for the set-up times.  The summary prints the
unscaled CPU times, wall-time p50 and p90, and the scale beside them.
`failed` counts wrong answers, refusals where an answer was expected, and
exceptions that escaped.  `correct` is false when a wrong answer or an
escaped exception comes from a query outside the engine's known defects
(compose's ROADMAP item 2 families, whose answers the engine gets wrong
at the commit that added this benchmark); those are still run, recorded
and counted in `failed`.  Per-query answers (and, traced, the spans) go
to perfbench/out/.
The summary also prints failed_frac, wrong_frac and equiv_p50_s; the
fractions are not in the JSON metrics because they can be 0, and
equiv_p50_s rests on 2 (compose) or 6 (sift) equiv queries a run.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
from dataclasses import asdict, dataclass, field
from pathlib import Path
from time import perf_counter, process_time

import setup_probe

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"

BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS",
                    "VECLIB_MAXIMUM_THREADS")

#: Set-up samples per run: the workload process's own, then fresh
#: interpreters one after another once the queries are done.
SETUP_SAMPLES = 3
CHILD_TIMEOUT_S = 150


@dataclass
class Answer:
    qid: int
    cell: str
    latency_s: float = 0.0
    status: str = ""  # ok | wrong | refused | crashed
    rc: int | None = None
    kind: str | None = None
    value: float | None = None
    error: float | None = None
    ranks: int | None = None
    terms: list | None = None
    flagged: bool | None = None
    probe_values: list | None = None
    message: str = ""
    crashed: bool = False
    refused: bool = False
    query: dict = field(default_factory=dict)  # what was asked, and the oracle


def _parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


# ---------------------------------------------------------------------------
# Executing and reading one query
# ---------------------------------------------------------------------------

class Client:
    """Sends queries to the engine; `run_command` is looked up per call so
    the tracer can wrap it."""

    def __init__(self, pkg):
        self.run_command = pkg.cli.run_command

    def send(self, q):
        """Run one query; returns the raw result, timing excluded."""
        out, err = io.StringIO(), io.StringIO()
        try:
            rc = self.run_command(list(q.argv), out=out, err=err)
        except Exception as exc:  # crash containment: record and go on
            return ("crash", repr(exc))
        return ("cli", rc, out.getvalue(), err.getvalue())


def read_answer(q, raw, latency):
    """Turn a raw result into an Answer (without the verdict)."""
    ans = Answer(q.qid, q.cell, latency_s=latency, query=q.to_json())
    if raw[0] == "crash":
        ans.crashed, ans.message = True, raw[1]
        return ans
    _tag, rc, out, err = raw
    ans.rc = rc
    if rc != 0:
        ans.refused, ans.message = True, err.strip()[:300]
        return ans
    payload = json.loads(out.strip().splitlines()[-1])
    verb = q.argv[0]
    if verb == "integrate":
        ans.kind = payload["variant"]
        ans.ranks = len(payload["rank_values"])
        if ans.kind == "reduced":
            ans.value, ans.error = payload["value"], payload["error"]
        elif ans.kind == "irreducible":
            ans.value = payload["exponent"]
    elif verb == "simplify":
        ans.kind = "normal_form"
        ans.terms = [[t["c"], t["a"]] for t in payload["terms"] if t["k"] == 0]
        if len(ans.terms) != len(payload["terms"]) or payload["residual"] not in (None, "zero"):
            ans.terms.append([float("nan"), float("nan")])  # not a pure delta sum
    elif verb == "probe-kernels":
        ans.kind = "probe"
        ans.flagged = payload["flagged"]
        results = [o["result"] for o in payload["outcomes"]]
        ans.probe_values = [r.get("value") if r["variant"] == "reduced" else None
                            for r in results]
        ans.ranks = sum(len(r["rank_values"]) for r in results)
        ans.message = payload["reason"]
    elif verb == "equiv":
        ans.kind = payload["variant"]
        ans.value = payload.get("max_deviation")
    return ans


def judge(queries, raws, latencies, classify):
    answers = []
    for q, raw, lat in zip(queries, raws, latencies):
        ans = read_answer(q, raw, lat)
        ans.status = classify(q.expect, ans)
        answers.append(ans)
    return answers


# ---------------------------------------------------------------------------
# Set-up
# ---------------------------------------------------------------------------

def _setup_sample(workload):
    """Set-up time of one fresh interpreter; it is not left running."""
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "setup_probe.py"), workload],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, cwd=ROOT)
    try:
        out, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError("set-up sample timed out")
    if proc.returncode != 0:
        raise RuntimeError(f"set-up sample failed: {err.strip()[-500:]}")
    rec = json.loads(out.strip().splitlines()[-1])
    return rec["setup_s"], rec["reference_s"]


# ---------------------------------------------------------------------------
# Runs
# ---------------------------------------------------------------------------

def _quantile(values, q):
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[int(q) - 1]


def _tally(answers):
    counts = {s: 0 for s in ("ok", "wrong", "refused", "crashed")}
    for a in answers:
        counts[a.status] += 1
    return counts


def _write_answers(path, answers):
    with open(path, "w", encoding="utf-8") as fh:
        for a in answers:
            fh.write(json.dumps(asdict(a)) + "\n")


def _result(answers, queries, metrics):
    t = _tally(answers)
    failed = t["wrong"] + t["refused"] + t["crashed"]
    # A refusal is an honest non-answer; only a wrong answer or an escaped
    # exception makes the run's output incorrect.
    correct = not any(a.status in ("wrong", "crashed")
                      for a, q in zip(answers, queries) if not q.known_defect)
    return {"correct": correct, "attempted": len(answers), "failed": failed,
            "metrics": metrics}


def _batch(workload, seed, seconds):
    import workloads

    n = workloads.cycles(workload, seconds) * len(workloads.cycle(workload))
    return [q for q, _ in zip(workloads.stream(workload, seed), range(n))]


def untraced_run(args):
    # Set-up comes first, so the workload process imports deltacalc into
    # the same bare interpreter as the set-up children do.
    pkg, import_s, build_s, reference_s = setup_probe.import_and_build(args.workload)
    setups = [(import_s + build_s, reference_s)]
    import oracle
    import workloads

    oracle.self_check()

    client = Client(pkg)
    for q in workloads.warmup(args.workload, args.seed):
        client.send(q)

    queries = _batch(args.workload, args.seed, args.seconds)
    raws, cpu, walls, references = [], [], [], []
    for q in queries:
        w0, t0 = perf_counter(), process_time()
        raws.append(client.send(q))
        cpu.append(process_time() - t0)
        walls.append(perf_counter() - w0)
        references.append(setup_probe.time_reference())
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    scale = setup_probe.REFERENCE_S / statistics.median(references)
    latencies = [c * scale for c in cpu]
    spent = sum(latencies)

    setups += [_setup_sample(args.workload) for _ in range(SETUP_SAMPLES - 1)]
    samples = [s * setup_probe.REFERENCE_S / r for s, r in setups]

    answers = judge(queries, raws, latencies, oracle.classify)
    _write_answers(OUT_DIR / f"{args.workload}-seed{args.seed}-trace0.jsonl", answers)

    equiv = [a.latency_s for a in answers if a.cell.startswith("equiv")]
    metrics = {
        "setup_s": {"value": statistics.median(samples), "unit": "s"},
        "queries_per_s": {"value": len(answers) / spent, "unit": "queries/s"},
        "query_p50_s": {"value": statistics.median(latencies), "unit": "s"},
        "query_p90_s": {"value": _quantile(latencies, 90), "unit": "s"},
        "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
    }
    result = _result(answers, queries, metrics)
    t = _tally(answers)
    n = len(answers)
    info = {
        "failed_frac": {"value": result["failed"] / n, "unit": "fraction"},
        "wrong_frac": {"value": t["wrong"] / n, "unit": "fraction"},
        "cpu_queries_per_s": {"value": len(cpu) / sum(cpu), "unit": "queries/s"},
        "cpu_p50_s": {"value": statistics.median(cpu), "unit": "s"},
        "cpu_p90_s": {"value": _quantile(cpu, 90), "unit": "s"},
        "wall_p50_s": {"value": statistics.median(walls), "unit": "s"},
        "wall_p90_s": {"value": _quantile(walls, 90), "unit": "s"},
        "time_scale": {"value": scale, "unit": "ratio"},
    }
    if equiv:
        info["equiv_p50_s"] = {"value": statistics.median(equiv), "unit": "s"}
    defects = _tally([a for a, q in zip(answers, queries) if q.known_defect])
    print(f"perfbench {args.workload} seed={args.seed}: {n} queries in "
          f"{sum(cpu):.2f} s of query CPU time ({sum(walls):.2f} s wall); {t}; "
          f"of which known defects {defects}; set-up samples (CPU s, reference s) "
          + ", ".join(f"({s:.3f}, {r:.5f})" for s, r in setups))
    for name, m in list(metrics.items()) + list(info.items()):
        print(f"  {name:<17} {m['value']:.6g} {m['unit']}")
    return result


def traced_run(args):
    t0 = process_time()
    import deltacalc
    import deltacalc.cli

    import_s = process_time() - t0
    import oracle
    import tracer as tracer_mod
    import workloads

    oracle.self_check()
    tracer = tracer_mod.Tracer()
    tracer.install(deltacalc)
    for name in setup_probe.KERNELS[args.workload]:
        deltacalc.cli.KERNELS[name]()

    client = Client(deltacalc)
    client.run_command = tracer.span("cli.run_command", deltacalc.cli.run_command)
    for q in workloads.warmup(args.workload, args.seed):
        client.send(q)

    batch = _batch(args.workload, args.seed, args.seconds)

    raws, latencies = [], []
    for q in batch:
        tracer.begin_query(q.qid)
        t0 = process_time()
        raws.append(client.send(q))
        latencies.append(process_time() - t0)
    tracer.begin_query(tracer_mod.SETUP)
    tracer.uninstall()
    metrics = tracer.metrics(import_s)
    tracer.write(OUT_DIR / f"{args.workload}-seed{args.seed}.spans.tsv")

    # Tracing overhead: the first cycle again, untraced.
    first = batch[:len(workloads.cycle(args.workload))]
    traced_s = sum(latencies[:len(first)])
    client = Client(deltacalc)
    untraced_s = 0.0
    for q in first:
        t0 = process_time()
        client.send(q)
        untraced_s += process_time() - t0

    answers = judge(batch, raws, latencies, oracle.classify)
    _write_answers(OUT_DIR / f"{args.workload}-seed{args.seed}-trace1.jsonl", answers)
    counts = {k: v["value"] for k, v in metrics.items() if v["unit"] == "count"}
    digest = hashlib.sha256(json.dumps(counts, sort_keys=True).encode()).hexdigest()[:16]
    print(f"perfbench {args.workload} seed={args.seed} traced: {len(batch)} queries, "
          f"first {len(first)} took {traced_s:.2f} CPU s traced, {untraced_s:.2f} untraced "
          f"(tracing overhead {traced_s / untraced_s - 1.0:+.1%}); "
          f"{_tally(answers)}; {len(tracer.spans)} spans; counts digest {digest}")
    for name, m in metrics.items():
        print(f"  {name:<40} {m['value']:.6g} {m['unit']}")
    return _result(answers, batch, metrics)


def main(argv=None):
    args = _parse_args(argv)
    if not (ROOT / "src" / "deltacalc" / "__init__.py").is_file():
        print(f"perfbench: no deltacalc package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    if args.workload not in setup_probe.KERNELS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{list(setup_probe.KERNELS)}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    OUT_DIR.mkdir(exist_ok=True)
    result = traced_run(args) if args.trace else untraced_run(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
