"""Seeded query streams for the two workloads.

A workload is a weighted list of cells (query type x kernel or family).
One cycle holds each cell `weight` times, interleaved by smooth weighted
round-robin; `stream` repeats the cycle and draws each query's continuous
parameters (test function, shift, roots, probe exponent) from the seed.
A run is a fixed number of whole cycles (`cycles`), so every run, however
fast the engine, answers the same queries for a given seed.  The discrete
choices that set a query's cost (kernel, polynomial degree, test-function
family) follow the cell or the query's position in the stream, so runs of
different seeds differ only in the continuous parameters.

Weights also place each workload's median and 90th-percentile latency
inside a group of like queries rather than on the edge between two
groups, where a small shift in cost would move them a lot: the few
slowest queries of a cycle sit above the 90th percentile, and a group
of like queries spans it.

Each query and its expected answer are built before the query is sent,
outside the timed section; the engine sees only the generated text.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import mpmath

from oracle import (
    FAMILIES,
    ONE,
    Composite,
    Expect,
    draw_smooth,
    fmt,
    num,
    slopes_of,
)
@dataclass(frozen=True)
class Query:
    qid: int
    cell: str
    expect: Expect
    argv: tuple  # CLI arguments for deltacalc.cli.run_command
    #: One of the engine's open defects (ROADMAP item 2): answered and
    #: recorded like any query, but left out of the run's `correct`.
    known_defect: bool = False

    def to_json(self):
        out = {"qid": self.qid, "cell": self.cell, "expect": self.expect.to_json()}
        if self.known_defect:
            out["known_defect"] = True
        out["argv"] = list(self.argv)
        return out


# ---------------------------------------------------------------------------
# sift: delta-term queries on profile kernels
# ---------------------------------------------------------------------------

def _sift_cells():
    # 100 queries.  By latency: 71 delta queries (square fastest), then 2
    # equivs on square, 9 k=1, 15 k=2, and 3 slow queries: one k=3, one
    # delta on mix (the mix kernel is rebuilt and certified per query) and
    # one equiv on a smooth kernel (20 battery functions, ~2.5 s).  The
    # median falls inside the delta group and the 90th percentile inside
    # the k=2 group.
    cells = [(("delta", "square"), 17)]
    cells += [(("delta", k), 18) for k in ("bump", "plus", "minus")]
    cells += [(("ddelta", k, 1), 3) for k in ("bump", "plus", "minus")]
    cells += [(("ddelta", k, 2), 5) for k in ("bump", "plus", "minus")]
    cells += [(("ddelta", "minus", 3), 1), (("delta", "mix"), 1),
              (("equiv", "square"), 2), (("equiv", "bump"), 1)]
    return cells


def _sift_query(qid, cell, rng):
    f = draw_smooth(rng, FAMILIES[qid % len(FAMILIES)])
    a = num(rng.uniform(-2.0, 2.0))
    shift = f"x-{fmt(a)}" if a >= 0 else f"x+{fmt(-a)}"
    kind, kernel = cell[0], cell[1]
    label = "/".join(str(c) for c in cell) + f"/{f.family}"
    if kind == "delta":
        argv = ("integrate", f"{f.text}*delta({shift})")
        expect = Expect("value", value=f.value(a))
    elif kind == "ddelta":
        order = cell[2]
        argv = ("integrate", f"{f.text}*ddelta({shift},{order})")
        expect = Expect("value", value=f.sifted_derivative(a, order))
    else:
        argv = ("equiv", f"{f.text}*delta({shift})",
                f"({fmt(f.value(a))})*delta({shift})")
        expect = Expect("equivalent")
    return Query(qid, label, expect, argv=argv + ("--kernel", kernel, "--json"))


# ---------------------------------------------------------------------------
# compose: delta(g(x)) queries
# ---------------------------------------------------------------------------

FAMILY_NAMES = ("beyond", "periodic", "exp", "tangent", "rational")


def _compose_cells():
    # 89 queries; the last item of a poly cell is the degree of g.  By
    # latency: 25 simplify up to degree 2 or on the families, 40 simplify
    # of degree 3, 9 integrates up to degree 2 or on the beyond, rational
    # and tangent families, 12 integrate and probe-kernels of degree 3,
    # and 3 slow queries: integrate on the exp and periodic families and
    # the equiv (140 region scans per side, ~5 s).  The median falls
    # inside the simplify group of degree 3 and the 90th percentile inside
    # the group of 12.
    cells = [(("simplify", "poly", 1), 10), (("simplify", "poly", 2), 10),
             (("simplify", "poly", 3), 40), (("integrate", "poly", 1), 3),
             (("integrate", "poly", 2), 3), (("integrate", "poly", 3), 8),
             (("probe", "poly", 3), 4), (("equiv", "linear"), 1)]
    # Composites the engine is known to mishandle, through integrate and
    # simplify, the two verbs that show how.
    cells += [((verb, fam), 1) for fam in FAMILY_NAMES
              for verb in ("integrate", "simplify")]
    return cells


def _simple_roots(rng, degree):
    while True:
        roots = sorted(num(rng.uniform(-4.0, 4.0)) for _ in range(degree))
        if all(b - a >= 0.4 for a, b in zip(roots, roots[1:])):
            return roots


def _factored(c, roots):
    factors = "".join(f"*(x-{fmt(r)})" if r >= 0 else f"*(x+{fmt(-r)})"
                      for r in roots)
    # A leading minus would read as a CLI option: bracket the coefficient.
    return f"{fmt(c)}{factors}" if c >= 0 else f"({fmt(c)}){factors}"


def _poly_composite(rng, degree):
    roots = _simple_roots(rng, degree)
    c = num(rng.uniform(0.5, 2.0)) * rng.choice((-1, 1))

    def g(x, c=c, roots=tuple(roots)):
        out = mpmath.mpf(c)
        for r in roots:
            out *= x - r
        return out

    return Composite("poly", _factored(c, roots), g, tuple(roots),
                     slopes_of(g, roots))


def _family_composite(rng, fam):
    if fam == "beyond":
        # Roots outside the engine's +-60 scan window.
        r1, r2 = num(rng.uniform(61.0, 90.0)), -num(rng.uniform(61.0, 90.0))
        c = num(rng.uniform(0.5, 2.0))
        roots = (r2, r1)
        g = lambda x, c=c: c * (x - r1) * (x - r2)
        return Composite(fam, _factored(c, roots), g, roots, slopes_of(g, roots))
    if fam == "periodic":
        # The integrate query's cost grows with the number of roots in the
        # scan window, so w is drawn from a narrow band.
        w = num(rng.uniform(0.5, 0.7))
        return Composite(fam, f"sin({fmt(w)}*x)", lambda x, w=w: mpmath.sin(w * x))
    if fam == "exp":
        c = num(rng.uniform(0.5, 5.0))
        root = float(mpmath.log(c))
        g = lambda x, c=c: mpmath.exp(x) - c
        return Composite(fam, f"exp(x)-{fmt(c)}", g, (root,), slopes_of(g, (root,)))
    if fam == "tangent":
        r = num(rng.uniform(-3.0, 3.0))
        text = f"(x-{fmt(r)})^2" if r >= 0 else f"(x+{fmt(-r)})^2"
        return Composite(fam, text, lambda x, r=r: (x - r) ** 2)
    if fam == "rational":
        r = num(rng.uniform(-3.0, 3.0))
        c = num(rng.uniform(0.5, 2.0)) * rng.choice((-1, 1))
        pole = f"x-{fmt(r)}" if r >= 0 else f"x+{fmt(-r)}"
        text = f"1/({pole})-{fmt(c)}" if c >= 0 else f"1/({pole})+{fmt(-c)}"
        root = float(mpmath.mpf(r) + 1 / mpmath.mpf(c))
        g = lambda x, r=r, c=c: 1 / (x - r) - c
        return Composite(fam, text, g, (root,), slopes_of(g, (root,)))
    raise ValueError(fam)


def _compose_query(qid, cell, rng):
    verb, fam = cell[:2]
    if verb == "equiv":
        c = num(rng.uniform(0.5, 3.0))
        b = num(rng.uniform(-3.0, 3.0))
        lhs = f"delta({fmt(c)}*x-{fmt(b)})" if b >= 0 else f"delta({fmt(c)}*x+{fmt(-b)})"
        rhs = (f"(1/{fmt(c)})*delta(x-{fmt(b)}/{fmt(c)})" if b >= 0
               else f"(1/{fmt(c)})*delta(x+{fmt(-b)}/{fmt(c)})")
        return Query(qid, f"equiv/{fam}", Expect("equivalent"),
                     argv=("equiv", lhs, rhs, "--json"))
    if fam == "poly":
        g = _poly_composite(rng, cell[2])
    else:
        g = _family_composite(rng, fam)
    label = "/".join(str(c) for c in cell)
    refusal_ok = fam == "beyond"
    defect = fam in FAMILY_NAMES
    if verb == "integrate":
        # F = 1 where the answer must not vanish in the tolerance: far roots
        # make F(r)/|g'(r)| tiny for decaying F, as in `delta(x^2-10000)`.
        f = (ONE if fam in ("beyond", "periodic", "tangent")
             else draw_smooth(rng, FAMILIES[qid % len(FAMILIES)]))
        text = f"delta({g.text})" if f is ONE else f"{f.text}*delta({g.text})"
        if fam == "periodic":
            expect = Expect("irreducible")
        elif fam == "tangent":
            expect = Expect("irreducible", refusal_ok=True)
        else:
            expect = Expect("value", value=g.root_sum(f), refusal_ok=refusal_ok)
        return Query(qid, label, expect, argv=("integrate", text, "--json"),
                     known_defect=defect)
    if verb == "simplify":
        if fam in ("periodic", "tangent"):
            expect = Expect("no_form")
        else:
            expect = Expect("terms", terms=g.terms(), refusal_ok=refusal_ok)
        return Query(qid, label, expect, argv=("simplify", f"delta({g.text})", "--json"),
                     known_defect=defect)
    expect = Expect("probe", value=g.root_sum(ONE))
    return Query(qid, label, expect, argv=("probe-kernels", g.text, "--json"))


# ---------------------------------------------------------------------------
# Streams
# ---------------------------------------------------------------------------

_CELLS = {"sift": _sift_cells, "compose": _compose_cells}
_MAKE = {"sift": _sift_query, "compose": _compose_query}


#: About the query CPU seconds of one cycle at the commit that added this
#: benchmark, on a 2-core x86_64 machine (sift 10-16 s, compose 15-20 s as
#: the shared host's speed varied).  `cycles` sizes a run by them: at 30 s
#: that is 2 cycles of each.
CYCLE_SECONDS = {"sift": 15.0, "compose": 18.0}


def cycles(workload, seconds):
    """Whole cycles in a run of about `seconds` of query time.  Fixed by
    the arguments alone, so a faster engine answers the same queries."""
    return max(1, round(seconds / CYCLE_SECONDS[workload]))


def cycle(workload):
    """One round of the workload's cells, by smooth weighted round-robin:
    each cell appears `weight` times, spread evenly over the round."""
    cells = _CELLS[workload]()
    total = sum(w for _c, w in cells)
    current = [0] * len(cells)
    out = []
    for _ in range(total):
        for i, (_c, w) in enumerate(cells):
            current[i] += w
        best = max(range(len(cells)), key=lambda i: current[i])
        current[best] -= total
        out.append(cells[best][0])
    return out


def stream(workload, seed, first_qid=0):
    """Endless query stream of `workload`, reproducible from `seed`: the
    cycle's cells over and over, each with freshly drawn parameters."""
    rng = random.Random(f"{workload}:{seed}:{first_qid}")
    cells = cycle(workload)
    i = 0
    while True:
        yield _MAKE[workload](first_qid + i, cells[i % len(cells)], rng)
        i += 1


def warmup(workload, seed):
    """One untimed query of each query type, from a stream of its own.

    Loads what the engine imports lazily; skips the cells that take
    seconds (the mix kernel, equiv, periodic composites).
    """
    seen, out = set(), []
    for q, _ in zip(stream(workload, seed, first_qid=10**6), cycle(workload)):
        kind = q.cell.split("/")[0]
        slow = any(s in q.cell for s in ("mix", "equiv", "periodic"))
        if kind not in seen and not slow:
            seen.add(kind)
            out.append(q)
    return out
