"""Spans around the calls into each deltacalc layer, from the benchmark side.

`Tracer.install()` rebinds each traced function under the name its callers
look it up by (for example `rewrite.compose`, `cli.check_dirac` and the
`quad` that `vintegral` calls), so the package itself is not edited.  A
span records name, start, end, parent span, query id and self time, where
self time is the span's duration minus the time its children cover.

Functions called once per point are not spans, to keep the record small:
functions compiled by exprlang are timed leaves (their time is a child of
the enclosing span), while quadrature integrands, battery functions and
`rank_eval` are only counted.

Spans are kept in memory and written out by `write`.  There is one
thread and no queue, so no span waits and no waiting time is reported.
"""

from __future__ import annotations

import dataclasses
import functools
from collections import Counter
from time import perf_counter

SETUP = "setup"

#: (module, attribute, span name): every name a traced function is looked
#: up by inside the package.
SPANS = (
    ("cli", "parse_expression", "exprlang.parse_expression"),
    ("cli", "simplify", "rewrite.simplify"),
    ("cli", "reduce_expr_integral", "rewrite.reduce_expr_integral"),
    ("rewrite", "reduce_expr_integral", "rewrite.reduce_expr_integral"),
    ("cli", "check_equivalence", "rewrite.check_equivalence"),
    ("cli", "kernel_dependence_probe", "rewrite.kernel_dependence_probe"),
    ("cli", "check_dirac", "vfun.check_dirac"),
    ("vfun", "check_dirac", "vfun.check_dirac"),
    ("rewrite", "find_simple_roots", "roots.find_simple_roots"),
    ("rewrite", "certify_hypotheses", "roots.certify_hypotheses"),
    ("vintegral", "reduce_sequence", "vintegral.reduce_sequence"),
    ("rewrite", "reduce_sequence", "vintegral.reduce_sequence"),
    ("vintegral", "extract_limit", "limits.extract_limit"),
    ("vnum", "extract_limit", "limits.extract_limit"),
    ("vintegral", "power_law_exponent", "limits.power_law_exponent"),
    ("vintegral", "integrate_rank", "vintegral.integrate_rank"),
    ("rewrite", "integrate_rank", "vintegral.integrate_rank"),
    ("rewrite", "compose", "vintegral.compose"),
)

#: Per-layer metrics of a traced run, with units, in report order.
METRICS = (
    ("deltacalc.import_s", "s"),
    ("vintegral.quad.calls", "count"),
    ("vintegral.quad.points", "count"),
    ("vintegral.quad.self_s", "s"),
    ("exprlang.fn_points", "count"),
    ("exprlang.fn_calls", "count"),
    ("exprlang.fn_self_s", "s"),
    ("rewrite.battery_points", "count"),
    ("rewrite.check_equivalence.self_s", "s"),
    ("vintegral.reduce_sequence.calls", "count"),
    ("vintegral.ranks_used", "count"),
    ("vintegral.early_stop_frac", "fraction"),
    ("limits.extract_limit.calls", "count"),
    ("limits.extract_limit.self_s", "s"),
    ("limits.power_law_exponent.calls", "count"),
    ("vintegral.compose.calls", "count"),
    ("vintegral.compose.self_s", "s"),
    ("vintegral.regions.calls", "count"),
    ("vintegral.regions.self_s", "s"),
    ("vintegral.regions.repeat_frac", "fraction"),
    ("roots.find_simple_roots.self_s", "s"),
    ("roots.certify_hypotheses.self_s", "s"),
    ("roots.certified_frac", "fraction"),
    ("vintegral.integrate_rank.calls", "count"),
    ("vintegral.integrate_rank.self_s", "s"),
    ("vfun.check_dirac.calls", "count"),
    ("vfun.check_dirac.self_s", "s"),
    ("vfun.rank_eval.calls", "count"),
    ("vfun.kernel_build_s", "s"),
    ("cli.run_command.self_s", "s"),
    ("exprlang.parse_expression.self_s", "s"),
    ("rewrite.reduce_expr_integral.self_s", "s"),
    ("rewrite.simplify.self_s", "s"),
    ("rewrite.kernel_dependence_probe.self_s", "s"),
)


def _size(x):
    return getattr(x, "size", 1)


class Tracer:
    def __init__(self):
        self.spans = []  # (id, name, start, end, parent id, qid, self_s)
        self._stack = []  # open spans: [id, name, start, child_s]
        self.qid = SETUP
        self.counts = Counter()  # machine-independent counts, queries only
        self.leaf_s = Counter()
        self._regions_seen = set()
        self._restore = []

    # -- spans -------------------------------------------------------------

    def begin_query(self, qid):
        self.qid = qid
        self._regions_seen = set()

    def span(self, name, fn, after=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [len(tracer.spans) + len(tracer._stack), name, perf_counter(), 0.0]
            parent = tracer._stack[-1] if tracer._stack else None
            tracer._stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._stack.pop()
                end = perf_counter()
                dur = end - frame[2]
                if parent is not None:
                    parent[3] += dur
                tracer.spans.append((frame[0], name, frame[2], end,
                                     parent[0] if parent else -1, tracer.qid,
                                     dur - frame[3]))
            if after is not None:
                after(result, args)
            return result

        return traced

    def _count(self, key, n=1):
        if self.qid != SETUP:
            self.counts[key] += n

    # -- leaves --------------------------------------------------------------

    def _timed_leaf(self, fn):
        tracer = self

        def leaf(x):
            t0 = perf_counter()
            out = fn(x)
            dt = perf_counter() - t0
            if tracer._stack:
                tracer._stack[-1][3] += dt
            if tracer.qid != SETUP:
                tracer.counts["exprlang.fn_calls"] += 1
                tracer.counts["exprlang.fn_points"] += _size(x)
                tracer.leaf_s["exprlang.fn"] += dt
            return out

        return leaf

    def _counted_leaf(self, fn, key):
        tracer = self

        def leaf(x):
            if tracer.qid != SETUP:
                tracer.counts[key] += _size(x)
            return fn(x)

        return leaf

    def _wrap_real_function(self, rf, leaf):
        return dataclasses.replace(rf, fn=leaf(rf.fn),
                                   derivs=tuple(leaf(d) for d in rf.derivs))

    # -- installation --------------------------------------------------------

    def _set(self, obj, attr, value):
        old = getattr(obj, attr)
        self._restore.append(lambda: setattr(obj, attr, old))
        setattr(obj, attr, value)

    def _set_item(self, mapping, key, value):
        old = mapping[key]
        self._restore.append(lambda: mapping.__setitem__(key, old))
        mapping[key] = value

    def install(self, pkg):
        """Rebind the traced names of the imported package `pkg`."""
        mods = {name: getattr(pkg, name) for name in
                ("cli", "exprlang", "limits", "rewrite", "roots", "vfun",
                 "vintegral", "vnum")}
        after = {
            "vintegral.reduce_sequence": self._after_reduce_sequence,
            "roots.certify_hypotheses": self._after_certify,
            "vintegral.compose": self._after_compose,
        }
        for mod, attr, name in SPANS:
            fn = getattr(mods[mod], attr)
            self._set(mods[mod], attr, self.span(name, fn, after.get(name)))

        quad = mods["vintegral"].quad
        self._set(mods["vintegral"], "quad", self._quad(quad))

        to_rf = mods["exprlang"].to_real_function

        def to_real_function(*args, **kwargs):
            return self._wrap_real_function(to_rf(*args, **kwargs), self._timed_leaf)

        self._set(mods["exprlang"], "to_real_function", to_real_function)

        def battery(make):
            def build(*args, **kwargs):
                leaf = lambda f: self._counted_leaf(f, "rewrite.battery_points")
                return [self._wrap_real_function(f, leaf) for f in make(*args, **kwargs)]
            return build

        batteries = mods["cli"].BATTERIES
        for key in list(batteries):
            self._set_item(batteries, key, battery(batteries[key]))
        for attr in ("standard_battery", "sift_battery"):
            self._set(mods["rewrite"], attr, battery(getattr(mods["rewrite"], attr)))

        kernels = mods["cli"].KERNELS
        for key in list(kernels):
            self._set_item(kernels, key, self.span("vfun.kernel_build", kernels[key]))

        vf_cls = mods["vfun"].VirtualFunction
        rank_eval = vf_cls.rank_eval
        tracer = self

        def counted_rank_eval(vf, n, x):
            tracer._count("vfun.rank_eval.calls")
            return rank_eval(vf, n, x)

        self._set(vf_cls, "rank_eval", counted_rank_eval)

    def uninstall(self):
        while self._restore:
            self._restore.pop()()

    # -- special cases -------------------------------------------------------

    def _quad(self, quad):
        tracer = self
        traced_quad = self.span("vintegral.quad", quad)

        def vintegral_quad(func, a, b, *args, **kwargs):
            tracer._count("vintegral.quad.calls")
            return traced_quad(tracer._counted_leaf(func, "vintegral.quad.points"),
                               a, b, *args, **kwargs)

        return vintegral_quad

    def _after_reduce_sequence(self, result, args):
        self._count("vintegral.ranks_used", len(result.rank_values))
        if len(result.rank_values) < len(list(args[0])):
            self._count("vintegral.early_stops")

    def _after_certify(self, cert, _args):
        if cert.verdict == "certified":
            self._count("roots.certified")

    def _after_compose(self, vf, _args):
        regions, label = vf.regions, vf.label
        traced = self.span("vintegral.regions", regions)
        tracer = self

        def scan(n, a, b):
            key = (label, n, a, b)
            if key in tracer._regions_seen:
                tracer._count("vintegral.regions.repeats")
            tracer._regions_seen.add(key)
            return traced(n, a, b)

        vf.regions = scan

    # -- results -------------------------------------------------------------

    def metrics(self, import_s):
        calls, self_s, total_s = Counter(), Counter(), Counter()
        for _sid, name, start, end, _parent, qid, own in self.spans:
            if qid == SETUP:
                continue
            calls[name] += 1
            self_s[name] += own
            total_s[name] += end - start
        c = self.counts

        def frac(num, den):
            return num / den if den else 0.0

        values = {
            "deltacalc.import_s": import_s,
            "vintegral.quad.calls": c["vintegral.quad.calls"],
            "vintegral.quad.points": c["vintegral.quad.points"],
            "exprlang.fn_points": c["exprlang.fn_points"],
            "exprlang.fn_calls": c["exprlang.fn_calls"],
            "exprlang.fn_self_s": self.leaf_s["exprlang.fn"],
            "rewrite.battery_points": c["rewrite.battery_points"],
            "vintegral.ranks_used": c["vintegral.ranks_used"],
            "vintegral.early_stop_frac": frac(c["vintegral.early_stops"],
                                              calls["vintegral.reduce_sequence"]),
            "vintegral.regions.repeat_frac": frac(c["vintegral.regions.repeats"],
                                                  calls["vintegral.regions"]),
            "roots.certified_frac": frac(c["roots.certified"],
                                         calls["roots.certify_hypotheses"]),
            "vfun.rank_eval.calls": c["vfun.rank_eval.calls"],
            "vfun.kernel_build_s": total_s["vfun.kernel_build"],
        }
        out = {}
        for name, unit in METRICS:
            if name not in values:
                base, _, stat = name.rpartition(".")
                values[name] = calls[base] if stat == "calls" else self_s[base]
            out[name] = {"value": values[name], "unit": unit}
        return out

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id\tname\tstart\tend\tparent\tqid\tself_s\n")
            for sid, name, start, end, parent, qid, own in self.spans:
                fh.write(f"{sid}\t{name}\t{start:.9f}\t{end:.9f}\t{parent}\t"
                         f"{qid}\t{own:.9f}\n")
