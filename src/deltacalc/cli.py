"""Command-line front end.

Verbs: simplify, integrate, equiv, check-dirac, probe-kernels, trace.
Human-readable output by default, --json for machine output (floats at 17
significant digits, byte-deterministic), --trace-out for CSV rank traces.
Exit status: 0 success, 1 engine rejection, 2 usage/parse/config error.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigError, DeltaCalcError, ParseError
from .exprlang import parse_expression
from .rewrite import (
    check_equivalence,
    kernel_dependence_probe,
    reduce_expr_integral,
    sift_battery,
    simplify,
    standard_battery,
)
from .roots import WINDOW
from .vfun import RealFunction, check_dirac, kernel_from_json, kernel_to_json

__all__ = ["main", "run_command", "Config", "KERNELS"]


#: Named kernels, each built on its first call and shared by every later
#: one: a kernel is never mutated, so no query can change another's.
KERNELS = {name: functools.lru_cache(maxsize=1)(
               functools.partial(kernel_from_json, {"name": record}))
           for name, record in (("bump", "bump"), ("square", "square"),
                                ("plus", "plus"), ("minus", "minus"),
                                ("mix", "mixture"), ("conv", "convolution"))}

BATTERIES = {
    "standard": standard_battery,
    "sift": sift_battery,
}


@dataclass(frozen=True)
class Config:
    tolerance: float = 1e-9
    probe_min_exp: int = 4
    probe_max_exp: int = 20
    battery: str = "standard"
    scan_window: tuple = WINDOW
    kernel: str = "bump"

    @property
    def schedule(self):
        return tuple(2**k for k in range(self.probe_min_exp,
                                         self.probe_max_exp + 1))

    def make_kernel(self):
        if self.kernel not in KERNELS:
            raise ConfigError(f"unknown kernel {self.kernel!r}; choose from "
                              f"{sorted(KERNELS)}")
        return KERNELS[self.kernel]()

    def make_battery(self):
        if self.battery not in BATTERIES:
            raise ConfigError(f"unknown battery {self.battery!r}; choose from "
                              f"{sorted(BATTERIES)}")
        return BATTERIES[self.battery]()


def _load_config(path):
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
    known = {"tolerance", "probe_min_exp", "probe_max_exp", "battery",
             "scan_window", "kernel"}
    unknown = set(raw) - known
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    # JSON's true and false are Python bools, which are ints too.
    for key, kind in (("probe_min_exp", int), ("probe_max_exp", int),
                      ("tolerance", (int, float)), ("battery", str), ("kernel", str)):
        if key in raw and (isinstance(raw[key], bool) or not isinstance(raw[key], kind)):
            raise ConfigError(f"config {key} has the wrong type: {raw[key]!r}")
    if "scan_window" in raw:
        lo, hi = raw["scan_window"] = tuple(float(v) for v in raw["scan_window"])
        if not -math.inf < lo < hi < math.inf:
            raise ConfigError("scan_window must satisfy lo < hi, both finite")
    return Config(**raw)


def _apply_flags(cfg, args):
    updates = {}
    for key in ("tolerance", "probe_min_exp", "probe_max_exp", "battery", "kernel"):
        val = getattr(args, key, None)
        if val is not None:
            updates[key] = val
    cfg = replace(cfg, **updates)
    if cfg.probe_min_exp < 1 or cfg.probe_max_exp <= cfg.probe_min_exp:
        raise ConfigError("probe exponents must satisfy 1 <= min < max")
    if cfg.probe_max_exp > 1023:
        # Above 2**1023 a rank is no longer a finite float.
        raise ConfigError(f"--probe-max-exp must be at most 1023, not {cfg.probe_max_exp}")
    if not 0 < cfg.tolerance < math.inf:
        raise ConfigError(f"tolerance must be positive and finite, not {cfg.tolerance!r}")
    return cfg


# ---------------------------------------------------------------------------
# Deterministic JSON (floats at 17 significant digits)
# ---------------------------------------------------------------------------

def _json_text(obj):
    """obj as JSON text: floats at %.17g, strings written as json.dumps
    writes them (ASCII keys, values with non-ASCII kept), and no call to
    json.dumps where a string is copied unchanged between quotes."""
    if isinstance(obj, float):
        return "%.17g" % obj
    if isinstance(obj, (list, tuple)):
        # Mostly [n, I_n] pairs: their ints and floats are written in place.
        return "[" + ",".join(["%.17g" % v if type(v) is float else str(v)
                               if type(v) is int else _json_text(v) for v in obj]) + "]"
    if isinstance(obj, dict):
        return "{" + ",".join(_json_key(k) + ":" + _json_text(v)
                              for k, v in obj.items()) + "}"
    if isinstance(obj, str):
        return f'"{obj}"' if _plain(obj) else json.dumps(obj, ensure_ascii=False)
    if obj is None or isinstance(obj, bool):
        return "null" if obj is None else "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def _plain(text):
    """Whether json.dumps writes `text` as it is between quotes."""
    return text.isascii() and text.isprintable() and '"' not in text and "\\" not in text


@functools.lru_cache(maxsize=256)
def _json_key(key):
    key = str(key)
    return f'"{key}"' if _plain(key) else json.dumps(key)


def _emit(payload, args, out):
    """Write a verb's payload: as JSON, or its "human" text."""
    if args.json:
        out.write(_json_text(payload) + "\n")
    else:
        out.write(payload.get("human", str(payload)) + "\n")


# ---------------------------------------------------------------------------
# Verbs: each takes (args, cfg) and returns its payload, which run_command
# writes with _emit.
# ---------------------------------------------------------------------------

def _cmd_simplify(args, cfg):
    expr = parse_expression(args.expression)
    if isinstance(expr, RealFunction):
        raise DeltaCalcError("expression contains no delta term to simplify")
    nf = simplify(expr, window=cfg.scan_window)
    strength = ("strong" if nf.strength == "strong"
                else f"order {nf.strength[1]}")
    payload = nf.to_json()
    payload["human"] = f"{nf.render()}   [{strength}]"
    return payload


def _integral_human(res):
    if res.kind == "reduced":
        return f"Reduced({res.value:.12g}, err~{res.error_estimate:.3g})"
    if res.kind == "irreducible":
        word = "+" if res.sign > 0 else "-"
        return f"Irreducible(p={res.exponent:.3g}, sign {word})"
    return "Undetermined"


def _cmd_integrate(args, cfg):
    expr = parse_expression(args.expression)
    kernel = cfg.make_kernel()
    if not all(math.isfinite(b) for b in (args.lower, args.upper) if b is not None):
        raise ValueError("constant bound must be finite")
    lo = -math.inf if args.lower is None else args.lower
    hi = math.inf if args.upper is None else args.upper
    res = reduce_expr_integral(expr, kernel=kernel, lo=lo, hi=hi,
                               schedule=cfg.schedule, tol=cfg.tolerance,
                               window=cfg.scan_window)
    if args.trace_out:
        _write_trace(args.trace_out, "n,I_n", res.rank_values)
    payload = res.to_json()
    payload["human"] = _integral_human(res)
    return payload


def _cmd_equiv(args, cfg):
    lhs = parse_expression(args.lhs)
    rhs = parse_expression(args.rhs)
    kernel = cfg.make_kernel()
    verdict = check_equivalence(lhs, rhs, kernel=kernel,
                                battery=cfg.make_battery(), order=args.order,
                                tol=max(cfg.tolerance, 1e-8) * 10,
                                schedule=cfg.schedule, window=cfg.scan_window)
    payload = verdict.to_json()
    if verdict.variant == "consistent_equivalent":
        human = (f"ConsistentEquivalent over {verdict.battery_size} test "
                 f"functions (max deviation {verdict.max_deviation:.3g})")
    elif verdict.variant == "distinct":
        human = (f"Distinct: witness {verdict.witness} gives "
                 f"{verdict.lhs_value:.6g} vs {verdict.rhs_value:.6g}")
    else:
        human = (f"IrreducibleSide: {verdict.side} does not reduce against "
                 f"{verdict.witness}")
    if verdict.skipped:
        human += f"; skipped, not finite at a shift: {', '.join(verdict.skipped)}"
    payload["human"] = human
    return payload


def _cmd_check_dirac(args, cfg):
    kernel = cfg.make_kernel()
    res = check_dirac(kernel, schedule=cfg.schedule)
    payload = res.to_json()
    payload["kernel"] = kernel_to_json(kernel)
    if res.ok:
        payload["human"] = (
            f"{cfg.kernel}: valid Dirac kernel "
            f"(normalization {res.normalization:.12g}, support "
            f"{res.support_class.value})")
    else:
        payload["human"] = f"{cfg.kernel}: NOT a Dirac kernel — {res}"
    return payload


def _cmd_probe_kernels(args, cfg):
    g = parse_expression(args.expression)
    if not isinstance(g, RealFunction):
        raise DeltaCalcError(
            "probe-kernels expects a plain inner function, not a delta "
            "expression")
    names = [s.strip() for s in args.kernels.split(",") if s.strip()]
    for name in names:
        if name not in KERNELS:
            raise ConfigError(f"--kernels: unknown kernel {name!r}")
    if len(names) < 2 or len(set(names)) < len(names):
        raise ConfigError(f"--kernels needs two or more distinct kernel names, "
                          f"not {args.kernels!r}")
    kernels = [KERNELS[name]() for name in names]
    report = kernel_dependence_probe(g, kernels, schedule=cfg.schedule,
                                     window=cfg.scan_window)
    payload = report.to_json()
    flag = "FLAGGED" if report.flagged else "ok"
    lines = [f"{name}: {_integral_human(res)}" for name, res in report.outcomes]
    payload["human"] = f"{report.g_label}: {flag} — {report.reason}\n" + \
        "\n".join("  " + line for line in lines)
    return payload


def _write_trace(path, header, rows):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(header + "\n")
        for a, b in rows:
            fh.write(f"{a:.17g},{b:.17g}\n")


def _cmd_trace(args, cfg):
    if args.at_rank is not None and args.at_rank < 1:
        raise ConfigError(f"--at-rank must be a rank >= 1, not {args.at_rank}")
    if args.points < 1:
        raise ConfigError(f"--points must be >= 1, not {args.points}")
    for flag, x in (("--x-min", args.x_min), ("--x-max", args.x_max)):
        if not math.isfinite(x):
            raise ConfigError(f"{flag} must be finite, not {x}")
    expr = parse_expression(args.expression)
    kernel = cfg.make_kernel()
    if args.at_rank is not None:
        # Pointwise samples of the bound integrand at one rank.
        from .rewrite import expr_rank_eval
        n = args.at_rank
        if isinstance(expr, RealFunction):
            ev = lambda x: float(expr(x))
        else:
            ev = lambda x: expr_rank_eval(expr, kernel, n, x)
        lo, hi = args.x_min, args.x_max
        xs = np.linspace(lo, hi, args.points)
        rows = [(float(x), ev(float(x))) for x in xs]
        header = "x,value"
    else:
        res = reduce_expr_integral(expr, kernel=kernel, schedule=cfg.schedule,
                                   tol=cfg.tolerance, window=cfg.scan_window)
        rows = list(res.rank_values)
        header = "n,I_n"
    if args.trace_out:
        _write_trace(args.trace_out, header, rows)
        return {"rows": len(rows), "file": args.trace_out,
                "human": f"wrote {len(rows)} rows to {args.trace_out}"}
    body = "\n".join(f"{a:.17g},{b:.17g}" for a, b in rows)
    return {"rows": len(rows), "human": header + "\n" + body}


# ---------------------------------------------------------------------------
# Argument parsing and dispatch
# ---------------------------------------------------------------------------

class _ParserExit(Exception):
    """What the parser would print before exiting with `status`: help text
    (status 0), or a usage error with the usage line apart (status 2)."""

    def __init__(self, status, message, usage=""):
        super().__init__(message)
        self.status, self.usage = status, usage


class _RaisingParser(argparse.ArgumentParser):
    """Raises _ParserExit where argparse prints and exits, so one parser
    serves every call, each with its own output streams."""

    def print_help(self, file=None):
        raise _ParserExit(0, self.format_help())

    def error(self, message):
        raise _ParserExit(2, message, self.format_usage())


@functools.lru_cache(maxsize=1)
def _build_parser():
    """The CLI parser, built once; each parse gets a fresh Namespace."""
    top = _RaisingParser(
        prog="deltacalc",
        description="Symbolic-numeric calculus of Dirac delta expressions "
                    "over rank-indexed virtual functions.",
    )
    sub = top.add_subparsers(dest="verb", required=True)

    def common(p):
        p.add_argument("--json", action="store_true",
                       help="machine-readable single-object JSON output")
        p.add_argument("--config", help="JSON config file path")
        p.add_argument("--tolerance", type=float)
        p.add_argument("--probe-min-exp", type=int, dest="probe_min_exp")
        p.add_argument("--probe-max-exp", type=int, dest="probe_max_exp")
        p.add_argument("--battery", choices=sorted(BATTERIES))
        p.add_argument("--kernel", choices=sorted(KERNELS))

    p = sub.add_parser("simplify", help="rewrite to normal form")
    p.add_argument("expression")
    common(p)

    p = sub.add_parser("integrate", help="reduce the virtual integral")
    p.add_argument("expression")
    p.add_argument("--lower", type=float, help="finite lower bound")
    p.add_argument("--upper", type=float, help="finite upper bound")
    p.add_argument("--trace-out", dest="trace_out", help="CSV of (n, I_n)")
    common(p)

    p = sub.add_parser("equiv", help="check Dirac equivalence of two expressions")
    p.add_argument("lhs")
    p.add_argument("rhs")
    p.add_argument("--order", type=int, help="restrict battery to C^n functions")
    common(p)

    p = sub.add_parser("check-dirac", help="verify the kernel conditions")
    common(p)

    p = sub.add_parser("probe-kernels",
                       help="test a composite for kernel dependence")
    p.add_argument("expression", help="inner function g(x)")
    p.add_argument("--kernels", default="minus,square",
                   help="comma-separated kernel names")
    common(p)

    p = sub.add_parser("trace", help="export rank or pointwise samples")
    p.add_argument("expression")
    p.add_argument("--at-rank", type=int, dest="at_rank",
                   help="sample the rank-n integrand pointwise")
    p.add_argument("--x-min", type=float, default=-2.0, dest="x_min")
    p.add_argument("--x-max", type=float, default=2.0, dest="x_max")
    p.add_argument("--points", type=int, default=401)
    p.add_argument("--trace-out", dest="trace_out", help="CSV output path")
    common(p)

    return top


#: The options that take a float.  argparse reads a negative value in
#: exponent form ("-1e3") as an option, so `_joined` joins it to its option.
_FLOAT_OPTIONS = ("--lower", "--upper", "--x-min", "--x-max", "--tolerance")


def _joined(argv):
    """argv with each negative float that follows a float option before any
    "--" joined to it: "--lower", "-1e3" -> "--lower=-1e3"."""
    out = []
    for arg in argv:
        if out and out[-1] in _FLOAT_OPTIONS and "--" not in out and arg[:1] == "-":
            try:
                float(arg)
            except ValueError:
                pass
            else:
                out[-1] += "=" + arg
                continue
        out.append(arg)
    return out


_DISPATCH = {
    "simplify": _cmd_simplify,
    "integrate": _cmd_integrate,
    "equiv": _cmd_equiv,
    "check-dirac": _cmd_check_dirac,
    "probe-kernels": _cmd_probe_kernels,
    "trace": _cmd_trace,
}


def run_command(argv, out=None, err=None):
    """Parse argv and run one verb; returns the exit status."""
    argv = sys.argv[1:] if argv is None else list(argv)
    out = out if out is not None else sys.stdout
    err = err if err is not None else sys.stderr
    try:
        args = _build_parser().parse_args(_joined(argv))
    except _ParserExit as exc:
        if exc.status == 0:
            out.write(str(exc))
        elif "--json" in argv:
            err.write(_json_text({"error": "usage", "message": str(exc),
                                  "usage": exc.usage.strip()}) + "\n")
        else:
            err.write(f"{exc.usage}error (usage): {exc}\n")
        return exc.status

    json_mode = getattr(args, "json", False)

    def fail(status, kind, exc):
        msg = {"error": kind, "message": str(exc)}
        if isinstance(exc, ParseError) and exc.position is not None:
            msg["position"] = exc.position
            msg["expected"] = sorted(exc.expected)
        if json_mode:
            err.write(_json_text(msg) + "\n")
        else:
            err.write(f"error ({kind}): {exc}\n")
        return status

    try:
        cfg = _load_config(args.config) if args.config else Config()
        cfg = _apply_flags(cfg, args)
    except (ConfigError, TypeError, ValueError) as exc:
        return fail(2, "config", exc)

    try:
        _emit(_DISPATCH[args.verb](args, cfg), args, out)
        return 0
    except ParseError as exc:
        return fail(2, "parse", exc)
    except ConfigError as exc:
        return fail(2, "config", exc)
    except DeltaCalcError as exc:
        return fail(1, "engine", exc)
    except (ValueError, TypeError, ArithmeticError) as exc:
        return fail(1, "engine", exc)


def main():
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
