"""Expression language for the command-line front end.

Grammar: numbers, the variable x, + - * / ^ with standard precedence,
sin/cos/exp/atan/abs, delta(E), ddelta(E, k), parentheses.  Parsed trees
render back to equivalent text (round-trip stable) and lift to either a
plain RealFunction or a delta-expression AST.
"""

from __future__ import annotations

import cmath
import functools
import math
import operator
import re
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ExpressionError, ParseError
from .rewrite import (
    CompTerm,
    DeltaTerm,
    ProductTerm,
    ScaleTerm,
    SmoothTerm,
    SumTerm,
)
from .vfun import C_INF, RealFunction

__all__ = ["parse", "render", "lift", "parse_expression", "Node"]


# ---------------------------------------------------------------------------
# Tokens
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(r"""
    (?P<num>\d+(\.\d*)?([eE][+-]?\d+)?|\.\d+([eE][+-]?\d+)?)
  | (?P<name>[A-Za-z_][A-Za-z_0-9]*)
  | (?P<op>[-+*/^(),])
  | (?P<ws>\s+)
""", re.VERBOSE)

_FUNCTIONS = ("sin", "cos", "exp", "atan", "abs")


class Token(NamedTuple):
    kind: str  # "num" | "name" | "op" | "end"
    text: str
    pos: int


def _tokenize(text):
    tokens = []
    i = 0
    while i < len(text):
        m = _TOKEN_RE.match(text, i)
        if m is None:
            raise ParseError(f"unexpected character {text[i]!r}", position=i,
                             expected=("number", "name", "operator"))
        if m.lastgroup != "ws":
            tokens.append(Token(m.lastgroup, m.group(), i))
        i = m.end()
    tokens.append(Token("end", "", len(text)))
    return tokens


# ---------------------------------------------------------------------------
# AST
# ---------------------------------------------------------------------------

class Node:
    pass


@dataclass(frozen=True)
class Num(Node):
    value: float


@dataclass(frozen=True)
class Var(Node):
    pass


@dataclass(frozen=True)
class Bin(Node):
    op: str
    left: Node
    right: Node


@dataclass(frozen=True)
class Neg(Node):
    arg: Node


@dataclass(frozen=True)
class Call(Node):
    name: str
    arg: Node


@dataclass(frozen=True)
class Delta(Node):
    inner: Node
    order: int = 0


# ---------------------------------------------------------------------------
# Pratt parser
# ---------------------------------------------------------------------------

_BIN_PRECEDENCE = {"+": 10, "-": 10, "*": 20, "/": 20, "^": 30}
_UNARY_PRECEDENCE = 25

#: The highest ddelta order: above it the scale n^k of the lowest rank,
#: 16^k, is not a finite float, so no rank integral exists.
_MAX_ORDER = 255


def _number(tok):
    value = float(tok.text)
    if not math.isfinite(value):
        raise ParseError(f"number {tok.text!r} is out of range", position=tok.pos,
                         expected=("finite number",))
    return value


class _Parser:
    def __init__(self, tokens):
        self.tokens = tokens
        self.i = 0
        self.cur = tokens[0]
        self.delta_depth = 0

    def advance(self):
        # Never past the end token: every caller has checked its kind.
        tok = self.cur
        self.i += 1
        self.cur = self.tokens[self.i]
        return tok

    def expect_op(self, text):
        tok = self.cur
        if tok.kind != "op" or tok.text != text:
            raise ParseError(f"expected {text!r}, found {tok.text or 'end of input'!r}",
                             position=tok.pos, expected=(text,))
        return self.advance()

    def parse_expr(self, min_prec=0):
        left = self.parse_prefix()
        while True:
            tok = self.cur
            if tok.kind != "op" or tok.text not in _BIN_PRECEDENCE:
                break
            prec = _BIN_PRECEDENCE[tok.text]
            if prec < min_prec:
                break
            self.advance()
            # ^ is right-associative; the rest bind left.
            next_min = prec if tok.text == "^" else prec + 1
            right = self.parse_expr(next_min)
            left = Bin(tok.text, left, right)
        return left

    def parse_prefix(self):
        tok = self.cur
        if tok.kind == "op" and tok.text == "-":
            self.advance()
            return Neg(self.parse_expr(_UNARY_PRECEDENCE))
        if tok.kind == "op" and tok.text == "+":
            self.advance()
            return self.parse_expr(_UNARY_PRECEDENCE)
        if tok.kind == "num":
            self.advance()
            return Num(_number(tok))
        if tok.kind == "op" and tok.text == "(":
            self.advance()
            inner = self.parse_expr(0)
            self.expect_op(")")
            return inner
        if tok.kind == "name":
            return self.parse_name()
        raise ParseError(
            f"expected an expression, found {tok.text or 'end of input'!r}",
            position=tok.pos,
            expected=("number", "x", "(", "-") + _FUNCTIONS + ("delta", "ddelta"),
        )

    def parse_name(self):
        tok = self.advance()
        name = tok.text
        if name == "x":
            return Var()
        if name in _FUNCTIONS:
            self.expect_op("(")
            arg = self.parse_expr(0)
            self.expect_op(")")
            return Call(name, arg)
        if name in ("delta", "ddelta"):
            if self.delta_depth > 0:
                raise ParseError(
                    "delta terms cannot be nested inside another delta",
                    position=tok.pos, expected=("smooth inner expression",),
                )
            self.expect_op("(")
            self.delta_depth += 1
            try:
                inner = self.parse_expr(0)
            finally:
                self.delta_depth -= 1
            order = 0
            if name == "ddelta":
                self.expect_op(",")
                otok = self.cur
                if otok.kind != "num" or _number(otok) != int(_number(otok)):
                    raise ParseError("ddelta order must be a nonnegative integer",
                                     position=otok.pos, expected=("integer",))
                order = int(float(otok.text))
                if order > _MAX_ORDER:
                    raise ParseError(f"ddelta order {otok.text} is above {_MAX_ORDER}",
                                     position=otok.pos,
                                     expected=(f"integer at most {_MAX_ORDER}",))
                self.advance()
            self.expect_op(")")
            return Delta(inner, order)
        raise ParseError(f"unknown name {name!r}", position=tok.pos,
                         expected=("x",) + _FUNCTIONS + ("delta", "ddelta"))


def parse(text):
    """Parse source text to a syntax tree."""
    if not text or not text.strip():
        raise ParseError("empty expression", position=0, expected=("expression",))
    parser = _Parser(_tokenize(text))
    tree = parser.parse_expr(0)
    tok = parser.cur
    if tok.kind != "end":
        raise ParseError(f"trailing input {tok.text!r}", position=tok.pos,
                         expected=("end of input", "operator"))
    return tree


# ---------------------------------------------------------------------------
# Rendering (round-trip stable)
# ---------------------------------------------------------------------------

def _num_text(v):
    if v == int(v) and abs(v) < 1e15:
        return str(int(v))
    return repr(v)


def render(node, parent_prec=0):
    """Render a tree back to source text; parse(render(t)) == t."""
    if isinstance(node, Num):
        # A folded negative constant reads like the Neg(Num) it came from.
        text = _num_text(node.value)
        return f"({text})" if node.value < 0 and parent_prec > _UNARY_PRECEDENCE else text
    if isinstance(node, Var):
        return "x"
    if isinstance(node, Call):
        return f"{node.name}({render(node.arg)})"
    if isinstance(node, Delta):
        if node.order == 0:
            return f"delta({render(node.inner)})"
        return f"ddelta({render(node.inner)},{node.order})"
    if isinstance(node, Neg):
        body = render(node.arg, _UNARY_PRECEDENCE + 1)
        text = f"-{body}"
        return f"({text})" if parent_prec > _UNARY_PRECEDENCE else text
    if isinstance(node, Bin):
        prec = _BIN_PRECEDENCE[node.op]
        if node.op == "^":
            lhs = render(node.left, prec + 1)
            rhs = render(node.right, prec)
        else:
            lhs = render(node.left, prec)
            rhs = render(node.right, prec + 1)
        text = f"{lhs}{node.op}{rhs}"
        return f"({text})" if parent_prec > prec else text
    raise ExpressionError(f"cannot render {type(node).__name__}")


# ---------------------------------------------------------------------------
# Symbolic differentiation (for smooth subtrees)
# ---------------------------------------------------------------------------

_ZERO = Num(0.0)
_ONE = Num(1.0)


def _is_zero(n):
    return isinstance(n, Num) and n.value == 0.0


def _is_one(n):
    return isinstance(n, Num) and n.value == 1.0


def _add(a, b):
    if _is_zero(a):
        return b
    if _is_zero(b):
        return a
    return Bin("+", a, b)


def _sub(a, b):
    if _is_zero(b):
        return a
    return Bin("-", a, b)


def _mul(a, b):
    if _is_zero(a) or _is_zero(b):
        return _ZERO
    if _is_one(a):
        return b
    if _is_one(b):
        return a
    return Bin("*", a, b)


def _diff(node):
    """The derivative tree of a tree with no delta and no abs; a subtree that
    `node` holds more than once, as one object, is differentiated once."""
    done = {}

    def d(n):
        if id(n) not in done:
            done[id(n)] = rule(n)
        return done[id(n)]

    def rule(n):
        if isinstance(n, Num):
            return _ZERO
        if isinstance(n, Var):
            return _ONE
        if isinstance(n, Neg):
            return Neg(d(n.arg))
        if isinstance(n, Bin):
            a, b = n.left, n.right
            if n.op == "+":
                return _add(d(a), d(b))
            if n.op == "-":
                return _sub(d(a), d(b))
            if n.op == "*":
                return _add(_mul(d(a), b), _mul(a, d(b)))
            if n.op == "/":
                # a / v^p: (a' v - p a v') / v^(p+1), so that order k
                # holds v^(k+1) where squaring b would give v^(2^k).
                v, p = ((b.left, b.right.value)
                        if isinstance(b, Bin) and b.op == "^" and isinstance(b.right, Num)
                        else (b, 1.0))
                num = _sub(_mul(d(a), v), _mul(_mul(Num(p), a), d(v)))
                return Bin("/", num, Bin("^", v, Num(p + 1.0)))
            if n.op == "^" and isinstance(b, Num):
                return _mul(_mul(b, Bin("^", a, Num(b.value - 1.0))), d(a))
            if n.op == "^":
                da, db = d(a), d(b)
                # A structural zero base is 0 wherever it is defined; a
                # constant exponent takes the power rule, defined at a = 0.
                if _is_zero(a):
                    return _ZERO
                if _is_zero(db):
                    return _mul(_mul(b, Bin("^", a, _sub(b, _ONE))), da)
                # a^b (b' log a + b a'/a)
                term = _mul(db, Call("log", a))
                return _mul(n, term if _is_zero(da) else _add(term, Bin("/", _mul(b, da), a)))
        if isinstance(n, Call):
            inner = d(n.arg)
            if n.name == "sin":
                return _mul(Call("cos", n.arg), inner)
            if n.name == "cos":
                return _mul(Neg(Call("sin", n.arg)), inner)
            if n.name == "exp":
                return _mul(Call("exp", n.arg), inner)
            if n.name == "atan":
                return Bin("/", inner, _add(_ONE, Bin("^", n.arg, Num(2.0))))
            if n.name == "log":
                return _mul(inner, Bin("/", _ONE, n.arg))
        raise ExpressionError(f"cannot differentiate {type(n).__name__}")

    return d(node)


def _share(node):
    """node with its equal subtrees made one object.  As a tree, the product
    rule doubles a product's terms at every order; shared, a chain of
    derivatives grows with its distinct subtrees."""
    made, shared = {}, {}

    def share(n):
        if id(n) not in shared:
            fields = [share(f) if isinstance(f, Node) else f for f in vars(n).values()]
            # Children by identity, which `made` keeps from reuse; numbers
            # by repr, which keeps -0.0 apart from 0.0.
            key = (type(n), *[id(f) if isinstance(f, Node) else repr(f) for f in fields])
            shared[id(n)] = made.setdefault(key, type(n)(*fields))
        return shared[id(n)]

    return share(node)


def _array_power(a, k):
    """a ** k for an integer constant k, through |a|: numpy's power leaves
    its vector loop for a negative base and calls pow once per element.
    For a >= 0 and for k in -1..2 the bits are numpy's a ** k, and ±0, ±inf
    and nan read as pow does; for a < 0 and another k a value may differ
    from pow's by 1 ulp."""
    power = np.abs(a) ** k
    return np.copysign(power, a) if k % 2 else power


# One code object per shape: a tree's source with each distinct number as
# a parameter c0, c1, ... of `make`, which returns the tree's function of
# x.  It runs with these names bound to `math` for a float (the same
# operations, in the same order, as a recursive walk, a power `pw` being
# Python's `**`) or to numpy ufuncs for an ndarray.  On an ndarray a power
# takes the integer power of |x| and, for an odd exponent, x's sign
# (_array_power); its last bits depend on the CPU loops numpy dispatches
# to.  A tree with a power whose exponent is not an integer constant runs
# on floats alone, an array point by point: on floats a negative base then
# gives a complex value, which abs() may make real again, as `log` of a
# negative number does.  `log` is no function of the language: only the
# derivative of a power whose exponent varies holds it.
def _log(a):
    if a == 0:
        raise ZeroDivisionError("log of zero")
    return cmath.log(a) if a < 0 else math.log(a)


_SCALAR_NAMES = {"sin": math.sin, "cos": math.cos, "exp": math.exp, "atan": math.atan,
                 "abs": abs, "log": _log, "pw": operator.pow}
_ARRAY_NAMES = {"sin": np.sin, "cos": np.cos, "exp": np.exp, "atan": np.arctan,
                "abs": np.abs, "log": np.log, "pw": _array_power}


class _Shape:
    """A delta-free tree as the source of `make(c0, c1, ...)` and the
    numbers to call it with, in one walk, which also records whether the
    tree holds an abs call (`abs`) or a power whose exponent is not an
    integer constant (`pointwise`)."""

    def __init__(self, node):
        self.lines, self.names, self.params, self.values = [], {}, {}, []
        self.abs = self.pointwise = False
        result = self._emit(node)
        self.source = "".join([
            f"def make({', '.join(self.params.values())}):\n    def f(x):\n",
            *(f"        {line}\n" for line in self.lines),
            f"        return {result}\n    return f\n"])

    def _emit(self, node):
        """Append the statements computing `node`; return the name that
        holds its value.  Each number gets one parameter, by repr, which
        keeps -0.0 apart from 0.0.  `names` maps each statement's
        expression to its name, so equal subtrees are computed once, and
        each node met to the same, by identity (the caller holds the tree),
        so a subtree that is one object is walked once."""
        if isinstance(node, Var):
            return "x"
        if isinstance(node, Num):
            key = repr(node.value)
            if key not in self.params:
                self.params[key] = f"c{len(self.values)}"
                self.values.append(node.value)
            return self.params[key]
        if id(node) in self.names:
            return self.names[id(node)]
        if isinstance(node, Neg):
            expr = f"-{self._emit(node.arg)}"
        elif isinstance(node, Call):
            expr = f"{node.name}({self._emit(node.arg)})"
            if node.name == "abs":
                self.abs = True
        elif isinstance(node, Bin):
            a, b = self._emit(node.left), self._emit(node.right)
            expr = f"pw({a}, {b})" if node.op == "^" else f"{a} {node.op} {b}"
            if node.op == "^" and not (isinstance(node.right, Num)
                                       and float(node.right.value).is_integer()):
                self.pointwise = True
        else:
            raise ExpressionError(f"cannot evaluate {type(node).__name__}")
        if expr not in self.names:
            self.names[expr] = f"t{len(self.lines)}"
            self.lines.append(f"{self.names[expr]} = {expr}")
        self.names[id(node)] = self.names[expr]
        return self.names[expr]


@functools.lru_cache(maxsize=256)
def _factories(source, pointwise):
    """`make` of a shape's source run in the math namespace, and in numpy's
    unless the shape runs point by point: once per shape, not per tree."""
    code = compile(source, "<expression>", "exec")
    scalar_ns = dict(_SCALAR_NAMES)
    exec(code, scalar_ns)
    if pointwise:
        return scalar_ns["make"], None
    array_ns = dict(_ARRAY_NAMES)
    exec(code, array_ns)
    return scalar_ns["make"], array_ns["make"]


def _function(shape, label):
    """The function of a float or an ndarray that `shape` computes."""
    make_scalar, make_array = _factories(shape.source, shape.pointwise)
    scalar_f, array_f = make_scalar(*shape.values), None
    if make_array is None:
        # A numpy scalar x would take numpy's power.
        scalar_f = lambda x, f=scalar_f: f(float(x))
    else:
        array_f = make_array(*shape.values)

    def point(x):
        try:
            return fn(x)
        except (ExpressionError, ValueError):
            return math.nan

    def fn(x):
        if isinstance(x, np.ndarray):
            if array_f is None:
                return np.array([point(v) for v in x.ravel().tolist()],
                                dtype=float).reshape(x.shape)
            out = array_f(x)
            return out if np.shape(out) == x.shape else np.full(x.shape, out)
        try:
            value = scalar_f(x)
        except (ZeroDivisionError, OverflowError, TypeError) as exc:
            # TypeError: a complex value reached a math function.  A float
            # `**` overflows with the bare errno pair (34, '...').
            reason = ("result out of range"
                      if isinstance(exc, OverflowError) and len(exc.args) == 2 else exc)
            raise ExpressionError(f"cannot evaluate {label} at x={x!r}: {reason}") from exc
        if isinstance(value, complex):
            raise ExpressionError(f"cannot evaluate {label} at x={x!r}: value is not real")
        return float(value)

    return fn


def _compile(node, label):
    """Compile a delta-free tree to a function of a float or an ndarray."""
    return _function(_Shape(node), label)


def _derivative_rule(node, label):
    """The nth_deriv rule of `node`: order k is derived from node's own
    tree and compiled on its first call, as derivative trees grow fast and
    most are never evaluated.  `trees` holds each tree derived so far,
    `compiled` each order called so far."""
    trees, compiled = [node], {}

    def rule(k):
        def fn(x):
            if k not in compiled:
                while len(trees) <= k:
                    trees.append(_diff(_share(trees[-1])))
                compiled[k] = _compile(trees[k], f"({label})^({k})")
            return compiled[k](x)

        return fn

    return rule


def to_real_function(node):
    """Compile a delta-free tree to a RealFunction: C^0 if it holds an abs
    call, else with symbolic derivatives of every order, each derived and
    compiled on its first call.

    The function and its derivatives take a float or an ndarray; on a float,
    division by zero, log of zero, overflow and complex values raise
    ExpressionError.  A tree with a power whose exponent is not an integer
    constant is evaluated point by point on floats, on an ndarray too, and
    a point where that raises ExpressionError or ValueError reads nan.
    """
    return _real_function(node)


def _real_function(node):
    # The body of to_real_function, under a name that instrumentation
    # rebinding to_real_function leaves alone: the test batteries compile
    # through it once per process and keep what it returns.
    label = render(node)
    shape = _Shape(node)
    fn = _function(shape, label)
    if shape.abs:
        return RealFunction(fn, smoothness=0, label=label)
    # _diff differentiates every tree free of abs into such a tree again.
    return RealFunction(fn, smoothness=C_INF, label=label,
                        nth_deriv=_derivative_rule(node, label))


# ---------------------------------------------------------------------------
# Lifting to delta expressions
# ---------------------------------------------------------------------------

_FOLD = {"+": operator.add, "-": operator.sub, "*": operator.mul,
         "/": operator.truediv, "^": operator.pow}


def _walk(node):
    """Fold `node` and split it into summands in one walk: the folded tree,
    and where it holds a Delta its summands c * factor * atom as (c, factor,
    atom), else None; atom is a Delta node or a delta-free tree, factor the
    tree of the smooth factors it carries, or None.  Num op Num and -Num
    fold where the result is a finite real float, and 0*E, E*0 and 0/E to 0
    where E is delta-free; a node whose children fold to themselves is
    kept.  Children are walked first: the innermost error is raised."""
    if isinstance(node, Delta):
        inner, _ = _walk(node.inner)
        if inner is not node.inner:
            node = Delta(inner, node.order)
        return node, [(1.0, None, node)]
    if isinstance(node, (Neg, Call)):
        arg, held = _walk(node.arg)
        if isinstance(node, Neg) and isinstance(arg, Num):
            return Num(-arg.value), None
        if arg is not node.arg:
            node = Neg(arg) if isinstance(node, Neg) else Call(node.name, arg)
        if held is None:
            return node, None
        if isinstance(node, Call):
            raise ExpressionError(f"delta terms cannot appear inside {node.name}(...)")
        return node, [(-c, f, atom) for c, f, atom in held]
    if not isinstance(node, Bin):
        return node, None
    (a, sa), (b, sb) = _walk(node.left), _walk(node.right)
    if a is not node.left or b is not node.right:
        node = Bin(node.op, a, b)
    if sa is None and sb is None:
        if isinstance(a, Num) and isinstance(b, Num):
            try:
                value = _FOLD[node.op](a.value, b.value)
            except ArithmeticError:
                value = None
            if isinstance(value, float) and math.isfinite(value):
                return Num(value), None
        elif node.op in "*/" and _is_zero(a) or node.op == "*" and _is_zero(b):
            return _ZERO, None
        return node, None
    if node.op in "+-":
        sign = -1.0 if node.op == "-" else 1.0
        return node, ([(1.0, None, a)] if sa is None else sa) + [
            (sign * c, f, atom) for c, f, atom in ([(1.0, None, b)] if sb is None else sb)]
    if node.op == "*":
        if sa is not None and sb is not None:
            raise ExpressionError(
                "products of two delta terms are undefined outside a "
                "contraction integral")
        return node, _times(sa, b) if sb is None else _times(sb, a)
    if node.op == "/" and sb is None:
        return node, _times(sa, Bin("/", _ONE, b))
    raise ExpressionError("division by a delta term is undefined" if node.op == "/"
                          else "delta terms cannot be exponentiated")


def _shift_of(node):
    """a such that node == x - a (x, x-a, x+a or a+x), else None."""
    if isinstance(node, Var):
        return 0.0
    if isinstance(node, Bin) and node.op in "+-":
        if isinstance(node.left, Var) and isinstance(node.right, Num):
            return node.right.value if node.op == "-" else -node.right.value
        if node.op == "+" and isinstance(node.left, Num) and isinstance(node.right, Var):
            return -node.left.value
    return None


def _lift_delta(node):
    shift = _shift_of(node.inner)
    if shift is not None:
        return DeltaTerm(order=node.order, shift=shift)
    if node.order > 0:
        raise ExpressionError(
            "ddelta requires an inner expression of the form x, x-a, or x+a "
            "(or a+x), with a constant a")
    return CompTerm(inner=to_real_function(node.inner))


def _times(summands, factor):
    """Each summand times a smooth factor tree: a constant joins c."""
    if isinstance(factor, Num):
        return [(c * factor.value, f, atom) for c, f, atom in summands]
    return [(c, factor if f is None else Bin("*", f, factor), atom)
            for c, f, atom in summands]


def lift(node):
    """Lift a tree to a DeltaExpr, or a RealFunction if delta-free; constant
    subtrees are folded first."""
    node, summands = _walk(node)
    if summands is None:
        return to_real_function(node)
    terms = []
    for c, f, atom in summands:
        if isinstance(atom, Delta):
            term = _lift_delta(atom)
            if f is not None:
                term = ProductTerm(to_real_function(f), term)
        else:
            term = SmoothTerm(to_real_function(atom if f is None else Bin("*", atom, f)))
        terms.append(term if c == 1.0 else ScaleTerm(c, term))
    return terms[0] if len(terms) == 1 else SumTerm(tuple(terms))


def parse_expression(text):
    """Parse and lift in one step: the CLI entry point."""
    return lift(parse(text))
