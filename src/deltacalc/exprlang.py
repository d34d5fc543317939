"""Expression language for the command-line front end.

Grammar: numbers, the variable x, + - * / ^ with standard precedence,
sin/cos/exp/atan/abs, delta(E), ddelta(E, k), parentheses.  Parsed trees
render back to equivalent text (round-trip stable) and lift to either a
plain RealFunction or a delta-expression AST.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

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


@dataclass(frozen=True)
class Token:
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
        self.delta_depth = 0

    @property
    def cur(self):
        return self.tokens[self.i]

    def advance(self):
        tok = self.cur
        self.i += 1
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
                self.advance()
                order = int(float(otok.text))
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
        return _num_text(node.value)
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


def _mul(a, b):
    if _is_zero(a) or _is_zero(b):
        return _ZERO
    if _is_one(a):
        return b
    if _is_one(b):
        return a
    return Bin("*", a, b)


def _diff(node):
    if isinstance(node, (Num,)):
        return _ZERO
    if isinstance(node, Var):
        return _ONE
    if isinstance(node, Neg):
        return Neg(_diff(node.arg))
    if isinstance(node, Bin):
        a, b = node.left, node.right
        if node.op == "+":
            return _add(_diff(a), _diff(b))
        if node.op == "-":
            return Bin("-", _diff(a), _diff(b))
        if node.op == "*":
            return _add(_mul(_diff(a), b), _mul(a, _diff(b)))
        if node.op == "/":
            num = Bin("-", _mul(_diff(a), b), _mul(a, _diff(b)))
            return Bin("/", num, Bin("^", b, Num(2.0)))
        if node.op == "^":
            if not isinstance(b, Num):
                raise ExpressionError(
                    "exponent must be a numeric constant for differentiation")
            k = b.value
            return _mul(_mul(Num(k), Bin("^", a, Num(k - 1.0))), _diff(a))
    if isinstance(node, Call):
        inner = _diff(node.arg)
        if node.name == "sin":
            return _mul(Call("cos", node.arg), inner)
        if node.name == "cos":
            return _mul(Neg(Call("sin", node.arg)), inner)
        if node.name == "exp":
            return _mul(Call("exp", node.arg), inner)
        if node.name == "atan":
            return Bin("/", inner, _add(_ONE, Bin("^", node.arg, Num(2.0))))
        if node.name == "abs":
            raise ExpressionError("abs(...) is not differentiable at 0")
    raise ExpressionError(f"cannot differentiate {type(node).__name__}")


# One code object per tree, run with these names bound to `math` for a
# float (the same operations, in the same order, as a recursive walk) or to
# numpy ufuncs for an ndarray.
# A power with an exponent other than an integer constant is emitted as
# power(a, b).  On floats a negative base then gives a complex value, which
# abs() may make real again; on arrays `_array_power` keeps that complex
# value where numpy's power gives nan.


def _float_power(a, b):
    try:
        return a ** b
    except ArithmeticError:
        return np.power(a, b)


def _array_power(a, b):
    out = np.power(a, b)
    if np.iscomplexobj(out) or np.isnan(out).any():
        out = np.asarray(np.frompyfunc(_float_power, 2, 1)(a, b), dtype=complex)
    return out


_SCALAR_NAMES = {"sin": math.sin, "cos": math.cos, "exp": math.exp, "atan": math.atan,
                 "abs": abs, "power": pow, "inf": math.inf, "nan": math.nan}
_ARRAY_NAMES = {"sin": np.sin, "cos": np.cos, "exp": np.exp, "atan": np.arctan,
                "abs": np.abs, "power": _array_power, "inf": math.inf, "nan": math.nan}


def _emit(node, lines, names):
    """Append the statements computing `node` to `lines`; return the name or
    literal that holds its value.  Repeated subtrees are computed once."""
    if isinstance(node, Var):
        return "x"
    if isinstance(node, Num):
        return f"({node.value!r})"  # inf and nan are bound names
    key = repr(node)
    if key in names:
        return names[key]
    if isinstance(node, Neg):
        expr = f"-{_emit(node.arg, lines, names)}"
    elif isinstance(node, Call):
        expr = f"{node.name}({_emit(node.arg, lines, names)})"
    elif isinstance(node, Bin):
        a = _emit(node.left, lines, names)
        b = _emit(node.right, lines, names)
        expr = f"{a} {'**' if node.op == '^' else node.op} {b}"
        if node.op == "^" and not (isinstance(node.right, Num)
                                   and float(node.right.value).is_integer()):
            expr = f"power({a}, {b})"
    else:
        raise ExpressionError(f"cannot evaluate {type(node).__name__}")
    names[key] = f"t{len(names)}"
    lines.append(f"    {names[key]} = {expr}")
    return names[key]


def _compile(node, label):
    """Compile a delta-free tree to a function of a float or an ndarray."""
    lines = []
    result = _emit(node, lines, {})
    source = "def f(x):\n" + "\n".join(lines + [f"    return {result}"])
    code = compile(source, f"<expression {label}>", "exec")
    scalar_ns, array_ns = dict(_SCALAR_NAMES), dict(_ARRAY_NAMES)
    exec(code, scalar_ns)
    exec(code, array_ns)
    scalar_f, array_f = scalar_ns["f"], array_ns["f"]
    if "power(" in source:
        # A numpy scalar x would take numpy's power; a complex value is nan
        # on an array, but where it is real.
        scalar_f, complex_f = (lambda x, f=scalar_f: f(float(x))), array_f

        def array_f(x):
            out = complex_f(x)
            return np.where(out.imag == 0, out.real, np.nan) if np.iscomplexobj(out) else out

    def fn(x):
        if isinstance(x, np.ndarray):
            out = array_f(x)
            return out if np.shape(out) == x.shape else np.full(x.shape, out)
        try:
            value = scalar_f(x)
        except (ZeroDivisionError, OverflowError, TypeError) as exc:
            # TypeError: a complex value reached a math function.
            raise ExpressionError(f"cannot evaluate {label} at x={x!r}: {exc}") from exc
        if isinstance(value, complex):
            raise ExpressionError(f"cannot evaluate {label} at x={x!r}: value is not real")
        return float(value)

    return fn


def _derivative_on_first_call(trees, k, label):
    """The k-th derivative of trees[0], derived and compiled on its first
    call: derivative trees grow fast and most are never evaluated.
    `trees`, shared by every order, holds each tree derived so far."""
    compiled = []

    def fn(x):
        if not compiled:
            while len(trees) <= k:
                trees.append(_diff(trees[-1]))
            compiled.append(_compile(trees[k], f"({label})^({k})"))
        return compiled[0](x)

    return fn


def _contains_abs(node):
    if isinstance(node, Call) and node.name == "abs":
        return True
    for child in _children(node):
        if _contains_abs(child):
            return True
    return False


def _children(node):
    if isinstance(node, Bin):
        return (node.left, node.right)
    if isinstance(node, (Neg,)):
        return (node.arg,)
    if isinstance(node, Call):
        return (node.arg,)
    if isinstance(node, Delta):
        return (node.inner,)
    return ()


def _contains_delta(node):
    if isinstance(node, Delta):
        return True
    return any(_contains_delta(c) for c in _children(node))


def to_real_function(node, depth=4):
    """Compile a delta-free tree to a RealFunction with symbolic derivatives.

    The function and its derivatives take a float or an ndarray; on a float,
    division by zero, overflow and complex values raise ExpressionError.
    """
    label = render(node)
    fn = _compile(node, label)
    if _contains_abs(node):
        return RealFunction(fn, smoothness=0, label=label)
    # Only the first derivative is taken now, to learn whether the tree is
    # differentiable.  If it is, so is every later one: _diff emits only
    # numbers, x, negation, + - * /, ^ with a numeric exponent, and sin,
    # cos, exp and atan of subtrees it has already differentiated.
    try:
        trees = [node, _diff(node)]
    except ExpressionError:
        return RealFunction(fn, smoothness=C_INF, label=label)
    derivs = tuple(_derivative_on_first_call(trees, k, label)
                   for k in range(1, depth + 1))
    return RealFunction(fn, derivs=derivs, smoothness=C_INF, label=label)


# ---------------------------------------------------------------------------
# Lifting to delta expressions
# ---------------------------------------------------------------------------

def _shift_of(node):
    """a such that node == x - a, else None (handles x, x-a, x+a, a alone no)."""
    if isinstance(node, Var):
        return 0.0
    if isinstance(node, Bin) and isinstance(node.left, Var):
        if node.op == "-" and isinstance(node.right, Num):
            return node.right.value
        if node.op == "+" and isinstance(node.right, Num):
            return -node.right.value
    return None


def _lift_delta(node):
    shift = _shift_of(node.inner)
    if shift is not None:
        return DeltaTerm(order=node.order, shift=shift)
    if node.order > 0:
        raise ExpressionError(
            "ddelta requires an inner expression of the form x, x-a, or x+a")
    return CompTerm(inner=to_real_function(node.inner))


def lift(node):
    """Lift a tree to a DeltaExpr, or a RealFunction if delta-free."""
    if not _contains_delta(node):
        return to_real_function(node)
    return _lift_distribution(node)


def _lift_distribution(node):
    if isinstance(node, Delta):
        return _lift_delta(node)
    if isinstance(node, Neg):
        return ScaleTerm(-1.0, _lift_distribution(node.arg))
    if isinstance(node, Bin):
        ldelta = _contains_delta(node.left)
        rdelta = _contains_delta(node.right)
        if node.op in ("+", "-"):
            left = (_lift_distribution(node.left) if ldelta
                    else SmoothTerm(to_real_function(node.left)))
            right = (_lift_distribution(node.right) if rdelta
                     else SmoothTerm(to_real_function(node.right)))
            if node.op == "-":
                right = ScaleTerm(-1.0, right)
            return SumTerm((left, right))
        if node.op == "*":
            if ldelta and rdelta:
                raise ExpressionError(
                    "products of two delta terms are undefined outside a "
                    "contraction integral")
            dnode, snode = (node.left, node.right) if ldelta else (node.right, node.left)
            return _apply_factor(_lift_distribution(dnode), snode)
        if node.op == "/":
            if rdelta:
                raise ExpressionError("division by a delta term is undefined")
            return _apply_factor(_lift_distribution(node.left),
                                 Bin("/", _ONE, node.right))
        if node.op == "^":
            raise ExpressionError("delta terms cannot be exponentiated")
    if isinstance(node, Call):
        raise ExpressionError(
            f"delta terms cannot appear inside {node.name}(...)")
    raise ExpressionError(f"cannot lift {type(node).__name__}")


def _apply_factor(dexpr, factor_node):
    """Multiply a lifted delta expression by a smooth factor tree."""
    if isinstance(factor_node, Num):
        return ScaleTerm(factor_node.value, dexpr)
    if isinstance(factor_node, Neg) and isinstance(factor_node.arg, Num):
        return ScaleTerm(-factor_node.arg.value, dexpr)
    factor = to_real_function(factor_node)
    if isinstance(dexpr, (DeltaTerm, CompTerm)):
        return ProductTerm(factor, dexpr)
    if isinstance(dexpr, ScaleTerm):
        return ScaleTerm(dexpr.c, _apply_factor(dexpr.expr, factor_node))
    if isinstance(dexpr, SumTerm):
        return SumTerm(tuple(_apply_factor(p, factor_node) for p in dexpr.parts))
    if isinstance(dexpr, ProductTerm):
        combined = RealFunction(
            lambda x, f=dexpr.f, g=factor: f(x) * g(x),
            smoothness=min(dexpr.f.smoothness, factor.smoothness),
            label=f"{dexpr.f.label}*{factor.label}",
        )
        return ProductTerm(combined, dexpr.delta)
    if isinstance(dexpr, SmoothTerm):
        return SmoothTerm(RealFunction(
            lambda x, f=dexpr.f, g=factor: f(x) * g(x),
            smoothness=min(dexpr.f.smoothness, factor.smoothness),
            label=f"{dexpr.f.label}*{factor.label}",
        ))
    raise ExpressionError(
        f"cannot multiply {type(dexpr).__name__} by a smooth factor")


def parse_expression(text):
    """Parse and lift in one step: the CLI entry point."""
    return lift(parse(text))
