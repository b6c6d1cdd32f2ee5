"""Expression front-end for the phase f and weight g.

Grammar (whitespace-insensitive):

    expr   := term (('+'|'-') term)*
    term   := unary (('*'|'/') unary)*
    unary  := '-' unary | power
    power  := atom ['^' unary]          (right associative, binds above '-')
    atom   := number | name | name '(' expr ')' | '(' expr ')'

Functions: exp, log, sin, cos, sqrt, abs, atan.  Symbols are `x`, the builtin
constant `pi`, or parameter names bound at evaluation time.  The analytic
primitive set is deliberate: the expansion theorems need finitely many
continuous derivatives, and these primitives cannot break that (abs is allowed
for weights; the hypothesis audit flags a kink inside the interval).

Four evaluators share the tree: scalar real, numpy array, jet, and
double-double (used for phase-accurate e(f) at large T).
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Iterator, Union

import mpmath
import numpy as np

from . import ddmath, scalars
from .errors import (ExprDomainError, ExprSyntaxError, JetDomainError,
                     UnboundSymbolError, UnknownFunctionError)
from .jets import Jet, jet_constant, jet_div, jet_map, jet_mul, jet_powi

FUNCTIONS = ("exp", "log", "sin", "cos", "sqrt", "abs", "atan")

BUILTIN_CONSTANTS = {"pi": math.pi}


@dataclass(frozen=True)
class Num:
    value: float
    offset: int = 0


@dataclass(frozen=True)
class Sym:
    name: str
    offset: int = 0


@dataclass(frozen=True)
class Neg:
    child: "Expr"
    offset: int = 0


@dataclass(frozen=True)
class Bin:
    op: str  # one of + - * / ^
    left: "Expr"
    right: "Expr"
    offset: int = 0


@dataclass(frozen=True)
class Call:
    fn: str
    arg: "Expr"
    offset: int = 0


Expr = Union[Num, Sym, Neg, Bin, Call]

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^()]))"
)


def _tokenize(text: str) -> Iterator[tuple[str, str, int]]:
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None or m.end() == pos:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            at = len(text) - len(stripped)
            raise ExprSyntaxError(f"unexpected character {stripped[0]!r}", at)
        kind = m.lastgroup
        yield kind, m.group(kind), m.start(kind)
        pos = m.end()
    yield "end", "", len(text)


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = list(_tokenize(text))
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def advance(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, op: str):
        kind, value, offset = self.peek()
        if kind != "op" or value != op:
            raise ExprSyntaxError(f"expected {op!r}", offset)
        return self.advance()

    def parse(self) -> Expr:
        node = self.expr()
        kind, value, offset = self.peek()
        if kind != "end":
            raise ExprSyntaxError(f"unexpected token {value!r}", offset)
        return node

    def expr(self) -> Expr:
        node = self.term()
        while True:
            kind, value, offset = self.peek()
            if kind == "op" and value in "+-":
                self.advance()
                node = Bin(value, node, self.term(), offset)
            else:
                return node

    def term(self) -> Expr:
        node = self.unary()
        while True:
            kind, value, offset = self.peek()
            if kind == "op" and value in "*/":
                self.advance()
                node = Bin(value, node, self.unary(), offset)
            else:
                return node

    def unary(self) -> Expr:
        kind, value, offset = self.peek()
        if kind == "op" and value == "-":
            self.advance()
            return Neg(self.unary(), offset)
        return self.power()

    def power(self) -> Expr:
        node = self.atom()
        kind, value, offset = self.peek()
        if kind == "op" and value == "^":
            self.advance()
            return Bin("^", node, self.unary(), offset)
        return node

    def atom(self) -> Expr:
        kind, value, offset = self.advance()
        if kind == "num":
            number = float(value)
            if math.isinf(number):
                raise ExprSyntaxError(
                    f"numeric literal {value!r} overflows to inf", offset)
            return Num(number, offset)
        if kind == "name":
            nkind, nvalue, noffset = self.peek()
            if nkind == "op" and nvalue == "(":
                if value not in FUNCTIONS:
                    raise UnknownFunctionError(
                        f"unknown function {value!r}", offset)
                self.advance()
                arg = self.expr()
                self.expect_op(")")
                return Call(value, arg, offset)
            return Sym(value, offset)
        if kind == "op" and value == "(":
            node = self.expr()
            self.expect_op(")")
            return node
        raise ExprSyntaxError("expected expression", offset)


def parse(text: str) -> Expr:
    """Parse an expression string; raises ExprSyntaxError with an offset."""
    return _Parser(text).parse()


def symbols(e: Expr) -> set[str]:
    """All symbol names appearing in the tree (including builtins)."""
    if isinstance(e, Num):
        return set()
    if isinstance(e, Sym):
        return {e.name}
    if isinstance(e, Neg):
        return symbols(e.child)
    if isinstance(e, Bin):
        return symbols(e.left) | symbols(e.right)
    return symbols(e.arg)


_PRECEDENCE = {"+": 1, "-": 1, "*": 2, "/": 2, "neg": 3, "^": 4}


def format_expr(e: Expr) -> str:
    """Render a tree back to source that re-parses to the same tree."""

    def fmt(node, parent_prec: int) -> str:
        if isinstance(node, Num):
            s = repr(node.value)
            prec = _PRECEDENCE["neg"] if node.value < 0 else 5
            return f"({s})" if prec < parent_prec else s
        if isinstance(node, Sym):
            return node.name
        if isinstance(node, Neg):
            prec = _PRECEDENCE["neg"]
            s = f"-{fmt(node.child, prec)}"
            return f"({s})" if prec < parent_prec else s
        if isinstance(node, Call):
            return f"{node.fn}({fmt(node.arg, 0)})"
        prec = _PRECEDENCE[node.op]
        if node.op == "^":  # right associative
            left = fmt(node.left, prec + 1)
            right = fmt(node.right, prec)
        else:  # left associative; right child at equal precedence needs parens
            left = fmt(node.left, prec)
            right = fmt(node.right, prec + 1)
        s = f"{left}{node.op}{right}"
        return f"({s})" if prec < parent_prec else s

    return fmt(e, 0)


def _resolve(name: str, params: dict, offset: int) -> float:
    if name in params:
        return params[name]
    if name in BUILTIN_CONSTANTS:
        return BUILTIN_CONSTANTS[name]
    raise UnboundSymbolError(name, offset)


def eval_real(e: Expr, x: float, params: dict | None = None) -> float:
    """Strict scalar IEEE evaluation with positioned domain errors."""
    params = params or {}

    def ev(node) -> float:
        if isinstance(node, Num):
            return node.value
        if isinstance(node, Sym):
            if node.name == "x":
                return x
            return _resolve(node.name, params, node.offset)
        if isinstance(node, Neg):
            return -ev(node.child)
        if isinstance(node, Call):
            v = ev(node.arg)
            if node.fn == "log":
                if v <= 0.0:
                    raise ExprDomainError("log of a nonpositive value", node.offset)
                return math.log(v)
            if node.fn == "sqrt":
                if v < 0.0:
                    raise ExprDomainError("sqrt of a negative value", node.offset)
                return math.sqrt(v)
            if node.fn == "abs":
                return abs(v)
            try:
                return getattr(math, node.fn)(v)
            except (OverflowError, ValueError) as exc:  # exp overflow, sin(inf)
                raise ExprDomainError(str(exc), node.offset) from exc
        a = ev(node.left)
        b = ev(node.right)
        if node.op == "+":
            return a + b
        if node.op == "-":
            return a - b
        if node.op == "*":
            return a * b
        if node.op == "/":
            if b == 0.0:
                raise ExprDomainError("division by zero", node.offset)
            return a / b
        # '^'
        if b == int(b):
            n = int(b)
            if n >= 0:
                return scalars.powi(a, n)
            if a == 0.0:
                raise ExprDomainError("zero to a negative power", node.offset)
            return 1.0 / scalars.powi(a, -n)
        if a < 0.0:
            raise ExprDomainError("negative base with non-integer exponent", node.offset)
        try:
            return math.pow(a, b)
        except OverflowError as exc:
            raise ExprDomainError(str(exc), node.offset) from exc

    return ev(e)


def eval_array(e: Expr, x: np.ndarray, params: dict | None = None) -> np.ndarray:
    """Vectorized float64 evaluation over an array of x values."""
    params = params or {}

    def ev(node):
        if isinstance(node, Num):
            return node.value
        if isinstance(node, Sym):
            if node.name == "x":
                return x
            return _resolve(node.name, params, node.offset)
        if isinstance(node, Neg):
            return -ev(node.child)
        if isinstance(node, Call):
            v = ev(node.arg)
            if node.fn == "log":
                if np.any(np.asarray(v) <= 0.0):
                    raise ExprDomainError("log of a nonpositive value", node.offset)
                return np.log(v)
            if node.fn == "sqrt":
                if np.any(np.asarray(v) < 0.0):
                    raise ExprDomainError("sqrt of a negative value", node.offset)
                return np.sqrt(v)
            if node.fn == "abs":
                return np.abs(v)
            fn = {"exp": np.exp, "sin": np.sin, "cos": np.cos, "atan": np.arctan}[node.fn]
            return fn(v)
        a = ev(node.left)
        b = ev(node.right)
        if node.op == "+":
            return a + b
        if node.op == "-":
            return a - b
        if node.op == "*":
            return a * b
        if node.op == "/":
            if np.any(np.asarray(b) == 0.0):
                raise ExprDomainError("division by zero", node.offset)
            return a / b
        if np.isscalar(b) or np.asarray(b).ndim == 0:
            bf = float(b)
            if bf == int(bf):
                n = int(bf)
                arr = np.asarray(a, dtype=float)
                if n == 0:
                    return np.ones_like(arr)
                if n > 0:
                    return scalars.powi(arr, n)
                if np.any(arr == 0.0):
                    raise ExprDomainError("zero to a negative power", node.offset)
                return 1.0 / scalars.powi(arr, -n)
        if np.any(np.asarray(a) < 0.0):
            raise ExprDomainError("negative base with non-integer exponent", node.offset)
        return np.power(a, b)

    return ev(e)


def eval_jet(e: Expr, x_jet: Jet, params: dict | None = None) -> Jet:
    """Jet of the expression as a function of x at x_jet's base point (at
    every point at once for a grid jet; a domain error at any point raises)."""
    params = params or {}
    x0, deg = x_jet.base_point, x_jet.degree
    mp_mode = scalars.is_mp(x_jet.coeffs[0])
    grid_mode = isinstance(x0, np.ndarray)

    def const(v):
        if mp_mode:
            v = v if scalars.is_mp(v) else mpmath.mpf(v)
        else:
            v = np.full(x0.shape, float(v)) if grid_mode else float(v)
        return jet_constant(v, x0, deg)

    def ev(node) -> Jet:
        if isinstance(node, Num):
            return const(node.value)
        if isinstance(node, Sym):
            if node.name == "x":
                return x_jet
            return const(_resolve(node.name, params, node.offset))
        if isinstance(node, Neg):
            return -ev(node.child)
        if isinstance(node, Call):
            v = ev(node.arg)
            c0 = v.coeffs[0]
            if node.fn == "abs":
                if np.any(c0 == 0.0):
                    raise ExprDomainError("abs kink at the expansion point", node.offset)
                if grid_mode:
                    return Jet(x0, tuple(np.where(c0 > 0, c, -c) for c in v.coeffs))
                return v if c0 > 0 else -v
            try:
                return jet_map(v, node.fn)
            except Exception as exc:
                raise ExprDomainError(str(exc), node.offset) from exc
        if node.op == "^":
            exponent = _literal_value(node.right)
            if exponent is None:
                raise ExprDomainError(
                    "jet evaluation needs a numeric-literal exponent", node.offset)
            base = ev(node.left)
            if exponent == int(exponent):
                try:
                    return jet_powi(base, int(exponent))
                except JetDomainError as exc:
                    raise ExprDomainError("zero to a negative power",
                                          node.offset) from exc
            try:
                return jet_map(base, "pow", exponent=exponent)
            except Exception as exc:
                raise ExprDomainError(str(exc), node.offset) from exc
        a = ev(node.left)
        b = ev(node.right)
        if node.op == "+":
            return a + b
        if node.op == "-":
            return a - b
        if node.op == "*":
            return jet_mul(a, b)
        try:
            return jet_div(a, b)
        except Exception as exc:
            raise ExprDomainError(str(exc), node.offset) from exc

    return ev(e)


def _literal_value(node) -> float | None:
    """Constant-fold a literal (possibly negated) exponent."""
    if isinstance(node, Num):
        return node.value
    if isinstance(node, Neg):
        inner = _literal_value(node.child)
        return None if inner is None else -inner
    return None


def eval_dd(e: Expr, x: ddmath.DD, params: dict | None = None) -> ddmath.DD:
    """Double-double evaluation: exact-ish for {+,-,*,/,^int,sqrt,abs}.

    Transcendental nodes fall back to float64 on the collapsed argument; the
    phase accuracy then degrades gracefully to single-double.  Polynomial and
    rational phases (the convergence-study convention) stay fully accurate.

    Numbers, parameters and the float64 fallbacks stay plain floats (a dd
    value with a zero low part) until they meet a dd operand: sums and
    products with one such operand go through ddmath.add_f and ddmath.mul_f,
    which give the same bits as the full dd operations on (c, 0).
    """
    params = params or {}

    def dd(v) -> ddmath.DD:
        return v if isinstance(v, tuple) else ddmath.from_float(v)

    def flt(v):
        return ddmath.to_float(v) if isinstance(v, tuple) else v

    def ev(node):
        if isinstance(node, Num):
            return np.float64(node.value)
        if isinstance(node, Sym):
            if node.name == "x":
                return x
            if node.name == "pi" and node.name not in params:
                return (np.float64(ddmath.TWO_PI[0] / 2),
                        np.float64(ddmath.TWO_PI[1] / 2))
            return np.float64(_resolve(node.name, params, node.offset))
        if isinstance(node, Neg):
            v = ev(node.child)
            return ddmath.neg(v) if isinstance(v, tuple) else -v
        if isinstance(node, Call):
            v = ev(node.arg)
            if node.fn == "abs":
                return ddmath.abs_(v) if isinstance(v, tuple) else np.abs(v)
            if node.fn == "sqrt":
                return ddmath.sqrt(dd(v))
            fn = {"exp": np.exp, "log": np.log, "sin": np.sin,
                  "cos": np.cos, "atan": np.arctan}[node.fn]
            return fn(flt(v))
        if node.op == "^":
            exponent = _literal_value(node.right)
            base = ev(node.left)
            if exponent is not None and exponent == int(exponent):
                return ddmath.powi(dd(base), int(exponent))
            return np.power(flt(base), flt(ev(node.right)))
        a = ev(node.left)
        b = ev(node.right)
        if node.op in "+-*" and isinstance(a, tuple) != isinstance(b, tuple):
            float_first = not isinstance(a, tuple)
            d, c = (b, a) if float_first else (a, b)
            if node.op == "*":
                return ddmath.mul_f(d, c)
            if node.op == "-":
                d, c = (ddmath.neg(d), c) if float_first else (d, -c)
            return ddmath.add_f(d, c)
        op = {"+": ddmath.add, "-": ddmath.sub, "*": ddmath.mul, "/": ddmath.div}[node.op]
        hi, lo = op(dd(a), dd(b))
        return hi if np.ndim(lo) == 0 and lo == 0 else (hi, lo)  # exact: a float

    return dd(ev(e))
