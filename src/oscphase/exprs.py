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
continuous derivatives, and these primitives cannot break that (abs and
division can: the hypothesis audit flags a kink inside the interval, and a
divisor that changes sign there, a pole or a jump).

Each tree is compiled once into a tape, an instruction list with one slot
per distinct subtree, and one interpreter runs it in five arithmetics:
Python floats and float64 arrays (one step over a math or a numpy table),
jets, double-double (used for phase-accurate e(f) at large T), and disks
that enclose the values on a complex disk (the oracle's error bound).
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
from .jets import (Jet, jet_add, jet_const_arith, jet_div, jet_map, jet_mul,
                   jet_mul_variable, jet_powi, jet_sub)

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




# --- the tape ----------------------------------------------------------------
#
# A tree compiles once into a tape of instructions (op, a, b, offset, last),
# operands first and left to right, one per distinct subtree (a repeat keeps
# the first offset); instruction i fills slot i.  op is "num" (a = the value),
# "sym" (a = the name), "neg" or a function name (a = the operand's slot),
# + - * / ^ (a, b = slots) or "^k" (a = the base's slot, b = a literal
# exponent).  `last` lists the slots that no later instruction reads; _run
# frees them, so no more intermediates stay alive than in a recursive walk.

_LEAVES = frozenset(("num", "sym"))
_BINARY = frozenset("+-*/^")


def _literal_value(node) -> float | None:
    """Constant-fold a literal (possibly negated) exponent."""
    if isinstance(node, Num):
        return node.value
    if isinstance(node, Neg):
        inner = _literal_value(node.child)
        return None if inner is None else -inner
    return None


def _compile(e: Expr) -> tuple:
    code, slot_of = [], {}

    def emit(op, a, b, offset) -> int:
        key = (op, repr(a), repr(b))  # repr keeps 0.0 and -0.0 apart
        if key not in slot_of:
            slot_of[key] = len(code)
            code.append((op, a, b, offset))
        return slot_of[key]

    def walk(node) -> int:
        if isinstance(node, Num):
            return emit("num", node.value, None, node.offset)
        if isinstance(node, Sym):
            return emit("sym", node.name, None, node.offset)
        if isinstance(node, Neg):
            return emit("neg", walk(node.child), None, node.offset)
        if isinstance(node, Call):
            return emit(node.fn, walk(node.arg), None, node.offset)
        exponent = _literal_value(node.right) if node.op == "^" else None
        if exponent is not None:
            return emit("^k", walk(node.left), exponent, node.offset)
        a = walk(node.left)
        return emit(node.op, a, walk(node.right), node.offset)

    walk(e)
    tape, read_later = [], set()
    for op, a, b, offset in reversed(code):
        reads = set() if op in _LEAVES else {a, b} if op in _BINARY else {a}
        tape.append((op, a, b, offset, tuple(reads - read_later)))
        read_later |= reads
    return tuple(reversed(tape))


def _tape(e: Expr) -> tuple:
    """The tree's tape, compiled on first use and kept on the root outside
    the dataclass fields: eq, hash and repr ignore it, and pickling keeps it."""
    code = e.__dict__.get("_tape")
    if code is None:
        code = _compile(e)
        object.__setattr__(e, "_tape", code)
    return code


def _run(code: tuple, step, env):
    """Execute a tape: slot i = step(env, op, a, b, offset), with the
    operands read from their slots."""
    slots = [None] * len(code)
    for i, (op, a, b, offset, last) in enumerate(code):
        if op not in _LEAVES:
            a = slots[a]
            if op in _BINARY:
                b = slots[b]
        slots[i] = step(env, op, a, b, offset)
        for s in last:
            slots[s] = None
    return slots[-1]


def symbols(e: Expr) -> set[str]:
    """All symbol names appearing in the tree (including builtins)."""
    return {a for op, a, *_ in _tape(e) if op == "sym"}


def _resolve(name: str, params: dict, offset: int) -> float:
    if name in params:
        return params[name]
    if name in BUILTIN_CONSTANTS:
        return BUILTIN_CONSTANTS[name]
    raise UnboundSymbolError(name, offset)


# One float step for Python floats and float64 arrays; the table gives the
# elementary functions and the domain test `any` (bool on a float).
_MATH = {"exp": math.exp, "log": math.log, "sin": math.sin, "cos": math.cos,
         "sqrt": math.sqrt, "abs": abs, "atan": math.atan, "pow": math.pow,
         "any": bool}
_NUMPY = {"exp": np.exp, "log": np.log, "sin": np.sin, "cos": np.cos,
          "sqrt": np.sqrt, "abs": np.abs, "atan": np.arctan, "pow": np.power,
          "any": np.any}


def _float_step(env, op, a, b, offset):
    x, params, fns = env
    if op == "num":
        return a
    if op == "sym":
        return x if a == "x" else float(_resolve(a, params, offset))
    if op == "+":
        return a + b
    if op == "-":
        return a - b
    if op == "*":
        return a * b
    if op == "/":
        if fns["any"](b == 0.0):
            raise ExprDomainError("division by zero", offset)
        return a / b
    if op == "neg":
        return -a
    power = op == "^k" or op == "^"
    if power and (not isinstance(b, np.ndarray) or b.ndim == 0):
        try:
            n = int(b)
        except (OverflowError, ValueError):  # inf or nan
            raise ExprDomainError("non-finite exponent", offset) from None
        if n == b:
            if n < 0 and fns["any"](a == 0.0):
                raise ExprDomainError("zero to a negative power", offset)
            return scalars.powi(a, n) if n >= 0 else 1.0 / scalars.powi(a, -n)
    if power and fns["any"](a < 0.0):
        raise ExprDomainError("negative base with non-integer exponent", offset)
    if op == "log" and fns["any"](a <= 0.0):
        raise ExprDomainError("log of a nonpositive value", offset)
    if op == "sqrt" and fns["any"](a < 0.0):
        raise ExprDomainError("sqrt of a negative value", offset)
    try:
        return fns["pow"](a, b) if power else fns[op](a)
    except (OverflowError, ValueError) as exc:  # math: overflow, sin(inf), 0^-0.5
        raise ExprDomainError(str(exc), offset) from exc


def eval_real(e: Expr, x: float, params: dict | None = None) -> float:
    """Strict scalar IEEE evaluation with positioned domain errors."""
    return _run(_tape(e), _float_step, (x, params or {}, _MATH))


def eval_array(e: Expr, x: np.ndarray, params: dict | None = None) -> np.ndarray:
    """Vectorized float64 evaluation over an array of x values."""
    return _run(_tape(e), _float_step, (x, params or {}, _NUMPY))


def _jet_constant(value, x_jet: Jet) -> tuple:
    """A number or parameter as the pair (v, z) that stands for the constant
    jet (v, z, ..., z) in x_jet's carrier.  On a grid v and z stay floats,
    which broadcast against the grid's arrays with the same bits."""
    if scalars.is_mp(x_jet.coeffs[0]):
        return (value if scalars.is_mp(value) else mpmath.mpf(value),
                mpmath.mpf(0))
    return float(value), 0.0


def _lift(c: tuple, x_jet: Jet) -> Jet:
    v, z = c
    x0 = x_jet.base_point
    if isinstance(x0, np.ndarray):
        v, z = np.full(x0.shape, v), np.full(x0.shape, z)
    return Jet(x0, (v,) + (z,) * x_jet.degree)


_JET_ARITH = {"+": jet_add, "-": jet_sub, "*": jet_mul, "/": jet_div}


def _jet_step(env, op, a, b, offset):
    x_jet, params = env
    if op == "num":
        return _jet_constant(a, x_jet)
    if op == "sym":
        if a == "x":
            return x_jet
        return _jet_constant(_resolve(a, params, offset), x_jet)
    # A constant stays a pair (v, z) while it meets jets in +, -, * or as a
    # divisor, each O(D) by jet_const_arith; any other use lifts it.  A
    # product with the variable x_jet is O(D) too (jet_mul_variable).
    if op in _JET_ARITH:
        if type(a) is tuple:
            if type(b) is not tuple and op != "/":
                return jet_const_arith(b, op, *a, left=True)
            a = _lift(a, x_jet)
            if type(b) is tuple:  # constant op constant
                b = _lift(b, x_jet)
        try:
            if type(b) is tuple:
                return jet_const_arith(a, op, *b)
            if op == "*" and (a is x_jet or b is x_jet):
                return jet_mul_variable(b if a is x_jet else a, x_jet)
            return _JET_ARITH[op](a, b)
        except JetDomainError as exc:  # a zero divisor
            raise ExprDomainError(str(exc), offset) from exc
    if op == "^":
        raise ExprDomainError(
            "jet evaluation needs a numeric-literal exponent", offset)
    if op == "^k" and a is x_jet and b in (2, 3):  # jet_powi's products
        square = jet_mul_variable(x_jet, x_jet)
        return square if b == 2 else jet_mul_variable(square, x_jet)
    if type(a) is tuple:
        if op == "neg":
            return -a[0], -a[1]
        a = _lift(a, x_jet)
    if op == "neg":
        return -a
    if op == "abs":
        c0 = a.coeffs[0]
        if np.any(c0 == 0.0):
            raise ExprDomainError("abs kink at the expansion point", offset)
        if isinstance(a.base_point, np.ndarray):
            return Jet(a.base_point, tuple(np.where(c0 > 0, c, -c) for c in a.coeffs))
        return a if c0 > 0 else -a
    try:
        if op != "^k":
            return jet_map(a, op)
        return jet_powi(a, int(b)) if b == int(b) else jet_map(a, "pow", exponent=b)
    except Exception as exc:
        # An integer power fails only where jet_powi divides by a zero base.
        integral = op == "^k" and b == int(b)
        raise ExprDomainError("zero to a negative power" if integral
                              else str(exc), offset) from exc


def eval_jet(e: Expr, x_jet: Jet, params: dict | None = None,
             breaks: list | None = None) -> Jet:
    """Jet of the expression as a function of x at x_jet's base point (at
    every point at once for a grid jet; a domain error at any point raises).

    With a list breaks, the walk appends (offset, op) for each abs(...)
    whose argument and each division whose divisor reads x and takes both
    signs over the points: a kink, and a pole or a jump."""
    def watched(env, op, a, b, offset):
        v = {"abs": a, "/": b}.get(op)
        if isinstance(v, Jet) and np.any(v.coeffs[0] > 0) and np.any(v.coeffs[0] < 0):
            breaks.append((offset, op))
        return _jet_step(env, op, a, b, offset)

    step = _jet_step if breaks is None else watched
    out = _run(_tape(e), step, (x_jet, params or {}))
    return _lift(out, x_jet) if type(out) is tuple else out


_DD_PI = (np.float64(ddmath.TWO_PI[0] / 2), np.float64(ddmath.TWO_PI[1] / 2))
_DD_OPS = {"+": ddmath.add, "-": ddmath.sub, "*": ddmath.mul, "/": ddmath.div}


def _dd(v) -> ddmath.DD:
    return v if isinstance(v, tuple) else ddmath.from_float(v)


def _flt(v):
    return ddmath.to_float(v) if isinstance(v, tuple) else v


def _dd_step(env, op, a, b, offset):
    x, params = env
    if op in _DD_OPS:
        if op != "/" and isinstance(a, tuple) != isinstance(b, tuple):
            float_first = not isinstance(a, tuple)
            d, c = (b, a) if float_first else (a, b)
            if op == "*":
                return ddmath.mul_f(d, c)
            if op == "-":
                d, c = (ddmath.neg(d), c) if float_first else (d, -c)
            return ddmath.add_f(d, c)
        hi, lo = _DD_OPS[op](_dd(a), _dd(b))
        return hi if np.ndim(lo) == 0 and lo == 0 else (hi, lo)  # exact: a float
    if op == "num":
        return np.float64(a)
    if op == "sym":
        if a == "x":
            return x
        if a == "pi" and a not in params:
            return _DD_PI
        return np.float64(_resolve(a, params, offset))
    if op == "neg":
        return ddmath.neg(a) if isinstance(a, tuple) else -a
    if op == "abs":
        return ddmath.abs_(a) if isinstance(a, tuple) else np.abs(a)
    if op == "sqrt":
        return ddmath.sqrt(_dd(a))
    if op == "^k" and b == int(b):
        return ddmath.powi(_dd(a), int(b))
    if op == "^k" or op == "^":
        return np.power(_flt(a), _flt(np.float64(b) if op == "^k" else b))
    return _NUMPY[op](_flt(a))


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
    return _dd(_run(_tape(e), _dd_step, (x, params or {})))


# The elementary functions eval_dd evaluates in float64 on the collapsed
# argument, and the rounding assumed of them: 1 ulp of the result (glibc's
# and numpy's float64 loops stay within about 0.65 ulp).
_FALLBACKS = frozenset(("exp", "log", "sin", "cos", "atan", "^"))
_ULP = 2.0 ** -52
_HALF_ULP = 2.0 ** -53


def _falls_back(op, b) -> bool:
    return op in _FALLBACKS or (op == "^k" and not float(b).is_integer())


def _plus(*errors):
    """The sum of the error bounds that are not None (None if all are)."""
    known = [e for e in errors if e is not None]
    return sum(known[1:], known[0]) if known else None


def _over(num, den):
    """num / den where den > 0, and inf elsewhere."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(den > 0, num / np.where(den > 0, den, 1.0), np.inf)


def _error_step(env, op, a, b, offset):
    """One instruction on (float64 value, bound on the dd value's error)
    pairs; the bound is None while the value is exact to dd rounding."""
    x, params = env
    if op == "num":
        return np.float64(a), None
    if op == "sym":
        if a == "x":
            return x, None
        if a == "pi" and a not in params:
            return np.float64(math.pi), None
        return np.float64(_resolve(a, params, offset)), None
    va, ea = a
    vb, eb = b if op in _BINARY else (b, None)
    if _falls_back(op, b):
        # The float64 fallback first drops the dd argument's low part.
        ein = _plus(ea, _HALF_ULP * np.abs(va))
        if op == "^k" or op == "^":
            v = np.power(va, vb)
            spread = _over(np.abs(vb) * ein, np.abs(va) - ein)
            if op == "^":
                spread = spread + np.abs(np.log(np.abs(va))) * _plus(
                    eb, _HALF_ULP * np.abs(vb))
            err = np.abs(v) * np.expm1(spread)
        elif op == "exp":
            v = np.exp(va)
            err = np.abs(v) * np.expm1(ein)
        elif op == "log":
            v = np.log(va)
            err = _over(ein, np.abs(va) - ein)
        else:  # sin, cos and atan change by at most their argument's change
            v = _NUMPY[op](va)
            err = ein
        return v, err + _ULP * np.abs(v)
    if op in "+-":
        return (va + vb if op == "+" else va - vb), _plus(ea, eb)
    if op == "neg":
        return -va, ea
    if op == "abs":
        return np.abs(va), ea
    if op == "sqrt":
        v = np.sqrt(va)
        return v, None if ea is None else np.minimum(np.sqrt(ea), _over(ea, v))
    if op == "^k":  # an integer power, in dd
        k = int(b)
        v = np.power(va, float(k))
        if ea is None or k == 0:
            return v, None
        if k > 0:
            return v, k * (np.abs(va) + ea) ** (k - 1) * ea
        return v, -k * ea * _over(1.0, np.abs(va) - ea) ** (1 - k)
    if ea is None and eb is None:
        return (va * vb if op == "*" else va / vb), None
    ea, eb = _plus(ea, 0.0), _plus(eb, 0.0)
    if op == "*":
        return va * vb, np.abs(va) * eb + np.abs(vb) * ea + ea * eb
    q = va / vb
    return q, _over(ea + np.abs(q) * eb, np.abs(vb) - eb)


def eval_dd_error(e: Expr, x: ddmath.DD, params: dict | None = None):
    """A bound on |eval_dd(e, x, params) - e(x)| from its float64 fallbacks
    (exp, log, sin, cos, atan and non-integer powers), propagated to first
    order through the later operations, or None for a tape without them
    (its value is exact to dd rounding).  Runs in float64."""
    code = _tape(e)
    if not any(_falls_back(op, b) for op, _, b, *_ in code):
        return None
    return _run(code, _error_step, (_flt(x), params or {}))[1]


# --- disk enclosures ----------------------------------------------------------
#
# A disk (c, r) has a real center c and stands for every complex value
# within r of it.  Each step widens r by a few ulps of |c| and r, which
# covers the float64 rounding of both, and makes it inf (with c = 0) where
# either is not finite: the disk then holds everything.

_WIDEN = 2.0 ** -50
_ONE = (np.float64(1.0), 0.0)


def _disk(c, r):
    r = r + _WIDEN * (np.abs(c) + r)
    finite = np.isfinite(c) & (r < np.inf)  # also NaN
    return np.where(finite, c, 0.0), np.where(finite, r, np.inf)


def _disk_mul(a, b):
    (ca, ra), (cb, rb) = a, b
    return _disk(ca * cb, np.abs(ca) * rb + np.abs(cb) * ra + ra * rb)


def _disk_div(a, b):
    """a times the reciprocal of b, a disk that must exclude 0:
    |1/z - 1/c| <= r / (|c| (|c| - r))."""
    cb, rb = b
    return _disk_mul(a, _disk(1.0 / cb, _over(rb, np.abs(cb) * (np.abs(cb) - rb))))


def _disk_powi(a, n: int, real: bool):
    if n == 0:
        return _ONE
    if n < 0:
        return _disk_div(_ONE, _disk_powi(a, -n, real))
    c, r = scalars.powi(a, n, _disk_mul)
    if real and n % 2 == 0:  # an even power is not negative on a segment
        low = np.maximum(c - r, 0.0)
        return _disk((low + c + r) / 2, (c + r - low) / 2)
    return c, r


def _from_zero(a, disk, b):
    """disk, but where the base a may reach 0 on a real segment (c <= r),
    the segment [0, (c + r)^b] that holds a^b for b > 0 there."""
    c, r = a
    top = np.power(c + r + _WIDEN * (np.abs(c) + r), b)
    low, high = _disk(top / 2, top / 2)
    return np.where(c > r, disk[0], low), np.where(c > r, disk[1], high)


def _disk_step(env, op, a, b, offset):
    center, radius, params, real = env
    if op == "num":
        return np.float64(a), 0.0
    if op == "sym":
        if a == "x":
            return center, radius
        value = np.float64(_resolve(a, params, offset))
        return _disk(value, 0.0) if a == "pi" and a not in params else (value, 0.0)
    if op == "neg":
        return -a[0], a[1]
    if op in "+-":
        (ca, ra), (cb, rb) = a, b
        return _disk(ca + cb if op == "+" else ca - cb, ra + rb)
    if op == "*":  # u*u reads one slot twice: a square
        return _disk_powi(a, 2, real) if a is b else _disk_mul(a, b)
    if op == "/":
        return _disk_div(a, b)
    if op == "^" and np.ndim(b[0]) == 0 and b[1] == 0:
        op, b = "^k", b[0]  # a constant exponent
    if op == "^k" and float(b).is_integer():
        return _disk_powi(a, int(b), real)
    if op == "^k" or op == "^":  # exp(b log a)
        exponent = (np.float64(b), 0.0) if op == "^k" else b
        disk = _disk_step(env, "exp", _disk_mul(
            exponent, _disk_step(env, "log", a, None, offset)), None, offset)
        return _from_zero(a, disk, b) if real and op == "^k" and b > 0 else disk
    c, r = a
    if op == "exp":
        v = np.exp(c)
        return _disk(v, v * np.expm1(r))
    if op in ("sin", "cos"):
        # |sin' (t)| = |cos t| <= cosh(Im t) <= cosh r on the disk.
        return _disk(_NUMPY[op](c), r * np.cosh(r))
    if op == "log":
        return _disk(np.log(c), np.where(c > r, -np.log1p(-r / c), np.inf))
    if op == "sqrt":
        disk = _disk(np.sqrt(c), np.where(c > r, r / np.sqrt(c), np.inf))
        return _from_zero(a, disk, 0.5) if real else disk
    if op == "atan":
        # atan' = 1/((t - i)(t + i)), and +-i lie sqrt(c^2 + 1) from c:
        # |atan'| <= 1/gap^2 on the disk.
        gap = np.hypot(c, 1.0) - r
        return _disk(np.arctan(c), _over(r, gap * gap * (gap > 0)))
    # abs: +-z on a disk that excludes 0, and a kink on any other; on a real
    # segment it moves by at most as much as its argument.
    return _disk(np.abs(c), np.where(real | (np.abs(c) > r), r, np.inf))


@np.errstate(all="ignore")
def eval_disk(e: Expr, center, radius, params: dict | None = None, *,
              real: bool = False) -> tuple:
    """A disk (c, r) that holds e(z) for every complex z within radius of
    the real center (arrays broadcast): |e(z) - c| <= r.  r is inf wherever
    the disk may hold a pole, a branch point or a kink of e (log and sqrt
    need c > r, atan r < sqrt(c^2 + 1), abs |c| > r, a divisor |c| > r).
    Integer powers multiply disks in scalars.powi's order, and a negative
    one divides 1 by the positive power, as 1/u^k does; other powers are
    exp(b log a).

    With real=True, (c, r) holds e only on the real segment [center -
    radius, center + radius], where e is defined: abs needs no gap to 0,
    an even power (u*u included) is not negative, and sqrt, or a constant
    power b > 0, of a base that may reach 0 lies in [0, (c + r)^b].  A
    divisor that may vanish, log at 0 and negative powers at 0 stay
    unbounded."""
    return _run(_tape(e), _disk_step, (center, radius, params or {}, real))
