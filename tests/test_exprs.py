import gc
import math
import sys
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oscphase.errors import (ExprDomainError, ExprSyntaxError,
                             UnboundSymbolError, UnknownFunctionError)
from oscphase import ddmath, exprs
from oscphase.coefficients import grid_jet
from oscphase.exprs import (Bin, Call, Neg, Num, Sym, eval_array, eval_dd,
                            eval_dd_error, eval_disk, eval_jet, eval_real,
                            format_expr, parse, symbols)
from oscphase.jets import (jet_add, jet_constant, jet_div, jet_map, jet_mul,
                           jet_powi, jet_sub, jet_variable)


class TestParse:
    def test_symbols(self):
        assert symbols(parse("T*(x^2 + x^3/3)")) == {"T", "x"}

    def test_precedence(self):
        assert eval_real(parse("2+3*4"), 0.0) == 14.0
        assert eval_real(parse("2*3^2"), 0.0) == 18.0
        assert eval_real(parse("-2^2"), 0.0) == -4.0  # ^ binds above unary -
        assert eval_real(parse("2^-2"), 0.0) == 0.25
        assert eval_real(parse("x^2^3", ), 2.0) == 256.0  # right associative
        assert eval_real(parse("1-2-3"), 0.0) == -4.0
        assert eval_real(parse("8/4/2"), 0.0) == 1.0

    def test_syntax_error_offset(self):
        with pytest.raises(ExprSyntaxError) as err:
            parse("sin(")
        assert err.value.offset == 4

    def test_unclosed_call_names_the_missing_parenthesis(self):
        with pytest.raises(ExprSyntaxError, match=r"^expected '\)' \(offset 5\)$"):
            parse("sin(x")

    def test_unknown_function(self):
        with pytest.raises(UnknownFunctionError):
            parse("foo(x)")

    def test_unexpected_character(self):
        with pytest.raises(ExprSyntaxError) as err:
            parse("x + $")
        assert err.value.offset == 4

    @pytest.mark.parametrize("text, offset", [("x^1e400", 2),
                                              ("1e400*x", 0),
                                              ("x + 2.5e308", 4)])
    def test_literal_overflowing_to_inf(self, text, offset):
        with pytest.raises(ExprSyntaxError) as err:
            parse(text)
        assert err.value.offset == offset

    def test_trailing_garbage(self):
        with pytest.raises(ExprSyntaxError):
            parse("1 + 2 )")

    def test_pi_builtin(self):
        assert eval_real(parse("cos(2*pi)"), 0.0) == pytest.approx(1.0)


class TestEvalReal:
    def test_examples(self):
        assert eval_real(parse("x^2+1"), 2.0) == 5.0
        assert eval_real(parse("T*x"), 3.0, {"T": 100.0}) == 300.0

    def test_log_domain_error(self):
        with pytest.raises(ExprDomainError) as err:
            eval_real(parse("log(x)"), 0.0)
        assert err.value.offset == 0

    def test_division_by_zero(self):
        with pytest.raises(ExprDomainError):
            eval_real(parse("1/(x-1)"), 1.0)

    @pytest.mark.parametrize("text, x, offset", [("exp(exp(3)^3)", 1.0, 0),
                                                 ("x + sin(exp(x)^400)", 2.0, 4),
                                                 ("x^2.5", 1e200, 1)])
    def test_overflow_is_a_positioned_domain_error(self, text, x, offset):
        # math raises OverflowError (exp, pow) or ValueError (sin of inf)
        with pytest.raises(ExprDomainError) as err:
            eval_real(parse(text), x)
        assert err.value.offset == offset

    def test_unbound_symbol(self):
        with pytest.raises(UnboundSymbolError):
            eval_real(parse("a*x"), 1.0)

    def test_integer_parameter_evaluates_as_a_float(self):
        # An int parameter raised to a large power overflows to inf like
        # its float value, instead of a Python int too large for a float.
        e = parse("k^400*x")
        assert eval_real(e, 2.0, {"k": 10}) == math.inf
        assert list(eval_array(e, np.array([1.0, 2.0]), {"k": 10})) == [math.inf] * 2
        value = eval_real(parse("k^3*x"), 2.0, {"k": 3})
        assert type(value) is float and value == 54.0

    def test_zero_to_a_negative_fractional_power_is_positioned(self):
        with pytest.raises(ExprDomainError) as err:
            eval_real(parse("x^-0.5"), 0.0)
        assert err.value.offset == 1

    @pytest.mark.parametrize("text", ["x^(1e308*10)", "x^(1e308*10-1e308*10)"])
    def test_non_finite_exponent_is_positioned(self, text):
        for evaluate, x in ((eval_real, 2.0), (eval_array, np.array([2.0, 3.0]))):
            with pytest.raises(ExprDomainError) as err:
                evaluate(parse(text), x)
            assert err.value.offset == 1


class TestEvalJet:
    def test_monomial(self):
        jet = eval_jet(parse("x^2"), jet_variable(0.0, 4))
        assert jet.coeffs == (0j, 0j, 1 + 0j, 0j, 0j)

    def test_sum_of_monomials(self):
        jet = eval_jet(parse("x^2+x^3"), jet_variable(0.0, 3))
        assert jet.coeffs == (0j, 0j, 1 + 0j, 1 + 0j)

    def test_exp(self):
        jet = eval_jet(parse("exp(x)"), jet_variable(0.0, 2))
        assert jet.coeffs[0] == 1.0
        assert jet.coeffs[1] == 1.0
        assert abs(jet.coeffs[2] - 0.5) < 1e-15

    def test_float_walk_has_float_coefficients(self):
        expr = parse("exp(x)*(x+2)^-1.5 + abs(x-3) + atan(x)/log(x)")
        jet = eval_jet(expr, jet_variable(0.5, 4))
        assert all(type(c) is float for c in jet.coeffs)

    def test_non_literal_exponent_rejected(self):
        with pytest.raises(ExprDomainError):
            eval_jet(parse("x^x"), jet_variable(1.0, 2))

    def test_negative_literal_exponent(self):
        jet = eval_jet(parse("x^-1"), jet_variable(2.0, 2))
        assert abs(jet.coeffs[0] - 0.5) < 1e-15
        assert abs(jet.coeffs[1] + 0.25) < 1e-15

    def test_abs_kink_at_base_point(self):
        with pytest.raises(ExprDomainError):
            eval_jet(parse("abs(x)"), jet_variable(0.0, 2))

    def test_zero_to_negative_power_is_positioned_like_eval_real(self):
        expr = parse("(x - 0.5)^-1")
        with pytest.raises(ExprDomainError) as real_err:
            eval_real(expr, 0.5)
        with pytest.raises(ExprDomainError) as jet_err:
            eval_jet(expr, jet_variable(0.5, 2))
        assert jet_err.value.offset == real_err.value.offset == 9
        assert str(jet_err.value) == str(real_err.value)

    def test_constant_term_matches_eval_real_exactly(self):
        rng = np.random.default_rng(3)
        for text in ("x^2+1", "exp(x)*sin(x)", "log(1+x^2)/sqrt(4+x)",
                     "atan(x)-x/3", "T*(x+x^2/10)", "abs(x-5)", "cos(x)^3"):
            expr = parse(text)
            for x in rng.uniform(0.2, 3.0, 25):
                scalar = eval_real(expr, float(x), {"T": 7.5})
                c0 = eval_jet(expr, jet_variable(float(x), 3), {"T": 7.5}).coeffs[0]
                assert c0.imag == 0.0
                assert scalar == c0.real


class TestGridJet:
    """A grid jet (float64-array coefficients) equals the scalar walks."""

    XS = np.linspace(-0.5, 0.5, 512)
    DEGREE = 2 * 2 + 3  # 2n+3 at n = 2, the degree the audit samples f to
    PARAMS = {"a": 1.25, "b": 3.0, "T": 7.5}

    @pytest.mark.parametrize("text", [
        "exp(-x)*sin(3*x) + cos(x)^2",
        "log(2+x)/sqrt(1+x^2) - atan(2*x)",
        "abs(x-0.1)*(x+2)^-1.5 + (1+x)^0.5",
        "x^7 - 3*x^4 + (x+2)^-3 + x^0",
        "a*pi*x/(b - x) + T*x^2/(1+x^2)",
    ])
    def test_equals_scalar_walk_at_every_point(self, text):
        expr = parse(text)
        grid = eval_jet(expr, jet_variable(self.XS, self.DEGREE), self.PARAMS)
        scalar = np.empty((self.DEGREE + 1, len(self.XS)))
        for i, x in enumerate(self.XS):
            jet = eval_jet(expr, jet_variable(float(x), self.DEGREE), self.PARAMS)
            assert all(c.imag == 0.0 for c in jet.coeffs)
            scalar[:, i] = [c.real for c in jet.coeffs]
        assert len(grid.coeffs) == self.DEGREE + 1
        for k, column in enumerate(grid.coeffs):
            assert column.dtype == np.float64
            assert np.array_equal(column, scalar[k])

    def test_overflowed_coefficient_equals_the_grid_bit_for_bit(self):
        """inf stays inf at the next product, as on the grid (a complex
        carrier made inf*0 = NaN in the imaginary part, and so NaN)."""
        expr = parse("(x+0.5000001)^-40")
        scalar = eval_jet(expr, jet_variable(-0.5, 9)).coeffs
        grid = [float(c[0]) for c in grid_jet(expr, np.array([-0.5]), 9, {})]
        assert scalar[5] == -math.inf
        assert [math.isnan(c) for c in scalar] == [math.isnan(c) for c in grid]
        assert [c.hex() for c in scalar if not math.isnan(c)] == [
            c.hex() for c in grid if not math.isnan(c)]

    @pytest.mark.parametrize("text", [
        "log(x)", "sqrt(x-0.2)", "(x-0.2)^0.5", f"1/(x-({float(XS[100])!r}))",
        f"abs(x-({float(XS[7])!r}))", f"(x-({float(XS[300])!r}))^-2",
    ])
    def test_domain_error_at_any_point_raises(self, text):
        with pytest.raises(ExprDomainError):
            eval_jet(parse(text), jet_variable(self.XS, self.DEGREE))


class TestEvalArray:
    def test_matches_scalar(self):
        expr = parse("T*(x + x^2/10) + sin(x)")
        xs = np.linspace(1.0, 2.0, 17)
        arr = eval_array(expr, xs, {"T": 3.0})
        for x, v in zip(xs, arr):
            assert v == eval_real(expr, float(x), {"T": 3.0})

    def test_domain_check(self):
        with pytest.raises(ExprDomainError):
            eval_array(parse("log(x)"), np.array([1.0, -1.0]))


# --- the tape ---------------------------------------------------------------

CUBIC = "T*0.7*((x + 0.19)^2 + 0.159*(x + 0.19)^3)"


class TestTape:
    def test_repeated_subtree_is_evaluated_once(self, monkeypatch):
        calls = []
        add_f = ddmath.add_f

        def counting_add_f(d, c):
            calls.append(1)
            return add_f(d, c)

        monkeypatch.setattr(ddmath, "add_f", counting_add_f)
        hi = np.linspace(-0.5, 0.5, 33)
        x = ddmath.add(ddmath.from_float(hi), ddmath.from_float(hi * 1e-17))
        params = {"T": 1024.0}
        got = eval_dd(parse(CUBIC), x, params)
        assert len(calls) == 1
        want = _eval_dd_pairs(parse(CUBIC), x, params)
        for g, w in zip(got, want):
            assert np.array_equal(np.broadcast_to(g, hi.shape), w)

    def test_evaluation_leaves_no_reference_to_its_input(self):
        e, params = parse(CUBIC), {"T": 1024.0}
        xs = np.linspace(-0.5, 0.5, 64)
        x_dd = ddmath.from_float(xs)
        gc.disable()
        try:
            before = sys.getrefcount(xs), sys.getrefcount(x_dd)
            eval_array(e, xs, params)
            eval_dd(e, x_dd, params)
            eval_jet(e, jet_variable(xs, 3), params)
            assert (sys.getrefcount(xs), sys.getrefcount(x_dd)) == before
        finally:
            gc.enable()

    @pytest.mark.parametrize("text, bound", [("T*(x + x^2/10)", 2.5),
                                             (CUBIC, 4.5)])
    def test_array_peak_keeps_only_live_intermediates(self, text, bound):
        e, params = parse(text), {"T": 1024.0}
        xs = np.linspace(1.0, 2.0, 2 ** 20)
        eval_array(e, xs[:2], params)  # compile outside the trace
        tracemalloc.start()
        try:
            eval_array(e, xs, params)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / xs.nbytes < bound


# --- format/parse round trip -------------------------------------------------

_names = st.sampled_from(["x", "x", "x", "a", "T"])
_fns = st.sampled_from(["exp", "sin", "cos", "atan"])


def _exprs(depth):
    if depth == 0:
        return st.one_of(
            st.floats(min_value=0.0, max_value=9.0).map(lambda v: Num(round(v, 3))),
            _names.map(Sym),
        )
    sub = _exprs(depth - 1)
    return st.one_of(
        sub,
        st.tuples(st.sampled_from("+-*/"), sub, sub).map(
            lambda t: Bin(t[0], t[1], t[2])),
        st.tuples(sub, st.integers(min_value=0, max_value=3)).map(
            lambda t: Bin("^", t[0], Num(float(t[1])))),
        st.tuples(_fns, sub).map(lambda t: Call(t[0], t[1])),
        sub.map(Neg),
    )


@given(_exprs(3))
@settings(max_examples=150, deadline=None)
def test_format_parse_round_trip(tree):
    rendered = format_expr(tree)
    reparsed = parse(rendered)
    rng = np.random.default_rng(11)
    params = {"a": 1.3, "T": 2.7}
    checked = 0
    for x in rng.uniform(0.1, 2.5, 100):
        try:
            expected = eval_real(tree, float(x), params)
        except ExprDomainError:
            continue
        if not math.isfinite(expected) or abs(expected) > 1e12:
            continue
        got = eval_real(reparsed, float(x), params)
        assert got == pytest.approx(expected, rel=1e-15, abs=1e-300)
        checked += 1
    assert checked > 0 or True


def _eval_dd_pairs(e, x, params):
    """eval_dd with every number and parameter a (c, 0) pair and every + - *
    / a full dd operation: the reference for its float-operand shortcuts."""
    def ev(node):
        if isinstance(node, Num):
            return ddmath.from_float(node.value)
        if isinstance(node, Sym):
            return x if node.name == "x" else ddmath.from_float(params[node.name])
        if isinstance(node, Neg):
            return ddmath.neg(ev(node.child))
        if isinstance(node, Call):
            fn = {"exp": np.exp, "sin": np.sin, "cos": np.cos,
                  "atan": np.arctan}[node.fn]
            return ddmath.from_float(fn(ddmath.to_float(ev(node.arg))))
        if node.op == "^":
            return ddmath.powi(ev(node.left), int(node.right.value))
        op = {"+": ddmath.add, "-": ddmath.sub, "*": ddmath.mul, "/": ddmath.div}
        return op[node.op](ev(node.left), ev(node.right))
    return ev(e)


@given(_exprs(3))
@settings(max_examples=150, deadline=None)
def test_eval_dd_float_operands_give_the_full_dd_values(tree):
    rng = np.random.default_rng(12)
    hi = rng.uniform(0.1, 2.5, 64)
    x = ddmath.add(ddmath.from_float(hi), ddmath.from_float(hi * 1e-17))
    params = {"a": 1.3, "T": 2.7}
    with np.errstate(all="ignore"):
        want = tuple(np.broadcast_to(v, hi.shape) for v in _eval_dd_pairs(tree, x, params))
        got = tuple(np.broadcast_to(v, hi.shape) for v in eval_dd(tree, x, params))
    finite = np.isfinite(want[0]) & np.isfinite(want[1])
    for g, w in zip(got, want):
        assert np.array_equal(g[finite], w[finite])


def _mp_value(e, x, params):
    """The tree's value at the mpf x, in the current mpmath precision."""
    if isinstance(e, Num):
        return mpmath.mpf(e.value)
    if isinstance(e, Sym):
        return x if e.name == "x" else mpmath.mpf(params[e.name])
    if isinstance(e, Neg):
        return -_mp_value(e.child, x, params)
    if isinstance(e, Call):
        return getattr(mpmath, e.fn)(_mp_value(e.arg, x, params))
    a, b = _mp_value(e.left, x, params), _mp_value(e.right, x, params)
    return {"+": a + b, "-": a - b, "*": a * b, "/": a / b, "^": a ** b}[e.op]


@pytest.mark.parametrize("text", ["pi*x", "x^-3"])
def test_eval_dd_pi_and_negative_powers_against_50_digits(text):
    # pi is the dd constant _DD_PI, and x^-3 runs ddmath.powi with n < 0.
    expr = parse(text)
    xs = [0.3, 1.7, -2.5]
    got = eval_dd(expr, ddmath.from_float(np.array(xs)), {})
    with mpmath.workdps(50):
        for i, x in enumerate(xs):
            want = _mp_value(expr, mpmath.mpf(x), {"pi": mpmath.pi})
            value = mpmath.mpf(float(got[0][i])) + mpmath.mpf(float(got[1][i]))
            assert abs(value - want) <= 1e-31 * abs(want)


class TestEvalDdError:
    PARAMS = {"T": 982.77, "a": 1.3}

    @pytest.mark.parametrize("text", [
        "T*(x + sin(x)/10)",
        "exp(x)*cos(3*x) - a*x",
        "log(2+x)/sqrt(1+x^2) - atan(2*x)",
        "(x+2)^1.5/(x - 3) + sqrt(cos(x)^2 + 1)",
        "x^a + exp(-x)^3",
        "T*x^2 + 1/(1 + exp(x))",
    ])
    def test_bound_holds_against_40_digits(self, text):
        expr = parse(text)
        rng = np.random.default_rng(5)
        hi = rng.uniform(0.2, 3.1, 200)
        x = ddmath.add(ddmath.from_float(hi), ddmath.from_float(hi * 5e-17))
        got = eval_dd(expr, x, self.PARAMS)
        bound = eval_dd_error(expr, x, self.PARAMS)
        assert bound.shape == hi.shape and np.all(bound > 0)
        with mpmath.workdps(40):
            for i in range(len(hi)):
                xi = mpmath.mpf(float(x[0][i])) + mpmath.mpf(float(x[1][i]))
                want = _mp_value(expr, xi, self.PARAMS)
                value = mpmath.mpf(float(got[0][i])) + mpmath.mpf(float(got[1][i]))
                assert abs(value - want) <= bound[i]
        # Not so loose that it says nothing: within a few hundred rounding
        # units of the float64 values it bounds.
        assert np.all(bound < 1e-13 * (1 + np.abs(ddmath.to_float(got))) * 1e3)

    @pytest.mark.parametrize("text", ["T*(x^2 + x^3/3)", "1/(1+x^2)",
                                      "sqrt(x) + abs(x - 1)^3", "pi*x^-2"])
    def test_none_without_a_float64_fallback(self, text):
        x = ddmath.from_float(np.linspace(0.5, 1.5, 7))
        assert eval_dd_error(parse(text), x, self.PARAMS) is None


def _eval_jet_lifted(e, x_jet, params):
    """eval_jet with every number and parameter lifted to a constant jet and
    every + - * / and integer power the full Cauchy form: the reference for
    its O(D) constant and variable operands."""
    x0 = x_jet.base_point

    def const(v):
        if isinstance(x0, np.ndarray):
            v = np.full(x0.shape, float(v))
        elif isinstance(x_jet.coeffs[0], mpmath.mpf):
            v = mpmath.mpf(v)
        return jet_constant(v, x0, x_jet.degree)

    def ev(node):
        if isinstance(node, Num):
            return const(node.value)
        if isinstance(node, Sym):
            return x_jet if node.name == "x" else const(params[node.name])
        if isinstance(node, Neg):
            return -ev(node.child)
        if isinstance(node, Call):
            return jet_map(ev(node.arg), node.fn)
        if node.op == "^":
            return jet_powi(ev(node.left), int(node.right.value))
        op = {"+": jet_add, "-": jet_sub, "*": jet_mul, "/": jet_div}
        return op[node.op](ev(node.left), ev(node.right))
    return ev(e)


def _bits(jet):
    return [c._mpf_ if isinstance(c, mpmath.mpf)
            else [float(v).hex() for v in np.ravel(c)] for c in jet.coeffs]


@pytest.mark.parametrize("carrier", ["float", "grid", "mp"])
@given(_exprs(3))
@settings(max_examples=80, deadline=None)
def test_eval_jet_constant_and_variable_operands_give_the_lifted_bits(
        carrier, tree):
    x0 = {"float": 0.7, "mp": mpmath.mpf(0.7),
          "grid": np.linspace(-2.0, 2.0, 9)}[carrier]
    x_jet = jet_variable(x0, 5)
    params = {"a": -1.3, "T": 2.7}  # a negative constant: zero signs move
    with np.errstate(all="ignore"):
        try:
            want = _eval_jet_lifted(tree, x_jet, params)
        except Exception:  # a domain error of the reference walk
            with pytest.raises(ExprDomainError):
                eval_jet(tree, x_jet, params)
            return
        got = eval_jet(tree, x_jet, params)
    assert _bits(got) == _bits(want)


# --- disk enclosures ----------------------------------------------------------

_disk_fns = st.sampled_from(["exp", "log", "sin", "cos", "sqrt", "abs", "atan"])


def _literal(v: float):
    return Num(v) if v >= 0 else Neg(Num(-v))


def _disk_exprs(depth):
    """Trees over every operator: + - * / and ^ of two trees, literal
    powers (negative, zero, positive, non-integer) and every function."""
    if depth == 0:
        return st.one_of(
            st.floats(min_value=-3.0, max_value=3.0).map(lambda v: _literal(round(v, 2))),
            st.sampled_from(["x", "x", "x", "a", "pi"]).map(Sym))
    sub = _disk_exprs(depth - 1)
    return st.one_of(
        sub,
        st.tuples(st.sampled_from("+-*/^"), sub, sub).map(lambda t: Bin(*t)),
        st.tuples(sub, st.sampled_from([-3.0, -2.0, -1.0, 0.0, 1.0, 2.0, 3.0,
                                        0.5, 1.5, -1.5])).map(
            lambda t: Bin("^", t[0], _literal(t[1]))),
        st.tuples(_disk_fns, sub).map(lambda t: Call(*t)),
        sub.map(Neg))


def _analytic_abs(z):
    """abs continued off the axis: +-z on each side of 0."""
    return np.where(z.real >= 0, z, -z)


def _defined_values(tree, ts, params):
    """The tree's float values at the points of ts where it is defined."""
    values = []
    for t in ts:
        try:
            values.append(eval_real(tree, float(t), params))
        except ExprDomainError:
            pass
    return np.array(values)


@pytest.mark.parametrize("real", [False, True])
@given(_disk_exprs(3), st.floats(min_value=-2.0, max_value=2.0),
       st.floats(min_value=1e-3, max_value=1.5))
@settings(max_examples=400, deadline=None)
def test_eval_disk_encloses_the_complex_values(real, tree, center, radius):
    # eval_array at complex points of the disk, its rim included, with abs
    # continued analytically (numpy's abs of a complex is the modulus).
    # With real=True, at points of the real segment, its ends included,
    # where the tree is defined: kinks of abs inside it, and sqrt and
    # powers of a base that reaches 0 on it, are bounded there.
    rng = np.random.default_rng(13)
    params = {"a": -1.3}
    c, r = eval_disk(tree, np.float64(center), np.float64(radius), params,
                     real=real)
    assert np.ndim(c) == 0 and np.isreal(c) and r >= 0
    if r == np.inf:
        return
    if real:
        ts = center + radius * np.concatenate(([-1.0, 1.0], rng.uniform(-1, 1, 62)))
        values = _defined_values(tree, ts, params)
        assert np.all(np.isfinite(values))
        assert np.all(np.abs(values - c) <= r + 1e-13 * (abs(c) + r))
        return
    rim = np.exp(2j * np.pi * np.arange(16) / 16)
    inner = np.sqrt(rng.uniform(0, 1, 48)) * np.exp(2j * np.pi * rng.uniform(0, 1, 48))
    z = center + radius * np.concatenate((rim, inner))
    with pytest.MonkeyPatch.context() as patch, np.errstate(all="ignore"):
        patch.setitem(exprs._NUMPY, "abs", _analytic_abs)
        try:
            values = np.broadcast_to(eval_array(tree, z, params), z.shape)
        except ExprDomainError:  # as for (0^-3)^0, which the disk reads as 1
            return
    assert np.all(np.isfinite(values))
    assert np.all(np.abs(values - c) <= r + 1e-13 * (abs(c) + r))


@pytest.mark.parametrize("text, center", [
    ("1/(x - 0.3)", 0.32), ("(x - 0.3)^-2", 0.32), ("abs(x - 0.3)", 0.32),
    ("sqrt(x - 0.3)", 0.32), ("log(x - 0.3)", 0.32), ("(x - 0.3)^0.5", 0.32),
    ("(x - 0.3)^x", 0.32), ("1/(x^2 + 0.0001)", 0.005), ("atan(x/0.05)", 0.0)])
def test_eval_disk_is_unbounded_on_a_singular_point(text, center):
    # Each singular point (0.3, +-0.01i, +-0.05i) lies 0.02 or less from
    # the center: a disk of radius 0.05 holds it, one of radius 0.004 not.
    e = parse(text)
    assert eval_disk(e, center, 0.05)[1] == np.inf
    c, r = eval_disk(e, center, 0.004)
    assert np.isfinite(r) and abs(eval_real(e, center) - c) <= r


@pytest.mark.parametrize("text, center, radius", [
    ("abs(x - 0.3)", 0.32, 0.05), ("1 + abs(x - 0.123)/(1 + x^2)", 0.1, 0.1),
    ("sqrt(x)", 0.25, 0.25), ("sqrt(x - 1)", 1.1, 0.3), ("x^1.5", 0.5, 0.5),
    ("(x - 1)^0.5", 1.2, 0.3), ("sqrt(abs(x - 1.3))", 1.3, 0.2),
    ("1/(x^2 + 0.0001)", 0.0, 0.1), ("1/(x*x + 0.0001)", 0.05, 0.1)])
def test_eval_disk_on_a_real_segment_is_bounded_at_a_kink_and_at_0(
        text, center, radius):
    # A kink of abs, sqrt or x^1.5 at 0, or a square at 0, inside the
    # segment: unbounded on the complex disk, bounded on the segment, and
    # holding every value.
    e = parse(text)
    assert eval_disk(e, center, radius)[1] == np.inf
    c, r = eval_disk(e, center, radius, real=True)
    values = _defined_values(e, np.linspace(center - radius, center + radius, 201), {})
    assert np.isfinite(r) and len(values) > 100
    assert np.all(np.abs(values - c) <= r)


@pytest.mark.parametrize("text, center", [
    ("1/(x - 0.3)", 0.32), ("log(x - 0.3)", 0.32), ("(x - 0.3)^-0.5", 0.32),
    ("(x - 0.3)^-2", 0.32), ("(abs(x - 0.3)/(x - 0.3) + 1)/2", 0.32)])
def test_eval_disk_on_a_real_segment_is_unbounded_at_a_pole(text, center):
    # A divisor that may vanish, log at 0 and negative powers at 0.
    assert eval_disk(parse(text), center, 0.05, real=True)[1] == np.inf


def test_eval_disk_negative_power_is_the_quotient():
    center, radius = np.linspace(-0.5, 0.5, 7), np.full((3, 7), 0.2)
    power = eval_disk(parse("(1+x^2)^-3"), center, radius)
    quotient = eval_disk(parse("1/(1+x^2)^3"), center, radius)
    assert all(np.array_equal(p, q) for p, q in zip(power, quotient))


@pytest.mark.parametrize("text", ["pi", "x^2", "x^-3", "1/x", "exp(x)",
                                  "log(x)", "sin(x)", "cos(x)", "sqrt(x)",
                                  "atan(x)", "x^0.7", "x^x", "2 - x"])
@pytest.mark.parametrize("x", [0.1, 1.7])
def test_eval_disk_of_a_point_holds_its_exact_value(text, x):
    # Radius 0: r covers only the float64 rounding of c.
    c, r = eval_disk(parse(text), x, 0.0)
    with mpmath.workdps(40):
        exact = (+mpmath.pi if text == "pi"
                 else _mp_value(parse(text), mpmath.mpf(x), {}))
        assert abs(exact - mpmath.mpf(float(c))) <= r
