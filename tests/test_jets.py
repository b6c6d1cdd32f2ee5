import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oscphase.errors import JetDomainError, JetShapeError
from oscphase.exprs import parse
from oscphase.jets import (Jet, jet_add, jet_arith, jet_compose,
                           jet_const_arith, jet_constant, jet_differentiate,
                           jet_div, jet_extract_derivative, jet_map, jet_mul,
                           jet_mul_variable, jet_revert, jet_sub,
                           jet_variable)
from oscphase.oracle import fd_derivatives


def jet_of(*coeffs, x0=0.0):
    return Jet(x0, tuple(complex(c) for c in coeffs))


def assert_coeffs(jet, expected, tol=1e-12):
    assert len(jet.coeffs) == len(expected)
    for got, want in zip(jet.coeffs, expected):
        assert abs(got - want) <= tol * max(1.0, abs(want))


class TestVariable:
    def test_identity_jet(self):
        assert jet_variable(2.0, 3).coeffs == (2.0 + 0j, 1.0 + 0j, 0j, 0j)
        assert jet_variable(0.0, 1).coeffs == (0j, 1.0 + 0j)
        assert jet_variable(-1.5, 2).coeffs == (-1.5 + 0j, 1.0 + 0j, 0j)

    def test_degree_zero_rejected(self):
        with pytest.raises(JetShapeError):
            jet_variable(2.0, 0)


class TestArith:
    def test_square_of_one_plus_x(self):
        a = jet_of(1, 1, 0)
        assert_coeffs(jet_arith(a, a, "mul"), [1, 2, 1], tol=0)

    def test_geometric_series(self):
        one = jet_of(1, 0, 0)
        b = jet_of(1, 1, 0)
        assert_coeffs(jet_arith(one, b, "div"), [1, -1, 1], tol=0)

    def test_add(self):
        assert_coeffs(jet_arith(jet_of(0, 1), jet_of(1, 0), "add"), [1, 1], tol=0)

    def test_mismatch_rejected(self):
        with pytest.raises(JetShapeError):
            jet_arith(jet_of(1, 2), jet_of(1, 2, 3), "add")
        with pytest.raises(JetShapeError):
            jet_arith(jet_of(1, 2, x0=0.0), jet_of(1, 2, x0=1.0), "mul")

    def test_division_by_zero_constant_term(self):
        with pytest.raises(JetDomainError):
            jet_arith(jet_of(1, 0), jet_of(0, 1), "div")


class TestMap:
    def test_sqrt_binomial(self):
        assert_coeffs(jet_map(jet_of(1, 1, 0, 0), "sqrt"),
                      [1, 0.5, -0.125, 0.0625])

    def test_exp(self):
        assert_coeffs(jet_map(jet_of(0, 1, 0, 0), "exp"),
                      [1, 1, 0.5, 1 / 6])

    def test_log(self):
        assert_coeffs(jet_map(jet_of(1, 1, 0), "log"), [0, 1, -0.5])

    def test_log_domain(self):
        with pytest.raises(JetDomainError):
            jet_map(jet_of(-1, 1, 0), "log")

    def test_non_real_constant_term_rejected(self):
        with pytest.raises(TypeError):
            jet_map(Jet(0.0, (1 + 1j, 1.0)), "exp")

    def test_integer_pow_at_zero_constant(self):
        assert_coeffs(jet_map(jet_of(0, 1, 0, 0, 0), "pow", exponent=2),
                      [0, 0, 1, 0, 0], tol=0)


class TestMapRecurrences:
    """The coefficient recurrences against mpmath.taylor of fn(a(t)), taken
    at 80 digits, for a quartic a with every later coefficient zero."""

    A = (0.7, 0.3, -0.2, 0.1, 0.05)
    DEGREE = 13
    CASES = [("exp", None, mpmath.exp), ("log", None, mpmath.log),
             ("sin", None, mpmath.sin), ("cos", None, mpmath.cos),
             ("sqrt", None, mpmath.sqrt),
             ("pow", 1.5, lambda z: mpmath.power(z, 1.5)),
             ("pow", -0.5, lambda z: mpmath.power(z, -0.5))]

    def reference(self, f):
        with mpmath.workdps(80):
            return mpmath.taylor(lambda t: f(mpmath.polyval(self.A[::-1], t)),
                                 0, self.DEGREE)

    def jet(self, lift):
        padded = self.A + (0.0,) * (self.DEGREE + 1 - len(self.A))
        return Jet(0.0, tuple(lift(c) for c in padded))

    @pytest.mark.parametrize("fn, exponent, f", CASES)
    def test_float(self, fn, exponent, f):
        want = self.reference(f)
        got = jet_map(self.jet(complex), fn, exponent=exponent).coeffs
        assert len(got) == self.DEGREE + 1
        for g, w in zip(got, want):
            assert abs(g - w) <= 1e-13 * abs(w)

    @pytest.mark.parametrize("fn, exponent, f", CASES)
    def test_mp(self, fn, exponent, f):
        want = self.reference(f)
        with mpmath.workdps(50):
            got = jet_map(self.jet(mpmath.mpf), fn, exponent=exponent).coeffs
            assert all(isinstance(g, mpmath.mpf) for g in got)
            for g, w in zip(got, want):
                assert abs(g - w) <= mpmath.mpf("1e-45") * abs(w)


class TestCompose:
    def test_polynomial_substitution(self):
        outer = jet_of(0, 1, 1)
        inner = jet_of(0, 2, 0)
        assert_coeffs(jet_compose(outer, inner), [0, 2, 4], tol=0)

    def test_constant_outer(self):
        assert_coeffs(jet_compose(jet_of(5, 0, 0), jet_of(0, 1, 1)),
                      [5, 0, 0], tol=0)

    def test_identity_outer(self):
        assert_coeffs(jet_compose(jet_of(0, 1, 0, 0), jet_of(0, 1, 1, 0)),
                      [0, 1, 1, 0], tol=0)

    def test_nonzero_inner_constant_rejected(self):
        with pytest.raises(JetDomainError):
            jet_compose(jet_of(0, 1, 0), jet_of(1, 1, 0))


class TestRevert:
    def test_signed_catalan(self):
        rev = jet_revert(jet_of(0, 1, 1, 0, 0))
        assert_coeffs(rev, [0, 1, -1, 2, -5], tol=1e-14)

    def test_linear_rescale(self):
        assert_coeffs(jet_revert(jet_of(0, 2, 0)), [0, 0.5, 0], tol=0)

    def test_identity_self_inverse(self):
        ident = jet_of(0, 1, 0, 0, 0, 0)
        assert_coeffs(jet_revert(ident), [0, 1, 0, 0, 0, 0], tol=0)

    def test_preconditions(self):
        with pytest.raises(JetDomainError):
            jet_revert(jet_of(1, 1, 0))
        with pytest.raises(JetDomainError):
            jet_revert(jet_of(0, 0, 1))


class TestDifferentiate:
    def test_basic(self):
        assert_coeffs(jet_differentiate(jet_of(0, 1, -1, 2)), [1, -2, 6], tol=0)

    def test_constant(self):
        assert_coeffs(jet_differentiate(jet_of(7, 0, 0)), [0, 0], tol=0)

    def test_monomial(self):
        assert_coeffs(jet_differentiate(jet_of(0, 0, 1)), [0, 2], tol=0)

    def test_degree_zero_rejected(self):
        with pytest.raises(JetShapeError):
            jet_differentiate(jet_constant(1.0, 0.0, 0))


class TestExtractDerivative:
    def test_exp_all_ones(self):
        jet = jet_of(1, 1, 0.5, 1 / 6)
        assert jet_extract_derivative(jet, 3) == pytest.approx(1.0)

    def test_constant(self):
        assert jet_extract_derivative(jet_of(5, 0, 0), 0) == 5

    def test_square(self):
        jet = jet_mul(jet_variable(3.0, 2), jet_variable(3.0, 2))
        assert jet_extract_derivative(jet, 2) == pytest.approx(2.0)

    def test_out_of_range(self):
        with pytest.raises(JetShapeError):
            jet_extract_derivative(jet_of(1, 2), 5)


coeff = st.floats(min_value=-2.0, max_value=2.0)


def jets(min_degree=2, max_degree=8):
    return st.lists(coeff, min_size=min_degree + 1, max_size=max_degree + 1).map(
        lambda cs: jet_of(*cs))


def pad_to(jet, degree):
    return Jet(jet.base_point, jet.coeffs + (0j,) * (degree - jet.degree))


@given(jets(max_degree=6), jets(max_degree=6), jets(max_degree=6))
@settings(max_examples=60, deadline=None)
def test_mul_commutative_associative(a, b, c):
    deg = max(a.degree, b.degree, c.degree)
    a, b, c = pad_to(a, deg), pad_to(b, deg), pad_to(c, deg)
    ab = jet_mul(a, b)
    ba = jet_mul(b, a)
    scale = max(max(abs(v) for v in ab.coeffs), 1.0)
    for x, y in zip(ab.coeffs, ba.coeffs):
        assert abs(x - y) <= 1e-14 * scale
    left = jet_mul(jet_mul(a, b), c)
    right = jet_mul(a, jet_mul(b, c))
    scale = max(max(abs(v) for v in left.coeffs), 1.0)
    for x, y in zip(left.coeffs, right.coeffs):
        assert abs(x - y) <= 1e-14 * scale


@given(jets(max_degree=6),
       st.lists(st.floats(min_value=-1.0, max_value=1.0),
                min_size=3, max_size=7),
       st.floats(min_value=1.0, max_value=2.0), st.booleans())
@settings(max_examples=60, deadline=None)
def test_div_mul_roundtrip(a, b_tail, b0, b_neg):
    # divisor constant term dominates its tail: the quotient coefficients of
    # an ill-conditioned divisor grow like (tail/b0)^k and would swamp the
    # 1e-12 bound in floating point
    deg = max(a.degree, len(b_tail) - 1)
    a = pad_to(a, deg)
    b = pad_to(jet_of(-b0 if b_neg else b0, *b_tail[1:]), deg)
    back = jet_mul(jet_arith(a, b, "div"), b)
    scale = max(max(abs(v) for v in a.coeffs), 1.0)
    for x, y in zip(back.coeffs, a.coeffs):
        assert abs(x - y) <= 1e-12 * scale


@given(st.lists(st.floats(min_value=-1.0, max_value=1.0),
                min_size=1, max_size=11),
       st.floats(min_value=0.5, max_value=2.0), st.booleans())
@settings(max_examples=80, deadline=None)
def test_revert_compose_roundtrip(tail, a1, flip):
    # Tail coefficients stay below 0.15*|a1|: reversion conditioning (and the
    # rounding of the round-trip composition itself) grows geometrically in
    # the tail-to-linear ratio, and adversarial sign patterns at larger
    # ratios exceed the 1e-10 bound for purely numerical reasons.
    coeffs = [0.0, a1 if not flip else -a1] + [0.15 * a1 * t for t in tail]
    a = jet_of(*coeffs)
    b = jet_revert(a)
    ident = jet_compose(a, b)
    assert abs(ident.coeffs[0]) == 0.0
    assert abs(ident.coeffs[1] - 1.0) <= 1e-12
    for c in ident.coeffs[2:]:
        assert abs(c) <= 1e-10


def test_revert_compose_roundtrip_mp():
    # a(y) = -1.3 y + y^2 (0.2 - 0.1 y + 0.05 y^2 ...), degree 13, 50 digits
    with mpmath.workdps(50):
        tail = [mpmath.mpf(c) / 10 for c in (2, -1, 0.5, 3, -2, 1, 0.7, -0.4,
                                              0.3, 0.2, -0.1, 0.05)]
        a = Jet(0.0, (mpmath.mpf(0), mpmath.mpf("-1.3")) + tuple(tail))
        b = jet_revert(a)
        assert b.degree == 13 and b.coeffs[1] == 1 / mpmath.mpf("-1.3")
        ident = jet_compose(a, b)
        assert ident.coeffs[0] == 0
        assert abs(ident.coeffs[1] - 1) <= mpmath.mpf("1e-45")
        for c in ident.coeffs[2:]:
            assert abs(c) <= mpmath.mpf("1e-45")


@given(st.lists(st.floats(min_value=-1.0, max_value=1.0),
                min_size=2, max_size=8),
       st.floats(min_value=1.0, max_value=2.0))
@settings(max_examples=60, deadline=None)
def test_sqrt_of_square_recovers(tail, c0):
    a = jet_of(c0, *tail)  # constant term kept >= 1 so sqrt is well posed
    back = jet_map(jet_mul(a, a), "sqrt")
    scale = max(max(abs(v) for v in a.coeffs), 1.0)
    for x, y in zip(back.coeffs, a.coeffs):
        assert abs(x - y) <= 1e-12 * scale


@pytest.mark.parametrize("text", ["exp(x)*sin(x)", "x^3/(1+x^2)", "atan(x)"])
def test_jet_derivatives_match_finite_differences(text):
    from oscphase.exprs import eval_jet

    expr = parse(text)
    for x0 in (0.3, 1.1):
        jet = eval_jet(expr, jet_variable(x0, 4))
        fd = fd_derivatives(expr, x0, 4)
        for k in range(1, 5):
            exact = jet_extract_derivative(jet, k).real
            assert abs(fd[k - 1] - exact) <= 1e-5 * max(1.0, abs(exact))


# Constant operands: jet_const_arith against the lifted constant jet, bit for
# bit, on every carrier, with the values that make zero signs and NaNs move.
SPECIAL = (0.0, -0.0, math.inf, -math.inf, math.nan, 1.0, -2.5, 5e-324, 3e300)
special_floats = st.one_of(st.sampled_from(SPECIAL),
                           st.floats(allow_nan=True, allow_infinity=True))
LIFTED = {"+": jet_add, "-": jet_sub, "*": jet_mul, "/": jet_div}
GRID = np.array([-0.5, 0.25, 1.0])


def carrier_jet(carrier, rows):
    """A degree-(len(rows) - 1) jet whose coefficient k holds rows[k]: its
    first entry as a float or an mpf, or all three on a 3-point grid."""
    if carrier == "grid":
        return Jet(GRID, tuple(np.array(r) for r in rows))
    if carrier == "mp":
        return Jet(mpmath.mpf(0), tuple(mpmath.mpf(r[0]) for r in rows))
    return Jet(0.0, tuple(r[0] for r in rows))


def bits(jet):
    out = []
    for c in jet.coeffs:
        if isinstance(c, mpmath.mpf):
            out.append(c._mpf_)
        else:
            out.append(tuple(float(v).hex() for v in np.ravel(c)))
    return out


@pytest.mark.parametrize("carrier", ["float", "grid", "mp"])
@pytest.mark.parametrize("op, left", [("+", False), ("+", True), ("-", False),
                                      ("-", True), ("*", False), ("*", True),
                                      ("/", False)])
@given(rows=st.lists(st.lists(special_floats, min_size=3, max_size=3),
                     min_size=2, max_size=7),
       v=special_floats, z_negative=st.booleans(), negate=st.booleans())
@settings(max_examples=60, deadline=None)
def test_constant_operand_matches_lifted_jet(carrier, op, left, rows, v,
                                             z_negative, negate):
    a = carrier_jet(carrier, rows)
    z = -0.0 if z_negative else 0.0
    if negate:  # a negated constant: the pair a Neg node makes of (v, z)
        v, z = -v, -z
    if carrier == "mp":
        v, z = mpmath.mpf(v), mpmath.mpf(0)
    if op == "/" and v == 0:
        with pytest.raises(JetDomainError):
            jet_const_arith(a, op, v, z)
        return
    lifted = (Jet(GRID, (np.full(3, v),) + (np.full(3, z),) * a.degree)
              if carrier == "grid"
              else Jet(a.base_point, (v,) + (z,) * a.degree))
    with np.errstate(all="ignore"):
        want = LIFTED[op](lifted, a) if left else LIFTED[op](a, lifted)
        got = jet_const_arith(a, op, v, z, left=left)
    assert bits(got) == bits(want)


@pytest.mark.parametrize("carrier", ["float", "grid", "mp"])
@given(rows=st.lists(st.lists(special_floats, min_size=3, max_size=3),
                     min_size=2, max_size=7),
       x0=st.lists(special_floats, min_size=3, max_size=3))
@settings(max_examples=60, deadline=None)
def test_variable_operand_matches_jet_mul(carrier, rows, x0):
    a = carrier_jet(carrier, rows)
    base = (np.array(x0) if carrier == "grid"
            else mpmath.mpf(x0[0]) if carrier == "mp" else x0[0])
    x = jet_variable(base, a.degree)
    a = Jet(x.base_point, a.coeffs)
    with np.errstate(all="ignore"):
        got = jet_mul_variable(a, x)
        assert bits(got) == bits(jet_mul(a, x)) == bits(jet_mul(x, a))
