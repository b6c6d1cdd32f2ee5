"""Truncated Taylor-polynomial (jet) arithmetic.

A jet stores the coefficients c_k = h^(k)(x0)/k! of a function h at a base
point x0, up to a fixed degree D.  All arithmetic truncates silently at D,
which is exactly the formal-power-series semantics the coefficient machinery
needs.  Coefficients are real doubles in normal use; any field-like carrier
(e.g. mpmath numbers, float64 arrays over a scan grid, which is then the
base point, or the complex constants of the boundary terms) works because
the algorithms only use +, -, *, /.

Every series is built one coefficient at a time from the earlier ones, as
in the classical power-series algorithms (Knuth, TAOCP vol. 2, 4.7; Brent
& Kung, J. ACM 25, 1978): products and quotients by the Cauchy recurrence
(O(D) against a constant operand or the variable x: `jet_const_arith`,
`jet_mul_variable`), the elementary functions of `jet_map` by recurrences
from their differential equations (O(D^2) products each), and the
reversion by a table of truncated powers (about D^3/6).  Composition is
Horner's rule (O(D^3)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import mpmath
import numpy as np

from . import scalars
from .errors import JetDomainError, JetShapeError

_MAP_FUNCTIONS = ("exp", "log", "sin", "cos", "sqrt", "pow", "atan")


@dataclass(frozen=True, eq=False)
class Jet:
    """Degree-D truncated Taylor expansion at `base_point`.

    coeffs[k] is h^(k)(base_point)/k!; len(coeffs) == degree + 1.
    """

    base_point: float
    coeffs: tuple

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __neg__(self):
        return Jet(self.base_point, tuple(-c for c in self.coeffs))


def jet_variable(x0: float, degree: int) -> Jet:
    """Jet of the identity function x -> x at x0: [x0, 1, 0, ..., 0]."""
    if degree < 1:
        raise JetShapeError("jet_variable requires degree >= 1")
    grid = isinstance(x0, np.ndarray)
    if not (grid or scalars.is_mp(x0)):
        x0 = float(x0)
    coeffs = ((x0, scalars.one_like(x0))
              + (scalars.zero_like(x0),) * (degree - 1))
    return Jet(x0 if grid else float(x0), coeffs)


def jet_constant(value, x0: float, degree: int) -> Jet:
    return Jet(x0, (value,) + (scalars.zero_like(value),) * degree)


def _check_compatible(a: Jet, b: Jet) -> None:
    if a.degree != b.degree:
        raise JetShapeError(f"degree mismatch: {a.degree} != {b.degree}")
    if a.base_point is not b.base_point and np.any(a.base_point != b.base_point):
        raise JetShapeError(
            f"base-point mismatch: {a.base_point} != {b.base_point}")


def jet_add(a: Jet, b: Jet) -> Jet:
    _check_compatible(a, b)
    return Jet(a.base_point, tuple(x + y for x, y in zip(a.coeffs, b.coeffs)))


def jet_sub(a: Jet, b: Jet) -> Jet:
    _check_compatible(a, b)
    return Jet(a.base_point, tuple(x - y for x, y in zip(a.coeffs, b.coeffs)))


def jet_mul(a: Jet, b: Jet) -> Jet:
    """Cauchy product truncated at the common degree."""
    _check_compatible(a, b)
    ac, bc = a.coeffs, b.coeffs
    n = len(ac)
    out = []
    for k in range(n):
        s = ac[0] * bc[k]
        for i in range(1, k + 1):
            s = s + ac[i] * bc[k - i]
        out.append(s)
    return Jet(a.base_point, tuple(out))


def jet_div(a: Jet, b: Jet) -> Jet:
    """Formal long division; requires b's constant term to be nonzero."""
    _check_compatible(a, b)
    if np.any(b.coeffs[0] == 0):
        raise JetDomainError("division by a jet with zero constant term")
    ac, bc = a.coeffs, b.coeffs
    q = [ac[0] / bc[0]]
    for k in range(1, len(ac)):
        s = ac[k]
        for j in range(1, k + 1):
            s = s - bc[j] * q[k - j]
        q.append(s / bc[0])
    return Jet(a.base_point, tuple(q))


def jet_const_arith(a: Jet, op: str, v, z, left: bool = False) -> Jet:
    """a op c, or c op a when `left`, for the constant jet c = (v, z, ..., z)
    of a's degree, z a zero (signed for floats), in O(D) operations.

    Equal bit for bit to jet_add, jet_sub, jet_mul or jet_div of a and the
    lifted c: each higher coefficient of c only contributes terms z*a_j,
    which are signed zeros or NaNs, and a sum of one value with such terms
    does not depend on its order (nor does x - y differ from x + (-y)).  So
    c_k = v*a_k + W_k with W_k the running sum of z*a_j (j < k), and
    q_k = (a_k + N_k)/v with N_k the running sum of -(z*q_j).  c / a is not
    covered: its quotient reads every coefficient of a.
    """
    ac = a.coeffs
    if op == "+":
        out = ([v + ac[0]] + [z + c for c in ac[1:]] if left
               else [ac[0] + v] + [c + z for c in ac[1:]])
    elif op == "-":
        out = ([v - ac[0]] + [z - c for c in ac[1:]] if left
               else [ac[0] - v] + [c - z for c in ac[1:]])
    elif op == "*":
        out, w = [v * ac[0]], None
        for k in range(1, len(ac)):
            t = z * ac[k - 1]
            w = t if w is None else w + t
            out.append(v * ac[k] + w)
    elif op == "/" and not left:
        if np.any(v == 0):
            raise JetDomainError("division by a jet with zero constant term")
        out, w = [ac[0] / v], None
        for k in range(1, len(ac)):
            t = -(z * out[k - 1])
            w = t if w is None else w + t
            out.append((ac[k] + w) / v)
    else:
        raise ValueError(f"unknown constant-operand jet operation {op!r}")
    return Jet(a.base_point, tuple(out))


def jet_mul_variable(a: Jet, x: Jet) -> Jet:
    """a * x for a variable jet x = (x0, 1, 0, ..., 0) of a's degree
    (jet_variable), in O(D) operations: c_k = (x0*a_k + 1*a_{k-1}) + W_k,
    W_k the running sum of 0*a_j (j < k - 1).

    Equal bit for bit to jet_mul(a, x) and jet_mul(x, a): apart from the
    two products that the rounding combines, every term is a signed zero or
    a NaN, and such terms leave a sum of two values independent of the order
    of its terms.
    """
    x0, one = x.coeffs[0], x.coeffs[1]
    ac = a.coeffs
    out, w = [x0 * ac[0]], None
    for k in range(1, len(ac)):
        s = x0 * ac[k] + one * ac[k - 1]
        if k > 1:
            t = x.coeffs[2] * ac[k - 2]
            w = t if w is None else w + t
            s = s + w
        out.append(s)
    return Jet(a.base_point, tuple(out))


def jet_arith(a: Jet, b: Jet, op: str) -> Jet:
    """Dispatch form of +, -, *, / used by contract-level callers."""
    try:
        fn = {"add": jet_add, "sub": jet_sub, "mul": jet_mul, "div": jet_div}[op]
    except KeyError:
        raise ValueError(f"unknown jet operation {op!r}") from None
    return fn(a, b)


def jet_differentiate(a: Jet) -> Jet:
    """Jet of h'; the degree drops by one."""
    if a.degree < 1:
        raise JetShapeError("cannot differentiate a degree-0 jet")
    out = tuple((k + 1) * a.coeffs[k + 1] for k in range(a.degree))
    return Jet(a.base_point, out)


def jet_integrate(a: Jet, constant=0.0) -> Jet:
    """Termwise antiderivative with the given constant term; degree grows."""
    out = (constant,) + tuple(a.coeffs[k] / (k + 1) for k in range(a.degree + 1))
    return Jet(a.base_point, out)


def jet_truncate(a: Jet, degree: int) -> Jet:
    if degree >= a.degree:
        return a
    return Jet(a.base_point, a.coeffs[: degree + 1])


def jet_extract_derivative(a: Jet, k: int):
    """k-th derivative value at the base point: k! * c_k."""
    if not 0 <= k <= a.degree:
        raise JetShapeError(f"derivative order {k} outside 0..{a.degree}")
    return math.factorial(k) * a.coeffs[k]


def jet_compose(outer: Jet, inner: Jet) -> Jet:
    """Formal composition outer(inner); inner must lack a constant term.

    Both jets are read as formal series in their offset variable; the result
    keeps inner's base point.
    """
    if inner.coeffs[0] != 0:
        raise JetDomainError("composition requires inner constant term = 0")
    if outer.degree != inner.degree:
        raise JetShapeError(
            f"degree mismatch: {outer.degree} != {inner.degree}")
    # Horner evaluation in the series ring.
    x0 = inner.base_point
    deg = inner.degree
    result = jet_constant(outer.coeffs[deg], x0, deg)
    inner_at = Jet(x0, inner.coeffs)
    for k in range(deg - 1, -1, -1):
        result = jet_mul(result, inner_at)
        result = Jet(x0, (result.coeffs[0] + outer.coeffs[k],) + result.coeffs[1:])
    return result


def jet_revert(a: Jet) -> Jet:
    """Compositional inverse b of a series a with a0 = 0 and a1 != 0.

    b1 = 1/a1, and for k >= 2 the y^k coefficient of a(b(y)) is a1*b_k
    plus sum_{i=2..k} a_i [y^k] b^i, whose powers hold only b_1..b_{k-1};
    setting it to zero gives b_k.  A table of b's truncated powers gains
    one column per k, so the whole series costs about D^3/6 products
    (Knuth, TAOCP vol. 2, 4.7).
    """
    if a.coeffs[0] != 0:
        raise JetDomainError("reversion requires zero constant term")
    if a.coeffs[1] == 0:
        raise JetDomainError("reversion requires a nonzero linear term")
    ac = a.coeffs
    b = [1 / ac[1]]  # b[m - 1] = b_m
    # powers[i][m - i] = [y^m] b^i for the m < k reached so far.
    powers = [None, b]
    for k in range(2, a.degree + 1):
        # Column k: [y^k] b^i = sum_{j>=1} b_j [y^(k-j)] b^(i-1), i = 2..k.
        powers.append([])
        for i in range(2, k + 1):
            lower = powers[i - 1]
            c = b[0] * lower[k - i]
            for j in range(2, k - i + 2):
                c = c + b[j - 1] * lower[k - i + 1 - j]
            powers[i].append(c)
        s = ac[2] * powers[2][k - 2]
        for i in range(3, k + 1):
            s = s + ac[i] * powers[i][k - i]
        b.append(-s / ac[1])
    return Jet(a.base_point, (scalars.zero_like(ac[1]),) + tuple(b))


def _require_positive(c0, fn: str) -> None:
    if np.any(c0.real <= 0.0):
        raise JetDomainError(f"{fn} requires a positive constant term")


def jet_powi(a: Jet, n: int) -> Jet:
    """Integer power by binary exponentiation; valid for any constant term."""
    if n < 0:
        one = jet_constant(scalars.one_like(a.coeffs[0]), a.base_point, a.degree)
        return jet_div(one, jet_powi(a, -n))
    result = None
    base = a
    m = n
    while m:
        if m & 1:
            result = base if result is None else jet_mul(result, base)
        m >>= 1
        if m:
            base = jet_mul(base, base)
    if result is None:
        return jet_constant(scalars.one_like(a.coeffs[0]), a.base_point, a.degree)
    return result


def jet_map(a: Jet, fn: str, exponent=None) -> Jet:
    """Jet of fn(a) for fn in {exp, log, sin, cos, sqrt, pow, atan}.

    pow with an integer exponent reduces to repeated multiplication (exact
    even at zero constant term).  atan integrates a'/(1 + a^2).  The others
    take their constant term from `scalars` and every later coefficient
    from the earlier ones, by the product rule applied to the function's
    differential equation: exp' = exp a', log' = a'/a, sin' = cos a',
    cos' = -sin a', (a^p)' = p a^p a'/a, and sqrt squared is a (Knuth,
    TAOCP vol. 2, 4.7).  Each costs O(D^2) products.
    """
    if fn not in _MAP_FUNCTIONS:
        raise ValueError(f"unknown jet function {fn!r}")
    if fn == "pow":
        if exponent is None:
            raise ValueError("pow requires an exponent")
        if float(exponent) == int(exponent):
            return jet_powi(a, int(exponent))
    c0 = a.coeffs[0]
    if fn == "atan":
        # atan(a) = atan(c0) + integral of a' / (1 + a^2); exact to degree.
        da = jet_differentiate(a)
        den = jet_truncate(jet_mul(a, a), a.degree - 1)
        one = jet_constant(scalars.one_like(c0), a.base_point, a.degree - 1)
        quot = jet_div(da, jet_add(one, den))
        return jet_integrate(quot, constant=scalars.atan(c0))
    if fn in ("log", "sqrt", "pow"):
        _require_positive(c0, fn)
    ac, deg = a.coeffs, a.degree
    # da[j] = j a_j: the coefficients of t a'(t).
    da = [None] + [j * ac[j] for j in range(1, deg + 1)]

    def conv(weights, series, k):
        """sum_{j=1..k} weights[j] * series[k - j]."""
        s = weights[1] * series[k - 1]
        for j in range(2, k + 1):
            s = s + weights[j] * series[k - j]
        return s

    if fn == "exp":
        out = [scalars.exp(c0)]
        for k in range(1, deg + 1):
            out.append(conv(da, out, k) / k)
    elif fn == "log":
        # a * (t log(a)') = t a', with db[m] = m b_m (db[0] = 0):
        # c0 db[k] = k a_k - sum_{j=1..k} a_j db[k-j]
        out = [scalars.log(c0)]
        db = [scalars.zero_like(c0)]
        for k in range(1, deg + 1):
            db.append((da[k] - conv(ac, db, k)) / c0)
            out.append(db[k] / k)
    elif fn in ("sin", "cos"):
        sin, cos = [scalars.sin(c0)], [scalars.cos(c0)]
        for k in range(1, deg + 1):
            sin.append(conv(da, cos, k) / k)
            cos.append(-conv(da, sin, k) / k)  # reads sin up to k - 1
        out = sin if fn == "sin" else cos
    elif fn == "sqrt":
        # b^2 = a: 2 b_0 b_k = a_k - sum_{0<j<k} b_j b_{k-j}
        out = [scalars.sqrt(c0)]
        two_b0 = 2 * out[0]
        for k in range(1, deg + 1):
            s = ac[k]
            for j in range(1, k):
                s = s - out[j] * out[k - j]
            out.append(s / two_b0)
    else:
        # a * (t b') = p b * (t a'):
        # k c0 b_k = sum_{j=1..k} (p j - (k - j)) a_j b_{k-j}
        # (p in the carrier, so that an mp weight is exact for any p).
        p = mpmath.mpf(exponent) if scalars.is_mp(c0) else exponent
        out = [scalars.exp(p * scalars.log(c0))]
        for k in range(1, deg + 1):
            s = (p - (k - 1)) * ac[1] * out[k - 1]
            for j in range(2, k + 1):
                s = s + (p * j - (k - j)) * ac[j] * out[k - j]
            out.append(s / (k * c0))
    return Jet(a.base_point, tuple(out))
