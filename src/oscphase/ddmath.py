"""Vectorized double-double (hi/lo pair) arithmetic.

Oscillatory phases f(x) reach ~T in magnitude while e(f) only depends on
f mod 1, so plain float64 evaluation of f injects ~|f|*eps of phase jitter.
Carrying the phase as an unevaluated hi+lo pair (Dekker/Knuth error-free
transforms; ~31 significant digits) keeps e(f) accurate to ~1e-16 radians for
polynomial/rational phases regardless of T.  All kernels operate elementwise
on numpy arrays.

A DD value is a plain (hi, lo) tuple of float64 arrays with hi = fl(hi+lo).

The module's constants are built once per process, at import or on first
use, from 40- to 60-digit mpmath values rounded to dd, as in Hida, Li &
Bailey's QD library: the sin/cos tables of sincos_turns from one computed
quarter wave, the Gauss-Legendre rules from their nonnegative half (see
gauss_legendre_dd).  Both use symmetries that hold exactly in dd, so they
have the same bits as computing every entry on its own, at a fraction of the
cost of a fresh interpreter's set-up.
"""

from __future__ import annotations

from typing import Tuple

import mpmath
import numpy as np

DD = Tuple[np.ndarray, np.ndarray]

_SPLITTER = 134217729.0  # 2**27 + 1, for Dekker splitting without FMA


def _two_sum(a, b):
    s = a + b
    bb = s - a
    err = (a - (s - bb)) + (b - bb)
    return s, err


def _quick_two_sum(a, b):
    # requires |a| >= |b| (or a == 0)
    s = a + b
    err = b - (s - a)
    return s, err


def _split(a):
    t = _SPLITTER * a
    hi = t - (t - a)
    return hi, a - hi


def _two_prod(a, b):
    p = a * b
    ah, al = _split(a)
    bh, bl = _split(b)
    err = ((ah * bh - p) + ah * bl + al * bh) + al * bl
    return p, err


def from_float(value) -> DD:
    hi = np.asarray(value, dtype=np.float64)
    return hi, np.zeros_like(hi)


def to_float(a: DD) -> np.ndarray:
    return a[0] + a[1]


def neg(a: DD) -> DD:
    return -a[0], -a[1]


def abs_(a: DD) -> DD:
    s = np.where((a[0] < 0) | ((a[0] == 0) & (a[1] < 0)), -1.0, 1.0)
    return a[0] * s, a[1] * s


def add(a: DD, b: DD) -> DD:
    s1, s2 = _two_sum(a[0], b[0])
    t1, t2 = _two_sum(a[1], b[1])
    s2 = s2 + t1
    s1, s2 = _quick_two_sum(s1, s2)
    s2 = s2 + t2
    return _quick_two_sum(s1, s2)


def add_f(a: DD, s) -> DD:
    """dd plus a float64 array/scalar; the same bits as add(a, (s, 0))."""
    s1, s2 = _two_sum(a[0], s)
    s1, s2 = _quick_two_sum(s1, s2 + a[1])
    return _quick_two_sum(s1, s2)


def sub(a: DD, b: DD) -> DD:
    return add(a, neg(b))


def mul(a: DD, b: DD) -> DD:
    p1, p2 = _two_prod(a[0], b[0])
    p2 = p2 + (a[0] * b[1] + a[1] * b[0])
    return _quick_two_sum(p1, p2)


def sqr(a: DD) -> DD:
    """a * a with one split; the same bits as mul(a, a)."""
    p = a[0] * a[0]
    ah, al = _split(a[0])
    cross = ah * al
    err = (((ah * ah - p) + cross) + cross) + al * al
    err = err + 2.0 * (a[0] * a[1])
    return _quick_two_sum(p, err)


def mul_f(a: DD, s) -> DD:
    """dd times a float64 array/scalar; the same bits as mul(a, (s, 0))."""
    p1, p2 = _two_prod(a[0], s)
    p2 = p2 + a[1] * s
    return _quick_two_sum(p1, p2)


def div(a: DD, b: DD) -> DD:
    q1 = a[0] / b[0]
    r = sub(a, mul_f(b, q1))
    q2 = r[0] / b[0]
    r = sub(r, mul_f(b, q2))
    q3 = r[0] / b[0]
    return add_f(_quick_two_sum(q1, q2), q3)


def sqrt(a: DD) -> DD:
    s = np.sqrt(a[0])
    with np.errstate(divide="ignore", invalid="ignore"):
        e = sub(a, mul((s, np.zeros_like(s)), (s, np.zeros_like(s))))
        lo = np.where(s > 0, e[0] / (2.0 * s), 0.0)
    return _quick_two_sum(s, lo)


def powi(a: DD, n: int) -> DD:
    if n < 0:
        return div(from_float(1.0), powi(a, -n))
    result = None
    base = a
    while n:
        if n & 1:
            result = base if result is None else mul(result, base)
        n >>= 1
        if n:
            base = sqr(base)
    if result is None:
        return from_float(np.ones_like(a[0]))
    return result


def _dd_of_mp(v) -> tuple[float, float]:
    hi = float(v)
    lo = float(v - hi)
    return hi, lo


# The turn [-1/2, 1/2] splits into a tabulated multiple of 1/4096 plus a
# residual |theta| <= 2*pi/8192, for which 5-term Taylor kernels reach
# double-double accuracy (see sincos_turns for which terms need dd).
_TAB_DIV = 4096

_QUARTER = _TAB_DIV // 4

with mpmath.workdps(40):
    TWO_PI: DD = _dd_of_mp(2 * mpmath.pi)
    _SIN_COEF = [_dd_of_mp(mpmath.mpf((-1) ** k) / mpmath.factorial(2 * k + 1))
                 for k in range(5)]
    _COS_COEF = [_dd_of_mp(mpmath.mpf((-1) ** k) / mpmath.factorial(2 * k))
                 for k in range(5)]
    # sin(2*pi*m/4096) for m = 0..1024; _wave fills in the rest.
    _q_hi, _q_lo = np.array(
        [_dd_of_mp(mpmath.sinpi(mpmath.mpf(2 * _m) / _TAB_DIV))
         for _m in range(_QUARTER + 1)]).T


def _wave(q: np.ndarray):
    """sin and cos of 2*pi*m/4096, m = -2048..2048, from the quarter wave
    q[k] = sin(2*pi*k/4096), k = 0..1024, by sin(pi - t) = sin(t),
    cos(t) = sin(pi/2 - |t|) and negation.  Applied to the hi and lo parts
    separately: rounding to dd commutes with negation, so each entry has the
    bits of its own correctly rounded value."""
    rise = np.concatenate((q, q[-2::-1]))  # sin on m = 0..2048
    sin = np.concatenate((-rise[:0:-1], rise)) + 0.0  # + 0.0: no -0.0 entries
    cos = np.concatenate((-q[:0:-1], q, q[-2::-1], -q[1:]))
    return sin, cos + 0.0


TAB_SIN_HI, TAB_COS_HI = _wave(_q_hi)
TAB_SIN_LO, TAB_COS_LO = _wave(_q_lo)


def frac_half(a: DD) -> DD:
    """Reduce modulo 1 into [-1/2, 1/2] (exact while |hi| < 2**52)."""
    k = np.rint(a[0])
    h = a[0] - k  # exact
    s, e = _two_sum(h, a[1])
    k2 = np.rint(s)
    s = s - k2  # exact, |s| <= 1/2 + ulp
    return _quick_two_sum(s, e)


def sincos_turns(frac: DD) -> tuple[DD, DD]:
    """(sin, cos) of 2*pi*frac for frac in [-1/2, 1/2], each as DD.

    frac = m/4096 + r with the residual angle theta = 2*pi*r, |theta| <=
    2*pi/8192, so u = theta^2 < 5.9e-7.  The 5-term Taylor kernels are

        sin(theta) = theta * (1 + u * (-1/6 + tail_s)),
        tail_s = u * (1/120 + u * (-1/5040 + u/362880)),
        cos(theta) = 1 + u * (-1/2 + u * (1/24 + tail_c)),
        tail_c = u * (-1/720 + u/40320).

    theta, u, the coefficients -1/6, -1/2, 1/24 and every product and sum
    outside the tails are carried in dd; tail_s and tail_c are evaluated in
    float64 from the high part of u.  The tails contribute at most 2.3e-18
    (theta * u * tail_s) and 2.9e-22 (u^2 * tail_c) to the results, so their
    float64 rounding adds about 1e-33; the truncated Taylor terms are below
    2e-38.  Combined with the tabulated sin and cos of 2*pi*m/4096, the
    results stay within a few 1e-32 of the exact values.

    The tables TAB_SIN_* and TAB_COS_* hold sin and cos of 2*pi*m/4096 for
    m = -2048..2048 (index m + 2048), each the 40-digit mpmath value rounded
    to dd.  Only the quarter wave m = 0..1024 is computed (1,025 mpmath
    calls instead of 8,194); reflection and negation give the rest exactly,
    and zeros are stored as +0.0.
    """
    m = np.rint(frac[0] * _TAB_DIV)
    r = add_f(frac, -(m / _TAB_DIV))  # m/4096 is exact
    theta = mul(r, TWO_PI)
    u = sqr(theta)
    uh = u[0]

    s = _SIN_COEF
    tail_s = uh * (s[2][0] + uh * (s[3][0] + uh * s[4][0]))
    sin_t = mul(theta, add_f(mul(add_f(s[1], tail_s), u), s[0][0]))

    c = _COS_COEF
    tail_c = uh * (c[3][0] + uh * c[4][0])
    cos_t = add_f(mul(add_f(mul(add_f(c[2], tail_c), u), c[1][0]), u), c[0][0])

    idx = (m + _TAB_DIV // 2).astype(np.int64)
    tab_s: DD = (TAB_SIN_HI[idx], TAB_SIN_LO[idx])
    tab_c: DD = (TAB_COS_HI[idx], TAB_COS_LO[idx])

    sin_out = add(mul(sin_t, tab_c), mul(cos_t, tab_s))
    cos_out = sub(mul(cos_t, tab_c), mul(sin_t, tab_s))
    return sin_out, cos_out


def e_unit_dd(f: DD) -> tuple[DD, DD]:
    """e(f) = exp(2*pi*i*f) as (real DD, imag DD)."""
    s, c = sincos_turns(frac_half(f))
    return c, s


def e_unit(f: DD) -> np.ndarray:
    """e(f) collapsed to complex128."""
    re, im = e_unit_dd(f)
    return to_float(re) + 1j * to_float(im)


def sum_pairwise(a: DD) -> DD:
    """Deterministic pairwise dd sum of a flattened dd array."""
    hi = np.asarray(a[0], dtype=np.float64).ravel()
    lo = np.asarray(a[1], dtype=np.float64).ravel()
    if hi.size == 0:
        return np.float64(0.0), np.float64(0.0)
    cur: DD = (hi, lo)
    while cur[0].size > 1:
        n = cur[0].size
        if n % 2:
            cur = (np.append(cur[0], 0.0), np.append(cur[1], 0.0))
            n += 1
        cur = add((cur[0][0::2], cur[1][0::2]), (cur[0][1::2], cur[1][1::2]))
    return cur[0][0], cur[1][0]


def sum_nodes(a: DD) -> DD:
    """dd sum over the last axis of a dd array (panel-node reduction)."""
    acc: DD = (a[0][..., 0].copy(), a[1][..., 0].copy())
    for j in range(1, a[0].shape[-1]):
        acc = add(acc, (a[0][..., j], a[1][..., j]))
    return acc


_GL_CACHE: dict[int, tuple[DD, DD]] = {}


def _legendre_pair(n: int, x):
    """(P_n(x), P_{n-1}(x)) by the three-term recurrence, in x's arithmetic."""
    p_prev, p = 1, x
    for k in range(1, n):
        p_prev, p = p, ((2 * k + 1) * x * p - k * p_prev) / (k + 1)
    return p, p_prev


def gauss_legendre_dd(order: int) -> tuple[DD, DD]:
    """Gauss-Legendre nodes/weights on [-1, 1] to double-double accuracy.

    Newton's method on P_order at 60 digits, seeded with numpy's float64
    nodes, solves only the nonnegative half: the rule is symmetric, so the
    other half is its exact negation.  For odd orders the middle seed is
    exactly 0, where the recurrence gives P_order = 0 exactly, so that node
    stays 0.  P_order and P_order-1 come from the three-term recurrence, and
    Newton stops once its step is below 1e-58 of the node.  The nodes and
    weights agree with a full solve with mpmath.legendre far beyond the 32
    digits that their dd rounding keeps, so every bit of the rule is the
    same.
    """
    if order in _GL_CACHE:
        return _GL_CACHE[order]
    seeds, _ = np.polynomial.legendre.leggauss(order)
    half = order // 2  # seeds[half:] are the nonnegative nodes, ascending
    xs = []
    ws = []
    with mpmath.workdps(60):
        eps = mpmath.mpf(10) ** -58
        for seed in seeds[half:]:
            x = mpmath.mpf(float(seed))
            for _ in range(8):
                p, pm = _legendre_pair(order, x)
                step = p / (order * (x * p - pm) / (x * x - 1))
                x = x - step
                if abs(step) <= eps * abs(x):
                    break
            p, pm = _legendre_pair(order, x)
            dp = order * (x * p - pm) / (x * x - 1)
            xs.append(_dd_of_mp(x))
            ws.append(_dd_of_mp(2 / ((1 - x * x) * dp * dp)))
    xs, ws = np.array(xs), np.array(ws)  # rows (hi, lo), nonnegative half
    xs_hi, xs_lo = np.concatenate((-xs[::-1][:half], xs)).T.copy()
    ws_hi, ws_lo = np.concatenate((ws[::-1][:half], ws)).T.copy()
    result = ((xs_hi, xs_lo), (ws_hi, ws_lo))
    _GL_CACHE[order] = result
    return result

