"""Scalar elementary functions that work over both the complex-double carrier
and mpmath numbers (and over float64 arrays, element by element).

Jet arithmetic only needs +, -, *, / (duck-typed), but `jet_map` must apply
exp/log/sin/... to the constant term, which may be a Python complex, an mpf,
an mpc, or an array.  Real inputs are routed through `math` so that a jet's
constant coefficient is bit-identical to the plain real evaluation of the
same expression (numpy's exp and log differ from `math` in the last ulp).
"""

from __future__ import annotations

import cmath
import math

import mpmath
import numpy as np


def is_mp(value) -> bool:
    return isinstance(value, (mpmath.mpf, mpmath.mpc))


def _real_or_none(z):
    """Return the real part of a complex with exactly-zero imaginary part."""
    if isinstance(z, complex):
        return z.real if z.imag == 0.0 else None
    if isinstance(z, (int, float)):
        return float(z)
    return None


def _dispatch(z, real_fn, complex_fn, mp_fn):
    if is_mp(z):
        return mp_fn(z)
    if isinstance(z, np.ndarray):
        return np.array([real_fn(v) for v in z.tolist()])
    r = _real_or_none(z)
    if r is not None:
        return complex(real_fn(r))
    return complex_fn(z)


def exp(z):
    return _dispatch(z, math.exp, cmath.exp, mpmath.exp)


def log(z):
    return _dispatch(z, math.log, cmath.log, mpmath.log)


def sin(z):
    return _dispatch(z, math.sin, cmath.sin, mpmath.sin)


def cos(z):
    return _dispatch(z, math.cos, cmath.cos, mpmath.cos)


def sqrt(z):
    return _dispatch(z, math.sqrt, cmath.sqrt, mpmath.sqrt)


def atan(z):
    return _dispatch(z, math.atan, cmath.atan, mpmath.atan)


def real_part(z) -> float:
    if is_mp(z):
        return float(mpmath.re(z))
    return z.real if isinstance(z, np.ndarray) else complex(z).real


def imag_part(z) -> float:
    if is_mp(z):
        return float(mpmath.im(z))
    return z.imag if isinstance(z, np.ndarray) else complex(z).imag


def zero_like(z):
    """Additive identity in the carrier of `z`."""
    if is_mp(z):
        return mpmath.mpf(0)
    return np.zeros_like(z) if isinstance(z, np.ndarray) else 0j


def one_like(z):
    if is_mp(z):
        return mpmath.mpf(1)
    return np.ones_like(z) if isinstance(z, np.ndarray) else complex(1.0)


def powi(z, n: int):
    """Integer power by repeated multiplication (binary exponentiation).

    Shared by the real and jet evaluation paths so both produce identical
    rounding for integer exponents.
    """
    if n < 0:
        raise ValueError("powi expects a nonnegative exponent")
    result = None
    base = z
    while n:
        if n & 1:
            result = base if result is None else result * base
        n >>= 1
        if n:
            base = base * base
    if result is None:
        return one_like(z) if not isinstance(z, (int, float)) else 1.0
    return result
