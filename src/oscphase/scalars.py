"""Scalar elementary functions over the three jet carriers: Python floats,
mpmath numbers, and float64 arrays (element by element).

Jet arithmetic only needs +, -, *, / (duck-typed), but `jet_map` must apply
exp/log/sin/... to the constant term.  Floats and arrays go through `math`,
so that a jet's constant coefficient is bit-identical to the plain real
evaluation of the same expression (numpy's exp and log differ from `math`
in the last ulp).  Every float jet is real; a Python complex is accepted
only with a zero imaginary part.
"""

from __future__ import annotations

import math
import operator

import mpmath
import numpy as np


def is_mp(value) -> bool:
    return isinstance(value, (mpmath.mpf, mpmath.mpc))


def _dispatch(z, real_fn, mp_fn):
    if is_mp(z):
        return mp_fn(z)
    if isinstance(z, np.ndarray):
        return np.array([real_fn(v) for v in z.tolist()])
    if isinstance(z, complex):
        if z.imag != 0.0:
            raise TypeError(f"{real_fn.__name__} of a non-real complex {z!r}")
        z = z.real
    return real_fn(float(z))


def exp(z):
    return _dispatch(z, math.exp, mpmath.exp)


def log(z):
    return _dispatch(z, math.log, mpmath.log)


def sin(z):
    return _dispatch(z, math.sin, mpmath.sin)


def cos(z):
    return _dispatch(z, math.cos, mpmath.cos)


def sqrt(z):
    return _dispatch(z, math.sqrt, mpmath.sqrt)


def atan(z):
    return _dispatch(z, math.atan, mpmath.atan)


def zero_like(z):
    """Additive identity in the carrier of `z`."""
    if is_mp(z):
        return mpmath.mpf(0)
    return np.zeros_like(z) if isinstance(z, np.ndarray) else 0.0


def one_like(z):
    if is_mp(z):
        return mpmath.mpf(1)
    return np.ones_like(z) if isinstance(z, np.ndarray) else 1.0


def powi(z, n: int, mul=operator.mul):
    """Integer power by repeated multiplication (binary exponentiation).

    The float and float64-array evaluation of an integer power, and with
    the product mul that of any other carrier (exprs.eval_disk's disks);
    the jet path uses jets.jet_powi, which multiplies in the same order.
    """
    if n < 0:
        raise ValueError("powi expects a nonnegative exponent")
    result = None
    base = z
    while n:
        if n & 1:
            result = base if result is None else mul(result, base)
        n >>= 1
        if n:
            base = mul(base, base)
    return one_like(z) if result is None else result
