"""Convergence studies: expansion vs oracle across a T grid.

The measured quantity |expansion - oracle| decays like a power of T and falls
many orders below double precision within a few octaves, so the expansion
side runs through the mpmath pipeline and the difference is taken against the
oracle's double-double value before any rounding to float64.  CSV output
still reports float64-rounded columns (17 significant digits round-trip).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import mpmath
import numpy as np

from .coefficients import PhaseProblem
from .errors import NoSignChange, OscPhaseError, QuadratureNonConvergence
from .expansion import first_derivative_test, stationary_phase_expand
from .oracle import (QuadratureResult, QuadratureSettings,
                     oscillatory_quadrature_detail)

STUDY_MP_DPS = 30
# Without settings, run_study asks the oracle at each T for this fraction of
# the smallest error_scale of that T's expansions, but for no less than
# STUDY_TOL_FLOOR, above the oracle's own floor of 1e-28 * |value|.  The
# errors run as low as 1e-6 of their error_scale (criterion 2, n = 3), and
# a certificate below a tenth of an error vouches for it.
STUDY_TOL_FRACTION = 1e-6
STUDY_TOL_FLOOR = 1e-26


@dataclass(frozen=True)
class StudyRow:
    T: float
    n: int
    expansion: complex
    oracle: complex
    abs_error: float
    error_scale: float
    theorem: str
    failed: bool = False
    quad: QuadratureResult | None = None  # the oracle pass of this T


def parse_grid(spec: str) -> list[float]:
    """Parse "Tmin:Tmax:factor" into the geometric grid it describes."""
    parts = spec.split(":")
    if len(parts) != 3:
        raise ValueError("grid spec must be Tmin:Tmax:factor")
    t_min, t_max, factor = (float(v) for v in parts)
    if not all(map(math.isfinite, (t_min, t_max, factor))):
        raise ValueError("grid spec requires finite Tmin, Tmax and factor")
    if t_min <= 0 or t_max < t_min or factor <= 1:
        raise ValueError("grid spec requires 0 < Tmin <= Tmax and factor > 1")
    out = []
    t = t_min
    while t <= t_max * (1 + 1e-12):
        out.append(t)
        t *= factor
    return out


def expand_auto(p: PhaseProblem, mp_dps: int | None = None):
    """Stationary-phase expansion, falling back to the first-derivative test
    when f' keeps one sign."""
    try:
        return stationary_phase_expand(p, mp_dps=mp_dps)
    except NoSignChange:
        return first_derivative_test(p, mp_dps=mp_dps)


def _oracle_tol(expansions: list, default: float) -> float:
    """The oracle tol for one T of a study without settings (see
    STUDY_TOL_FRACTION), or default if no expansion gave an error_scale."""
    scales = [res.error_scale for res in expansions
              if not isinstance(res, OscPhaseError)
              and math.isfinite(res.error_scale) and res.error_scale > 0]
    if not scales:
        return default
    return min(default, max(STUDY_TOL_FLOOR, STUDY_TOL_FRACTION * min(scales)))


def _oracle(p: PhaseProblem, tol: float, default: float) -> QuadratureResult:
    """The oracle at tol; at default instead if tol is finer and cannot be
    certified (a transcendental f or g rounds above it, say)."""
    try:
        return oscillatory_quadrature_detail(p, QuadratureSettings(tol=tol))
    except QuadratureNonConvergence:
        if tol >= default:
            raise
    return oscillatory_quadrature_detail(p, QuadratureSettings(tol=default))


def run_study(base: PhaseProblem, Ts: list[float], ns: list[int],
              settings: QuadratureSettings | None = None,
              mp_dps: int = STUDY_MP_DPS) -> list[StudyRow]:
    """One row per (T, n); the oracle value is shared across n for each T.
    Without settings the oracle's tol at each T follows that T's
    error_scales (_oracle_tol)."""
    rows = []
    for T in Ts:
        p_t = replace(base, T=float(T))
        expansions = []
        for n in ns:
            try:
                expansions.append(expand_auto(replace(p_t, n=int(n)), mp_dps=mp_dps))
            except OscPhaseError as exc:
                expansions.append(exc)
        oracle_res = None
        oracle_exc = None
        try:
            if settings is None:
                default = QuadratureSettings.tol
                oracle_res = _oracle(p_t, _oracle_tol(expansions, default), default)
            else:
                oracle_res = oscillatory_quadrature_detail(p_t, settings)
        except OscPhaseError as exc:
            oracle_exc = exc
        for n, res in zip(ns, expansions):
            if oracle_res is None:
                rows.append(StudyRow(T=float(T), n=int(n),
                                     expansion=complex(float("nan"), float("nan")),
                                     oracle=complex(float("nan"), float("nan")),
                                     abs_error=float("nan"),
                                     error_scale=float("nan"),
                                     theorem=f"oracle failed: {oracle_exc}",
                                     failed=True))
                continue
            if isinstance(res, OscPhaseError):
                rows.append(StudyRow(T=float(T), n=int(n),
                                     expansion=complex(float("nan"), float("nan")),
                                     oracle=oracle_res.value,
                                     abs_error=float("nan"),
                                     error_scale=float("nan"),
                                     theorem=f"expansion failed: {res}",
                                     failed=True, quad=oracle_res))
                continue
            with mpmath.workdps(max(mp_dps, 30)):
                diff = res.value - oracle_res.mp_value()
                abs_error = float(mpmath.fabs(diff))
                expansion_c = complex(res.value)
            rows.append(StudyRow(T=float(T), n=int(n), expansion=expansion_c,
                                 oracle=oracle_res.value, abs_error=abs_error,
                                 error_scale=res.error_scale,
                                 theorem=res.theorem, quad=oracle_res))
    return rows


def oracle_report(rows: list[StudyRow]) -> list[str]:
    """One line per T on the oracle pass: its panels, its integrand
    evaluations, its refinement passes and its certificate diff (or why it
    failed).  Then one line per row whose error is not at least 10 * diff:
    the oracle cannot certify it."""
    lines, last_T = [], None
    for r in rows:
        if r.T == last_T:
            continue
        last_T = r.T
        if r.quad is None:
            lines.append(f"T={r.T:.17g}: {r.theorem}")
        else:
            lines.append(f"T={r.T:.17g}: oracle panels={r.quad.panels} "
                         f"nodes={r.quad.nodes} refinements={r.quad.doublings} "
                         f"diff={r.quad.diff:.3e}")
    for r in rows:
        if r.quad is not None and r.abs_error < 10.0 * r.quad.diff:
            lines.append(f"T={r.T:.17g} n={r.n}: uncertified: abs_error "
                         f"{r.abs_error:.3e} < 10*diff = {10.0 * r.quad.diff:.3e}")
    return lines


def fitted_slopes(rows: list[StudyRow]) -> dict[int, float]:
    """Per-n least-squares slope of log2(abs_error) against log2(T)."""
    out: dict[int, float] = {}
    for n in sorted({r.n for r in rows}):
        pts = [(math.log2(r.T), math.log2(r.abs_error))
               for r in rows
               if r.n == n and not r.failed and r.abs_error > 0
               and math.isfinite(r.abs_error)]
        if len(pts) < 2:
            out[n] = float("nan")
            continue
        xs, ys = zip(*pts)
        out[n] = float(np.polyfit(xs, ys, 1)[0])
    return out


CSV_HEADER = "T,n,expansion_re,expansion_im,oracle_re,oracle_im,abs_error,error_scale"


def rows_to_csv(rows: list[StudyRow]) -> str:
    """CSV with the exact contract header; 17 significant digits throughout."""
    lines = [CSV_HEADER]
    for r in rows:
        lines.append(",".join([
            f"{r.T:.17g}", str(r.n),
            f"{r.expansion.real:.17g}", f"{r.expansion.imag:.17g}",
            f"{r.oracle.real:.17g}", f"{r.oracle.imag:.17g}",
            f"{r.abs_error:.17g}", f"{r.error_scale:.17g}",
        ]))
    return "\n".join(lines) + "\n"
