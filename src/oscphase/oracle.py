"""Independent ground truth for the expansion engine.

Three oracles live here:

* oscillatory_quadrature -- direct adaptive Gauss-Legendre integration of
  g(x) e(f(x)), with panels sized so each carries at most half a unit of
  phase variation.  Deliberately free of any asymptotic machinery.  The
  integrand is evaluated in double-double so the result stays trustworthy
  at phase scales (T ~ 2^18) where plain float64 drowns in phase jitter.
  Each pass certifies itself from the nodes it already evaluated: a rule
  embedded in the 24 Gauss nodes (20 of them) gives the error estimate, in
  the manner of Gauss-Kronrod pairs, and panels are halved only when that
  estimate misses the tolerance.
* fd_derivatives -- central finite differences, the classic cross-check for
  the jet engine.
* numeric_reversion_oracle -- brute-force recovery of the varpi coefficients
  by solving the change of variables pointwise in mpmath and fitting a
  polynomial, bypassing all series algebra.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import mpmath
import numpy as np

from . import ddmath, ddnumba
from .coefficients import (SCAN_POINTS, PhaseProblem, bisect_fprime,
                           mp_refine_gamma, solve_x_of_y)
from .errors import OracleFitError, QuadratureNonConvergence
from .exprs import Expr, eval_array, eval_dd, eval_real
from .expansion import hypothesis_audit

_PHASE_PER_PANEL = 0.45  # units of f (turns); contract cap is 1/2
_MAX_WIDTH_FRACTION = 1 / 16  # panels also stay narrow so g is resolved
_CHUNK_NODES = 1 << 14  # one chunk's dd temporaries stay resident in a 2 MB L2
_SMOOTH_DECAY = 1e-3  # null-value ratio that marks a panel resolved


@dataclass(frozen=True)
class QuadratureSettings:
    """Adaptive-quadrature knobs.

    tol bounds the embedded-rule certificate of each pass: |Q - Q~|, the
    absolute difference between the Gauss-Legendre sum Q and the sum Q~ of
    the rule embedded in the same nodes, plus a coarse-rule term on panels
    that rule does not resolve (see oscillatory_quadrature_detail).  Values
    much below 1e-14 are generally unattainable and end in
    QuadratureNonConvergence.
    """

    tol: float = 1e-12
    max_panels: int = 4_000_000
    nodes_per_panel: int = 24

    def __post_init__(self):
        if self.tol <= 0:
            raise ValueError("tol must be positive")
        if self.nodes_per_panel < 8:
            raise ValueError("nodes_per_panel must be at least 8")
        if self.max_panels < 8:
            raise ValueError("max_panels must be at least 8")


def _piece_breakpoints(p: PhaseProblem, a: float, b: float) -> np.ndarray:
    """Panel edges on a monotone-phase piece: equal phase increments."""
    fa = p.f_value(a)
    fb = p.f_value(b)
    total = abs(fb - fa)
    n_panels = max(1, int(math.ceil(total / _PHASE_PER_PANEL)))
    max_width = (p.beta - p.alpha) * _MAX_WIDTH_FRACTION
    n_panels = max(n_panels, int(math.ceil((b - a) / max_width)))
    if n_panels == 1:
        return np.array([a, b])
    k = max(257, min(4 * n_panels + 1, 4_000_000))
    xs = np.linspace(a, b, k)
    cum = np.abs(eval_array(p.f, xs, p.bindings) - fa)
    cum = np.maximum.accumulate(cum)  # guard tiny non-monotonicity
    levels = np.linspace(0.0, cum[-1], n_panels + 1)
    edges = np.interp(levels, cum, xs)
    edges[0], edges[-1] = a, b
    edges = np.unique(edges)
    # Enforce the width cap (phase-flat stretches can make wide panels).
    widths = np.diff(edges)
    if np.any(widths > max_width):
        pieces = [np.array([edges[0]])]
        for left, right, w in zip(edges[:-1], edges[1:], widths):
            m = int(math.ceil(w / max_width))
            pieces.append(np.linspace(left, right, m + 1)[1:])
        edges = np.concatenate(pieces)
    return edges


def build_breakpoints(p: PhaseProblem,
                      scan_points: int = SCAN_POINTS) -> np.ndarray:
    """Initial panel edges: split at f' sign changes, then by phase."""
    roots = [bisect_fprime(p, *bracket, steps=60)
             for bracket in p.sample(scan_points).sign_changes()]
    cuts = [p.alpha] + roots + [p.beta]
    parts = []
    for a, b in zip(cuts[:-1], cuts[1:]):
        if b <= a:
            continue
        edges = _piece_breakpoints(p, a, b)
        parts.append(edges if not parts else edges[1:])
    return np.concatenate(parts)


def _require_finite(*values) -> None:
    if not all(np.all(np.isfinite(v)) for v in values):
        raise QuadratureNonConvergence(
            "integrand produced non-finite values (domain violation?)")


def _unresolved_excess(d: ddmath.DD, c: np.ndarray) -> float:
    """Sum of the coarse null values |c| over the panels whose embedded null
    value |d| is not below _SMOOTH_DECAY of it.

    d (dd) and c (float64) hold per-panel null sums, real and imaginary
    parts on a leading axis of length 2: d = q - q~ against the embedded
    rule, c = q - q^ against the coarse rule.  On a smooth panel the null
    values fall by orders of magnitude from degree 11 to degree 19; where
    they do not (a kink or an endpoint singularity inside the panel), the
    Gauss and embedded rules share most nodes, and |d| can sit far below
    the error of q.
    """
    n1 = np.hypot(*ddmath.to_float(d))
    n2 = np.hypot(*c)
    return float(n2[n1 > _SMOOTH_DECAY * n2].sum())


def _panels_dd(p: PhaseProblem, edges: np.ndarray, order: int,
               embedded: bool = False):
    """Integrate over the given panels; returns (re, im) as dd scalars.

    With embedded=True, returns ((re, im), (d_re, d_im), excess): the
    Gauss-Legendre sums, their difference from the sums of the rule
    embedded in the same nodes (ddmath.embedded_null_weights) and the
    coarse null excess of the panels that rule does not resolve
    (_unresolved_excess).
    """
    (xi_hi, xi_lo), (w_hi, w_lo) = ddmath.gauss_legendre_dd(order)
    param_names = tuple(sorted(p.bindings))
    kernel = None
    try:
        kernel = ddnumba.get_kernel(p.f, p.g, param_names)
    except Exception:
        kernel = None  # any codegen hiccup falls back to the numpy path
    if kernel is None:
        return _panels_dd_numpy(p, edges, order, embedded)
    d_hi, d_lo = ddmath.embedded_null_weights(order)
    pv = np.array([float(p.bindings[name]) for name in param_names])
    parts = kernel(edges, xi_hi, xi_lo, w_hi, w_lo, d_hi, d_lo,
                   ddmath.coarse_null_weights(order), pv,
                   ddmath.TAB_SIN_HI, ddmath.TAB_SIN_LO,
                   ddmath.TAB_COS_HI, ddmath.TAB_COS_LO)
    _require_finite(parts[0], parts[2])
    re, im, d_re, d_im = (ddmath.sum_pairwise((parts[k], parts[k + 1]))
                          for k in range(0, 8, 2))
    if not embedded:
        return re, im
    d = (np.stack(parts[4:8:2]), np.stack(parts[5:8:2]))
    return (re, im), (d_re, d_im), _unresolved_excess(d, np.stack(parts[8:]))


@np.errstate(invalid="ignore", divide="ignore", over="ignore")
def _panels_dd_numpy(p: PhaseProblem, edges: np.ndarray, order: int,
                     embedded: bool = False):
    """Pure-numpy dd panel integration (reference / fallback path).

    Real and imaginary parts travel stacked on a leading axis of length 2.
    Non-finite phases or sums raise QuadratureNonConvergence instead of
    numpy's warnings.
    """
    (xi_hi, xi_lo), (w_hi, w_lo) = ddmath.gauss_legendre_dd(order)
    if embedded:
        d_w = ddmath.embedded_null_weights(order)
        c_w = ddmath.coarse_null_weights(order)
    bindings = p.bindings
    n_panels = len(edges) - 1
    chunk = max(1, _CHUNK_NODES // order)
    sums = []  # per chunk: the dd sums of re and im
    d_panels = []  # per chunk, if embedded: the panels' (d_re, d_im)
    excess = 0.0
    for start in range(0, n_panels, chunk):
        stop = min(start + chunk, n_panels)
        a = edges[start:stop]
        b = edges[start + 1:stop + 1]
        mid = ddmath.mul(ddmath.add(ddmath.from_float(a), ddmath.from_float(b)),
                         ddmath.from_float(0.5))
        half = ddmath.mul(ddmath.sub(ddmath.from_float(b), ddmath.from_float(a)),
                          ddmath.from_float(0.5))
        mid2 = (mid[0][:, None], mid[1][:, None])
        half2 = (half[0][:, None], half[1][:, None])
        x = ddmath.add(mid2, ddmath.mul(half2, (xi_hi, xi_lo)))
        f = eval_dd(p.f, x, bindings)
        _require_finite(f[0])
        e_re, e_im = ddmath.e_unit_dd(f)
        e = (np.stack((e_re[0], e_im[0])), np.stack((e_re[1], e_im[1])))
        gw = ddmath.mul(eval_dd(p.g, x, bindings), (w_hi, w_lo))
        node = ddmath.mul(gw, e)
        q = ddmath.mul(ddmath.sum_nodes(node), half)
        sums.append([ddmath.sum_pairwise((q[0][k], q[1][k])) for k in (0, 1)])
        if embedded:
            d = ddmath.mul(ddmath.sum_nodes(ddmath.mul(node, d_w)), half)
            d_panels.append(d)
            excess += _unresolved_excess(d, (node[0] * c_w).sum(axis=-1) * half[0])
    re, im = (ddmath.sum_pairwise((np.array([s[k][0] for s in sums]),
                                   np.array([s[k][1] for s in sums])))
              for k in (0, 1))
    _require_finite(re[0], im[0])
    if not embedded:
        return re, im
    d_hi = np.concatenate([d[0] for d in d_panels], axis=1)
    d_lo = np.concatenate([d[1] for d in d_panels], axis=1)
    d_re, d_im = (ddmath.sum_pairwise((d_hi[k], d_lo[k])) for k in (0, 1))
    return (re, im), (d_re, d_im), excess


def _double_edges(edges: np.ndarray) -> np.ndarray:
    mids = 0.5 * (edges[:-1] + edges[1:])
    out = np.empty(2 * len(edges) - 1)
    out[0::2] = edges
    out[1::2] = mids
    return out


@dataclass(frozen=True)
class QuadratureResult:
    value: complex
    re_dd: tuple
    im_dd: tuple
    panels: int
    doublings: int
    diff: float = math.nan  # the certificate of the returned pass, < tol

    def mp_value(self) -> mpmath.mpc:
        return (mpmath.mpf(float(self.re_dd[0])) + mpmath.mpf(float(self.re_dd[1]))
                + 1j * (mpmath.mpf(float(self.im_dd[0])) + mpmath.mpf(float(self.im_dd[1]))))


def oscillatory_quadrature_detail(p: PhaseProblem,
                                  settings: QuadratureSettings | None = None,
                                  scan_points: int = SCAN_POINTS) -> QuadratureResult:
    """Full-detail quadrature result (dd parts exposed for the studies).

    Starts on the phase-split panels halved once.  Each pass is certified
    without further integrand evaluations: diff = |Q - Q~|, the dd
    difference between the Gauss-Legendre sum Q and the sum Q~ of the rule
    embedded in the same nodes (ddmath.embedded_null_weights), plus the
    coarse null values of the panels where the two null rules do not decay
    like a smooth integrand's (_unresolved_excess).  The panels are halved
    until diff < tol; Q is returned.
    """
    settings = settings or QuadratureSettings()
    edges = _double_edges(build_breakpoints(p, scan_points))
    doublings = 1
    best_diff = None
    stagnant = 0
    while True:
        if len(edges) - 1 > settings.max_panels:
            raise QuadratureNonConvergence(
                f"needed more than max_panels = {settings.max_panels} panels "
                f"to reach tol = {settings.tol:g}")
        (re_dd, im_dd), (d_re, d_im), excess = _panels_dd(
            p, edges, settings.nodes_per_panel, embedded=True)
        value = complex(ddmath.to_float(re_dd), ddmath.to_float(im_dd))
        # The difference is summed in dd; the collapsed doubles of the two
        # rules would agree long before fine tolerances are certified.
        diff = float(np.hypot(ddmath.to_float(d_re), ddmath.to_float(d_im))) + excess
        floor = 1e-28 * max(1.0, abs(value))
        if settings.tol < floor:
            raise QuadratureNonConvergence(
                f"tol = {settings.tol:g} is below the attainable "
                f"certification floor {floor:.1e}")
        if diff < settings.tol:
            return QuadratureResult(value=value, re_dd=re_dd, im_dd=im_dd,
                                    panels=len(edges) - 1,
                                    doublings=doublings, diff=diff)
        # Against the smallest diff so far: a certificate that alternates
        # (a pole inside the interval) must not reset the count.
        if best_diff is not None and diff >= 0.5 * best_diff:
            stagnant += 1
            if stagnant >= 2:
                raise QuadratureNonConvergence(
                    f"panel doubling stagnated at diff = {diff:.3e} "
                    f"(tol = {settings.tol:g} unattainable)")
        else:
            stagnant = 0
        best_diff = diff if best_diff is None else min(best_diff, diff)
        edges = _double_edges(edges)
        doublings += 1


def oscillatory_quadrature(p: PhaseProblem,
                           settings: QuadratureSettings | None = None) -> complex:
    """Converged value of the integral of g(x) e(f(x)) over [alpha, beta]."""
    return oscillatory_quadrature_detail(p, settings).value


# --- finite differences ------------------------------------------------------

# central stencils as (offset -> coefficient, order of accuracy)
_FD_STENCILS = {
    1: ({-2: 1 / 12, -1: -8 / 12, 1: 8 / 12, 2: -1 / 12}, 4),
    2: ({-2: -1 / 12, -1: 16 / 12, 0: -30 / 12, 1: 16 / 12, 2: -1 / 12}, 4),
    3: ({-3: 1 / 8, -2: -1.0, -1: 13 / 8, 1: -13 / 8, 2: 1.0, 3: -1 / 8}, 4),
    4: ({-3: -1 / 6, -2: 2.0, -1: -13 / 2, 0: 28 / 3, 1: -13 / 2, 2: 2.0,
         3: -1 / 6}, 4),
    5: ({-3: -0.5, -2: 2.0, -1: -2.5, 1: 2.5, 2: -2.0, 3: 0.5}, 2),
    6: ({-3: 1.0, -2: -6.0, -1: 15.0, 0: -20.0, 1: 15.0, 2: -6.0, 3: 1.0}, 2),
}

_EPS = float(np.finfo(np.float64).eps)


def fd_derivatives(e: Expr, x0: float, order: int, h: float | None = None,
                   params: dict | None = None) -> list[float]:
    """Central-difference estimates of derivatives 1..order at x0.

    Fourth-order-accurate stencils for k <= 4, second-order above.  With h
    omitted, each order k uses the balanced step eps^(1/(k+acc)) * max(1,
    |x0|); accuracy then runs from ~1e-12 (k = 1) to ~1e-8 (k = 4), fading
    gracefully for k = 5, 6.
    """
    if order > 6 or order < 1:
        raise ValueError("fd_derivatives supports orders 1..6")
    out = []
    for k in range(1, order + 1):
        stencil, accuracy = _FD_STENCILS[k]
        hk = (h if h is not None
              else _EPS ** (1.0 / (k + accuracy)) * max(1.0, abs(x0)))
        acc = 0.0
        for offset, coeff in sorted(stencil.items()):
            acc += coeff * eval_real(e, x0 + offset * hk, params)
        out.append(acc / hk ** k)
    return out


# --- numeric reversion oracle ------------------------------------------------

def numeric_reversion_oracle(p: PhaseProblem, gamma: float, order: int,
                             dps: int = 50) -> list[float]:
    """Recover varpi_0..varpi_order without any series algebra.

    Samples G(y) = g(x(y)) * 2*lam2*y / f'(x(y)) at Chebyshev nodes on
    [-r/8, r/8] (r from the hypothesis audit), solving x(y) pointwise by
    Newton, then least-squares fits a degree-(order+2) polynomial.  Runs in
    mpmath because the k-th coefficient of a fit on a radius-h interval is
    conditioned like h^(-k).
    """
    audit = hypothesis_audit(p)
    r = audit.r
    if not (r > 0) or not math.isfinite(r):
        raise OracleFitError("audit produced no usable substitution radius", float("inf"))
    with mpmath.workdps(dps):
        g_mp = mp_refine_gamma(p, gamma)
        fj = p.f_jet(g_mp, 2)
        f_gamma, lam2 = fj.coeffs[0], fj.coeffs[2]
        if lam2 <= 0:
            raise OracleFitError("numeric reversion needs lambda_2 > 0", float("inf"))
        h = mpmath.mpf(r) / 8
        degree = order + 2
        m = 2 * (degree + 1)
        us = [mpmath.cos(mpmath.pi * (2 * i - 1) / (2 * m)) for i in range(1, m + 1)]
        gs = []
        for u in us:
            y = h * u
            x = solve_x_of_y(p, g_mp, lam2, y, f_gamma=f_gamma)
            fpx = p.f_jet(x, 1).coeffs[1]
            gx = p.g_jet(x, 1).coeffs[0]
            gs.append(gx * 2 * lam2 * y / fpx)
        # Chebyshev-basis least squares via normal equations (cond ~ O(1)).
        basis = []
        for u in us:
            row = [mpmath.mpf(1), u]
            for j in range(2, degree + 1):
                row.append(2 * u * row[-1] - row[-2])
            basis.append(row)
        a_float = np.array([[float(v) for v in row] for row in basis])
        condition = float(np.linalg.cond(a_float))
        if condition > 1e10:
            raise OracleFitError("reversion fit is ill-conditioned", condition)
        ata = mpmath.matrix(degree + 1, degree + 1)
        atg = mpmath.matrix(degree + 1, 1)
        for i in range(m):
            for j in range(degree + 1):
                atg[j, 0] += basis[i][j] * gs[i]
                for l in range(degree + 1):
                    ata[j, l] += basis[i][j] * basis[i][l]
        coef = mpmath.lu_solve(ata, atg)
        # Chebyshev -> power basis in u, then rescale u = y/h.
        power = [[mpmath.mpf(0)] * (degree + 1) for _ in range(degree + 1)]
        power[0][0] = mpmath.mpf(1)
        if degree >= 1:
            power[1][1] = mpmath.mpf(1)
        for j in range(2, degree + 1):
            for k in range(j + 1):
                val = 2 * (power[j - 1][k - 1] if k >= 1 else 0) - power[j - 2][k]
                power[j][k] = val
        out = []
        for k in range(order + 1):
            acc = mpmath.mpf(0)
            for j in range(k, degree + 1):
                acc += coef[j, 0] * power[j][k]
            out.append(float(acc / h ** k))
    return out
