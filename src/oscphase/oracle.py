"""Independent ground truth for the expansion engine.

Three oracles live here:

* oscillatory_quadrature -- direct adaptive Gauss-Legendre integration of
  g(x) e(f(x)), starting on panels of equal phase increments: the widest
  of a fixed ladder of widths, 0.9 to 6.3 turns, whose predicted
  certificate fits tol (the default 1e-12 starts the criterion families on
  3.6 turns, 1e-26 on 1.8).  Deliberately free of any asymptotic
  machinery.  The integrand is evaluated in double-double so the result
  stays trustworthy at phase scales (T ~ 2^18) where plain float64 drowns
  in phase jitter.  Each pass certifies each panel without evaluating
  anything more in dd, by one formula from disk enclosures of f and g
  (exprs.eval_disk): the lesser of the Bernstein-ellipse bound on the
  24-node rule's error (Trefethen, Approximation Theory and Approximation
  Practice, Thm 19.3), finite where f and g are analytic on a disk about
  the panel, and the mass bound 4 * half * sup|g| on the real panel, which
  holds whatever the smoothness: it shrinks with the panel at a kink or a
  bounded endpoint singularity, and is inf at a pole or a jump.  A bound on
  the float64 rounding of any transcendental function in f or g is added.
  When the certificates miss the tolerance, only the panels with the
  largest ones are halved (QUADPACK's QAG), and the next pass evaluates
  only their halves.  Every pass runs in the calling process.
* fd_derivatives -- central finite differences, the classic cross-check for
  the jet engine.
* numeric_reversion_oracle -- brute-force recovery of the varpi coefficients
  by solving the change of variables pointwise in mpmath and fitting a
  polynomial, bypassing all series algebra.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar, NamedTuple

import mpmath
import numpy as np

from . import ddmath
from .coefficients import (PhaseProblem, bisect_fprime, mp_refine_gamma,
                           solve_x_of_y)
from .errors import ExprDomainError, OracleFitError, QuadratureNonConvergence
from .exprs import (Expr, eval_array, eval_dd, eval_dd_error, eval_disk,
                    eval_real)
from .expansion import hypothesis_audit

# Units of f (turns) per panel of the narrowest start: on 0.9 turns the
# 24-node rule stays at the dd floor.  A wider start (_START_TURNS) halves
# the phase of the panel next to a stationary point, where f is quadratic.
_PHASE_PER_PANEL = 0.9
# The start widths tried, in turns; _start_turns takes the widest that fits.
_START_TURNS = (0.9, 1.8, 2.4, 3.0, 3.6, 4.5, 5.4, 6.3)
_MAX_WIDTH_FRACTION = 1 / 16  # panels also stay narrow so g is resolved
_CHUNK_NODES = 1 << 14  # one chunk's dd temporaries stay resident in a 2 MB L2
# Gauss-Legendre nodes per panel; _GAUSS_FACTOR below is for this rule.
_NODES_PER_PANEL = 24
_CHUNK_PANELS = _CHUNK_NODES // _NODES_PER_PANEL
_MAX_PANELS = 4_000_000
# The Bernstein ellipses E_rho tried on each panel, and the factor
# 64 / (15 (rho^2 - 1) rho^(2n)) of Trefethen's Thm 19.3 for n + 1 = 24
# nodes.  E_rho of [-1, 1] lies in the disk of radius (rho + 1/rho)/2.
_RHOS = np.geomspace(1.5, 20.0, 9)[:, None]
_GAUSS_FACTOR = 64 / (15 * (_RHOS ** 2 - 1) * _RHOS ** (2 * _NODES_PER_PANEL - 2))
_SEMI_AXIS = (_RHOS + 1 / _RHOS) / 2
# A panel's floor for the dd rounding of its nodes, times half * max|g|.
_DD_FLOOR = 2.0 ** -96


@dataclass(frozen=True)
class QuadratureSettings:
    """The oracle's one setting, tol; the rule (nodes_per_panel) is fixed.

    tol bounds the certificate of the result (see
    oscillatory_quadrature_detail).  With polynomial and rational f and g
    it can go down to about 1e-26; a tol below 1e-28 * |value|, or not above
    the float64 rounding of a transcendental f or g (about 3e-13 for
    T*(x + sin(x)/10) at T = 1000), ends in QuadratureNonConvergence.  tol
    also sets the start: the widest panels of _START_TURNS whose
    linear-phase ellipse bound fits tol/40 where g is smooth on the scan
    grid (3.6 turns at the default tol on the criterion families, 1.8 at
    1e-26), else 0.9-turn panels (see build_breakpoints).
    """

    tol: float = 1e-12
    nodes_per_panel: ClassVar[int] = _NODES_PER_PANEL

    def __post_init__(self):
        if not 0 < self.tol < math.inf:  # also NaN
            raise ValueError("tol must be positive and finite")


def _drop_repeats(edges: np.ndarray) -> np.ndarray:
    """np.unique of non-decreasing edges, without its sort (and without the
    numpy.ma import that a process's first np.unique costs)."""
    return edges[np.concatenate(([True], edges[1:] != edges[:-1]))]


def _piece_breakpoints(p: PhaseProblem, a: float, b: float,
                       turns: float) -> np.ndarray:
    """Panel edges on a monotone-phase piece: equal phase increments of at
    most turns.  Where these carry more than _PHASE_PER_PANEL, the panel
    next to a root of f' (an end of the piece other than alpha or beta),
    where f is quadratic, is halved in phase.

    A phase change that is not finite, or that needs more than _MAX_PANELS
    panels, raises QuadratureNonConvergence before anything is allocated.
    """
    fa = p.f_value(a)
    fb = p.f_value(b)
    total = abs(fb - fa)
    if not total <= _MAX_PANELS * turns:  # also inf and nan
        raise QuadratureNonConvergence(
            f"phase change of {total:.3g} turns over [{a!r}, {b!r}] is not "
            f"finite or needs more than max_panels = {_MAX_PANELS} panels")
    n_panels = max(1, int(math.ceil(total / turns)))
    max_width = (p.beta - p.alpha) * _MAX_WIDTH_FRACTION
    n_panels = max(n_panels, int(math.ceil((b - a) / max_width)))
    wide = turns > _PHASE_PER_PANEL and total > _PHASE_PER_PANEL * n_panels
    halve = [i for i, at_root in ((1, a > p.alpha), (n_panels, b < p.beta))
             if wide and at_root]
    if n_panels == 1 and not halve:
        return np.array([a, b])
    k = max(257, min(4 * n_panels + 1, 4_000_000))
    xs = np.linspace(a, b, k)
    cum = np.abs(eval_array(p.f, xs, p.bindings) - fa)
    cum = np.maximum.accumulate(cum)  # guard tiny non-monotonicity
    levels = np.linspace(0.0, cum[-1], n_panels + 1)
    # A lone panel between two roots is halved once: its two halves meet.
    levels = np.insert(levels, halve,
                       [0.5 * (levels[i - 1] + levels[i]) for i in halve])
    edges = np.interp(levels, cum, xs)
    edges[0], edges[-1] = a, b
    edges = _drop_repeats(edges)
    # Enforce the width cap (phase-flat stretches can make wide panels).
    widths = np.diff(edges)
    if np.any(widths > max_width):
        pieces = [np.array([edges[0]])]
        for left, right, w in zip(edges[:-1], edges[1:], widths):
            m = int(math.ceil(w / max_width))
            pieces.append(np.linspace(left, right, m + 1)[1:])
        edges = np.concatenate(pieces)
    return edges


def _linear_bound(turns: np.ndarray) -> np.ndarray:
    """The ellipse bound (_ellipse_bound) of a panel on [-1, 1] with g = 1
    and a phase that rises linearly by turns: on the disk of radius s,
    |Im f| <= turns * s / 2."""
    return np.min(_GAUSS_FACTOR * np.exp(np.pi * _SEMI_AXIS * turns), axis=0)


def _start_turns(p: PhaseProblem, tol: float | None) -> float:
    """Turns per start panel: the widest of _START_TURNS where
    (beta - alpha)/2 * max|g| * _linear_bound(1.3 * turns) <= tol/40 (max|g|
    on the scan grid; the disk enclosures lose the cancellation between
    terms, hence the 1.3).  Else _PHASE_PER_PANEL, as for tol None and for a
    g with a kink, pole or jump on the grid, one whose grid walk raises and
    one not finite there."""
    if tol is None:
        return _PHASE_PER_PANEL
    sample = p.sample()
    try:
        g_max = float(np.max(np.abs(sample.g[0])))
    except ExprDomainError:  # as for sqrt(x - 1) at x = 1
        return _PHASE_PER_PANEL
    if sample.breaks["g"] or not math.isfinite(g_max):
        return _PHASE_PER_PANEL
    turns = np.array(_START_TURNS)
    fits = (p.beta - p.alpha) / 2 * g_max * _linear_bound(1.3 * turns) <= tol / 40
    return float(turns[fits].max(initial=_PHASE_PER_PANEL))


def build_breakpoints(p: PhaseProblem, tol: float | None = None) -> np.ndarray:
    """Initial panel edges: split at f' sign changes, then by phase, on
    panels of _start_turns(p, tol) turns: 0.9 for tol None (see
    _piece_breakpoints for the phase changes it refuses)."""
    roots = [bisect_fprime(p, *bracket, steps=60)
             for bracket in p.sample().sign_changes()]
    turns = _start_turns(p, tol)
    cuts = [p.alpha] + roots + [p.beta]
    parts = []
    for a, b in zip(cuts[:-1], cuts[1:]):
        if b <= a:
            continue
        edges = _piece_breakpoints(p, a, b, turns)
        parts.append(edges if not parts else edges[1:])
    return np.concatenate(parts)


def _require_finite(*values) -> None:
    if not all(np.all(np.isfinite(v)) for v in values):
        raise QuadratureNonConvergence(
            "integrand produced non-finite values (domain violation?)")


def _ellipse_bound(p: PhaseProblem, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Per panel [a, b], a bound on the error of its 24-node Gauss sum: the
    least over _RHOS of half * _GAUSS_FACTOR * max|g e(f)| on the disk of
    radius _SEMI_AXIS * half about the midpoint, which holds the panel's
    Bernstein ellipse E_rho.  With the disks (c_f, r_f) and (c_g, r_g) of
    eval_disk, |g e(f)| <= (|c_g| + r_g) exp(2 pi r_f) there, since c_f is
    real.  Not finite where a disk may hold a singular point of f or g."""
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    radius = _SEMI_AXIS * half
    radius = radius + 2.0 ** -50 * (np.abs(mid) + radius)  # mid and half round
    _, r_f = eval_disk(p.f, mid, radius, p.bindings)
    c_g, r_g = eval_disk(p.g, mid, radius, p.bindings)
    with np.errstate(over="ignore", invalid="ignore"):
        bounds = _GAUSS_FACTOR * half * (np.abs(c_g) + r_g) * np.exp(2 * np.pi * r_f)
    return np.min(bounds, axis=0)


def _mass_bound(p: PhaseProblem, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Per panel [a, b], a bound on the error of its 24-node Gauss sum,
    whatever the smoothness: the integral and the sum (weights adding up to
    2) are each at most 2 * half * S in size, where S = |c_g| + r_g bounds
    |g| on the real panel (eval_disk with real=True); inf at a pole."""
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    radius = half + 2.0 ** -50 * (np.abs(mid) + half)  # mid and half round
    c_g, r_g = eval_disk(p.g, mid, radius, p.bindings, real=True)
    return 4 * half * (np.abs(c_g) + r_g)


def _rounding_noise(g: ddmath.DD, f_err, g_err, w: np.ndarray,
                    half: np.ndarray) -> np.ndarray:
    """Per panel, a bound on how far the float64 fallbacks of eval_dd move
    the Gauss sum: |e(f + df) - e(f)| <= 2 pi |df| at each node, so the sum
    moves by at most half * sum_j w_j (2 pi |g_j| df_j + dg_j).  The panel
    certificates bound the error of the sum of exact node values, so
    neither of them sees this."""
    if f_err is None and g_err is None:
        return np.zeros(len(half))
    spread = 0.0 if f_err is None else 2 * math.pi * np.abs(g[0]) * f_err
    if g_err is not None:
        spread = spread + g_err
    return np.broadcast_to(spread * w, (len(half), len(w))).sum(axis=-1) * half


class _PanelSums(NamedTuple):
    """Per-panel results of a pass, one column per panel in edge order (real
    and imaginary parts on a leading axis of length 2 where present): the
    dd Gauss-Legendre sums q, each panel's certificate (the lesser of
    _ellipse_bound and _mass_bound, plus its dd floor), and the bound on the
    float64 rounding of the transcendental functions in f and g
    (_rounding_noise).  The certificates and the rounding bounds add up over
    panels."""

    q_hi: np.ndarray
    q_lo: np.ndarray
    cert: np.ndarray
    noise: np.ndarray

    @classmethod
    def join(cls, runs) -> _PanelSums:
        """The results of consecutive runs of panels, as one."""
        return cls(*(np.concatenate(column, axis=-1) for column in zip(*runs)))


@np.errstate(invalid="ignore", divide="ignore", over="ignore")
def _chunk_results(p: PhaseProblem, a: np.ndarray, b: np.ndarray) -> _PanelSums:
    """The _PanelSums of the panels [a[i], b[i]] of one chunk.  A non-finite
    phase raises QuadratureNonConvergence."""
    (xi_hi, xi_lo), (w_hi, w_lo) = ddmath.gauss_legendre_dd(_NODES_PER_PANEL)
    left = ddmath.from_float(a)
    right = ddmath.from_float(b)
    mid = ddmath.mul(ddmath.add(left, right), ddmath.from_float(0.5))
    half = ddmath.mul(ddmath.sub(right, left), ddmath.from_float(0.5))
    mid2 = (mid[0][:, None], mid[1][:, None])
    half2 = (half[0][:, None], half[1][:, None])
    x = ddmath.add(mid2, ddmath.mul(half2, (xi_hi, xi_lo)))
    f = eval_dd(p.f, x, p.bindings)
    _require_finite(f[0])
    e_re, e_im = ddmath.e_unit_dd(f)
    e = (np.stack((e_re[0], e_im[0])), np.stack((e_re[1], e_im[1])))
    g = eval_dd(p.g, x, p.bindings)
    node = ddmath.mul(ddmath.mul(g, (w_hi, w_lo)), e)
    q = ddmath.mul(ddmath.sum_nodes(node), half)
    g_max = np.broadcast_to(np.abs(g[0]), x[0].shape).max(axis=-1)
    # fmin: the ellipse bound is nan where g = 0 and f's disks are unbounded.
    cert = (np.fmin(_ellipse_bound(p, a, b), _mass_bound(p, a, b))
            + _DD_FLOOR * half[0] * g_max)
    noise = _rounding_noise(g, eval_dd_error(p.f, x, p.bindings),
                            eval_dd_error(p.g, x, p.bindings), w_hi, half[0])
    return _PanelSums(*q, cert, noise)


def _panels_dd_numpy(p: PhaseProblem, edges: np.ndarray,
                     panels: np.ndarray | None = None) -> _PanelSums:
    """The _PanelSums of the panels between edges, or of only those that the
    boolean mask panels selects, in dd and in chunks of _CHUNK_NODES nodes
    (_chunk_results).  Each panel's numbers depend on its two edges alone.
    A non-finite phase raises QuadratureNonConvergence.
    """
    a, b = edges[:-1], edges[1:]
    if panels is not None:
        a, b = a[panels], b[panels]
    return _PanelSums.join(
        _chunk_results(p, a[lo:lo + _CHUNK_PANELS], b[lo:lo + _CHUNK_PANELS])
        for lo in range(0, len(a), _CHUNK_PANELS))


@np.errstate(invalid="ignore", over="ignore")
def _pairwise(hi: np.ndarray, lo: np.ndarray) -> tuple:
    """The (re, im) dd totals of per-panel dd sums, each one
    ddmath.sum_pairwise over the panels in edge order."""
    return tuple(ddmath.sum_pairwise((hi[k], lo[k])) for k in (0, 1))


def _refined(sums: _PanelSums, bisected: np.ndarray, children: np.ndarray,
             fresh: _PanelSums) -> _PanelSums:
    """sums with each bisected panel's column replaced by the two columns of
    fresh that the mask children selects on the refined edges."""
    def column(old, new):
        out = np.empty(old.shape[:-1] + children.shape, dtype=old.dtype)
        out[..., ~children] = old[..., ~bisected]
        out[..., children] = new
        return out
    return _PanelSums(*map(column, sums, fresh))


def _worst_panels(sums: _PanelSums, budget: float) -> np.ndarray:
    """Mask of the fewest panels, taken by decreasing certificate, without
    which the other panels' certificates sum to within budget: at least
    one."""
    order = np.argsort(-sums.cert, kind="stable")
    tail = np.cumsum(sums.cert[order[::-1]])[::-1]
    rest = np.append(tail[1:], 0.0)
    missing = np.zeros(len(order), dtype=bool)
    missing[order[:np.argmax(rest <= budget) + 1]] = True
    return missing


def _bisect_edges(edges: np.ndarray, panels: np.ndarray | None = None) -> np.ndarray:
    """The edges with the midpoint 0.5*(a+b) added inside each panel that
    the boolean mask panels selects, or inside every panel if it is None.
    A selected panel with no float strictly inside it raises
    QuadratureNonConvergence."""
    mids = 0.5 * (edges[:-1] + edges[1:])
    at = np.arange(len(mids)) if panels is None else np.flatnonzero(panels)
    inside = (edges[at] < mids[at]) & (mids[at] < edges[at + 1])
    if not inside.all():
        x = edges[at[~inside][0]].item()
        raise QuadratureNonConvergence(
            f"the panel at x = {x!r} is too narrow to halve")
    return np.insert(edges, at + 1, mids[at])


@dataclass(frozen=True)
class QuadratureResult:
    """The oracle's value, in float and as dd parts, and how it was made:
    the final panels, the refinement passes after the first (0 if it
    certified), the integrand evaluations over all passes (nodes; a
    refinement pass evaluates only the halves of the panels it bisects, so
    this is not 24 times the panels) and the certificate diff < tol."""

    value: complex
    re_dd: tuple
    im_dd: tuple
    panels: int
    doublings: int
    nodes: int
    diff: float = math.nan

    def mp_value(self) -> mpmath.mpc:
        return (mpmath.mpf(float(self.re_dd[0])) + mpmath.mpf(float(self.re_dd[1]))
                + 1j * (mpmath.mpf(float(self.im_dd[0])) + mpmath.mpf(float(self.im_dd[1]))))


def oscillatory_quadrature_detail(
        p: PhaseProblem,
        settings: QuadratureSettings | None = None) -> QuadratureResult:
    """Full-detail quadrature result (dd parts exposed for the studies).

    Starts on the phase-split panels (build_breakpoints at tol).  Each pass is
    certified without further dd evaluations: diff = the sum of the panels'
    certificates, each the lesser of its ellipse bound (finite where f and
    g are analytic about the panel) and its mass bound (finite where g is
    bounded on it), plus a dd floor (_PanelSums), + the bound on the float64
    rounding of the transcendental functions in f and g (_rounding_noise).
    No refinement lowers the rounding, so a tol not above it raises.  While
    diff >= tol, the panels with the largest certificates are halved, as in
    QUADPACK's QAG: the fewest without which the other certificates sum to
    within half of what the rounding leaves of tol (_worst_panels).  The
    next pass evaluates only the two halves of each, and keeps the sums of
    every other panel.  Q, the certificates and the rounding bound are
    summed over all panels in edge order, so the result's bits depend only
    on its final panels.  Once diff < tol, Q is returned.  Three passes in
    a row with no new least sum of certificates (inf at a pole or a jump),
    or a panel too narrow to halve, raise QuadratureNonConvergence.
    """
    settings = settings or QuadratureSettings()
    edges = build_breakpoints(p, settings.tol)
    new = None  # the panels the next pass evaluates; None for all of them
    refinements = nodes = stagnant = 0
    best = None
    while True:
        n_panels = len(edges) - 1
        if n_panels > _MAX_PANELS:
            raise QuadratureNonConvergence(
                f"needed more than max_panels = {_MAX_PANELS} panels "
                f"to reach tol = {settings.tol:g}")
        fresh = _panels_dd_numpy(p, edges, new)
        nodes += len(fresh.cert) * _NODES_PER_PANEL
        sums = fresh if new is None else _refined(sums, missing, new, fresh)
        re_dd, im_dd = _pairwise(sums.q_hi, sums.q_lo)
        _require_finite(re_dd[0], im_dd[0])
        value = complex(ddmath.to_float(re_dd), ddmath.to_float(im_dd))
        rule = float(sums.cert.sum())
        noise = float(sums.noise.sum())
        diff = rule + noise
        floor = 1e-28 * max(1.0, abs(value))
        if settings.tol < floor:
            raise QuadratureNonConvergence(
                f"tol = {settings.tol:g} is below the attainable "
                f"certification floor {floor:.1e}")
        if not settings.tol > noise:  # also nan
            raise QuadratureNonConvergence(
                f"tol = {settings.tol:g} is below the float64 rounding of the "
                f"transcendental functions in f or g, which may move the "
                f"integral by {noise:.1e}")
        if diff < settings.tol:
            return QuadratureResult(value=value, re_dd=re_dd, im_dd=im_dd,
                                    panels=n_panels, doublings=refinements,
                                    nodes=nodes, diff=diff)
        # Against the least sum so far: one that alternates or stays inf (a
        # pole or a jump) must not reset the count.  Any fall resets it: the
        # mass bound of a kink's panel only halves per pass.
        if best is None or rule < best:
            best, stagnant = rule, 0
        else:
            stagnant += 1
            if stagnant == 3:
                raise QuadratureNonConvergence(
                    f"panel doubling stagnated at diff = {diff:.3e} "
                    f"(tol = {settings.tol:g} unattainable)")
        missing = _worst_panels(sums, 0.5 * (settings.tol - noise))
        edges = _bisect_edges(edges, missing)
        new = np.repeat(missing, missing + 1)
        refinements += 1


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
