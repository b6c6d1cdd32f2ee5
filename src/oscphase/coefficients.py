"""Stationary-point location and the coefficient machinery.

Everything downstream of the change of variables f(x) - f(gamma) = lam2 * y^2
lives here: the Taylor data lam_k, eta_k at gamma, the forward series
y(x - gamma), its reversion x(y), dx/dy (rho_k), the weight-times-Jacobian
coefficients varpi_k, and the independent recursion route (mu_jk, eta'_m)
that the tests check them against.  A residual diagnostic Q(y) measures how
fast the truncated expansion of g(x) dx/dy approaches the real thing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Sequence

import mpmath
import numpy as np

from . import ddmath, scalars
from .errors import (ConfigError, DegenerateStationaryPoint, ExprDomainError,
                     MultipleSignChanges, NewtonError, NoSignChange,
                     StationaryAtEndpoint)
from .exprs import Expr, eval_dd, eval_jet, eval_real, parse, symbols
from .jets import (Jet, jet_compose, jet_differentiate, jet_map, jet_mul,
                   jet_revert, jet_truncate, jet_variable)

SCAN_POINTS = 512  # default scan grid density (PhaseProblem.scan_points)
NEWTON_STEPS = 60  # cap on the Newton polish of the stationary point
BISECT_DEPTH = 10  # bisection steps per grid walk of f' (2^10 + 1 points)


def grid_jet(e: Expr, xs: np.ndarray, degree: int, bindings: dict,
             breaks: list | None = None) -> tuple:
    """[k][i] = e^(k)(xs[i])/k! from one walk; overflow is silent, as in the
    scalar walk, which these equal bit for bit.  breaks: see eval_jet."""
    with np.errstate(all="ignore"):
        return eval_jet(e, jet_variable(xs, degree), bindings, breaks).coeffs


def grid_sup(values: np.ndarray) -> float:
    """max(0, values) skipping NaN, as a running max(...) does.  Rounding is
    monotone: the sup times positive constants is the sup of the products."""
    return float(np.fmax.reduce(values, initial=0.0))


class GridSample:
    """A problem's f (to degree 2n+3) and g (to 2n+1) on one scan grid, each
    walked on first use only, so a scan that reads f never evaluates g; plus
    the stationary point once located.  Each walk also notes in breaks the
    kinks, poles and jumps on the grid (eval_jet).  make_problem fills f in
    when it infers T, from the walk that reads f''."""

    def __init__(self, p: "PhaseProblem"):
        self.xs = np.linspace(p.alpha, p.beta, p.scan_points)
        self.gamma = None
        self.breaks = {"f": [], "g": []}
        # No reference to p, which holds this sample: a cycle would keep
        # every problem's arrays alive until the garbage collector runs.
        self._f, self._g = (p.f, 2 * p.n + 3), (p.g, 2 * p.n + 1)
        self._bindings = p.bindings

    @cached_property
    def f(self) -> tuple:
        return grid_jet(self._f[0], self.xs, self._f[1], self._bindings,
                        self.breaks["f"])

    @cached_property
    def g(self) -> tuple:
        return grid_jet(self._g[0], self.xs, self._g[1], self._bindings,
                        self.breaks["g"])

    def sign_changes(self) -> list[tuple[float, float, float]]:
        """(x_lo, x_hi, f'(x_lo)) for each sign change of f' between
        consecutive grid points where f' is nonzero."""
        d1 = self.f[1]
        signs = (d1 > 0).astype(np.int8) - (d1 < 0)
        nonzero = np.flatnonzero(signs)
        flip = signs[nonzero[1:]] != signs[nonzero[:-1]]
        return [(float(self.xs[i]), float(self.xs[j]), float(d1[i]))
                for i, j in zip(nonzero[:-1][flip], nonzero[1:][flip])]


def bisect_fprime(p: "PhaseProblem", lo: float, hi: float, flo: float,
                  steps: int) -> float:
    """Halve a bracketed sign change of f' `steps` times; returns the middle.

    One grid walk reads f' at all 2^depth - 1 midpoints of the next
    depth = min(steps left, BISECT_DEPTH) levels of the bisection tree, each
    formed as 0.5*(lo + hi) from its two ends exactly as a step-by-step loop
    forms it, and the steps then follow their path through the tree.  So the
    result is the float that `steps` scalar walks reach, with one walk per
    BISECT_DEPTH steps; where the grid meets a domain error off the path,
    the path is walked point by point.
    """
    while steps:
        depth = min(steps, BISECT_DEPTH)
        steps -= depth
        xs = np.empty(2 ** depth + 1)
        xs[0], xs[-1] = lo, hi
        for level in range(depth):
            span = 2 ** (depth - level)
            xs[span // 2::span] = 0.5 * (xs[:-1:span] + xs[span::span])
        try:
            fprime = grid_jet(p.f, xs, 1, p.bindings)[1]
        except ExprDomainError:  # perhaps off the path: walk it point by point
            fprime = None
        i, j = 0, 2 ** depth
        for _ in range(depth):
            m = (i + j) // 2
            fm = fprime[m] if fprime is not None else p.fprime(float(xs[m]))
            if fm == 0.0:
                return float(xs[m])
            if (fm > 0) == (flo > 0):
                i, flo = m, fm
            else:
                j = m
        lo, hi = float(xs[i]), float(xs[j])
    return 0.5 * (lo + hi)


def _point_key(x) -> tuple:
    """A held point's key: an mpf with the working precision, which sets the
    arithmetic of its jets, and a float with its sign (the variable jet at
    -0.0 is not the one at 0.0)."""
    if scalars.is_mp(x):
        return x, mpmath.mp.prec
    x = float(x)
    return x, math.copysign(1.0, x)


class _Held:
    """A point that PhaseProblem.hold_jets keeps: the degrees to walk f and
    g to, the two jets once walked, and f in double-double (floats only)."""

    __slots__ = ("x", "degrees", "jets", "dd")

    def __init__(self, x, f_degree: int, g_degree: int):
        self.x = x
        self.degrees = (f_degree, g_degree)
        self.jets = [None, None]
        self.dd = None


@dataclass(frozen=True)
class PhaseProblem:
    """One integral: f, g, the interval, and the size parameters M, N, T, U.

    n is the expansion order.  The error theory is certified for n >= 2;
    n = 1 is accepted and flagged by reports.  scan_points is the density of
    the one grid (sample) that every scan, gamma search, audit and panel
    split of the problem reads.
    """

    f: Expr
    g: Expr
    alpha: float
    beta: float
    n: int
    T: float
    M: float
    N: float = 1.0
    U: float = 1.0
    params: dict = field(default_factory=dict)
    scan_points: int = SCAN_POINTS
    _points: dict = field(default_factory=dict, init=False, repr=False,
                          compare=False)

    def __post_init__(self):
        for name in ("alpha", "beta"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        for name, value in self.params.items():
            if not math.isfinite(value):
                raise ValueError(f"parameter {name} must be finite")
        if not self.alpha < self.beta:
            raise ValueError("alpha must be less than beta")
        if self.M < self.beta - self.alpha:
            raise ValueError("M must be at least beta - alpha")
        for name in ("M", "N", "T", "U"):
            if not 0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be positive and finite")
        if self.n < 1:
            raise ValueError("n must be at least 1")
        if self.scan_points < 2:
            raise ValueError("scan_points must be at least 2")

    @property
    def bindings(self) -> dict:
        return {**self.params, "T": self.T, "M": self.M,
                "N": self.N, "U": self.U}

    def sample(self) -> GridSample:
        """The problem's f and g on its scan grid, built on first use."""
        return self._sample

    @cached_property
    def _sample(self) -> GridSample:
        return GridSample(self)

    def hold_jets(self, points, f_degree: int, g_degree: int) -> None:
        """Keep f (to f_degree) and g (to g_degree) at these points, each
        walked once, on first use; f_jet and g_jet then truncate them, which
        gives the bits of a walk to the lower degree.  A point already held
        keeps its degrees; no point is kept unless held."""
        for x in points:
            self._points.setdefault(_point_key(x), _Held(x, f_degree, g_degree))

    # -- pointwise helpers -------------------------------------------------

    def f_jet(self, x, degree: int) -> Jet:
        """Jet of f at x: a truncation of the held jet where x is held to at
        least this degree (hold_jets), else a walk of its own."""
        return self._jet(0, x, degree)

    def g_jet(self, x, degree: int) -> Jet:
        return self._jet(1, x, degree)

    def _jet(self, which: int, x, degree: int) -> Jet:
        e = (self.f, self.g)[which]
        held = self._points.get(_point_key(x))
        if held is None or degree > held.degrees[which]:
            return eval_jet(e, jet_variable(x, degree), self.bindings)
        if held.jets[which] is None:
            held.jets[which] = eval_jet(
                e, jet_variable(x, held.degrees[which]), self.bindings)
        return jet_truncate(held.jets[which], degree)

    def f_dd(self, x: float) -> ddmath.DD:
        """f(x) in double-double.  The first call at a held float point walks
        every held float point that lacks it, as one array."""
        held = self._points.get(_point_key(x))
        if held is None or scalars.is_mp(x):
            return eval_dd(self.f, ddmath.from_float(np.float64(x)),
                           self.bindings)
        if held.dd is None:
            todo = [h for h in self._points.values()
                    if h.dd is None and not scalars.is_mp(h.x)]
            xs = np.array([h.x for h in todo], dtype=np.float64)
            with np.errstate(all="ignore"):
                hi, lo = (np.broadcast_to(c, xs.shape) for c in eval_dd(
                    self.f, ddmath.from_float(xs), self.bindings))
            for h, a, b in zip(todo, hi, lo):
                h.dd = a, b
        return held.dd

    def f_value(self, x: float) -> float:
        return eval_real(self.f, x, self.bindings)

    def fprime(self, x):
        return self.f_jet(x, 1).coeffs[1]

    def fprime2(self, x):
        jet = self.f_jet(x, 2)
        return jet.coeffs[1], 2.0 * jet.coeffs[2]


def make_problem(f: str, g: str, alpha: float, beta: float, n: int,
                 T: float | None = None, M: float | None = None,
                 N: float = 1.0, U: float = 1.0, params: dict | None = None,
                 scan_points: int = SCAN_POINTS) -> PhaseProblem:
    """Convenience constructor from expression strings with the standard
    defaults (M = beta - alpha, N = U = 1, T inferred from curvature).

    T may be omitted only when f does not read it (a params entry named T
    does not stand in for it: the problem binds T itself).  Inferring T
    walks f on the problem's scan grid, to the degree of its grid sample,
    which keeps that walk, so the scans that follow do not walk f again."""
    f_expr, g_expr = parse(f), parse(g)
    if T is None and "T" in symbols(f_expr):
        raise ConfigError("T is required: f references the parameter T")
    p = PhaseProblem(f=f_expr, g=g_expr, alpha=alpha, beta=beta, n=n,
                     T=1.0 if T is None else float(T),
                     M=float(beta - alpha if M is None else M),
                     N=float(N), U=float(U), params=dict(params or {}),
                     scan_points=scan_points)
    if T is None:  # f does not read the stand-in T: keep its walk
        draft = p.sample()
        p = replace(p, T=infer_T(draft.f, p.M))
        p.sample().__dict__["f"] = draft.f  # the cached_property's value
        p.sample().breaks["f"] = draft.breaks["f"]
    return p


def infer_T(f_grid: tuple, M: float) -> float:
    """Default phase scale: max |f''| over the scan grid, times M^2, from
    the grid jet of f (f_grid[2] = f''/2)."""
    worst = 2.0 * grid_sup(abs(f_grid[2]))
    if worst == 0.0:
        raise ValueError("cannot infer T: f'' vanishes on the grid")
    return worst * M * M


def find_stationary_point(p: PhaseProblem) -> float:
    """Locate the single interior zero of f', or raise.

    Reads f' from the problem's grid sample, then refines the bracketed sign
    change by bisection followed by Newton (f'' from jets).  Newton runs to
    stagnation, well past the guaranteed |f'(gamma)| <= 1e-12 * max(1, T/M).
    The sample keeps the result, so a second call returns it at once, and
    the problem holds f and g at gamma, alpha and beta to the degrees an
    expansion reads there (hold_jets), from the residual check on.
    """
    sample = p.sample()
    if sample.gamma is not None:
        return sample.gamma
    brackets = sample.sign_changes()
    if not brackets:
        raise NoSignChange("f' does not change sign on the scan grid")
    if len(brackets) > 1:
        raise MultipleSignChanges(
            f"f' changes sign {len(brackets)} times on the scan grid")

    gamma = bisect_fprime(p, *brackets[0], steps=48)
    # Each step depends on the iterate alone, so once an iterate equals the
    # one two steps back (a 2-cycle between adjacent floats) the rest of the
    # 60 steps alternate between the last two: jump to the one they end on.
    older = previous = None
    for k in range(1, NEWTON_STEPS + 1):
        d1, d2 = p.fprime2(gamma)
        if d2 == 0.0:
            break
        step = d1 / d2
        new = gamma - step
        if not (p.alpha <= new <= p.beta):
            break
        if new == gamma:
            break
        older, previous, gamma = previous, gamma, new
        if abs(step) <= 1e-17 * max(abs(gamma), p.beta - p.alpha):
            break
        if gamma == older:
            if (NEWTON_STEPS - k) % 2:
                gamma = previous
            break

    width = p.beta - p.alpha
    if min(gamma - p.alpha, p.beta - gamma) < 1e-9 * width:
        raise StationaryAtEndpoint(
            f"stationary point {gamma!r} within 1e-9*(beta-alpha) of an endpoint")
    p.hold_jets((gamma,), 2 * p.n + 2, 2 * p.n)
    p.hold_jets((p.alpha, p.beta), p.n + 2, p.n + 1)  # the boundary terms
    tol = 1e-12 * max(1.0, p.T / p.M)
    residual = abs(p.fprime(gamma))
    if not residual <= tol:  # also NaN
        raise NewtonError(
            f"|f'(gamma)| = {residual:.3e} exceeds tolerance {tol:.3e}")
    sample.gamma = gamma
    return gamma


def taylor_data(p: PhaseProblem, gamma: float):
    """Taylor coefficients of f (to degree 2n+2) and g (to 2n) at gamma.

    Returns (lam, eta) with lam[k] = f^(k)(gamma)/k! for k = 0..2n+2 and
    eta[k] = g^(k)(gamma)/k! for k = 0..2n.  lam[2] < 0 signals the
    maximum orientation, which compute_coefficients orients.  The problem
    holds both jets at gamma, for the phase factor there.
    """
    p.hold_jets((gamma,), 2 * p.n + 2, 2 * p.n)
    lam = p.f_jet(gamma, 2 * p.n + 2).coeffs
    eta = p.g_jet(gamma, 2 * p.n).coeffs
    tol = 1e-12 * p.T / (p.M * p.M)
    if abs(lam[2]) <= tol:
        raise DegenerateStationaryPoint(
            f"lambda_2 = {float(lam[2]):.3e} within tolerance {tol:.3e} of zero")
    return lam, eta


def _bracket_series(lam: Sequence, order: int) -> Jet:
    """1 + sum_{k=1..order} (lam_{k+2}/lam_2) t^k as a formal jet at 0."""
    lam2 = lam[2]
    one = scalars.one_like(lam2)
    coeffs = [one] + [lam[k] / lam2 if k < len(lam) else 0.0 * one
                      for k in range(3, order + 3)]
    return Jet(0.0, tuple(coeffs))


def amplitude_series(lam: Sequence, eta: Sequence, order: int):
    """Series route to the expansion coefficients.

    Builds y(t) = t * sqrt(1 + sum (lam_{k+2}/lam_2) t^k) on the branch with
    y'(0) = 1 (y shares the sign of x - gamma), reverts it to get
    x(y) - gamma, differentiates for dx/dy = sum rho_k y^k, and composes the
    weight series to get g(x) dx/dy = sum varpi_k y^k.

    Returns (x_of_y, rho, varpi): x_of_y to degree order+1, the others to
    degree `order` (= 2n).
    """
    lam2 = lam[2]
    if lam2 <= 0:
        raise DegenerateStationaryPoint(
            "amplitude_series requires lambda_2 > 0 (negate lam for a maximum)")
    root = jet_map(_bracket_series(lam, order), "sqrt")
    y_series = Jet(0.0, (scalars.zero_like(lam2),) + root.coeffs)  # times t
    x_of_y = jet_revert(y_series)
    rho_jet = jet_differentiate(x_of_y)
    eta_jet = Jet(0.0, tuple(eta[:order + 1]))
    g_of_y = jet_compose(eta_jet, jet_truncate(x_of_y, order))
    varpi_jet = jet_mul(g_of_y, rho_jet)
    return x_of_y.coeffs, rho_jet.coeffs, varpi_jet.coeffs


def recursion_coefficients(lam: Sequence, eta: Sequence, order: int):
    """Recursion route: mu_jk, eta'_m, and varpi reassembled from them.

    mu_jk are the coefficients of the (j/2)-power of the bracket series;
    eta'_m solves eta_m = sum_{k+l=m, k>=1} eta'_k mu_kl recursively; the
    check sequence is varpi_k = sum_l eta'_l rho_{k-l} with rho taken from
    amplitude_series.  The reference the series route (compute_coefficients)
    is tested against; no expansion runs it.
    """
    rho = amplitude_series(lam, eta, order)[1]
    bracket = _bracket_series(lam, order)
    identity = tuple((1.0 if k == 0 else 0.0) for k in range(order + 1))
    mu = (identity,) + tuple(jet_map(bracket, "pow", exponent=j / 2).coeffs
                             for j in range(1, order + 2))

    eta_prime = [eta[0]]
    for m in range(1, order + 1):
        total = eta[m]
        for k in range(1, m):
            total = total - eta_prime[k] * mu[k][m - k]
        eta_prime.append(total)

    varpi_check = []
    for k in range(order + 1):
        s = eta_prime[0] * rho[k]
        for ell in range(1, k + 1):
            s = s + eta_prime[ell] * rho[k - ell]
        varpi_check.append(s)
    return mu, tuple(eta_prime), tuple(varpi_check)


@dataclass(frozen=True)
class CoefficientSet:
    """gamma plus the series route's coefficients of the change of variables.

    lam[k] = lambda_k (index 0 is f(gamma), index 1 is f'(gamma) ~ 0), of
    -f at a maximum, so lam[2] > 0 in either orientation; eta, rho and
    varpi are indexed 0..2n, x_of_y 0..2n+1 (amplitude_series).
    """

    gamma: float
    order: int
    lam: tuple
    eta: tuple
    rho: tuple
    varpi: tuple
    x_of_y: tuple


def compute_coefficients(p: PhaseProblem, gamma: float | None = None) -> CoefficientSet:
    """Full coefficient pipeline (over mpmath numbers when gamma is an mpf),
    oriented: at a maximum lam is the Taylor data of -f, so lam[2] > 0 and
    the substitution is sign(f''(gamma)) (f(x) - f(gamma)) = lam[2] y^2."""
    if gamma is None:
        gamma = find_stationary_point(p)
    lam, eta = taylor_data(p, gamma)
    if lam[2] < 0:
        lam = tuple(-c for c in lam)
    order = 2 * p.n
    x_of_y, rho, varpi = amplitude_series(lam, eta, order)
    return CoefficientSet(gamma=gamma, order=order, lam=lam, eta=eta,
                          rho=rho, varpi=varpi, x_of_y=x_of_y)


def solve_x_of_y(p: PhaseProblem, gamma, lam2, y, f_gamma=None):
    """Solve f(x) - f(gamma) = lam2 * y^2 on the side matching sign(y);
    lam2 < 0 at a maximum.

    Safeguarded Newton with a bisection fallback; 1e-14 relative tolerance,
    60-iteration cap.  Works over floats and mpmath numbers alike.
    """
    if y == 0:
        return gamma
    mp_mode = scalars.is_mp(y)

    def fboth(x):
        return p.f_jet(x, 1).coeffs

    if f_gamma is None:
        f_gamma = fboth(gamma)[0]
    target = f_gamma + lam2 * y * y
    far = p.beta if y > 0 else p.alpha
    if mp_mode:
        far = mpmath.mpf(far)
    sign = 1 if lam2 > 0 else -1
    if sign * (fboth(far)[0] - target) < 0:
        raise NewtonError(f"y = {float(y)} is outside the substitution range")

    # Bracket ends by F = sign * residual: F(gamma) < 0 <= F(far).
    neg_end, pos_end = gamma, far

    def inside(value):
        lo, hi = (neg_end, pos_end) if neg_end <= pos_end else (pos_end, neg_end)
        return lo <= value <= hi

    x = gamma + y  # first-order seed: x - gamma ~ y near gamma
    if not inside(x):
        x = (gamma + far) / 2
    tol_rel = mpmath.mpf(10) ** (-mpmath.mp.dps + 4) if mp_mode else 1e-14
    max_iter = 200 if mp_mode else 60
    for _ in range(max_iter):
        fx, dfx = fboth(x)
        resid = fx - target
        if resid == 0:
            return x
        if sign * resid > 0:
            pos_end = x
        else:
            neg_end = x
        new = x - resid / dfx if dfx != 0 else None
        if new is None or not inside(new):
            new = (neg_end + pos_end) / 2
        if abs(new - x) <= tol_rel * max(abs(x - gamma), abs(y)):
            return new
        x = new
    raise NewtonError("x(y) Newton did not converge")


def residual_Q(p: PhaseProblem, cs: CoefficientSet, y: float) -> float:
    """Q(y) = g(x) dx/dy - sum_k varpi_k y^k with dx/dy = 2 lam2 y / f'(x).

    The truncation property says Q(y) = O(|y|^{2n+1}) as y -> 0; this is the
    measurable residual behind that claim.  y = 0 is rejected (x(0) = gamma
    and Q(0) = 0 by definition).  At a maximum lam2 is -cs.lam[2].
    """
    if y == 0:
        raise ValueError("residual_Q is defined for nonzero y only")
    lam2, f_gamma = cs.lam[2], cs.lam[0]
    if lam2 <= 0:
        raise DegenerateStationaryPoint("residual_Q requires lambda_2 > 0")
    if p.fprime2(cs.gamma)[1] < 0:
        lam2, f_gamma = -lam2, -f_gamma
    x = solve_x_of_y(p, cs.gamma, lam2, y, f_gamma=f_gamma)
    gx, fpx = p.g_jet(x, 1).coeffs[0], p.fprime(x)
    dxdy = 2 * lam2 * y / fpx
    series = cs.varpi[cs.order]
    for k in range(cs.order - 1, -1, -1):
        series = series * y + cs.varpi[k]
    q = gx * dxdy - series
    return q if scalars.is_mp(q) else float(q)


def mp_refine_gamma(p: PhaseProblem, gamma: float) -> mpmath.mpf:
    """Polish a float stationary point to working mpmath precision."""
    g = mpmath.mpf(gamma)
    for _ in range(12):
        jet = p.f_jet(g, 2)
        d1, d2 = jet.coeffs[1], 2 * jet.coeffs[2]
        if d2 == 0:
            break
        step = d1 / d2
        g = g - step
        if abs(step) <= mpmath.mpf(10) ** (-mpmath.mp.dps) * max(1, abs(g)):
            break
    return g


def mp_coefficients(p: PhaseProblem, dps: int = 40) -> CoefficientSet:
    """CoefficientSet with mpmath-precision entries (diagnostic pipeline).

    Needed because the residual Q(y) ~ y^{2n+1} dives below float64
    resolution long before the asymptotic slope is measurable.
    """
    with mpmath.workdps(dps):
        gamma = mp_refine_gamma(p, find_stationary_point(p))
        return compute_coefficients(p, gamma)
