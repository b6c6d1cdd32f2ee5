"""The two expansion theorems and their diagnostics.

first_derivative_test evaluates the boundary-only expansion valid when f'
keeps one sign; stationary_phase_expand evaluates the full expansion around
the interior stationary point, including the H_i boundary corrections and a
four-term error scale.  hypothesis_audit fits the size constants the
theorems assume and reports the validity condition T^(1/(2n+3)) * Delta > 1.

Phase factors e(f(x)) are evaluated through the double-double path so the
boundary terms stay accurate at large T; with `mp_dps` set, the whole
computation runs in mpmath (used by the convergence studies, where the
defect being measured sits far below double-precision resolution).
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass, replace

import mpmath
import numpy as np

from . import ddmath, scalars
from .coefficients import (CoefficientSet, PhaseProblem, compute_coefficients,
                           find_stationary_point, grid_sup, mp_coefficients)
from .errors import (DegenerateStationaryPoint, NonFinitePhaseError,
                     SignChangeDetected, StationaryPointError,
                     StationaryTooCloseToEndpoint)
from .jets import jet_differentiate, jet_div, jet_truncate


N1_WARNING = "n = 1: the expansion is certified for n >= 2 only"


def double_factorial_odd(j: int) -> int:
    """(2j-1)!! with the empty product (j = 0) equal to 1."""
    out = 1
    for m in range(1, j + 1):
        out *= 2 * m - 1
    return out


def unit_phase(p: PhaseProblem, x: float, extra: float = 0.0):
    """e(f(x) + extra) with the phase reduced mod 1 before exponentiation.

    An mpf x evaluates in mpmath.  A dd phase that is not finite (f
    overflows float64 near x) raises NonFinitePhaseError.  Points the
    problem holds (PhaseProblem.hold_jets) read their held f.
    """
    if scalars.is_mp(x):
        f = p.f_jet(x, 1).coeffs[0]
        return mpmath.expjpi(2 * (f + extra))
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        f_dd = p.f_dd(x)
        if extra:
            f_dd = ddmath.add(f_dd, ddmath.from_float(np.float64(extra)))
    if not (np.isfinite(f_dd[0]) and np.isfinite(f_dd[1])):
        raise NonFinitePhaseError(
            f"phase f({float(x)!r}) is not finite in double-double "
            f"({float(f_dd[0])!r} + {float(f_dd[1])!r})")
    return complex(ddmath.e_unit(f_dd))


@dataclass(frozen=True)
class ExpansionResult:
    """Expansion output: value = main_term + boundary_beta - boundary_alpha."""

    value: complex
    main_term: complex
    boundary_alpha: complex
    boundary_beta: complex
    per_order_main: tuple
    error_scale: float
    orientation: str  # "min" or "max"
    theorem: str  # "fdt" or "wsp"
    gamma: float | None = None
    coefficients: CoefficientSet | None = None
    audit: "AuditReport | None" = None
    warnings: tuple = ()


@dataclass(frozen=True)
class AuditReport:
    """Fitted size constants and the expansion-validity diagnostics.

    C_f maps r -> fitted constant for f (r = 2..2n+3, with C_f[2] enlarged
    by the lower bound on sigma*f'', sigma the orientation); C_g maps s ->
    fitted constant for g (s = 0..2n+1).
    """

    C_f: dict
    C_g: dict
    C2_lower_ok: bool
    Delta: float
    validity_ok: bool
    r1: float
    r2: float
    r: float
    M_ok: bool
    sign_profile: str
    warnings: tuple = ()


def _weight_scale(p: PhaseProblem, s_max: int) -> float:
    """Effective weight size: U capped by the fitted sup of |g^(s)| N^s.

    Keeps the error scale honest when the weight is much smaller than the
    declared U (a weight that is identically zero has zero error scale).
    """
    g = p.sample().g
    fitted = max(grid_sup(abs(g[s])) * math.factorial(s) * p.N ** s
                 for s in range(s_max + 1))
    return min(p.U, fitted)


def boundary_terms(p: PhaseProblem, x0: float, count: int) -> list:
    """H_1(x0)..H_count(x0): H_1 = g/(2 pi i f'), H_i = -H_{i-1}'/(2 pi i f').

    Computed as jet quotients at x0 (in mpmath when x0 is an mpf); each
    recursion step differentiates the previous jet, so degrees shrink by one
    per order, and divides by a truncation of the one jet f' * 2 pi i (a
    product's coefficients do not depend on the ones above them).  The real
    jets of f and g turn complex at that product.
    """
    if count < 1:
        return []
    tol = 1e-12 * p.T / p.M
    f_jet = p.f_jet(x0, count + 1)
    g_jet = p.g_jet(x0, count)
    fp = jet_differentiate(f_jet)  # degree count
    fp0 = float(fp.coeffs[0])
    if abs(fp0) <= tol:
        raise SignChangeDetected(f"f'({float(x0)}) = {fp0:.3e} vanishes; "
                                 "boundary terms are undefined")
    two_pi_i = 2j * (mpmath.pi if scalars.is_mp(x0) else math.pi)
    fp_two_pi_i = fp * two_pi_i
    h = jet_div(g_jet, fp_two_pi_i)
    values = [h.coeffs[0]]
    for _ in range(2, count + 1):
        dh = jet_differentiate(h)
        h = -(jet_div(dh, jet_truncate(fp_two_pi_i, dh.degree)))
        values.append(h.coeffs[0])
    return values


def fdt_error_terms(p: PhaseProblem, min_fprime: float) -> list[float]:
    """The three error-term magnitudes of the first-derivative test with all
    constants set to one; min_fprime is min(|f'(alpha)|, |f'(beta)|)."""
    n, M, N, T = p.n, p.M, p.N, p.T
    u_eff = _weight_scale(p, n + 1)
    m = min_fprime
    e1 = 0.0
    for j in range(1, n // 2 + 1):
        inner = sum(1.0 / (N ** (n - j - t) * M ** t) for t in range(j, n - j + 1))
        e1 += u_eff * T ** j / (m ** (n + j + 1) * M ** (2 * j)) * inner
    e1 *= M / N
    e2 = (M / N + 1.0) * u_eff / (N ** n * m ** (n + 1))
    e3 = 0.0
    for j in range(1, n + 1):
        inner = sum(1.0 / (N ** (n - j - t) * M ** t) for t in range(0, n - j + 1))
        e3 += u_eff * T ** j / (m ** (n + j + 1) * M ** (2 * j)) * inner
    return [e1, e2, e3]


def first_derivative_test(p: PhaseProblem, *,
                          mp_dps: int | None = None) -> ExpansionResult:
    """Boundary-only expansion, valid when f' and f'' keep constant signs."""
    f = p.sample().f
    if not (np.all(f[1] > 0) or np.all(f[1] < 0)):
        raise SignChangeDetected(
            "f' changes sign or vanishes on the grid; use the stationary path")
    if np.any(f[2] > 0) and np.any(f[2] < 0):
        raise SignChangeDetected("f'' changes sign on the grid")
    orientation = "min" if np.any(f[2] > 0) else "max"

    with _arithmetic(mp_dps) as num:
        b_alpha, b_beta = _end_terms(p, num(p.alpha), num(p.beta), p.n)
        value, main = b_beta - b_alpha, num(0) + 0j  # main: a complex zero
    min_fp = min(abs(p.fprime(p.alpha)), abs(p.fprime(p.beta)))
    error_scale = float(sum(fdt_error_terms(p, min_fp)))
    return ExpansionResult(value=value, main_term=main,
                           boundary_alpha=b_alpha, boundary_beta=b_beta,
                           per_order_main=(), error_scale=error_scale,
                           orientation=orientation, theorem="fdt",
                           warnings=_input_warnings(p))


def smoothness_warnings(p: PhaseProblem) -> list:
    """One warning per abs(...) in f or g with a kink on the scan grid and
    per divisor that changes sign there (a pole or a jump).  The grid walks
    of f and g note them (GridSample.breaks); each walk runs once per
    problem, here if no caller has made it."""
    what = {"abs": "abs(...) in {} has a kink inside [alpha, beta]",
            "/": "a divisor in {} changes sign inside [alpha, beta], "
                 "a pole or a jump"}
    sample = p.sample()
    sample.f, sample.g  # the walks fill sample.breaks
    return [f"{what[op].format(label)} (offset {offset}); "
            "smoothness hypotheses fail"
            for label in ("f", "g")
            for offset, op in sorted(sample.breaks[label])]


def _input_warnings(p: PhaseProblem) -> tuple:
    """smoothness_warnings, then the n = 1 warning."""
    return tuple(smoothness_warnings(p) + [N1_WARNING] * (p.n == 1))


@contextlib.contextmanager
def _arithmetic(mp_dps: int | None):
    """The number type of a run: float, or mpf at mp_dps digits."""
    if mp_dps is None:
        yield float
    else:
        with mpmath.workdps(mp_dps):
            yield mpmath.mpf


def _end_terms(p: PhaseProblem, alpha, beta, count: int) -> tuple:
    """e(f) times H_1 + ... + H_count at alpha and at beta, in the
    arithmetic of the end points, which the problem holds jets at."""
    p.hold_jets((alpha, beta), count + 1, count)
    h_beta = boundary_terms(p, beta, count)
    h_alpha = boundary_terms(p, alpha, count)
    b_beta = unit_phase(p, beta) * _ordered_sum(h_beta)
    b_alpha = unit_phase(p, alpha) * _ordered_sum(h_alpha)
    return b_alpha, b_beta


def _ordered_sum(values):
    total = values[0]
    for v in values[1:]:
        total = total + v
    return total


def error_scale_terms(p: PhaseProblem, gamma: float) -> list[float]:
    """The four O-term magnitudes of the stationary-phase expansion, in the
    fixed reporting order, with implied constants set to one."""
    if not (p.alpha < gamma < p.beta):
        raise StationaryTooCloseToEndpoint("gamma must lie strictly inside")
    n, M, N, T = p.n, p.M, p.N, p.T
    u_eff = _weight_scale(p, 2 * n + 1)
    da, db = gamma - p.alpha, p.beta - gamma
    t1 = (u_eff * M ** (2 * n + 5) / (T ** (n + 2) * N ** (n + 2))
          * (da ** -(n + 2) + db ** -(n + 2)))
    t2 = (u_eff * M ** (2 * n + 4) / T ** (n + 2)
          * (da ** -(2 * n + 3) + db ** -(2 * n + 3)))
    t3 = (u_eff * M ** (2 * n + 4) / (T ** (n + 2) * N ** (2 * n))
          * (da ** -3 + db ** -3))
    t4 = u_eff / T ** (n + 1) * (M ** (2 * n + 2) / N ** (2 * n + 1) + M)
    return [t1, t2, t3, t4]


def stationary_phase_expand(p: PhaseProblem, *,
                            mp_dps: int | None = None) -> ExpansionResult:
    """Full stationary-phase expansion around the single interior zero of f'.

    Both orientations take one path: sigma = sign f''(gamma) sets the phase
    offset e(sigma/8) and the powers (4 pi i sigma lambda_2)^j, lambda_2 > 0
    from the oriented coefficients.  With mp_dps set, the coefficients,
    phases and boundary terms run in mpmath at that precision.
    """
    gamma = find_stationary_point(p)
    width = p.beta - p.alpha
    if min(gamma - p.alpha, p.beta - gamma) < 1e-6 * width:
        raise StationaryTooCloseToEndpoint(
            "gamma within 1e-6*(beta-alpha) of an endpoint; the error terms "
            "diverge like (gamma-alpha)^-(2n+3)")
    _, d2 = p.fprime2(gamma)
    tol = 1e-12 * p.T / (p.M * p.M)
    if abs(d2) <= tol:
        raise DegenerateStationaryPoint(
            f"f''(gamma) = {d2:.3e} within tolerance of zero")
    sigma = 1 if d2 > 0 else -1
    audit = hypothesis_audit(p)
    warnings = [N1_WARNING] if p.n == 1 else []
    if sigma < 0:
        warnings.append("maximum orientation: sigma = -1 (f''(gamma) < 0)")
    if not audit.C2_lower_ok:
        warnings.append("audit: sigma*f'' <= 0 somewhere on the grid")
    if not audit.validity_ok:
        warnings.append("audit: T^(1/(2n+3)) * Delta <= 1 "
                        "(asymptotic regime not certified)")
    warnings.extend(audit.warnings)  # kinks, and the n = 1 warning again

    with _arithmetic(mp_dps):
        cs = (compute_coefficients(p, gamma=gamma) if mp_dps is None
              else mp_coefficients(p, mp_dps))
        result = _wsp_core(p, cs, sigma)
    if sigma < 0 and mp_dps is not None:
        result = _frozen_max_rounding(result)
    return replace(result, audit=audit, warnings=tuple(dict.fromkeys(warnings)))


def _frozen_max_rounding(res: ExpansionResult) -> ExpansionResult:
    """An mp maximum with each imaginary part rounded to the caller's
    precision, as the former path (-f expanded, then conjugated outside
    workdps) returned it.  perfbench/reference.json holds those numbers to
    1e-25; remove this step when that reference is next frozen (ROADMAP)."""
    def rounded(z):
        return mpmath.conj(mpmath.conj(z))  # each conj rounds the imaginary part

    parts = ("value", "main_term", "boundary_alpha", "boundary_beta")
    return replace(res, per_order_main=tuple(map(rounded, res.per_order_main)),
                   **{name: rounded(getattr(res, name)) for name in parts})


def _wsp_core(p: PhaseProblem, cs: CoefficientSet, sigma: int) -> ExpansionResult:
    n = p.n
    lam2 = cs.lam[2]
    num = type(cs.gamma)  # float, or mpf at the working precision
    pi = mpmath.pi if num is mpmath.mpf else math.pi
    prefactor = unit_phase(p, cs.gamma, extra=sigma / 8) / scalars.sqrt(2 * lam2)

    per_order = [prefactor * cs.varpi[0]]
    for j in range(1, n + 1):
        coeff = cs.varpi[2 * j] * (-1) ** j * double_factorial_odd(j)
        try:
            denom = (4 * pi * 1j * sigma * lam2) ** j
        except OverflowError:  # the term is below the float range
            denom = math.inf
        per_order.append(prefactor * coeff / denom)
    main = _ordered_sum(per_order)

    b_alpha, b_beta = _end_terms(p, num(p.alpha), num(p.beta), n + 1)
    value = main + b_beta - b_alpha
    error_scale = float(sum(error_scale_terms(p, float(cs.gamma))))
    return ExpansionResult(value=value, main_term=main, boundary_alpha=b_alpha,
                           boundary_beta=b_beta, per_order_main=tuple(per_order),
                           error_scale=error_scale,
                           orientation="min" if sigma > 0 else "max",
                           theorem="wsp", gamma=float(cs.gamma), coefficients=cs)


def hypothesis_audit(p: PhaseProblem) -> AuditReport:
    """Fit the theorem's size constants on the scan grid and evaluate the
    smallness radius Delta, the validity condition, and the y-ranges r1, r2.

    The second-derivative hypothesis is read for sigma*f'', sigma the
    orientation (sign f''(gamma), or the sign f'' keeps on the grid when
    there is no gamma), so f and -f give the same report but for the
    direction in the sign profile."""
    n, M, N, T, U = p.n, p.M, p.N, p.T, p.U
    sample = p.sample()
    f, g = sample.f, sample.g
    c_f = {r: grid_sup(abs(f[r])) * math.factorial(r) * M ** r / T
           for r in range(2, 2 * n + 4)}
    c_g = {s: grid_sup(abs(g[s])) * math.factorial(s) * N ** s / U
           for s in range(0, 2 * n + 2)}
    # sign profile, the substitution ranges r1, r2 and the orientation:
    # sigma = sign f''(gamma), or the sign f'' keeps on the grid without gamma
    changes = sample.sign_changes()
    sigma = -1 if np.any(f[2] < 0) and not np.any(f[2] > 0) else 1
    r1 = r2 = r_val = math.nan
    lam2 = 0.0
    if len(changes) == 0:
        sign_profile = ("f' > 0 on [alpha, beta]" if np.any(f[1] > 0)
                        else "f' < 0 on [alpha, beta]" if np.any(f[1] < 0)
                        else "f' vanishes identically on the grid")
    elif len(changes) == 1:
        _, near, f_lo = changes[0]
        direction = "- to +" if f_lo < 0 else "+ to -"
        try:
            gamma = find_stationary_point(p)
            sign_profile = f"f' changes sign once ({direction}) at gamma = {gamma!r}"
            lam2 = p.fprime2(gamma)[1] / 2.0
            if lam2 != 0:
                sigma = -1 if lam2 < 0 else 1
                f_gamma = p.f_value(gamma)
                fa = p.f_value(p.alpha) - f_gamma
                fb = p.f_value(p.beta) - f_gamma
                r1 = math.sqrt(max(fa / lam2, 0.0))
                r2 = math.sqrt(max(fb / lam2, 0.0))
        except StationaryPointError as exc:
            sign_profile = (f"f' changes sign once ({direction}) near x = {near}"
                            f" but refinement failed: {exc}")
    else:
        sign_profile = f"f' changes sign {len(changes)} times on the grid"

    # the lower bound on sigma*f'' enlarges C_f[2]; Delta and validity
    fpp = f[2] if sigma > 0 else -f[2]
    c2_lower_ok = not np.any(fpp <= 0)
    if c2_lower_ok:
        fpp_min = 2.0 * float(np.fmin.reduce(fpp, initial=math.inf))
        c_f[2] = max(c_f[2], T / (M * M * fpp_min))
    c_max = max(c_f.values())
    if c_f[2] > 0 and c_max > 0:
        try:
            radius = 1.0 / (c_f[2] ** 2 * c_max)
        except OverflowError:  # C_f[2]^2 is beyond the float range
            radius = 0.0
        delta = min(math.log(2.0) / c_f[2], radius)
    else:
        delta = math.inf if c_f[2] == 0 else math.log(2.0) / c_f[2]
    validity_ok = bool(T ** (1.0 / (2 * n + 3)) * delta > 1.0)
    if lam2 != 0:
        r_val = min(r1, r2, delta * M)

    return AuditReport(C_f=c_f, C_g=c_g, C2_lower_ok=c2_lower_ok,
                       Delta=delta, validity_ok=validity_ok,
                       r1=r1, r2=r2, r=r_val,
                       M_ok=bool(M >= p.beta - p.alpha),
                       sign_profile=sign_profile,
                       warnings=_input_warnings(p))
