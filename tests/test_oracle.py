import math
import os
import pathlib
import subprocess
import sys
import time

import mpmath
import numpy as np
import pytest

from oscphase.cli import main, parse_config
from oscphase.coefficients import compute_coefficients, make_problem
from oscphase.errors import ExprDomainError, QuadratureNonConvergence
from oscphase.exprs import Call, Neg, Num, Sym, parse
from oscphase import ddmath, oracle
from oscphase.oracle import (_CHUNK_NODES, QuadratureSettings, _bisect_edges,
                             _pairwise, _panels_dd_numpy, build_breakpoints,
                             fd_derivatives, numeric_reversion_oracle,
                             oscillatory_quadrature,
                             oscillatory_quadrature_detail)


def fresnel_series(t: float, terms: int = 60) -> complex:
    """C(t) + i S(t) by the alternating power series (independent oracle).

    C(t) = sum (-1)^n (pi/2)^(2n) t^(4n+1) / ((2n)! (4n+1)),
    S(t) = sum (-1)^n (pi/2)^(2n+1) t^(4n+3) / ((2n+1)! (4n+3)).
    """
    c = s = 0.0
    for n in range(terms):
        c += (-1) ** n * (math.pi / 2) ** (2 * n) * t ** (4 * n + 1) / (
            math.factorial(2 * n) * (4 * n + 1))
        s += (-1) ** n * (math.pi / 2) ** (2 * n + 1) * t ** (4 * n + 3) / (
            math.factorial(2 * n + 1) * (4 * n + 3))
    return complex(c, s)


# Frozen from fresnel_series(2.0) and double-checked against mpmath below.
FRESNEL_2 = 0.48825340607534075 + 0.34341567836369824j

# The dd parts of the canonical family's oracle value at T = 2^12, as the
# seed's 2^21-node chunking gave them.
SEED_2_12 = ((0.007826981205171064, -5.070545512218862e-19),
             (0.007845535287802543, 5.574420525878459e-19))


def as_mp(dd):
    return mpmath.mpf(float(dd[0])) + mpmath.mpf(float(dd[1]))


def within_seed_2_12(r, bound):
    with mpmath.workdps(40):
        return all(abs(as_mp(got) - (mpmath.mpf(hi) + mpmath.mpf(lo))) < bound
                   for got, (hi, lo) in zip((r.re_dd, r.im_dd), SEED_2_12))


def totals(sums):
    """The (re, im) dd totals of a pass's per-panel Gauss sums."""
    return _pairwise(sums.q_hi, sums.q_lo)


def test_fresnel_series_oracle_self_check():
    got = fresnel_series(2.0)
    assert got == pytest.approx(FRESNEL_2, abs=3e-15)
    with mpmath.workdps(30):
        assert abs(complex(mpmath.fresnelc(2)) - FRESNEL_2.real) < 1e-16
        assert abs(complex(mpmath.fresnels(2)) - FRESNEL_2.imag) < 1e-16


class TestOscillatoryQuadrature:
    def test_fresnel(self):
        p = make_problem("x^2", "1", -1.0, 1.0, n=2)
        value = oscillatory_quadrature(p)
        assert value == pytest.approx(FRESNEL_2, abs=1e-12)

    def test_full_period_is_zero(self):
        p = make_problem("x", "1", 0.0, 1.0, n=1, T=1.0, M=1.0)
        assert abs(oscillatory_quadrature(p)) < 1e-14

    def test_interval_additivity(self):
        settings = QuadratureSettings(tol=1e-12)
        left = make_problem("T*(x^2 + x^3/3)", "1/(1+x^2)", -0.5, 0.1,
                            n=2, T=300.0, M=1.0)
        right = make_problem("T*(x^2 + x^3/3)", "1/(1+x^2)", 0.1, 0.5,
                             n=2, T=300.0, M=1.0)
        full = make_problem("T*(x^2 + x^3/3)", "1/(1+x^2)", -0.5, 0.5,
                            n=2, T=300.0)
        v = (oscillatory_quadrature(left, settings)
             + oscillatory_quadrature(right, settings))
        assert abs(v - oscillatory_quadrature(full, settings)) < 2e-12

    def test_self_consistency_across_tolerances(self):
        p = make_problem("T*(x^2 + x^3/3)", "1", -0.5, 0.5, n=2, T=200.0)
        coarse = oscillatory_quadrature(p, QuadratureSettings(tol=1e-10))
        fine = oscillatory_quadrature(p, QuadratureSettings(tol=1e-11))
        assert abs(coarse - fine) < 1e-10

    def test_unattainable_tolerance(self):
        p = make_problem("x^2", "1", -1.0, 1.0, n=2)
        with pytest.raises(QuadratureNonConvergence):
            oscillatory_quadrature(p, QuadratureSettings(tol=1e-30))

    def test_max_panels_exceeded(self, monkeypatch):
        monkeypatch.setattr(oracle, "_MAX_PANELS", 64)
        p = make_problem("T*x^2", "1", -1.0, 1.0, n=2, T=5000.0)
        with pytest.raises(QuadratureNonConvergence):
            oscillatory_quadrature(p)

    def test_settings_validation(self):
        # The rule and the panel cap are fixed: tol is the only setting.
        assert QuadratureSettings().nodes_per_panel == 24
        with pytest.raises(TypeError):
            QuadratureSettings(nodes_per_panel=4)
        with pytest.raises(TypeError):
            QuadratureSettings(max_panels=64)
        with pytest.raises(ValueError):
            QuadratureSettings(tol=-1.0)

    def test_panel_phase_cap(self):
        p = make_problem("T*(x^2 + x^3/3)", "1", -0.5, 0.5, n=2, T=500.0)
        edges = build_breakpoints(p)
        f_vals = [p.f_value(float(x)) for x in edges]
        for a, b in zip(f_vals[:-1], f_vals[1:]):
            assert abs(b - a) <= 0.9 + 1e-9

    def test_numpy_path_matches_mpmath_gauss_legendre_sum(self):
        # The same 24-node rule on the same panels, summed in mpmath at 50
        # digits from the dd nodes and weights: checks the numpy dd kernel
        # (phase, e(f), weights and sums).
        p = make_problem("T*(x^2 + x^3/3)", "(1 + x)/(2 + x^2)", -0.5, 0.5,
                         n=2, T=64.0)
        edges = build_breakpoints(p)[:9]
        re_dd, im_dd = totals(_panels_dd_numpy(p, edges))
        (xh, xl), (wh, wl) = ddmath.gauss_legendre_dd(24)
        with mpmath.workdps(50):
            nodes = [(mpmath.mpf(float(xh[j])) + mpmath.mpf(float(xl[j])),
                      mpmath.mpf(float(wh[j])) + mpmath.mpf(float(wl[j])))
                     for j in range(24)]
            total = mpmath.mpc(0)
            for a, b in zip(edges[:-1], edges[1:]):
                mid = (mpmath.mpf(a) + mpmath.mpf(b)) / 2
                half = (mpmath.mpf(b) - mpmath.mpf(a)) / 2
                for xi, w in nodes:
                    x = mid + half * xi
                    f = 64 * (x ** 2 + x ** 3 / 3)
                    total += half * w * (1 + x) / (2 + x ** 2) * mpmath.expjpi(2 * f)
            got_re = mpmath.mpf(float(re_dd[0])) + mpmath.mpf(float(re_dd[1]))
            got_im = mpmath.mpf(float(im_dd[0])) + mpmath.mpf(float(im_dd[1]))
            assert abs(got_re - total.real) <= 1e-28
            assert abs(got_im - total.imag) <= 1e-28

    def test_numpy_path_is_chunk_invariant(self, canonical_family):
        # 9,108 panels (the phase split halved twice) at T = 2^12 span many
        # chunks; a split that is not on a chunk boundary must not change
        # the dd sum, and the converged value, which the start split itself
        # certifies, must match the one the 2^21-node chunking gave within
        # its certificate.
        p = canonical_family(2.0 ** 12)
        edges = _bisect_edges(_bisect_edges(build_breakpoints(p)))
        chunk = _CHUNK_NODES // 24
        split = 5 * chunk + chunk // 2 + 1
        assert len(edges) - 1 > 10 * chunk and split % chunk != 0
        whole = totals(_panels_dd_numpy(p, edges))
        left = totals(_panels_dd_numpy(p, edges[:split + 1]))
        right = totals(_panels_dd_numpy(p, edges[split:]))

        with mpmath.workdps(40):
            for k in (0, 1):
                halves = ddmath.add(left[k], right[k])
                assert abs(as_mp(whole[k]) - as_mp(halves)) < 1e-28

        r = oscillatory_quadrature_detail(p)
        assert r.panels == len(build_breakpoints(p, QuadratureSettings().tol)) - 1
        assert within_seed_2_12(r, r.diff)

    def test_transcendental_phase_falls_back(self):
        # sin in the phase exercises the float64 fallback inside eval_dd
        p = make_problem("T*(x + sin(x)/10)", "1", 0.5, 1.5, n=1, T=40.0, M=1.0)
        with mpmath.workdps(30):
            ref = mpmath.quad(
                lambda x: mpmath.e ** (2j * mpmath.pi * 40 * (x + mpmath.sin(x) / 10)),
                mpmath.linspace(0.5, 1.5, 90))
            got = oscillatory_quadrature(p)
            assert abs(got - complex(ref)) < 1e-9

    def test_negative_power_weight_is_the_quotient(self, canonical_family):
        # (1+x^2)^-1 runs ddmath.powi with n < 0 at every node.
        quotient = canonical_family(4096.0)
        power = make_problem("T*(x^2 + x^3/3)", "(1+x^2)^-1", -0.5, 0.5, n=2,
                             T=4096.0)
        want = oscillatory_quadrature_detail(quotient)
        got = oscillatory_quadrature_detail(power)
        assert ((got.re_dd, got.im_dd, got.diff, got.panels)
                == (want.re_dd, want.im_dd, want.diff, want.panels))

    def test_square_as_a_product_is_the_power(self):
        # Poles 0.001 from the axis: the ellipse bounds of the panels next
        # to 0 stay inf for several passes, and their finite mass bounds
        # keep those passes from stagnating.  That needs x*x, like x^2, to
        # be read as not negative on the real panel.
        power = make_problem("T*x^2", "1/(x^2 + 0.000001)", -1.0, 1.0, n=2, T=64.0)
        product = make_problem("T*x^2", "1/(x*x + 0.000001)", -1.0, 1.0, n=2, T=64.0)
        want = oscillatory_quadrature_detail(power)
        got = oscillatory_quadrature_detail(product)
        assert ((got.re_dd, got.im_dd, got.diff, got.panels)
                == (want.re_dd, want.im_dd, want.diff, want.panels))

    def test_weight_undefined_at_an_end(self):
        # The panel split reads only f'; the Gauss nodes never touch x = 1.
        p = make_problem("T*x", "sqrt(x-1)", 1.0, 2.0, n=2, T=16.0)
        value = oscillatory_quadrature(p, QuadratureSettings(tol=1e-6))
        assert math.isfinite(value.real) and math.isfinite(value.imag)
        q = make_problem("x^2", "log(x+0.5)", -0.5, 0.5, n=2, T=1.0)
        assert list(build_breakpoints(q)[[0, -1]]) == [-0.5, 0.5]


class TestPanelCertificate:
    def test_kink_panel_has_the_largest_certificate_and_keeps_the_gauss_pair(self):
        p = make_problem("T*(x^2 + x^3/3)", "abs(x + 0.45)/(1 + x^2)", -0.5, 0.5,
                         n=2, T=64.0)
        edges = build_breakpoints(p)[:9]
        sums = _panels_dd_numpy(p, edges)
        # Each panel's numbers are its own: a pass over that panel alone
        # gives the same bits, the Gauss sums among them.  The panel of the
        # kink at -0.45, where only the mass bound is finite, has the
        # largest certificate.
        alone = [_panels_dd_numpy(p, edges[i:i + 2])
                 for i in range(len(edges) - 1)]
        assert as_hex(sums) == as_hex(oracle._PanelSums.join(alone))
        kink = np.searchsorted(edges, -0.45) - 1
        assert np.argmax(sums.cert) == kink
        assert oracle._ellipse_bound(p, edges[:-1], edges[1:])[kink] == np.inf
        assert np.isfinite(sums.cert[kink])

    @pytest.mark.parametrize("f, g, alpha, beta, T", [
        ("T*x^2", "1/(x^2 + 0.0001)", -1.0, 1.0, 64.0),
        ("T*(x^2 + x^3/3)", "1/(1 + 2500*(x - 0.2)^2)", -0.5, 0.5, 256.0),
        ("T*(x^2 + x^3/3)", "1/(1+x^2)", -0.5, 0.5, 1024.0),
        ("T*(x + x^2/10)", "1/x", 1.0, 2.0, 1024.0),
    ])
    @pytest.mark.parametrize("tol", [1e-12, 1e-16, 1e-20])
    def test_certificate_bounds_the_error_near_a_pole(self, f, g, alpha, beta,
                                                      T, tol):
        # Poles at distance 0.01 and 0.02 from the interval, and the two
        # criterion families; the reference is one pass over the phase
        # split halved four times, where the 24-node rule is at the dd floor.
        p = make_problem(f, g, alpha, beta, n=2, T=T)
        r = oscillatory_quadrature_detail(p, QuadratureSettings(tol=tol))
        edges = build_breakpoints(p)
        for _ in range(4):
            edges = _bisect_edges(edges)
        fine = totals(_panels_dd_numpy(p, edges))
        with mpmath.workdps(40):
            err = abs(mpmath.mpc(as_mp(r.re_dd), as_mp(r.im_dd))
                      - mpmath.mpc(as_mp(fine[0]), as_mp(fine[1])))
        assert err <= r.diff < tol

    def test_converging_input_evaluates_each_node_once(self, monkeypatch, canonical_family):
        elements = []
        e_unit_dd = ddmath.e_unit_dd

        def counting(f):
            elements.append(f[0].size)
            return e_unit_dd(f)

        monkeypatch.setattr(ddmath, "e_unit_dd", counting)
        p = canonical_family(64.0)
        settings = QuadratureSettings()
        r = oscillatory_quadrature_detail(p, settings)
        assert r.doublings == 0
        assert r.panels == len(build_breakpoints(p, settings.tol)) - 1
        assert sum(elements) == r.nodes == r.panels * settings.nodes_per_panel
        assert 0 < r.diff < settings.tol

    @pytest.mark.parametrize("f, g, alpha, beta, T, tol, split", [
        ("T*x", "abs(x - 1.3)", 1.0, 2.0, 16.0, 1e-8, 1.3),
        ("T*(x^2 + x^3/3)", "abs(x - 0.123)", -0.5, 0.5, 16.0, 1e-8, 0.123),
        ("T*(x^2 + x^3/3)", "1 + abs(x - 0.123)", -0.5, 0.5, 16.0, 1e-12, 0.123),
        ("T*(x^2/2 + -0.287*x^3)", "abs(x - 0.269)", -0.473, 0.947, 16.0, 1e-8,
         0.269),
        ("T*(x^2/2 + 0.095*x^3)", "abs(x - 0.511)", -0.403, 0.811, 64.0, 1e-12,
         0.511),
        ("T*x", "sqrt(x-1)", 1.0, 2.0, 16.0, 1e-8, None),
        ("T*x", "x^1.5", 0.0, 1.0, 16.0, 1e-8, None),
    ])
    def test_certificate_holds_at_a_kink_and_an_endpoint_singularity(
            self, f, g, alpha, beta, T, tol, split):
        # Only the mass bound is finite on the panel of a kink or of an end
        # where g is not analytic; it bounds the error whatever the
        # smoothness.  The reference is 30-digit mpmath, split at the kink.
        p = make_problem(f, g, alpha, beta, n=2, T=T)
        r = oscillatory_quadrature_detail(p, QuadratureSettings(tol=tol))
        assert r.diff < tol
        with mpmath.workdps(30):
            def integrand(x):
                return (_mp_tree(p.g, x, p.bindings)
                        * mpmath.expjpi(2 * _mp_tree(p.f, x, p.bindings)))

            points = list(mpmath.linspace(alpha, beta, 33))
            if split is not None:
                points = sorted(points + [mpmath.mpf(split)])
            ref = mpmath.quad(integrand, points)
            err = abs(mpmath.mpc(as_mp(r.re_dd), as_mp(r.im_dd)) - ref)
        assert err <= r.diff

    def test_non_finite_integrand_raises_on_the_first_pass(self, monkeypatch):
        passes = []
        panels_dd = oracle._panels_dd_numpy

        def counting(*args, **kwargs):
            passes.append(1)
            return panels_dd(*args, **kwargs)

        monkeypatch.setattr(oracle, "_panels_dd_numpy", counting)
        p = make_problem("T*x", "sqrt(x-1.5)", 1.0, 2.0, n=2, T=16.0)
        with pytest.raises(QuadratureNonConvergence, match="non-finite"):
            oscillatory_quadrature(p)
        assert len(passes) == 1

    @pytest.mark.parametrize("f, pole, T", [
        ("T*x", 1.4, 16.0),
        ("T*x", 1.5, 16.0),  # on an edge of the start's panels
        # Poles at a panel midpoint of the start, where the symmetric nodes
        # cancel the pole.
        ("T*(x + x^2/10)", 1.4144667855116144, 16.0),
        ("T*(x + x^2/10)", 1.4328602310696963, 64.0),
        ("T*(x + x^2/10)", 1.430002512367798, 1024.0),
    ])
    def test_interior_pole_stagnates(self, monkeypatch, f, pole, T):
        # The pole's panel has an unbounded certificate however narrow it
        # gets, so no pass sets a new least sum.
        monkeypatch.setattr(oracle, "_MAX_PANELS", 20_000)
        p = make_problem(f, f"1/(x-{pole!r})", 1.0, 2.0, n=2, T=T)
        with pytest.raises(QuadratureNonConvergence, match="stagnated"):
            oscillatory_quadrature(p)

    def test_panel_too_narrow_to_halve_raises(self):
        # The kink's panel shrinks to neighbouring floats before its mass
        # bound reaches tol: the error names the panel, not a nan diff.
        p = make_problem("T*(x^2 + x^3/3)", "1 + abs(x - 0.123)", -0.5, 0.5,
                         n=2, T=16.0)
        with pytest.raises(QuadratureNonConvergence,
                           match=r"panel at x = 0\.12\d* is too narrow") as info:
            oscillatory_quadrature(p, QuadratureSettings(tol=1e-16))
        assert "nan" not in str(info.value)


# Transcendental phases: eval_dd takes sin in float64, a rounding that no
# panel certificate sees; the rounding bound must cover it.
TRANSCENDENTAL = [("1 + 0.434*x", 0.434, 0.618, 1.618, 982.774584426888),
                  ("1 + 0.19*x", 0.19, 0.978, 1.978, 1014.9818645673258)]


class TestRoundingNoise:
    @pytest.mark.parametrize("g, slope, alpha, beta, T", TRANSCENDENTAL)
    def test_certificate_bounds_the_error(self, g, slope, alpha, beta, T):
        p = make_problem("T*(x + sin(x)/10)", g, alpha, beta, n=2, T=T)
        r = oscillatory_quadrature_detail(p)
        # The 24-node Gauss-Legendre sum at 34 digits on the same panels.
        with mpmath.workdps(34):
            rule = mpmath.calculus.quadrature.GaussLegendre(mpmath.mp)
            nodes = rule.calc_nodes(4, mpmath.mp.prec)
            ref = mpmath.mpc(0)
            edges = build_breakpoints(p, QuadratureSettings().tol)
            assert (r.panels, r.doublings) == (len(edges) - 1, 0)
            for a, b in zip(edges[:-1], edges[1:]):
                mid = (mpmath.mpf(a) + mpmath.mpf(b)) / 2
                half = (mpmath.mpf(b) - mpmath.mpf(a)) / 2
                for xi, w in nodes:
                    x = mid + half * xi
                    phase = T * (x + mpmath.sin(x) / 10)
                    ref += half * w * (1 + slope * x) * mpmath.expjpi(2 * phase)
            err = abs(r.mp_value() - ref)
        assert r.diff < QuadratureSettings().tol and err <= r.diff
        sums = _panels_dd_numpy(p, edges)
        assert sums.noise.sum() > sums.cert.sum()  # the rounding binds

    @pytest.mark.parametrize("g, slope, alpha, beta, T", TRANSCENDENTAL)
    def test_tol_below_the_rounding_raises(self, g, slope, alpha, beta, T):
        p = make_problem("T*(x + sin(x)/10)", g, alpha, beta, n=2, T=T)
        with pytest.raises(QuadratureNonConvergence, match="float64 rounding"):
            oscillatory_quadrature(p, QuadratureSettings(tol=1e-16))


JUMP = ("T*(x + x^2/10)", "(abs(x-1.3)/(x-1.3)+1)/2", 1.0, 2.0)


class TestLocalRefinement:
    @pytest.mark.parametrize("f, g, alpha, beta, split, most", [
        ("T*(x^2 + x^3/3)", "abs(x - 0.123)", -0.5, 0.5, 0.123, 40),
        ("T*x", "sqrt(x-1)", 1.0, 2.0, None, 60),
    ])
    def test_kink_and_endpoint_singularity_refine_locally(
            self, f, g, alpha, beta, split, most):
        # Halving every panel took these to 400 and 1,152 panels.
        tol = 1e-8
        p = make_problem(f, g, alpha, beta, n=2, T=16.0)
        r = oscillatory_quadrature_detail(p, QuadratureSettings(tol=tol))
        assert r.diff < tol and r.doublings > 0 and r.panels <= most
        with mpmath.workdps(20):
            def integrand(x):
                phase = 16 * x if f == "T*x" else 16 * (x ** 2 + x ** 3 / 3)
                weight = (mpmath.sqrt(x - 1) if split is None
                          else abs(x - mpmath.mpf(str(split))))
                return weight * mpmath.expjpi(2 * phase)

            points = list(mpmath.linspace(alpha, beta, 33))
            if split is not None:
                points = sorted(points + [mpmath.mpf(str(split))])
            ref = complex(mpmath.quad(integrand, points))
        assert abs(r.value - ref) <= tol

    def test_fine_tolerance_halves_only_the_panels_that_miss(self, canonical_family):
        # 1e-18 starts on 3.0-turn panels (686), whose bounds sum to 2.6e-18;
        # halving every panel of the 0.45-turn split took 9,104 panels to
        # certify 1e-20.
        p = canonical_family(2.0 ** 12)
        start = len(build_breakpoints(p, 1e-18)) - 1
        r = oscillatory_quadrature_detail(p, QuadratureSettings(tol=1e-18))
        assert r.diff < 1e-18 and r.doublings == 1
        assert start < r.panels <= start + start // 10
        assert within_seed_2_12(r, r.diff)

    def test_each_pass_evaluates_each_of_its_nodes_once(self, monkeypatch):
        # The first pass evaluates its panels; each later one only the two
        # halves of each panel it bisects.
        passes, elements = [], []
        e_unit_dd = ddmath.e_unit_dd
        panels_dd = oracle._panels_dd_numpy

        def counting(f):
            elements.append(f[0].size)
            return e_unit_dd(f)

        def recording(p, edges, panels=None):
            passes.append((edges, panels, len(elements)))
            return panels_dd(p, edges, panels)

        monkeypatch.setattr(ddmath, "e_unit_dd", counting)
        monkeypatch.setattr(oracle, "_panels_dd_numpy", recording)
        p = make_problem("T*(x^2 + x^3/3)", "abs(x - 0.123)", -0.5, 0.5,
                         n=2, T=16.0)
        r = oscillatory_quadrature_detail(p, QuadratureSettings(tol=1e-8))
        assert len(passes) == 1 + r.doublings >= 4
        assert len(passes[-1][0]) - 1 == r.panels
        assert passes[0][1] is None
        starts = [start for *_, start in passes] + [len(elements)]
        evaluated = [sum(elements[lo:hi]) for lo, hi in zip(starts, starts[1:])]
        assert evaluated[0] == (len(passes[0][0]) - 1) * 24
        for (before, _, _), (edges, panels, _), nodes in zip(
                passes, passes[1:], evaluated[1:]):
            bisected = len(edges) - len(before)
            assert 0 < bisected and panels.sum() == 2 * bisected
            assert nodes == 2 * bisected * 24
        assert r.nodes == sum(elements)

    @pytest.mark.parametrize("f, g, alpha, beta, T, tol, refinements", [
        ("T*(x^2 + x^3/3)", "1/(1+x^2)", -0.5, 0.5, 2.0 ** 12, 1e-18, 1),
        ("T*(x^2 + x^3/3)", "abs(x - 0.123)", -0.5, 0.5, 16.0, 1e-8, 3),
    ])
    def test_refined_result_is_one_pass_over_its_final_panels(
            self, monkeypatch, f, g, alpha, beta, T, tol, refinements):
        # The kept panels' sums and the new halves' give the bits that one
        # pass over the final panels gives, whatever the pass history.
        passes = []
        panels_dd = oracle._panels_dd_numpy

        def recording(p, edges, panels=None):
            passes.append(edges)
            return panels_dd(p, edges, panels)

        monkeypatch.setattr(oracle, "_panels_dd_numpy", recording)
        p = make_problem(f, g, alpha, beta, n=2, T=T)
        r = oscillatory_quadrature_detail(p, QuadratureSettings(tol=tol))
        assert r.doublings >= refinements
        sums = panels_dd(p, passes[-1])
        diff = float(sums.cert.sum()) + float(sums.noise.sum())
        assert [float(v).hex() for part in totals(sums) for v in part] == \
            [float(v).hex() for part in (r.re_dd, r.im_dd) for v in part]
        assert diff.hex() == r.diff.hex()

    @pytest.mark.parametrize("f, g, alpha, beta, n", [
        ("T*(x^2 + x^3/3)", "1/(1+x^2)", -0.5, 0.5, 2),
        ("T*(x + x^2/10)", "1/x", 1.0, 2.0, 3),
    ])
    @pytest.mark.parametrize("T", [2.0 ** 10, 2.0 ** 14])
    def test_wide_panels_keep_the_value_of_the_finer_split(
            self, monkeypatch, f, g, alpha, beta, n, T):
        # The criterion families at the default tol, against one pass over
        # the 0.45-turn phase split halved (0.225 turns per panel): the two
        # values agree within the sum of their certificates.
        p = make_problem(f, g, alpha, beta, n=n, T=T)
        r = oscillatory_quadrature_detail(p)
        monkeypatch.setattr(oracle, "_PHASE_PER_PANEL", 0.45)
        sums = _panels_dd_numpy(p, _bisect_edges(build_breakpoints(p)))
        fine_diff = sums.cert.sum() + sums.noise.sum()
        with mpmath.workdps(40):
            for got, want in zip((r.re_dd, r.im_dd), totals(sums)):
                assert abs(as_mp(got) - as_mp(want)) <= r.diff + fine_diff

    def test_default_tol_certifies_the_phase_split(self, canonical_family):
        # The 0.45-turn start took 4,552 panels and 109,248 nodes.
        p = canonical_family(2.0 ** 12)
        r = oscillatory_quadrature_detail(p)
        assert r.doublings == 0 and r.panels <= 2300
        assert r.nodes == r.panels * 24 <= 56_000

    def test_fine_tol_halves_only_the_panels_with_the_largest_bounds(
            self, monkeypatch, canonical_family):
        # 1e-24 starts on 2.4-turn panels; the bounds that miss are those
        # next to gamma = 0 and those near beta, where f'' is largest.
        p = canonical_family(2.0 ** 12)
        start = build_breakpoints(p, 1e-24)
        passes = record_passes(monkeypatch)
        r = oscillatory_quadrature_detail(p, QuadratureSettings(tol=1e-24))
        assert r.diff < 1e-24 and r.doublings >= 1
        assert same_bits(passes[0], start)
        added = np.setdiff1d(passes[-1], start)
        bisected = np.zeros(len(start) - 1, dtype=bool)
        bisected[np.searchsorted(start, added) - 1] = True
        cert = _panels_dd_numpy(p, start).cert
        assert 0 < bisected.sum() < 0.2 * len(bisected)
        assert cert[bisected].min() >= cert[~bisected].max()
        assert r.nodes == (2 * r.panels - len(start) + 1) * 24
        assert within_seed_2_12(r, r.diff)

    def test_jump_in_g_stagnates_quickly(self):
        # The jump's divisor vanishes on its panel, so that panel's
        # certificate stays inf however narrow it gets: four passes.
        p = make_problem(*JUMP, n=2, T=1024.0)
        start = time.perf_counter()
        with pytest.raises(QuadratureNonConvergence, match="stagnated"):
            oscillatory_quadrature(p)
        assert time.perf_counter() - start < 1.0

    def test_jump_in_g_exits_quad_with_code_3(self, tmp_path, capsys):
        f, g, alpha, beta = JUMP
        cfg = tmp_path / "jump.cfg"
        cfg.write_text(f"f = {f}\ng = {g}\nalpha = {alpha}\nbeta = {beta}\n"
                       "n = 2\nT = 1024\n")
        assert main(["quad", "--config", str(cfg)]) == 3
        assert "stagnated" in capsys.readouterr().err


def as_hex(sums):
    """Every bit of every per-panel number of a pass."""
    return [float(v).hex() for column in sums for v in np.ravel(column)]


# Criterion 2's family at T = 2^14: 2,279 panels at the default tol, 4 chunks.
CRITERION_2_AT_2_14 = {"f": "T*(x^2 + x^3/3)", "g": "1/(1+x^2)",
                       "alpha": -0.5, "beta": 0.5, "n": 2, "T": 2.0 ** 14}


def test_no_oracle_call_starts_a_process():
    # In a fresh interpreter, so that the import counts too; every way that
    # a process starts goes through os.fork, os.posix_spawn or
    # _posixsubprocess.fork_exec (subprocess and multiprocessing alike).
    code = ("import os, _posixsubprocess\n"
            "started = []\n"
            "def spy(module, name):\n"
            "    real = getattr(module, name)\n"
            "    def call(*args, **kwargs):\n"
            "        started.append(name)\n"
            "        return real(*args, **kwargs)\n"
            "    setattr(module, name, call)\n"
            "for name in ('fork', 'forkpty', 'posix_spawn', 'posix_spawnp'):\n"
            "    spy(os, name)\n"
            "spy(_posixsubprocess, 'fork_exec')\n"
            "from oscphase import oracle\n"
            "from oscphase.coefficients import make_problem\n"
            "r = oracle.oscillatory_quadrature_detail("
            f"make_problem(**{CRITERION_2_AT_2_14!r}))\n"
            "print(r.panels, len(started))\n")
    src = str(pathlib.Path(oracle.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, timeout=60,
                         env={**os.environ, "PYTHONPATH": src}).stdout
    panels, started = map(int, out.split())
    assert panels > 3 * oracle._CHUNK_PANELS
    assert started == 0


def record_passes(monkeypatch):
    """The edges of each oracle pass from now on."""
    passes = []
    panels_dd = oracle._panels_dd_numpy

    def recording(p, edges, panels=None):
        passes.append(edges)
        return panels_dd(p, edges, panels)

    monkeypatch.setattr(oracle, "_panels_dd_numpy", recording)
    return passes


def same_bits(a, b):
    return np.array_equal(a.view(np.int64), b.view(np.int64))


DEFAULT_TOL = QuadratureSettings().tol


class TestStartWidth:
    """The oracle starts on the widest width of _START_TURNS whose ellipse
    bound on a linear phase, at 1.3 times the turns, times
    (beta - alpha)/2 * max|g| fits tol/40, else on the 0.9-turn split."""

    @pytest.mark.parametrize("turns", [1.8, 2.4, 3.0, 3.6, 4.5, 5.4, 6.3])
    def test_linear_bound_is_the_ellipse_bound_of_a_linear_panel(self, turns):
        # f = turns/2 * x and g = 1 on [-1, 1], one panel of that many
        # turns; the 24-node rule's error at 40 digits lies below the bound.
        p = make_problem(f"{turns / 2!r}*x", "1", -1.0, 1.0, n=1, T=1.0)
        bound = oracle._ellipse_bound(p, np.array([-1.0]), np.array([1.0]))[0]
        assert bound == pytest.approx(oracle._linear_bound(turns)[0], rel=1e-12)
        with mpmath.workdps(40):
            rule = mpmath.calculus.quadrature.GaussLegendre(mpmath.mp)
            q = sum(w * mpmath.expjpi(turns * x)
                    for x, w in rule.calc_nodes(4, mpmath.mp.prec))
            exact = 2 * mpmath.sin(mpmath.pi * turns) / (mpmath.pi * turns)
            assert abs(q - exact) <= bound

    @pytest.mark.parametrize("tol, turns", [
        (1e-8, 4.5), (1e-12, 3.6), (1e-18, 3.0), (1e-20, 2.4), (1e-26, 1.8),
        (1e-33, 0.9)])
    def test_the_ladder(self, canonical_family, tol, turns):
        # (beta - alpha)/2 * max|g| = 1/2: the widest width whose bound fits.
        p = canonical_family(2.0 ** 12)
        assert oracle._start_turns(p, tol) == turns
        fits = 0.5 * oracle._linear_bound(1.3 * np.array(oracle._START_TURNS)) <= tol / 40
        assert turns == max([0.9] + [w for w, ok in zip(oracle._START_TURNS, fits) if ok])

    @pytest.mark.parametrize("tol, nodes", [(DEFAULT_TOL, 54_696),
                                            (1e-26, 109_296)])
    def test_the_start_certifies_criterion_2_at_2_14(self, monkeypatch, tol,
                                                     nodes):
        # Half the nodes of the parent start (1.8 and 0.9 turns), and no
        # refinement.
        p = make_problem(**CRITERION_2_AT_2_14)
        passes = record_passes(monkeypatch)
        r = oscillatory_quadrature_detail(p, QuadratureSettings(tol=tol))
        assert r.diff < tol and r.doublings == 0 and r.nodes == nodes
        assert same_bits(passes[0], build_breakpoints(p, tol))

    def test_a_fine_tol_starts_on_the_phase_split(self, canonical_family):
        p = canonical_family(2.0 ** 12)
        assert same_bits(build_breakpoints(p, 1e-33), build_breakpoints(p))

    def test_the_default_tol_starts_on_wide_panels(self, monkeypatch,
                                                   canonical_family):
        p = canonical_family(2.0 ** 12)
        passes = record_passes(monkeypatch)
        r = oscillatory_quadrature_detail(p)
        start = passes[0]
        turns = np.abs(np.diff([p.f_value(float(x)) for x in start]))
        at_gamma = np.argmin(np.abs(start))  # gamma = 0 is an edge
        assert np.all(turns <= 3.6 + 1e-9)
        assert np.all(turns[[at_gamma - 1, at_gamma]] <= 1.8 + 1e-9)
        assert r.doublings == 0 and r.panels == len(start) - 1
        assert r.panels < 0.26 * (len(build_breakpoints(p)) - 1)

    @pytest.mark.parametrize("f, g, alpha, beta, why", [
        ("T*(x^2/2 + -0.287*x^3)", "abs(x - 0.269)", -0.473, 0.947, "breaks"),
        ("T*(x + x^2/10)", "1/(x - 1.4144667855116144)", 1.0, 2.0, "breaks"),
        ("T*(x + x^2/10)", "sqrt(x - 1)", 1.0, 2.0, "walk raises"),
        ("T*x", "x^1100", 1.0, 2.0, "not finite"),
    ])
    def test_a_g_that_is_not_smooth_on_the_grid_keeps_the_phase_split(
            self, f, g, alpha, beta, why):
        p = make_problem(f, g, alpha, beta, n=2, T=16.0)
        assert oracle._start_turns(p, DEFAULT_TOL) == oracle._PHASE_PER_PANEL
        assert same_bits(build_breakpoints(p, DEFAULT_TOL), build_breakpoints(p))
        if why == "walk raises":
            with pytest.raises(ExprDomainError):
                p.sample().g
        elif why == "breaks":
            assert p.sample().breaks["g"]
        else:
            assert not np.all(np.isfinite(p.sample().g[0]))
        # The same f with g = 1 starts wide.
        smooth = make_problem(f, "1", alpha, beta, n=2, T=16.0)
        assert oracle._start_turns(smooth, DEFAULT_TOL) == 3.6


CONFIGS = pathlib.Path(__file__).resolve().parents[1] / "configs"


class TestBreakpoints:
    def test_oracle_call_does_not_import_numpy_ma(self):
        # The first np.unique of a process imports numpy.ma; the oracle's
        # set-up path must not pay for it.  numpy 1.x imports numpy.ma with
        # numpy itself, which leaves nothing to check.
        code = ("import sys, numpy\n"
                "print('numpy.ma' in sys.modules)\n"
                "import oscphase\n"
                "from oscphase.coefficients import make_problem\n"
                "oscphase.oscillatory_quadrature("
                "make_problem('x^2', '1', -1.0, 1.0, n=2))\n"
                "print('numpy.ma' in sys.modules)\n")
        src = str(pathlib.Path(oracle.__file__).resolve().parents[1])
        out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                             text=True, check=True,
                             env={**os.environ, "PYTHONPATH": src})
        with_numpy, after_call = out.stdout.split()
        if with_numpy == "True":
            pytest.skip("import numpy itself imports numpy.ma")
        assert after_call == "False"

    @pytest.mark.parametrize("name", ["fresnel", "monotone", "stationary_cubic"])
    def test_edges_match_np_unique(self, monkeypatch, name):
        p = parse_config((CONFIGS / f"{name}.cfg").read_text()).to_problem()
        edges = build_breakpoints(p)
        monkeypatch.setattr(oracle, "_drop_repeats", np.unique)
        assert np.array_equal(edges.view(np.int64), build_breakpoints(p).view(np.int64))

    def test_drop_repeats_is_np_unique_on_sorted_edges(self):
        edges = np.array([-1.0, -1.0, -0.5, 0.0, 0.0, 0.0, 0.25, 1.0, 1.0])
        assert np.array_equal(oracle._drop_repeats(edges), np.unique(edges))

    @pytest.mark.parametrize("f", ["64*log(x - 1.5)",
                                   "64*x + exp(720 - 1000*(x - 1.5)^2)"])
    def test_phase_non_finite_on_the_scan_grid_raises_as_before(
            self, monkeypatch, f):
        errors = []
        for drop in (oracle._drop_repeats, np.unique):
            monkeypatch.setattr(oracle, "_drop_repeats", drop)
            with pytest.raises(ExprDomainError) as info:
                oscillatory_quadrature(make_problem(f, "1", 1.0, 2.0, n=2, T=64.0))
            errors.append((type(info.value), str(info.value)))
        assert errors[0] == errors[1]

    # A phase that overflows at an end of the interval (inf, then inf - inf),
    # and a finite one that would need about 3e217 panels.
    UNUSABLE_PHASES = [("x^400", 0.5, 10.0), ("x^400 - x^401", 0.5, 10.0),
                       ("64*x + exp(1000*(x-1.5))", 1.0, 2.0)]

    @pytest.mark.parametrize("f, alpha, beta", UNUSABLE_PHASES)
    def test_unusable_phase_change_raises_before_allocating(self, f, alpha, beta):
        p = make_problem(f, "1", alpha, beta, n=2, T=64.0)
        start = time.perf_counter()
        with pytest.raises(QuadratureNonConvergence, match="phase change"):
            oscillatory_quadrature(p)
        assert time.perf_counter() - start < 1.0

    def test_unusable_phase_change_exits_quad_with_code_3(self, tmp_path, capsys):
        cfg = tmp_path / "overflow.cfg"
        cfg.write_text("f = x^400\ng = 1\nalpha = 0.5\nbeta = 10\nn = 2\nT = 64\n")
        assert main(["quad", "--config", str(cfg)]) == 3
        assert "not finite" in capsys.readouterr().err


class TestFdDerivatives:
    def test_cube(self):
        got = fd_derivatives(parse("x^3"), 1.0, 2)
        assert got[0] == pytest.approx(3.0, abs=1e-6)
        assert got[1] == pytest.approx(6.0, abs=1e-6)

    def test_exp(self):
        got = fd_derivatives(parse("exp(x)"), 0.0, 3)
        for v in got:
            assert v == pytest.approx(1.0, abs=1e-5)

    def test_sin_first_derivative(self):
        got = fd_derivatives(parse("sin(x)"), 0.0, 1)
        assert got[0] == pytest.approx(1.0, abs=1e-8)

    def test_order_bounds(self):
        with pytest.raises(ValueError):
            fd_derivatives(parse("x"), 0.0, 7)


class TestNumericReversionOracle:
    def test_pure_quadratic(self):
        p = make_problem("2*x^2", "1", -1.0, 1.0, n=2, T=4.0)
        w = numeric_reversion_oracle(p, 0.0, 3)
        assert w[0] == pytest.approx(1.0, abs=1e-10)
        for v in w[1:]:
            assert abs(v) < 1e-10

    def test_cubic_matches_series_route(self, cubic_problem):
        cs = compute_coefficients(cubic_problem)
        w = numeric_reversion_oracle(cubic_problem, cs.gamma, 4)
        for got, want in zip(w, cs.varpi):
            assert abs(got - want) <= 1e-6 * max(1.0, abs(want))

    def test_linearity_in_weight(self, cubic_problem):
        import dataclasses
        p7 = dataclasses.replace(cubic_problem, g=parse("7"))
        w1 = numeric_reversion_oracle(cubic_problem, 0.0, 2)
        w7 = numeric_reversion_oracle(p7, 0.0, 2)
        for a, b in zip(w1, w7):
            assert b == pytest.approx(7 * a, rel=1e-8, abs=1e-9)

    def test_randomized_polynomial_problems_agree_with_series_route(self):
        # Build polynomial f, g from random tame coefficient sets and check
        # the fit recovers the series-route varpi to 1e-6 relative.
        import numpy as np

        from oscphase.coefficients import compute_coefficients

        rng = np.random.default_rng(41)
        for _ in range(8):
            n = int(rng.integers(1, 4))
            lam2 = float(rng.uniform(0.7, 1.5))
            lam = [0.0, 0.0, lam2] + [float(rng.uniform(-0.25, 0.25)) * lam2
                                      for _ in range(2 * n)]
            eta = [float(rng.uniform(0.2, 1.0))] + \
                  [float(rng.uniform(-1.0, 1.0)) for _ in range(2 * n)]
            f_text = "+".join(f"{c!r}*x^{k}" for k, c in enumerate(lam) if c)
            g_text = "+".join(f"{c!r}*x^{k}" for k, c in enumerate(eta) if c)
            p = make_problem(f_text, g_text, -0.3, 0.3, n=n, T=2.0 * lam2)
            cs = compute_coefficients(p)
            w_hat = numeric_reversion_oracle(p, cs.gamma, 2 * n)
            for got, want in zip(w_hat, cs.varpi):
                assert abs(got - want) <= 1e-6 * max(1.0, abs(want))


# --- the ellipse certificate against mpmath ------------------------------------

def _load_pool():
    """perfbench/pool.py's problem pool (the benchmark's oracle sets)."""
    import importlib.util
    path = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "pool.py"
    spec = importlib.util.spec_from_file_location("oscphase_bench_pool", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.build_pool()


def _mp_tree(e, x, bindings):
    """The tree's value at the mpf x, in mpmath."""
    if isinstance(e, Num):
        return mpmath.mpf(e.value)
    if isinstance(e, Sym):
        if e.name == "x":
            return x
        return mpmath.pi if e.name == "pi" else mpmath.mpf(bindings[e.name])
    if isinstance(e, Neg):
        return -_mp_tree(e.child, x, bindings)
    if isinstance(e, Call):
        return getattr(mpmath, "fabs" if e.fn == "abs" else e.fn)(
            _mp_tree(e.arg, x, bindings))
    a, b = _mp_tree(e.left, x, bindings), _mp_tree(e.right, x, bindings)
    return {"+": a + b, "-": a - b, "*": a * b, "/": a / b, "^": a ** b}[e.op]


def _soundness_problems():
    pool = _load_pool()
    yield from pool["trans"]
    yield from (spec for variants in pool["large"] for spec in variants)
    yield from pool["txx"]
    yield {"f": "T*(x^2 + x^3/3)", "g": "1/(1+x^2)", "alpha": -0.5,
           "beta": 0.5, "n": 2, "T": 2.0 ** 12}
    yield {"f": "T*(x + x^2/10)", "g": "1/x", "alpha": 1.0, "beta": 2.0,
           "n": 3, "T": 2.0 ** 12}
    yield {"f": "T*x^2", "g": "1/(x^2 + 0.0001)", "alpha": -1.0, "beta": 1.0,
           "n": 2, "T": 64.0}
    yield {"f": "T*(x^2 + x^3/3)", "g": "exp(-x)*cos(3*x) + atan(2*x)*sqrt(x + 1)",
           "alpha": -0.5, "beta": 0.5, "n": 2, "T": 2.0 ** 10}


@pytest.mark.parametrize("tol", [1e-12, 1e-20])
def test_each_certificate_bounds_its_panels_error(tol):
    # On the start panels of each problem, the 3 largest certificates and 3
    # panels spread over the rest: |24-node dd sum - 36-digit mpmath| is
    # within the certificate plus the rounding bound wherever it exceeds the
    # dd floor.
    checked = 0
    for spec in _soundness_problems():
        p = make_problem(spec["f"], spec["g"], spec["alpha"], spec["beta"],
                         n=spec["n"], T=spec["T"])
        edges = build_breakpoints(p, tol)
        sums = _panels_dd_numpy(p, edges)
        n = len(edges) - 1
        picks = set(np.argsort(-sums.cert, kind="stable")[:3])
        picks |= set(np.linspace(0, n - 1, 3).astype(int))
        with mpmath.workdps(36):
            for i in sorted(picks):
                a, b = mpmath.mpf(edges[i]), mpmath.mpf(edges[i + 1])
                exact = mpmath.quad(
                    lambda x: _mp_tree(p.g, x, p.bindings)
                    * mpmath.expjpi(2 * _mp_tree(p.f, x, p.bindings)), [a, b])
                q = mpmath.mpc(as_mp((sums.q_hi[0, i], sums.q_lo[0, i])),
                               as_mp((sums.q_hi[1, i], sums.q_lo[1, i])))
                err = abs(q - exact)
                if err > 1e-30:
                    checked += 1
                    assert err <= sums.cert[i] + sums.noise[i], (spec, i)
    assert checked > 0
