import errno
import math
import os
import pathlib
import signal
import subprocess
import sys
import threading
import time

import mpmath
import numpy as np
import pytest

from oscphase.cli import main, parse_config
from oscphase.coefficients import compute_coefficients, make_problem
from oscphase.errors import ExprDomainError, QuadratureNonConvergence
from oscphase.exprs import parse
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
        # the dd sum, and the converged value, which the phase split itself
        # certifies, must match the one the 2^21-node chunking gave.
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
        assert within_seed_2_12(r, 1e-30)

    def test_transcendental_phase_falls_back(self):
        # sin in the phase exercises the float64 fallback inside eval_dd
        p = make_problem("T*(x + sin(x)/10)", "1", 0.5, 1.5, n=1, T=40.0, M=1.0)
        with mpmath.workdps(30):
            ref = mpmath.quad(
                lambda x: mpmath.e ** (2j * mpmath.pi * 40 * (x + mpmath.sin(x) / 10)),
                mpmath.linspace(0.5, 1.5, 90))
            got = oscillatory_quadrature(p)
            assert abs(got - complex(ref)) < 1e-9

    def test_weight_undefined_at_an_end(self):
        # The panel split reads only f'; the Gauss nodes never touch x = 1.
        p = make_problem("T*x", "sqrt(x-1)", 1.0, 2.0, n=2, T=16.0)
        value = oscillatory_quadrature(p, QuadratureSettings(tol=1e-6))
        assert math.isfinite(value.real) and math.isfinite(value.imag)
        q = make_problem("x^2", "log(x+0.5)", -0.5, 0.5, n=2, T=1.0)
        assert list(build_breakpoints(q)[[0, -1]]) == [-0.5, 0.5]


class TestEmbeddedCertificate:
    def test_kink_panels_report_excess_and_keep_the_gauss_pair(self):
        p = make_problem("T*(x^2 + x^3/3)", "abs(x + 0.45)/(1 + x^2)", -0.5, 0.5,
                         n=2, T=64.0)
        edges = build_breakpoints(p)[:9]
        sums = _panels_dd_numpy(p, edges)
        assert sums.excess.sum() > 0  # the kink at -0.45 lies in these panels
        # Each panel's numbers are its own: a pass over that panel alone
        # gives the same bits, the Gauss sums among them.  The kink's panel
        # has the largest certificate, and their sum bounds the pass's.
        alone = [_panels_dd_numpy(p, edges[i:i + 2])
                 for i in range(len(edges) - 1)]
        assert as_hex(sums) == as_hex(oracle._PanelSums.join(alone))
        assert np.argmax(sums.cert) == np.searchsorted(edges, -0.45) - 1
        diff = math.hypot(*sums.null.sum(axis=-1)) + sums.excess.sum()
        assert sums.cert.sum() >= diff

    @pytest.mark.parametrize("f, g, alpha, beta, T", [
        ("T*x^2", "1/(x^2 + 0.0001)", -1.0, 1.0, 64.0),
        ("T*(x^2 + x^3/3)", "1/(1 + 2500*(x - 0.2)^2)", -0.5, 0.5, 256.0),
        ("T*(x^2 + x^3/3)", "1/(1+x^2)", -0.5, 0.5, 1024.0),
        ("T*(x + x^2/10)", "1/x", 1.0, 2.0, 1024.0),
    ])
    @pytest.mark.parametrize("tol", [1e-12, 1e-16, 1e-20])
    def test_decay_weighted_certificate_bounds_the_error(self, f, g, alpha, beta,
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

    @pytest.mark.parametrize("f, g, alpha, beta, split", [
        ("T*x", "abs(x - 1.3)", 1.0, 2.0, 1.3),
        ("T*(x^2 + x^3/3)", "abs(x - 0.123)", -0.5, 0.5, 0.123),
        ("T*x", "sqrt(x-1)", 1.0, 2.0, None),
    ])
    def test_certificate_holds_at_a_kink_and_an_endpoint_singularity(
            self, f, g, alpha, beta, split):
        # The Gauss and embedded rules share 20 nodes, so at a kink their
        # errors nearly agree; the coarse null rule must catch such panels.
        tol = 1e-8
        p = make_problem(f, g, alpha, beta, n=2, T=16.0)
        r = oscillatory_quadrature_detail(p, QuadratureSettings(tol=tol))
        assert r.diff < tol
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

    def test_interior_pole_stagnates(self, monkeypatch):
        # The certificate alternates between two values as the pole moves
        # between panels; the stagnation count must not reset on the way down.
        monkeypatch.setattr(oracle, "_MAX_PANELS", 20_000)
        p = make_problem("T*x", "1/(x-1.4)", 1.0, 2.0, n=2, T=16.0)
        with pytest.raises(QuadratureNonConvergence, match="stagnated"):
            oscillatory_quadrature(p)


# Transcendental phases: eval_dd takes sin in float64, and that rounding,
# which the Gauss and null sums share, once sat above the certificate.
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
        # Halving every panel of the 0.45-turn split took 9,104 panels to
        # certify 1e-20.
        p = canonical_family(2.0 ** 12)
        r = oscillatory_quadrature_detail(p, QuadratureSettings(tol=1e-20))
        assert r.diff < 1e-20
        assert len(build_breakpoints(p)) - 1 < r.panels <= 4600
        assert within_seed_2_12(r, 1e-30)

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
        diff = (float(np.hypot(*sums.null.sum(axis=-1)) + sums.excess.sum())
                + float(sums.noise.sum()))
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
        # the 0.45-turn phase split halved (0.225 turns per panel).
        p = make_problem(f, g, alpha, beta, n=n, T=T)
        r = oscillatory_quadrature_detail(p)
        monkeypatch.setattr(oracle, "_PHASE_PER_PANEL", 0.45)
        fine = totals(_panels_dd_numpy(p, _bisect_edges(build_breakpoints(p))))
        with mpmath.workdps(40):
            for got, want in zip((r.re_dd, r.im_dd), fine):
                assert abs(as_mp(got) - as_mp(want)) < 1e-30

    def test_default_tol_certifies_the_phase_split(self, canonical_family):
        # The 0.45-turn start took 4,552 panels and 109,248 nodes.
        p = canonical_family(2.0 ** 12)
        r = oscillatory_quadrature_detail(p)
        assert r.doublings == 0 and r.panels <= 2300
        assert r.nodes == r.panels * 24 <= 56_000

    def test_fine_tol_halves_only_the_panels_at_gamma(self, monkeypatch,
                                                       canonical_family):
        # gamma = 0, and the panels next to it end within 0.04 of it; every
        # other panel's null values fall fast enough.
        p = canonical_family(2.0 ** 12)
        start = build_breakpoints(p)
        passes = []
        panels_dd = oracle._panels_dd_numpy

        def recording(p, edges, panels=None):
            passes.append(edges)
            return panels_dd(p, edges, panels)

        monkeypatch.setattr(oracle, "_panels_dd_numpy", recording)
        r = oscillatory_quadrature_detail(p, QuadratureSettings(tol=1e-20))
        assert r.diff < 1e-20 and r.doublings >= 1
        added = np.setdiff1d(passes[-1], start)
        assert 0 < len(added) <= 16 and np.all(np.abs(added) < 0.04)
        assert r.nodes == (2 * r.panels - len(start) + 1) * 24
        assert within_seed_2_12(r, 1e-30)

    def test_jump_in_g_stagnates_quickly(self):
        # Each halving of the jump's panel only halves the certificate.
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


HELPER_WAIT_S = 60.0
needs_two_cpus = pytest.mark.skipif(oracle._spare_cpus() < 1,
                                    reason="helpers start only with a spare CPU")


def ready_helpers(edges):
    """Start the helper processes if need be: they take work at once."""
    helpers = oracle._HELPERS.ready(len(edges) - 1)
    assert helpers
    return helpers


def running(pid):
    """True while the child pid has not exited; never reaps it."""
    return os.waitid(os.P_PID, pid, os.WEXITED | os.WNOHANG | os.WNOWAIT) is None


def reaped(pid):
    """True once the child pid has exited and been waited for."""
    try:
        os.waitpid(pid, os.WNOHANG)
    except ChildProcessError:
        return True
    return False


def kill(pid):
    """SIGKILL the child pid and wait until it has exited, leaving it for
    the code under test to reap."""
    os.kill(pid, signal.SIGKILL)
    os.waitid(os.P_PID, pid, os.WEXITED | os.WNOWAIT)


def record_blocks(monkeypatch):
    """Panel counts of the blocks this process computes from now on; the
    patch does not reach the helpers."""
    blocks = []
    chunk_results = oracle._chunk_results

    def recording(*job):
        blocks.append(len(job[3]))
        return chunk_results(*job)

    monkeypatch.setattr(oracle, "_chunk_results", recording)
    return blocks


def serial_pass(p, edges):
    """The pass as one serial loop: every chunk here."""
    return oracle._chunk_results(p.f, p.g, p.bindings, edges[:-1], edges[1:])


def as_hex(sums):
    """Every bit of every per-panel number of a pass."""
    return [float(v).hex() for column in sums for v in np.ravel(column)]


# The transcendental pool problem trans[0]: 1,138 panels on the 0.9-turn
# split, two chunks.
TRANS_0 = {"f": "T*(x + sin(x)/10)", "g": "1 + 0.434*x", "alpha": 0.618,
           "beta": 1.618, "n": 2, "T": 982.77}


SPLIT_PROBLEM = {"f": "T*(x^2 + x^3/3)", "g": "abs(sin(40*x))/(1+x^2)",
                 "alpha": -0.5, "beta": 0.5, "n": 2, "T": 2.0 ** 12}


@pytest.fixture
def split_pass():
    """A pass of 14 chunks at T = 2^12, its chunk count and its serial bits.
    The weight's 13 kinks give a coarse null excess to panels on both sides
    of the split."""
    p = make_problem(**SPLIT_PROBLEM)
    edges = _bisect_edges(_bisect_edges(build_breakpoints(p)))
    chunk = _CHUNK_NODES // 24
    n_chunks = -(-(len(edges) - 1) // chunk)
    assert n_chunks >= 10
    serial = serial_pass(p, edges)
    split = (len(edges) - 1) // 2
    assert serial.excess[:split].any() and serial.excess[split:].any()
    return p, edges, n_chunks, as_hex(serial)


@needs_two_cpus
class TestHelperInterpreters:
    def test_split_pass_is_the_serial_pass_bit_for_bit(self, monkeypatch, split_pass):
        p, edges, n_chunks, serial = split_pass
        helpers = ready_helpers(edges)
        # Forked with this process's CPUs.
        assert all(os.sched_getaffinity(h.pid) == os.sched_getaffinity(0)
                   for h in helpers)
        blocks = record_blocks(monkeypatch)
        got = _panels_dd_numpy(p, edges)
        assert len(blocks) == 1 and 0 < blocks[0] < len(edges) - 1
        assert as_hex(got) == serial

    def test_a_two_chunk_pass_is_split_inside_a_chunk(self, monkeypatch,
                                                      split_pass):
        # Too few chunks to start the helpers, enough panels to use them.
        p = make_problem(**TRANS_0)
        edges = build_breakpoints(p)
        serial = as_hex(serial_pass(p, edges))
        helpers = ready_helpers(split_pass[1])
        blocks = record_blocks(monkeypatch)
        got = _panels_dd_numpy(p, edges)
        assert blocks == [(len(edges) - 1) // (1 + len(helpers))]
        assert blocks[0] < oracle._CHUNK_PANELS
        assert as_hex(got) == serial

    def test_a_pass_of_a_few_panels_stays_here(self, monkeypatch, split_pass):
        p = make_problem("x^2", "1", -1.0, 1.0, n=2)
        edges = build_breakpoints(p)
        serial = as_hex(serial_pass(p, edges))
        ready_helpers(split_pass[1])
        blocks = record_blocks(monkeypatch)
        got = _panels_dd_numpy(p, edges)
        assert blocks == [len(edges) - 1] == [22]
        assert as_hex(got) == serial

    def test_non_finite_phase_in_a_helper_block_raises_the_serial_error(
            self, monkeypatch, split_pass):
        # log(0.45 - x) is not finite on the last panels only, which lie in
        # the helper's block; the helper returns None and this process
        # computes that block to raise.
        _, edges, n_chunks, _ = split_pass
        p = make_problem("T*(x^2 + x^3/3) + log(0.45 - x)", "1/(1+x^2)",
                         -0.5, 0.5, n=2, T=2.0 ** 12)
        with pytest.raises(QuadratureNonConvergence) as serial:
            serial_pass(p, edges)
        helpers = ready_helpers(edges)
        blocks = record_blocks(monkeypatch)
        with pytest.raises(QuadratureNonConvergence) as split:
            _panels_dd_numpy(p, edges)
        assert str(split.value) == str(serial.value)
        assert len(blocks) == 2 and sum(blocks) == len(edges) - 1
        # An error in a job leaves the helper running.
        assert all(h in oracle._HELPERS.helpers and running(h.pid)
                   for h in helpers)

    def test_helper_killed_between_calls(self, split_pass):
        p, edges, n_chunks, serial = split_pass
        helpers = ready_helpers(edges)
        for helper in helpers:
            kill(helper.pid)
        assert as_hex(_panels_dd_numpy(p, edges)) == serial
        assert not set(helpers) & set(oracle._HELPERS.helpers)
        assert as_hex(_panels_dd_numpy(p, edges)) == serial
        # A replacement starts, and its split pass keeps the bits.
        ready_helpers(edges)
        assert as_hex(_panels_dd_numpy(p, edges)) == serial

    def test_interrupt_with_a_job_outstanding_stops_the_helper(
            self, monkeypatch, split_pass):
        p, edges, n_chunks, _ = split_pass
        helpers = ready_helpers(edges)

        def interrupted(*job):
            raise KeyboardInterrupt

        monkeypatch.setattr(oracle, "_chunk_results", interrupted)
        with pytest.raises(KeyboardInterrupt):
            _panels_dd_numpy(p, edges)
        for helper in helpers:
            assert helper not in oracle._HELPERS.helpers
            assert reaped(helper.pid)

    def test_a_call_while_another_thread_holds_the_lock_runs_here(
            self, monkeypatch, split_pass):
        p, edges, n_chunks, serial = split_pass
        ready_helpers(edges)
        held, release = threading.Event(), threading.Event()

        def hold():
            with oracle._HELPERS.lock:
                held.set()
                release.wait()

        thread = threading.Thread(target=hold)
        thread.start()
        try:
            held.wait()
            blocks = record_blocks(monkeypatch)
            got = _panels_dd_numpy(p, edges)
        finally:
            release.set()
            thread.join()
        assert blocks == [len(edges) - 1]
        assert as_hex(got) == serial

    def test_a_failed_fork_turns_the_helpers_off(self, monkeypatch, split_pass):
        p, edges, n_chunks, serial = split_pass
        helpers = oracle._Helpers()
        monkeypatch.setattr(oracle, "_HELPERS", helpers)
        forks = []

        def failing_fork():
            forks.append(os.getpid())
            raise OSError(errno.EAGAIN, "Resource temporarily unavailable")

        monkeypatch.setattr(os, "fork", failing_fork)
        blocks = record_blocks(monkeypatch)
        assert as_hex(_panels_dd_numpy(p, edges)) == serial
        assert as_hex(_panels_dd_numpy(p, edges)) == serial
        assert len(forks) == 1 and blocks == [len(edges) - 1] * 2
        assert (helpers.spare, helpers.helpers) == (0, [])

    def test_a_forked_child_that_exits_leaves_the_helpers_running(self):
        # The child's exit runs the exit handlers (this module's close, and
        # multiprocessing's) in a copy of the caller that owns no helper.
        out = fresh_python(
            "import os, sys\n"
            "from oscphase import oracle\n"
            "from oscphase.coefficients import make_problem\n"
            "from oscphase.oracle import _bisect_edges, build_breakpoints\n"
            f"p = make_problem(**{SPLIT_PROBLEM!r})\n"
            "edges = _bisect_edges(_bisect_edges(build_breakpoints(p)))\n"
            "serial = oracle._chunk_results(p.f, p.g, p.bindings, edges[:-1],\n"
            "                               edges[1:])\n"
            "oracle._panels_dd_numpy(p, edges)\n"
            "helpers = list(oracle._HELPERS.helpers)\n"
            "child = os.fork()\n"
            "if child == 0:\n"
            "    sys.exit(0)\n"
            "os.waitpid(child, 0)\n"
            "running = [os.waitid(os.P_PID, h.pid, os.WEXITED | os.WNOHANG\n"
            "                     | os.WNOWAIT) is None for h in helpers]\n"
            "split = oracle._panels_dd_numpy(p, edges)\n"
            "bits = [s.tobytes() for s in serial] == [s.tobytes() for s in split]\n"
            "print(len(helpers), all(running), bits,\n"
            "      oracle._HELPERS.helpers == helpers)\n")
        assert out.split() == [str(oracle._spare_cpus()), "True", "True", "True"]


def test_no_helper_without_a_spare_cpu(monkeypatch):
    monkeypatch.setattr(oracle, "_spare_cpus", lambda: 0)
    helpers = oracle._Helpers()
    assert helpers.ready(10 ** 6) == [] and helpers.helpers == []


def fresh_env() -> dict:
    """The environment of a fresh interpreter that imports this oscphase."""
    src = str(pathlib.Path(oracle.__file__).resolve().parents[1])
    return {**os.environ, "PYTHONPATH": src}


def fresh_python(code: str) -> str:
    """The stdout of code run by a fresh interpreter on this oscphase, with
    its output captured: it returns only once every process that holds
    that output has exited."""
    return subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, check=True, timeout=HELPER_WAIT_S,
                          env=fresh_env()).stdout


def fresh_oracle_call(problem: dict):
    """One oracle call on make_problem(**problem) in a fresh interpreter:
    its panels, the processes it started and the pids of this module's
    helpers."""
    code = ("import os, subprocess\n"
            "started = []\n"
            "class Spy(subprocess.Popen):\n"
            "    def __init__(self, *args, **kwargs):\n"
            "        started.append(args)\n"
            "        super().__init__(*args, **kwargs)\n"
            "subprocess.Popen = Spy\n"
            "fork = os.fork\n"
            "os.fork = lambda: started.append('fork') or fork()\n"
            "from oscphase import oracle\n"
            "from oscphase.coefficients import make_problem\n"
            "r = oracle.oscillatory_quadrature_detail("
            f"make_problem(**{problem!r}))\n"
            "print(r.panels, len(started), "
            "*(h.pid for h in oracle._HELPERS.helpers))\n")
    panels, started, *pids = map(int, fresh_python(code).split())
    return panels, started, pids


def test_import_and_a_one_chunk_call_start_no_process():
    panels, started, helpers = fresh_oracle_call(
        {"f": "x^2", "g": "1", "alpha": -1.0, "beta": 1.0, "n": 2})
    assert panels <= _CHUNK_NODES // 24
    assert (started, helpers) == (0, [])


def test_a_two_chunk_call_starts_no_process():
    # At the default tol TRANS_0 starts on 1.8-turn panels (569, one chunk):
    # twice its T gives two chunks again.
    panels, started, helpers = fresh_oracle_call({**TRANS_0, "T": 2 * TRANS_0["T"]})
    assert _CHUNK_NODES // 24 < panels <= 2 * (_CHUNK_NODES // 24)
    assert (started, helpers) == (0, [])


# Criterion 2's family at T = 2^14: 4,554 panels, about 7 chunks.
CRITERION_2_AT_2_14 = {**SPLIT_PROBLEM, "g": "1/(1+x^2)", "T": 2.0 ** 14}


@needs_two_cpus
def test_a_captured_call_returns_and_leaves_no_helper():
    panels, started, pids = fresh_oracle_call(CRITERION_2_AT_2_14)
    assert panels >= 4 * (_CHUNK_NODES // 24)
    assert started == len(pids) == oracle._spare_cpus()
    for pid in pids:
        with pytest.raises(ProcessLookupError):
            os.kill(pid, 0)


def proc_running(pid):
    """True while pid is a process that has not exited (Linux /proc)."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


@needs_two_cpus
@pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="reads /proc")
def test_a_killed_caller_leaves_no_helper_running():
    # The helper sees the end of its pipe and exits, whoever reaps it.
    code = ("import time\n"
            "from oscphase import oracle\n"
            "from oscphase.coefficients import make_problem\n"
            "oracle.oscillatory_quadrature_detail(make_problem("
            f"**{CRITERION_2_AT_2_14!r}))\n"
            "print(*(h.pid for h in oracle._HELPERS.helpers), flush=True)\n"
            f"time.sleep({HELPER_WAIT_S})\n")
    with subprocess.Popen([sys.executable, "-c", code], stdout=subprocess.PIPE,
                          text=True, env=fresh_env()) as caller:
        pids = [int(pid) for pid in caller.stdout.readline().split()]
        caller.kill()
    assert len(pids) == oracle._spare_cpus()
    deadline = time.monotonic() + HELPER_WAIT_S
    while any(map(proc_running, pids)) and time.monotonic() < deadline:
        time.sleep(0.01)
    assert not any(map(proc_running, pids))


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
    """The oracle starts on 1.8-turn panels where
    kappa * (beta - alpha)/2 * max|g| <= tol/4, else on the 0.9-turn split."""

    def test_kappa_is_the_certificate_of_a_wide_linear_panel(self):
        # g = 1 and f = 0.9 x on [-1, 1], a panel of 1.8 turns: the dd node
        # products by hand, then the certificate of their null sums.
        (xh, xl), (wh, wl) = ddmath.gauss_legendre_dd(24)
        phase = ddmath.mul((xh, xl), ddmath.from_float(oracle._PHASE_PER_PANEL))
        e_re, e_im = ddmath.e_unit_dd(phase)
        node = ddmath.mul((wh, wl), (np.stack((e_re[0], e_im[0])),
                                     np.stack((e_re[1], e_im[1]))))
        d = ddmath.sum_nodes(ddmath.mul(node, ddmath.embedded_null_weights(24)))
        c = (node[0] * ddmath.coarse_null_weights(24)).sum(axis=-1)
        kappa = float(oracle._panel_certificates(d, c)[2])
        assert kappa == oracle._wide_certificate()
        assert 1e-13 < kappa < 3e-13

    def test_a_fine_tol_starts_on_the_phase_split(self, monkeypatch,
                                                  canonical_family):
        p = canonical_family(2.0 ** 12)
        passes = record_passes(monkeypatch)
        oscillatory_quadrature_detail(p, QuadratureSettings(tol=1e-20))
        assert same_bits(passes[0], build_breakpoints(p))
        assert same_bits(build_breakpoints(p, 1e-20), build_breakpoints(p))

    def test_the_default_tol_starts_on_wide_panels(self, monkeypatch,
                                                   canonical_family):
        p = canonical_family(2.0 ** 12)
        passes = record_passes(monkeypatch)
        r = oscillatory_quadrature_detail(p)
        start = passes[0]
        turns = np.abs(np.diff([p.f_value(float(x)) for x in start]))
        at_gamma = np.argmin(np.abs(start))  # gamma = 0 is an edge
        assert np.all(turns <= 1.8 + 1e-9)
        assert np.all(turns[[at_gamma - 1, at_gamma]] <= 0.9 + 1e-9)
        assert r.doublings == 0 and r.panels == len(start) - 1
        assert r.panels < 0.51 * (len(build_breakpoints(p)) - 1)

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
        assert oracle._start_turns(smooth, DEFAULT_TOL) == 1.8


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
