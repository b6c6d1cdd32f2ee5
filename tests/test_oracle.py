import math

import mpmath
import pytest

from oscphase.coefficients import compute_coefficients, make_problem
from oscphase.errors import QuadratureNonConvergence
from oscphase.exprs import parse
from oscphase import ddmath, ddnumba, oracle
from oscphase.oracle import (_CHUNK_NODES, QuadratureSettings, _double_edges,
                             _panels_dd, _panels_dd_numpy, build_breakpoints,
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

    def test_max_panels_exceeded(self):
        p = make_problem("T*x^2", "1", -1.0, 1.0, n=2, T=5000.0)
        with pytest.raises(QuadratureNonConvergence):
            oscillatory_quadrature(p, QuadratureSettings(max_panels=64))

    def test_settings_validation(self):
        with pytest.raises(ValueError):
            QuadratureSettings(nodes_per_panel=4)
        with pytest.raises(ValueError):
            QuadratureSettings(tol=-1.0)

    def test_panel_phase_cap(self):
        p = make_problem("T*(x^2 + x^3/3)", "1", -0.5, 0.5, n=2, T=500.0)
        edges = build_breakpoints(p)
        f_vals = [p.f_value(float(x)) for x in edges]
        for a, b in zip(f_vals[:-1], f_vals[1:]):
            assert abs(b - a) <= 0.5 + 1e-9

    def test_numba_and_numpy_paths_agree(self):
        p = make_problem("T*(x^2 + x^3/3)", "1/(1+x^2)", -0.5, 0.5,
                         n=2, T=64.0)
        edges = build_breakpoints(p)
        re_a, im_a = _panels_dd(p, edges, 16)
        re_b, im_b = _panels_dd_numpy(p, edges, 16)

        def as_mp(dd):
            return mpmath.mpf(float(dd[0])) + mpmath.mpf(float(dd[1]))

        with mpmath.workdps(40):
            assert abs(as_mp(re_a) - as_mp(re_b)) < 1e-25
            assert abs(as_mp(im_a) - as_mp(im_b)) < 1e-25

    def test_numpy_path_matches_mpmath_gauss_legendre_sum(self):
        # The same 24-node rule on the same panels, summed in mpmath at 50
        # digits from the dd nodes and weights: checks the numpy dd kernel
        # (phase, e(f), weights and sums) without numba.
        p = make_problem("T*(x^2 + x^3/3)", "(1 + x)/(2 + x^2)", -0.5, 0.5,
                         n=2, T=64.0)
        edges = build_breakpoints(p)[:9]
        re_dd, im_dd = _panels_dd_numpy(p, edges, 24)
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
        # 9,104 panels at T = 2^12 span many chunks; a split that is not on
        # a chunk boundary must not change the dd sum, and the converged
        # value must match the one the 2^21-node chunking gave.
        p = canonical_family(2.0 ** 12)
        edges = _double_edges(build_breakpoints(p))
        chunk = _CHUNK_NODES // 24
        split = 5 * chunk + chunk // 2 + 1
        assert len(edges) - 1 > 10 * chunk and split % chunk != 0
        whole = _panels_dd_numpy(p, edges, 24)
        left = _panels_dd_numpy(p, edges[:split + 1], 24)
        right = _panels_dd_numpy(p, edges[split:], 24)

        def as_mp(dd):
            return mpmath.mpf(float(dd[0])) + mpmath.mpf(float(dd[1]))

        with mpmath.workdps(40):
            for k in (0, 1):
                halves = ddmath.add(left[k], right[k])
                assert abs(as_mp(whole[k]) - as_mp(halves)) < 1e-28

            r = oscillatory_quadrature_detail(p)
            assert r.panels == len(edges) - 1
            seed_re = (mpmath.mpf(0.007826981205171064)
                       + mpmath.mpf(-5.070545512218862e-19))
            seed_im = (mpmath.mpf(0.007845535287802543)
                       + mpmath.mpf(5.574420525878459e-19))
            assert abs(as_mp(r.re_dd) - seed_re) < 1e-30
            assert abs(as_mp(r.im_dd) - seed_im) < 1e-30

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


def _mp(dd):
    return mpmath.mpf(float(dd[0])) + mpmath.mpf(float(dd[1]))


class TestEmbeddedCertificate:
    def test_numba_template_runs_as_python_and_matches_numpy(self, monkeypatch):
        # Without numba, njit is the identity, so the generated kernel runs
        # as plain Python: this checks the template's source on any machine.
        monkeypatch.setattr(ddnumba, "HAVE_NUMBA", True)
        monkeypatch.setattr(ddnumba, "_KERNEL_CACHE", {})
        p = make_problem("T*(x^2 + x^3/3)", "abs(x + 0.45)/(1 + x^2)", -0.5, 0.5,
                         n=2, T=64.0)
        edges = build_breakpoints(p)[:9]
        assert ddnumba.get_kernel(p.f, p.g, tuple(sorted(p.bindings))) is not None
        (re_a, im_a), (dre_a, dim_a), excess_a = _panels_dd(p, edges, 24, embedded=True)
        (re_b, im_b), (dre_b, dim_b), excess_b = _panels_dd_numpy(
            p, edges, 24, embedded=True)
        with mpmath.workdps(40):
            for a, b in ((re_a, re_b), (im_a, im_b), (dre_a, dre_b), (dim_a, dim_b)):
                assert abs(_mp(a) - _mp(b)) < 1e-28
        assert excess_a > 0  # the kink at -0.45 lies in these panels
        assert excess_a == pytest.approx(excess_b, rel=1e-12)
        plain = _panels_dd(p, edges, 24)
        assert [float(v[0]) for v in plain] == [float(re_a[0]), float(im_a[0])]

    def test_converging_input_evaluates_each_node_once(self, monkeypatch, canonical_family):
        monkeypatch.setattr(ddnumba, "HAVE_NUMBA", False)
        elements = []
        e_unit_dd = ddmath.e_unit_dd

        def counting(f):
            elements.append(f[0].size)
            return e_unit_dd(f)

        monkeypatch.setattr(ddmath, "e_unit_dd", counting)
        p = canonical_family(64.0)
        settings = QuadratureSettings()
        r = oscillatory_quadrature_detail(p, settings)
        assert r.doublings == 1
        assert r.panels == len(_double_edges(build_breakpoints(p))) - 1
        assert sum(elements) == r.panels * settings.nodes_per_panel
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
        panels_dd = oracle._panels_dd

        def counting(*args, **kwargs):
            passes.append(1)
            return panels_dd(*args, **kwargs)

        monkeypatch.setattr(oracle, "_panels_dd", counting)
        p = make_problem("T*x", "sqrt(x-1.5)", 1.0, 2.0, n=2, T=16.0)
        with pytest.raises(QuadratureNonConvergence, match="non-finite"):
            oscillatory_quadrature(p)
        assert len(passes) == 1

    def test_interior_pole_stagnates(self):
        # The certificate alternates between two values as the pole moves
        # between panels; the stagnation count must not reset on the way down.
        p = make_problem("T*x", "1/(x-1.4)", 1.0, 2.0, n=2, T=16.0)
        with pytest.raises(QuadratureNonConvergence, match="stagnated"):
            oscillatory_quadrature(p, QuadratureSettings(max_panels=20_000))


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
