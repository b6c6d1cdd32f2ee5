import dataclasses
import math
import pathlib
import sys
import warnings

import mpmath
import numpy as np
import pytest

from oscphase import exprs
from oscphase.cli import parse_config
from oscphase.coefficients import make_problem
from oscphase.errors import (DegenerateStationaryPoint, NonFinitePhaseError, SignChangeDetected,
                             StationaryPointError,
                             StationaryTooCloseToEndpoint)
from oscphase.expansion import (boundary_terms, double_factorial_odd,
                                error_scale_terms, fdt_error_terms,
                                first_derivative_test, hypothesis_audit,
                                stationary_phase_expand, unit_phase)
from oscphase.oracle import oscillatory_quadrature
from oscphase.study import expand_auto


class TestDoubleFactorial:
    def test_values(self):
        assert double_factorial_odd(0) == 1  # empty product
        assert double_factorial_odd(1) == 1
        assert double_factorial_odd(3) == 15
        assert double_factorial_odd(4) == 105


class TestBoundaryTerms:
    def test_h1_quadratic(self):
        p = make_problem("x^2", "1", 0.5, 2.0, n=3, T=8.0)
        h = boundary_terms(p, 1.0, 1)
        assert h[0] == pytest.approx(-1j / (4 * math.pi), abs=1e-15)

    def test_h2_quadratic(self):
        # H2 = -H1'/(2 pi i f'); with H1 = 1/(4 pi i x) and f' = 2x this is
        # 1/(16 pi^2 i^2 x^3) = -1/(16 pi^2) at x = 1.  Cross-checked below
        # by finite differences of H1.
        p = make_problem("x^2", "1", 0.5, 2.0, n=3, T=8.0)
        h = boundary_terms(p, 1.0, 2)
        assert h[1] == pytest.approx(-1.0 / (16 * math.pi ** 2), abs=1e-15)

    def test_h2_matches_finite_difference_of_h1(self):
        p = make_problem("x^2", "1", 0.5, 2.0, n=3, T=8.0)
        eps = 1e-6
        h1 = lambda x: boundary_terms(p, x, 1)[0]
        h1_prime = (h1(1.0 + eps) - h1(1.0 - eps)) / (2 * eps)
        expected = -h1_prime / (2j * math.pi * 2.0)
        assert boundary_terms(p, 1.0, 2)[1] == pytest.approx(expected, rel=1e-8)

    def test_zero_weight(self):
        p = make_problem("x^2", "0", 0.5, 2.0, n=3, T=8.0)
        assert all(v == 0 for v in boundary_terms(p, 1.0, 3))

    def test_vanishing_fprime_rejected(self):
        p = make_problem("x^2", "1", -1.0, 2.0, n=2, T=8.0)
        with pytest.raises(SignChangeDetected):
            boundary_terms(p, 0.0, 2)


class TestFirstDerivativeTest:
    def test_integer_frequency_linear_phase(self):
        p = make_problem("100*x", "1", 1.0, 2.0, n=2, T=100.0)
        res = first_derivative_test(p)
        assert res.value == 0j
        assert res.theorem == "fdt"
        assert res.main_term == 0j
        assert res.per_order_main == ()

    @pytest.mark.parametrize("T", [1024.0, 1e4, 16384.0])
    def test_against_oracle(self, T):
        p = make_problem("T*(x + x^2/10)", "1/x", 1.0, 2.0, n=3, T=T)
        res = first_derivative_test(p)
        oracle = oscillatory_quadrature(p)
        assert abs(res.value - oracle) <= 10 * res.error_scale

    def test_zero_weight(self):
        p = make_problem("T*(x + x^2/10)", "0", 1.0, 2.0, n=3, T=100.0)
        res = first_derivative_test(p)
        assert res.value == 0j
        assert res.error_scale == 0.0

    def test_stationary_point_rejected(self):
        p = make_problem("x^2", "1", -1.0, 1.0, n=2)
        with pytest.raises(SignChangeDetected):
            first_derivative_test(p)

    def test_splitting_consistency_exact(self):
        p = make_problem("T*(x + x^2/10)", "1/x", 1.0, 2.0, n=3, T=1e4)
        left = first_derivative_test(dataclasses.replace(p, beta=1.5))
        right = first_derivative_test(dataclasses.replace(p, alpha=1.5))
        full = first_derivative_test(p)
        assert left.boundary_beta == right.boundary_alpha
        assert left.value + right.value == full.value

    def test_error_terms_n1_has_empty_first_sum(self):
        p = make_problem("T*(x + x^2/10)", "1/x", 1.0, 2.0, n=1, T=100.0)
        e1, e2, e3 = fdt_error_terms(p, min(abs(p.fprime(1.0)), abs(p.fprime(2.0))))
        assert e1 == 0.0
        assert e2 > 0 and e3 > 0


class TestStationaryPhaseExpand:
    def test_pure_quadratic_main_term(self):
        p = make_problem("T*x^2", "1", -1.0, 1.0, n=2, T=1.0, M=2.0)
        res = stationary_phase_expand(p)
        expected = complex(0.5, 0.5)  # e(1/8)/sqrt(2)
        assert abs(res.main_term - expected) <= 1e-14 * abs(expected)
        assert all(abs(t) == 0 for t in res.per_order_main[1:])
        assert res.orientation == "min"
        assert res.theorem == "wsp"

    def test_value_decomposition_identity(self):
        p = make_problem("T*(x^2 + x^3/3)", "1/(1+x^2)", -0.5, 0.5, n=2, T=4096.0)
        res = stationary_phase_expand(p)
        assert res.value == res.main_term + res.boundary_beta - res.boundary_alpha
        assert res.main_term == sum(res.per_order_main)

    def test_against_oracle_moderate_T(self):
        p = make_problem("T*(x^2 + x^3/3)", "1/(1+x^2)", -0.5, 0.5, n=2,
                         T=float(2 ** 12))
        res = stationary_phase_expand(p)
        oracle = oscillatory_quadrature(p)
        assert abs(res.value - oracle) <= 10 * res.error_scale

    def test_orientation_duality_is_exact_conjugation(self):
        pmin = make_problem("T*(x^2 + x^3/3)", "1/(1+x^2)", -0.5, 0.5, n=2,
                            T=2048.0)
        pmax = make_problem("-(T*(x^2 + x^3/3))", "1/(1+x^2)", -0.5, 0.5, n=2,
                            T=2048.0)
        rmin = stationary_phase_expand(pmin)
        rmax = stationary_phase_expand(pmax)
        assert rmax.orientation == "max"
        assert rmax.value == rmin.value.conjugate()
        assert rmax.main_term == rmin.main_term.conjugate()

    def test_max_orientation_against_oracle(self):
        pmax = make_problem("-(T*(x^2 + x^3/3))", "1/(1+x^2)", -0.5, 0.5, n=2,
                            T=2048.0)
        res = stationary_phase_expand(pmax)
        oracle = oscillatory_quadrature(pmax)
        assert abs(res.value - oracle) <= 10 * res.error_scale

    def test_near_endpoint_guard(self):
        p = make_problem("(x - 1e-8)^2 + (x - 1e-8)^3", "1", -1e-7, 1.0,
                         n=1, T=3.0, M=2.0)
        with pytest.raises((StationaryTooCloseToEndpoint, StationaryPointError)):
            stationary_phase_expand(p)

    def test_degenerate_gamma_is_refused(self):
        # f'' vanishes at the stationary point of x^4: no Gaussian main term.
        p = make_problem("T*x^4", "1", -1.0, 1.0, n=2, T=16.0)
        with pytest.raises(DegenerateStationaryPoint,
                           match=r"f''\(gamma\) = 3.997e-33 within tolerance of zero"):
            stationary_phase_expand(p)

    def test_n1_flagged(self):
        p = make_problem("T*(x^2 + x^3/3)", "1", -0.5, 0.5, n=1, T=512.0)
        res = stationary_phase_expand(p)
        assert any("n = 1" in w for w in res.warnings)

    @pytest.mark.parametrize("f", ["T*(x^2 + x^3/3)", "-(T*(x^2 + x^3/3))"])
    @pytest.mark.parametrize("mp_dps", [None, 30])
    def test_n1_warns_once(self, f, mp_dps):
        p = make_problem(f, "1", -0.5, 0.5, n=1, T=512.0)
        warns = stationary_phase_expand(p, mp_dps=mp_dps).warnings
        assert [w for w in warns if "n = 1" in w] == [
            "n = 1: the expansion is certified for n >= 2 only"]
        assert len(set(warns)) == len(warns)

    @pytest.mark.parametrize("f", ["T*(x^2 + x^3/3)", "-(T*(x^2 + x^3/3))"])
    def test_kink_in_g_warned_in_both_orientations(self, f):
        p = make_problem(f, "abs(x-0.1)+1", -0.5, 0.5, n=2, T=2048.0)
        for mp_dps in (None, 30):
            kinks = [w for w in stationary_phase_expand(p, mp_dps=mp_dps).warnings
                     if "kink" in w]
            assert kinks == ["abs(...) in g has a kink inside [alpha, beta] "
                             "(offset 0); smoothness hypotheses fail"]

    @pytest.mark.parametrize("frozen", [True, False])
    def test_mp_maximum_is_the_conjugate_of_minus_f(self, monkeypatch, frozen):
        # The one path gives exactly conj of the -f expansion at the working
        # precision.  The frozen rounding then keeps each imaginary part at
        # 53 bits, the numbers of the former path that the benchmark
        # reference holds.
        if not frozen:
            monkeypatch.setattr("oscphase.expansion._frozen_max_rounding",
                                lambda res: res)
        args = ("1/(1+x^2)", -0.5, 0.5, 2)
        pmin = make_problem("T*(x^2 + x^3/3)", *args, T=2048.0)
        pmax = make_problem("-(T*(x^2 + x^3/3))", *args, T=2048.0)
        rmin = stationary_phase_expand(pmin, mp_dps=30)
        rmax = stationary_phase_expand(pmax, mp_dps=30)
        assert rmax.orientation == "max"
        with mpmath.workdps(30):
            fields = [(name, getattr(rmax, name), getattr(rmin, name))
                      for name in ("value", "main_term", "boundary_alpha",
                                   "boundary_beta")]
            fields += [("per_order_main", z, w) for z, w in
                       zip(rmax.per_order_main, rmin.per_order_main)]
            for name, z, w in fields:
                exact = mpmath.conj(w)
                assert z.real == exact.real, name
                if frozen:
                    assert z.imag == mpmath.mpf(float(exact.imag)), name
                else:
                    assert z.imag == exact.imag, name
                    assert z.imag != mpmath.mpf(float(z.imag)), name

    def test_maximum_compiles_only_the_tapes_of_f_and_g(self, monkeypatch):
        p = make_problem("-(T*(x^2 + x^3/3))", "1/(1+x^2)", -0.5, 0.5, n=2,
                         T=2048.0)
        roots, original = [], exprs._compile

        def recording(e):
            roots.append(e)
            return original(e)

        monkeypatch.setattr(exprs, "_compile", recording)
        for mp_dps in (None, 30):
            assert stationary_phase_expand(p, mp_dps=mp_dps).orientation == "max"
        assert sorted(map(id, roots)) == sorted([id(p.f), id(p.g)])

    def test_per_order_dominance_when_valid(self):
        p = make_problem("T*(x^2 + x^3/100)", "1/(2+x)", -0.5, 0.5, n=2,
                         T=float(2 ** 22))
        res = stationary_phase_expand(p)
        assert res.audit.validity_ok
        mags = [abs(t) for t in res.per_order_main]
        assert mags[1] < mags[0] and mags[2] < mags[1]

    def test_mp_matches_float_pipeline(self):
        p = make_problem("T*(x^2 + x^3/3)", "1/(1+x^2)", -0.5, 0.5, n=2,
                         T=1024.0)
        res_f = stationary_phase_expand(p)
        res_mp = stationary_phase_expand(p, mp_dps=35)
        assert complex(res_mp.value) == pytest.approx(res_f.value, rel=1e-13)

    def test_float_and_mp_read_the_problem_s_one_grid(self):
        # f' has three zeros 0.004 apart near 0.3: 64 points see one sign
        # change, 512 points see three.  The mp run used to rescan on 512.
        p = make_problem("T*((x-0.3)^4/4 - 0.004^2*(x-0.3)^2/2)",
                         "1/(1+x^2)", 0.0, 1.0, n=2, T=1e6, scan_points=64)
        res_f = stationary_phase_expand(p)
        res_mp = stationary_phase_expand(p, mp_dps=30)
        assert res_mp.gamma == res_f.gamma
        assert complex(res_mp.value) == pytest.approx(res_f.value, rel=1e-12)

    @pytest.mark.parametrize("expand", [stationary_phase_expand,
                                        first_derivative_test])
    def test_mp_dps_is_keyword_only(self, expand):
        # A positional 512, once a grid density, must not run 512 digits.
        p = make_problem("T*(x^2 + x^3/3)", "1", -0.5, 0.5, n=2, T=1024.0)
        with pytest.raises(TypeError):
            expand(p, 512)


class TestWalkCount:
    """Scans read the problem's grid sample instead of walking per point."""

    CONFIG = (pathlib.Path(__file__).resolve().parents[1]
              / "configs" / "stationary_cubic.cfg")

    @pytest.mark.parametrize("mp_dps", [None, 30])
    @pytest.mark.parametrize("orientation", ["min", "max"])
    def test_expand_walks_each_expression_few_times(self, monkeypatch,
                                                    orientation, mp_dps):
        cfg = parse_config(self.CONFIG.read_text())
        if orientation == "max":
            cfg.f = f"-({cfg.f})"
        p = cfg.to_problem()
        calls = []
        original = exprs.eval_jet

        def counting(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        # Wrap every binding, as a name imported into another module is one.
        for name, module in list(sys.modules.items()):
            if module is not None and name.split(".")[0] == "oscphase":
                for attr, value in list(vars(module).items()):
                    if value is original:
                        monkeypatch.setattr(module, attr, counting)
        res = stationary_phase_expand(p, mp_dps=mp_dps)
        assert res.orientation == orientation
        assert len(calls) <= 100


    @pytest.mark.parametrize("mp_dps, runs", [(None, 18), (30, 19)])
    def test_expand_runs_few_tapes(self, monkeypatch, mp_dps, runs):
        # 27 and 28 when each reader of gamma, alpha and beta walked its own
        # jet or phase there; now each point is walked once per expression.
        p = parse_config(self.CONFIG.read_text()).to_problem()
        calls = []
        original = exprs._run
        monkeypatch.setattr(exprs, "_run",
                            lambda *args: calls.append(1) or original(*args))
        stationary_phase_expand(p, mp_dps=mp_dps)
        assert len(calls) <= runs


class TestErrorScaleTerms:
    def test_fourth_term_example(self):
        p = make_problem("T*(x^2 + x^3/3)", "1/(1+x^2)", -0.5, 0.5, n=2, T=1e4)
        terms = error_scale_terms(p, 0.0)
        assert terms[3] == pytest.approx(2e-12, rel=1e-12)

    def test_doubling_T_shrinks_every_term(self):
        p1 = make_problem("T*(x^2 + x^3/3)", "1/(1+x^2)", -0.5, 0.5, n=2, T=1e4)
        p2 = dataclasses.replace(p1, T=2e4)
        t1 = error_scale_terms(p1, 0.0)
        t2 = error_scale_terms(p2, 0.0)
        for a, b in zip(t1, t2):
            assert b <= a * 2.0 ** -(p1.n + 1) * 1.0000001

    def test_endpoint_divergence(self):
        p = make_problem("T*(x^2 + x^3/3)", "1/(1+x^2)", -0.5, 0.5, n=2, T=1e4)
        near = error_scale_terms(p, -0.5 + 1e-4)
        far = error_scale_terms(p, 0.0)
        assert near[1] > far[1] * 1e10

    def test_gamma_at_endpoint_rejected(self):
        p = make_problem("T*(x^2 + x^3/3)", "1", -0.5, 0.5, n=2, T=1e4)
        with pytest.raises(StationaryTooCloseToEndpoint):
            error_scale_terms(p, -0.5)


class TestHypothesisAudit:
    def test_worked_quadratic_example(self):
        p = make_problem("T*x^2", "1", -1.0, 1.0, n=2, T=50.0, M=2.0)
        a = hypothesis_audit(p)
        assert a.C_f[2] == pytest.approx(8.0)
        assert a.Delta == pytest.approx(1.0 / 512.0)
        assert a.r1 == pytest.approx(1.0, rel=1e-12)
        assert a.r2 == pytest.approx(1.0, rel=1e-12)
        assert a.r == pytest.approx(min(1.0, 2.0 / 512.0))
        assert a.M_ok

    def test_validity_condition(self):
        base = make_problem("T*x^2", "1", -1.0, 1.0, n=2, T=50.0, M=2.0)
        # Delta = 1/512: validity needs T^(1/7) > 512, false even at T = 2^20
        a = hypothesis_audit(dataclasses.replace(base, T=float(2 ** 20)))
        assert a.Delta == pytest.approx(1.0 / 512.0)
        assert not a.validity_ok
        a1 = hypothesis_audit(dataclasses.replace(base, T=1.0))
        assert not a1.validity_ok

    def test_fpp_sign_violation_reported_not_thrown(self):
        p = make_problem("x^2 + x^3", "1", -0.35, 0.5, n=1, T=1.0, M=1.0)
        a = hypothesis_audit(p)  # f'' < 0 near -0.35
        assert not a.C2_lower_ok

    @pytest.mark.parametrize("f, g, alpha, beta", [
        ("T*(x^2 + x^3/3)", "1/(1+x^2)", -0.99, 0.5),  # gamma, sigma*f'' > 0
        ("x^2 + x^3", "1", -0.35, 0.5),  # gamma, f'' changes sign
        ("T*(x + x^2/4)", "1 + x", 0.0, 1.0),  # monotone, no gamma
    ])
    def test_f_and_minus_f_give_the_same_report(self, f, g, alpha, beta):
        a = hypothesis_audit(make_problem(f, g, alpha, beta, n=2, T=2.0 ** 20))
        b = hypothesis_audit(make_problem(f"-({f})", g, alpha, beta, n=2,
                                          T=2.0 ** 20))
        flip = {"- to +": "+ to -", "+ to -": "- to +", "f' > 0": "f' < 0"}
        for old, new in flip.items():
            if old in a.sign_profile:
                assert b.sign_profile == a.sign_profile.replace(old, new)
                break
        else:
            raise AssertionError(a.sign_profile)
        assert (dataclasses.replace(a, sign_profile="")
                == dataclasses.replace(b, sign_profile=""))

    def test_maximum_reports_its_own_curvature_bound(self):
        p = make_problem("-T*(x^2 + x^3/3)", "1/(1+x^2)", -0.99, 0.5, n=2,
                         T=2.0 ** 20)
        res = stationary_phase_expand(p)
        assert res.audit.C2_lower_ok and res.orientation == "max"
        assert res.audit.Delta == pytest.approx(8.754e-5, rel=1e-3)
        assert not any("sigma*f''" in w for w in res.warnings)
        assert "maximum orientation: sigma = -1 (f''(gamma) < 0)" in res.warnings

    def test_fpp_squared_beyond_float_range_reports_zero_delta(self):
        # C_f[2]^2 ~ 1e602 overflows; the audit reports Delta = 0 and the
        # expansion (whose order-j terms fall below the float range) runs.
        p = make_problem("(x-0.1)^2*1e300", "1", -1.0, 1.3, n=2, T=1.0)
        audit = hypothesis_audit(p)
        assert audit.Delta == 0.0 and not audit.validity_ok
        res_f = expand_auto(p)
        res_mp = expand_auto(p, mp_dps=30)
        assert res_f.value == pytest.approx(5e-151 * (1 + 1j), rel=1e-12)
        assert abs(complex(res_mp.value) - res_f.value) <= 1e-12 * abs(res_f.value)

    def test_monotone_profile(self):
        p = make_problem("100*x", "1", 1.0, 2.0, n=2, T=100.0)
        a = hypothesis_audit(p)
        assert "f' > 0" in a.sign_profile
        assert math.isnan(a.r)

    def test_abs_kink_flagged(self):
        p = make_problem("T*(x^2 + x^3/3)", "abs(x - 0.21)", -0.5, 0.5,
                         n=2, T=100.0)
        a = hypothesis_audit(p)
        assert any("kink" in w for w in a.warnings)

    @pytest.mark.parametrize("g, offsets", [
        ("abs(x-0.3)*(1+abs(x-0.3))", [0]),
        ("abs(x-0.3)*(1+abs(x+0.2))", [0, 14]),
    ])
    def test_one_kink_warning_per_distinct_abs(self, g, offsets):
        p = make_problem("T*(x^2 + x^3/3)", g, -0.5, 0.5, n=2, T=100.0)
        kinks = [w for w in hypothesis_audit(p).warnings if "kink" in w]
        assert kinks == [f"abs(...) in g has a kink inside [alpha, beta] "
                         f"(offset {k}); smoothness hypotheses fail"
                         for k in offsets]


KINK = ("abs(...) in g has a kink inside [alpha, beta] (offset 0); "
        "smoothness hypotheses fail")
POLE = ("a divisor in g changes sign inside [alpha, beta], a pole or a jump "
        "(offset 1); smoothness hypotheses fail")


class TestSmoothnessWarnings:
    @pytest.mark.parametrize("f, g, alpha, beta, T, theorem, warning", [
        ("T*(x + x^2/10)", "abs(x - 1.4)", 1.0, 2.0, 16.0, "fdt", KINK),
        ("T*(x + x^2/10)", "1/(x - 1.4144667855116144)", 1.0, 2.0, 16.0,
         "fdt", POLE),
        ("T*(x^2 + x^3/3)", "1/(x - 0.3123)", -0.5, 0.5, 4096.0, "wsp", POLE),
    ])
    def test_audit_and_both_paths_warn(self, f, g, alpha, beta, T, theorem,
                                       warning):
        p = make_problem(f, g, alpha, beta, n=2, T=T)
        assert hypothesis_audit(p).warnings == (warning,)
        for mp_dps in (None, 30):
            res = expand_auto(p, mp_dps=mp_dps)
            assert res.theorem == theorem
            assert [w for w in res.warnings if "smoothness" in w] == [warning]

    @pytest.mark.parametrize("f, g, alpha, beta, T", [
        ("T*(x + x^2/10)", "1/x", 1.0, 2.0, 16.0),
        ("T*(x^2 + x^3/3)", "1/(x + 0.7)", -0.5, 0.5, 4096.0),
    ])
    def test_divisor_that_keeps_its_sign_is_not_warned(self, f, g, alpha,
                                                       beta, T):
        p = make_problem(f, g, alpha, beta, n=2, T=T)
        assert hypothesis_audit(p).warnings == ()
        for mp_dps in (None, 30):
            assert not [w for w in expand_auto(p, mp_dps=mp_dps).warnings
                        if "smoothness" in w]

    def test_scan_walks_no_tape_of_its_own(self, monkeypatch):
        # The grid walks of f and g note the kinks and sign changes.
        runs = {}
        for g in ("1/(x + 1)", "abs(x - 1.4)", "1/(x - 1.4144667855116144)"):
            p = make_problem("T*(x + x^2/10)", g, 1.0, 2.0, n=2, T=16.0)
            calls = []
            original = exprs._run
            monkeypatch.setattr(exprs, "_run",
                                lambda *args: calls.append(1) or original(*args))
            first_derivative_test(p)
            monkeypatch.undo()
            runs[g] = len(calls)
        assert len(set(runs.values())) == 1, runs


class TestUnitPhase:
    def test_large_integer_phase_is_exact(self):
        p = make_problem("100*x", "1", 1.0, 2.0, n=2, T=100.0)
        assert unit_phase(p, 2.0) == 1.0 + 0.0j

    def test_eighth_offset(self):
        p = make_problem("x", "1", 0.0, 1.0, n=1, T=1.0, M=1.0)
        val = unit_phase(p, 0.0, extra=0.125)
        expected = complex(math.sqrt(0.5), math.sqrt(0.5))
        assert val == pytest.approx(expected, rel=1e-15)

    def test_phase_overflowing_at_an_end_raises_typed_without_warnings(self):
        # f(1.3) = 1.44e400 overflows float64; the table index of its NaN
        # turn used to be -2^63 (an IndexError).
        p = make_problem("(x-0.1)^2*1e200*1e200", "1", -1.0, 1.3, n=2, T=1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFinitePhaseError, match=r"f\(1\.3\)"):
                expand_auto(p)
