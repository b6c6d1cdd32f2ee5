import math
from dataclasses import replace

import mpmath
import numpy as np
import pytest

from oscphase.coefficients import (PhaseProblem, amplitude_series,
                                   bisect_fprime, compute_coefficients,
                                   find_stationary_point, grid_jet,
                                   infer_T, make_problem, mp_coefficients,
                                   recursion_coefficients, residual_Q,
                                   solve_x_of_y, taylor_data)
from oscphase.errors import (ConfigError, DegenerateStationaryPoint,
                             ExprDomainError, MultipleSignChanges,
                             NewtonError, NoSignChange, StationaryAtEndpoint)
from oscphase.expansion import stationary_phase_expand

# Reversion ground truth for lambda_2 = lambda_3 = 1, g = 1: dx/dy for
# y = t*sqrt(1+t), derived independently (hand reversion / sympy check in
# test_frozen_varpi_against_sympy below).
VARPI_CUBIC = (1.0, -1.0, 15.0 / 8.0, -4.0, 1155.0 / 128.0, -21.0)


class TestFindStationaryPoint:
    def test_quadratic(self):
        p = make_problem("x^2", "1", -1.0, 1.0, n=2)
        assert abs(find_stationary_point(p)) < 1e-14

    def test_monotone_raises(self):
        p = make_problem("100*(x + x^2/10)", "1", 1.0, 2.0, n=2, T=100.0)
        with pytest.raises(NoSignChange):
            find_stationary_point(p)

    def test_multiple_sign_changes(self):
        # f' = 2 T x (2 x^2 - 1) has three zeros in (-1, 1)
        p = make_problem("T*(x^4 - x^2)", "1", -1.0, 1.0, n=2, T=16.0)
        with pytest.raises(MultipleSignChanges):
            find_stationary_point(p)

    def test_endpoint_stationary(self):
        p = make_problem("x^2", "1", 0.0, 1.0, n=1, T=2.0)
        with pytest.raises((StationaryAtEndpoint, NoSignChange)):
            find_stationary_point(p)

    def test_offcenter(self):
        p = make_problem("(x-0.3)^2 + (x-0.3)^3", "1", -0.1, 0.6, n=1, T=3.0)
        assert find_stationary_point(p) == pytest.approx(0.3, abs=1e-13)


    def test_weight_undefined_at_an_end_is_not_evaluated(self):
        # log(x+0.5) has no value at alpha; locating gamma reads only f'.
        p = make_problem("x^2", "log(x+0.5)", -0.5, 0.5, n=2, T=1.0)
        assert find_stationary_point(p) == 0.0

    def test_monotone_with_weight_undefined_at_an_end(self):
        p = make_problem("T*x", "sqrt(x-1)", 1.0, 2.0, n=2, T=16.0)
        with pytest.raises(NoSignChange):
            find_stationary_point(p)

    def test_newton_two_cycle_stops_on_the_iterate_sixty_steps_reach(
            self, monkeypatch):
        # Newton alternates between two adjacent floats on this cubic.
        spec = ("2048.0*(x*(0.57284522 + x*(1.11382 + 0.14*x)))",
                "1/(1 + 1.46*x^2)", -0.758, 0.204)

        # The Newton loop as it ran before cycles were detected: all 60 steps.
        p = make_problem(*spec, n=2)
        gamma = bisect_fprime(p, *p.sample().sign_changes()[0], steps=48)
        iterates = []
        for _ in range(60):
            d1, d2 = p.fprime2(gamma)
            step = d1 / d2
            new = gamma - step
            assert d2 != 0.0 and p.alpha <= new <= p.beta and new != gamma
            gamma = new
            assert abs(step) > 1e-17 * max(abs(gamma), p.beta - p.alpha)
            iterates.append(gamma)
        assert len(set(iterates)) == 2

        calls = []
        fprime2 = PhaseProblem.fprime2
        monkeypatch.setattr(PhaseProblem, "fprime2",
                            lambda self, x: calls.append(x) or fprime2(self, x))
        found = find_stationary_point(make_problem(*spec, n=2))
        assert len(calls) < 60
        assert found.hex() == gamma.hex() == "-0x1.15810624dd2f2p-2"

    def test_newton_two_cycle_entered_late_ends_where_sixty_steps_would(
            self, monkeypatch):
        # A stub Newton map 0 -> 1/8 -> 1/4 -> 1/8 -> ...: the repeat shows
        # at an odd step, so the 60th iterate is 1/4, not the 1/8 just
        # reached.  Bisection stops at once on the zero stub f'.
        after = {0.0: 0.125, 0.125: 0.25, 0.25: 0.125}
        monkeypatch.setattr(PhaseProblem, "fprime", lambda self, x: 0.0)
        monkeypatch.setattr(PhaseProblem, "fprime2",
                            lambda self, x: (x - after[x], 1.0))
        p = make_problem("x^2", "1", -1.0, 1.0, n=2, T=1.0, scan_points=513)
        assert find_stationary_point(p) == 0.25

    def test_nan_fprime_at_gamma_raises(self, monkeypatch):
        # Bisection reads f' from grid walks and Newton reads fprime2, so
        # only the final check sees the stub; NaN must not pass it.
        monkeypatch.setattr(PhaseProblem, "fprime", lambda self, x: math.nan)
        p = make_problem("x^2 + x^3", "1", -0.25, 0.5, n=2, T=0.89)
        with pytest.raises(NewtonError, match="nan"):
            find_stationary_point(p)



def serial_bisect(p, lo, hi, flo, steps):
    """The bisection as a loop of scalar f' walks, one per step."""
    for _ in range(steps):
        mid = 0.5 * (lo + hi)
        fm = p.fprime(mid)
        if fm == 0.0:
            return mid
        if (fm > 0) == (flo > 0):
            lo, flo = mid, fm
        else:
            hi = mid
    return 0.5 * (lo + hi)


class TestBisection:
    """bisect_fprime reads f' on a tree of midpoints per grid walk and must
    return the bits of the loop it replaces."""

    CUBIC = ("2048.0*(x*(0.57284522 + x*(1.11382 + 0.14*x)))",
             "1/(1 + 1.46*x^2)", -0.758, 0.204)

    @pytest.mark.parametrize("spec, steps", [
        (CUBIC, 48),
        (("T*cos(x + 0.1)", "1", -1.0, 1.0), 48),
        (("T*log(2 + x)*sin(x + 0.2)", "1", -1.0, 1.0), 48),
        (CUBIC, 60),  # the oracle's breakpoint call
    ])
    def test_same_bits_as_the_loop(self, spec, steps):
        p = make_problem(*spec, n=2, T=64.0)
        brackets = p.sample().sign_changes()
        assert brackets
        for bracket in brackets:
            want = serial_bisect(p, *bracket, steps)
            assert bisect_fprime(p, *bracket, steps).hex() == want.hex()

    def test_exact_zero_at_a_midpoint(self):
        # f' = 2 (x - 0.25): the second midpoint of [0, 1] is its zero.
        p = make_problem("(x-0.25)^2", "1", 0.0, 1.0, n=2, T=1.0)
        for steps in (48, 60):
            got = bisect_fprime(p, 0.0, 1.0, p.fprime(0.0), steps)
            assert got == serial_bisect(p, 0.0, 1.0, p.fprime(0.0), steps)
            assert got == 0.25

    def test_domain_error_off_the_path(self):
        # f is undefined at -0.5, a tree midpoint of [-1, 1] that the path
        # to the zero of f' at 0.3 never reaches: the grid walk raises there,
        # and the loop's scalar walks do not.
        p = make_problem("(x-0.3)^2 + 1e-300/(x+0.5)", "1", -1.0, 1.0, n=2,
                         T=1.0)
        flo = p.fprime(-1.0)
        want = serial_bisect(p, -1.0, 1.0, flo, 48)
        assert bisect_fprime(p, -1.0, 1.0, flo, 48).hex() == want.hex()

    def test_one_walk_per_tree(self, monkeypatch):
        import oscphase.coefficients as coefficients

        p = make_problem(*self.CUBIC, n=2)
        bracket = p.sample().sign_changes()[0]
        calls = []
        eval_jet = coefficients.eval_jet
        monkeypatch.setattr(coefficients, "eval_jet",
                            lambda *args: calls.append(1) or eval_jet(*args))
        bisect_fprime(p, *bracket, steps=48)
        assert len(calls) <= 8


class TestHeldJets:
    """PhaseProblem.hold_jets: f and g walked once per held point, and every
    reader of that point served by truncation, bit for bit."""

    SPEC = ("T*(x^2 + x^3/3)", "1/(1+x^2)", -0.5, 0.5)

    @staticmethod
    def fresh():
        return make_problem(*TestHeldJets.SPEC, n=2, T=16384.0)

    def test_truncations_match_walks_at_each_degree(self):
        p, ref = self.fresh(), self.fresh()
        points = (0.1, p.alpha, p.beta)
        p.hold_jets(points, 6, 4)
        for x in points:
            for degree in range(1, 7):
                got, want = p.f_jet(x, degree), ref.f_jet(x, degree)
                assert [c.hex() for c in got.coeffs] == [
                    c.hex() for c in want.coeffs]
            for degree in range(1, 5):
                assert p.g_jet(x, degree).coeffs == ref.g_jet(x, degree).coeffs
            assert p.f_dd(x) == ref.f_dd(x)

    def test_one_walk_per_point_and_expression(self, monkeypatch):
        import oscphase.coefficients as coefficients

        p = self.fresh()
        p.hold_jets((0.1, p.alpha, p.beta), 6, 4)
        p.hold_jets((0.1,), 9, 9)  # already held: keeps its degrees
        calls = []
        eval_jet, eval_dd = coefficients.eval_jet, coefficients.eval_dd
        monkeypatch.setattr(coefficients, "eval_jet",
                            lambda *args: calls.append(1) or eval_jet(*args))
        monkeypatch.setattr(coefficients, "eval_dd",
                            lambda *args: calls.append(2) or eval_dd(*args))
        for x in (0.1, p.alpha, p.beta):
            p.f_jet(x, 6), p.f_jet(x, 2), p.g_jet(x, 4), p.f_dd(x)
        assert sorted(calls) == [1] * 6 + [2]  # one dd walk for all three
        p.f_jet(0.2, 2), p.f_jet(0.1, 7), p.f_dd(0.2)  # not held, or too high
        assert sorted(calls) == [1] * 8 + [2] * 2

    def test_failed_walk_raises_again_and_holds_nothing(self):
        p = make_problem("x^2", "1/(x - 0.5)", -0.5, 0.5, n=2, T=1.0)
        p.hold_jets((0.0, p.beta), 6, 4)
        for _ in range(2):
            with pytest.raises(ExprDomainError, match="division by a jet"):
                p.g_jet(p.beta, 1)
        assert p.g_jet(0.0, 4).coeffs == (-2.0, -4.0, -8.0, -16.0, -32.0)

    def test_mp_jets_are_held_per_working_precision(self):
        # gamma = 0 exactly at every precision, so only the precision in the
        # key keeps a 30-digit jet out of a 50-digit run.
        p = self.fresh()
        stationary_phase_expand(p, mp_dps=30)
        got = mp_coefficients(p, 50)
        assert got == mp_coefficients(self.fresh(), 50)
        assert got != mp_coefficients(self.fresh(), 30)

    def test_signed_zero_points_are_held_apart(self):
        p = make_problem("T*x", "1", -1.0, 1.0, n=1, T=1.0)
        p.hold_jets((0.0,), 2, 2)
        p.f_jet(0.0, 2)
        assert p.f_jet(-0.0, 1).coeffs[0].hex() == "-0x0.0p+0"


class TestMakeProblem:
    def test_inferring_T_walks_f_on_the_scan_grid_once(self, monkeypatch):
        import oscphase.coefficients as coefficients

        walks = []
        eval_jet = coefficients.eval_jet

        def counting(e, x_jet, *args):
            if np.size(x_jet.base_point) == coefficients.SCAN_POINTS:
                walks.append(e)
            return eval_jet(e, x_jet, *args)

        monkeypatch.setattr(coefficients, "eval_jet", counting)
        p = make_problem("4096*(x^2 + x^3/3)", "1/(1+x^2)", -0.5, 0.5, n=2)
        assert p.T == 2.0 * 4096 * 1.5  # max |f''| = 2*4096*(1 + 0.5)
        stationary_phase_expand(p)
        assert walks == [p.f, p.g]

    def test_f_reading_T_needs_T_even_when_params_bind_it(self):
        # The problem binds T itself, so the params' T would not be the T
        # that f is integrated with.
        with pytest.raises(ConfigError, match="T is required"):
            make_problem("T*x^2", "1", -1.0, 1.0, n=2, params={"T": 2.0})

    def test_T_is_inferred_on_the_problem_s_own_grid(self):
        # |f''| = 49 |sin(7x)| peaks between the points of either grid, so
        # the 64- and 512-point grids give different T.
        args = ("sin(7*x)", "1", -0.5, 0.5, 2)
        p = make_problem(*args, scan_points=64)
        assert len(p.sample().xs) == 64
        assert p.T == infer_T(p.sample().f, p.M)
        walk = grid_jet(p.f, np.linspace(-0.5, 0.5, 64), 2, p.bindings)
        assert p.T == infer_T(walk, p.M) != make_problem(*args).T

    @pytest.mark.parametrize("points", [0, 1])
    def test_scan_points_are_checked_before_T_is_inferred(self, points):
        with pytest.raises(ValueError, match="scan_points must be at least 2"):
            make_problem("x^2", "1", -1.0, 1.0, n=2, scan_points=points)

    def test_replace_keeps_the_grid(self):
        p = make_problem("x^2", "1", -1.0, 1.0, n=2, T=4.0, scan_points=64)
        q = replace(p, T=8.0)
        assert q.scan_points == 64 and len(q.sample().xs) == 64
        assert q.sample() is not p.sample()

    @pytest.mark.parametrize("field, kwargs", [
        ("alpha", {"alpha": math.nan}),
        ("beta", {"beta": math.inf}),
        ("alpha", {"alpha": -math.inf}),
        ("M", {"M": math.nan}),
        ("M", {"M": math.inf}),
        ("N", {"N": math.nan}),
        ("T", {"T": math.nan}),
        ("T", {"T": math.inf}),
        ("U", {"U": math.inf}),
        ("parameter c", {"params": {"c": math.nan}}),
        ("parameter c", {"params": {"c": -math.inf}}),
    ])
    def test_non_finite_inputs_are_refused(self, field, kwargs):
        args = {"alpha": -1.0, "beta": 1.0, "T": 4.0, **kwargs}
        with pytest.raises(ValueError, match=f"^{field} must be"):
            make_problem("T*x^2", "1 + c*x", n=2, **args)

    @pytest.mark.parametrize("name", ["x", "T", "M", "N", "U"])
    def test_a_parameter_the_problem_binds_is_refused(self, name):
        # params={"M": 100} with g = 1 + M*x used to give g = 1 + 2*x.
        with pytest.raises(ValueError, match=f"^parameter {name} would be "
                                             "ignored: the problem binds"):
            make_problem("T*x^2", "1 + M*x", -1.0, 1.0, n=2, T=100.0,
                         params={name: 100.0})


class TestTaylorData:
    def test_cubic(self, cubic_problem):
        lam, eta = taylor_data(cubic_problem, 0.0)
        assert lam[2] == pytest.approx(1.0)
        assert lam[3] == pytest.approx(1.0)
        assert all(abs(v) < 1e-14 for v in lam[4:])
        assert eta[0] == 1.0 and all(v == 0 for v in eta[1:])

    def test_scaled_quadratic(self):
        p = make_problem("T*x^2", "1", -1.0, 1.0, n=2, T=50.0)
        lam, _ = taylor_data(p, 0.0)
        assert lam[2] == pytest.approx(50.0)

    def test_degenerate(self):
        p = make_problem("x^4", "1", -1.0, 1.0, n=1, T=12.0)
        with pytest.raises(DegenerateStationaryPoint):
            taylor_data(p, 0.0)


class TestOrientation:
    """A maximum's coefficients are those of -f, read from f's own jets."""

    F = "x^2 + x^3"

    def pair(self, n=2):
        args = ("1/(1+x^2)", -0.25, 0.5, n)
        return (make_problem(f"-({self.F})", *args, T=0.89),
                make_problem(self.F, *args, T=0.89))

    def test_maximum_coefficients_equal_those_of_minus_f(self):
        pmax, pmin = self.pair()
        cs = compute_coefficients(pmax)
        assert cs.lam[2] > 0
        assert cs == compute_coefficients(pmin)
        assert mp_coefficients(pmax, dps=30) == mp_coefficients(pmin, dps=30)

    @pytest.mark.parametrize("y", [0.05, -0.1, 0.2])
    def test_maximum_residual_equals_that_of_minus_f(self, y):
        pmax, pmin = self.pair(n=1)
        q = residual_Q(pmax, compute_coefficients(pmax), y)
        assert q == residual_Q(pmin, compute_coefficients(pmin), y)
        assert abs(q) <= 10.0 * abs(y) ** 3
        assert q != 0.0


class TestAmplitudeSeries:
    def test_pure_quadratic(self):
        lam = [0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0]
        eta = [1.0, 0.0, 0.0, 0.0, 0.0]
        _, rho, varpi = amplitude_series(lam, eta, 4)
        assert rho == (1.0, 0.0, 0.0, 0.0, 0.0)
        assert varpi == (1.0, 0.0, 0.0, 0.0, 0.0)

    def test_cubic_frozen_values(self):
        lam = [0.0, 0.0, 1.0, 1.0, 0.0, 0.0, 0.0]
        eta = [1.0, 0.0, 0.0, 0.0, 0.0]
        _, _, varpi = amplitude_series(lam, eta, 4)
        for got, want in zip(varpi, VARPI_CUBIC):
            assert got == pytest.approx(want, rel=1e-13)

    def test_scale_invariance(self):
        # only lambda_2 nonzero: y = x - gamma up to scale, dx/dy = 1
        lam = [0.0, 0.0, 4.0, 0.0, 0.0, 0.0, 0.0]
        eta = [3.5, 0.0, 0.0, 0.0, 0.0]
        _, rho, varpi = amplitude_series(lam, eta, 4)
        assert varpi[0] == pytest.approx(3.5)
        assert all(abs(v) < 1e-14 for v in varpi[1:])

    def test_frozen_varpi_against_sympy(self):
        sympy = pytest.importorskip("sympy")
        t, y = sympy.symbols("t y")
        order = 7
        series = sympy.series(t * sympy.sqrt(1 + t), t, 0, order).removeO()
        tt = y
        for _ in range(order + 2):
            tt = sympy.expand(y - (series.subs(t, tt) - tt))
            poly = sympy.Poly(tt, y).all_coeffs()[::-1]
            tt = sum(c * y ** i for i, c in enumerate(poly) if i < order)
        dxdy = sympy.expand(sympy.diff(tt, y))
        coeffs = sympy.Poly(dxdy, y).all_coeffs()[::-1]
        for got, want in zip(VARPI_CUBIC, coeffs):
            assert float(want) == got


class TestRecursionCoefficients:
    def test_trivial_bracket(self):
        lam = [0.0, 0.0, 2.0, 0.0, 0.0, 0.0, 0.0]
        eta = [0.3, -0.2, 0.5, 0.0, 0.1]
        mu, eta_prime, varpi_check = recursion_coefficients(lam, eta, 4)
        for j in range(1, 6):
            assert all(abs(v) < 1e-15 for v in mu[j][1:])
        assert eta_prime == tuple(eta)
        assert varpi_check == tuple(eta)

    def test_mu_11_is_half(self):
        lam = [0.0, 0.0, 1.0, 1.0, 0.0, 0.0, 0.0]
        eta = [1.0, 0.0, 0.0, 0.0, 0.0]
        mu, _, varpi_check = recursion_coefficients(lam, eta, 4)
        assert mu[1][1] == pytest.approx(0.5)
        assert varpi_check[2] == pytest.approx(15.0 / 8.0, rel=1e-13)

    def test_eta_prime_identities(self):
        rng = np.random.default_rng(5)
        lam = [0.0, 0.0, 1.3] + [0.3 * float(rng.uniform(-1, 1)) for _ in range(4)]
        eta = [float(rng.uniform(-1, 1)) for _ in range(5)]
        _, eta_prime, _ = recursion_coefficients(lam, eta, 4)
        assert eta_prime[0] == eta[0]
        assert eta_prime[1] == eta[1]

    def test_expansions_do_not_run_it(self, monkeypatch):
        # The recursion route is the tests' reference; an expansion, float
        # or mpmath, runs only the series route.
        from oscphase import coefficients
        calls = []
        route = coefficients.recursion_coefficients

        def counting(*args):
            calls.append(args)
            return route(*args)

        monkeypatch.setattr(coefficients, "recursion_coefficients", counting)
        for mp_dps in (None, 30):
            p = make_problem("T*(x^2 + x^3/3)", "1/(1+x^2)", -0.5, 0.5,
                             n=2, T=1024.0)
            result = stationary_phase_expand(p, mp_dps=mp_dps)
            assert result.theorem == "wsp" and result.coefficients is not None
        assert calls == []


class TestCrossRoute:
    def test_random_sets_agree_and_reflect(self):
        rng = np.random.default_rng(99)
        for _ in range(40):
            n = int(rng.integers(1, 5))
            order = 2 * n
            lam2 = float(rng.uniform(0.5, 2.0))
            lam = [0.0, 0.0, lam2] + [float(rng.uniform(-0.3, 0.3)) * lam2
                                      for _ in range(order)]
            eta = [float(rng.uniform(-1, 1)) for _ in range(order + 1)]
            _, rho, varpi = amplitude_series(lam, eta, order)
            _, _, varpi_check = recursion_coefficients(lam, eta, order)
            for a, b in zip(varpi, varpi_check):
                assert abs(a - b) <= max(1e-10 * abs(b), 1e-12)
            lam_r = [v * (-1) ** k for k, v in enumerate(lam)]
            eta_r = [v * (-1) ** k for k, v in enumerate(eta)]
            _, _, varpi_r = amplitude_series(lam_r, eta_r, order)
            for k, (a, b) in enumerate(zip(varpi, varpi_r)):
                assert abs(a - (-1) ** k * b) <= max(1e-10 * abs(a), 1e-12)

    def test_varpi_size_bound(self):
        # |varpi_k| <= c * U * (N^-k + M^-k) with c <= 100, U fitted from g
        rng = np.random.default_rng(17)
        for _ in range(40):
            n = int(rng.integers(1, 5))
            order = 2 * n
            lam2 = float(rng.uniform(0.5, 2.0))
            lam = [0.0, 0.0, lam2] + [float(rng.uniform(-0.3, 0.3)) * lam2
                                      for _ in range(order)]
            eta = [float(rng.uniform(-1, 1)) for _ in range(order + 1)]
            _, _, varpi = amplitude_series(lam, eta, order)
            u_fit = max(abs(v) * math.factorial(k) for k, v in enumerate(eta))
            u_fit = max(u_fit, 1e-6)
            for k, v in enumerate(varpi):
                assert abs(v) <= 100.0 * u_fit * 2.0  # M = N = 1


class TestResidualQ:
    def test_pure_quadratic_polynomial_weight_is_exact(self):
        p = make_problem("T*x^2", "x^2 + 2", -1.0, 1.0, n=2, T=3.0)
        cs = compute_coefficients(p)
        for y in (0.3, -0.4, 0.11):
            assert abs(residual_Q(p, cs, y)) < 1e-12

    def test_cubic_small_y_scaling(self, cubic_problem):
        import dataclasses
        p = dataclasses.replace(cubic_problem, n=1)
        cs = compute_coefficients(p)
        q1 = residual_Q(p, cs, 0.1)
        assert abs(q1) <= 10.0 * 0.1 ** 3
        ys = [0.1 * 2 ** -k for k in range(0, 4)]
        qs = [abs(residual_Q(p, cs, y)) for y in ys]
        slope = np.polyfit(np.log(ys), np.log(qs), 1)[0]
        assert slope >= 3 - 0.2

    def test_zero_rejected(self, cubic_problem):
        cs = compute_coefficients(cubic_problem)
        with pytest.raises(ValueError):
            residual_Q(cubic_problem, cs, 0.0)

    def test_out_of_range(self, cubic_problem):
        cs = compute_coefficients(cubic_problem)
        with pytest.raises(NewtonError):
            residual_Q(cubic_problem, cs, 5.0)

    def test_mp_pipeline_matches_float(self, cubic_problem):
        cs = compute_coefficients(cubic_problem)
        cs_mp = mp_coefficients(cubic_problem, dps=30)
        for k in range(cs.order + 1):
            assert float(cs_mp.varpi[k]) == pytest.approx(cs.varpi[k], rel=1e-12)
        with mpmath.workdps(30):
            q_mp = residual_Q(cubic_problem, cs_mp, mpmath.mpf("0.05"))
            q_f = residual_Q(cubic_problem, cs, 0.05)
            assert float(q_mp) == pytest.approx(q_f, rel=1e-6)


class TestSolveXOfY:
    def test_sign_matched_sides(self, cubic_problem):
        cs = compute_coefficients(cubic_problem)
        for y in (0.2, -0.12):
            x = solve_x_of_y(cubic_problem, cs.gamma, cs.lam[2], y)
            f_val = cubic_problem.f_value(x) - cubic_problem.f_value(cs.gamma)
            assert f_val == pytest.approx(cs.lam[2] * y * y, rel=1e-12)
            assert (x > cs.gamma) == (y > 0)
