import mpmath
import numpy as np
import pytest

from oscphase import ddmath


def to_mp(dd, i=None):
    if i is None:
        return mpmath.mpf(float(dd[0])) + mpmath.mpf(float(dd[1]))
    return mpmath.mpf(float(dd[0][i])) + mpmath.mpf(float(dd[1][i]))


@pytest.fixture(autouse=True)
def _mp_context():
    with mpmath.workdps(45):
        yield


def test_mul_and_add_are_error_free_for_doubles():
    rng = np.random.default_rng(0)
    a = rng.uniform(-1e6, 1e6, 40)
    b = rng.uniform(-1e3, 1e3, 40)
    prod = ddmath.mul(ddmath.from_float(a), ddmath.from_float(b))
    tot = ddmath.add(ddmath.from_float(a), ddmath.from_float(b))
    for i in range(40):
        assert to_mp(prod, i) == mpmath.mpf(a[i]) * mpmath.mpf(b[i])
        assert to_mp(tot, i) == mpmath.mpf(a[i]) + mpmath.mpf(b[i])


def test_div_sqrt_powi_reach_dd_accuracy():
    rng = np.random.default_rng(1)
    a = rng.uniform(0.5, 1e5, 40)
    b = rng.uniform(0.5, 1e3, 40)
    quot = ddmath.div(ddmath.from_float(a), ddmath.from_float(b))
    root = ddmath.sqrt(ddmath.from_float(a))
    pw = ddmath.powi(ddmath.from_float(b), 7)
    for i in range(40):
        assert abs(to_mp(quot, i) / (mpmath.mpf(a[i]) / mpmath.mpf(b[i])) - 1) < 1e-30
        assert abs(to_mp(root, i) / mpmath.sqrt(mpmath.mpf(a[i])) - 1) < 1e-30
        assert abs(to_mp(pw, i) / mpmath.mpf(b[i]) ** 7 - 1) < 1e-29


def test_frac_half_reduces_exactly():
    rng = np.random.default_rng(2)
    a = rng.uniform(-3e5, 3e5, 30)
    b = rng.uniform(-0.5, 0.5, 30)
    x = ddmath.add(ddmath.from_float(a), ddmath.from_float(b * 1e-12))
    fr = ddmath.frac_half(x)
    for i in range(30):
        truth = to_mp(x, i)
        reduced = truth - mpmath.nint(truth)
        assert abs(to_mp(fr, i) - reduced) < 1e-32
        assert abs(float(fr[0][i])) <= 0.5 + 1e-12


def test_e_unit_accuracy_at_large_phase():
    rng = np.random.default_rng(3)
    vals = rng.uniform(1e4, 2.7e5, 25)
    f = ddmath.mul(ddmath.from_float(vals), ddmath.from_float(1.0 / 3.0))
    re_dd, im_dd = ddmath.e_unit_dd(f)
    for i in range(25):
        truth = mpmath.expjpi(2 * to_mp(f, i))
        err = abs((to_mp(re_dd, i) + 1j * to_mp(im_dd, i)) - truth)
        assert err < 1e-30


def test_e_unit_exact_at_integers():
    f = ddmath.from_float(np.array([0.0, 1.0, 100.0, -250000.0]))
    vals = ddmath.e_unit(f)
    assert np.all(vals == 1.0 + 0.0j)


def test_sum_pairwise_matches_exact_sum():
    rng = np.random.default_rng(4)
    vals = rng.uniform(-1.0, 1.0, 1023)
    s = ddmath.sum_pairwise(ddmath.from_float(vals))
    exact = mpmath.fsum([mpmath.mpf(v) for v in vals])
    assert abs(to_mp(s) - exact) < 1e-28


def test_gauss_legendre_dd():
    (xh, xl), (wh, wl) = ddmath.gauss_legendre_dd(24)
    total = mpmath.fsum(mpmath.mpf(float(wh[i])) + mpmath.mpf(float(wl[i]))
                        for i in range(24))
    assert abs(total - 2) < 1e-30
    assert np.allclose(xh, -xh[::-1])
    # degree-47 exactness: integrate x^46 on [-1, 1]
    acc = mpmath.mpf(0)
    for i in range(24):
        x = mpmath.mpf(float(xh[i])) + mpmath.mpf(float(xl[i]))
        w = mpmath.mpf(float(wh[i])) + mpmath.mpf(float(wl[i]))
        acc += w * x ** 46
    assert abs(acc - mpmath.mpf(2) / 47) < 1e-28


def _random_dd(rng, n):
    hi = rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-3, 5, n)
    lo = hi * rng.uniform(-1.0, 1.0, n) * 2.0 ** -53
    return ddmath.add(ddmath.from_float(hi), ddmath.from_float(lo))


def _same_bits(a, b):
    return all(np.array_equal(np.asarray(x).view(np.int64),
                              np.asarray(y).view(np.int64))
               for x, y in zip(a, b))


def test_sqr_and_add_f_match_mul_and_add_bit_for_bit():
    rng = np.random.default_rng(5)
    a = _random_dd(rng, 4000)
    s = rng.choice([-1.0, 1.0], 4000) * 10.0 ** rng.uniform(-3, 5, 4000)
    s[:500] = -a[0][:500] * (1.0 + rng.uniform(-1e-15, 1e-15, 500))  # cancellation
    assert _same_bits(ddmath.sqr(a), ddmath.mul(a, a))
    assert _same_bits(ddmath.add_f(a, s), ddmath.add(a, (s, np.zeros_like(s))))


def test_e_unit_dense_over_reduced_phases_and_table_cells():
    # The table cells m/4096 at both ends and the centre of the turn, plus
    # random ones, each swept across its residual |r| <= 1/8192 including
    # both cell edges.
    rng = np.random.default_rng(6)
    cells = np.concatenate([[-2048, -2047, -1, 0, 1, 2047, 2048],
                            rng.integers(-2048, 2049, 9)])
    r = np.concatenate([np.linspace(-1.0, 1.0, 81), rng.uniform(-1.0, 1.0, 40)]) / 8192
    frac = (cells[:, None] / 4096 + r[None, :]).ravel()
    lo = frac * rng.uniform(-1.0, 1.0, frac.size) * 2.0 ** -54
    turns = rng.integers(-100000, 100000, frac.size).astype(np.float64)
    turns[::2] = 0.0  # these keep the cell edges exact after the reduction
    f = ddmath.add_f(ddmath.add(ddmath.from_float(frac), ddmath.from_float(lo)), turns)
    re_dd, im_dd = ddmath.e_unit_dd(f)
    worst = mpmath.mpf(0)
    for i in range(frac.size):
        truth = mpmath.expjpi(2 * to_mp(f, i))
        worst = max(worst, abs((to_mp(re_dd, i) + 1j * to_mp(im_dd, i)) - truth))
    assert worst <= 1e-30


def test_float_operand_helpers_match_the_full_dd_operations():
    # eval_dd sends numbers, parameters and float64 fallbacks through add_f
    # and mul_f, on either side of the operator.
    rng = np.random.default_rng(7)
    a = _random_dd(rng, 4000)
    s = rng.choice([-1.0, 1.0], 4000) * 10.0 ** rng.uniform(-3, 5, 4000)
    s[:500] = -a[0][:500] * (1.0 + rng.uniform(-1e-15, 1e-15, 500))  # cancellation
    c = (s, np.zeros_like(s))
    assert _same_bits(ddmath.mul_f(a, s), ddmath.mul(a, c))
    assert _same_bits(ddmath.mul_f(a, s), ddmath.mul(c, a))
    assert _same_bits(ddmath.add_f(a, s), ddmath.add(c, a))
    assert _same_bits(ddmath.add_f(a, -s), ddmath.sub(a, c))
    assert _same_bits(ddmath.add_f(ddmath.neg(a), s), ddmath.sub(c, a))


@pytest.mark.parametrize("order", [16, 24])
def test_embedded_rule_integrates_legendre_polynomials_exactly(order):
    (xh, xl), (wh, wl) = ddmath.gauss_legendre_dd(order)
    d = ddmath.embedded_null_weights(order)
    kept = [j for j in range(order) if not (d[0][j] == 1.0 and d[1][j] == 0.0)]
    assert kept == [j for j in range(order) if j not in (1, 3, order - 4, order - 2)]
    x = [to_mp((xh, xl), j) for j in range(order)]
    w = [to_mp((wh, wl), j) * (1 - to_mp(d, j)) for j in range(order)]
    assert min(w[j] for j in kept) > 0
    for k in range(len(kept)):
        got = mpmath.fsum(wj * mpmath.legendre(k, xj) for wj, xj in zip(w, x))
        assert abs(got - (2 if k == 0 else 0)) < 1e-30
    # ... and it is a different rule from the Gauss one, which is exact
    # for P_len(kept) as well.
    beyond = mpmath.fsum(wj * mpmath.legendre(len(kept), xj) for wj, xj in zip(w, x))
    assert abs(beyond) > 1e-3


@pytest.mark.parametrize("order", [16, 24])
def test_coarse_null_rule_annihilates_the_low_degrees(order):
    (xh, _), (wh, _) = ddmath.gauss_legendre_dd(order)
    c = ddmath.coarse_null_weights(order)
    kept = np.flatnonzero(c != 1.0)
    assert len(kept) == order // 2 and np.array_equal(kept, order - 1 - kept[::-1])
    assert np.all((1.0 - c[kept]) * wh[kept] > 0)
    vander = np.polynomial.legendre.legvander(xh, len(kept) - 1)
    assert np.max(np.abs((c * wh) @ vander)) < 1e-13
    assert abs((c * wh) @ np.polynomial.legendre.legvander(xh, len(kept))[:, -1]) > 1e-3
