import cmath
import math

import pytest

from oscphase import study
from oscphase.coefficients import make_problem
from oscphase.oracle import QuadratureSettings
from oscphase.study import (STUDY_TOL_FLOOR, STUDY_TOL_FRACTION, oracle_report,
                            run_study)


@pytest.fixture
def recorded_tols(monkeypatch):
    """The tol of each oracle call run_study makes from now on."""
    tols = []
    oracle = study.oscillatory_quadrature_detail

    def recording(p, settings=None, *args, **kwargs):
        tols.append(settings.tol)
        return oracle(p, settings, *args, **kwargs)

    monkeypatch.setattr(study, "oscillatory_quadrature_detail", recording)
    return tols


def test_oracle_tol_follows_the_smallest_error_scale(canonical_family, recorded_tols):
    rows = run_study(canonical_family(1024.0), [1024.0, 4096.0], [1, 2, 3])
    for T, tol in zip([1024.0, 4096.0], recorded_tols, strict=True):
        scale = min(r.error_scale for r in rows if r.T == T)
        assert tol == max(STUDY_TOL_FLOOR, STUDY_TOL_FRACTION * scale) < 1e-12
    # Fine enough that the oracle certifies every row against its error.
    assert not [line for line in oracle_report(rows) if "uncertified" in line]


def test_explicit_settings_are_kept(canonical_family, recorded_tols):
    run_study(canonical_family(1024.0), [1024.0], [1, 2],
              QuadratureSettings(tol=1e-10))
    assert recorded_tols == [1e-10]


def test_a_tol_below_the_rounding_falls_back_to_the_default(recorded_tols):
    # The float64 sin in the phase may move the integral by about 3e-13 at
    # T = 982, far above the fraction of its error_scale; the default holds.
    p = make_problem("T*(x + sin(x)/10)", "1 + 0.434*x", 0.618, 1.618, n=2,
                     T=982.774584426888)
    rows = run_study(p, [p.T], [2])
    assert recorded_tols[0] < 1e-13 and recorded_tols[1:] == [QuadratureSettings.tol]
    assert not rows[0].failed and rows[0].quad.diff < QuadratureSettings.tol


def test_a_failed_oracle_fails_every_row_of_its_T():
    # 1e7 turns need more than max_panels at either start width.
    p = make_problem("T*x", "1", 1.0, 2.0, n=2, T=1e7)
    rows = run_study(p, [p.T], [1, 2])
    assert [r.n for r in rows] == [1, 2]
    for r in rows:
        assert r.failed and r.quad is None
        assert r.theorem.startswith("oracle failed: phase change of 1e+07 turns")
        assert math.isnan(r.abs_error) and cmath.isnan(r.oracle)
    assert oracle_report(rows) == [f"T=10000000: {rows[0].theorem}"]
