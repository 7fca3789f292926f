"""Indicator math: integration accuracy, closed forms, scaling laws."""

import math

import pytest

from lftmine.crush import CrushTrace, SurrogateParams, simulate_crush
from lftmine.errors import BoundsError
from lftmine.geometry import AL6063_T5, ALSI10MG, DesignPoint, derive_geometry
from lftmine.metrics import compute_metrics, peak_force, trapezoid_energy


def test_constant_force_closed_form():
    """F=10 kN over 140 mm, 0.28 kg: TEA 1.4 kJ, Pm 10, PCF 10, CFE 100%,
    SEA 5.0 kJ/kg, all exact."""
    trace = CrushTrace(samples=((0.0, 10.0), (70.0, 10.0), (140.0, 10.0)))
    met = compute_metrics(trace, 0.28)
    assert met.tea_kj == 1.4
    assert met.pm_kn == 10.0
    assert met.pcf_kn == 10.0
    assert met.cfe_pct == 100.0
    assert math.isclose(met.sea_kj_per_kg, 5.0, rel_tol=1e-12)
    assert met.z_mm == 140.0


def test_linear_ramp_closed_form():
    # triangle area: 0.5 * 100 mm * 20 kN = 1.0 kJ, mean 10 kN
    trace = CrushTrace(samples=((0.0, 0.0), (10.0, 2.0), (50.0, 10.0), (100.0, 20.0)))
    met = compute_metrics(trace, 1.0)
    assert met.tea_kj == 1.0
    assert met.pm_kn == 10.0


def test_reported_force_ratio():
    """A 26.1 kN initial peak over a 20.9 kN mean gives CFE 80.08%."""
    trace = CrushTrace(samples=((0.0, 26.1), (20.0, 26.1), (100.0, 13.1)))
    met = compute_metrics(trace, 1.0)
    assert math.isclose(met.pm_kn, 20.9, rel_tol=1e-12)
    assert met.pcf_kn == 26.1
    assert round(met.cfe_pct, 2) == 80.08


def _polynomial_trace(coeffs, z=140.0, step=0.5):
    def f(x):
        return math.fsum(c * x**i for i, c in enumerate(coeffs))

    xs = [i * step for i in range(int(z / step) + 1)]
    return CrushTrace(samples=tuple((x, f(x)) for x in xs))


def _polynomial_integral(coeffs, z):
    return math.fsum(c / (i + 1) * z ** (i + 1) for i, c in enumerate(coeffs))


def test_trapezoid_matches_analytic_integral_for_polynomials():
    """0.5 mm sampling keeps the trapezoid rule within 1e-6 relative of the
    exact integral for gentle quadratic and cubic force curves; linear
    curves integrate exactly."""
    linear = (5.0, 0.25)
    quad = (20.0, 0.1, 0.0005)
    cubic = (15.0, 0.1, 0.0002, 5e-7)
    assert trapezoid_energy(_polynomial_trace(linear)) == pytest.approx(
        _polynomial_integral(linear, 140.0), rel=1e-12
    )
    for coeffs in (quad, cubic):
        got = trapezoid_energy(_polynomial_trace(coeffs))
        want = _polynomial_integral(coeffs, 140.0)
        assert abs(got - want) / want < 1e-6, coeffs


def test_force_scaling_scales_all_but_cfe():
    base = CrushTrace(samples=((0.0, 3.0), (10.0, 9.0), (50.0, 6.0), (80.0, 7.5)))
    met = compute_metrics(base, 0.5)
    doubled = CrushTrace(samples=tuple((x, 2.0 * f) for x, f in base.samples))
    met2 = compute_metrics(doubled, 0.5)
    assert met2.tea_kj == 2.0 * met.tea_kj
    assert met2.pm_kn == 2.0 * met.pm_kn
    assert met2.pcf_kn == 2.0 * met.pcf_kn
    assert met2.sea_kj_per_kg == 2.0 * met.sea_kj_per_kg
    assert met2.cfe_pct == met.cfe_pct
    scaled = CrushTrace(samples=tuple((x, 1.7 * f) for x, f in base.samples))
    met3 = compute_metrics(scaled, 0.5)
    assert math.isclose(met3.cfe_pct, met.cfe_pct, rel_tol=1e-12)


def test_mean_force_consistency():
    # tea (kJ) recovers pm * z to floating precision on a surrogate trace
    dp = DesignPoint(n=3, m=4, d=2.0, t=1.1, h=3.0)
    trace = simulate_crush(dp, derive_geometry(dp), AL6063_T5, ALSI10MG, SurrogateParams())
    met = compute_metrics(trace, 0.333)
    assert math.isclose(met.tea_kj * 1000.0, met.pm_kn * met.z_mm, rel_tol=1e-9)


def test_halving_sample_step_barely_moves_tea():
    dp = DesignPoint(n=3, m=4, d=2.0, t=1.1, h=3.0)
    g = derive_geometry(dp)
    coarse = simulate_crush(dp, g, AL6063_T5, ALSI10MG, SurrogateParams())
    fine = simulate_crush(dp, g, AL6063_T5, ALSI10MG, SurrogateParams(sample_step=0.25))
    tea_c = trapezoid_energy(coarse)
    tea_f = trapezoid_energy(fine)
    assert abs(tea_c - tea_f) / tea_f < 0.001


def test_peak_window_limits_the_search():
    # late spike at 90% of stroke must not count as the initial peak
    trace = CrushTrace(samples=((0.0, 10.0), (18.0, 12.0), (90.0, 50.0), (100.0, 10.0)))
    assert peak_force(trace, peak_window=0.2) == 12.0
    assert peak_force(trace, peak_window=1.0) == 50.0
    with pytest.raises(BoundsError, match="peak_window"):
        peak_force(trace, peak_window=0.0)


def test_mass_must_be_positive():
    trace = CrushTrace(samples=((0.0, 1.0), (10.0, 1.0)))
    with pytest.raises(BoundsError, match="mass_kg"):
        compute_metrics(trace, 0.0)
