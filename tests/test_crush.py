"""Crush surrogate: force levels, trace shape, file round trips."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lftmine.crush import (
    PEAK_END_FRACTION,
    CrushTrace,
    SurrogateParams,
    TraceBatch,
    hollow_trace,
    ingest_trace,
    mean_lattice_force,
    mean_tube_force,
    simulate_crush,
    write_trace,
)
from lftmine.errors import BoundsError, TraceError
from lftmine.geometry import (
    AL6063_T5,
    ALSI10MG,
    DesignPoint,
    derive_geometry,
)


def anchor_setup():
    dp = DesignPoint(n=3, m=4, d=2.0, t=1.1, h=3.0)
    return dp, derive_geometry(dp), SurrogateParams()


def test_tube_mean_force_formula():
    """13.06 * 1.05*187 * 75^(1/3) * 1.4^(5/3) N -> 18.947 kN."""
    got = mean_tube_force(1.4, AL6063_T5)
    hand = 13.06 * (1.05 * 187.0) * 75.0 ** (1 / 3) * 1.4 ** (5 / 3) / 1000.0
    assert got == hand == 18.947033797450008


def test_tube_mean_force_monotone_in_thickness():
    forces = [mean_tube_force(t, AL6063_T5) for t in (0.8, 1.1, 1.4, 1.7, 2.0)]
    assert all(a < b for a, b in zip(forces, forces[1:]))


def test_tube_mean_force_rejects_out_of_range_thickness():
    with pytest.raises(BoundsError, match="t=0"):
        mean_tube_force(0.0, AL6063_T5)


def test_lattice_mean_force_formula():
    """Per transverse layer: (m+1)^2 verticals plus 8 m^2 diagonals at
    sin(omega) inclination, half the axial strut capacity."""
    dp, g, p = anchor_setup()
    got = mean_lattice_force(dp, g, ALSI10MG, p)
    area = math.pi * dp.d**2 / 4.0
    hand = 0.5 * (1.05 * 162.0) * area * ((4 + 1) ** 2 + 8 * 4**2 * math.sin(g.omega)) / 1000.0
    assert got == hand == 38.51015934856208


def test_total_mean_force_combines_tube_and_lattice():
    dp, g, p = anchor_setup()
    total = mean_tube_force(dp.t, AL6063_T5) + p.interaction_factor * mean_lattice_force(
        dp, g, ALSI10MG, p
    )
    assert math.isclose(total, 55.037177669643455, rel_tol=1e-12)


def test_trace_energy_matches_analytic_integral():
    """Trapezoid energy against the exact piecewise integral: triangle up
    to 2.5% of z, linear to the 5% knee, then the sinusoidal fold force."""
    dp, g, p = anchor_setup()
    trace = simulate_crush(dp, g, AL6063_T5, ALSI10MG, p)
    pm = 55.037177669643455
    z = trace.z
    assert z == 0.7 * (200.0 - 3.0)
    folds = p.folds_for(dp.n)
    w = 2 * math.pi * folds / z
    x_apex, x_knee = 0.5 * PEAK_END_FRACTION * z, PEAK_END_FRACTION * z
    peak = p.peak_factor * pm
    knee = pm * (1 + p.fold_amplitude * math.sin(w * x_knee))
    triangle = 0.5 * x_apex * peak + 0.5 * (x_knee - x_apex) * (peak + knee)
    tail = pm * (z - x_knee) - pm * p.fold_amplitude / w * (math.cos(w * z) - math.cos(w * x_knee))
    analytic = triangle + tail
    trapezoid = math.fsum(
        0.5 * (x1 - x0) * (f0 + f1) for (x0, f0), (x1, f1) in zip(trace.samples, trace.samples[1:])
    )
    assert math.isclose(trapezoid, analytic, rel_tol=1e-4)
    assert math.isclose(trapezoid / 1000.0, 7.522106347302178, rel_tol=1e-12)


def test_initial_peak_is_exact_apex_sample():
    # the grid always contains the apex, so max F is peak_factor * Pm
    dp, g, p = anchor_setup()
    trace = simulate_crush(dp, g, AL6063_T5, ALSI10MG, p)
    assert max(f for _, f in trace.samples) == p.peak_factor * 55.037177669643455


def test_zero_rod_diameter_reduces_to_hollow_tube():
    # with h=0 both traces crush 0.7*H and share the minimum fold count
    p = SurrogateParams()
    g = derive_geometry(DesignPoint(n=4, m=2, d=1.0, t=1.4, h=0.0))
    lft = simulate_crush(DesignPoint(n=4, m=2, d=0.0, t=1.4, h=0.0), g, AL6063_T5, ALSI10MG, p)
    hollow = hollow_trace(1.4, AL6063_T5, p)
    assert lft.samples == hollow.samples


def test_negative_rod_diameter_rejected():
    p = SurrogateParams()
    g = derive_geometry(DesignPoint(n=4, m=2, d=1.0, t=1.4, h=0.0))
    with pytest.raises(BoundsError, match="d=-1"):
        simulate_crush(DesignPoint(n=4, m=2, d=-1.0, t=1.4, h=0.0), g, AL6063_T5, ALSI10MG, p)


def test_degenerate_parameters_flatten_the_trace():
    """With no fold oscillation and unit peak factor the force is the mean
    force everywhere past the initial 5% ramp."""
    p = SurrogateParams(fold_amplitude=0.0, peak_factor=1.0)
    dp, g, _ = anchor_setup()
    trace = simulate_crush(dp, g, AL6063_T5, ALSI10MG, p)
    pm = 55.037177669643455
    tail = [f for x, f in trace.samples if x >= PEAK_END_FRACTION * trace.z]
    assert tail and all(math.isclose(f, pm, rel_tol=1e-12) for f in tail)


def test_trace_is_deterministic():
    dp, g, p = anchor_setup()
    a = simulate_crush(dp, g, AL6063_T5, ALSI10MG, p)
    b = simulate_crush(dp, g, AL6063_T5, ALSI10MG, p)
    assert a.samples == b.samples


def test_fold_count_floors_at_four():
    p = SurrogateParams()
    assert p.folds_for(0) == 4
    assert p.folds_for(3) == 4
    assert p.folds_for(6) == 6
    assert SurrogateParams(fold_count=9).folds_for(3) == 9


def test_surrogate_params_validation():
    with pytest.raises(BoundsError, match="crush_fraction"):
        SurrogateParams(crush_fraction=0.0)
    with pytest.raises(BoundsError, match="peak_factor"):
        SurrogateParams(peak_factor=0.9)
    with pytest.raises(BoundsError, match="fold_amplitude"):
        SurrogateParams(fold_amplitude=1.0)
    with pytest.raises(BoundsError, match="sample_step"):
        SurrogateParams(sample_step=0.0)


def test_trace_invariants():
    with pytest.raises(TraceError, match="at least two"):
        CrushTrace(samples=((0.0, 0.0),))
    with pytest.raises(TraceError, match="start at x=0"):
        CrushTrace(samples=((1.0, 0.0), (2.0, 1.0)))
    with pytest.raises(TraceError, match="negative force"):
        CrushTrace(samples=((0.0, 0.0), (1.0, -2.0)))
    with pytest.raises(TraceError, match="strictly increasing"):
        CrushTrace(samples=((0.0, 0.0), (1.0, 1.0), (1.0, 2.0)))


def test_trace_check_reports_the_first_bad_sample():
    with pytest.raises(TraceError, match=r"^displacement not strictly increasing at sample 2: 1.0 -> 0.5$"):
        CrushTrace(samples=((0.0, 0.0), (1.0, 1.0), (0.5, 2.0), (3.0, -1.0)))
    with pytest.raises(TraceError, match=r"^negative force -1.0 at sample 1$"):
        CrushTrace(samples=((0.0, 0.0), (1.0, -1.0), (0.5, 2.0)))


def _checked_samples(samples):
    """The per-sample checks CrushTrace replaced, as the reference."""
    if len(samples) < 2:
        raise TraceError("trace needs at least two samples")
    if samples[0][0] != 0.0:
        raise TraceError(f"trace must start at x=0, got x={samples[0][0]}")
    prev = -math.inf
    for i, (x, f) in enumerate(samples):
        if f < 0:
            raise TraceError(f"negative force {f} at sample {i}")
        if x <= prev:
            raise TraceError(
                f"displacement not strictly increasing at sample {i}: {prev} -> {x}"
            )
        prev = x
    return samples


# steps of 0 repeat an x and negative steps go back; forces may be negative
x_steps = st.sampled_from((1.0, 0.5, 0.0, -0.5, -0.0))
forces = st.sampled_from((2.0, 0.0, -0.0, -1.5))
trace_samples = st.lists(st.tuples(x_steps, forces), max_size=8).map(
    lambda pairs: tuple(
        (math.fsum(dx for dx, _ in pairs[1 : i + 1]), f) for i, (_, f) in enumerate(pairs)
    )
)


@settings(max_examples=300, deadline=None, database=None)
@given(trace_samples)
@example(((0.0, 1.0), (0.0, -1.0)))  # both failures at sample 1: the force is reported
@example(((0.0, 1.0), (1.0, 1.0), (0.5, -2.0)))
@example(((0.0, -1.0), (1.0, 1.0)))
@example(((2.0, 1.0), (1.0, -1.0)))
def test_vectorized_trace_checks_match_the_sample_loop(samples):
    try:
        want = _checked_samples(samples)
    except TraceError as exc:
        with pytest.raises(TraceError) as got:
            CrushTrace(samples=samples)
        assert str(got.value) == str(exc)
    else:
        assert CrushTrace(samples=samples).samples == want


def test_trace_holds_arrays_and_batches_share_them():
    trace = CrushTrace(x=np.array([0.0, 1.0, 2.5]), force=np.array([0.0, 3.0, 1.0]))
    assert trace.x.dtype == trace.force.dtype == np.float64
    assert trace.samples == ((0.0, 0.0), (1.0, 3.0), (2.5, 1.0))
    assert trace.z == 2.5 and type(trace.z) is float
    batch = TraceBatch.of(trace)
    assert batch.x is trace.x and batch.force is trace.force
    again = batch.trace(0)
    assert np.shares_memory(again.x, batch.x) and np.shares_memory(again.force, batch.force)
    with pytest.raises(TraceError, match="one length"):
        CrushTrace(x=[0.0, 1.0], force=[1.0])


def test_trace_round_trips_bit_identically(tmp_path):
    trace = hollow_trace(1.4, AL6063_T5, SurrogateParams())
    assert len(trace.samples) == 281
    path = tmp_path / "trace.csv"
    write_trace(trace, path)
    again = ingest_trace(path)
    assert again.samples == trace.samples
    write_trace(again, tmp_path / "trace2.csv")
    assert (tmp_path / "trace2.csv").read_bytes() == path.read_bytes()


def test_minimal_trace_file(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("x_mm,F_kN\n0,0\n1,10\n2,10\n", encoding="utf-8")
    trace = ingest_trace(path)
    assert trace.z == 2.0
    assert trace.samples[1] == (1.0, 10.0)


def test_ingest_errors_name_the_row(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("x_mm,F_kN\n0,0\n2,5\n1,6\n", encoding="utf-8")
    with pytest.raises(TraceError, match="row 4"):
        ingest_trace(path)
    path.write_text("x_mm,F_kN\n0,0\n1,abc\n", encoding="utf-8")
    with pytest.raises(TraceError, match="row 3"):
        ingest_trace(path)
    path.write_text("displacement,force\n0,0\n1,1\n", encoding="utf-8")
    with pytest.raises(TraceError, match="header"):
        ingest_trace(path)
    path.write_text("x_mm,F_kN\n0,0,9\n1,1\n", encoding="utf-8")
    with pytest.raises(TraceError, match="row 2"):
        ingest_trace(path)
