"""Batch crush kernel: agreement with a scalar reference, chunking, edge cases."""

import math
from dataclasses import astuple
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lftmine import pipeline
from lftmine.cli import main
from lftmine.crush import PEAK_END_FRACTION, SurrogateParams, crush_inputs, surrogate_traces
from lftmine.errors import BoundsError, TraceError
from lftmine.geometry import (
    AL6063_T5,
    ALSI10MG,
    DESIGN_BOUNDS,
    DesignPoint,
    compute_mass,
    derive_geometry,
)
from lftmine.labeling import OBJECTIVES, label_all
from lftmine.metrics import CrashMetrics, metric_columns
from lftmine.pipeline import RunConfig, evaluate_many

FAST = SurrogateParams(sample_step=2.0)


# Scalar reference: one design at a time, Python floats and math.sin only.


def reference_grid(z, step):
    """Uniform grid over [0, z] plus the triangle breakpoints."""
    xs = []
    i = 0
    # strict < keeps the closing sample exactly at z
    while i * step < z:
        xs.append(i * step)
        i += 1
    xs.append(z)
    for bp in (0.5 * PEAK_END_FRACTION * z, PEAK_END_FRACTION * z):
        if bp not in xs:
            xs.append(bp)
    return sorted(xs)


def reference_trace(pm_total, z, folds, p):
    x_apex = 0.5 * PEAK_END_FRACTION * z
    x_knee = PEAK_END_FRACTION * z
    f_peak = p.peak_factor * pm_total

    def base(x):
        return pm_total * (1.0 + p.fold_amplitude * math.sin(2.0 * math.pi * folds * x / z))

    f_knee = base(x_knee)

    def force(x):
        if x <= x_apex:
            return f_peak * x / x_apex
        if x <= x_knee:
            return f_peak + (f_knee - f_peak) * (x - x_apex) / (x_knee - x_apex)
        return base(x)

    xs = reference_grid(z, p.sample_step)
    return xs, [force(x) for x in xs]


def reference_metrics(xs, fs, mass_kg, peak_window):
    energy = math.fsum(
        0.5 * (x1 - x0) * (f0 + f1) for x0, x1, f0, f1 in zip(xs, xs[1:], fs, fs[1:])
    )
    z = xs[-1]
    pcf = max(f for x, f in zip(xs, fs) if x <= peak_window * z)
    tea = energy / 1000.0
    pm = energy / z
    return CrashMetrics(
        mass_kg=mass_kg,
        tea_kj=tea,
        sea_kj_per_kg=tea / mass_kg,
        pm_kn=pm,
        pcf_kn=pcf,
        cfe_pct=100.0 * pm / pcf,
        z_mm=z,
    )


def reference_inputs(dp, p):
    g = derive_geometry(dp)
    pm, z, folds = crush_inputs(dp, g, AL6063_T5, ALSI10MG, p)
    return pm, z, folds, compute_mass(dp, g, AL6063_T5, ALSI10MG).total_mass


def table_rows(table):
    """Per row: the six CSV indicators, omega_deg, l_mm and the grades."""
    graded = pipeline.relabel(table)
    names = (*pipeline.METRIC_COLUMNS, "omega_deg", "l_mm")
    grades = zip(*(graded.grades(obj).tolist() for obj in OBJECTIVES))
    return [
        (*row, dict(zip(OBJECTIVES, g)))
        for row, g in zip(zip(*(table[name].tolist() for name in names)), grades)
    ]


def record_row(dp, cfg):
    """table_rows' tuple for one design through the one-design path."""
    g = derive_geometry(dp)
    m = pipeline.record_for(dp, cfg)
    return (*astuple(m)[:6], math.degrees(g.omega), g.l, label_all(m))


def bits(values):
    return np.asarray(values, dtype=float).tobytes()


def sin_agrees(xs, z, folds):
    """Whether np.sin equals math.sin on the fold phases of a trace."""
    phase = [2.0 * math.pi * folds * x / z for x in xs]
    return bits(np.sin(phase)) == bits([math.sin(v) for v in phase])


def assert_matches_reference(points, cfg):
    p = cfg.surrogate
    inputs = [reference_inputs(dp, p) for dp in points]
    pm, z, folds, _ = zip(*inputs)
    batch = surrogate_traces(pm, z, folds, p)
    table = evaluate_many(points, cfg)
    assert len(batch) == len(table) == len(points)
    for i, (pm_i, z_i, folds_i, mass_i) in enumerate(inputs):
        xs, fs = reference_trace(pm_i, z_i, folds_i, p)
        a, b = batch.starts[i], batch.starts[i + 1]
        x, f = batch.x[a:b], batch.force[a:b]
        assert bits(x) == bits(xs)
        if sin_agrees(xs, z_i, folds_i):
            assert bits(f) == bits(fs)
        else:
            # numpy's own vectorized sin, used on some CPUs, may be an ulp
            # off libm; the product and sum after it may round once more
            np.testing.assert_array_max_ulp(f, fs, maxulp=2)
        # the reductions are exact given the samples; z_mm is x[-1], checked above
        expected = reference_metrics(x.tolist(), f.tolist(), mass_i, cfg.peak_window)
        assert [table[name][i].item() for name in pipeline.METRIC_COLUMNS] == list(
            astuple(expected)[:6]
        )


designs = st.builds(
    DesignPoint,
    n=st.integers(*DESIGN_BOUNDS["n"]),
    m=st.integers(*DESIGN_BOUNDS["m"]),
    d=st.floats(*DESIGN_BOUNDS["d"]),
    t=st.floats(*DESIGN_BOUNDS["t"]),
    h=st.floats(*DESIGN_BOUNDS["h"]),
)
surrogates = st.builds(
    SurrogateParams,
    crush_fraction=st.floats(0.05, 1.0),
    peak_factor=st.floats(1.0, 3.0),
    fold_amplitude=st.floats(0.0, 0.95),
    fold_count=st.none() | st.integers(1, 12),
    lattice_efficiency=st.floats(0.1, 1.0),
    interaction_factor=st.floats(0.1, 2.0),
    # round steps put breakpoints and z on the grid; others fall between
    sample_step=st.sampled_from([0.25, 0.5, 1.0, 1.75, 2.5]) | st.floats(0.2, 4.0),
)
# the apex lies at 2.5 % of the stroke, so a window this wide always holds it
windows = st.floats(PEAK_END_FRACTION / 2, 1.0)
kernel_settings = settings(max_examples=25, deadline=None, database=None)


@kernel_settings
@given(st.lists(designs, min_size=1, max_size=5), surrogates, windows)
def test_kernel_matches_scalar_reference(points, p, peak_window):
    assert_matches_reference(points, RunConfig(surrogate=p, peak_window=peak_window))


@kernel_settings
@given(st.lists(designs, min_size=1, max_size=7), surrogates)
def test_results_do_not_depend_on_chunking(points, p):
    cfg = RunConfig(surrogate=p)
    at_once = table_rows(evaluate_many(points, cfg))
    one_by_one = [table_rows(evaluate_many([dp], cfg))[0] for dp in points]
    with mock.patch.object(pipeline, "EVAL_CHUNK", 2):
        in_pairs = table_rows(evaluate_many(points, cfg))
    # the one-design path (derive_geometry, compute_mass, crush_inputs,
    # simulate_crush, compute_metrics) that validation uses
    single = [record_row(dp, cfg) for dp in points]
    assert at_once == one_by_one == in_pairs == single


def test_breakpoints_on_the_grid_are_not_repeated():
    # h=0 gives z=140: apex 3.5 and knee 7.0 are grid points, and z/step = 280
    dp = DesignPoint(n=4, m=2, d=2.0, t=1.4, h=0.0)
    pm, z, folds, _ = reference_inputs(dp, SurrogateParams())
    assert (z, 0.5 * PEAK_END_FRACTION * z, PEAK_END_FRACTION * z) == (140.0, 3.5, 7.0)
    x = surrogate_traces([pm], [z], [folds], SurrogateParams()).x
    assert len(x) == 281 and np.all(np.diff(x) > 0)
    assert [np.count_nonzero(x == v) for v in (3.5, 7.0, 140.0)] == [1, 1, 1]
    assert_matches_reference([dp], RunConfig())


@pytest.mark.parametrize("step", [0.5, 1.75, 7.0, 10.0, 140.0, 200.0])
def test_integer_stroke_to_step_ratios_and_coarse_grids(step):
    # z=140 is a multiple of every step but the last; z joins the grid once
    p = SurrogateParams(sample_step=step)
    dp = DesignPoint(n=3, m=3, d=2.0, t=1.0, h=0.0)
    pm, z, folds, _ = reference_inputs(dp, p)
    x = surrogate_traces([pm], [z], [folds], p).x
    assert x[-1] == z and np.count_nonzero(x == z) == 1 and np.all(np.diff(x) > 0)
    assert_matches_reference([dp], RunConfig(surrogate=p))


def test_empty_input():
    batch = surrogate_traces([], [], [], SurrogateParams())
    assert len(batch) == 0 and batch.x.size == 0
    assert metric_columns(batch, [], 0.2).shape == (7, 0)
    assert len(evaluate_many([], RunConfig())) == 0


def test_evaluate_cli_on_header_only_designs(tmp_path):
    (tmp_path / "designs.csv").write_text("index,n,m,d_mm,t_mm,h_mm\n", encoding="utf-8")
    assert main(["evaluate", "--out-dir", str(tmp_path)]) == 0
    assert (tmp_path / "metrics.csv").read_text(encoding="utf-8") == pipeline.METRICS_HEADER + "\n"


def test_failure_past_the_first_chunk_names_the_global_index():
    assert pipeline.EVAL_CHUNK < 300
    good = DesignPoint(n=3, m=3, d=2.0, t=1.0, h=1.0)
    bad = DesignPoint(n=1, m=3, d=2.0, t=1.0, h=1.0)
    points = [good] * 300 + [bad] + [good] * 10
    with pytest.raises(BoundsError, match="^evaluate: design 300: design variable n=1"):
        evaluate_many(points, RunConfig(surrogate=FAST))


def test_kernel_failure_past_the_first_chunk_names_the_global_index():
    # a 1 % window holds the grid point 1.38 at z=140 (h=0) but not at
    # z=136.5 (h=5), where it keeps only F(0)=0
    cfg = RunConfig(surrogate=SurrogateParams(sample_step=1.38), peak_window=0.01)
    good = DesignPoint(n=3, m=3, d=2.0, t=1.0, h=0.0)
    bad = DesignPoint(n=3, m=3, d=2.0, t=1.0, h=5.0)
    assert len(evaluate_many([good], cfg)) == 1
    with pytest.raises(TraceError, match="^evaluate: design 300: peak force in the initial window"):
        evaluate_many([good] * 300 + [bad], cfg)


def test_earliest_failing_design_is_reported():
    # a window below the first grid step leaves only F(0)=0 in every window,
    # so design 0 fails the peak check before design 2 fails its bounds
    bad = DesignPoint(n=1, m=3, d=2.0, t=1.0, h=1.0)
    cfg = RunConfig(surrogate=FAST, peak_window=0.001)
    good = DesignPoint(n=3, m=3, d=2.0, t=1.0, h=1.0)
    with pytest.raises(TraceError, match="^evaluate: design 0: peak force in the initial window"):
        evaluate_many([good, good, bad], cfg)
    with pytest.raises(BoundsError, match="^evaluate: design 0: design variable n=1"):
        evaluate_many([bad, good], cfg)
