"""Run configuration, batch evaluation, reports, sweeps."""

import json
import math

import pytest

from conftest import EFFICIENCY_ROWS, reported_metrics
from lftmine.crush import SurrogateParams
from lftmine.doe import lhs_sample
from lftmine.errors import BoundsError, SchemaError
from lftmine.geometry import DesignPoint
from lftmine.labeling import label_all
from lftmine.pipeline import (
    DATASET_HEADER,
    RunConfig,
    class_counts,
    config_from_dict,
    config_to_dict,
    evaluate_many,
    hollow_baseline_sea,
    load_config,
    material_by_name,
    read_dataset_csv,
    read_designs_csv,
    record_for,
    relabel,
    run_hollow_report,
    run_sweep,
    training_dataset,
    validation_report_csv,
    write_dataset_csv,
    write_designs_csv,
    write_json_atomic,
)
from lftmine.rules import Interval, Rule, RuleValidation

FAST = SurrogateParams(sample_step=2.0)


def test_config_round_trip():
    cfg = RunConfig(
        seed=3,
        k=60,
        min_leaf=1,
        peak_window=0.3,
        cf_ladder=(0.1, 0.05),
        surrogate=SurrogateParams(sample_step=1.0, fold_count=6),
    )
    assert config_from_dict(config_to_dict(cfg)) == cfg
    assert config_from_dict({}) == RunConfig()
    # partial documents take defaults for everything else
    assert config_from_dict({"k": 40}).k == 40


def test_config_rejects_unknown_keys():
    with pytest.raises(SchemaError, match="unknown config keys: frobs"):
        config_from_dict({"frobs": 1})
    with pytest.raises(SchemaError, match="unknown surrogate keys: wiggle"):
        config_from_dict({"surrogate": {"wiggle": 2.0}})
    with pytest.raises(SchemaError, match="must be a JSON object"):
        config_from_dict([1, 2])
    with pytest.raises(SchemaError, match="surrogate document must be a JSON object"):
        config_from_dict({"surrogate": None})


def test_config_values_take_their_field_types():
    cfg = config_from_dict(
        {
            "seed": "4",
            "peak_window": "0.25",
            "cf_ladder": ["0.1", 0.05],
            "surrogate": {"fold_count": "6"},
        }
    )
    assert (cfg.seed, cfg.peak_window, cfg.cf_ladder) == (4, 0.25, (0.1, 0.05))
    assert cfg.surrogate.fold_count == 6
    assert config_from_dict({"surrogate": {"fold_count": None}}).surrogate.fold_count is None
    with pytest.raises(SchemaError, match="malformed config value"):
        config_from_dict({"k": "many"})


def test_config_validation():
    with pytest.raises(BoundsError, match="peak_window=0"):
        RunConfig(peak_window=0.0)
    with pytest.raises(BoundsError, match="k=0"):
        RunConfig(k=0)
    with pytest.raises(BoundsError, match="cf_ladder"):
        RunConfig(cf_ladder=(0.25, 1.5))
    with pytest.raises(SchemaError, match="unknown material 'steel'"):
        RunConfig(tube_material="steel")
    assert material_by_name("AlSi10Mg").rho == 2670.0


def test_load_config_reports_bad_json(tmp_path):
    path = tmp_path / "config.json"
    path.write_text("{not json", encoding="utf-8")
    with pytest.raises(SchemaError, match="not valid JSON"):
        load_config(path)
    path.write_text(json.dumps({"seed": 5}), encoding="utf-8")
    assert load_config(path).seed == 5


def test_record_oracle():
    """Frozen full evaluation of one design under default settings."""
    dp = DesignPoint(n=4, m=2, d=2.0, t=1.4, h=0.0)
    r = record_for(7, dp, RunConfig())
    assert r.index == 7
    assert math.isclose(r.omega_deg, 44.08735112984811, rel_tol=1e-12)
    assert math.isclose(r.l_mm, 35.93222787415219, rel_tol=1e-12)
    m = r.metrics
    assert math.isclose(m.mass_kg, 0.280477874737465, rel_tol=1e-12)
    assert math.isclose(m.tea_kj, 3.903985832836082, rel_tol=1e-12)
    assert math.isclose(m.sea_kj_per_kg, 13.919050964324084, rel_tol=1e-12)
    assert math.isclose(m.pm_kn, 27.8856130916863, rel_tol=1e-12)
    assert math.isclose(m.pcf_kn, 36.57670784752311, rel_tol=1e-12)
    assert math.isclose(m.cfe_pct, 76.2387178417826, rel_tol=1e-12)
    assert m.z_mm == 140.0
    assert r.labels == {"eff": "g", "tea": "b", "light": "g"}
    assert r.attribute_row() == (2.0, 4.0, 2.0, 1.4, 0.0)


def test_evaluate_many_names_failing_design():
    cfg = RunConfig(surrogate=FAST)
    good = DesignPoint(n=3, m=3, d=2.0, t=1.0, h=1.0)
    bad = DesignPoint(n=1, m=3, d=2.0, t=1.0, h=1.0)
    with pytest.raises(BoundsError, match="evaluate: design 1: design variable n=1"):
        evaluate_many([good, bad], cfg)


def test_evaluate_many_writes_traces(tmp_path):
    cfg = RunConfig(surrogate=FAST)
    points = lhs_sample(k=3, seed=1)
    evaluate_many(points, cfg, trace_dir=tmp_path / "traces")
    files = sorted(p.name for p in (tmp_path / "traces").glob("*.csv"))
    assert files == ["design_0.csv", "design_1.csv", "design_2.csv"]
    first = (tmp_path / "traces" / "design_0.csv").read_text(encoding="utf-8")
    assert first.startswith("x_mm,F_kN\n")


def test_designs_csv_round_trip(tmp_path):
    points = lhs_sample(k=8, seed=2)
    path = tmp_path / "designs.csv"
    write_designs_csv(points, path)
    assert read_designs_csv(path) == points
    path.write_text("bogus\n1,2,3\n", encoding="utf-8")
    with pytest.raises(SchemaError, match="expected header"):
        read_designs_csv(path)
    path.write_text("index,n,m,d_mm,t_mm,h_mm\n0,3,3,2.0\n", encoding="utf-8")
    with pytest.raises(SchemaError, match="row 2: expected 6 columns"):
        read_designs_csv(path)


def test_dataset_csv_round_trip(tmp_path):
    cfg = RunConfig(surrogate=FAST)
    records = evaluate_many(lhs_sample(k=6, seed=3), cfg)
    path = tmp_path / "dataset.csv"
    write_dataset_csv(records, path)
    loaded = read_dataset_csv(path)
    assert len(loaded) == len(records)
    for a, b in zip(loaded, records):
        assert a.index == b.index
        assert a.point == b.point
        assert a.omega_deg == b.omega_deg
        assert a.l_mm == b.l_mm
        assert a.labels == b.labels
        assert a.metrics.sea_kj_per_kg == b.metrics.sea_kj_per_kg
        assert a.metrics.cfe_pct == b.metrics.cfe_pct


def test_metrics_csv_relabel(tmp_path):
    cfg = RunConfig(surrogate=FAST)
    records = evaluate_many(lhs_sample(k=5, seed=6), cfg)
    path = tmp_path / "metrics.csv"
    write_dataset_csv(records, path, labeled=False)
    loaded = read_dataset_csv(path)
    assert all(r.labels == {} for r in loaded)
    graded = relabel(loaded)
    for got, want in zip(graded, records):
        assert got.labels == want.labels
        assert got.labels == label_all(got.metrics)


def test_training_dataset_shape():
    rows = EFFICIENCY_ROWS[:4]
    records = [
        _fixture_record(i, d, n, m, h, t, sea, cfe, grade)
        for i, (d, n, m, h, t, sea, cfe, grade) in enumerate(rows)
    ]
    data = training_dataset(records, "eff")
    assert data.attributes == ("d", "n", "m", "t", "h")
    assert len(data) == 4
    assert data.labels == tuple(r[7] for r in rows)
    with pytest.raises(SchemaError, match="unknown objective 'mass'"):
        training_dataset(records, "mass")
    ungraded = [
        type(r)(
            index=r.index,
            point=r.point,
            omega_deg=r.omega_deg,
            l_mm=r.l_mm,
            metrics=r.metrics,
            labels={},
        )
        for r in records
    ]
    with pytest.raises(SchemaError, match=r"not graded yet \(e.g. index 0\)"):
        training_dataset(ungraded, "eff")


def _fixture_record(i, d, n, m, h, t, sea, cfe, grade):
    from lftmine.pipeline import DesignRecord

    return DesignRecord(
        index=i,
        point=DesignPoint(n=int(n), m=int(m), d=float(d), t=float(t), h=float(h)),
        omega_deg=0.0,
        l_mm=0.0,
        metrics=reported_metrics(sea=sea, cfe=cfe),
        labels={"eff": grade},
    )


def test_class_counts():
    records = [
        _fixture_record(i, d, n, m, h, t, sea, cfe, grade)
        for i, (d, n, m, h, t, sea, cfe, grade) in enumerate(EFFICIENCY_ROWS)
    ]
    counts = class_counts(records, "eff")
    assert counts == {"e": 5, "g": 3, "b": 7}
    assert sum(counts.values()) == len(EFFICIENCY_ROWS)


def test_write_json_atomic(tmp_path):
    path = tmp_path / "doc.json"
    write_json_atomic({"a": 1}, path)
    assert json.loads(path.read_text(encoding="utf-8")) == {"a": 1}
    assert list(tmp_path.glob("*.tmp")) == []


def test_validation_report_layout():
    rule = Rule(
        label="e",
        conditions={"d": Interval(lower=2.0)},
        n_total=5,
        n_errors=0,
        path_length=1,
    )
    designs = (
        DesignPoint(n=3, m=3, d=2.5, t=1.2, h=1.0),
        DesignPoint(n=4, m=2, d=2.8, t=1.5, h=2.0),
    )
    check = RuleValidation(
        rule=rule, designs=designs, labels=("e", "g"), hits=1, fidelity_pct=50.0
    )
    cfg = RunConfig(surrogate=FAST)
    text = validation_report_csv("eff", {"e": check}, cfg)
    lines = text.splitlines()
    assert lines[0] == "rule,no,d_mm,n,m,h_mm,t_mm,sea_kj_per_kg,cfe_pct,label"
    assert len(lines) == 3
    assert lines[1].startswith('"d > 2 => e",1,2.5,3,3,1.0,1.2,')
    assert lines[1].endswith(",e")
    assert lines[2].split(",")[1] == "2"
    assert lines[2].endswith(",g")
    # the second indicator column follows the objective
    assert validation_report_csv("tea", {}, cfg).splitlines()[0].endswith("tea_kj,label")
    assert validation_report_csv("light", {}, cfg).splitlines()[0].endswith("mass_kg,label")


def test_hollow_baseline_interpolation():
    assert hollow_baseline_sea(0.8) == 7.5
    assert hollow_baseline_sea(2.0) == 13.64
    assert math.isclose(hollow_baseline_sea(0.95), 0.5 * (7.50 + 9.76), rel_tol=1e-12)
    assert math.isclose(hollow_baseline_sea(1.55), 0.5 * (11.03 + 12.90), rel_tol=1e-12)
    with pytest.raises(BoundsError, match="outside baseline range"):
        hollow_baseline_sea(0.7)
    with pytest.raises(BoundsError, match="outside baseline range"):
        hollow_baseline_sea(2.1)


def test_hollow_report_counts(tmp_path):
    cfg = RunConfig(surrogate=FAST)
    records = evaluate_many(lhs_sample(k=8, seed=9), cfg)
    report = run_hollow_report(cfg, tmp_path, records)
    assert report.baseline == "surrogate"
    assert report.total == 8
    assert report.above + report.below == 8
    lines = (tmp_path / "hollow.csv").read_text(encoding="utf-8").splitlines()
    assert lines[0] == "index,t_mm,sea_kj_per_kg,baseline_sea_kj_per_kg,delta_pct"
    deltas = [float(line.split(",")[4]) for line in lines[1:]]
    assert sum(1 for x in deltas if x > 0) == report.above
    assert sum(1 for x in deltas if x > 20.0) == report.above_20
    assert sum(1 for x in deltas if x > 50.0) == report.above_50
    assert max(deltas) == report.max_increase_pct
    summary = json.loads((tmp_path / "hollow_summary.json").read_text(encoding="utf-8"))
    assert summary["total"] == 8
    assert summary["above"] == report.above
    grid = (tmp_path / "hollow_grid.csv").read_text(encoding="utf-8").splitlines()
    assert grid[0] == "t_mm,surrogate_sea_kj_per_kg,reference_sea_kj_per_kg"
    assert len(grid) == 6
    assert (tmp_path / "hollow.svg").exists()
    ref = run_hollow_report(cfg, tmp_path, records, paper_baselines=True)
    assert ref.baseline == "reference"
    with pytest.raises(SchemaError, match="at least one evaluated design"):
        run_hollow_report(cfg, tmp_path, [])


def test_sweep_outputs(tmp_path):
    cfg = RunConfig(surrogate=FAST)
    records = run_sweep("t", cfg, tmp_path)
    lines = (tmp_path / "sweep_t.csv").read_text(encoding="utf-8").splitlines()
    assert lines[0] == "t,sea_kj_per_kg"
    assert len(lines) == 10
    assert len(records) == 9
    assert (tmp_path / "sweep_t.svg").exists()
    # integer variables sweep their whole admissible set
    run_sweep("n", cfg, tmp_path)
    n_lines = (tmp_path / "sweep_n.csv").read_text(encoding="utf-8").splitlines()
    assert [line.split(",")[0] for line in n_lines[1:]] == ["2", "3", "4", "5", "6"]


def test_sweep_anchor_and_errors(tmp_path):
    cfg = RunConfig(surrogate=FAST)
    moved = run_sweep("t", cfg, tmp_path, values=[1.0], anchor={"d": 2.5})
    assert moved[0].point.d == 2.5
    assert moved[0].point.t == 1.0
    with pytest.raises(SchemaError, match="unknown anchor variables: q"):
        run_sweep("t", cfg, tmp_path, values=[1.0], anchor={"q": 1.0})
    with pytest.raises(BoundsError, match="at least one grid value"):
        run_sweep("t", cfg, tmp_path, values=[])
    with pytest.raises(BoundsError, match="design variable d=9.0"):
        run_sweep("t", cfg, tmp_path, values=[1.0], anchor={"d": 9.0})
