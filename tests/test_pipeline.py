"""Run configuration, batch evaluation, reports, sweeps."""

import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import EFFICIENCY_ROWS
from lftmine.crush import SurrogateParams
from lftmine.doe import lhs_sample
from lftmine.errors import BoundsError, SchemaError
from lftmine.geometry import DesignPoint
from lftmine.labeling import OBJECTIVES, label_all
from lftmine.metrics import CrashMetrics
from lftmine.pipeline import (
    DATASET_HEADER,
    METRIC_COLUMNS,
    METRICS_HEADER,
    SWEEP_ANCHOR,
    DesignTable,
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
    table = relabel(evaluate_many([dp], RunConfig()))
    assert training_dataset(table, "eff").rows == ((2.0, 4.0, 2.0, 1.4, 0.0),)


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
    table = relabel(evaluate_many(lhs_sample(k=6, seed=3), cfg))
    path = tmp_path / "dataset.csv"
    write_dataset_csv(table, path)
    loaded = read_dataset_csv(path)
    assert len(loaded) == len(table)
    for name in ("index", "n", "m", "d_mm", "t_mm", "h_mm", "omega_deg", "l_mm"):
        assert loaded[name].tolist() == table[name].tolist()
    for obj in OBJECTIVES:
        assert loaded.grades(obj).tolist() == table.grades(obj).tolist()
    assert loaded["sea_kj_per_kg"].tolist() == table["sea_kj_per_kg"].tolist()
    assert loaded["cfe_pct"].tolist() == table["cfe_pct"].tolist()


def test_metrics_csv_relabel(tmp_path):
    cfg = RunConfig(surrogate=FAST)
    table = evaluate_many(lhs_sample(k=5, seed=6), cfg)
    path = tmp_path / "metrics.csv"
    write_dataset_csv(table, path, labeled=False)
    loaded = read_dataset_csv(path)
    assert list(loaded.columns) == METRICS_HEADER.split(",")
    graded, want = relabel(loaded), relabel(table)
    for i, row in enumerate(zip(*(graded[name].tolist() for name in METRIC_COLUMNS))):
        got = {obj: graded.grades(obj)[i] for obj in OBJECTIVES}
        assert got == {obj: want.grades(obj)[i] for obj in OBJECTIVES}
        assert got == label_all(CrashMetrics(*row))


# (column, bad cell, the error text after "row N: ")
READER_ERRORS = [
    ("sea_kj_per_kg", "abc", "could not convert string to float: 'abc'"),
    ("n", "5.0", "invalid literal for int() with base 10: '5.0'"),
]


@pytest.mark.parametrize("labeled", [False, True], ids=["metrics", "dataset"])
def test_reader_errors_name_the_row(tmp_path, labeled):
    table = relabel(evaluate_many(lhs_sample(k=4, seed=5), RunConfig(surrogate=FAST)))
    path = tmp_path / "table.csv"
    write_dataset_csv(table, path, labeled=labeled)
    header, *rows = path.read_text(encoding="utf-8").splitlines()
    names = header.split(",")
    width = len(names)

    def read(lines):
        path.write_text("\n".join([header, *lines]) + "\n", encoding="utf-8")
        return read_dataset_csv(path)

    def error(lines):
        with pytest.raises(SchemaError) as info:
            read(lines)
        return str(info.value)

    for name, cell, message in READER_ERRORS:
        for at in (0, 2):
            cells = rows[at].split(",")
            cells[names.index(name)] = cell
            bad = [*rows[:at], ",".join(cells), *rows[at + 1 :]]
            assert error(bad) == f"{path}: row {at + 2}: {message}"
    short = rows[2].rsplit(",", 1)[0]
    assert error([*rows[:2], short, rows[3]]) == (
        f"{path}: row 4: expected {width} columns, got {width - 1}"
    )
    # blank lines are skipped but keep their line numbers
    spaced = [rows[0], "", rows[1], "   ", rows[2], rows[3]]
    loaded = read(spaced)
    assert len(loaded) == 4
    write_dataset_csv(loaded, path, labeled=labeled)
    assert path.read_text(encoding="utf-8") == "\n".join([header, *rows]) + "\n"
    assert error([*spaced[:4], short]) == (
        f"{path}: row 6: expected {width} columns, got {width - 1}"
    )


def test_reader_rejects_unknown_grades(tmp_path):
    table = relabel(evaluate_many(lhs_sample(k=4, seed=5), RunConfig(surrogate=FAST)))
    path = tmp_path / "dataset.csv"
    write_dataset_csv(table, path)
    header, *rows = path.read_text(encoding="utf-8").splitlines()
    for column, grade in (("label_light", "x"), ("label_eff", "E"), ("label_tea", "")):
        cells = rows[1].split(",")
        cells[header.split(",").index(column)] = grade
        lines = [header, rows[0], ",".join(cells), *rows[2:]]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(SchemaError) as info:
            read_dataset_csv(path)
        assert str(info.value) == (
            f"{path}: row 3: unknown grade {grade!r}, expected one of e, g, b"
        )


# both sides of repr's switch to exponent notation, signed zeros, subnormals
EDGE_FLOATS = (
    0.0, -0.0, 5e-324, -5e-324, 1e-310, 2.2250738585072014e-308, 1e-4, 9.999999999999999e-05,
    1.0000000000000002e-4, 1e16, 9999999999999998.0, 1.0000000000000002e16, 1.7976931348623157e308,
)
cells = st.sampled_from(EDGE_FLOATS) | st.floats(allow_nan=False)


@settings(max_examples=60, deadline=None, database=None)
@given(st.data())
def test_dataset_csv_round_trips_bit_for_bit(data):
    k = data.draw(st.integers(0, 6))
    columns = {}
    for name in METRICS_HEADER.split(","):
        if name in ("index", "n", "m"):
            values = st.lists(st.integers(-(2**63), 2**63 - 1), min_size=k, max_size=k)
            columns[name] = np.array(data.draw(values), dtype=np.int64)
        else:
            columns[name] = np.array(data.draw(st.lists(cells, min_size=k, max_size=k)))
    grades = st.lists(st.sampled_from("egb"), min_size=k, max_size=k)
    for obj in OBJECTIVES:
        columns[f"label_{obj}"] = np.array(data.draw(grades), dtype="U1")
    table = DesignTable(columns)
    with tempfile.TemporaryDirectory() as tmp:
        for header in (METRICS_HEADER, DATASET_HEADER):
            path = Path(tmp) / "table.csv"
            write_dataset_csv(table, path, labeled=header == DATASET_HEADER)
            loaded = read_dataset_csv(path)
            assert list(loaded.columns) == header.split(",")
            for name in header.split(","):
                assert loaded[name].dtype == columns[name].dtype
                assert loaded[name].tobytes() == columns[name].tobytes()


def test_training_dataset_shape():
    rows = EFFICIENCY_ROWS[:4]
    table = _fixture_table(rows)
    data = training_dataset(table, "eff")
    assert data.attributes == ("d", "n", "m", "t", "h")
    assert len(data) == 4
    assert data.labels == tuple(r[7] for r in rows)
    assert data.rows[0] == (2.2, 6.0, 5.0, 1.1, 5.0)
    with pytest.raises(SchemaError, match="unknown objective 'mass'"):
        training_dataset(table, "mass")
    ungraded = DesignTable({k: v for k, v in table.columns.items() if k != "label_eff"})
    with pytest.raises(SchemaError, match=r"not graded yet \(e.g. index 0\)"):
        training_dataset(ungraded, "eff")


def _fixture_table(rows):
    """Printed (d, n, m, h, t, SEA, CFE, grade) rows as a table graded for eff."""
    d, n, m, h, t, sea, cfe, grade = zip(*rows)
    columns = {name: np.zeros(len(rows)) for name in METRICS_HEADER.split(",")}
    columns.update(index=np.arange(len(rows)), n=np.array(n), m=np.array(m))
    columns.update(d_mm=np.array(d), t_mm=np.array(t), h_mm=np.array(h), mass_kg=np.ones(len(rows)))
    columns.update(sea_kj_per_kg=np.array(sea), cfe_pct=np.array(cfe), label_eff=np.array(grade))
    return DesignTable(columns)


def test_class_counts():
    counts = class_counts(_fixture_table(EFFICIENCY_ROWS), "eff")
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
    table = evaluate_many(lhs_sample(k=8, seed=9), cfg)
    report = run_hollow_report(cfg, tmp_path, table)
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
    ref = run_hollow_report(cfg, tmp_path, table, paper_baselines=True)
    assert ref.baseline == "reference"
    with pytest.raises(SchemaError, match="at least one evaluated design"):
        run_hollow_report(cfg, tmp_path, evaluate_many([], cfg))


def test_sweep_outputs(tmp_path):
    cfg = RunConfig(surrogate=FAST)
    table = run_sweep("t", cfg, tmp_path)
    lines = (tmp_path / "sweep_t.csv").read_text(encoding="utf-8").splitlines()
    assert lines[0] == "t,sea_kj_per_kg"
    assert len(lines) == 10
    assert len(table) == 9
    assert (tmp_path / "sweep_t.svg").exists()
    # integer variables sweep their whole admissible set
    run_sweep("n", cfg, tmp_path)
    n_lines = (tmp_path / "sweep_n.csv").read_text(encoding="utf-8").splitlines()
    assert [line.split(",")[0] for line in n_lines[1:]] == ["2", "3", "4", "5", "6"]


def test_sweep_anchor_and_errors(tmp_path):
    cfg = RunConfig(surrogate=FAST)
    table = run_sweep("t", cfg, tmp_path)
    for var, name in (("n", "n"), ("m", "m"), ("d", "d_mm"), ("h", "h_mm")):
        assert set(table[name].tolist()) == {SWEEP_ANCHOR[var]}
    assert table["t_mm"].tolist() == [float(v) for v in np.linspace(0.8, 2.0, 9)]
    with pytest.raises(SchemaError, match="unknown design variable 'q'"):
        run_sweep("q", cfg, tmp_path)
