"""Command-line workflow: staged runs, overrides, failure modes."""

import json

import pytest

from lftmine import pipeline
from lftmine.cli import main
from lftmine.dtree import leaf_count, load_tree
from lftmine.errors import LftError


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """One staged run: sample, evaluate, label, train, prune, rules."""
    root = tmp_path_factory.mktemp("cli")
    config = root / "config.json"
    config.write_text(
        json.dumps({"k": 30, "seed": 1, "min_leaf": 1, "surrogate": {"sample_step": 2.0}}),
        encoding="utf-8",
    )
    out = root / "out"
    base = ["--config", str(config), "--out-dir", str(out)]
    assert main(["sample", *base]) == 0
    assert main(["evaluate", *base, "--trace-dir", str(out / "traces")]) == 0
    assert main(["label", *base]) == 0
    assert main(["train", *base, "--objective", "eff"]) == 0
    assert main(["prune", *base, "--objective", "eff"]) == 0
    assert main(["rules", *base, "--objective", "eff"]) == 0
    return root


def args_for(workdir, *extra):
    return [
        "--config",
        str(workdir / "config.json"),
        "--out-dir",
        str(workdir / "out"),
        *extra,
    ]


def test_staged_files_exist(workdir):
    out = workdir / "out"
    for name in (
        "designs.csv",
        "metrics.csv",
        "dataset.csv",
        "tree_eff.json",
        "tree_eff.txt",
        "pruned_eff.json",
        "rules_eff.json",
        "rules_eff.txt",
    ):
        assert (out / name).exists(), name
    traces = sorted((out / "traces").glob("design_*.csv"))
    assert len(traces) == 30
    assert traces[0].read_text(encoding="utf-8").startswith("x_mm,F_kN\n")


def test_sample_is_deterministic(workdir, tmp_path):
    config = workdir / "config.json"
    assert main(["sample", "--config", str(config), "--out-dir", str(tmp_path)]) == 0
    first = (tmp_path / "designs.csv").read_bytes()
    assert main(["sample", "--config", str(config), "--out-dir", str(tmp_path)]) == 0
    assert (tmp_path / "designs.csv").read_bytes() == first
    assert first == (workdir / "out" / "designs.csv").read_bytes()


def test_seed_override_changes_designs(workdir, tmp_path):
    config = workdir / "config.json"
    base = ["--config", str(config), "--out-dir", str(tmp_path)]
    assert main(["sample", *base, "--seed", "99"]) == 0
    assert (
        (tmp_path / "designs.csv").read_bytes()
        != (workdir / "out" / "designs.csv").read_bytes()
    )
    assert main(["sample", *base, "--k", "7"]) == 0
    lines = (tmp_path / "designs.csv").read_text(encoding="utf-8").splitlines()
    assert len(lines) == 8


def test_label_prints_class_counts(workdir, capsys):
    assert main(["label", *args_for(workdir)]) == 0
    out = capsys.readouterr().out
    assert "wrote graded dataset" in out
    for obj in ("eff", "tea", "light"):
        assert f"{obj}: e=" in out


def test_prune_single_cf(workdir, capsys):
    assert main(["prune", *args_for(workdir, "--objective", "eff", "--cf", "0.25")]) == 0
    out = capsys.readouterr().out
    assert "cf=0.25" in out
    tree = load_tree(workdir / "out" / "tree_eff.json")
    pruned = load_tree(workdir / "out" / "pruned_eff.json")
    assert leaf_count(pruned.root) <= leaf_count(tree.root)


def test_rules_output(workdir):
    text = (workdir / "out" / "rules_eff.txt").read_text(encoding="utf-8")
    first = text.splitlines()[0]
    assert " => " in first
    assert "[n=" in first
    doc = json.loads((workdir / "out" / "rules_eff.json").read_text(encoding="utf-8"))
    assert set(doc) == {"rules", "selected"}
    assert doc["rules"], "expected at least one extracted rule"


def test_validate_writes_report(workdir, capsys):
    assert main(["validate", *args_for(workdir, "--objective", "eff", "--k", "2")]) == 0
    out = capsys.readouterr().out
    assert "fidelity" in out
    report = (workdir / "out" / "validation_eff.csv").read_text(encoding="utf-8")
    assert report.startswith("rule,no,d_mm,n,m,h_mm,t_mm,sea_kj_per_kg,cfe_pct,label")


def test_hollow_report_cli(workdir, capsys):
    assert main(["hollow-report", *args_for(workdir)]) == 0
    out = capsys.readouterr().out
    assert "baseline source: surrogate" in out
    assert (workdir / "out" / "hollow.csv").exists()
    assert main(["hollow-report", *args_for(workdir, "--paper-baselines")]) == 0
    assert "baseline source: reference" in capsys.readouterr().out


def test_sweep_cli(workdir):
    assert main(["sweep", "h", *args_for(workdir)]) == 0
    lines = (workdir / "out" / "sweep_h.csv").read_text(encoding="utf-8").splitlines()
    assert lines[0] == "h,sea_kj_per_kg"
    assert len(lines) == 10


def test_missing_input_is_reported(tmp_path, capsys):
    assert main(["evaluate", "--out-dir", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "error:" in err
    assert "run 'lftmine sample' first" in err
    assert main(["train", "--out-dir", str(tmp_path)]) == 2
    assert "run 'lftmine label' first" in capsys.readouterr().err


def test_config_echo(tmp_path, capsys):
    assert main(["config"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["k"] == 150
    assert doc["tube_material"] == "Al6063-T5"
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"k": 77}), encoding="utf-8")
    assert main(["config", "--config", str(path)]) == 0
    assert json.loads(capsys.readouterr().out)["k"] == 77


def test_bad_config_is_reported(tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text("{oops", encoding="utf-8")
    assert main(["sample", "--config", str(path), "--out-dir", str(tmp_path)]) == 2
    assert "not valid JSON" in capsys.readouterr().err
    path.write_text(json.dumps({"tube_material": "steel"}), encoding="utf-8")
    assert main(["sample", "--config", str(path), "--out-dir", str(tmp_path)]) == 2
    assert "unknown material 'steel'" in capsys.readouterr().err


def test_unknown_objective_rejected(workdir):
    with pytest.raises(SystemExit):
        main(["train", *args_for(workdir, "--objective", "cost")])


def test_pipeline_cli(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(
        json.dumps({"k": 25, "seed": 2, "surrogate": {"sample_step": 2.0}}),
        encoding="utf-8",
    )
    out = tmp_path / "run"
    rc = main(["pipeline", "--config", str(config), "--out-dir", str(out)])
    assert rc == 0
    stdout = capsys.readouterr().out
    assert "wrote" in stdout
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    assert manifest["rows"]["designs"] == 25
    assert (out / "summary.txt").exists()


def test_staged_run_matches_pipeline(workdir, tmp_path):
    """Every staged file reappears byte for byte in a one-shot run."""
    config = str(workdir / "config.json")
    staged, oneshot = tmp_path / "staged", tmp_path / "oneshot"
    base = ["--config", config, "--out-dir", str(staged)]
    for command in ("sample", "evaluate", "label"):
        assert main([command, *base]) == 0
    for obj in ("eff", "tea", "light"):
        for command in ("train", "prune", "rules", "validate"):
            assert main([command, *base, "--objective", obj]) == 0
    assert main(["pipeline", "--config", config, "--out-dir", str(oneshot)]) == 0
    staged_files = {p.name for p in staged.iterdir()}
    oneshot_files = {p.name for p in oneshot.iterdir()}
    assert staged_files <= oneshot_files
    assert oneshot_files - staged_files == {"manifest.json", "rules.json", "summary.txt"}
    for name in sorted(staged_files):
        assert (staged / name).read_bytes() == (oneshot / name).read_bytes(), name


def test_failed_rerun_removes_manifest(workdir, tmp_path, monkeypatch, capsys):
    args = ["pipeline", "--config", str(workdir / "config.json"), "--out-dir", str(tmp_path)]
    assert main(args) == 0
    assert (tmp_path / "manifest.json").exists()

    def fail(*args, **kwargs):
        raise LftError("injected rules failure")

    monkeypatch.setattr(pipeline, "run_rules", fail)
    assert main(args) == 2
    assert "error: injected rules failure" in capsys.readouterr().err
    assert not (tmp_path / "manifest.json").exists()


def test_jobs_option_is_gone(capsys):
    for command in ("evaluate", "pipeline"):
        with pytest.raises(SystemExit) as exc:
            main([command, "--jobs", "2"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --jobs" in capsys.readouterr().err


def test_pipeline_finishes_past_k_1030(tmp_path):
    # the roots of these trees have leaves like n=1050, e=490, where the float
    # binomial terms of a direct sum overflow
    out = tmp_path / "run"
    assert main(["pipeline", "--k", "1050", "--out-dir", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    assert manifest["rows"]["designs"] == 1050
