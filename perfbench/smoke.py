"""Smoke tests of the benchmark itself, on tiny-size workload variants.

Run from the repository root with

    python3 -m pytest perfbench/smoke.py -q

The file is not named test_*.py, so the repository's own test run does not
collect it.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
from checks import grade
from tracer import Tracer, layer_metrics
from workloads import WORKLOADS

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.fixture
def work():
    path = run.WORK / "smoke"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    yield path
    shutil.rmtree(path, ignore_errors=True)


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_tiny_workload_passes_its_checks(name, capsys):
    line = run.measure(WORKLOADS[name], seed=3, seconds=0.3, trace=False, tiny=True, probes=1)
    assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 2
    assert list(line["metrics"]) == [m["name"] for m in BENCHMARK["end_to_end"]]
    assert all(m["value"] > 0 for m in line["metrics"].values())
    assert "fail_ratio   0.0000" in capsys.readouterr().out


def test_traced_run_reports_every_layer_metric():
    line = run.measure(WORKLOADS["staged-k150"], seed=0, seconds=0.3, trace=True, tiny=True, probes=1)
    assert line["correct"]
    assert list(line["metrics"]) == [m["name"] for m in BENCHMARK["per_layer"]]
    values = {k: v["value"] for k, v in line["metrics"].items()}
    assert values["rules.evals_per_validation_design"] == 2.0
    assert values["crush.designs"] > 0 and values["dtree.bound_calls"] > 0
    assert values["cli.pipeline.s"] == 0.0


def test_corrupted_label_fails_the_run(work):
    workload = WORKLOADS["evaluate-k20000"]
    result = run.launch(workload, seed=0, seconds=0.0, trace=False, tiny=True, work=work, timeout=120)
    assert len(result["runs"]) >= 2
    dataset = Path(result["runs"][0]["out"]) / "dataset.csv"
    lines = dataset.read_text(encoding="utf-8").splitlines()
    cells = lines[1].split(",")
    cells[-1] = "e" if cells[-1] != "e" else "b"
    lines[1] = ",".join(cells)
    dataset.write_text("\n".join(lines) + "\n", encoding="utf-8")
    run.judge(workload, result, tiny=True)
    first, second = result["runs"][0]["problems"], result["runs"][1]["problems"]
    assert any("regraded" in p for p in first)
    assert any("differ from run 0" in p for p in second)


def test_bare_checkout_exits_nonzero_without_a_result(work):
    shutil.copytree(run.HERE, work / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", work)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "mine-k600", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=work, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_removed_function_yields_null(monkeypatch):
    monkeypatch.syspath_prepend(str(run.SRC))
    import lftmine.cli  # noqa: F401  (loads every module the tracer wraps)
    import lftmine.dtree

    monkeypatch.delattr(lftmine.dtree, "upper_error_bound")
    tracer = Tracer()
    tracer.install()
    tracer.uninstall()
    assert "dtree.upper_error_bound" in tracer.missing
    values = layer_metrics([], tracer.missing)
    assert values["dtree.bound_calls"] is None and values["dtree.bound_reuse_ratio"] is None
    assert values["dtree.build_tree.s"] == 0.0


@pytest.mark.parametrize(
    "objective, sea, second, expected",
    [
        ("eff", 16.0, 45.0, "e"), ("eff", 15.9, 45.0, "g"), ("eff", 13.64, 34.9, "b"),
        ("tea", 16.0, 6.0, "e"), ("tea", 14.0, 4.45, "g"), ("tea", 13.6, 9.0, "b"),
        ("light", 16.0, 0.45, "e"), ("light", 20.0, 0.5, "g"), ("light", 20.0, 0.51, "b"),
    ],
)
def test_regrade_follows_the_readme_table(objective, sea, second, expected):
    assert grade(objective, sea, second) == expected
