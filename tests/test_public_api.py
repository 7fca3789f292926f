"""The package's public surface: exported names and fixed-tube signatures."""

import ast
import importlib.util
import inspect
from pathlib import Path

import pytest

import lftmine
from lftmine import crush, doe, dtree, errors, geometry, metrics, pipeline, rules

ROOT = Path(__file__).resolve().parents[1]

# one tube and one design box: these take no tube constants or design space
NO_TUBE_ARGUMENT = (
    geometry.derive_geometry,
    geometry.tube_mass_kg,
    geometry.compute_mass,
    crush.mean_tube_force,
    crush.crush_inputs,
    crush.hollow_inputs,
    crush.simulate_crush,
    crush.hollow_trace,
    pipeline.record_for,
    pipeline.evaluate_many,
    pipeline.hollow_rows,
)
NO_SPACE_ARGUMENT = (doe.lhs_sample, rules.sample_in_rule, rules.validate_rule)


def test_every_exported_name_resolves():
    assert len(set(lftmine.__all__)) == len(lftmine.__all__)
    for name in lftmine.__all__:
        assert hasattr(lftmine, name), name


@pytest.mark.parametrize(
    "module, name",
    [
        (geometry, "TubeConstants"),
        (doe, "DesignSpace"),
        (doe, "VariableBounds"),
        (errors, "NumericError"),
        (pipeline, "evaluate_design"),
        (pipeline, "DesignRecord"),
        (pipeline, "_geometry_and_mass"),
        (rules, "_stratified_open_low"),
        (crush, "ingest_trace"),
        (dtree, "split_scores"),
        (metrics, "peak_force"),
    ],
)
def test_removed_names_are_gone(module, name):
    assert not hasattr(module, name)
    assert not hasattr(lftmine, name)
    assert name not in lftmine.__all__


@pytest.mark.parametrize("fn", NO_TUBE_ARGUMENT, ids=lambda fn: fn.__name__)
def test_tube_is_not_a_parameter(fn):
    assert "c" not in inspect.signature(fn).parameters


@pytest.mark.parametrize("fn", NO_SPACE_ARGUMENT, ids=lambda fn: fn.__name__)
def test_design_box_is_not_a_parameter(fn):
    assert "space" not in inspect.signature(fn).parameters


def test_sweep_grid_and_anchor_are_not_parameters():
    assert list(inspect.signature(pipeline.run_sweep).parameters) == ["variable", "cfg", "out_dir"]


def test_objectives_and_validation_count_are_not_parameters():
    assert list(inspect.signature(pipeline.run_pipeline).parameters) == ["cfg", "out_dir", "trace_dir"]
    cfg = inspect.signature(pipeline.hollow_rows).parameters["cfg"]
    assert cfg.default is inspect.Parameter.empty


def load_tracer():
    path = ROOT / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_every_traced_name_resolves():
    """The benchmark's tracer wraps functions by module and name; a per-layer
    metric built on a name that no longer resolves reads null."""
    traced = load_tracer().Tracer()
    original = pipeline.record_for
    try:
        traced.install()
    finally:
        traced.uninstall()
    assert not traced.missing
    assert pipeline.record_for is original


def _referenced_names(node: ast.AST) -> set[str]:
    """Names and attributes a piece of code reads; docstrings and imports
    are not references."""
    return {
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(node)
        if isinstance(n, (ast.Name, ast.Attribute))
    }


def test_every_public_definition_is_used():
    """A public top-level function or class of src/lftmine needs a user
    besides itself: other package code, an acceptance criterion, or a
    function the benchmark's tracer wraps."""
    defined: list[tuple[str, str]] = []
    users: list[tuple[tuple[str, str] | None, set[str]]] = []
    for path in sorted((ROOT / "src" / "lftmine").glob("*.py")):
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
            key = None
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)) and not stmt.name.startswith("_"):
                key = (path.stem, stmt.name)
                defined.append(key)
            users.append((key, _referenced_names(stmt)))
    acceptance = ast.parse((ROOT / "tests" / "test_acceptance.py").read_text(encoding="utf-8"))
    users.append((None, _referenced_names(acceptance)))
    traced = {(module, name) for module, name, _ in load_tracer().TARGETS}
    unused = [
        f"{module}.{name}"
        for module, name in defined
        if (module, name) not in traced
        and not any(key != (module, name) and name in names for key, names in users)
    ]
    assert not unused, f"public definitions nothing uses: {', '.join(unused)}"
