"""The package's public surface: exported names and fixed-tube signatures."""

import inspect

import pytest

import lftmine
from lftmine import crush, doe, errors, geometry, pipeline, rules

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
    pipeline._geometry_and_mass,
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
