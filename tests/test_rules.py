"""Rule extraction, box tiling, region sampling, fidelity checks."""

import math
import random

import pytest

from conftest import EFFICIENCY_ROWS, rows_as_dataset
from lftmine.dtree import build_tree, predict
from lftmine.errors import BoundsError, InfeasibleRuleError, RuleNotFoundError, SchemaError
from lftmine.geometry import DesignPoint
from lftmine.rules import (
    Interval,
    Rule,
    extract_rules,
    format_rules,
    load_rules,
    matching_rules,
    sample_in_rule,
    save_rules,
    select_rule,
    validate_rule,
)


def test_interval_semantics():
    iv = Interval(lower=1.0, upper=2.0)
    assert not iv.contains(1.0)  # lower bound is open
    assert iv.contains(1.5)
    assert iv.contains(2.0)  # upper bound is closed
    assert not iv.contains(2.1)
    assert Interval(upper=2.0).contains(-50.0)
    assert Interval(lower=2.0).contains(1e9)
    with pytest.raises(InfeasibleRuleError, match=r"empty interval \(2.0, 1.0\]"):
        Interval(lower=2.0, upper=1.0)
    with pytest.raises(InfeasibleRuleError, match="empty interval"):
        Interval(lower=2.0, upper=2.0)


def test_descriptions():
    assert Interval(lower=1.0, upper=2.0).describe("d") == "1 < d <= 2"
    assert Interval(lower=2.75706).describe("d") == "d > 2.75706"
    assert Interval(upper=2.0).describe("m") == "m <= 2"
    rule = Rule(
        label="e",
        conditions={"d": Interval(lower=2.75706), "m": Interval(upper=2.0)},
        n_total=5,
        n_errors=0,
        path_length=2,
    )
    assert rule.describe() == "d > 2.75706 and m <= 2 => e"
    bare = Rule(label="g", conditions={}, n_total=3, n_errors=1, path_length=0)
    assert bare.describe() == "always => g"


def test_extract_merges_path_conditions():
    """Nested cuts on the same attribute merge into one interval.

    The printed efficiency table's g leaf sits under d <= 2, d <= 1.9,
    d > 1, d <= 1.7, which is just 1 < d <= 1.7.
    """
    tree = build_tree(rows_as_dataset(EFFICIENCY_ROWS), min_leaf=1)
    rules = extract_rules(tree)
    assert len(rules) == 5
    g_rules = [r for r in rules if r.label == "g"]
    merged = [r for r in g_rules if r.conditions == {"d": Interval(lower=1.0, upper=1.7)}]
    assert len(merged) == 1
    assert merged[0].n_total == 2
    assert merged[0].path_length == 4
    # the pure excellent leaf keeps its single condition
    e_rules = [r for r in rules if r.label == "e"]
    assert e_rules == [
        Rule(
            label="e",
            conditions={"d": Interval(lower=2.0)},
            n_total=5,
            n_errors=0,
            path_length=1,
        )
    ]


def test_rules_tile_the_design_box():
    tree = build_tree(rows_as_dataset(EFFICIENCY_ROWS), min_leaf=1)
    rules = extract_rules(tree)
    rng = random.Random(7)
    for _ in range(500):
        values = {
            "d": rng.uniform(1.0, 3.0),
            "n": rng.randint(2, 6),
            "m": rng.randint(2, 5),
            "t": rng.uniform(0.8, 2.0),
            "h": rng.uniform(0.0, 5.0),
        }
        hits = matching_rules(rules, values)
        assert len(hits) == 1
        assert hits[0].label == predict(tree, values)


def make_rule(label, conditions, n_total=4, n_errors=0, path_length=1):
    return Rule(
        label=label,
        conditions=conditions,
        n_total=n_total,
        n_errors=n_errors,
        path_length=path_length,
    )


def test_select_rule_tie_chain():
    attrs = ("d", "n", "m", "t", "h")
    short = make_rule("e", {"d": Interval(lower=2.0)}, path_length=1)
    long = make_rule("e", {"d": Interval(lower=2.0), "m": Interval(upper=3.0)}, path_length=2)
    assert select_rule([long, short], "e", attrs) is short
    clean = make_rule("e", {"d": Interval(lower=2.0)}, n_errors=0)
    noisy = make_rule("e", {"d": Interval(lower=2.5)}, n_errors=1)
    assert select_rule([noisy, clean], "e", attrs) is clean
    big = make_rule("e", {"d": Interval(lower=2.0)}, n_total=9)
    small = make_rule("e", {"d": Interval(lower=2.0)}, n_total=4)
    assert select_rule([small, big], "e", attrs) is big
    lower = make_rule("e", {"d": Interval(lower=1.5)})
    higher = make_rule("e", {"d": Interval(lower=2.5)})
    assert select_rule([higher, lower], "e", attrs) is lower
    with pytest.raises(RuleNotFoundError, match="no rule predicts class 'q'"):
        select_rule([short], "q", attrs)


def test_sample_in_rule_stays_inside_region():
    rule = make_rule("e", {"d": Interval(lower=2.0), "m": Interval(upper=2.0)})
    designs = sample_in_rule(rule, k=40, seed=5)
    assert len(designs) == 40
    for dp in designs:
        assert 2.0 < dp.d <= 3.0
        assert dp.m == 2
        assert 2 <= dp.n <= 6
        assert 0.8 <= dp.t <= 2.0
        assert 0.0 <= dp.h <= 5.0
    assert sample_in_rule(rule, k=40, seed=5) == designs
    assert sample_in_rule(rule, k=0) == []
    with pytest.raises(BoundsError, match="must be non-negative"):
        sample_in_rule(rule, k=-1)


def test_sample_open_lower_bound_is_stratified():
    # h > 0 draws land in (0, 5] with one point per stratum
    rule = make_rule("g", {"h": Interval(lower=0.0)})
    designs = sample_in_rule(rule, k=10, seed=2)
    hs = sorted(dp.h for dp in designs)
    assert all(h > 0.0 for h in hs)
    for j, h in enumerate(hs):
        assert j * 0.5 < h <= (j + 1) * 0.5


def test_sample_degenerate_interval():
    # d <= 1 intersected with the box [1, 3] pins d at exactly 1
    rule = make_rule("b", {"d": Interval(upper=1.0)})
    designs = sample_in_rule(rule, k=6, seed=0)
    assert all(dp.d == 1.0 for dp in designs)


def test_sample_integer_sets():
    rule = make_rule("e", {"n": Interval(lower=2.0)})
    designs = sample_in_rule(rule, k=32, seed=9)
    seen = {dp.n for dp in designs}
    assert seen == {3, 4, 5, 6}
    with pytest.raises(InfeasibleRuleError, match="admits no n"):
        sample_in_rule(make_rule("e", {"n": Interval(lower=6.0)}), k=4)
    with pytest.raises(InfeasibleRuleError, match="admits no integer n"):
        sample_in_rule(make_rule("e", {"n": Interval(lower=2.0, upper=2.9)}), k=4)
    with pytest.raises(InfeasibleRuleError, match="admits no d"):
        sample_in_rule(make_rule("e", {"d": Interval(lower=5.0)}), k=4)


def test_validate_rule_with_injected_designs():
    rule = make_rule("e", {"d": Interval(lower=2.0)})
    designs = [
        DesignPoint(n=3, m=3, d=2.6, t=1.0, h=1.0),
        DesignPoint(n=3, m=3, d=2.7, t=1.0, h=1.0),
        DesignPoint(n=3, m=3, d=2.2, t=1.0, h=1.0),
        DesignPoint(n=3, m=3, d=2.4, t=1.0, h=1.0),
    ]
    labeler = lambda dp: "e" if dp.d > 2.5 else "g"
    result = validate_rule(rule, labeler, designs=designs)
    assert result.hits == 2
    assert result.fidelity_pct == 50.0
    assert result.labels == ("e", "e", "g", "g")
    assert result.designs == tuple(designs)


def test_validate_rule_samples_when_not_given():
    rule = make_rule("e", {"d": Interval(lower=2.0)})
    result = validate_rule(rule, lambda dp: "e" if dp.d > 2.0 else "b", k=25, seed=3)
    assert result.fidelity_pct == 100.0
    assert len(result.designs) == 25


def test_validate_rule_error_context():
    rule = make_rule("e", {})

    def boom(dp):
        raise BoundsError("flow stress must be positive")

    with pytest.raises(BoundsError, match="validation design 0: flow stress"):
        validate_rule(rule, boom, k=3)
    with pytest.raises(SchemaError, match="at least one design"):
        validate_rule(rule, lambda dp: "e", designs=[])


def test_format_rules_layout():
    rule = make_rule("e", {"d": Interval(lower=2.0)}, n_total=5, n_errors=1, path_length=2)
    line = format_rules([rule])
    assert line == "d > 2 => e  [n=5, errors=1, error rate=0.200, path length=2]"


def test_save_load_round_trip(tmp_path):
    tree = build_tree(rows_as_dataset(EFFICIENCY_ROWS), min_leaf=1)
    rules = extract_rules(tree)
    selected = {c: select_rule(rules, c, tree.attributes) for c in tree.classes}
    path = tmp_path / "rules.json"
    save_rules(rules, selected, path)
    loaded_rules, loaded_selected = load_rules(path)
    assert loaded_rules == rules
    assert loaded_selected == selected
    path.write_text('{"rules": [{"label": "e"}], "selected": {}}', encoding="utf-8")
    with pytest.raises(SchemaError, match="malformed rule"):
        load_rules(path)
