"""Gain-ratio tree induction, pessimistic pruning, serialization."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import EFFICIENCY_ROWS, rows_as_dataset
from lftmine.dtree import (
    Dataset,
    DecisionTree,
    SplitCandidate,
    TreeNode,
    branch_count,
    build_tree,
    entropy,
    evaluate_splits,
    format_tree,
    leaf_count,
    load_tree,
    mean_class_recall,
    ordered_classes,
    predict,
    predict_row,
    prune_tree,
    prune_with_ladder,
    save_tree,
    select_split,
    split_scores,
    tree_from_json,
    tree_stats,
    tree_to_dot,
    tree_to_json,
    upper_error_bound,
)
from lftmine.errors import BoundsError, SchemaError


def four_row_data():
    return Dataset(
        attributes=("x",),
        rows=((1.0,), (2.0,), (3.0,), (4.0,)),
        labels=("b", "b", "e", "e"),
    )


def random_dataset(rng, n_rows=40, n_attrs=5):
    attrs = tuple(f"a{i}" for i in range(n_attrs))
    rows = tuple(
        tuple(round(rng.uniform(0.0, 10.0), 2) for _ in range(n_attrs)) for _ in range(n_rows)
    )
    labels = tuple(rng.choice("egb") for _ in range(n_rows))
    return Dataset(attributes=attrs, rows=rows, labels=labels)


def test_entropy_hand_values():
    assert entropy([2, 2]) == 1.0
    assert entropy([4]) == 0.0
    assert entropy([0, 0]) == 0.0
    # probabilities 1/4, 1/4, 1/2: 2*(1/4)*2 + (1/2)*1 = 1.5 bits
    assert math.isclose(entropy([1, 1, 2]), 1.5, rel_tol=1e-15)


def test_split_scores_perfect_cut():
    # split at 2.5 separates the classes exactly: gain 1 bit, even halves
    gain, info, ratio = split_scores(four_row_data(), "x", 2.5)
    assert gain == 1.0
    assert info == 1.0
    assert ratio == 1.0


def test_split_scores_uneven_cut():
    """x <= 1 sends one b left, leaving (b, e, e) right.

    gain  = 1 - (3/4) * h(1/3, 2/3) = 0.311278...
    info  = h(1/4, 3/4)             = 0.811278...
    """
    h_right = -(1 / 3) * math.log2(1 / 3) - (2 / 3) * math.log2(2 / 3)
    want_gain = 1.0 - 0.75 * h_right
    want_info = -(0.25 * math.log2(0.25) + 0.75 * math.log2(0.75))
    gain, info, ratio = split_scores(four_row_data(), "x", 1.0)
    assert math.isclose(gain, want_gain, rel_tol=1e-12)
    assert math.isclose(info, want_info, rel_tol=1e-12)
    assert math.isclose(ratio, want_gain / want_info, rel_tol=1e-12)


def test_split_scores_rejects_bad_input():
    with pytest.raises(SchemaError, match="unknown attribute 'y'"):
        split_scores(four_row_data(), "y", 2.5)
    with pytest.raises(BoundsError, match="empty side"):
        split_scores(four_row_data(), "x", 4.0)
    with pytest.raises(BoundsError, match="empty side"):
        split_scores(four_row_data(), "x", 0.5)


def test_select_split_mean_gain_guard():
    def cand(attr_index, gain, ratio):
        return SplitCandidate(
            attr_index=attr_index,
            attribute=f"a{attr_index}",
            midpoint=1.0,
            threshold=1.0,
            gain=gain,
            gain_ratio=ratio,
            n_left=2,
            n_right=2,
        )

    # the best ratio (0.9) sits below the mean gain (0.5) and is skipped
    picked = select_split([cand(0, 0.9, 0.5), cand(1, 0.1, 0.9), cand(2, 0.5, 0.7)])
    assert picked.attr_index == 2
    # exact ratio tie: the earlier candidate in scan order is kept
    picked = select_split([cand(0, 0.5, 0.7), cand(1, 0.5, 0.7)])
    assert picked.attr_index == 0
    # no positive gain at all
    assert select_split([cand(0, 0.0, 0.0)]) is None


def test_reported_threshold_is_observed_value():
    # the candidate midpoint 2.5 is reported as the data value 2
    data = four_row_data()
    cands = evaluate_splits(data, list(range(4)), ordered_classes(data.labels), 1)
    best = select_split(cands)
    assert best.midpoint == 2.5
    assert best.threshold == 2.0


def _splits_oracle(data, idx, classes, min_leaf):
    """The quadratic scan evaluate_splits replaced: recount both sides at every midpoint."""
    out = []
    n = len(idx)
    parent = entropy([sum(1 for i in idx if data.labels[i] == c) for c in classes])
    for j, attr in enumerate(data.attributes):
        values = sorted({data.rows[i][j] for i in idx})
        for v0, v1 in zip(values, values[1:]):
            mid = 0.5 * (v0 + v1)
            left = [i for i in idx if data.rows[i][j] <= mid]
            right = [i for i in idx if data.rows[i][j] > mid]
            if len(left) < min_leaf or len(right) < min_leaf:
                continue
            h_left = entropy([sum(1 for i in left if data.labels[i] == c) for c in classes])
            h_right = entropy([sum(1 for i in right if data.labels[i] == c) for c in classes])
            gain = parent - (len(left) / n) * h_left - (len(right) / n) * h_right
            split_info = entropy([len(left), len(right)])
            out.append(
                SplitCandidate(
                    attr_index=j,
                    attribute=attr,
                    midpoint=mid,
                    threshold=v0,
                    gain=gain,
                    gain_ratio=gain / split_info,
                    n_left=len(left),
                    n_right=len(right),
                )
            )
    return out


def _next_up(v, steps=1):
    for _ in range(steps):
        v = math.nextafter(v, math.inf)
    return v


# few values, so ties are common; runs of adjacent floats, where a midpoint
# can round up onto the larger value; 0.0 and -0.0 tie but print apart
SPLIT_VALUES = (
    0.0, -0.0, 5e-324, 1e-323, 1.5e-323, 1.0, _next_up(1.0), _next_up(1.0, 2), 2.5, 7.0
)


@settings(max_examples=200, deadline=None, database=None)
@given(
    rows=st.lists(
        st.tuples(st.sampled_from(SPLIT_VALUES), st.sampled_from(SPLIT_VALUES)),
        min_size=1,
        max_size=14,
    ),
    data=st.data(),
    min_leaf=st.integers(1, 3),
    drop_a_class=st.booleans(),
)
def test_evaluate_splits_matches_the_quadratic_scan(rows, data, min_leaf, drop_a_class):
    labels = data.draw(st.lists(st.sampled_from("egb"), min_size=len(rows), max_size=len(rows)))
    dataset = Dataset(attributes=("a", "b"), rows=tuple(rows), labels=tuple(labels))
    order = data.draw(st.permutations(range(len(rows))))
    idx = order[: data.draw(st.integers(1, len(rows)))]
    classes = ordered_classes(dataset.labels)
    if drop_a_class:
        classes = classes[:-1]
    got = evaluate_splits(dataset, idx, classes, min_leaf)
    # repr tells 0.0 from -0.0 and compares every float bit for bit
    assert repr(got) == repr(_splits_oracle(dataset, idx, classes, min_leaf))


def test_midpoint_rounding_onto_the_larger_value_sends_it_left():
    v0, v1 = _next_up(1.0), _next_up(1.0, 2)
    assert 0.5 * (v0 + v1) == v1
    data = Dataset(attributes=("x",), rows=((1.0,), (v0,), (v1,), (3.0,)), labels=tuple("bbee"))
    cuts = {c.threshold: c for c in evaluate_splits(data, range(4), ("e", "b"), 1)}
    assert (cuts[v0].n_left, cuts[v0].n_right) == (3, 1)
    assert (cuts[v1].n_left, cuts[v1].n_right) == (3, 1)


def test_build_two_leaf_tree():
    tree = build_tree(four_row_data(), min_leaf=1)
    root = tree.root
    assert root.attribute == "x"
    assert root.threshold == 2.0
    assert root.left.is_leaf and root.left.label == "b" and root.left.n_errors == 0
    assert root.right.is_leaf and root.right.label == "e" and root.right.n_errors == 0
    assert predict(tree, {"x": 2.0}) == "b"
    assert predict(tree, {"x": 2.1}) == "e"


def test_efficiency_fixture_tree():
    """The printed efficiency table grows a five-leaf tree rooted on d.

    The d > 2 branch is a pure five-row e leaf and every class is
    recalled perfectly.
    """
    data = rows_as_dataset(EFFICIENCY_ROWS)
    tree = build_tree(data, min_leaf=1)
    assert tree.root.attribute == "d"
    assert tree.root.threshold == 2.0
    right = tree.root.right
    assert right.is_leaf and right.label == "e"
    assert right.n_total == 5 and right.n_errors == 0
    assert leaf_count(tree.root) == 5
    assert branch_count(tree.root) == 8
    stats = tree_stats(tree, data)
    assert stats.per_class_recall == {"e": 1.0, "g": 1.0, "b": 1.0}
    assert stats.average_accuracy == 1.0
    assert stats.leaf_count == 5
    for row, label in zip(data.rows, data.labels):
        assert predict_row(tree, row) == label


def test_stop_conditions():
    pure = Dataset(attributes=("x",), rows=((1.0,), (2.0,)), labels=("e", "e"))
    assert build_tree(pure, min_leaf=1).root.is_leaf
    # too small to split both sides at min_leaf=2
    small = Dataset(attributes=("x",), rows=((1.0,), (2.0,), (3.0,)), labels=("e", "b", "e"))
    assert build_tree(small, min_leaf=2).root.is_leaf
    # identical halves on either side of the only cut: zero gain
    flat = Dataset(
        attributes=("x",),
        rows=((1.0,), (1.0,), (2.0,), (2.0,)),
        labels=("b", "e", "b", "e"),
    )
    assert build_tree(flat, min_leaf=1).root.is_leaf


def test_build_rejects_bad_input():
    with pytest.raises(BoundsError, match="min_leaf=0"):
        build_tree(four_row_data(), min_leaf=0)
    with pytest.raises(SchemaError, match="empty dataset"):
        build_tree(Dataset(attributes=("x",), rows=(), labels=()))


def test_majority_tie_breaks():
    # equal counts and equal global frequency: earlier class order wins
    tied = Dataset(attributes=("x",), rows=((1.0,), (1.0,)), labels=("g", "e"))
    assert build_tree(tied, min_leaf=1).root.label == "e"
    # equal counts at the node, g more frequent overall: g wins
    data = Dataset(
        attributes=("x",),
        rows=((1.0,), (1.0,), (9.0,)),
        labels=("e", "g", "g"),
    )
    tree = build_tree(data, min_leaf=1)
    assert predict(tree, {"x": 1.0}) == "g"


def test_dataset_shape_is_checked():
    with pytest.raises(SchemaError, match="row/label count mismatch"):
        Dataset(attributes=("x",), rows=((1.0,),), labels=("e", "b"))
    with pytest.raises(SchemaError, match="row 1 has 1 values, expected 2"):
        Dataset(attributes=("x", "y"), rows=((1.0, 2.0), (1.0,)), labels=("e", "b"))


def test_predict_requires_all_attributes():
    tree = build_tree(four_row_data(), min_leaf=1)
    with pytest.raises(SchemaError, match="missing attribute values: x"):
        predict(tree, {"y": 1.0})


def test_upper_error_bound_values():
    from lftmine.dtree import upper_error_bound

    assert math.isclose(upper_error_bound(0.25, 10, 0), 0.12944943670387588, rel_tol=1e-12)
    for n in (1, 5, 40):
        assert math.isclose(
            upper_error_bound(0.25, n, 0), 1.0 - 0.25 ** (1.0 / n), rel_tol=1e-12
        )
    assert upper_error_bound(0.25, 7, 7) == 1.0
    # the bisection inverts the binomial tail: P(X <= e | n, p) == cf
    p = upper_error_bound(0.25, 100, 10)
    cdf = math.fsum(
        math.comb(100, i) * p**i * (1.0 - p) ** (100 - i) for i in range(11)
    )
    assert math.isclose(cdf, 0.25, abs_tol=1e-6)
    # more observed errors never lower the bound
    bounds = [upper_error_bound(0.25, 12, e) for e in range(13)]
    assert bounds == sorted(bounds)


def test_upper_error_bound_rejects_bad_input():
    from lftmine.dtree import upper_error_bound

    with pytest.raises(BoundsError, match="cf=0"):
        upper_error_bound(0.0, 10, 0)
    with pytest.raises(BoundsError, match="cf=1.0"):
        upper_error_bound(1.0, 10, 0)
    with pytest.raises(BoundsError, match="n=0"):
        upper_error_bound(0.25, 0, 0)
    with pytest.raises(BoundsError, match=r"e=5 must be in \[0, 4\]"):
        upper_error_bound(0.25, 4, 5)


def test_upper_error_bound_is_finite_at_large_n():
    # the float binomial terms of a direct sum overflow from n of about 1030
    beta = pytest.importorskip("scipy.stats").beta
    for n, e in ((2000, 1000), (1050, 490)):
        bound = upper_error_bound(0.25, n, e)
        assert math.isfinite(bound)
        assert bound == pytest.approx(beta.ppf(0.75, e + 1, n - e), abs=1e-12)


def test_prune_tree_computes_each_bound_once_per_call(monkeypatch):
    import lftmine.dtree as dtree

    calls = []

    def counted(cf, n, e):
        calls.append((cf, n, e))
        return upper_error_bound(cf, n, e)

    monkeypatch.setattr(dtree, "upper_error_bound", counted)
    # the two children share (n, e) = (5, 1)
    left = TreeNode(counts={"e": 1, "b": 4}, label="b", n_total=5, n_errors=1)
    right = TreeNode(counts={"e": 4, "b": 1}, label="e", n_total=5, n_errors=1)
    root = TreeNode(
        counts={"e": 5, "b": 5},
        label="b",
        n_total=10,
        n_errors=5,
        attribute="x",
        attr_index=0,
        threshold=5.0,
        left=left,
        right=right,
    )
    tree = DecisionTree(root=root, attributes=("x",), classes=("e", "b"), min_leaf=1)
    prune_tree(tree, 0.25)
    assert sorted(calls) == [(0.25, 5, 1), (0.25, 10, 5)]
    # the memo ends with the call: a second prune computes the bounds again
    prune_tree(tree, 0.25)
    assert len(calls) == 4


# a leaf (n, e) with 1 <= n <= 150 and 0 <= e <= n
leaves = st.integers(1, 150).flatmap(lambda n: st.tuples(st.just(n), st.integers(0, n)))
confidences = st.floats(0.001, 0.499)
bound_settings = settings(max_examples=20, deadline=None, database=None)


@bound_settings
@given(leaves, confidences)
def test_upper_error_bound_lies_between_rate_and_one(leaf, cf):
    n, e = leaf
    assert e / n <= upper_error_bound(cf, n, e) <= 1.0


@bound_settings
@given(leaves, confidences)
def test_upper_error_bound_rises_with_errors(leaf, cf):
    n, e = leaf
    if e < n:
        assert upper_error_bound(cf, n, e + 1) >= upper_error_bound(cf, n, e)


@bound_settings
@given(leaves, confidences, confidences)
def test_upper_error_bound_falls_with_confidence(leaf, cf_a, cf_b):
    n, e = leaf
    lo, hi = sorted((cf_a, cf_b))
    assert upper_error_bound(hi, n, e) <= upper_error_bound(lo, n, e)


@bound_settings
@given(leaves, confidences)
def test_upper_error_bound_is_the_beta_quantile(leaf, cf):
    beta = pytest.importorskip("scipy.stats").beta
    n, e = leaf
    if 0 < e < n:
        assert upper_error_bound(cf, n, e) == pytest.approx(
            beta.ppf(1.0 - cf, e + 1, n - e), abs=1e-9
        )


def two_noisy_leaf_tree():
    # children carry one error each; collapsing the pair is cheaper at cf 0.25
    left = TreeNode(counts={"e": 1, "b": 5}, label="b", n_total=6, n_errors=1)
    right = TreeNode(counts={"e": 1, "b": 3}, label="b", n_total=4, n_errors=1)
    root = TreeNode(
        counts={"e": 2, "b": 8},
        label="b",
        n_total=10,
        n_errors=2,
        attribute="x",
        attr_index=0,
        threshold=1.5,
        left=left,
        right=right,
    )
    return DecisionTree(root=root, attributes=("x",), classes=("e", "b"), min_leaf=1)


def test_prune_collapses_marginal_split():
    pruned = prune_tree(two_noisy_leaf_tree(), 0.25)
    assert pruned.root.is_leaf
    assert pruned.root.label == "b"
    assert pruned.root.n_total == 10


def test_prune_keeps_clean_split():
    tree = build_tree(four_row_data(), min_leaf=2)
    pruned = prune_tree(tree, 0.25)
    assert not pruned.root.is_leaf
    assert format_tree(pruned) == format_tree(tree)


def test_prune_never_adds_leaves():
    for seed in range(8):
        rng = random.Random(seed)
        data = random_dataset(rng)
        tree = build_tree(data, min_leaf=2)
        for cf in (0.25, 0.10, 0.05, 0.01):
            assert leaf_count(prune_tree(tree, cf).root) <= leaf_count(tree.root)


def test_ladder_respects_recall_floor():
    for seed in range(6):
        rng = random.Random(100 + seed)
        data = random_dataset(rng)
        tree = build_tree(data, min_leaf=2)
        result = prune_with_ladder(tree, data)
        assert math.isclose(result.recall, mean_class_recall(result.tree, data), rel_tol=1e-12)
        if result.cf is None:
            assert leaf_count(result.tree.root) == leaf_count(tree.root)
        else:
            assert result.recall >= 0.8 - 1e-12
            assert result.cf in (0.25, 0.10, 0.05, 0.01)


def test_ladder_picks_fewest_leaves():
    data = rows_as_dataset(EFFICIENCY_ROWS)
    tree = build_tree(data, min_leaf=1)
    result = prune_with_ladder(tree, data)
    if result.cf is not None:
        for cf in (0.25, 0.10, 0.05, 0.01):
            candidate = prune_tree(tree, cf)
            if mean_class_recall(candidate, data) >= 0.8 - 1e-12:
                assert leaf_count(result.tree.root) <= leaf_count(candidate.root)


def test_tree_stats_skips_absent_classes():
    tree = build_tree(four_row_data(), min_leaf=1)
    only_e = Dataset(attributes=("x",), rows=((3.0,), (4.0,)), labels=("e", "e"))
    stats = tree_stats(tree, only_e)
    assert stats.per_class_recall == {"e": 1.0}
    assert stats.average_accuracy == 1.0
    assert stats.branch_count == 2


def test_format_tree_layout():
    tree = build_tree(four_row_data(), min_leaf=1)
    assert format_tree(tree) == "x <= 2: b (2)\nx > 2: e (2)"
    noisy = two_noisy_leaf_tree()
    assert "b (6/1)" in format_tree(noisy)
    collapsed = prune_tree(noisy, 0.25)
    assert format_tree(collapsed) == "b (10/2)"


def test_tree_to_dot_layout():
    dot = tree_to_dot(build_tree(four_row_data(), min_leaf=1))
    assert dot.startswith("digraph decision_tree {\n  node [shape=box];\n")
    assert dot.endswith("}\n")
    assert '  n0 [label="x"];' in dot
    assert '[label="b (2)", style=rounded];' in dot
    assert '  n0 -> n1 [label="<= 2"];' in dot
    assert '  n0 -> n2 [label="> 2"];' in dot


def test_json_round_trip(tmp_path):
    data = rows_as_dataset(EFFICIENCY_ROWS)
    tree = build_tree(data, min_leaf=1)
    clone = tree_from_json(tree_to_json(tree))
    assert format_tree(clone) == format_tree(tree)
    assert clone.attributes == tree.attributes
    assert clone.classes == tree.classes
    assert clone.min_leaf == tree.min_leaf
    for row in data.rows:
        assert predict_row(clone, row) == predict_row(tree, row)
    path = tmp_path / "tree.json"
    save_tree(tree, path)
    assert load_tree(path).root == tree.root


def test_malformed_json_is_reported():
    with pytest.raises(SchemaError, match="malformed tree document"):
        tree_from_json("{}")
    with pytest.raises(SchemaError, match="malformed tree document"):
        tree_from_json('{"attributes": ["x"], "classes": ["e"], "min_leaf": 1}')
