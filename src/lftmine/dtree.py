"""Decision-tree induction with gain-ratio splits and pessimistic pruning.

The learner grows binary trees over numeric attributes. At each node every
midpoint between consecutive distinct attribute values is a candidate cut;
candidates whose information gain reaches the mean gain of all
positive-gain candidates compete on gain ratio, and the winner is reported
with the largest observed value at or below the winning midpoint, so cut
points are always actual data values.

Selection is deterministic: candidates are scanned attribute by attribute
in dataset order with thresholds ascending, and a candidate replaces the
incumbent only when its gain ratio is larger by more than 1e-12. Equal-ratio
ties therefore resolve to the earliest attribute, then the smallest cut.

Pruning is pessimistic subtree replacement: each leaf's error count is
inflated to the upper confidence bound of the binomial error rate at
confidence ``cf``, and an internal node collapses to a leaf when its own
inflated error estimate does not exceed the sum over its branches. A
confidence ladder retries with more aggressive settings while the
unweighted mean per-class recall on the training data stays at or above a
floor.
"""

from __future__ import annotations

import json
import math
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, replace
from pathlib import Path

from .errors import BoundsError, SchemaError
from .labeling import CLASS_ORDER

ATTRIBUTE_ORDER = ("d", "n", "m", "t", "h")

# comparison slack for gain and gain-ratio ties
GAIN_EPS = 1e-12

PRUNE_CF_LADDER = (0.25, 0.10, 0.05, 0.01)
RECALL_FLOOR = 0.8


@dataclass(frozen=True)
class Dataset:
    """Numeric attribute table with one class label per row."""

    attributes: tuple[str, ...]
    rows: tuple[tuple[float, ...], ...]
    labels: tuple[str, ...]

    def __post_init__(self) -> None:
        if len(self.rows) != len(self.labels):
            raise SchemaError(
                f"row/label count mismatch: {len(self.rows)} rows, {len(self.labels)} labels"
            )
        width = len(self.attributes)
        for i, row in enumerate(self.rows):
            if len(row) != width:
                raise SchemaError(f"row {i} has {len(row)} values, expected {width}")

    def __len__(self) -> int:
        return len(self.rows)


@dataclass(frozen=True)
class TreeNode:
    """One tree node; attribute is None on leaves."""

    counts: dict[str, int]
    label: str
    n_total: int
    n_errors: int
    attribute: str | None = None
    attr_index: int | None = None
    threshold: float | None = None
    left: TreeNode | None = None
    right: TreeNode | None = None

    @property
    def is_leaf(self) -> bool:
        return self.attribute is None


@dataclass(frozen=True)
class DecisionTree:
    root: TreeNode
    attributes: tuple[str, ...]
    classes: tuple[str, ...]
    min_leaf: int


def _class_key(label: str) -> tuple[int, str]:
    try:
        return (CLASS_ORDER.index(label), "")
    except ValueError:
        return (len(CLASS_ORDER), label)


def ordered_classes(labels: Sequence[str]) -> tuple[str, ...]:
    return tuple(sorted(set(labels), key=_class_key))


def entropy(counts: Sequence[int]) -> float:
    """Shannon entropy in bits of a count vector."""
    n = sum(counts)
    if n == 0:
        return 0.0
    h = 0.0
    for c in counts:
        if c:
            p = c / n
            h -= p * math.log2(p)
    return h


def split_scores(
    data: Dataset, attribute: str, threshold: float
) -> tuple[float, float, float]:
    """(information gain, split info, gain ratio) for one binary cut.

    The cut sends value <= threshold left and value > threshold right.
    Both sides must be non-empty.
    """
    if attribute not in data.attributes:
        raise SchemaError(f"unknown attribute {attribute!r}, expected one of {data.attributes}")
    col = data.attributes.index(attribute)
    classes = ordered_classes(data.labels)
    pos = {c: i for i, c in enumerate(classes)}
    total = [0] * len(classes)
    left = [0] * len(classes)
    for row, label in zip(data.rows, data.labels):
        total[pos[label]] += 1
        if row[col] <= threshold:
            left[pos[label]] += 1
    n, n_left = len(data.rows), sum(left)
    n_right = n - n_left
    if n_left == 0 or n_right == 0:
        raise BoundsError(
            f"threshold {threshold} leaves an empty side for attribute {attribute!r}"
        )
    right = [t - l for t, l in zip(total, left)]
    gain = entropy(total) - (n_left / n) * entropy(left) - (n_right / n) * entropy(right)
    split_info = entropy([n_left, n_right])
    return gain, split_info, gain / split_info


@dataclass(frozen=True)
class SplitCandidate:
    """One evaluated cut, kept for inspection and for test oracles."""

    attr_index: int
    attribute: str
    midpoint: float
    threshold: float
    gain: float
    gain_ratio: float
    n_left: int
    n_right: int


def evaluate_splits(
    data: Dataset, idx: Sequence[int], classes: Sequence[str], min_leaf: int
) -> list[SplitCandidate]:
    """All admissible cuts at a node, in attribute-then-threshold order.

    Each attribute is sorted once; one sweep over its distinct values
    keeps the class counts at or below each value, so every cut is
    scored from counts instead of a pass over the node's rows.
    """
    out: list[SplitCandidate] = []
    n = len(idx)
    n_classes = len(classes)
    pos = {c: i for i, c in enumerate(classes)}
    # labels outside classes count toward side sizes only, in the last slot
    codes = [pos.get(data.labels[i], n_classes) for i in idx]
    total = [codes.count(k) for k in range(n_classes)]
    parent = entropy(total)
    for j, attr in enumerate(data.attributes):
        column = [data.rows[i][j] for i in idx]
        # values[g] is the g-th smallest distinct value, first seen in idx
        # order; below[g] counts the rows at or below it by class
        values: list[float] = []
        below: list[list[int]] = []
        counts = [0] * (n_classes + 1)
        for r in sorted(range(n), key=column.__getitem__):
            v = column[r]
            if not values or v != values[-1]:
                if values:
                    below.append(counts.copy())
                values.append(v)
            counts[codes[r]] += 1
        below.append(counts)
        for g in range(len(values) - 1):
            v0, v1 = values[g], values[g + 1]
            mid = 0.5 * (v0 + v1)
            # the midpoint can round up to v1, which then goes left too
            left = below[g + 1] if mid >= v1 else below[g]
            n_left = sum(left)
            n_right = n - n_left
            if n_left < min_leaf or n_right < min_leaf:
                continue
            h_left = entropy(left[:n_classes])
            h_right = entropy([t - c for t, c in zip(total, left)])
            gain = parent - (n_left / n) * h_left - (n_right / n) * h_right
            split_info = entropy([n_left, n_right])
            out.append(
                SplitCandidate(
                    attr_index=j,
                    attribute=attr,
                    midpoint=mid,
                    threshold=v0,
                    gain=gain,
                    gain_ratio=gain / split_info,
                    n_left=n_left,
                    n_right=n_right,
                )
            )
    return out


def select_split(candidates: Sequence[SplitCandidate]) -> SplitCandidate | None:
    """Best admissible cut, or None when no cut gains information.

    Only cuts with at least the mean positive gain compete; the winner has
    the largest gain ratio, with 1e-12 slack resolving ties to the earliest
    candidate in scan order.
    """
    positive = [c for c in candidates if c.gain > GAIN_EPS]
    if not positive:
        return None
    mean_gain = math.fsum(c.gain for c in positive) / len(positive)
    best: SplitCandidate | None = None
    for cand in positive:
        if cand.gain < mean_gain - GAIN_EPS:
            continue
        if best is None or cand.gain_ratio > best.gain_ratio + GAIN_EPS:
            best = cand
    return best


def build_tree(data: Dataset, min_leaf: int = 2) -> DecisionTree:
    """Grow an unpruned tree; splitting stops on purity, size, or zero gain."""
    if min_leaf < 1:
        raise BoundsError(f"min_leaf={min_leaf} must be at least 1")
    if not data.rows:
        raise SchemaError("cannot train on an empty dataset")
    classes = ordered_classes(data.labels)
    root_counts = {c: data.labels.count(c) for c in classes}

    def majority(counts: dict[str, int]) -> str:
        # ties fall back to global frequency, then to class order
        best = max(counts.values())
        tied = [c for c in classes if counts[c] == best]
        return max(tied, key=lambda c: (root_counts[c], -classes.index(c)))

    def node_for(idx: list[int]) -> TreeNode:
        counts = {c: sum(1 for i in idx if data.labels[i] == c) for c in classes}
        label = majority(counts)
        return TreeNode(
            counts=counts, label=label, n_total=len(idx), n_errors=len(idx) - counts[label]
        )

    def grow(idx: list[int]) -> TreeNode:
        node = node_for(idx)
        if node.n_errors == 0 or node.n_total < 2 * min_leaf:
            return node
        split = select_split(evaluate_splits(data, idx, classes, min_leaf))
        if split is None:
            return node
        j, thr = split.attr_index, split.threshold
        left = grow([i for i in idx if data.rows[i][j] <= thr])
        right = grow([i for i in idx if data.rows[i][j] > thr])
        return replace(
            node,
            attribute=split.attribute,
            attr_index=j,
            threshold=thr,
            left=left,
            right=right,
        )

    root = grow(list(range(len(data))))
    return DecisionTree(root=root, attributes=data.attributes, classes=classes, min_leaf=min_leaf)


def predict_row(tree: DecisionTree, row: Sequence[float]) -> str:
    node = tree.root
    while not node.is_leaf:
        node = node.left if row[node.attr_index] <= node.threshold else node.right
    return node.label


def predict(tree: DecisionTree, values: Mapping[str, float]) -> str:
    """Classify a value mapping keyed by attribute name."""
    missing = [a for a in tree.attributes if a not in values]
    if missing:
        raise SchemaError(f"missing attribute values: {', '.join(missing)}")
    row = [float(values[a]) for a in tree.attributes]
    return predict_row(tree, row)


def leaf_count(node: TreeNode) -> int:
    if node.is_leaf:
        return 1
    return leaf_count(node.left) + leaf_count(node.right)


def tree_depth(node: TreeNode) -> int:
    if node.is_leaf:
        return 0
    return 1 + max(tree_depth(node.left), tree_depth(node.right))


def _class_recall(tree: DecisionTree, data: Dataset) -> dict[str, float]:
    """Recall of each class present in data, in class order."""
    hits: dict[str, int] = {}
    totals: dict[str, int] = {}
    for row, label in zip(data.rows, data.labels):
        totals[label] = totals.get(label, 0) + 1
        if predict_row(tree, row) == label:
            hits[label] = hits.get(label, 0) + 1
    return {c: hits.get(c, 0) / totals[c] for c in ordered_classes(tuple(totals))}


def mean_class_recall(tree: DecisionTree, data: Dataset) -> float:
    """Unweighted mean of per-class recall over classes present in data."""
    recalls = _class_recall(tree, data)
    return math.fsum(recalls.values()) / len(recalls)


def branch_count(node: TreeNode) -> int:
    """Number of edges in the subtree."""
    if node.is_leaf:
        return 0
    return 2 + branch_count(node.left) + branch_count(node.right)


@dataclass(frozen=True)
class TreeStats:
    """Training-set quality summary of one tree."""

    per_class_recall: dict[str, float]
    average_accuracy: float
    leaf_count: int
    branch_count: int


def tree_stats(tree: DecisionTree, data: Dataset) -> TreeStats:
    """Per-class recall and its unweighted mean on a dataset.

    Classes absent from the data are left out of the recall map and of
    the average.
    """
    recall = _class_recall(tree, data)
    return TreeStats(
        per_class_recall=recall,
        average_accuracy=math.fsum(recall.values()) / len(recall),
        leaf_count=leaf_count(tree.root),
        branch_count=branch_count(tree.root),
    )


def _binom_cdf(e: int, n: int, p: float, log_comb: float) -> float:
    """P(X <= e) for X ~ Binomial(n, p), with 0 < e < n, 0 < p < 1 and log_comb = log C(n, e).

    Terms are summed from i = e down as multiples of the i = e term, whose
    logarithm stays finite at any n, until a term no longer moves the sum.
    """
    log_head = log_comb + e * math.log(p) + (n - e) * math.log1p(-p)
    odds = (1.0 - p) / p
    term = total = 1.0
    for i in range(e, 0, -1):
        term *= i / (n - i + 1) * odds
        total += term
        if term < total * 1e-17:
            break
        if total > 1e300:
            # terms still rising toward the mode: move the scale into the log
            log_head += math.log(total)
            term /= total
            total = 1.0
    return math.exp(log_head + math.log(total))


def upper_error_bound(cf: float, n: int, e: int) -> float:
    """Upper confidence bound on the true error rate of a leaf.

    Solves P(X <= e | n, p) = cf for p, the classic pessimistic estimate
    and the (1 - cf) quantile of Beta(e + 1, n - e), by bisection down to
    adjacent floats. With zero observed errors the bound has the closed
    form 1 - cf**(1/n).
    """
    if not 0 < cf < 1:
        raise BoundsError(f"confidence factor cf={cf} must be in (0, 1)")
    if n < 1:
        raise BoundsError(f"leaf size n={n} must be at least 1")
    if not 0 <= e <= n:
        raise BoundsError(f"error count e={e} must be in [0, {n}]")
    if e == 0:
        return 1.0 - cf ** (1.0 / n)
    if e == n:
        return 1.0
    log_comb = math.log(math.comb(n, e))
    lo, hi = 0.0, 1.0
    while True:
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            return mid
        if _binom_cdf(e, n, mid, log_comb) > cf:
            lo = mid
        else:
            hi = mid


def _prune_node(
    node: TreeNode, cf: float, bounds: dict[tuple[int, int], float]
) -> tuple[TreeNode, float]:
    """Pruned subtree and its estimated errors; bounds memoizes (n, e) at this cf."""
    key = (node.n_total, node.n_errors)
    if key not in bounds:
        bounds[key] = upper_error_bound(cf, *key)
    own_est = node.n_total * bounds[key]
    if node.is_leaf:
        return node, own_est
    left, est_left = _prune_node(node.left, cf, bounds)
    right, est_right = _prune_node(node.right, cf, bounds)
    subtree_est = est_left + est_right
    if own_est <= subtree_est + GAIN_EPS:
        leaf = TreeNode(
            counts=node.counts, label=node.label, n_total=node.n_total, n_errors=node.n_errors
        )
        return leaf, own_est
    return replace(node, left=left, right=right), subtree_est


def prune_tree(tree: DecisionTree, cf: float) -> DecisionTree:
    """Pessimistic bottom-up subtree replacement at one confidence factor.

    Each (n, e) bound is computed once per call; the memo ends with it.
    """
    root, _ = _prune_node(tree.root, cf, {})
    return replace(tree, root=root)


@dataclass(frozen=True)
class PruneResult:
    tree: DecisionTree
    cf: float | None  # None when every ladder step broke the recall floor
    recall: float


def prune_with_ladder(
    tree: DecisionTree,
    data: Dataset,
    ladder: Sequence[float] = PRUNE_CF_LADDER,
    recall_floor: float = RECALL_FLOOR,
) -> PruneResult:
    """Most aggressive pruning that keeps mean class recall at the floor.

    Candidates come from the confidence ladder; the one with the fewest
    leaves wins, earlier ladder entries breaking ties. When every candidate
    drops below the floor the unpruned tree is returned with cf None.
    """
    best: PruneResult | None = None
    for cf in ladder:
        candidate = prune_tree(tree, cf)
        recall = mean_class_recall(candidate, data)
        if recall < recall_floor - GAIN_EPS:
            continue
        if best is None or leaf_count(candidate.root) < leaf_count(best.tree.root):
            best = PruneResult(tree=candidate, cf=cf, recall=recall)
    if best is None:
        return PruneResult(tree=tree, cf=None, recall=mean_class_recall(tree, data))
    return best


def _leaf_text(node: TreeNode) -> str:
    if node.n_errors:
        return f"{node.label} ({node.n_total}/{node.n_errors})"
    return f"{node.label} ({node.n_total})"


def format_tree(tree: DecisionTree) -> str:
    """Readable indented rendering, leaves shown as label (n) or (n/errors)."""
    lines: list[str] = []

    def walk(node: TreeNode, depth: int) -> None:
        pad = "|   " * depth
        for op, child in (("<=", node.left), (">", node.right)):
            head = f"{pad}{node.attribute} {op} {node.threshold:g}:"
            if child.is_leaf:
                lines.append(f"{head} {_leaf_text(child)}")
            else:
                lines.append(head)
                walk(child, depth + 1)

    if tree.root.is_leaf:
        return _leaf_text(tree.root)
    walk(tree.root, 0)
    return "\n".join(lines)


def tree_to_dot(tree: DecisionTree) -> str:
    """Graphviz dot rendering with edge labels carrying the cut."""
    lines = [
        "digraph decision_tree {",
        "  node [shape=box];",
    ]

    counter = [0]

    def walk(node: TreeNode) -> int:
        nid = counter[0]
        counter[0] += 1
        if node.is_leaf:
            lines.append(f'  n{nid} [label="{_leaf_text(node)}", style=rounded];')
            return nid
        lines.append(f'  n{nid} [label="{node.attribute}"];')
        left_id = walk(node.left)
        right_id = walk(node.right)
        lines.append(f'  n{nid} -> n{left_id} [label="<= {node.threshold:g}"];')
        lines.append(f'  n{nid} -> n{right_id} [label="> {node.threshold:g}"];')
        return nid

    walk(tree.root)
    lines.append("}")
    return "\n".join(lines) + "\n"


def _node_to_dict(node: TreeNode) -> dict:
    out: dict = {
        "counts": node.counts,
        "label": node.label,
        "n_total": node.n_total,
        "n_errors": node.n_errors,
    }
    if not node.is_leaf:
        out["attribute"] = node.attribute
        out["attr_index"] = node.attr_index
        out["threshold"] = node.threshold
        out["left"] = _node_to_dict(node.left)
        out["right"] = _node_to_dict(node.right)
    return out


def _node_from_dict(d: dict) -> TreeNode:
    base = dict(
        counts={str(k): int(v) for k, v in d["counts"].items()},
        label=d["label"],
        n_total=d["n_total"],
        n_errors=d["n_errors"],
    )
    if "attribute" in d:
        return TreeNode(
            **base,
            attribute=d["attribute"],
            attr_index=d["attr_index"],
            threshold=d["threshold"],
            left=_node_from_dict(d["left"]),
            right=_node_from_dict(d["right"]),
        )
    return TreeNode(**base)


def tree_to_json(tree: DecisionTree) -> str:
    doc = {
        "attributes": list(tree.attributes),
        "classes": list(tree.classes),
        "min_leaf": tree.min_leaf,
        "root": _node_to_dict(tree.root),
    }
    return json.dumps(doc, indent=2) + "\n"


def tree_from_json(text: str) -> DecisionTree:
    try:
        doc = json.loads(text)
        return DecisionTree(
            root=_node_from_dict(doc["root"]),
            attributes=tuple(doc["attributes"]),
            classes=tuple(doc["classes"]),
            min_leaf=int(doc["min_leaf"]),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise SchemaError(f"malformed tree document: {exc}") from exc


def save_tree(tree: DecisionTree, path: str | Path) -> None:
    Path(path).write_text(tree_to_json(tree), encoding="utf-8")


def load_tree(path: str | Path) -> DecisionTree:
    return tree_from_json(Path(path).read_text(encoding="utf-8"))
