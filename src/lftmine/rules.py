"""Design rules read off a decision tree, plus sampling-based validation.

Every leaf yields one rule: the tests along its path merge into one
half-open interval per attribute (lower bound open, upper bound closed,
absent bound unconstrained). Because the tree partitions the design box,
the extracted rules tile it: every point satisfies exactly one rule, and
that rule predicts what the tree predicts.

One representative rule per class is selected by shortest path, then
lowest training error rate, then largest coverage, then lexicographically
smallest intervals. Validation samples fresh designs inside a rule's
region (stratified per variable, integers drawn from the contiguous
admissible set) and reports how often an independent labeler agrees with
the rule's class.
"""

from __future__ import annotations

import json
import math
from collections.abc import Callable, Mapping, Sequence
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .doe import VARIABLE_ORDER, design_points, round_to_integers, stratified_column
from .dtree import DecisionTree, TreeNode
from .errors import (
    BoundsError,
    InfeasibleRuleError,
    LftError,
    RuleNotFoundError,
    SchemaError,
)
from .geometry import DESIGN_BOUNDS, INTEGER_VARIABLES, DesignPoint


@dataclass(frozen=True)
class Interval:
    """Half-open attribute constraint: lower < x <= upper, None unconstrained."""

    lower: float | None = None
    upper: float | None = None

    def __post_init__(self) -> None:
        if self.lower is not None and self.upper is not None and self.lower >= self.upper:
            raise InfeasibleRuleError(f"empty interval ({self.lower}, {self.upper}]")

    def contains(self, value: float) -> bool:
        if self.lower is not None and value <= self.lower:
            return False
        if self.upper is not None and value > self.upper:
            return False
        return True

    def describe(self, name: str) -> str:
        if self.lower is not None and self.upper is not None:
            return f"{self.lower:g} < {name} <= {self.upper:g}"
        if self.lower is not None:
            return f"{name} > {self.lower:g}"
        return f"{name} <= {self.upper:g}"


@dataclass(frozen=True)
class Rule:
    """One leaf's region and class, with its training support."""

    label: str
    conditions: dict[str, Interval]
    n_total: int
    n_errors: int
    path_length: int

    @property
    def error_rate(self) -> float:
        return self.n_errors / self.n_total

    def contains(self, values: Mapping[str, float]) -> bool:
        return all(iv.contains(float(values[a])) for a, iv in self.conditions.items())

    def describe(self) -> str:
        if not self.conditions:
            return f"always => {self.label}"
        parts = [iv.describe(a) for a, iv in self.conditions.items()]
        return " and ".join(parts) + f" => {self.label}"


def extract_rules(tree: DecisionTree) -> list[Rule]:
    """One rule per leaf, in left-to-right leaf order."""
    rules: list[Rule] = []

    def walk(node: TreeNode, bounds: dict[str, tuple[float | None, float | None]], depth: int):
        if node.is_leaf:
            conditions = {
                a: Interval(lower=lo, upper=hi)
                for a, (lo, hi) in bounds.items()
                if not (lo is None and hi is None)
            }
            ordered = {a: conditions[a] for a in tree.attributes if a in conditions}
            rules.append(
                Rule(
                    label=node.label,
                    conditions=ordered,
                    n_total=node.n_total,
                    n_errors=node.n_errors,
                    path_length=depth,
                )
            )
            return
        attr, thr = node.attribute, node.threshold
        lo, hi = bounds.get(attr, (None, None))
        left_hi = thr if hi is None else min(hi, thr)
        walk(node.left, {**bounds, attr: (lo, left_hi)}, depth + 1)
        right_lo = thr if lo is None else max(lo, thr)
        walk(node.right, {**bounds, attr: (right_lo, hi)}, depth + 1)

    walk(tree.root, {}, 0)
    return rules


def matching_rules(rules: Sequence[Rule], values: Mapping[str, float]) -> list[Rule]:
    return [r for r in rules if r.contains(values)]


def _interval_sort_key(rule: Rule, attributes: Sequence[str]) -> tuple:
    key = []
    for a in attributes:
        iv = rule.conditions.get(a)
        lo = iv.lower if iv is not None and iv.lower is not None else -math.inf
        hi = iv.upper if iv is not None and iv.upper is not None else math.inf
        key.append((lo, hi))
    return tuple(key)


def select_rule(rules: Sequence[Rule], label: str, attributes: Sequence[str]) -> Rule:
    """Representative rule for one class.

    Shortest path wins, then lowest error rate, then largest coverage,
    then the lexicographically smallest interval tuple.
    """
    pool = [r for r in rules if r.label == label]
    if not pool:
        raise RuleNotFoundError(f"no rule predicts class {label!r}")
    return min(
        pool,
        key=lambda r: (r.path_length, r.error_rate, -r.n_total, _interval_sort_key(r, attributes)),
    )


def _stratified_open_low(rng: np.random.Generator, k: int, lower: float, upper: float):
    # mirror image of the closed-low column: values land in (lower, upper]
    perm = rng.permutation(k)
    u = rng.random(k)
    return lower + (perm + 1.0 - u) / k * (upper - lower)


def sample_in_rule(rule: Rule, k: int = 5, seed: int = 0) -> list[DesignPoint]:
    """Stratified designs inside the rule region intersected with the box.

    Integer variables draw from the contiguous admissible integers; an
    empty intersection on any variable raises InfeasibleRuleError.
    """
    if k < 0:
        raise BoundsError(f"sample count k={k} must be non-negative")
    rng = np.random.default_rng(seed)
    columns: dict[str, np.ndarray] = {}
    for name in VARIABLE_ORDER:
        lower, upper = DESIGN_BOUNDS[name]
        iv = rule.conditions.get(name, Interval())
        lo, lo_open = lower, False
        if iv.lower is not None and iv.lower >= lower:
            lo, lo_open = iv.lower, True
        hi = upper if iv.upper is None else min(upper, iv.upper)
        if hi < lo or (lo_open and hi <= lo):
            shape = f"({lo}, {hi}]" if lo_open else f"[{lo}, {hi}]"
            raise InfeasibleRuleError(
                f"rule {rule.describe()!r} admits no {name} in {shape}"
            )
        if name in INTEGER_VARIABLES:
            c0 = math.floor(lo) + 1 if lo_open and lo == math.floor(lo) else math.ceil(lo)
            c1 = math.floor(hi)
            if c0 > c1:
                raise InfeasibleRuleError(
                    f"rule {rule.describe()!r} admits no integer {name} in ({lo}, {hi}]"
                )
            if c0 == c1:
                columns[name] = np.full(k, c0)
            else:
                raw = stratified_column(rng, k, c0 - 0.5, c1 + 0.5)
                columns[name] = round_to_integers(raw, c0, c1)
        elif lo_open:
            columns[name] = _stratified_open_low(rng, k, lo, hi)
        elif lo == hi:
            columns[name] = np.full(k, lo)
        else:
            columns[name] = stratified_column(rng, k, lo, hi)
    return design_points(columns)


@dataclass(frozen=True)
class RuleValidation:
    rule: Rule
    designs: tuple[DesignPoint, ...]
    labels: tuple[str, ...]
    hits: int
    fidelity_pct: float


def validate_rule(
    rule: Rule,
    labeler: Callable[[DesignPoint], str],
    designs: Sequence[DesignPoint] | None = None,
    k: int = 5,
    seed: int = 0,
) -> RuleValidation:
    """Fidelity of a rule against an independent labeler.

    Designs are sampled inside the rule region unless an explicit list is
    given (for checking against externally evaluated points).
    """
    if designs is None:
        designs = sample_in_rule(rule, k=k, seed=seed)
    if not designs:
        raise SchemaError("rule validation needs at least one design")
    labels = []
    for i, dp in enumerate(designs):
        try:
            labels.append(labeler(dp))
        except LftError as exc:
            raise type(exc)(f"validation design {i}: {exc}") from exc
    labels = tuple(labels)
    hits = sum(1 for lab in labels if lab == rule.label)
    return RuleValidation(
        rule=rule,
        designs=tuple(designs),
        labels=labels,
        hits=hits,
        fidelity_pct=100.0 * hits / len(labels),
    )


def format_rules(rules: Sequence[Rule]) -> str:
    """One line per rule: conditions, class, coverage, training error rate."""
    lines = []
    for rule in rules:
        lines.append(
            f"{rule.describe()}  [n={rule.n_total}, errors={rule.n_errors}, "
            f"error rate={rule.error_rate:.3f}, path length={rule.path_length}]"
        )
    return "\n".join(lines)


def _interval_to_dict(iv: Interval) -> dict:
    return {"lower": iv.lower, "upper": iv.upper}


def rule_to_dict(rule: Rule) -> dict:
    return {
        "label": rule.label,
        "conditions": {a: _interval_to_dict(iv) for a, iv in rule.conditions.items()},
        "n_total": rule.n_total,
        "n_errors": rule.n_errors,
        "path_length": rule.path_length,
        "text": rule.describe(),
    }


def rule_from_dict(d: dict) -> Rule:
    try:
        conditions = {
            a: Interval(lower=c.get("lower"), upper=c.get("upper"))
            for a, c in d["conditions"].items()
        }
        return Rule(
            label=d["label"],
            conditions=conditions,
            n_total=int(d["n_total"]),
            n_errors=int(d["n_errors"]),
            path_length=int(d["path_length"]),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise SchemaError(f"malformed rule document: {exc}") from exc


def rules_doc(rules: Sequence[Rule], selected: Mapping[str, Rule]) -> dict:
    return {
        "rules": [rule_to_dict(r) for r in rules],
        "selected": {label: rule_to_dict(r) for label, r in selected.items()},
    }


def save_rules(rules: Sequence[Rule], selected: Mapping[str, Rule], path: str | Path) -> None:
    doc = rules_doc(rules, selected)
    Path(path).write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")


def load_rules(path: str | Path) -> tuple[list[Rule], dict[str, Rule]]:
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
        rules = [rule_from_dict(d) for d in doc["rules"]]
        selected = {label: rule_from_dict(d) for label, d in doc["selected"].items()}
    except (KeyError, TypeError, ValueError) as exc:
        raise SchemaError(f"malformed rules document: {exc}") from exc
    return rules, selected
