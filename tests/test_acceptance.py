"""Acceptance gate: eleven criteria, one printed pass/fail line each.

Run with -s (or read captured output) to see the lines. Each criterion
carries its tolerance inline; a failure prints FAIL before the assert
fires so the transcript always names the criterion.
"""

import filecmp
import math
import random
import time
from contextlib import contextmanager
from pathlib import Path

from conftest import (
    EFFICIENCY_ROWS,
    LIGHTWEIGHT_ROWS,
    TOTAL_ENERGY_ROWS,
    rows_as_dataset,
)
from lftmine.doe import DESIGN_BOUNDS, lhs_sample
from lftmine.dtree import (
    Dataset,
    build_tree,
    leaf_count,
    mean_class_recall,
    predict,
    prune_tree,
    prune_with_ladder,
    tree_stats,
    upper_error_bound,
)
from lftmine.geometry import LATTICE_GAP, TUBE_A, TUBE_H, DesignPoint, derive_geometry
from lftmine.labeling import label_efficiency, label_lightweight, label_total_energy
from lftmine.metrics import CrushTrace, compute_metrics, trapezoid_energy
from lftmine.pipeline import RunConfig, run_pipeline, write_designs_csv
from lftmine.rules import Interval, Rule, extract_rules, matching_rules, validate_rule


@contextmanager
def criterion(num: int, title: str):
    try:
        yield
    except BaseException:
        print(f"criterion {num:02d} FAIL: {title}", flush=True)
        raise
    print(f"criterion {num:02d} PASS: {title}", flush=True)


def test_criterion_01_geometry_identities():
    with criterion(1, "strut identities hold to 1e-9 relative on 10^4 designs in < 1 s"):
        rng = random.Random(12345)
        half_width = (TUBE_A - 2.0 * LATTICE_GAP) / math.sqrt(2.0)
        start = time.perf_counter()
        for _ in range(10_000):
            dp = DesignPoint(
                n=rng.randint(2, 6),
                m=rng.randint(2, 5),
                d=rng.uniform(1.0, 3.0),
                t=rng.uniform(0.8, 2.0),
                h=rng.uniform(0.0, 5.0),
            )
            g = derive_geometry(dp)
            rise = (TUBE_H - dp.h) / (2.0 * dp.n)
            run = half_width / dp.m
            assert abs(g.l * math.sin(g.omega) - rise) <= 1e-9 * rise
            assert abs(g.l * math.cos(g.omega) - run) <= 1e-9 * run
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0, f"took {elapsed:.2f} s"


def test_criterion_02_golden_labels():
    with criterion(2, "all 44 printed validation rows reproduce their grade"):
        mismatches = []
        for d, n, m, h, t, sea, cfe, want in EFFICIENCY_ROWS:
            if label_efficiency(sea, cfe) != want:
                mismatches.append(("eff", d, n, m, h, t))
        for d, n, m, h, t, sea, tea, want in TOTAL_ENERGY_ROWS:
            if label_total_energy(sea, tea) != want:
                mismatches.append(("tea", d, n, m, h, t))
        for d, n, m, h, t, sea, mass, want in LIGHTWEIGHT_ROWS:
            if label_lightweight(sea, mass) != want:
                mismatches.append(("light", d, n, m, h, t))
        total = len(EFFICIENCY_ROWS) + len(TOTAL_ENERGY_ROWS) + len(LIGHTWEIGHT_ROWS)
        assert total == 44
        assert mismatches == []


def test_criterion_03_rule_fidelity():
    with criterion(3, "printed rule regions validate at 100/60/100, average 86.7"):
        regions = {
            "e": Rule(
                label="e",
                conditions={
                    "d": Interval(lower=2.0),
                    "n": Interval(lower=2.0),
                    "m": Interval(lower=3.0),
                },
                n_total=5,
                n_errors=0,
                path_length=3,
            ),
            "g": Rule(
                label="g",
                conditions={
                    "d": Interval(lower=1.5, upper=2.0),
                    "m": Interval(lower=2.0),
                    "n": Interval(upper=4.0),
                },
                n_total=5,
                n_errors=0,
                path_length=3,
            ),
            "b": Rule(
                label="b",
                conditions={"d": Interval(upper=1.0)},
                n_total=5,
                n_errors=0,
                path_length=1,
            ),
        }
        reported = {}
        for d, n, m, h, t, sea, cfe, _grade in EFFICIENCY_ROWS:
            dp = DesignPoint(n=int(n), m=int(m), d=float(d), t=float(t), h=float(h))
            reported[dp] = (sea, cfe)
        blocks = {
            "e": EFFICIENCY_ROWS[0:5],
            "g": EFFICIENCY_ROWS[5:10],
            "b": EFFICIENCY_ROWS[10:15],
        }
        fidelities = {}
        for label, rule in regions.items():
            designs = [
                DesignPoint(n=int(n), m=int(m), d=float(d), t=float(t), h=float(h))
                for d, n, m, h, t, _sea, _cfe, _grade in blocks[label]
            ]
            for dp in designs:
                assert rule.contains(
                    {"d": dp.d, "n": dp.n, "m": dp.m, "t": dp.t, "h": dp.h}
                ), f"{dp} outside the {label} region"
            check = validate_rule(
                rule, lambda dp: label_efficiency(*reported[dp]), designs=designs
            )
            fidelities[label] = check.fidelity_pct
        assert fidelities["e"] == 100.0
        assert fidelities["g"] == 60.0
        assert fidelities["b"] == 100.0
        average = math.fsum(fidelities.values()) / 3.0
        assert round(average, 1) == 86.7


def _oracle_entropy(labels):
    n = len(labels)
    h = 0.0
    for c in set(labels):
        p = labels.count(c) / n
        h -= p * math.log2(p)
    return h


def _oracle_split(rows, labels, min_leaf):
    """Brute-force midpoint enumeration with the mean-gain guard."""
    n = len(rows)
    parent = _oracle_entropy(labels)
    candidates = []
    for j in range(len(rows[0])):
        vals = sorted(set(r[j] for r in rows))
        for v0, v1 in zip(vals, vals[1:]):
            mid = 0.5 * (v0 + v1)
            li = [i for i in range(n) if rows[i][j] <= mid]
            ri = [i for i in range(n) if rows[i][j] > mid]
            if len(li) < min_leaf or len(ri) < min_leaf:
                continue
            hl = _oracle_entropy([labels[i] for i in li])
            hr = _oracle_entropy([labels[i] for i in ri])
            gain = parent - (len(li) / n) * hl - (len(ri) / n) * hr
            pl, pr = len(li) / n, len(ri) / n
            info = -(pl * math.log2(pl) + pr * math.log2(pr))
            candidates.append((j, v0, gain, gain / info))
    positive = [c for c in candidates if c[2] > 1e-12]
    if not positive:
        return None
    mean_gain = math.fsum(c[2] for c in positive) / len(positive)
    best = None
    for c in positive:
        if c[2] < mean_gain - 1e-12:
            continue
        if best is None or c[3] > best[3] + 1e-12:
            best = c
    return best


def _check_tree_against_oracle(node, rows, labels, min_leaf):
    if node.is_leaf:
        if node.n_errors > 0 and node.n_total >= 2 * min_leaf:
            assert _oracle_split(rows, labels, min_leaf) is None
        return
    want = _oracle_split(rows, labels, min_leaf)
    assert want is not None
    assert node.attr_index == want[0]
    assert node.threshold == want[1]
    j, thr = want[0], want[1]
    li = [i for i in range(len(rows)) if rows[i][j] <= thr]
    ri = [i for i in range(len(rows)) if rows[i][j] > thr]
    _check_tree_against_oracle(
        node.left, [rows[i] for i in li], [labels[i] for i in li], min_leaf
    )
    _check_tree_against_oracle(
        node.right, [rows[i] for i in ri], [labels[i] for i in ri], min_leaf
    )


def _random_dataset(seed, max_rows=50):
    rng = random.Random(seed)
    n_rows = rng.randint(6, max_rows)
    rows = tuple(
        tuple(round(rng.uniform(0.0, 10.0), 1) for _ in range(5)) for _ in range(n_rows)
    )
    labels = tuple(rng.choice("egb") for _ in range(n_rows))
    return Dataset(attributes=("a0", "a1", "a2", "a3", "a4"), rows=rows, labels=labels)


def test_criterion_04_induction_matches_oracle():
    with criterion(4, "every split on 50 random datasets matches brute force in < 10 s"):
        start = time.perf_counter()
        for seed in range(50):
            data = _random_dataset(seed)
            tree = build_tree(data, min_leaf=2)
            _check_tree_against_oracle(tree.root, list(data.rows), list(data.labels), 2)
        elapsed = time.perf_counter() - start
        assert elapsed < 10.0, f"took {elapsed:.2f} s"


def test_criterion_05_efficiency_fixture_tree():
    with criterion(5, "15-row fixture: root d at 2, pure 5-row e leaf, recall 1.0"):
        data = rows_as_dataset(EFFICIENCY_ROWS)
        tree = build_tree(data, min_leaf=1)
        assert tree.root.attribute == "d"
        assert tree.root.threshold == 2.0
        right = tree.root.right
        assert right.is_leaf and right.label == "e"
        assert right.n_total == 5 and right.n_errors == 0
        stats = tree_stats(tree, data)
        assert stats.per_class_recall == {"e": 1.0, "g": 1.0, "b": 1.0}
        e_rules = [r for r in extract_rules(tree) if r.label == "e"]
        e_rows = EFFICIENCY_ROWS[0:5]
        covering = [
            r
            for r in e_rules
            if all(
                r.contains({"d": d, "n": n, "m": m, "t": t, "h": h})
                for d, n, m, h, t, _sea, _cfe, _grade in e_rows
            )
        ]
        assert covering, "no e-rule covers the five printed e-designs"
        assert any(r.conditions.get("d") == Interval(lower=2.0) for r in covering)


def test_criterion_06_pruning_properties():
    with criterion(6, "pruning shrinks trees, zero-error bound exact, ladder floor holds"):
        for cf in (0.5, 0.25, 0.10, 0.05, 0.01):
            for n in range(1, 61):
                want = 1.0 - cf ** (1.0 / n)
                assert abs(upper_error_bound(cf, n, 0) - want) <= 1e-12
        for seed in range(50):
            data = _random_dataset(seed, max_rows=40)
            tree = build_tree(data, min_leaf=2)
            for cf in (0.25, 0.10, 0.05, 0.01):
                assert leaf_count(prune_tree(tree, cf).root) <= leaf_count(tree.root)
            result = prune_with_ladder(tree, data)
            if result.cf is None:
                assert leaf_count(result.tree.root) == leaf_count(tree.root)
            else:
                assert result.recall >= 0.8 - 1e-12
            assert math.isclose(
                result.recall, mean_class_recall(result.tree, data), rel_tol=1e-12
            )


def _points_in_rule(rule, attributes, rng, k=1000):
    points = []
    for _ in range(k):
        values = {}
        for a in attributes:
            iv = rule.conditions.get(a, Interval())
            lo = iv.lower if iv.lower is not None else -10.0
            hi = iv.upper if iv.upper is not None else 20.0
            values[a] = lo + (1.0 - rng.random()) * (hi - lo)  # lands in (lo, hi]
        points.append(values)
    return points


def test_criterion_07_rule_tree_consistency():
    with criterion(7, "1000 points per rule classify to its class; rules tile the box"):
        rng = random.Random(777)
        trees = [build_tree(rows_as_dataset(EFFICIENCY_ROWS), min_leaf=1)]
        for seed in (3, 14):
            trees.append(build_tree(_random_dataset(seed, max_rows=30), min_leaf=2))
        for tree in trees:
            rules = extract_rules(tree)
            for rule in rules:
                for values in _points_in_rule(rule, tree.attributes, rng):
                    assert predict(tree, values) == rule.label
            for _ in range(1000):
                if tree.attributes == ("d", "n", "m", "t", "h"):
                    values = {
                        a: rng.uniform(*DESIGN_BOUNDS[a]) for a in tree.attributes
                    }
                else:
                    values = {a: rng.uniform(0.0, 10.0) for a in tree.attributes}
                hits = matching_rules(rules, values)
                assert len(hits) == 1
                assert hits[0].label == predict(tree, values)


def test_criterion_08_lhs_stratification(tmp_path):
    with criterion(8, "k=150 marginals fill every stratum once; same seed, same bytes"):
        points = lhs_sample(k=150, seed=0)
        assert len(points) == 150
        for attr in ("d", "t", "h"):
            lo, hi = DESIGN_BOUNDS[attr]
            strata = sorted(
                min(int((getattr(p, attr) - lo) / (hi - lo) * 150), 149) for p in points
            )
            assert strata == list(range(150))
        again = lhs_sample(k=150, seed=0)
        assert again == points
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_designs_csv(points, a)
        write_designs_csv(again, b)
        assert a.read_bytes() == b.read_bytes()


def test_criterion_09_metric_accuracy():
    with criterion(9, "trapezoid within 1e-6 of analytic; closed forms and scaling exact"):
        # gentle polynomials sampled every 0.5 mm over 140 mm
        for coeffs in ((20.0, 0.1, 0.0005), (15.0, 0.1, 0.0002, 5e-7)):
            xs = [0.5 * i for i in range(281)]
            samples = tuple(
                (x, math.fsum(c * x**p for p, c in enumerate(coeffs))) for x in xs
            )
            got = trapezoid_energy(CrushTrace(samples=samples))
            want = math.fsum(
                c / (p + 1) * 140.0 ** (p + 1) for p, c in enumerate(coeffs)
            )
            assert abs(got - want) / want < 1e-6
        flat = CrushTrace(samples=((0.0, 10.0), (70.0, 10.0), (140.0, 10.0)))
        met = compute_metrics(flat, 0.28)
        assert met.tea_kj == 1.4
        assert met.pm_kn == 10.0 and met.pcf_kn == 10.0 and met.cfe_pct == 100.0
        bumpy = CrushTrace(samples=((0.0, 3.0), (10.0, 9.0), (50.0, 6.0), (80.0, 7.5)))
        met1 = compute_metrics(bumpy, 0.5)
        met2 = compute_metrics(
            CrushTrace(samples=tuple((x, 2.0 * f) for x, f in bumpy.samples)), 0.5
        )
        assert met2.cfe_pct == met1.cfe_pct
        assert met2.tea_kj == 2.0 * met1.tea_kj
        assert met2.pcf_kn == 2.0 * met1.pcf_kn


def test_criterion_10_end_to_end(tmp_path):
    with criterion(10, "default pipeline (k=150) finishes < 30 s; rerun is byte-identical"):
        cfg = RunConfig()
        assert cfg.k == 150
        start = time.perf_counter()
        first = run_pipeline(cfg, tmp_path / "run1")
        elapsed = time.perf_counter() - start
        assert elapsed < 30.0, f"took {elapsed:.2f} s"
        for name in first.files:
            assert (tmp_path / "run1" / name).exists(), name
        for name in (
            "designs.csv",
            "dataset.csv",
            "summary.txt",
            "manifest.json",
            "rules.json",
        ):
            assert name in first.files
        for obj in ("eff", "tea", "light"):
            for pattern in ("tree_{}.json", "pruned_{}.json", "rules_{}.json",
                            "validation_{}.csv", "scatter_{}.svg"):
                assert pattern.format(obj) in first.files
        second = run_pipeline(cfg, tmp_path / "run2")
        assert sorted(first.files) == sorted(second.files)
        for name in first.files:
            same = filecmp.cmp(
                tmp_path / "run1" / name, tmp_path / "run2" / name, shallow=False
            )
            assert same, f"{name} differs between identical runs"


def test_criterion_11_reproducibility_statement():
    with criterion(11, "README states the surrogate stand-in and what cannot be rebuilt"):
        readme = Path(__file__).resolve().parent.parent / "README.md"
        assert readme.exists(), "README.md missing"
        text = readme.read_text(encoding="utf-8").lower()
        assert "surrogate" in text
        assert "finite element" in text
        assert "byte-identical" in text
        # the published tree shapes and accuracies need the original crush
        # dataset, which is not shipped; the README must say so
        assert "cannot be reproduced" in text or "not reproducible" in text
