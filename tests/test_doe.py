"""Latin Hypercube sampling: stratification, rounding, determinism."""

import numpy as np
import pytest

from lftmine.doe import lhs_sample, round_to_integers, stratified_column
from lftmine.geometry import DESIGN_BOUNDS, check_design_point


def test_continuous_marginals_fill_every_stratum():
    """Each continuous variable must land exactly once in each of the k
    equal-width bins of its range."""
    k = 150
    points = lhs_sample(k=k, seed=42)
    for name in ("d", "t", "h"):
        lower, upper = DESIGN_BOUNDS[name]
        values = np.array([getattr(p, name) for p in points])
        bins = np.floor((values - lower) / (upper - lower) * k).astype(int)
        bins = np.clip(bins, 0, k - 1)
        assert sorted(bins) == list(range(k)), name


def test_integer_occupancy_near_uniform():
    """n strata align with integer boundaries (150/5 bins per value) so
    counts are exactly 30; m boundaries cut through strata, so counts sit
    within one stratum of 150/4."""
    points = lhs_sample(k=150, seed=42)
    n_counts = {v: 0 for v in range(2, 7)}
    m_counts = {v: 0 for v in range(2, 6)}
    for p in points:
        n_counts[p.n] += 1
        m_counts[p.m] += 1
    assert all(c == 30 for c in n_counts.values()), n_counts
    assert sum(m_counts.values()) == 150
    assert all(abs(c - 37.5) <= 2.5 for c in m_counts.values()), m_counts


def test_same_seed_reproduces_bit_identical_samples():
    a = lhs_sample(k=64, seed=9)
    b = lhs_sample(k=64, seed=9)
    assert a == b
    c = lhs_sample(k=64, seed=10)
    assert a != c


def test_single_sample_respects_bounds():
    (p,) = lhs_sample(k=1, seed=0)
    check_design_point(p)


def test_every_sample_is_a_valid_design():
    for p in lhs_sample(k=200, seed=5):
        check_design_point(p)


def test_sample_count_must_be_positive():
    with pytest.raises(ValueError, match="at least 1"):
        lhs_sample(k=0, seed=0)


def test_stratified_column_one_value_per_stratum():
    rng = np.random.default_rng(3)
    vals = stratified_column(rng, 20, 10.0, 30.0)
    bins = np.floor((vals - 10.0) / 20.0 * 20).astype(int)
    assert sorted(bins) == list(range(20))


def test_round_to_integers_clips_and_rounds():
    vals = np.array([1.4, 1.6, 2.5, 6.9, 0.2])
    out = round_to_integers(vals, 2, 6)
    assert out.tolist() == [2, 2, 3, 6, 2]
