"""Latin Hypercube design of experiments over the five-variable design box.

Sampling is plain (unoptimized) LHS: each variable's range is cut into k
equal-width strata and each stratum receives exactly one sample, placed
uniformly within the stratum. Strata are paired across variables by
independent random permutations.

Integer variables are stratified over [lower - 0.5, upper + 0.5] and then
rounded to the nearest admissible integer, which keeps the marginal counts
near-uniform.

Reproducibility contract: the generator is numpy's PCG64 seeded with a
64-bit integer; the same (k, seed) always yields the same list.
"""

from __future__ import annotations

from collections.abc import Mapping

import numpy as np

from .geometry import DESIGN_BOUNDS, INTEGER_VARIABLES, DesignPoint

VARIABLE_ORDER = ("n", "m", "d", "t", "h")


def stratified_column(rng: np.random.Generator, k: int, lower: float, upper: float) -> np.ndarray:
    """One LHS column: k values, one per equal-width stratum of [lower, upper]."""
    perm = rng.permutation(k)
    u = rng.random(k)
    return lower + (perm + u) / k * (upper - lower)


def round_to_integers(values: np.ndarray, lower: int, upper: int) -> np.ndarray:
    """Round stratified values from [lower - 0.5, upper + 0.5] to integers."""
    return np.clip(np.floor(values + 0.5), lower, upper).astype(int)


def lhs_sample(k: int = 150, seed: int = 0) -> list[DesignPoint]:
    """Draw k design points by Latin Hypercube sampling.

    Columns are generated in the fixed order (n, m, d, t, h) so the RNG
    stream, and therefore the output, is fully determined by the seed.
    """
    if k < 1:
        raise ValueError(f"sample count k={k} must be at least 1")

    rng = np.random.default_rng(seed)
    columns: dict[str, np.ndarray] = {}
    for name in VARIABLE_ORDER:
        lower, upper = DESIGN_BOUNDS[name]
        if name in INTEGER_VARIABLES:
            raw = stratified_column(rng, k, lower - 0.5, upper + 0.5)
            columns[name] = round_to_integers(raw, int(lower), int(upper))
        else:
            columns[name] = stratified_column(rng, k, lower, upper)

    return design_points(columns)


def design_points(columns: Mapping[str, np.ndarray]) -> list[DesignPoint]:
    """One design per row of equal-length columns keyed by variable name."""
    n, m = (columns[name].astype(int).tolist() for name in ("n", "m"))
    d, t, h = (columns[name].astype(float).tolist() for name in ("d", "t", "h"))
    return [DesignPoint(*row) for row in zip(n, m, d, t, h)]
