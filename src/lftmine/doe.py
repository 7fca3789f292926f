"""Latin Hypercube design of experiments over the five-variable design box.

Sampling is plain (unoptimized) LHS: each variable's range is cut into k
equal-width strata and each stratum receives exactly one sample, placed
uniformly within the stratum. Strata are paired across variables by
independent random permutations.

Integer variables are stratified over [lower - 0.5, upper + 0.5] and then
rounded to the nearest admissible integer, which keeps the marginal counts
near-uniform.

Reproducibility contract: the generator is numpy's PCG64 seeded with a
64-bit integer; the same (space, k, seed) always yields the same list.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field

import numpy as np

from .errors import BoundsError
from .geometry import DESIGN_BOUNDS, INTEGER_VARIABLES, DesignPoint

VARIABLE_ORDER = ("n", "m", "d", "t", "h")


@dataclass(frozen=True)
class VariableBounds:
    lower: float
    upper: float
    integer: bool = False

    def __post_init__(self) -> None:
        if not self.lower < self.upper:
            raise BoundsError(f"lower bound {self.lower} must be below upper {self.upper}")


@dataclass(frozen=True)
class DesignSpace:
    """Per-variable bounds and integrality flags; defaults to the design box."""

    variables: dict[str, VariableBounds] = field(
        default_factory=lambda: {
            name: VariableBounds(*DESIGN_BOUNDS[name], integer=name in INTEGER_VARIABLES)
            for name in VARIABLE_ORDER
        }
    )

    def __post_init__(self) -> None:
        missing = [name for name in VARIABLE_ORDER if name not in self.variables]
        if missing:
            raise BoundsError(f"design space missing variables: {missing}")

    def bounds(self, name: str) -> VariableBounds:
        return self.variables[name]


def stratified_column(rng: np.random.Generator, k: int, lower: float, upper: float) -> np.ndarray:
    """One LHS column: k values, one per equal-width stratum of [lower, upper]."""
    perm = rng.permutation(k)
    u = rng.random(k)
    return lower + (perm + u) / k * (upper - lower)


def round_to_integers(values: np.ndarray, lower: int, upper: int) -> np.ndarray:
    """Round stratified values from [lower - 0.5, upper + 0.5] to integers."""
    return np.clip(np.floor(values + 0.5), lower, upper).astype(int)


def lhs_sample(space: DesignSpace | None = None, k: int = 150, seed: int = 0) -> list[DesignPoint]:
    """Draw k design points by Latin Hypercube sampling.

    Columns are generated in the fixed order (n, m, d, t, h) so the RNG
    stream, and therefore the output, is fully determined by the seed.
    """
    if k < 1:
        raise ValueError(f"sample count k={k} must be at least 1")
    if space is None:
        space = DesignSpace()

    rng = np.random.default_rng(seed)
    columns: dict[str, np.ndarray] = {}
    for name in VARIABLE_ORDER:
        vb = space.bounds(name)
        if vb.integer:
            raw = stratified_column(rng, k, vb.lower - 0.5, vb.upper + 0.5)
            columns[name] = round_to_integers(raw, int(vb.lower), int(vb.upper))
        else:
            columns[name] = stratified_column(rng, k, vb.lower, vb.upper)

    return design_points(columns)


def design_points(columns: Mapping[str, np.ndarray]) -> list[DesignPoint]:
    """One design per row of equal-length columns keyed by variable name."""
    n, m = (columns[name].astype(int).tolist() for name in ("n", "m"))
    d, t, h = (columns[name].astype(float).tolist() for name in ("d", "t", "h"))
    return [DesignPoint(*row) for row in zip(n, m, d, t, h)]
