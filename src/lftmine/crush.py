"""Crush response evaluation: phenomenological surrogate and trace files.

The surrogate stands in for the explicit finite-element crush stage. It is
not a validated mechanics model; it is a deterministic evaluator with the
right monotonic trends, built from two classical ingredients:

* square-tube progressive folding, mean force
      Pm_tube = 13.06 sigma_flow a^(1/3) t^(5/3)        [N, mm, MPa]
* lattice axial capacity per transverse cross-section
      Pm_lat = eta sigma_flow (pi d^2 / 4) (n_vert_layer + n_diag_layer sin omega)

The combined mean force is Pm = Pm_tube + interaction * Pm_lat, and the
force-displacement curve is a fold-wise oscillation around Pm with an
initial triangular peak:

    F(x) = Pm (1 + A sin(2 pi k x / z))   for x > 0.05 z
    F(x) = triangle through (0, 0), (0.025 z, peak * Pm), (0.05 z, F_base)

with crush end z = crush_fraction * (H - h). Every constant is a
:class:`SurrogateParams` field so the evaluator can be recalibrated against
external simulation or test data without code changes.

External curves (test or FE exports) can replace the surrogate through
:func:`ingest_trace`; the CSV format is two columns with header ``x_mm,F_kN``.

:func:`surrogate_traces` samples the traces of many designs in one numpy
call; :func:`simulate_crush` and :func:`hollow_trace` are its one-design
cases.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import BoundsError, TraceError
from .geometry import DESIGN_BOUNDS, TUBE_A, TUBE_H, DerivedGeometry, DesignPoint, MaterialSpec

N_TO_KN = 1e-3

# Fraction of the stroke holding the initial peak; apex at half of it.
PEAK_END_FRACTION = 0.05
# apex, knee and end of a trace as fractions of its stroke
_MARKS = np.array([0.5 * PEAK_END_FRACTION, PEAK_END_FRACTION, 1.0])


class CrushTrace:
    """Sampled force-displacement curve: x in mm (from 0), F in kN.

    Holds two float64 arrays of equal length, ``x`` and ``force``;
    ``CrushTrace(samples=...)`` builds one from (x, F) pairs instead. The
    checks report the first bad sample, a negative force before a
    displacement that does not increase.
    """

    __slots__ = ("x", "force")

    def __init__(
        self,
        x: Sequence[float] | np.ndarray | None = None,
        force: Sequence[float] | np.ndarray | None = None,
        *,
        samples: Sequence[tuple[float, float]] | None = None,
    ) -> None:
        if samples is not None:
            x, force = np.array(samples, dtype=float).reshape(-1, 2).T
        x = np.asarray(x, dtype=float)
        force = np.asarray(force, dtype=float)
        if x.ndim != 1 or x.shape != force.shape:
            raise TraceError(
                f"x and force must be 1-D and of one length, got {x.shape} and {force.shape}"
            )
        if len(x) < 2:
            raise TraceError("trace needs at least two samples")
        if x[0] != 0.0:
            raise TraceError(f"trace must start at x=0, got x={x[0]}")
        bad = force < 0
        bad[1:] |= x[1:] <= x[:-1]
        if bad.any():
            i = int(bad.argmax())
            if force[i] < 0:
                raise TraceError(f"negative force {force[i]} at sample {i}")
            raise TraceError(
                f"displacement not strictly increasing at sample {i}: {x[i - 1]} -> {x[i]}"
            )
        self.x = x
        self.force = force

    @property
    def z(self) -> float:
        """Crush distance: the last sampled displacement."""
        return self.x[-1].item()

    @property
    def samples(self) -> tuple[tuple[float, float], ...]:
        """The (x, F) pairs as Python floats."""
        return tuple(zip(self.x.tolist(), self.force.tolist()))


@dataclass(frozen=True)
class SurrogateParams:
    """Tunable constants of the crush surrogate.

    crush_fraction: fraction of the crushable height swept before stopping
    peak_factor: initial peak force / mean force, >= 1
    fold_amplitude: relative amplitude of the fold oscillation, in [0, 1)
    fold_count: folds over the stroke; None derives max(4, n) per design
    lattice_efficiency: fraction of strut axial capacity realized
    interaction_factor: multiplier on the lattice share inside a tube
    sample_step: trace sampling step, mm
    """

    crush_fraction: float = 0.7
    peak_factor: float = 1.3
    fold_amplitude: float = 0.25
    fold_count: int | None = None
    lattice_efficiency: float = 0.5
    interaction_factor: float = 1.1
    sample_step: float = 0.5

    def __post_init__(self) -> None:
        if not 0 < self.crush_fraction <= 1:
            raise BoundsError(f"crush_fraction={self.crush_fraction} must be in (0, 1]")
        if self.peak_factor < 1:
            raise BoundsError(f"peak_factor={self.peak_factor} must be at least 1")
        if not 0 <= self.fold_amplitude < 1:
            raise BoundsError(f"fold_amplitude={self.fold_amplitude} must be in [0, 1)")
        if self.fold_count is not None and self.fold_count < 1:
            raise BoundsError(f"fold_count={self.fold_count} must be at least 1")
        if self.lattice_efficiency <= 0 or self.interaction_factor <= 0:
            raise BoundsError("lattice_efficiency and interaction_factor must be positive")
        if self.sample_step <= 0:
            raise BoundsError(f"sample_step={self.sample_step} must be positive")

    def folds_for(self, n_layers: int) -> int:
        if self.fold_count is not None:
            return self.fold_count
        return max(4, n_layers)


def mean_tube_force(t: float, tube_mat: MaterialSpec) -> float:
    """Square-tube progressive-folding mean crush force in kN."""
    lo, hi = DESIGN_BOUNDS["t"]
    if not lo <= t <= hi:
        raise BoundsError(f"tube thickness t={t} outside allowed range [{lo}, {hi}]")
    return 13.06 * tube_mat.sigma_flow * TUBE_A ** (1.0 / 3.0) * t ** (5.0 / 3.0) * N_TO_KN


def mean_lattice_force(
    dp: DesignPoint, g: DerivedGeometry, lat_mat: MaterialSpec, p: SurrogateParams
) -> float:
    """Lattice mean force from one transverse layer cross-section, kN."""
    rod_area = math.pi * dp.d * dp.d / 4.0
    n_vert_layer = (dp.m + 1) ** 2
    n_diag_layer = 8 * dp.m * dp.m
    struts = n_vert_layer + n_diag_layer * math.sin(g.omega)
    return p.lattice_efficiency * lat_mat.sigma_flow * rod_area * struts * N_TO_KN


def crush_inputs(
    dp: DesignPoint,
    g: DerivedGeometry,
    tube_mat: MaterialSpec,
    lat_mat: MaterialSpec,
    p: SurrogateParams = SurrogateParams(),
) -> tuple[float, float, int]:
    """Mean force (kN), crush distance (mm) and fold count of a lattice-filled tube."""
    if dp.d < 0:
        raise BoundsError(f"rod diameter d={dp.d} must be non-negative")
    pm = mean_tube_force(dp.t, tube_mat) + p.interaction_factor * mean_lattice_force(
        dp, g, lat_mat, p
    )
    return pm, p.crush_fraction * (TUBE_H - dp.h), p.folds_for(dp.n)


def hollow_inputs(
    t: float, tube_mat: MaterialSpec, p: SurrogateParams = SurrogateParams()
) -> tuple[float, float, int]:
    """Mean force, crush distance and fold count of the hollow tube."""
    return mean_tube_force(t, tube_mat), p.crush_fraction * TUBE_H, p.folds_for(0)


@dataclass(frozen=True)
class TraceBatch:
    """Several traces end to end: trace i is x[starts[i]:starts[i + 1]]."""

    x: np.ndarray
    force: np.ndarray
    starts: np.ndarray

    def __len__(self) -> int:
        return len(self.starts) - 1

    def trace(self, i: int) -> CrushTrace:
        a, b = self.starts[i], self.starts[i + 1]
        return CrushTrace(self.x[a:b], self.force[a:b])

    @classmethod
    def of(cls, trace: CrushTrace) -> TraceBatch:
        """The one trace as a batch, sharing its arrays."""
        return cls(x=trace.x, force=trace.force, starts=np.array([0, len(trace.x)]))


def _count_below(v: np.ndarray, step: float) -> np.ndarray:
    """How many grid points i * step (i = 0, 1, ...) lie strictly below v."""
    n = np.ceil(v / step).astype(np.int64)
    # the quotient may round across an integer; settle on the exact products
    while (low := n * step < v).any():
        n += low
    while (high := (n > 0) & ((n - 1) * step >= v)).any():
        n -= high
    return n


def _ragged_arange(counts: np.ndarray) -> np.ndarray:
    """0, 1, ..., c - 1 for every count c, end to end."""
    local = np.arange(counts.sum())
    local -= (counts.cumsum() - counts).repeat(counts)
    return local


def surrogate_traces(
    pm: Sequence[float], z: Sequence[float], folds: Sequence[int], p: SurrogateParams
) -> TraceBatch:
    """Surrogate traces of several designs, all in numpy.

    Each trace samples the grid i * sample_step below z, then z itself,
    plus the apex and knee of the initial triangle where they are not
    grid points already. Every sample costs a few float64 temporaries, so
    memory grows with the number of designs in one call.
    """
    pm = np.asarray(pm, dtype=float)
    z = np.asarray(z, dtype=float)
    phase = 2.0 * np.pi * np.asarray(folds, dtype=np.int64)
    step = float(p.sample_step)
    # apex, knee and end of the stroke, one row per design
    marks = z[:, None] * _MARKS
    below = _count_below(marks, step)

    # each mark goes in front of the first grid point at or above it; an
    # apex or knee that is a grid point already is not added again
    added = below * step != marks
    added[:, 2] = True
    n_grid = below[:, 2]
    lengths = n_grid + added.sum(axis=1)
    starts = np.zeros(len(z) + 1, dtype=np.int64)
    lengths.cumsum(out=starts[1:])
    at = (below + added.cumsum(axis=1) - added + starts[:-1, None])[added]
    x = np.empty(starts[-1])
    on_grid = np.ones(starts[-1], dtype=bool)
    on_grid[at] = False
    x[at] = marks[added]
    x[on_grid] = _ragged_arange(n_grid) * step

    # fold ripple pm (1 + A sin(2 pi folds x / z)), built in place
    force = phase.repeat(lengths)
    force *= x
    force /= z.repeat(lengths)
    np.sin(force, out=force)
    force *= p.fold_amplitude
    force += 1.0
    force *= pm.repeat(lengths)

    # the initial triangle replaces the ripple on the samples up to the
    # knee, falling to the ripple's value at the knee
    head = (x <= marks[:, 1].repeat(lengths)).nonzero()[0]
    n_head = below[:, 1] + added[:, 0] + 1
    f_knee = force[starts[:-1] + n_head - 1]
    xh = x[head]
    x_apex, x_knee, f_peak, f_knee = np.array(
        (marks[:, 0], marks[:, 1], p.peak_factor * pm, f_knee)
    ).repeat(n_head, axis=1)
    force[head] = np.where(
        xh <= x_apex,
        f_peak * xh / x_apex,
        f_peak + (f_knee - f_peak) * (xh - x_apex) / (x_knee - x_apex),
    )
    return TraceBatch(x=x, force=force, starts=starts)


def simulate_crush(
    dp: DesignPoint,
    g: DerivedGeometry,
    tube_mat: MaterialSpec,
    lat_mat: MaterialSpec,
    p: SurrogateParams = SurrogateParams(),
) -> CrushTrace:
    """Deterministic surrogate trace for a lattice-filled tube."""
    pm, z, folds = crush_inputs(dp, g, tube_mat, lat_mat, p)
    return surrogate_traces([pm], [z], [folds], p).trace(0)


def hollow_trace(
    t: float, tube_mat: MaterialSpec, p: SurrogateParams = SurrogateParams()
) -> CrushTrace:
    """Surrogate trace for the hollow tube of the same thickness."""
    pm, z, folds = hollow_inputs(t, tube_mat, p)
    return surrogate_traces([pm], [z], [folds], p).trace(0)


TRACE_HEADER = "x_mm,F_kN"


def write_trace(trace: CrushTrace, path: str | Path) -> None:
    """Write a trace CSV; floats use repr so read-back is bit-identical."""
    lines = [TRACE_HEADER]
    lines.extend(f"{x!r},{f!r}" for x, f in zip(trace.x.tolist(), trace.force.tolist()))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def ingest_trace(path: str | Path) -> CrushTrace:
    """Parse a two-column trace CSV, reporting the offending row on error."""
    path = Path(path)
    lines = path.read_text(encoding="utf-8").splitlines()
    if not lines or lines[0].strip() != TRACE_HEADER:
        raise TraceError(f"{path}: first line must be the header '{TRACE_HEADER}'")
    samples: list[tuple[float, float]] = []
    for row, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts = line.split(",")
        if len(parts) != 2:
            raise TraceError(f"{path}: row {row}: expected 2 columns, got {len(parts)}")
        try:
            x, f = float(parts[0]), float(parts[1])
        except ValueError:
            raise TraceError(f"{path}: row {row}: non-numeric value in {line!r}") from None
        if f < 0:
            raise TraceError(f"{path}: row {row}: negative force {f}")
        if samples and x <= samples[-1][0]:
            raise TraceError(
                f"{path}: row {row}: displacement {x} not above previous {samples[-1][0]}"
            )
        samples.append((x, f))
    if len(samples) < 2:
        raise TraceError(f"{path}: trace needs at least two samples")
    if samples[0][0] != 0.0:
        raise TraceError(f"{path}: row 2: trace must start at x=0, got {samples[0][0]}")
    return CrushTrace(samples=tuple(samples))
