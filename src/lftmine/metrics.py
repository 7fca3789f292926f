"""Crashworthiness indicators computed from a force-displacement trace.

All indicators derive from the trapezoid integral of the trace:

    TEA = integral of F dx            total energy absorption, kJ
    SEA = TEA / mass                  specific energy absorption, kJ/kg
    Pm  = TEA / z                     mean crush force, kN
    PCF = max F over the initial window   peak crush force, kN
    CFE = 100 Pm / PCF                crush force efficiency, %

PCF follows the initial-peak convention: the maximum is taken over the
first ``peak_window`` fraction of the stroke (default 20 %), so late fold
peaks or densification spikes in measured curves do not count as the
initial peak. Under that convention CFE can exceed 100 %.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Sequence
from dataclasses import dataclass, fields

import numpy as np

from .crush import CrushTrace, TraceBatch
from .errors import BoundsError, TraceError

DEFAULT_PEAK_WINDOW = 0.2


@dataclass(frozen=True, slots=True)
class CrashMetrics:
    """Indicator bundle for one evaluated design.

    z_mm is the crush distance the indicators were integrated over; it is
    zero when the bundle was filled from reported values rather than a
    trace.
    """

    mass_kg: float
    tea_kj: float
    sea_kj_per_kg: float
    pm_kn: float
    pcf_kn: float
    cfe_pct: float
    z_mm: float = 0.0


def _energies(batch: TraceBatch) -> list[float]:
    """Trapezoid integral of every trace in kN*mm, each summed exactly."""
    # 0.5 (x1 - x0) (f0 + f1), built in place
    terms = batch.x[1:] - batch.x[:-1]
    terms *= 0.5
    terms *= batch.force[:-1] + batch.force[1:]
    # term j joins samples j and j + 1, so trace i owns terms starts[i] .. starts[i + 1] - 2
    terms = memoryview(terms)
    bounds = batch.starts.tolist()
    return [math.fsum(terms[a : b - 1]) for a, b in zip(bounds, bounds[1:])]


def _check_window(peak_window: float) -> None:
    if not 0 < peak_window <= 1:
        raise BoundsError(f"peak_window={peak_window} must be in (0, 1]")


def _peaks(batch: TraceBatch, cutoff: np.ndarray) -> np.ndarray:
    """Largest force of every trace over its samples with x <= cutoff."""
    starts = batch.starts
    inside = np.where(batch.x <= cutoff.repeat(starts[1:] - starts[:-1]), batch.force, -np.inf)
    return np.maximum.reduceat(inside, starts[:-1])


def _ends(batch: TraceBatch) -> np.ndarray:
    """Crush distance of every trace: its last sampled displacement."""
    return batch.x[batch.starts[1:] - 1]


def trapezoid_energy(trace: CrushTrace) -> float:
    """Trapezoid-rule integral of the trace in kN*mm (equal to J)."""
    return _energies(TraceBatch.of(trace))[0]


def peak_force(trace: CrushTrace, peak_window: float = DEFAULT_PEAK_WINDOW) -> float:
    """Largest sampled force within the initial window of the stroke."""
    _check_window(peak_window)
    batch = TraceBatch.of(trace)
    return float(_peaks(batch, peak_window * _ends(batch))[0])


def metric_columns(
    batch: TraceBatch,
    mass_kg: Sequence[float],
    peak_window: float = DEFAULT_PEAK_WINDOW,
    name: Callable[[int], str] = lambda i: "",
) -> np.ndarray:
    """Indicators of every trace in the batch and its structure mass.

    Row j of the result holds field j of :class:`CrashMetrics` for every
    trace. A trace with a negative force, a non-positive mass or no force
    in the initial window fails; the error of the first such trace i
    starts with name(i).
    """
    _check_window(peak_window)
    if not len(batch):
        return np.empty((len(fields(CrashMetrics)), 0))
    mass = np.asarray(mass_kg, dtype=float)
    starts = batch.starts[:-1]
    z = _ends(batch)
    negative = np.minimum.reduceat(batch.force, starts) < 0
    pcf = _peaks(batch, peak_window * z)
    bad = (negative | (mass <= 0) | (pcf <= 0)).nonzero()[0]
    if bad.size:
        i = int(bad[0])
        if negative[i]:
            f = batch.force[starts[i] : batch.starts[i + 1]]
            j = int(np.flatnonzero(f < 0)[0])
            raise TraceError(f"{name(i)}negative force {f[j]} at sample {j}")
        if mass[i] <= 0:
            raise BoundsError(f"{name(i)}mass_kg={mass_kg[i]} must be positive")
        raise TraceError(f"{name(i)}peak force in the initial window is zero; CFE is undefined")
    energy = np.array(_energies(batch))
    tea = energy / 1000.0
    pm = energy / z
    return np.array((mass, tea, tea / mass, pm, pcf, 100.0 * pm / pcf, z))


def compute_metrics(
    trace: CrushTrace, mass_kg: float, peak_window: float = DEFAULT_PEAK_WINDOW
) -> CrashMetrics:
    """Evaluate all indicators for one trace and structure mass."""
    columns = metric_columns(TraceBatch.of(trace), [mass_kg], peak_window)
    return CrashMetrics(*columns[:, 0].tolist())
