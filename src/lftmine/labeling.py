"""Three-objective crashworthiness grading.

Each design is graded e (excellent), g (good), or b (bad) under three
separate objectives. All three share the SEA ladder (16 excellent,
13.64 good); the second condition differs per objective:

    eff    energy efficiency     CFE >= 45 % (e), >= 35 % (g)
    tea    total absorption      TEA >= 6 kJ (e), >= 4.45 kJ (g)
    light  lightweight           mass <= 0.45 kg (e), <= 0.5 kg (g)

Grades are exclusive and exhaustive: the excellent test runs first, the
good test applies only to designs that failed it, everything else is bad.
"""

from __future__ import annotations

from collections.abc import Iterable

from .errors import SchemaError
from .metrics import CrashMetrics

CLASS_ORDER = ("e", "g", "b")

OBJECTIVES = ("eff", "tea", "light")

SEA_EXCELLENT = 16.0
SEA_GOOD = 13.64

CFE_EXCELLENT = 45.0
CFE_GOOD = 35.0

TEA_EXCELLENT = 6.0
TEA_GOOD = 4.45

MASS_EXCELLENT = 0.45
MASS_GOOD = 0.5


def label_efficiency(sea: float, cfe: float) -> str:
    if sea >= SEA_EXCELLENT and cfe >= CFE_EXCELLENT:
        return "e"
    if sea >= SEA_GOOD and cfe >= CFE_GOOD:
        return "g"
    return "b"


def label_total_energy(sea: float, tea: float) -> str:
    if sea >= SEA_EXCELLENT and tea >= TEA_EXCELLENT:
        return "e"
    if sea >= SEA_GOOD and tea >= TEA_GOOD:
        return "g"
    return "b"


def label_lightweight(sea: float, mass: float) -> str:
    if sea >= SEA_EXCELLENT and mass <= MASS_EXCELLENT:
        return "e"
    if sea >= SEA_GOOD and mass <= MASS_GOOD:
        return "g"
    return "b"


# each objective's grading function and the indicator it reads beside SEA
GRADERS = {"eff": label_efficiency, "tea": label_total_energy, "light": label_lightweight}
SECOND_INDICATOR = {"eff": "cfe_pct", "tea": "tea_kj", "light": "mass_kg"}


def label_metrics(m: CrashMetrics, objective: str) -> str:
    """Grade one design under the named objective."""
    if objective not in GRADERS:
        raise SchemaError(f"unknown objective {objective!r}, expected one of {OBJECTIVES}")
    return GRADERS[objective](m.sea_kj_per_kg, getattr(m, SECOND_INDICATOR[objective]))


def label_all(m: CrashMetrics) -> dict[str, str]:
    """Grades under every objective, keyed eff/tea/light."""
    return {obj: label_metrics(m, obj) for obj in OBJECTIVES}


def label_dataset(metrics: Iterable[CrashMetrics], objective: str) -> list[str]:
    return [label_metrics(m, objective) for m in metrics]
