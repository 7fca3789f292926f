"""Parametric geometry and mass model for lattice-filled thin-walled tubes.

An LFT is a square tube of side ``a`` and height ``H`` filled with a
body-centered-cubic lattice with vertical struts (BCC-Z). The filler is
described by five design variables:

* ``n``  number of lattice layers in the longitudinal direction
* ``m``  number of cells in the transverse direction
* ``d``  lattice rod diameter, mm
* ``t``  tube wall thickness, mm
* ``h``  height difference between tube and lattice, mm

The paper studies one tube, so ``a``, ``H`` and ``s`` are the module
constants ``TUBE_A``, ``TUBE_H`` and ``LATTICE_GAP``. The lattice fully
fills the tube cross-section (minus the gap ``s`` on each side), so rod
length ``l`` and rod inclination ``omega`` are functions of (n, m, h):

    tan(omega) = ((H - h) / (2 n)) / ((a - 2 s) / (sqrt(2) m))
    l          = ((H - h) / (2 n)) / sin(omega)

Angles are stored in radians; convert to degrees only at I/O boundaries.
Units: mm for lengths, kg for masses, MPa for stresses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import BoundsError

# Admissible design box: variable -> (lower, upper), bounds inclusive.
DESIGN_BOUNDS: dict[str, tuple[float, float]] = {
    "n": (2, 6),
    "m": (2, 5),
    "d": (1.0, 3.0),
    "t": (0.8, 2.0),
    "h": (0.0, 5.0),
}

INTEGER_VARIABLES = ("n", "m")

# The one tube every design fills, mm: outer side a of the square section,
# height H, and gap s between the tube wall and the lattice envelope.
TUBE_A = 75.0
TUBE_H = 200.0
LATTICE_GAP = 1.0

# Flow stress used by the crush surrogate when none is configured:
# midway between yield and 10% hardened yield.
FLOW_STRESS_FACTOR = 1.05


@dataclass(frozen=True, slots=True)
class DesignPoint:
    """One LFT design: the five independent design variables."""

    n: int
    m: int
    d: float
    t: float
    h: float


def check_design_point(dp: DesignPoint) -> None:
    """Raise :class:`BoundsError` naming the first variable outside the box."""
    for name in ("n", "m", "d", "t", "h"):
        value = getattr(dp, name)
        lo, hi = DESIGN_BOUNDS[name]
        if not (lo <= value <= hi):
            raise BoundsError(
                f"design variable {name}={value} outside allowed range [{lo}, {hi}]"
            )
        if name in INTEGER_VARIABLES and value != int(value):
            raise BoundsError(f"design variable {name}={value} must be an integer")


@dataclass(frozen=True)
class MaterialSpec:
    """Material constants; sigma_flow defaults to 1.05 * sigma_y.

    E: Young's modulus, GPa
    sigma_y: yield stress, MPa
    rho: density, kg/m^3
    nu: Poisson's ratio
    sigma_flow: flow stress used by the crush surrogate, MPa
    """

    name: str
    E: float
    sigma_y: float
    rho: float
    nu: float
    sigma_flow: float | None = None

    def __post_init__(self) -> None:
        if self.sigma_flow is None:
            object.__setattr__(self, "sigma_flow", FLOW_STRESS_FACTOR * self.sigma_y)
        for field in ("E", "sigma_y", "rho", "nu", "sigma_flow"):
            if getattr(self, field) <= 0:
                raise BoundsError(f"material {self.name}: {field} must be positive")
        if self.sigma_flow < self.sigma_y:
            raise BoundsError(
                f"material {self.name}: sigma_flow={self.sigma_flow} below yield "
                f"{self.sigma_y}"
            )


# Default aluminum alloys: extruded tube and 3D-printed lattice.
AL6063_T5 = MaterialSpec(name="Al6063-T5", E=68.2, sigma_y=187.0, rho=2700.0, nu=0.33)
ALSI10MG = MaterialSpec(name="AlSi10Mg", E=69.3, sigma_y=162.0, rho=2670.0, nu=0.30)


@dataclass(frozen=True)
class DerivedGeometry:
    """Quantities derived from a design point for a full-fill lattice.

    omega: rod inclination from horizontal, radians
    l: diagonal rod length, mm
    cell_height: (H - h) / n, mm
    n_diag: total diagonal strut count (8 per cell)
    n_vert: total vertical strut count ((m + 1)^2 columns per layer)
    vert_len: vertical strut length, mm (one cell height)
    """

    omega: float
    l: float
    cell_height: float
    n_diag: int
    n_vert: int
    vert_len: float


@dataclass(frozen=True)
class MassBreakdown:
    """Component masses in kg; total = tube + lattice."""

    tube_mass: float
    lattice_mass: float
    total_mass: float


def derive_geometry(dp: DesignPoint) -> DerivedGeometry:
    """Derive strut angle, strut length and strut counts for a design.

    The diagonal rod spans half a cell height vertically and half the cell
    face diagonal horizontally, so

        l sin(omega) = (H - h) / (2 n)
        l cos(omega) = (a - 2 s) / (sqrt(2) m)

    hold exactly. Each BCC-Z cell contributes 8 unshared diagonals; vertical
    edges are shared by in-plane neighbours, giving (m + 1)^2 vertical
    columns per layer.
    """
    check_design_point(dp)

    half_height = (TUBE_H - dp.h) / (2 * dp.n)
    half_diag = (TUBE_A - 2 * LATTICE_GAP) / (math.sqrt(2) * dp.m)
    omega = math.atan2(half_height, half_diag)
    l = half_height / math.sin(omega)
    cell_height = (TUBE_H - dp.h) / dp.n
    return DerivedGeometry(
        omega=omega,
        l=l,
        cell_height=cell_height,
        n_diag=8 * dp.m * dp.m * dp.n,
        n_vert=(dp.m + 1) ** 2 * dp.n,
        vert_len=cell_height,
    )


MM3_TO_M3 = 1e-9


def tube_mass_kg(t: float, mat: MaterialSpec) -> float:
    """Thin-shell square tube mass: 4 a H t rho, corner overlap ignored."""
    return 4.0 * TUBE_A * TUBE_H * t * MM3_TO_M3 * mat.rho


def compute_mass(
    dp: DesignPoint,
    g: DerivedGeometry,
    tube_mat: MaterialSpec,
    lat_mat: MaterialSpec,
) -> MassBreakdown:
    """Thin-shell tube mass plus cylinder-strut lattice mass.

    tube_mass    = 4 a H t rho_tube       (mid-surface perimeter, corner
                                            overlap ignored)
    lattice_mass = rho_lat (pi d^2 / 4) (n_diag l + n_vert vert_len)

    Strut-junction overlap volume is ignored; the error is small and the
    same for every design.
    """
    rod_area = math.pi * dp.d * dp.d / 4.0
    lattice_vol = rod_area * (g.n_diag * g.l + g.n_vert * g.vert_len)
    tube_mass = tube_mass_kg(dp.t, tube_mat)
    lattice_mass = lattice_vol * MM3_TO_M3 * lat_mat.rho
    return MassBreakdown(
        tube_mass=tube_mass,
        lattice_mass=lattice_mass,
        total_mass=tube_mass + lattice_mass,
    )
