"""Parametric geometry, bounds checking, and mass accounting."""

import math

import numpy as np
import pytest

from lftmine.errors import BoundsError
from lftmine.geometry import (
    AL6063_T5,
    ALSI10MG,
    DESIGN_BOUNDS,
    FLOW_STRESS_FACTOR,
    LATTICE_GAP,
    TUBE_A,
    TUBE_H,
    DesignPoint,
    MaterialSpec,
    compute_mass,
    derive_geometry,
    tube_mass_kg,
)


def test_angle_and_strut_length_hand_values():
    """Half cell height (200-0)/(2*4) = 25; half cell width
    (75-2)/(sqrt(2)*2) = 25.8094...; angle atan(25/25.809) = 44.087 deg and
    strut length 25/sin = 35.932."""
    g = derive_geometry(DesignPoint(n=4, m=2, d=2.0, t=1.4, h=0.0))
    assert math.isclose(math.degrees(g.omega), 44.08735112984811, rel_tol=1e-12)
    assert math.isclose(g.l, 35.93222787415219, rel_tol=1e-12)


def test_strut_counts_and_vertical_length():
    # 8 m^2 n diagonals, (m+1)^2 n verticals, each vertical (H-h)/n long
    g = derive_geometry(DesignPoint(n=4, m=2, d=2.0, t=1.4, h=0.0))
    assert g.n_diag == 128
    assert g.n_vert == 36
    assert g.vert_len == 50.0


def test_projection_identities_random_designs():
    """l*sin(omega) recovers the half cell height and l*cos(omega) the half
    cell width, across the whole box."""
    rng = np.random.default_rng(7)
    for _ in range(200):
        dp = DesignPoint(
            n=int(rng.integers(2, 7)),
            m=int(rng.integers(2, 6)),
            d=float(rng.uniform(1, 3)),
            t=float(rng.uniform(0.8, 2)),
            h=float(rng.uniform(0, 5)),
        )
        g = derive_geometry(dp)
        height = (TUBE_H - dp.h) / (2 * dp.n)
        width = (TUBE_A - 2 * LATTICE_GAP) / (math.sqrt(2) * dp.m)
        assert math.isclose(g.l * math.sin(g.omega), height, rel_tol=1e-9)
        assert math.isclose(g.l * math.cos(g.omega), width, rel_tol=1e-9)


def test_tube_mass_formula():
    # 4 * 75 * 200 * 1.4 mm^3 of Al6063-T5 at 2700 kg/m^3
    assert tube_mass_kg(1.4, AL6063_T5) == 0.22680000000000003


def test_lattice_mass_hand_value():
    """128 diagonals of 35.932 mm plus 36 verticals of 50 mm, rod area
    pi*2^2/4, AlSi10Mg at 2670 kg/m^3 -> 0.0536779 kg."""
    dp = DesignPoint(n=4, m=2, d=2.0, t=1.4, h=0.0)
    g = derive_geometry(dp)
    mass = compute_mass(dp, g, AL6063_T5, ALSI10MG)
    assert math.isclose(mass.lattice_mass, 0.053677874737464985, rel_tol=1e-12)
    assert mass.total_mass == mass.tube_mass + mass.lattice_mass


def test_mass_scales_with_rod_area():
    # doubling d quadruples the lattice mass, tube mass untouched
    thin = DesignPoint(n=3, m=3, d=1.0, t=1.0, h=2.0)
    thick = DesignPoint(n=3, m=3, d=2.0, t=1.0, h=2.0)
    m1 = compute_mass(thin, derive_geometry(thin), AL6063_T5, ALSI10MG)
    m2 = compute_mass(thick, derive_geometry(thick), AL6063_T5, ALSI10MG)
    assert math.isclose(m2.lattice_mass, 4 * m1.lattice_mass, rel_tol=1e-12)
    assert m2.tube_mass == m1.tube_mass


def test_design_point_bounds_checked_on_use():
    # points are plain containers; derive_geometry rejects bad ones
    with pytest.raises(BoundsError, match="n=1"):
        derive_geometry(DesignPoint(n=1, m=3, d=2.0, t=1.4, h=0.0))
    with pytest.raises(BoundsError, match="d=3.5"):
        derive_geometry(DesignPoint(n=3, m=3, d=3.5, t=1.4, h=0.0))
    with pytest.raises(BoundsError, match="h=5.1"):
        derive_geometry(DesignPoint(n=3, m=3, d=2.0, t=1.4, h=5.1))
    with pytest.raises(BoundsError, match="integer"):
        derive_geometry(DesignPoint(n=2.5, m=3, d=2.0, t=1.4, h=0.0))
    assert set(DESIGN_BOUNDS) == {"n", "m", "d", "t", "h"}


def test_flow_stress_defaults_and_override():
    assert AL6063_T5.sigma_flow == FLOW_STRESS_FACTOR * AL6063_T5.sigma_y
    assert ALSI10MG.sigma_flow == FLOW_STRESS_FACTOR * ALSI10MG.sigma_y
    custom = MaterialSpec(name="x", E=70.0, sigma_y=100.0, rho=2700.0, nu=0.3, sigma_flow=123.0)
    assert custom.sigma_flow == 123.0
