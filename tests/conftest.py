import numpy as np
import pytest

from thzlink.absorption import Environment
from thzlink.capacity import BandPlan
from thzlink.config import read_bundled_catalog
from thzlink.propagation import LinkGeometry
from thzlink.spectro import (Medium, SpectralLine, load_medium,
                             parse_line_catalog)
from thzlink.sweep import Scenario

ALL_SPECIES = {(1, 1), (1, 2), (7, 1), (4, 1)}


@pytest.fixture(scope="session")
def catalog_text():
    return read_bundled_catalog()


@pytest.fixture(scope="session")
def full_catalog(catalog_text):
    return parse_line_catalog(catalog_text, ALL_SPECIES, intensity_floor=0.0)


@pytest.fixture(scope="session")
def floored_catalog(catalog_text):
    return parse_line_catalog(catalog_text, ALL_SPECIES)


@pytest.fixture(scope="session")
def water_medium(floored_catalog):
    """Water-vapor-only medium, 10% mixing ratio."""
    return load_medium(
        {"epsilon_r": 1.0,
         "composition": [{"gas_id": 1, "iso_id": 1, "q": 0.1}]},
        floored_catalog)


@pytest.fixture(scope="session")
def default_medium(floored_catalog):
    """The default humid-air medium (water-dominated, some oxygen)."""
    return load_medium(
        {"epsilon_r": 1.0,
         "composition": [{"gas_id": 1, "iso_id": 1, "q": 0.25},
                         {"gas_id": 7, "iso_id": 1, "q": 0.21}]},
        floored_catalog)


@pytest.fixture(scope="session")
def wide_medium():
    """1 100 seeded synthetic lines over 0.3-3.5 THz, about what a real
    catalog keeps for the default scenario's two species."""
    rng = np.random.default_rng(16)
    n = 1100
    columns = zip(rng.uniform(0.3e12, 3.5e12, n), rng.uniform(1e9, 1e13, n),
                  rng.uniform(1e9, 4e9, n), rng.uniform(5e9, 2e10, n),
                  rng.uniform(0.5, 0.9, n), rng.uniform(-1e8, 1e8, n))
    lines = tuple(SpectralLine(gas_id=(1, 7)[j % 2], iso_id=1, f_c0=f_c0,
                               line_intensity=s, alpha_air=a_air,
                               alpha_self=a_self, temp_exponent=n_t,
                               pressure_shift=shift)
                  for j, (f_c0, s, a_air, a_self, n_t, shift)
                  in enumerate(columns))
    return Medium(composition={(1, 1): 0.25, (7, 1): 0.21}, lines=lines)


@pytest.fixture
def env():
    return Environment(t_s=296.0, p=1.0)


@pytest.fixture
def geom():
    return LinkGeometry(d=1.0e-4, h_t=2.0e-5, h_r=2.0e-5)


@pytest.fixture
def band():
    return BandPlan.centered(1.0e12, 1.0e11, 64)


@pytest.fixture
def default_scenario(default_medium, env, geom, band):
    return Scenario(geom=geom, medium=default_medium, env=env, band=band,
                    p_t=1.0e-6)


@pytest.fixture
def line_factory():
    """Synthetic SpectralLine builder with sane THz-water-like defaults."""

    def make(f_c0=1.0e12, intensity=3.0e12, alpha_air=2.5e9,
             alpha_self=1.1e10, temp_exponent=0.7, pressure_shift=0.0,
             gas_id=1, iso_id=1):
        return SpectralLine(
            gas_id=gas_id, iso_id=iso_id, f_c0=f_c0,
            line_intensity=intensity, alpha_air=alpha_air,
            alpha_self=alpha_self, temp_exponent=temp_exponent,
            pressure_shift=pressure_shift)

    return make


@pytest.fixture
def rng():
    return np.random.default_rng(20260810)
