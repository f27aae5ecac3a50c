import numpy as np
import pytest

from thzlink import kernels
from thzlink.absorption import Environment, kappa_over_grid, medium_kappa
from thzlink.errors import DomainError
from thzlink.spectro import Medium


def test_pack_lines_respects_per_species_q(full_catalog):
    medium = Medium(
        composition={(1, 1): 0.3, (7, 1): 0.05},
        lines=tuple(ln for ln in full_catalog
                    if ln.species in {(1, 1), (7, 1)}))
    packed = kernels.pack_lines(medium)
    for j, line in enumerate(medium.lines):
        expected = 0.3 if line.species == (1, 1) else 0.05
        assert packed.q[j] == expected
        assert packed.f_c0[j] == line.f_c0


def test_grid_matches_scalar_reference(default_medium, env):
    freqs = np.linspace(0.9e12, 1.6e12, 37)
    grid = kappa_over_grid(default_medium, freqs, env, wing_cutoff=None)
    for i, f in enumerate(freqs):
        scalar = medium_kappa(default_medium, float(f), env,
                              wing_cutoff=None).total_kappa
        assert grid[i] == pytest.approx(scalar, rel=1e-12)


def test_wing_cutoff_skips_far_lines(default_medium, env):
    f_far = np.array([8.5e12])  # > 5 THz beyond every catalog line
    assert kappa_over_grid(default_medium, f_far, env)[0] == 0.0
    assert kappa_over_grid(default_medium, f_far, env, wing_cutoff=None)[0] > 0.0
    scalar = medium_kappa(default_medium, 8.5e12, env).total_kappa
    assert scalar == 0.0


def test_empty_medium_gives_zeros(env):
    medium = Medium(composition={}, epsilon_r=1.0)
    freqs = np.linspace(1e12, 2e12, 11)
    assert np.all(kappa_over_grid(medium, freqs, env) == 0.0)


def test_grid_rejects_what_scalar_rejects(default_medium, env, line_factory):
    shifted = line_factory(f_c0=1.0e12, pressure_shift=-2.0e12)
    shifted_medium = Medium(composition={shifted.species: 0.1},
                            lines=(shifted,))
    cases = [(default_medium, -1.0e12, "frequency must be > 0"),
             (default_medium, 0.0, "frequency must be > 0"),
             (shifted_medium, 1.0e12, "pressure shift drives resonance")]
    for medium, f, message in cases:
        with pytest.raises(DomainError, match=message):
            medium_kappa(medium, f, env)
        with pytest.raises(DomainError, match=message):
            kappa_over_grid(medium, np.array([1.5e12, f]), env)
