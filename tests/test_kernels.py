import tracemalloc

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
    line = line_factory()
    one_line_medium = Medium(composition={line.species: 0.1}, lines=(line,))
    cold = Environment(t_s=1.0e-300, p=env.p)
    dense = Environment(t_s=env.t_s, p=1.0e200)
    cases = [(default_medium, env, -1.0e12, "frequency must be > 0"),
             (default_medium, env, 0.0, "frequency must be > 0"),
             (default_medium, env, np.inf, "frequency must be finite"),
             (default_medium, env, 1.0e160, r"1e\+160 Hz puts f\^2 tanh"),
             (default_medium, env, 1.0e-300, r"1e-300 Hz puts f\^2 tanh"),
             (shifted_medium, env, 1.0e12, "pressure shift drives resonance"),
             (default_medium, cold, 1.0e12,
              r"temperature 1e-300 K at pressure 1.0 atm puts the line"),
             (one_line_medium, dense, 1.0e12,
              r"temperature 296.0 K at pressure 1e\+200 atm puts the line")]
    for medium, conditions, f, message in cases:
        with pytest.raises(DomainError, match=message):
            medium_kappa(medium, f, conditions)
        with pytest.raises(DomainError, match=message):
            kappa_over_grid(medium, np.array([1.5e12, f]), conditions)


def test_rows_match_one_row_calls_bitwise(default_medium, env):
    """A multi-row call is the one-row sum, row by row, bit for bit."""
    freqs = np.linspace(0.9e12, 1.6e12, 37)
    temps = np.linspace(250.0, 400.0, 9)
    pressures = np.linspace(0.2, 2.0, 9)
    by_t = kernels.kappa_totals(freqs, default_medium.packed, temps, env.p)
    by_p = kernels.kappa_totals(freqs, default_medium.packed, env.t_s,
                                pressures)
    by_f = kernels.kappa_totals(freqs[None, :] * np.linspace(1, 2, 9)[:, None],
                                default_medium.packed, env.t_s, env.p)
    assert by_t.shape == by_p.shape == by_f.shape == (9, 37)
    for row in range(9):
        assert np.array_equal(by_t[row], kappa_over_grid(
            default_medium, freqs, Environment(t_s=temps[row], p=env.p),
            wing_cutoff=None))
        assert np.array_equal(by_p[row], kappa_over_grid(
            default_medium, freqs, Environment(t_s=env.t_s,
                                               p=pressures[row]),
            wing_cutoff=None))
        assert np.array_equal(by_f[row], kappa_over_grid(
            default_medium, freqs * np.linspace(1, 2, 9)[row], env,
            wing_cutoff=None))


def test_blocks_cover_every_row(default_medium, env):
    lines = default_medium.packed
    n_rows = 5 * kernels.BLOCK_PAIRS // (len(lines) * 64) + 3
    temps = np.linspace(250.0, 400.0, n_rows)
    freqs = np.linspace(1.0e12, 1.1e12, 64)
    grid = kernels.kappa_totals(freqs, lines, temps, env.p)
    for row in (0, n_rows // 2, n_rows - 1):
        assert np.array_equal(grid[row], kernels.kappa_totals(
            freqs, lines, float(temps[row]), env.p))


def test_one_row_is_split_by_the_pair_budget(default_medium, env):
    """A row with more pairs than BLOCK_PAIRS is evaluated in blocks of
    points, so its temporaries stay bounded; each point's sum is its own."""
    lines = default_medium.packed
    freqs = np.linspace(0.5e12, 3.5e12,
                        20 * kernels.BLOCK_PAIRS // len(lines) + 7)
    tracemalloc.start()
    row = kernels.kappa_totals(freqs, lines, env.t_s, env.p, 5.0e12)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    # a few per-point arrays plus a few block temporaries, in bytes; one
    # lines x points temporary alone would be 20 blocks
    assert peak < 8 * (8 * freqs.size + 8 * kernels.BLOCK_PAIRS)
    step = kernels.BLOCK_PAIRS // len(lines)
    for k in (0, step - 1, step, freqs.size - 1):
        assert row[k] == pytest.approx(kernels.kappa_totals(
            freqs[k:k + 1], lines, env.t_s, env.p, 5.0e12)[0], rel=1e-14)


def test_one_row_shapes(default_medium, env):
    freqs = np.linspace(1.0e12, 1.1e12, 5)
    for medium in (default_medium, Medium(composition={})):
        assert kernels.kappa_totals(freqs, medium.packed, 296.0,
                                    1.0).shape == (5,)
        assert kernels.kappa_totals(freqs, medium.packed, [296.0],
                                    1.0).shape == (1, 5)
        assert kernels.kappa_totals(freqs, medium.packed, 296.0,
                                    [1.0, 2.0]).shape == (2, 5)


@pytest.mark.parametrize("f", [np.inf, np.nan])
def test_grid_rejects_non_finite_frequency(default_medium, env, f):
    with pytest.raises(DomainError, match="frequency must be"):
        kappa_over_grid(default_medium, np.array([1.5e12, f]), env)


def test_pressure_shift_error_names_the_row_pressure(line_factory):
    shifted = line_factory(f_c0=1.0e12, pressure_shift=-0.6e12)
    medium = Medium(composition={shifted.species: 0.1}, lines=(shifted,))
    with pytest.raises(DomainError, match=r"line 0 .* at p=2\.0 atm"):
        kernels.kappa_totals(np.array([1e12]), medium.packed, 296.0,
                             [1.0, 2.0])


def test_medium_packs_its_lines_once(default_medium, monkeypatch):
    medium = Medium(composition=default_medium.composition,
                    lines=default_medium.lines)
    calls = []
    real = kernels.pack_lines
    monkeypatch.setattr(kernels, "pack_lines",
                        lambda m: calls.append(m) or real(m))
    env = Environment()
    for _ in range(3):
        kappa_over_grid(medium, np.array([1.0e12, 1.2e12]), env)
    assert len(calls) == 1
    assert not medium.packed.f_c0.flags.writeable
