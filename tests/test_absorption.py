import math

import numpy as np
import pytest

from thzlink import kernels
from thzlink.absorption import (DEFAULT_OVERFLOW_CAP, DEFAULT_WING_CUTOFF,
                                Attenuation, Environment,
                                attenuation_from_optical_depth,
                                kappa_over_grid, line_absorption,
                                lorentz_half_width, maa, medium_kappa,
                                shifted_resonance, spectral_line_shape,
                                vvw_line_shape)
from thzlink.constants import ATM_IN_KPA, BOLTZMANN, PLANCK
from thzlink.errors import DomainError, ValidationError
from thzlink.propagation import path_loss_grid
from thzlink.spectro import Medium


def test_environment_validation():
    with pytest.raises(ValidationError) as excinfo:
        Environment(t_s=-5.0, p=0.0)
    assert len(excinfo.value.violations) == 2


class TestLorentzHalfWidth:
    def test_pure_air_reference(self, line_factory):
        line = line_factory()
        env = Environment(t_s=296.0, p=1.0)
        assert lorentz_half_width(line, 0.0, env) == line.alpha_air

    def test_pure_self_double_pressure(self, line_factory):
        line = line_factory()
        env = Environment(t_s=296.0, p=2.0)
        assert lorentz_half_width(line, 1.0, env) == pytest.approx(
            2.0 * line.alpha_self, rel=1e-15)

    def test_half_mix_half_temperature(self, line_factory):
        # (296/148)^1 = 2 exactly, so alpha = (a_air + a_self)
        line = line_factory(temp_exponent=1.0)
        env = Environment(t_s=148.0, p=1.0)
        assert lorentz_half_width(line, 0.5, env) == pytest.approx(
            line.alpha_air + line.alpha_self, rel=1e-15)

    def test_bad_q_rejected(self, line_factory):
        with pytest.raises(DomainError):
            lorentz_half_width(line_factory(), 1.5, Environment())


def test_scalar_center_and_width_are_the_kernels_bitwise(default_medium):
    """One formula: the public center and half-width have the bits of the
    line state the kernel derives, at scalar and at per-row conditions."""
    rng = np.random.default_rng(20261018)
    temps = rng.uniform(150.0, 600.0, 300)
    pressures = 10.0 ** rng.uniform(-2.0, 1.0, 300)
    lines = default_medium.packed
    rows = kernels._derive_line_state(lines, temps[:, None],
                                      pressures[:, None])
    for i, (t_s, p) in enumerate(zip(temps.tolist(), pressures.tolist())):
        f_c, alpha2, *_ = kernels._derive_line_state(
            lines, np.float64(t_s), np.float64(p))
        assert (rows[0][i] == f_c).all() and (rows[1][i] == alpha2).all()
        env = Environment(t_s=t_s, p=p)
        for j, line in enumerate(default_medium.lines):
            assert shifted_resonance(line, env) == f_c[j]
            width = lorentz_half_width(line, default_medium.q_for(line), env)
            assert width * width == alpha2[j]  # the kernel's square


def test_scalar_line_shapes_square_and_tanh_as_the_kernel(default_medium):
    """The line shapes square by multiplying and take np.tanh, as the kernel
    does. On the 1.661 THz water line at 0.2 atm, libm's alpha ** 2 is one
    bit off alpha * alpha, and math.tanh(a f) at 1 THz one bit off
    np.tanh."""
    line = next(line for line in default_medium.lines
                if line.f_c0 == 1661061442500.0)
    q, env = default_medium.q_for(line), Environment(t_s=296.0, p=0.2)
    alpha = lorentz_half_width(line, q, env)
    f_c = shifted_resonance(line, env)
    a = PLANCK / (2.0 * BOLTZMANN * env.t_s)
    for f in (f_c, 1.0e12):
        dm, dp = f - f_c, f + f_c
        vvw = ((alpha / math.pi) * (f / f_c)
               * (1.0 / (dm * dm + alpha * alpha)
                  + 1.0 / (dp * dp + alpha * alpha)))
        assert vvw_line_shape(line, f, env, q) == vvw, f
        assert spectral_line_shape(line, f, env, q) == (
            (f / f_c) * float(np.tanh(a * f) / np.tanh(a * f_c)) * vvw), f


class TestShiftedResonance:
    def test_zero_shift(self, line_factory):
        line = line_factory(pressure_shift=0.0)
        assert shifted_resonance(line, Environment(p=3.0)) == line.f_c0

    def test_vacuum_limit(self, line_factory):
        line = line_factory(pressure_shift=-3.0e9)
        assert shifted_resonance(line, Environment(p=1e-12)) == pytest.approx(
            line.f_c0, rel=1e-9)

    def test_linear_shift(self, line_factory):
        line = line_factory(f_c0=1.0e12, pressure_shift=-3.0e9)
        env = Environment(t_s=296.0, p=2.0)
        assert shifted_resonance(line, env) == pytest.approx(0.994e12,
                                                             rel=1e-15)

    def test_pathological_shift_rejected(self, line_factory):
        line = line_factory(f_c0=1.0e12, pressure_shift=-2.0e12)
        with pytest.raises(DomainError):
            shifted_resonance(line, Environment(p=1.0))


class TestVvwLineShape:
    def test_peak_location_grid_search(self, line_factory):
        line = line_factory(f_c0=1.0e12)
        env = Environment()
        alpha = lorentz_half_width(line, 0.0, env)
        grid = np.linspace(line.f_c0 - 10 * alpha, line.f_c0 + 10 * alpha,
                           4001)
        values = [vvw_line_shape(line, f, env, 0.0) for f in grid]
        peak = grid[int(np.argmax(values))]
        assert abs(peak - line.f_c0) < alpha

    def test_far_wing_decays_as_one_over_f(self, line_factory):
        line = line_factory(f_c0=1.0e12)
        env = Environment()
        freqs = np.geomspace(100 * line.f_c0, 1.0e4 * line.f_c0, 40)
        values = np.array([vvw_line_shape(line, f, env, 0.0) for f in freqs])
        slope = np.polyfit(np.log(freqs), np.log(values), 1)[0]
        assert slope == pytest.approx(-1.0, abs=0.05)

    def test_doubling_width_halves_peak(self, line_factory):
        env = Environment()
        narrow = line_factory(alpha_air=2.0e9)
        wide = line_factory(alpha_air=4.0e9)
        ratio = (vvw_line_shape(narrow, narrow.f_c0, env, 0.0)
                 / vvw_line_shape(wide, wide.f_c0, env, 0.0))
        assert ratio == pytest.approx(2.0, rel=1e-4)


class TestSpectralLineShape:
    def test_identity_at_resonance(self, line_factory):
        line = line_factory()
        env = Environment()
        f_c = shifted_resonance(line, env)
        assert spectral_line_shape(line, f_c, env, 0.0) == vvw_line_shape(
            line, f_c, env, 0.0)

    def test_tanh_saturation_at_low_temperature(self, line_factory):
        line = line_factory(f_c0=1.0e12)
        env = Environment(t_s=0.01, p=1.0)
        f = 2.0e12
        expected = (f / line.f_c0) * vvw_line_shape(line, f, env, 0.0)
        assert spectral_line_shape(line, f, env, 0.0) == pytest.approx(
            expected, rel=1e-12)

    def test_small_argument_expansion(self, line_factory):
        # hot medium: tanh(x) ~ x, so the ratio at f = 2 f_c tends to 2
        line = line_factory(f_c0=1.0e12)
        env = Environment(t_s=1.0e4, p=1.0)
        f = 2.0 * line.f_c0
        xi = spectral_line_shape(line, f, env, 0.0)
        assert xi == pytest.approx(4.0 * vvw_line_shape(line, f, env, 0.0),
                                   rel=1e-4)


class TestLineAbsorption:
    def test_no_molecules_no_absorption(self, line_factory):
        assert line_absorption(line_factory(), 0.0, 1.1e12,
                               Environment()) == 0.0

    def test_pressure_squared_prefactor(self, line_factory):
        # dividing out the line shape isolates the (p/p0)*Q prefactor
        line = line_factory()
        f = 1.05e12
        def prefactor(p):
            env = Environment(t_s=296.0, p=p)
            return (line_absorption(line, 0.4, f, env)
                    / spectral_line_shape(line, f, env, 0.4))
        assert prefactor(2.0) / prefactor(1.0) == pytest.approx(4.0,
                                                                rel=1e-12)

    def test_inverse_temperature_squared_prefactor(self, line_factory):
        line = line_factory(temp_exponent=0.0)
        f = 1.05e12
        def prefactor(t_s):
            env = Environment(t_s=t_s, p=1.0)
            return (line_absorption(line, 0.4, f, env)
                    / spectral_line_shape(line, f, env, 0.4))
        assert prefactor(592.0) / prefactor(296.0) == pytest.approx(
            0.25, rel=1e-12)


class TestMediumKappa:
    def test_empty_composition(self, env):
        breakdown = medium_kappa(Medium(composition={}), 1.0e12, env)
        assert breakdown.total_kappa == 0.0
        assert breakdown.per_line == {}

    def test_singleton(self, line_factory, env):
        line = line_factory()
        medium = Medium(composition={(1, 1): 0.2}, lines=(line,))
        breakdown = medium_kappa(medium, 1.01e12, env)
        assert breakdown.per_line == {
            (1, 1, 0): line_absorption(line, 0.2, 1.01e12, env)}
        assert breakdown.total_kappa == breakdown.per_line[(1, 1, 0)]

    def test_line_absorption_is_the_one_line_medium_bitwise(
            self, full_catalog, env):
        for line in full_catalog[::4]:
            for q in (0.0, 0.3, 1.0):
                for f in (0.5e12, line.f_c0, 2.7e12):
                    medium = Medium(composition={line.species: q},
                                    lines=(line,))
                    # medium_kappa's per-line sum, without the cutoff
                    assert line_absorption(line, q, f, env) == (
                        kernels.line_contributions(
                            (f,), medium.packed, env.t_s, env.p).sum())

    def test_line_absorption_has_no_wing_cutoff(self, full_catalog, env):
        # the bundled catalog's first line (O2, 0.1188 THz) at the default q
        line, q = full_catalog[0], 0.21
        medium = Medium(composition={line.species: q}, lines=(line,))
        for offset in (0.5e12, 4.9e12):  # within the cutoff: equal
            f = line.f_c0 + offset
            assert line_absorption(line, q, f, env) == (
                medium_kappa(medium, f, env).total_kappa)
        beyond = line.f_c0 + DEFAULT_WING_CUTOFF + 1.0e12
        assert line_absorption(line, q, beyond, env) > 0.0
        assert medium_kappa(medium, beyond, env).total_kappa == 0.0

    def test_total_is_sum_of_contributions(self, default_medium, env):
        breakdown = medium_kappa(default_medium, 1.21e12, env)
        assert breakdown.total_kappa == pytest.approx(
            sum(breakdown.per_line.values()), rel=1e-12)
        assert all(v >= 0.0 for v in breakdown.per_line.values())

    def test_additivity_over_species(self, full_catalog, env):
        water = Medium(
            composition={(1, 1): 0.1},
            lines=tuple(l for l in full_catalog if l.species == (1, 1)))
        oxygen = Medium(
            composition={(7, 1): 0.2},
            lines=tuple(l for l in full_catalog if l.species == (7, 1)))
        union = Medium(
            composition={(1, 1): 0.1, (7, 1): 0.2},
            lines=tuple(l for l in full_catalog
                        if l.species in {(1, 1), (7, 1)}))
        for f in (1.0e12, 1.21e12, 2.5e12):
            total = medium_kappa(union, f, env).total_kappa
            parts = (medium_kappa(water, f, env).total_kappa
                     + medium_kappa(oxygen, f, env).total_kappa)
            assert total == pytest.approx(parts, rel=1e-12)


class TestMaa:
    def test_zero_path(self, water_medium, env):
        out = maa(water_medium, 1.21e12, env, 0.0)
        assert out.loss == 1.0 and out.transmittance == 1.0
        assert not out.opaque

    def test_transparent_medium(self, env):
        out = maa(Medium(composition={}), 1.0e12, env, 0.02)
        assert out.loss == 1.0

    def test_unit_optical_depth(self):
        out = attenuation_from_optical_depth(100.0 * 0.01)
        assert out.loss == pytest.approx(math.e, rel=1e-15)
        assert out.transmittance == pytest.approx(1.0 / math.e, rel=1e-15)

    def test_matches_beer_lambert(self, water_medium, env):
        kappa = medium_kappa(water_medium, 1.21e12, env).total_kappa
        out = maa(water_medium, 1.21e12, env, 1.0e-4)
        assert out.loss == pytest.approx(math.exp(kappa * 1.0e-4), rel=1e-15)

    def test_opaque_saturation(self):
        out = attenuation_from_optical_depth(800.0)
        assert out.opaque
        assert out.loss == pytest.approx(math.exp(700.0))
        assert out.optical_depth == 800.0

    def test_negative_path_rejected(self, water_medium, env):
        with pytest.raises(DomainError):
            maa(water_medium, 1.0e12, env, -1.0)

    def test_is_the_path_loss_grid_cell_bitwise(self, default_scenario):
        """maa's loss has the bits of path_loss_grid's L_a, whose
        saturation it shares, and its transmittance those of exp(-kappa d)
        over the grid."""
        geom, env = default_scenario.geom, default_scenario.env
        medium = default_scenario.medium
        freqs = np.linspace(1.0e12, 3.0e12, 401)
        kappa = kappa_over_grid(medium, freqs, env)
        for d in (1.0e-4, 2.0e-2, 10.0):  # 10 m is opaque at some f
            _, l_a, *_ = path_loss_grid(geom, 1.0, freqs, kappa, d)
            for i, f in enumerate(freqs.tolist()):
                out = maa(medium, f, env, d)
                assert out.loss == l_a[i], (f, d)
                assert out.transmittance == np.exp(-kappa * d)[i], (f, d)
                assert out.opaque == (kappa[i] * d > DEFAULT_OVERFLOW_CAP)

    def test_loss_nondecreasing_in_distance(self, water_medium, env):
        losses = [maa(water_medium, 1.3e12, env, d).loss
                  for d in np.linspace(0.0, 0.02, 20)]
        assert all(b >= a for a, b in zip(losses, losses[1:]))


class TestEnvironmentLaws:
    """Monotonicity of the attenuation in temperature and pressure."""

    FREQS = (1.0e12, 1.2e12, 1.5e12)

    def test_strictly_decreasing_in_temperature(self, water_medium):
        d = 1.0e-4
        for f in self.FREQS:
            losses = [maa(water_medium, f, Environment(t_s=t, p=1.0), d).loss
                      for t in np.linspace(250.0, 400.0, 16)]
            assert all(b < a for a, b in zip(losses, losses[1:])), f

    def test_strictly_increasing_in_pressure(self, water_medium):
        d = 1.0e-4
        for f in self.FREQS:
            losses = [maa(water_medium, f,
                          Environment(t_s=296.0, p=kpa / ATM_IN_KPA), d).loss
                      for kpa in np.linspace(20.0, 200.0, 16)]
            assert all(b > a for a, b in zip(losses, losses[1:])), f

    def test_log_loss_superlinear_in_pressure(self, water_medium):
        # kappa carries a p^2 prefactor, so log L_a / p must grow
        d = 1.0e-4
        kpas = np.linspace(20.0, 200.0, 16)
        for f in self.FREQS:
            scaled = [math.log(maa(water_medium, f,
                                   Environment(t_s=296.0,
                                               p=kpa / ATM_IN_KPA), d).loss)
                      / kpa for kpa in kpas]
            assert all(b > a for a, b in zip(scaled, scaled[1:])), f


def test_kappa_peaks_at_catalog_lines(water_medium, env):
    freqs = np.linspace(1.0e12, 3.0e12, 4001)
    kappa = kappa_over_grid(water_medium, freqs, env)
    for line in water_medium.lines:
        f_c = shifted_resonance(line, env)
        if not 1.01e12 < f_c < 2.99e12:
            continue
        alpha = lorentz_half_width(line, water_medium.q_for(line), env)
        window = (freqs > f_c - 2 * alpha) & (freqs < f_c + 2 * alpha)
        idx = np.nonzero(window)[0]
        interior = [i for i in idx
                    if kappa[i] > kappa[i - 1] and kappa[i] > kappa[i + 1]]
        assert interior, f"no local maximum near {f_c:.4e} Hz"


def test_kappa_nonnegative_everywhere(default_medium, env):
    freqs = np.linspace(0.2e12, 4.0e12, 2000)
    assert np.all(kappa_over_grid(default_medium, freqs, env) >= 0.0)
