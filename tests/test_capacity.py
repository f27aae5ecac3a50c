import math

import numpy as np
import pytest

from thzlink.absorption import (Environment, kappa_over_grid, maa,
                                medium_kappa)
from thzlink.capacity import (BandPlan, allocation_capacity,
                              allocation_capacity_grid,
                              approx_capacity_small_antenna, channel_capacity,
                              flat_allocation_capacity,
                              molecular_noise_temperature, noise_model,
                              noise_power, psi_coefficients, psi_grid,
                              water_filling, water_filling_grid)
from thzlink.constants import BOLTZMANN, T_REF
from thzlink.errors import (ApproximationRegimeError, DomainError,
                            TwoRayNullError, ValidationError)
from thzlink.propagation import (LinkGeometry, dielectric_path_loss,
                                 total_path_loss)
from thzlink.spectro import Medium


class TestBandPlan:
    def test_midpoint_centers(self):
        band = BandPlan.from_edges(1.0e12, 1.1e12, 4)
        np.testing.assert_allclose(
            band.f_k, [1.0125e12, 1.0375e12, 1.0625e12, 1.0875e12],
            rtol=1e-15)
        assert band.delta_f * band.k == pytest.approx(band.b, rel=1e-12)

    def test_single_subband(self):
        band = BandPlan.centered(1.0e12, 1.0e11, 1)
        assert band.f_k[0] == pytest.approx(1.0e12, rel=1e-15)

    def test_rejects_bad_edges(self):
        with pytest.raises(ValidationError):
            BandPlan.from_edges(2.0e12, 1.0e12, 4)
        with pytest.raises(ValidationError):
            BandPlan.from_edges(-1.0e12, 1.0e12, 4)

    @pytest.mark.parametrize("b, k, f_k, message", [
        (1.0, 0, [], "subband count must be an integer >= 1, got 0"),
        (0.0, 1, [1.0], "bandwidth must be > 0, got 0.0"),
        (1.0, 2, [1.0, 2.0, 3.0],
         "expected 2 center frequencies, got shape (3,)"),
        (1.0, 2, [0.0, 1.0], "every center frequency must be > 0")],
        ids=["k", "b", "shape", "positive"])
    def test_names_each_invalid_field(self, b, k, f_k, message):
        with pytest.raises(ValidationError) as excinfo:
            BandPlan(b=b, k=k, f_k=np.array(f_k))
        assert excinfo.value.violations == [message]

    def test_rejects_non_increasing_centers(self):
        with pytest.raises(ValidationError):
            BandPlan(b=1e11, k=2, f_k=np.array([2.0e12, 1.0e12]))

    @pytest.mark.parametrize("center", [1.0e10, 0.0, -1.0e12, math.inf,
                                        -math.inf, math.nan])
    def test_centered_outside_the_domain(self, center):
        # a frequency is a model input: below 0 Hz or infinite is a
        # DomainError, while from_edges keeps ValidationError for edges
        with pytest.raises(DomainError, match="puts the band edges at"):
            BandPlan.centered(center, 1.0e11, 4)

    def test_centered_at_half_the_bandwidth(self):
        band = BandPlan.centered(5.0e10, 1.0e11, 4)
        assert band.f_k[0] == pytest.approx(1.25e10, rel=1e-15)


class TestNoiseTemperature:
    def test_transparent_medium(self, env):
        assert molecular_noise_temperature(Medium(composition={}), env,
                                           1.0e12, 0.01) == 0.0

    def test_saturates_at_reference_temperature(self, water_medium, env):
        t_m = molecular_noise_temperature(water_medium, env, 1.20939e12, 10.0)
        assert t_m == pytest.approx(T_REF, rel=1e-12)
        assert t_m <= T_REF

    def test_half_transmittance(self, water_medium, env):
        kappa = medium_kappa(water_medium, 1.21e12, env).total_kappa
        d = math.log(2.0) / kappa
        assert molecular_noise_temperature(water_medium, env, 1.21e12,
                                           d) == pytest.approx(148.0,
                                                               rel=1e-9)

    def test_negative_path_rejected(self, default_medium, env, band):
        """The noise formula checks d as maa does."""
        for d, message in ((-1.0e-3, "path length must be >= 0, got -0.001"),
                           (math.inf, "path length must be finite, got inf")):
            for noise in (
                    lambda: molecular_noise_temperature(default_medium, env,
                                                        1.1e12, d),
                    lambda: noise_model(default_medium, env, band, d),
                    lambda: noise_power(default_medium, env, band, d),
                    lambda: maa(default_medium, 1.1e12, env, d)):
                with pytest.raises(DomainError) as excinfo:
                    noise()
                assert str(excinfo.value) == message

    def test_point_is_the_noise_model_cell_bitwise(self, default_medium,
                                                     env, band):
        for d in (0.0, 1.0e-4, 2.0e-2, 10.0):
            t_m = noise_model(default_medium, env, band, d).t_m
            assert [molecular_noise_temperature(default_medium, env, f, d)
                    for f in band.f_k.tolist()] == t_m.tolist()

    def test_total_noise_bounds(self, water_medium, env, band):
        model = noise_model(water_medium, env, band, 5.0e-4)
        assert np.all(model.t_tot >= env.t_s)
        assert np.all(model.t_tot <= env.t_s + T_REF)
        assert model.t_prime_neglected


class TestNoisePower:
    def test_constant_integrand(self, env, band):
        p_n = noise_power(Medium(composition={}), env, band, 1.0e-4)
        assert p_n == pytest.approx(BOLTZMANN * env.t_s * band.b, rel=1e-12)

    def test_richardson_refinement(self, water_medium, env):
        # midpoint rule: error vs a K=4096 reference shrinks ~4x per halving
        reference = noise_power(water_medium, env,
                                BandPlan.centered(1.0e12, 1.0e11, 4096),
                                1.0e-4)
        errors = [abs(noise_power(water_medium, env,
                                  BandPlan.centered(1.0e12, 1.0e11, k),
                                  1.0e-4) - reference)
                  for k in (256, 512, 1024)]
        assert errors[0] / errors[1] == pytest.approx(4.05, abs=1.0)
        assert errors[1] / errors[2] == pytest.approx(4.2, abs=1.5)


class TestPsiCoefficients:
    def test_baseline_reduces_to_system_noise(self, geom, env, band):
        medium = Medium(composition={})
        psi = psi_coefficients(geom, medium, env, band, geom.d)
        for k in range(band.k):
            l_d = dielectric_path_loss(geom, float(band.f_k[k]), 1.0)
            expected = BOLTZMANN * l_d * env.t_s * band.delta_f
            assert psi[k] == pytest.approx(expected, rel=1e-12)

    def test_matches_loss_times_noise_composition(self, geom, env,
                                                  water_medium, band):
        # independent route: k_B * L(f_k) * T_tot(f_k) * delta_f
        d = 2.0e-4
        psi = psi_coefficients(geom, water_medium, env, band, d)
        for k in (0, 13, 31, 63):
            f = float(band.f_k[k])
            loss = total_path_loss(geom, water_medium, env, f, d=d).l
            t_tot = env.t_s + molecular_noise_temperature(
                water_medium, env, f, d)
            assert psi[k] == pytest.approx(
                BOLTZMANN * loss * t_tot * band.delta_f, rel=1e-10)

    def test_linear_in_subband_width(self, geom, env, water_medium, band):
        doubled = BandPlan(b=2.0 * band.b, k=band.k, f_k=band.f_k)
        psi = psi_coefficients(geom, water_medium, env, band, geom.d)
        psi2 = psi_coefficients(geom, water_medium, env, doubled, geom.d)
        np.testing.assert_allclose(psi2, 2.0 * psi, rtol=1e-12)

    def test_positive_everywhere(self, geom, env, default_medium, band):
        assert np.all(psi_coefficients(geom, default_medium, env, band,
                                       geom.d) > 0.0)

    def test_positive_when_the_medium_barely_absorbs(self, geom,
                                                     default_medium, band):
        """At 1e-170 K and 1e-200 atm kappa d is ~1e-47: e^{kappa d}
        rounds to 1, yet the floor is T_ref kappa d, not a cancelled 0."""
        cold = Environment(t_s=1.0e-170, p=1.0e-200)
        psi = psi_coefficients(geom, default_medium, cold, band, geom.d)
        kappa = kappa_over_grid(default_medium, band.f_k, cold)
        assert np.all(kappa * geom.d < 1e-30)
        for k in (0, 31, 63):
            f = float(band.f_k[k])
            l_d = dielectric_path_loss(geom, f, 1.0)
            bracket = cold.t_s + (cold.t_s + T_REF) * kappa[k] * geom.d
            assert psi[k] == pytest.approx(
                BOLTZMANN * l_d * bracket * band.delta_f, rel=1e-12)
        assert np.all(psi > 0.0)

    def test_null_names_subband(self, env):
        geom = LinkGeometry(d=1.0e-4, h_t=2.0e-5, h_r=2.0e-5)
        from thzlink.propagation import LIGHT_SPEED
        f_null = LIGHT_SPEED * geom.d / (2.0 * geom.h_t * geom.h_r)
        band = BandPlan(b=2.0e9, k=2, f_k=np.array([f_null - 1e9, f_null]))
        with pytest.raises(TwoRayNullError) as excinfo:
            psi_coefficients(geom, Medium(composition={}), env, band, geom.d)
        assert excinfo.value.subband == 1
        assert excinfo.value.frequency == f_null
        assert excinfo.value.argument == pytest.approx(math.pi, rel=1e-12)

    def test_grid_masks_the_null_cell(self, env):
        geom = LinkGeometry(d=1.0e-4, h_t=2.0e-5, h_r=2.0e-5)
        from thzlink.propagation import LIGHT_SPEED
        f_null = LIGHT_SPEED * geom.d / (2.0 * geom.h_t * geom.h_r)
        f_k = np.array([[f_null - 1e9, f_null], [f_null + 1e9, f_null + 2e9]])
        _psi, null = psi_grid(geom, 1.0, f_k, np.zeros(2), geom.d, env.t_s,
                              1e9)
        assert null.tolist() == [[False, True], [False, False]]
        # rows that differ only in t_s share the subbands' nulls
        psi, null = psi_grid(geom, 1.0, f_k[0], np.zeros(2), geom.d,
                             np.array([[250.0], [300.0], [350.0]]), 1e9)
        assert psi.shape == null.shape == (3, 2)
        assert null.tolist() == [[False, True]] * 3

    def test_grid_rejects_non_finite_frequency(self, geom, env):
        with pytest.raises(DomainError, match="frequency must be finite"):
            psi_grid(geom, 1.0, np.array([1e12, np.inf]), np.zeros(2),
                     geom.d, env.t_s, 1e9)


def brute_force_best(psi, p_t, delta_f, candidates):
    """Oracle: best capacity over explicit candidate allocations."""
    ratios = candidates / psi[None, :]
    return float(np.max(delta_f * np.sum(np.log2(1.0 + ratios), axis=1)))


class TestWaterFilling:
    def test_symmetric_floors(self):
        out = water_filling(np.array([1.0, 1.0]), 2.0)
        np.testing.assert_allclose(out.p_k, [1.0, 1.0], rtol=1e-15)
        assert out.theta == pytest.approx(2.0, rel=1e-15)

    def test_two_floors_partial_funding(self):
        # hand solve: theta=2 funds only the cheap floor
        out = water_filling(np.array([1.0, 3.0]), 1.0)
        assert out.theta == pytest.approx(2.0, rel=1e-15)
        np.testing.assert_allclose(out.p_k, [1.0, 0.0], atol=1e-15)

    def test_two_floors_against_grid_oracle(self):
        psi = np.array([1.0, 3.0])
        p1 = np.linspace(0.0, 1.0, 1_000_000)
        candidates = np.stack([p1, 1.0 - p1], axis=1)
        best = brute_force_best(psi, 1.0, 1.0, candidates)
        solved = water_filling(psi, 1.0, delta_f=1.0).capacity_bits_per_s
        assert solved >= best - 1e-6 * abs(best)

    def test_three_floors(self):
        out = water_filling(np.array([1.0, 2.0, 6.0]), 3.0)
        assert out.theta == pytest.approx(3.0, rel=1e-15)
        np.testing.assert_allclose(out.p_k, [2.0, 1.0, 0.0], atol=1e-15)

    def test_three_floors_against_grid_oracle(self):
        psi = np.array([1.0, 2.0, 6.0])
        side = np.linspace(0.0, 3.0, 1000)
        p1, p2 = np.meshgrid(side, side)
        keep = (p1 + p2) <= 3.0
        candidates = np.stack(
            [p1[keep], p2[keep], 3.0 - p1[keep] - p2[keep]], axis=1)
        best = brute_force_best(psi, 3.0, 1.0, candidates)
        solved = water_filling(psi, 3.0, delta_f=1.0).capacity_bits_per_s
        assert solved >= best - 1e-6 * abs(best)

    def test_kkt_and_budget_on_random_instances(self, rng):
        for _ in range(200):
            k = int(rng.integers(2, 17))
            psi = rng.uniform(0.1, 10.0, size=k)
            p_t = float(rng.uniform(0.01, 20.0))
            out = water_filling(psi, p_t)
            assert np.sum(out.p_k) == pytest.approx(p_t, rel=1e-9)
            funded = out.p_k > 0
            np.testing.assert_allclose(out.p_k[funded] + psi[funded],
                                       out.theta, rtol=1e-9)
            assert np.all(psi[~funded] >= out.theta * (1.0 - 1e-12))

    def test_beats_random_feasible_allocations(self, rng):
        for _ in range(20):
            k = int(rng.integers(2, 9))
            psi = rng.uniform(0.05, 5.0, size=k)
            p_t = float(rng.uniform(0.1, 10.0))
            weights = rng.exponential(size=(1000, k))
            candidates = p_t * weights / weights.sum(axis=1, keepdims=True)
            best = brute_force_best(psi, p_t, 1.0, candidates)
            solved = water_filling(psi, p_t, delta_f=1.0).capacity_bits_per_s
            assert solved >= best - 1e-12 * abs(best)

    def test_zero_budget(self):
        out = water_filling(np.array([2.0, 5.0]), 0.0, delta_f=1e9)
        assert np.all(out.p_k == 0.0)
        assert out.theta == 2.0
        assert out.capacity_bits_per_s == 0.0

    def test_infinite_floor_never_funded(self):
        out = water_filling(np.array([1.0, np.inf]), 4.0, delta_f=1.0)
        np.testing.assert_allclose(out.p_k, [4.0, 0.0])
        assert np.isfinite(out.capacity_bits_per_s)

    def test_rejects_bad_inputs(self):
        with pytest.raises(DomainError):
            water_filling(np.array([1.0, -2.0]), 1.0)
        with pytest.raises(DomainError):
            water_filling(np.array([0.0]), 1.0)
        with pytest.raises(DomainError):
            water_filling(np.array([1.0]), -1.0)
        with pytest.raises(DomainError):
            water_filling(np.array([np.inf, np.inf]), 1.0)

    @pytest.mark.parametrize("p_t", [math.inf, math.nan])
    def test_rejects_non_finite_budget(self, p_t):
        with pytest.raises(DomainError, match="power budget"):
            water_filling(np.array([1.0, 2.0]), p_t)
        with pytest.raises(DomainError, match="power budget"):
            water_filling_grid(np.array([[1.0, 2.0]]), p_t)

    def test_grid_rows_are_independent(self, rng):
        psi = rng.uniform(0.1, 10.0, size=(50, 7))
        psi[3, 2] = np.inf
        p_k, theta = water_filling_grid(psi, 2.5)
        for row in range(len(psi)):
            out = water_filling(psi[row], 2.5)
            assert np.array_equal(p_k[row], out.p_k)
            assert theta[row] == out.theta

    def test_grid_rejects_a_row_of_infinite_floors(self):
        psi = np.array([[1.0, 2.0], [np.inf, np.inf]])
        with pytest.raises(DomainError, match="all floors infinite"):
            water_filling_grid(psi, 1.0)

    def test_grid_names_a_budget_that_rounds_away_beside_finite_floors(self):
        psi = np.array([[1.0, 2.0], [2.0e288, 1.35e288]])
        with pytest.raises(DomainError,
                           match=r"budget 1e-06 W is lost to rounding beside "
                                 r"the lowest floor, 1\.35e\+288 W"):
            water_filling_grid(psi, 1.0e-6)
        # floors whose sum overflows float64: the same error, no warning
        with pytest.raises(DomainError,
                           match=r"budget 1e-06 W is lost to rounding beside "
                                 r"the lowest floor, 1e\+308 W"):
            water_filling_grid(np.array([[1.0e308, 1.0e308]]), 1.0e-6)

    @pytest.mark.parametrize("psi", [np.ones((2, 2)), np.array([])],
                             ids=["2-D", "empty"])
    def test_one_row_view_rejects_other_shapes(self, psi):
        with pytest.raises(DomainError, match="non-empty 1-D array"):
            water_filling(psi, 1.0)

    def test_grid_rejects_floors_to_fund_whose_sum_overflows(self):
        """The level of both floors overflows, yet the second floor lies
        below the first floor's level: funding both as that level would
        spend twice the budget, and no float64 level funds them."""
        psi = np.array([[1.0, 2.0], [1.0e308, 1.0e308]])
        with pytest.raises(DomainError,
                           match=r"floors to fund, up to 1e\+308 W, sum past "
                                 r"float64"):
            water_filling_grid(psi, 1.0e300)

    def test_grid_funds_the_floors_below_a_sum_that_overflows(self):
        """Only the level of all three floors overflows; the cheapest floor
        alone is the active set, as in exact arithmetic."""
        p_k, theta = water_filling_grid(np.array([[1.0, 1.0e308, 1.0e308]]),
                                        1.0)
        assert p_k.tolist() == [[1.0, 0.0, 0.0]]
        assert theta.tolist() == [2.0]


class TestChannelCapacity:
    def test_zero_power(self, geom, env, water_medium, band):
        out = channel_capacity(geom, water_medium, env, band, geom.d, 0.0)
        assert out.capacity_bits_per_s == 0.0
        assert np.all(out.p_k == 0.0)

    def test_single_subband_shannon(self, geom, env, water_medium):
        band = BandPlan.centered(1.0e12, 1.0e10, 1)
        p_t = 1.0e-6
        out = channel_capacity(geom, water_medium, env, band, geom.d, p_t)
        psi = psi_coefficients(geom, water_medium, env, band, geom.d)
        expected = band.delta_f * math.log2(1.0 + p_t / psi[0])
        assert out.capacity_bits_per_s == pytest.approx(expected, rel=1e-12)

    def test_water_filling_beats_flat(self, geom, env, default_medium, rng):
        for _ in range(10):
            band = BandPlan.centered(rng.uniform(0.9e12, 1.4e12), 1.0e11, 32)
            d = float(rng.uniform(2e-5, 3e-4))
            p_t = float(rng.uniform(1e-8, 1e-5))
            wf = channel_capacity(geom, default_medium, env, band, d, p_t)
            flat = flat_allocation_capacity(geom, default_medium, env, band,
                                            d, p_t)
            assert wf.capacity_bits_per_s >= flat.capacity_bits_per_s

    def test_nonincreasing_in_distance(self, geom, env, default_medium,
                                       band):
        capacities = [channel_capacity(geom, default_medium, env, band, d,
                                       1.0e-6).capacity_bits_per_s
                      for d in np.linspace(1e-5, 5e-4, 12)]
        assert all(b <= a for a, b in zip(capacities, capacities[1:]))

    def test_nonincreasing_in_any_floor(self, rng):
        psi = rng.uniform(0.5, 2.0, size=6)
        base = water_filling(psi, 3.0, delta_f=1.0).capacity_bits_per_s
        for j in range(6):
            bumped = psi.copy()
            bumped[j] *= 1.5
            worse = water_filling(bumped, 3.0, delta_f=1.0).capacity_bits_per_s
            assert worse <= base

    def test_absorption_never_helps(self, geom, env, default_medium, rng):
        conventional = default_medium.without_absorption()
        for _ in range(10):
            band = BandPlan.centered(rng.uniform(0.9e12, 1.5e12), 1.0e11, 16)
            d = float(rng.uniform(2e-5, 3e-4))
            proposed = channel_capacity(geom, default_medium, env, band, d,
                                        1e-6).capacity_bits_per_s
            baseline = channel_capacity(geom, conventional, env, band, d,
                                        1e-6).capacity_bits_per_s
            assert proposed <= baseline


class TestFlatAllocation:
    def test_single_subband_equals_water_filling(self, geom, env,
                                                 water_medium):
        band = BandPlan.centered(1.0e12, 1.0e10, 1)
        wf = channel_capacity(geom, water_medium, env, band, geom.d, 1e-6)
        flat = flat_allocation_capacity(geom, water_medium, env, band,
                                        geom.d, 1e-6)
        assert flat.capacity_bits_per_s == pytest.approx(
            wf.capacity_bits_per_s, rel=1e-12)

    def test_symmetric_floors_equal_water_filling(self):
        psi = np.full(5, 2.0)
        wf = water_filling(psi, 1.0, delta_f=1.0).capacity_bits_per_s
        flat = allocation_capacity(np.full(5, 0.2), psi, 1.0)
        assert flat == pytest.approx(wf, rel=1e-12)

    def test_hand_computed_gap(self):
        # flat splits 1 W over floors [1, 3]; water-filling funds only the
        # first floor and reaches exactly delta_f bits/s
        psi = np.array([1.0, 3.0])
        flat = allocation_capacity(np.array([0.5, 0.5]), psi, 1.0)
        assert flat == pytest.approx(0.8073549220576041, rel=1e-12)
        wf = water_filling(psi, 1.0, delta_f=1.0).capacity_bits_per_s
        assert wf == pytest.approx(1.0, rel=1e-15)
        assert wf > flat


    def test_grid_capacity_where_the_power_ratio_overflows(self):
        """p_k / psi past float64 takes log2(p_k) - log2(psi) bits, which
        log2(1 + r) is for every r > 2^53, with no warning; the finite
        ratios beside it, and a row of them, keep their bits."""
        p_k = np.array([[1.5625e306, 1.0], [1.0, 0.0]])
        psi = np.array([[4.0e-9, 3.0], [1.0, 2.0]])
        bps = allocation_capacity_grid(p_k, psi, 2.0)  # warnings raise
        huge = np.log2(1.5625e306) - np.log2(4.0e-9)
        assert bps.tolist() == [2.0 * (huge + np.log2(1.0 + 1.0 / 3.0)),
                                2.0]
        assert allocation_capacity(p_k[0], psi[0], 2.0) == bps[0]


class TestSmallAntennaApproximation:
    def small_geometry(self, scale=1.0):
        return LinkGeometry(d=4.0e-6 * scale, h_t=1.34e-6 * scale,
                            h_r=1.34e-6 * scale)

    def test_transparent_medium_degenerates_to_flat(self, env, band):
        geom = self.small_geometry()
        medium = Medium(composition={})
        out = approx_capacity_small_antenna(geom, medium, env, band, geom.d,
                                            1e-9)
        # frequency-flat floors: the water level funds every subband equally
        np.testing.assert_allclose(out.p_k, out.p_k[0], rtol=1e-12)
        np.testing.assert_allclose(out.psi_k, out.psi_k[0], rtol=1e-12)

    def test_close_to_exact_in_regime(self, env, default_medium, band):
        geom = self.small_geometry()
        p_t = 1e-9
        approx = approx_capacity_small_antenna(
            geom, default_medium, env, band, geom.d, p_t).capacity_bits_per_s
        exact = channel_capacity(
            geom, default_medium, env, band, geom.d, p_t).capacity_bits_per_s
        assert abs(approx - exact) / exact < 1e-2

    def test_error_shrinks_with_the_regime(self, env, default_medium, band):
        errors = []
        for j in range(5):
            geom = self.small_geometry(scale=0.5 ** j)
            approx = approx_capacity_small_antenna(
                geom, default_medium, env, band, geom.d,
                1e-9).capacity_bits_per_s
            exact = channel_capacity(
                geom, default_medium, env, band, geom.d,
                1e-9).capacity_bits_per_s
            errors.append(abs(approx - exact) / exact)
        assert all(b < a for a, b in zip(errors, errors[1:])), errors

    def test_floors_converge_to_exact_floors(self, env, default_medium,
                                             band):
        previous = None
        for j in range(4):
            geom = self.small_geometry(scale=0.5 ** j)
            psi = psi_coefficients(geom, default_medium, env, band, geom.d)
            out = approx_capacity_small_antenna(geom, default_medium, env,
                                                band, geom.d, 1e-9)
            rel = float(np.max(np.abs(out.psi_k - psi) / psi))
            if previous is not None:
                assert rel < previous
            previous = rel

    def test_regime_enforced(self, env, default_medium, band):
        tall = LinkGeometry(d=1.0e-4, h_t=2.0e-4, h_r=2.0e-4)
        with pytest.raises(ApproximationRegimeError):
            approx_capacity_small_antenna(tall, default_medium, env, band,
                                          tall.d, 1e-9)

    def test_unit_gains_enforced(self, env, default_medium, band):
        geom = LinkGeometry(d=4.0e-6, h_t=1.34e-6, h_r=1.34e-6, g_t=2.0)
        with pytest.raises(ApproximationRegimeError):
            approx_capacity_small_antenna(geom, default_medium, env, band,
                                          geom.d, 1e-9)
