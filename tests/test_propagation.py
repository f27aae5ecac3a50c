import math
import re

import numpy as np
import pytest

from thzlink.absorption import Environment
from thzlink.constants import LIGHT_SPEED
from thzlink.errors import DomainError, TwoRayNullError, ValidationError
from thzlink.propagation import (LinkGeometry, db, dielectric_path_loss,
                                 link_budget_db, phase_difference,
                                 phase_velocity, total_path_loss,
                                 two_ray_argument, two_ray_grid)
from thzlink.spectro import Medium

# frequency putting the default-geometry sine argument exactly on pi
NULL_FREQUENCY = LIGHT_SPEED * 1.0e-4 / (2.0 * 2.0e-5 * 2.0e-5)


class TestPhaseVelocity:
    def test_vacuum(self):
        assert phase_velocity(1.0) == LIGHT_SPEED

    def test_eps_four(self):
        assert phase_velocity(4.0) == pytest.approx(LIGHT_SPEED / 2.0,
                                                    rel=1e-15)

    def test_eps_two_and_a_quarter(self):
        # c / 1.5 computed by hand
        assert phase_velocity(2.25) == pytest.approx(1.9986e8, rel=1e-12)

    def test_rejects_sub_unity(self):
        with pytest.raises(DomainError):
            phase_velocity(0.5)


class TestPhaseDifference:
    def test_reference_value(self, geom):
        # high-precision evaluation of 4*pi*h_t*h_r*f/(v_p*d)
        assert phase_difference(geom, 1.0e12, 1.0) == pytest.approx(
            0.16766897647498813, rel=1e-12)

    def test_linear_in_frequency(self, geom):
        assert phase_difference(geom, 2.4e12, 1.0) == pytest.approx(
            2.0 * phase_difference(geom, 1.2e12, 1.0), rel=1e-15)

    def test_quadrupled_permittivity_doubles_phase(self, geom):
        assert phase_difference(geom, 1.0e12, 4.0) == pytest.approx(
            2.0 * phase_difference(geom, 1.0e12, 1.0), rel=1e-15)


class TestDielectricPathLoss:
    def test_reference_value(self, geom):
        # 50-digit evaluation of the csc^2 expression froze these
        l_d = dielectric_path_loss(geom, 1.0e12, 1.0)
        assert l_d == pytest.approx(626.46627325609946, rel=1e-12)
        assert db(l_d) == pytest.approx(27.96897695069926, rel=1e-12)

    def test_small_argument_limit(self):
        # csc^2(x) ~ 1/x^2 collapses the loss to d^4/(h_t^2 h_r^2 G_T G_R)
        geom = LinkGeometry(d=1.0e-4, h_t=1.0e-6, h_r=1.0e-6)
        limit = geom.d ** 4 / (geom.h_t ** 2 * geom.h_r ** 2)
        for f in (0.5e12, 1.0e12, 2.0e12):
            assert dielectric_path_loss(geom, f, 1.0) == pytest.approx(
                limit, rel=1e-6)

    def test_grows_with_permittivity(self, geom):
        losses = [dielectric_path_loss(geom, 1.0e12, eps)
                  for eps in (1.0, 4.0, 16.0, 64.0)]
        assert all(b > a for a, b in zip(losses, losses[1:]))

    def test_transmit_receive_symmetry(self):
        a = LinkGeometry(d=1e-4, h_t=1e-5, h_r=3e-5, g_t=2.0, g_r=5.0)
        b = LinkGeometry(d=1e-4, h_t=3e-5, h_r=1e-5, g_t=5.0, g_r=2.0)
        assert dielectric_path_loss(a, 1.3e12, 2.0) == dielectric_path_loss(
            b, 1.3e12, 2.0)

    def test_two_ray_null_raises_typed_error(self, geom):
        with pytest.raises(TwoRayNullError) as excinfo:
            dielectric_path_loss(geom, NULL_FREQUENCY, 1.0)
        assert excinfo.value.argument == pytest.approx(math.pi, rel=1e-12)
        assert excinfo.value.frequency == NULL_FREQUENCY

    def test_distance_override_validated(self, geom):
        with pytest.raises(DomainError):
            dielectric_path_loss(geom, 1.0e12, 1.0, d=1.0)  # > d_c

    @pytest.mark.parametrize("f", [math.inf, math.nan])
    def test_non_finite_frequency_rejected(self, geom, f):
        with pytest.raises(DomainError, match="frequency must be"):
            dielectric_path_loss(geom, f, 1.0)
        with pytest.raises(DomainError, match="frequency must be finite"):
            two_ray_argument(geom, f, 1.0)

    @pytest.mark.parametrize("f, d", [(1.0e300, 1.0e-4), (1.0e12, 1.0e-300),
                                      (1.0e-300, 1.0e-4)],
                             ids=["spreading-overflows", "argument-overflows",
                                  "spreading-underflows"])
    def test_terms_outside_float64_rejected(self, geom, f, d):
        """The scalar path and two_ray_grid reject the same point."""
        message = f"frequency {f!r} Hz at distance {d!r} m"
        with pytest.raises(DomainError, match=re.escape(message)):
            dielectric_path_loss(geom, f, 1.0, d=d)
        with pytest.raises(DomainError, match=re.escape(message)):
            two_ray_grid(geom, np.array([1.0e12, f]), 1.0,
                         np.array([[1.0e-4], [d]]))


class TestLinkGeometry:
    def test_collects_all_violations(self):
        with pytest.raises(ValidationError) as excinfo:
            LinkGeometry(d=0.5, h_t=2e-3, h_r=2e-5, g_t=0.0)
        assert len(excinfo.value.violations) == 3

    def test_antenna_higher_than_package_rejected(self):
        with pytest.raises(ValidationError):
            LinkGeometry(d=1e-4, h_t=2e-3, h_r=2e-5, h=1e-3)


class TestTotalPathLoss:
    def test_baseline_equals_dielectric(self, geom, env):
        report = total_path_loss(geom, Medium(composition={}), env, 1.0e12)
        assert report.l == report.l_d
        assert report.l_a == 1.0
        assert report.l_a_db == 0.0

    def test_absorbing_medium_adds_loss(self, geom, env, water_medium):
        report = total_path_loss(geom, water_medium, env, 1.21e12)
        assert report.l_a > 1.0
        assert report.l >= report.l_d

    def test_product_invariant(self, geom, env, water_medium):
        report = total_path_loss(geom, water_medium, env, 1.45e12)
        assert report.l == pytest.approx(report.l_d * report.l_a, rel=1e-12)
        assert report.l_db == pytest.approx(report.l_d_db + report.l_a_db,
                                            rel=1e-12)

    def test_nondecreasing_in_distance(self, geom, env, water_medium):
        distances = np.geomspace(1e-5, 2e-2, 25)
        losses = [total_path_loss(geom, water_medium, env, 1.0e12, d=d).l
                  for d in distances]
        assert all(b >= a for a, b in zip(losses, losses[1:]))

    def test_spikes_near_water_lines(self, geom, env, water_medium):
        freqs = np.linspace(1.0e12, 3.0e12, 2000)
        loss_db = [total_path_loss(geom, water_medium, env, float(f)).l_db
                   for f in freqs]
        maxima = [freqs[i] for i in range(1, len(freqs) - 1)
                  if loss_db[i] > loss_db[i - 1]
                  and loss_db[i] > loss_db[i + 1]]
        for target in (1.21e12, 1.28e12, 1.45e12):
            assert any(abs(f - target) <= 0.03e12 for f in maxima), target


class TestLinkBudget:
    def test_near_lossless_identity(self, env):
        # d = h_t = h_r at low f puts L_d within O(arg^2) of 1
        geom = LinkGeometry(d=2e-5, h_t=2e-5, h_r=2e-5)
        budget = link_budget_db(geom, Medium(composition={}), env, 1.0e9, 1.0)
        assert budget.p_t_dbw == 0.0
        assert abs(budget.p_r_dbw) < 1e-4

    def test_decade_loss(self, geom, env):
        medium = Medium(composition={})
        budget = link_budget_db(geom, medium, env, 1.0e12, 1.0)
        report = total_path_loss(geom, medium, env, 1.0e12)
        assert budget.p_r_dbw == pytest.approx(-report.l_db, abs=1e-9)

    def test_terms_sum_to_received_power(self, geom, env, water_medium):
        budget = link_budget_db(geom, water_medium, env, 1.3e12, 2.5e-6)
        total = (budget.p_t_dbw + budget.g_t_db + budget.g_r_db
                 + budget.permittivity_db + budget.spreading_db
                 + budget.absorption_db)
        assert budget.p_r_dbw == pytest.approx(total, abs=1e-12)

    def test_db_equals_linear_domain(self, env, water_medium, rng):
        # Eq-by-term dB ledger must match 10*log10(P_T / L)
        for _ in range(50):
            geom = LinkGeometry(
                d=rng.uniform(5e-5, 5e-3), h_t=rng.uniform(5e-6, 2e-5),
                h_r=rng.uniform(5e-6, 2e-5), g_t=rng.uniform(0.5, 4.0),
                g_r=rng.uniform(0.5, 4.0))
            medium = Medium(composition=water_medium.composition,
                            epsilon_r=rng.uniform(1.0, 4.0),
                            lines=water_medium.lines)
            f = rng.uniform(0.5e12, 3.0e12)
            p_t = rng.uniform(1e-9, 1e-3)
            budget = link_budget_db(geom, medium, env, f, p_t)
            report = total_path_loss(geom, medium, env, f)
            assert budget.p_r_dbw == pytest.approx(
                db(p_t) - report.l_db, abs=1e-6)

    def test_printed_constant_close_to_exact(self):
        # the conventional 4.343 dB/neper rounding stays within 1e-4
        assert abs(4.343 - 10.0 / math.log(10.0)) < 1e-4

    @pytest.mark.parametrize("f", [-1.0e12, 0.0, math.nan])
    def test_rejects_non_positive_frequency(self, geom, env, f):
        # the transparent medium leaves the check to the two-ray term
        with pytest.raises(DomainError, match="frequency must be > 0"):
            link_budget_db(geom, Medium(composition={}), env, f, 1.0e-6)

    def test_rejects_non_positive_power(self, geom, env, water_medium):
        with pytest.raises(DomainError):
            link_budget_db(geom, water_medium, env, 1.0e12, 0.0)


def test_two_ray_argument_distance_override(geom):
    base = two_ray_argument(geom, 1.0e12, 1.0)
    assert two_ray_argument(geom, 1.0e12, 1.0, d=2.0e-4) == pytest.approx(
        base / 2.0, rel=1e-15)


@pytest.mark.parametrize("d", [0.0, -1.0e-4, 1.0],
                         ids=["zero", "negative", "beyond-d_c"])
def test_two_ray_argument_validates_distance(geom, d):
    """As dielectric_path_loss: a d outside (0, d_c] is a DomainError."""
    with pytest.raises(DomainError, match=r"d must satisfy 0 < d <= d_c"):
        two_ray_argument(geom, 1.0e12, 1.0, d=d)
    with pytest.raises(DomainError, match=r"d must satisfy 0 < d <= d_c"):
        dielectric_path_loss(geom, 1.0e12, 1.0, d=d)
