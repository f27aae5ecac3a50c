import math
import re
import struct
import sys
import threading
from dataclasses import astuple, replace

import numpy as np
import pytest

from thzlink.absorption import Environment, kappa_over_grid
from thzlink.config import load_scenario
from thzlink.constants import LIGHT_SPEED
from thzlink.errors import DomainError, TwoRayNullError, ValidationError
from thzlink.propagation import (GAP_REASONS, LinkBudget, LinkGeometry, db,
                                 dielectric_path_loss, link_budget_db,
                                 path_loss_grid, phase_difference,
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


    def test_grid_rejects_permittivity_below_one(self, geom):
        with pytest.raises(DomainError, match="epsilon_r must be >= 1, got "
                                              "0.5"):
            two_ray_grid(geom, np.array([1.0e12]), 0.5, geom.d)


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

    @pytest.mark.parametrize("p_t", [0.0, math.inf])
    def test_rejects_non_positive_power(self, geom, env, water_medium, p_t):
        with pytest.raises(DomainError):
            link_budget_db(geom, water_medium, env, 1.0e12, p_t)


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


def test_path_loss_grid_reasons_are_one_uint8_array_of_codes(geom):
    """Each cell's reason is a uint8 code whose GAP_REASONS entry is the str
    "two-ray-null", "opaque" or "" (0-d for scalar f, kappa and d), and a
    null that is also opaque is a null."""
    f = np.array([NULL_FREQUENCY, 1.0e12])
    kappa = np.array([[0.0], [1.0e9]])  # kappa * d = 1e5: opaque
    *_, codes = path_loss_grid(geom, 1.0, f, kappa, geom.d)
    assert codes.dtype == np.uint8 and codes.shape == (2, 2)
    assert [[GAP_REASONS[code] for code in row] for row in codes.tolist()] \
        == [["two-ray-null", ""], ["two-ray-null", "opaque"]]
    assert GAP_REASONS == ("", "two-ray-null", "opaque")
    *_, code = path_loss_grid(geom, 1.0, 1.0e12, 1.0e9, geom.d)
    assert code.dtype == np.uint8 and code.shape == ()
    assert GAP_REASONS[code.item()] == "opaque"


def _bits(record) -> bytes:
    """A report's or budget's floats as their bytes: 0.0 is not -0.0."""
    return struct.pack(f"{len(astuple(record))}d", *astuple(record))


def _fresh(medium: Medium) -> Medium:
    """An equal medium with nothing kept on it."""
    return Medium(composition=medium.composition,
                  epsilon_r=medium.epsilon_r, lines=medium.lines)


def _two_evaluation_ledger(geom, medium, env, f, p_t) -> LinkBudget:
    """The link budget composed from its own dielectric loss and kappa
    evaluations, term for term as the ledger computes it."""
    l_d = dielectric_path_loss(geom, f, medium.epsilon_r)
    kappa = float(kappa_over_grid(medium, (f,), env)[0])
    p_t_dbw, g_t_db, g_r_db = db(p_t), db(geom.g_t), db(geom.g_r)
    permittivity_db = -db(medium.epsilon_r)
    spreading_db = -db(l_d) - g_t_db - g_r_db - permittivity_db
    absorption_db = -(10.0 / math.log(10.0)) * kappa * geom.d
    return LinkBudget(
        p_t_dbw=p_t_dbw, g_t_db=g_t_db, g_r_db=g_r_db,
        permittivity_db=permittivity_db, spreading_db=spreading_db,
        absorption_db=absorption_db,
        p_r_dbw=(p_t_dbw + g_t_db + g_r_db + permittivity_db
                 + spreading_db + absorption_db))


class TestOneEvaluationPerPoint:
    """link_budget_db is the ledger of total_path_loss's report, and the
    medium keeps the report of the last point evaluated in it."""

    def test_ledger_has_the_two_evaluation_bits(self):
        scenario = load_scenario()
        geom, env, p_t = scenario.geom, scenario.env, scenario.p_t
        medium = _fresh(scenario.medium)
        freqs = np.random.default_rng(32).uniform(1.0e12, 3.0e12, 2000)
        for i, f in enumerate(freqs.tolist()):
            if i % 2:  # after a path-loss query, as `thzlink pathloss` does
                total_path_loss(geom, medium, env, f)
            budget = link_budget_db(geom, medium, env, f, p_t)
            assert _bits(budget) == _bits(
                _two_evaluation_ledger(geom, medium, env, f, p_t)), f

    def test_opaque_point_keeps_the_unsaturated_absorption_term(self):
        # thzlink pathloss --frequency 1.5e12 --distance 0.02 --pressure 100
        scenario = load_scenario()
        geom = replace(scenario.geom, d=0.02)
        env = replace(scenario.env, p=100.0)
        medium, f = _fresh(scenario.medium), 1.5e12
        report = total_path_loss(geom, medium, env, f)
        budget = link_budget_db(geom, medium, env, f, scenario.p_t)
        assert report.opaque
        kappa = float(kappa_over_grid(medium, (f,), env)[0])
        assert report.kappa == kappa
        assert budget.absorption_db == -(10.0 / math.log(10.0)) * kappa * 0.02
        assert budget.absorption_db < -report.l_a_db  # not the capped L_a

    @pytest.mark.parametrize("change", ["h_t", "t_s", "d", "f", "medium"])
    def test_a_call_differing_in_one_input_is_evaluated_afresh(
            self, geom, env, water_medium, change):
        medium, f = _fresh(water_medium), 1.21e12
        first = total_path_loss(geom, medium, env, f)
        args = {"geom": geom, "medium": medium, "env": env, "f": f,
                "d": None}
        if change == "h_t":
            args["geom"] = replace(geom, h_t=geom.h_t / 2.0)
        elif change == "t_s":
            args["env"] = replace(env, t_s=env.t_s + 10.0)
        elif change == "d":
            args["d"] = geom.d / 2.0
        elif change == "f":
            args["f"] = float(np.nextafter(f, np.inf))
        else:
            args["medium"] = _fresh(medium)
        second = total_path_loss(**args)
        fresh = total_path_loss(**{**args, "medium": _fresh(medium)})
        assert second is not first
        assert _bits(second) == _bits(fresh)
        if change != "medium":
            assert _bits(fresh) != _bits(first)

    def test_a_repeat_returns_the_kept_report(self, geom, env,
                                              water_medium):
        medium, f = _fresh(water_medium), 1.21e12
        report = total_path_loss(geom, medium, env, f)
        assert total_path_loss(geom, medium, env, f, d=geom.d) is report
        link_budget_db(geom, medium, env, f, 1.0e-6)
        assert total_path_loss(geom, medium, env, f) is report

    def test_a_raising_call_keeps_nothing(self, geom, env, water_medium):
        medium, f = _fresh(water_medium), 1.21e12
        for _ in range(2):
            with pytest.raises(TwoRayNullError):
                total_path_loss(geom, medium, env, NULL_FREQUENCY)
        report = total_path_loss(geom, medium, env, f)
        with pytest.raises(TwoRayNullError):
            link_budget_db(geom, medium, env, NULL_FREQUENCY, 1.0e-6)
        assert total_path_loss(geom, medium, env, f) is report

    def test_threads_on_shared_objects_match_a_serial_run(
            self, geom, env, water_medium):
        freqs = np.random.default_rng(33).uniform(1.0e12, 3.0e12, (4, 200))

        def run(medium, row, out):
            for f in row.tolist():
                report = total_path_loss(geom, medium, env, f)
                budget = link_budget_db(geom, medium, env, f, 1.0e-6)
                out.append(_bits(report) + _bits(budget))

        serial = [[] for _ in freqs]
        medium = _fresh(water_medium)
        for row, out in zip(freqs, serial):
            run(medium, row, out)
        threaded = [[] for _ in freqs]
        medium = _fresh(water_medium)
        workers = [threading.Thread(target=run, args=(medium, row, out))
                   for row, out in zip(freqs, threaded)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1.0e-6)  # interleave within each query
        try:
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(worker.is_alive() for worker in workers)
        assert threaded == serial
