import numpy as np
import pytest

from thzlink.absorption import Environment
from thzlink.capacity import BandPlan
from thzlink.constants import LIGHT_SPEED
from thzlink.errors import DomainError
from thzlink.propagation import LinkGeometry
from thzlink.spectro import Medium, SpectralLine
from thzlink.sweep import (Scenario, sweep_capacity_vs_distance,
                           sweep_capacity_vs_frequency,
                           sweep_pathloss_vs_frequency, sweep_vs_pressure,
                           sweep_vs_temperature)


def column(result, name):
    return [(x, row[name]) for x, row in result.points if name in row]


def test_pathloss_sweep_orders_models(default_scenario):
    result = sweep_pathloss_vs_frequency(default_scenario, (1.0e12, 3.0e12),
                                         301, d_values=[1e-4, 1e-3])
    assert result.axis == "frequency" and result.unit == "Hz"
    assert len(result.points) == 301
    assert result.gaps == []
    for d_label in ("d0.0001m", "d0.001m"):
        for (_, prop), (_, conv) in zip(
                column(result, f"L_db_proposed_{d_label}"),
                column(result, f"L_db_conventional_{d_label}")):
            assert prop >= conv


def test_pathloss_sweep_conventional_smooth(default_scenario):
    result = sweep_pathloss_vs_frequency(default_scenario, (1.0e12, 3.0e12),
                                         301)
    conv = [v for _, v in column(result, "L_db_conventional_d0.0001m")]
    # csc^2 oscillation stays monotone over this argument range
    assert all(b > a for a, b in zip(conv, conv[1:]))


def test_pathloss_sweep_finds_spikes(default_scenario):
    result = sweep_pathloss_vs_frequency(default_scenario, (1.0e12, 3.0e12),
                                         2000)
    prop = column(result, "L_db_proposed_d0.0001m")
    maxima = [prop[i][0] for i in range(1, len(prop) - 1)
              if prop[i][1] > prop[i - 1][1] and prop[i][1] > prop[i + 1][1]]
    for target in (1.21e12, 1.28e12, 1.45e12):
        assert any(abs(f - target) <= 0.03e12 for f in maxima)


def test_capacity_sweep_orders_models(default_scenario):
    result = sweep_capacity_vs_frequency(default_scenario, (1.0e12, 2.0e12),
                                         41)
    prop = column(result, "C_bps_proposed")
    conv = column(result, "C_bps_conventional")
    assert all(p[1] <= c[1] for p, c in zip(prop, conv))


def test_zero_width_range_rejected(default_scenario):
    with pytest.raises(DomainError):
        sweep_capacity_vs_frequency(default_scenario, (1.0e12, 1.0e12), 5)


def test_single_point_sweep(default_scenario):
    result = sweep_capacity_vs_frequency(default_scenario, (1.0e12, 2.0e12),
                                         1)
    assert len(result.points) == 1
    assert result.points[0][0] == 1.0e12


def test_temperature_sweep_laws(default_scenario):
    result = sweep_vs_temperature(default_scenario, (250.0, 400.0), 16)
    for f_label in ("f1e+12Hz", "f1.2e+12Hz", "f1.5e+12Hz"):
        conv = [v for _, v in column(result, f"L_db_conventional_{f_label}")]
        assert all(v == conv[0] for v in conv)  # bitwise constant
        prop = [v for _, v in column(result, f"L_db_proposed_{f_label}")]
        assert all(b < a for a, b in zip(prop, prop[1:]))
        for model in ("proposed", "conventional"):
            cap = [v for _, v in column(result, f"C_bps_{model}_{f_label}")]
            assert all(b < a for a, b in zip(cap, cap[1:]))


def test_pressure_sweep_laws(default_scenario):
    result = sweep_vs_pressure(default_scenario, (20.0, 200.0), 16)
    assert result.unit == "kPa"
    for f_label in ("f1e+12Hz", "f1.2e+12Hz", "f1.5e+12Hz"):
        conv = [v for _, v in column(result, f"L_db_conventional_{f_label}")]
        assert all(v == conv[0] for v in conv)
        prop = [v for _, v in column(result, f"L_db_proposed_{f_label}")]
        assert all(b > a for a, b in zip(prop, prop[1:]))
    # the capacity cost of absorption widens with pressure at 1 THz
    gap = [c - p for (_, c), (_, p) in zip(
        column(result, "C_bps_conventional_f1e+12Hz"),
        column(result, "C_bps_proposed_f1e+12Hz"))]
    assert all(g >= 0 for g in gap)
    assert all(b > a for a, b in zip(gap, gap[1:]))


def test_distance_sweep_allocation_ordering(default_scenario):
    result = sweep_capacity_vs_distance(default_scenario, (1.0e-5, 1.0e-4),
                                        19, allocation="both")
    for model in ("proposed", "conventional"):
        wf = [v for _, v in column(result, f"C_bps_{model}_waterfilling")]
        flat = [v for _, v in column(result, f"C_bps_{model}_flat")]
        assert all(w >= f for w, f in zip(wf, flat))
        assert all(b < a for a, b in zip(wf, wf[1:]))  # decreasing in d
    conv_wf = [v for _, v in column(result,
                                    "C_bps_conventional_waterfilling")]
    conv_flat = [v for _, v in column(result, "C_bps_conventional_flat")]
    rel_gap = [(w - f) / w for w, f in zip(conv_wf, conv_flat)]
    assert max(rel_gap) < 0.01


def test_distance_sweep_single_scheme(default_scenario):
    result = sweep_capacity_vs_distance(default_scenario, (1.0e-5, 1.0e-4),
                                        5, allocation="flat")
    assert result.columns == ["C_bps_proposed_flat",
                              "C_bps_conventional_flat"]
    with pytest.raises(DomainError):
        sweep_capacity_vs_distance(default_scenario, (1e-5, 1e-4), 5,
                                   allocation="greedy")


@pytest.mark.parametrize("d_range", [(0.0, 1.0e-4), (1.0e-5, 1.0)])
def test_distance_sweep_outside_package_rejected(default_scenario, d_range):
    with pytest.raises(DomainError, match="d must satisfy"):
        sweep_capacity_vs_distance(default_scenario, d_range, 101)


def test_determinism(default_scenario):
    a = sweep_vs_temperature(default_scenario, (250.0, 400.0), 7)
    b = sweep_vs_temperature(default_scenario, (250.0, 400.0), 7)
    assert a == b


def test_baseline_scenario_collapses_models(default_scenario):
    baseline = Scenario(geom=default_scenario.geom,
                        medium=default_scenario.medium,
                        env=default_scenario.env,
                        band=default_scenario.band,
                        p_t=default_scenario.p_t,
                        baseline=True)
    assert baseline.medium.composition == {}
    result = sweep_capacity_vs_frequency(baseline, (1.0e12, 1.5e12), 7)
    for (_, p), (_, c) in zip(column(result, "C_bps_proposed"),
                              column(result, "C_bps_conventional")):
        assert p == c


def test_two_ray_null_becomes_gap_row(default_medium, env, band):
    geom = LinkGeometry(d=1.0e-4, h_t=2.0e-5, h_r=2.0e-5)
    f_null = LIGHT_SPEED * geom.d / (2.0 * geom.h_t * geom.h_r)
    scenario = Scenario(geom=geom, medium=default_medium, env=env, band=band,
                        p_t=1e-6)
    result = sweep_pathloss_vs_frequency(scenario,
                                         (f_null, f_null * 1.0001), 3)
    assert len(result.points) == 3
    gap_xs = {x for x, _, _ in result.gaps}
    assert f_null in gap_xs
    assert all(reason == "two-ray-null" for _, _, reason in result.gaps)
    # the gap row exists but carries no values for the affected columns
    x0, row0 = result.points[0]
    assert x0 == f_null and row0 == {}


def test_opaque_medium_becomes_gap_row(env, band):
    # overwhelming synthetic line: kappa*d blows past the overflow cap
    line = SpectralLine(gas_id=1, iso_id=1, f_c0=1.0e12,
                        line_intensity=1.0e22, alpha_air=2.5e9,
                        alpha_self=1.1e10, temp_exponent=0.7,
                        pressure_shift=0.0)
    medium = Medium(composition={(1, 1): 1.0}, lines=(line,))
    geom = LinkGeometry(d=2.0e-3, h_t=2.0e-5, h_r=2.0e-5)
    scenario = Scenario(geom=geom, medium=medium, env=env, band=band,
                        p_t=1e-6)
    result = sweep_pathloss_vs_frequency(scenario, (0.99e12, 1.01e12), 5)
    reasons = {reason for _, _, reason in result.gaps}
    assert reasons == {"opaque"}
    affected = {col for _, col, _ in result.gaps}
    assert affected == {"L_db_proposed_d0.002m"}  # baseline stays clear
    for _, row in result.points:
        assert "L_db_conventional_d0.002m" in row


def test_points_cover_sorted_axis(default_scenario):
    result = sweep_capacity_vs_distance(default_scenario, (1e-5, 1e-4), 11)
    xs = [x for x, _ in result.points]
    assert xs == sorted(xs)
    np.testing.assert_allclose(xs, np.linspace(1e-5, 1e-4, 11), rtol=1e-15)


def test_log_axis(default_scenario):
    result = sweep_capacity_vs_distance(default_scenario, (1e-5, 1e-4), 5,
                                        log_axis=True)
    xs = [x for x, _ in result.points]
    np.testing.assert_allclose(xs, np.geomspace(1e-5, 1e-4, 5), rtol=1e-15)
