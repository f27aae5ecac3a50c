import math
from dataclasses import replace

import numpy as np
import pytest

from thzlink import kernels
from thzlink.absorption import (DEFAULT_WING_CUTOFF, Environment,
                                kappa_over_grid)
from thzlink.capacity import BandPlan, channel_capacity
from thzlink.constants import LIGHT_SPEED
from thzlink.errors import DomainError, TwoRayNullError, ValidationError
from thzlink.propagation import (LinkGeometry, dielectric_path_loss,
                                 total_path_loss, two_ray_grid)
from thzlink.spectro import Medium, SpectralLine
from thzlink.sweep import (GRID_BLOCK_CELLS, Scenario,
                           sweep_capacity_vs_distance,
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


@pytest.mark.parametrize("f_range, error", [
    ((1.0e10, 3.0e12), DomainError), ((1.0e26, 1.0e27), DomainError)],
    ids=["edge-below-zero", "subbands-collapse"])
def test_invalid_band_aborts_capacity_sweep(default_scenario, f_range,
                                            error):
    """The first axis value with an invalid band raises BandPlan's error.

    A center frequency that pushes the band below 0 Hz is outside the
    model's domain, and so is one at which the subband centers collapse
    in float64.
    """
    band = default_scenario.band
    expected = None
    for f in np.linspace(*f_range, 50).tolist():
        try:
            BandPlan.centered(f, band.b, band.k)
        except (DomainError, ValidationError) as exc:
            expected = exc
            break
    assert type(expected) is error
    with pytest.raises(error) as excinfo:
        sweep_capacity_vs_frequency(default_scenario, f_range, 50)
    assert str(excinfo.value) == str(expected)


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


@pytest.mark.parametrize("run, values, clash", [
    (lambda s, v: sweep_pathloss_vs_frequency(s, (1e12, 2e12), 3, v),
     [1.0e-4, 2.0e-4, 1.0000001e-4], (1.0e-4, 1.0000001e-4)),
    (lambda s, v: sweep_pathloss_vs_frequency(s, (1e12, 2e12), 3, v),
     [1.0e-4, 1.0e-4], (1.0e-4, 1.0e-4)),
    (lambda s, v: sweep_vs_temperature(s, (250.0, 400.0), 3, v),
     [1.2e12, 1.0e12, 1.0000001e12], (1.0e12, 1.0000001e12)),
    (lambda s, v: sweep_vs_pressure(s, (20.0, 200.0), 3, v),
     [1.0e12, 1.0000002e12], (1.0e12, 1.0000002e12))],
    ids=["distances", "same-distance", "temperature-freqs", "pressure-freqs"])
def test_repeated_column_name_rejected(default_scenario, run, values, clash):
    """Two inputs that print alike would give two columns one name."""
    with pytest.raises(ValidationError) as excinfo:
        run(default_scenario, values)
    assert f"{clash[0]!r} and {clash[1]!r}" in str(excinfo.value)


@pytest.mark.parametrize("p_t", [math.inf, -1.0, math.nan])
def test_scenario_rejects_bad_budget(default_scenario, p_t):
    with pytest.raises(DomainError, match="p_t must be finite"):
        replace(default_scenario, p_t=p_t)


@pytest.mark.parametrize("bounds", [(1.0, math.inf), (-math.inf, 1.0),
                                    (math.nan, 1.0)])
def test_axis_rejects_non_finite_bounds(default_scenario, bounds):
    with pytest.raises(DomainError, match="axis range must be finite"):
        sweep_vs_temperature(default_scenario, bounds, 5)


def test_all_opaque_capacity_row_aborts_the_sweep(default_scenario):
    # one subband centered on an overwhelming line: its only floor is inf
    line = SpectralLine(gas_id=1, iso_id=1, f_c0=1.0e12,
                        line_intensity=1.0e22, alpha_air=2.5e9,
                        alpha_self=1.1e10, temp_exponent=0.7,
                        pressure_shift=0.0)
    scenario = replace(default_scenario,
                       medium=Medium(composition={(1, 1): 1.0},
                                     lines=(line,)),
                       band=BandPlan.centered(1.0e12, 1.0e9, 1))
    with pytest.raises(DomainError, match="no fundable subband"):
        sweep_vs_temperature(scenario, (250.0, 400.0), 5, [1.0e12])


def test_rows_span_several_grid_blocks(default_scenario):
    n = 3 * GRID_BLOCK_CELLS // default_scenario.band.k + 5
    result = sweep_capacity_vs_distance(default_scenario, (1.0e-5, 1.0e-4),
                                        n, allocation="waterfilling")
    for d, row in result.points[::97]:
        for model, medium in (("proposed", default_scenario.medium),
                              ("conventional",
                               default_scenario.medium.without_absorption())):
            expected = channel_capacity(
                default_scenario.geom, medium, default_scenario.env,
                default_scenario.band, d, default_scenario.p_t)
            assert row[f"C_bps_{model}_waterfilling"] == \
                expected.capacity_bits_per_s


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


@pytest.mark.parametrize("d", [1.0e-4, 1.0e-3, 2.0e-2])
def test_point_queries_are_grid_cells_bitwise(default_scenario, d):
    """A point query returns its grid cell's bits: L_d, L [dB] and its gap
    outcome, and kappa, which is also the same alone or in a row grid."""
    geom, env = default_scenario.geom, default_scenario.env
    freqs = np.linspace(1.0e12, 3.0e12, 4001)
    result = sweep_pathloss_vs_frequency(default_scenario,
                                         (1.0e12, 3.0e12), 4001, [d])
    mismatches = {}
    for model, medium in [("proposed", default_scenario.medium),
                          ("conventional",
                           default_scenario.medium.without_absorption())]:
        eps = medium.epsilon_r
        l_d, null = two_ray_grid(geom, freqs, eps, d)
        values, reasons = result.cells[f"L_db_{model}_d{d:g}m"]
        kappa = kappa_over_grid(medium, freqs, env)
        rows = kernels.kappa_totals(freqs, medium.packed,
                                    np.array([250.0, env.t_s]), env.p,
                                    DEFAULT_WING_CUTOFF)
        mismatches[f"{model} row vs alone"] = int(np.sum(rows[1] != kappa))
        counts = dict.fromkeys(["L_d", "L_db", "outcome", "kappa"], 0)
        for i, f in enumerate(freqs.tolist()):
            try:
                point_l_d = dielectric_path_loss(geom, f, eps, d)
                report = total_path_loss(geom, medium, env, f, d)
            except TwoRayNullError:
                counts["outcome"] += reasons[i] != "two-ray-null"
            else:
                counts["L_d"] += point_l_d != l_d[i]
                counts["outcome"] += reasons[i] != (
                    "opaque" if report.opaque else "")
                counts["L_db"] += not reasons[i] and report.l_db != values[i]
            point_kappa = kappa_over_grid(medium, (f,), env)[0]
            counts["kappa"] += point_kappa != kappa[i]
        mismatches.update((f"{model} {name}", int(count))
                          for name, count in counts.items())
    assert not any(mismatches.values()), ", ".join(
        f"{name}: {count}" for name, count in mismatches.items())
