"""Property tests: every row of the batched channel grid is the 1-row API.

Random geometry, environment, permittivity, band (K = 1..64), distances
and budgets (zero included) go through the sweeps and ``psi_grid``; each
row must agree with ``psi_coefficients``, ``channel_capacity``,
``flat_allocation_capacity`` and ``total_path_loss`` at rel 1e-12. Draws
can put a subband center on a two-ray null (the row must gap) or add an
overwhelming line whose floors saturate to +inf (all-infinite rows must
abort the sweep exactly as the 1-row water-filling does).
"""

import math
from dataclasses import replace

import numpy as np
from hypothesis import HealthCheck, assume, event, given, settings
from hypothesis import strategies as st

from thzlink.absorption import Environment, kappa_over_grid
from thzlink.capacity import (BandPlan, channel_capacity,
                              flat_allocation_capacity, psi_coefficients,
                              psi_grid)
from thzlink.config import load_scenario
from thzlink.constants import LIGHT_SPEED
from thzlink.errors import DomainError, TwoRayNullError
from thzlink.propagation import LinkGeometry, total_path_loss
from thzlink.spectro import Medium, SpectralLine
from thzlink.sweep import (sweep_capacity_vs_distance,
                           sweep_pathloss_vs_frequency, sweep_vs_temperature)

REL_TOL = 1.0e-12
DEFAULT = load_scenario()
# Derandomized, so every run checks the same draws; 100 of them include
# both null rows and rows of all-infinite floors.
PROPERTY_SETTINGS = settings(max_examples=100, deadline=None,
                             derandomize=True,
                             suppress_health_check=[HealthCheck.too_slow])


def close(a, b):
    return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=0.0)


def null_distance(geom, epsilon_r, f):
    """Separation that puts frequency f on the first two-ray null."""
    return 2.0 * geom.h_t * geom.h_r * f * math.sqrt(epsilon_r) / LIGHT_SPEED


@st.composite
def scenarios(draw):
    h = 1.0e-3
    geom = LinkGeometry(
        d=1.0e-4,
        h_t=draw(st.floats(1.0e-6, h)), h_r=draw(st.floats(1.0e-6, h)),
        g_t=draw(st.floats(0.5, 10.0)), g_r=draw(st.floats(0.5, 10.0)))
    env = Environment(t_s=draw(st.floats(50.0, 600.0)),
                      p=draw(st.floats(0.05, 3.0)))
    k = draw(st.integers(1, 64))
    center = draw(st.floats(0.3e12, 3.0e12))
    band = BandPlan.centered(center, draw(st.floats(1.0e9, 2.0e11)), k)
    epsilon_r = draw(st.floats(1.0, 4.0))
    medium = Medium(composition=DEFAULT.medium.composition,
                    epsilon_r=epsilon_r, lines=DEFAULT.medium.lines)
    if draw(st.booleans()):
        # a narrow, overwhelming line on one subband center: opaque floors
        f_line = float(band.f_k[draw(st.integers(0, k - 1))])
        line = SpectralLine(gas_id=1, iso_id=1, f_c0=f_line,
                            line_intensity=1.0e22, alpha_air=1.0e7,
                            alpha_self=1.0e7, temp_exponent=0.7,
                            pressure_shift=0.0)
        medium = replace(medium, lines=medium.lines + (line,))
    p_t = draw(st.one_of(st.just(0.0), st.floats(1.0e-9, 1.0e-2)))
    return replace(DEFAULT, geom=geom, env=env, band=band, medium=medium,
                   p_t=p_t)


@st.composite
def distance_ranges(draw, scenario):
    """A sweep range inside the package, sometimes starting on a null."""
    d_c = scenario.geom.d_c
    if draw(st.booleans()):
        f = float(scenario.band.f_k[draw(
            st.integers(0, scenario.band.k - 1))])
        lo = null_distance(scenario.geom, scenario.medium.epsilon_r, f)
        assume(lo < d_c / 2)
    else:
        lo = draw(st.floats(1.0e-7, d_c / 2))
    hi = draw(st.floats(lo * 1.001, d_c))
    return lo, hi, draw(st.integers(1, 6))


def expected_or_error(solver, *args):
    try:
        return solver(*args).capacity_bits_per_s
    except TwoRayNullError:
        return None
    except DomainError as exc:
        return exc


def check_row(row, column, expected):
    if expected is None:
        assert column not in row
    else:
        assert close(row[column], expected), column


@PROPERTY_SETTINGS
@given(st.data())
def test_distance_rows_match_single_point_api(data):
    scenario = data.draw(scenarios())
    lo, hi, n = data.draw(distance_ranges(scenario))
    models = (("proposed", scenario.medium),
              ("conventional", scenario.medium.without_absorption()))
    distances = np.linspace(lo, hi, n) if n > 1 else np.array([lo])
    expected = {}
    for d in distances.tolist():
        for model, medium in models:
            args = (scenario.geom, medium, scenario.env, scenario.band, d,
                    scenario.p_t)
            expected[(d, model, "waterfilling")] = expected_or_error(
                channel_capacity, *args)
            expected[(d, model, "flat")] = expected_or_error(
                flat_allocation_capacity, *args)
    errors = [e for e in expected.values() if isinstance(e, Exception)]
    if None in expected.values():
        event("a row on a two-ray null")
    if errors:
        event("a row of all-infinite floors")
        try:
            sweep_capacity_vs_distance(scenario, (lo, hi), n)
        except DomainError as exc:
            assert str(exc) == str(errors[0])
        else:
            raise AssertionError("the sweep did not abort")
        return
    result = sweep_capacity_vs_distance(scenario, (lo, hi), n)
    for d, row in result.points:
        for (d_key, model, scheme), value in expected.items():
            if d_key == d:
                check_row(row, f"C_bps_{model}_{scheme}", value)


@PROPERTY_SETTINGS
@given(st.data())
def test_psi_rows_match_psi_coefficients(data):
    scenario = data.draw(scenarios())
    lo, hi, n = data.draw(distance_ranges(scenario))
    distances = np.linspace(lo, hi, n)
    band, env, medium = scenario.band, scenario.env, scenario.medium
    kappa = kappa_over_grid(medium, band.f_k, env)
    psi, null = psi_grid(scenario.geom, medium.epsilon_r, band.f_k, kappa,
                         distances[:, None], env.t_s, band.delta_f)
    for i, d in enumerate(distances.tolist()):
        try:
            one_row = psi_coefficients(scenario.geom, medium, env, band, d)
        except TwoRayNullError as exc:
            assert null[i].any()
            assert exc.subband == int(np.argmax(null[i]))
            continue
        assert not null[i].any()
        for got, want in zip(psi[i].tolist(), one_row.tolist()):
            assert close(got, want)


@PROPERTY_SETTINGS
@given(st.data())
def test_temperature_rows_match_single_point_api(data):
    scenario = data.draw(scenarios())
    t_lo = data.draw(st.floats(50.0, 400.0))
    t_hi = data.draw(st.floats(t_lo + 1.0, 700.0))
    n = data.draw(st.integers(1, 5))
    f = float(scenario.band.f_k[0] + scenario.band.f_k[-1]) / 2.0
    models = (("proposed", scenario.medium),
              ("conventional", scenario.medium.without_absorption()))
    band = BandPlan.centered(f, scenario.band.b, scenario.band.k)
    temps = np.linspace(t_lo, t_hi, n) if n > 1 else np.array([t_lo])
    expected = {}
    for t_s in temps.tolist():
        env = Environment(t_s=t_s, p=scenario.env.p)
        for model, medium in models:
            expected[(t_s, model)] = expected_or_error(
                channel_capacity, scenario.geom, medium, env, band,
                scenario.geom.d, scenario.p_t)
    errors = [e for e in expected.values() if isinstance(e, Exception)]
    if errors:
        try:
            sweep_vs_temperature(scenario, (t_lo, t_hi), n, [f])
        except DomainError as exc:
            assert str(exc) == str(errors[0])
        else:
            raise AssertionError("the sweep did not abort")
        return
    result = sweep_vs_temperature(scenario, (t_lo, t_hi), n, [f])
    for t_s, row in result.points:
        env = Environment(t_s=t_s, p=scenario.env.p)
        for model, medium in models:
            suffix = f"{model}_f{f:g}Hz"
            check_row(row, f"C_bps_{suffix}", expected[(t_s, model)])
            try:
                report = total_path_loss(scenario.geom, medium, env, f)
            except TwoRayNullError:
                assert f"L_db_{suffix}" not in row
                continue
            if report.opaque:
                assert f"L_db_{suffix}" not in row
            else:
                assert close(row[f"L_db_{suffix}"], report.l_db)


@PROPERTY_SETTINGS
@given(st.data())
def test_pathloss_cells_match_total_path_loss(data):
    scenario = data.draw(scenarios())
    geom, band = scenario.geom, scenario.band
    # the sweep starts on a subband center, where scenarios() may have put
    # an overwhelming line
    f_lo = float(band.f_k[data.draw(st.integers(0, band.k - 1))])
    f_hi = data.draw(st.floats(f_lo * 1.001, 3.0 * f_lo))
    n = data.draw(st.integers(1, 6))
    d_values = data.draw(st.lists(st.floats(1.0e-7, geom.d_c), min_size=1,
                                  max_size=3, unique_by=lambda d: f"{d:g}"))
    if data.draw(st.booleans()):
        # the first distance puts f_lo on a two-ray null
        d_null = null_distance(geom, scenario.medium.epsilon_r, f_lo)
        assume(d_null <= geom.d_c
               and f"{d_null:g}" not in {f"{d:g}" for d in d_values})
        d_values[0] = d_null
    result = sweep_pathloss_vs_frequency(scenario, (f_lo, f_hi), n, d_values)
    gaps = {(f, column): reason for f, column, reason in result.gaps}
    for f, row in result.points:
        for d in d_values:
            for model, medium in (("proposed", scenario.medium),
                                  ("conventional",
                                   scenario.medium.without_absorption())):
                column = f"L_db_{model}_d{d:g}m"
                try:
                    report = total_path_loss(geom, medium, scenario.env, f,
                                             d=d)
                except TwoRayNullError:
                    reason = "two-ray-null"
                else:
                    reason = "opaque" if report.opaque else None
                if reason:
                    event(f"a {reason} cell")
                    assert gaps.get((f, column)) == reason, column
                    assert column not in row
                else:
                    assert (f, column) not in gaps
                    assert close(row[column], report.l_db), column
