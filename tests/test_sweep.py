import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from test_grid_fixtures import gap_scenario, null_frequency

from thzlink import kernels
from thzlink.absorption import (DEFAULT_WING_CUTOFF, Environment,
                                kappa_over_grid)
from thzlink.capacity import BandPlan, centered_band_grid, channel_capacity
from thzlink.cli import main, render_csv
from thzlink.config import load_scenario
from thzlink.constants import ATM_IN_KPA, LIGHT_SPEED
from thzlink.errors import DomainError, TwoRayNullError, ValidationError
from thzlink.propagation import (GAP_REASONS, LinkGeometry,
                                 dielectric_path_loss, total_path_loss,
                                 two_ray_grid)
from thzlink.spectro import Medium, SpectralLine
from thzlink.sweep import (Scenario, SweepResult, sweep_capacity_vs_distance,
                           sweep_capacity_vs_frequency,
                           sweep_pathloss_vs_frequency, sweep_vs_pressure,
                           sweep_vs_temperature)


def column(result, name):
    return [(x, row[name]) for x, row in result.points if name in row]


def reference_rows(result):
    """``result.points`` and ``result.gaps`` as whole lists, every row's
    dict and every gap built in one pass over the rows: the reference the
    views, which build a row when it is read, must match."""
    points, gaps = [], []
    columns = [(column, values.tolist(), codes.tobytes())
               for column, (values, codes) in result.cells.items()]
    for i, x in enumerate(result.samples.tolist()):
        row = {}
        for column, values, codes in columns:
            if codes[i]:
                gaps.append((x, column, GAP_REASONS[codes[i]]))
            else:
                row[column] = values[i]
        points.append((x, row))
    return points, gaps


def assert_views_match_reference(result):
    """The row views read like the reference lists: by length, index
    (negative too), stepped slice and iteration, with IndexError past
    either end, and a row dict changed in place stays changed."""
    points, gaps = reference_rows(result)
    view, n = result.points, len(points)
    assert len(view) == n and result.gaps == gaps
    assert [view[i] for i in (0, -1, -n, n // 2)] == \
        [points[i] for i in (0, -1, -n, n // 2)]
    assert view[n - 1::-3] == points[n - 1::-3]
    assert list(view) == points and view == points
    for past in (n, -n - 1):
        with pytest.raises(IndexError):
            view[past]
    view[-1][1]["changed"] = 1.0
    assert view[n - 1][1]["changed"] == 1.0
    del view[n - 1][1]["changed"]


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


@pytest.mark.parametrize("f_range, n_points, log_axis, message", [
    ((1.0e9, 1.0e12), 50, False,
     "frequency 1000000000.0 Hz puts the band edges at "
     "[-49000000000.0, 51000000000.0]; they must satisfy 0 <= f_lo < f_hi"),
    ((1.0e20, 1.0e27), 300, True,
     "frequency 9.6966578931455e+24 Hz is too large to split a "
     "100000000000.0 Hz band into 64 subbands in float64")],
    ids=["low-rows-below-zero", "high-end-collapses"])
def test_capacity_axis_band_errors(capsys, f_range, n_points, log_axis,
                                   message):
    """The first row whose band cannot be split names itself, in the sweep
    and in the CLI, which exits 2."""
    scenario = load_scenario()
    with pytest.raises(DomainError) as excinfo:
        sweep_capacity_vs_frequency(scenario, f_range, n_points, log_axis)
    assert str(excinfo.value) == message
    argv = ["sweep", "--axis", "frequency", "--metric", "capacity",
            "--from", repr(f_range[0]), "--to", repr(f_range[1]),
            "--points", str(n_points)] + ["--log"] * log_axis
    assert main(argv) == 2
    assert capsys.readouterr() == ("", f"model error: {message}\n")


def test_centered_band_grid_is_each_rows_band_bitwise(default_scenario):
    """Up to 1e15 Hz, each row's subband centers and width have the bits
    of BandPlan.centered and of the scalar edges formula."""
    b, k = default_scenario.band.b, default_scenario.band.k
    centers = np.geomspace(5.0e10, 1.0e15, 2000)
    f_k, widths = centered_band_grid(centers, b, k)
    delta_f = widths / k
    for i, f in enumerate(centers.tolist()):
        band = BandPlan.centered(f, b, k)
        f_lo, f_hi = f - b / 2.0, f + b / 2.0
        expected = f_lo + (np.arange(k) + 0.5) * ((f_hi - f_lo) / k)
        assert np.array_equal(f_k[i], band.f_k), f
        assert np.array_equal(f_k[i], expected), f
        assert delta_f[i] == band.delta_f == (f_hi - f_lo) / k, f


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
    n = 3 * kernels.BLOCK_CELLS // default_scenario.band.k + 5
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


# each sweep, its axis range and the frequencies a row carries, of K
EVERY_SWEEP = pytest.mark.parametrize("sweep, bounds, row_cells", [
    (lambda s, b, n: sweep_pathloss_vs_frequency(s, b, n, [1.0e-4, 2.0e-2]),
     (1.0e12, 3.0e12), lambda k: 1),
    (sweep_capacity_vs_frequency, (1.0e12, 3.0e12), lambda k: k),
    (sweep_capacity_vs_distance, (1.0e-5, 1.0e-4), lambda k: k),
    (sweep_vs_temperature, (250.0, 400.0), lambda k: k + 1),
    (sweep_vs_pressure, (20.0, 200.0), lambda k: k + 1)],
    ids=["pathloss-frequency", "capacity-frequency", "distance",
         "temperature", "pressure"])


@EVERY_SWEEP
def test_rows_at_block_edges_are_one_point_sweeps(default_scenario, sweep,
                                                  bounds, row_cells):
    """A sweep is evaluated in blocks of BLOCK_CELLS // (the frequencies a
    row carries) rows. At one row fewer than a block, one block and one
    row more, the rows at and beside each block edge are the one-point
    sweep at their axis value, bit for bit."""
    block = kernels.BLOCK_CELLS // row_cells(default_scenario.band.k)
    for n in (block - 1, block, block + 1):
        result = sweep(default_scenario, bounds, n)
        assert_views_match_reference(result)
        for i in sorted({0, block - 2, block - 1, block, n - 1} & {*range(n)}):
            x = float(result.samples[i])
            alone = sweep(default_scenario, (x, 2.0 * x), 1)
            row = SweepResult(result.axis, result.unit,
                              result.samples[i:i + 1],
                              {column: (values[i:i + 1], reasons[i:i + 1])
                               for column, (values, reasons)
                               in result.cells.items()})
            assert row == alone, (n, i)
            for column, (values, reasons) in alone.cells.items():
                assert np.array_equal(row.cells[column][0], values,
                                      equal_nan=True), (n, i, column)
                assert np.array_equal(row.cells[column][1], reasons)


@EVERY_SWEEP
def test_csv_does_not_depend_on_the_block_budget(default_scenario, sweep,
                                                 bounds, row_cells,
                                                 monkeypatch):
    """The block budget sets how many rows are evaluated and rendered at
    once, never a byte: a sweep three blocks and a few rows long at
    1 << 12 cells renders the same CSV at that budget and at the default
    one, which holds it in fewer blocks."""
    small = 1 << 12
    assert kernels.BLOCK_CELLS > small
    n = 3 * (small // row_cells(default_scenario.band.k)) + 5
    text = render_csv(sweep(default_scenario, bounds, n))
    monkeypatch.setattr(kernels, "BLOCK_CELLS", small)
    assert render_csv(sweep(default_scenario, bounds, n)) == text


@pytest.mark.parametrize("medium_name", ["default_medium", "wide_medium"])
def test_kernel_bits_do_not_depend_on_the_block_budget(medium_name, request,
                                                       env, monkeypatch):
    """kappa_totals has the same bits at 1 << 12 cells a block and at the
    default budget: at a scalar condition over one long row and over a grid
    of band rows (the tiled layout), and at per-row temperatures and per-row
    pressures (broadcast views) over 7 and 40 rows of 65 points; with the
    35 default lines the 7 rows are one block at the default budget and
    several at 1 << 12."""
    lines = request.getfixturevalue(medium_name).packed
    freqs = np.linspace(0.4e12, 3.4e12, 2000)
    grid = centered_band_grid(np.linspace(1.0e12, 2.0e12, 40), 1.0e11,
                              64)[0]
    calls = [(freqs, env.t_s, env.p), (grid, env.t_s, env.p)]
    for n_rows in (7, 40):
        calls += [(freqs[::31], np.linspace(250.0, 400.0, n_rows), env.p),
                  (freqs[::31], env.t_s, np.linspace(0.2, 2.0, n_rows))]

    def bits():
        return [kernels.kappa_totals(f, lines, t_s, p,
                                     DEFAULT_WING_CUTOFF).tobytes()
                for f, t_s, p in calls]

    default = bits()
    monkeypatch.setattr(kernels, "BLOCK_CELLS", 1 << 12)
    assert bits() == default


def test_determinism(default_scenario):
    a = sweep_vs_temperature(default_scenario, (250.0, 400.0), 7)
    b = sweep_vs_temperature(default_scenario, (250.0, 400.0), 7)
    assert a == b


@pytest.mark.parametrize("axis", ["capacity", "frequency", "temperature",
                                  "pressure"])
def test_baseline_scenario_collapses_models(default_scenario, axis):
    baseline = Scenario(geom=default_scenario.geom,
                        medium=default_scenario.medium,
                        env=default_scenario.env,
                        band=default_scenario.band,
                        p_t=default_scenario.p_t,
                        baseline=True)
    assert baseline.medium.composition == {}
    if axis == "capacity":
        result = sweep_capacity_vs_frequency(baseline, (1.0e12, 1.5e12), 7)
        for (_, p), (_, c) in zip(column(result, "C_bps_proposed"),
                                  column(result, "C_bps_conventional")):
            assert p == c
        return
    if axis == "frequency":  # at two distances, the last row on a null
        gaps = replace(gap_scenario(), baseline=True)
        f_null = null_frequency(gaps)
        result = sweep_pathloss_vs_frequency(gaps, (1.2e12, f_null), 9,
                                             [gaps.geom.d, 2.0e-2])
        assert [(x, reason) for x, _, reason in result.gaps] == \
            [(f_null, "two-ray-null")] * 2
    elif axis == "temperature":
        result = sweep_vs_temperature(baseline, (250.0, 400.0), 7)
    else:
        result = sweep_vs_pressure(baseline, (50.0, 150.0), 7)
    # the proposed model's path loss is L_d + 0.0 from Beer-Lambert at
    # kappa = 0, the conventional model's is L_d: the same bits
    proposed = [name for name in result.cells
                if name.startswith("L_db_proposed")]
    assert len(proposed) == (2 if axis == "frequency" else 3)
    for name in proposed:
        (p_values, p_codes), (c_values, c_codes) = (
            result.cells[name],
            result.cells[name.replace("proposed", "conventional")])
        assert p_values.tobytes() == c_values.tobytes()
        assert p_codes.tobytes() == c_codes.tobytes()


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


@pytest.mark.parametrize("axis", ["frequency", "temperature", "pressure"])
def test_conventional_path_loss_is_the_lineless_point_query(axis):
    """Each L_db_conventional_* cell has the bits of total_path_loss on the
    medium without absorption. A row on a two-ray null gaps both models;
    a row in the opaque line gaps only the proposed one."""
    scenario = gap_scenario()
    geom, env = scenario.geom, scenario.env
    lineless = scenario.medium.without_absorption()
    f_null = null_frequency(scenario)
    if axis == "frequency":  # the first row is opaque, the last on a null
        result = sweep_pathloss_vs_frequency(scenario, (1.2e12, f_null), 7)
        rows = [(x, [x], env) for x in result.samples.tolist()]
        suffixes = [f"_d{geom.d:g}m"]
    else:
        sweep = (sweep_vs_temperature if axis == "temperature"
                 else sweep_vs_pressure)
        freqs = [1.0e12, 1.2e12, f_null]
        result = sweep(scenario, (250.0, 400.0) if axis == "temperature"
                       else (20.0, 200.0), 4, freqs)
        rows = [(x, freqs, Environment(t_s=x, p=env.p) if axis ==
                 "temperature" else Environment(t_s=env.t_s,
                                                p=x / ATM_IN_KPA))
                for x in result.samples.tolist()]
        suffixes = [f"_f{f:g}Hz" for f in freqs]
    seen = set()
    for i, (x, freqs, row_env) in enumerate(rows):
        for f, suffix in zip(freqs, suffixes):
            values, codes = result.cells[f"L_db_conventional{suffix}"]
            proposed = result.cells[f"L_db_proposed{suffix}"][1][i]
            try:
                report = total_path_loss(geom, lineless, row_env, f)
            except TwoRayNullError:
                assert (codes[i], proposed) == (1, 1)
                seen.add("two-ray-null")
                continue
            assert codes[i] == 0
            assert values[i].tobytes() == np.float64(report.l_db).tobytes()
            seen.add("opaque" if proposed == 2 else "")
    assert seen == {"", "two-ray-null", "opaque"}


def test_gaps_yield_str_reasons_of_both_kinds():
    """The gap view turns each cell's code into its reason, a Python str,
    for path-loss and capacity cells alike."""
    scenario = gap_scenario()
    result = sweep_vs_temperature(scenario, (250.0, 400.0), 5,
                                  [1.2e12, null_frequency(scenario)])
    assert {type(reason) for _, _, reason in result.gaps} == {str}
    assert {reason for _, _, reason in result.gaps} == {"two-ray-null",
                                                        "opaque"}
    assert {column.split("_")[0] for _, column, _ in result.gaps} == {"L",
                                                                      "C"}
    assert_views_match_reference(result)


def test_reading_a_few_rows_builds_only_those(default_scenario):
    """The length, the first and last rows, the gaps and equality read the
    columns, not a dict per row: on 50 000 rows x 4 columns they allocate
    under 2 MiB, where building every row's dict takes ~20 MiB."""
    result = sweep_pathloss_vs_frequency(default_scenario, (1.0e12, 3.0e12),
                                         50_000, [1.0e-4, 2.0e-2])
    tracemalloc.start()
    assert len(result.points) == 50_000
    first, last = result.points[0], result.points[-1]
    gaps = result.gaps
    assert result == result
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert peak < 2 << 20
    points, reference_gaps = reference_rows(result)
    assert (first, last, gaps) == (points[0], points[-1], reference_gaps)


def test_results_are_equal_on_their_columns_not_their_gap_values():
    """Two results are equal when their axis, unit, column order, samples,
    gap codes and non-gap values are, as their reference rows are: a gap
    cell's value does not count, and a NaN non-gap value is unequal."""
    def result(loss=(3.0, np.nan), codes=(0, 1), capacity=(5.0, 6.0),
               samples=(1.0, 2.0), order=("L", "C")):
        cells = {"L": (np.array(loss), np.array(codes, np.uint8)),
                 "C": (np.array(capacity), np.zeros(2, np.uint8))}
        return SweepResult("frequency", "Hz", np.array(samples),
                           {name: cells[name] for name in order})

    def by_rows(a, b):
        return ((a.axis, a.unit, a.columns, reference_rows(a))
                == (b.axis, b.unit, b.columns, reference_rows(b)))

    base = result()
    for other, equal in [(result(), True), (result(loss=(3.0, 4.0)), True),
                         (result(loss=(3.5, np.nan)), False),
                         (result(codes=(0, 2)), False),
                         (result(codes=(1, 1)), False),
                         (result(samples=(1.0, 2.5)), False),
                         (result(order=("C", "L")), False),
                         (replace(base, unit="kHz"), False),
                         (result(capacity=(np.nan, 6.0)), False)]:
        assert (base == other) is equal and by_rows(base, other) is equal
    nan = result(capacity=(np.nan, 6.0))
    assert nan != result(capacity=(np.nan, 6.0))
    assert not by_rows(nan, result(capacity=(np.nan, 6.0)))


def test_a_result_is_unequal_to_what_is_not_a_result():
    result = SweepResult("frequency", "Hz", np.array([1.0]), {})
    assert result.__eq__(5) is NotImplemented
    assert (result == 5) is False and (result != 5) is True


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
        values, codes = result.cells[f"L_db_{model}_d{d:g}m"]
        reasons = [GAP_REASONS[code] for code in codes.tolist()]
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
