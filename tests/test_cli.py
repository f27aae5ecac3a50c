import contextlib
import functools
import io
import json
import math
import os
import re
import stat
import subprocess
import sys
import warnings
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from test_grid_fixtures import gap_scenario, null_frequency

import thzlink
from thzlink import config
from thzlink.cli import (_CELL_BYTES, _e12_cells, csv_blocks, main,
                         render_csv, render_table)
from thzlink.config import DEFAULT_SCENARIO, load_scenario
from thzlink.constants import LIGHT_SPEED
from thzlink.kernels import BLOCK_CELLS
from thzlink.propagation import GAP_REASONS
from thzlink.sweep import (SweepResult, sweep_pathloss_vs_frequency,
                           sweep_vs_temperature)

NULL_FREQUENCY = LIGHT_SPEED * 1.0e-4 / (2.0 * 2.0e-5 * 2.0e-5)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_scenario(tmp_path, doc, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


class TestPathloss:
    def test_baseline_has_no_absorption_line(self, capsys):
        code, out, _ = run(capsys, "pathloss", "--baseline")
        assert code == 0
        assert "absorption loss L_a  : 1.000000e+00  (0.000000 dB)" in out
        l_d = re.search(r"dielectric loss L_d.*\(([-\d.]+) dB\)", out)
        l_tot = re.search(r"total path loss L.*\(([-\d.]+) dB\)", out)
        assert float(l_d.group(1)) == float(l_tot.group(1))

    def test_absorbing_medium_adds_decibels(self, capsys):
        code, out, _ = run(capsys, "pathloss")
        assert code == 0
        match = re.search(r"absorption loss L_a.*\(([\d.]+) dB\)", out)
        assert float(match.group(1)) > 0.0

    def test_ledger_terms_sum_to_received_power(self, capsys):
        code, out, _ = run(capsys, "pathloss", "--frequency", "1.3e12")
        assert code == 0
        terms = [float(m) for m in re.findall(
            r": ([+-][\d.]+) dBW?$", out, flags=re.MULTILINE)]
        # transmit power, both gains, permittivity, spreading, molecular, P_R
        assert len(terms) == 7
        assert abs(sum(terms[:-1]) - terms[-1]) < 1e-4

    def test_csv_format(self, capsys):
        code, out, _ = run(capsys, "pathloss", "--format", "csv")
        assert code == 0
        header, row = out.strip().split("\n")
        assert header == "f_Hz,L_d_db,L_a_db,L_db,P_R_dBW,opaque"
        assert len(row.split(",")) == 6

    def test_two_ray_null_exits_2(self, capsys):
        code, _, err = run(capsys, "pathloss", "--frequency",
                           repr(NULL_FREQUENCY))
        assert code == 2
        assert "two-ray null" in err
        assert f"{NULL_FREQUENCY:.6e}" in err

    def test_infinite_frequency_exits_2(self, capsys):
        code, out, err = run(capsys, "pathloss", "--frequency", "inf")
        assert code == 2
        assert out == ""
        assert "frequency must be finite" in err
        assert "Traceback" not in err

    def test_missing_scenario_exits_1(self, capsys):
        code, _, err = run(capsys, "pathloss", "--scenario", "/no/such.json")
        assert code == 1
        assert "cannot read scenario" in err

    def test_invalid_scenario_values_exit_1(self, capsys, tmp_path):
        path = write_scenario(tmp_path, {"medium": {
            "epsilon_r": 0.2, "composition": []}})
        code, _, err = run(capsys, "pathloss", "--scenario", path)
        assert code == 1
        assert "epsilon_r" in err

    def test_scenario_that_is_not_an_object_exits_1(self, capsys, tmp_path):
        path = write_scenario(tmp_path, [1, 2])
        err = one_error_line(*run(capsys, "pathloss", "--scenario", path))
        assert f"scenario {path!r} must hold a JSON object" in err

    def test_unknown_flag_exits_1(self, capsys):
        code, _, _ = run(capsys, "pathloss", "--bogus")
        assert code == 1


class TestCapacity:
    def test_zero_power(self, capsys):
        code, out, _ = run(capsys, "capacity", "--power", "0")
        assert code == 0
        assert "capacity             : 0.000000e+00 bits/s" in out

    def test_funded_rows_touch_water_level(self, capsys):
        code, out, _ = run(capsys, "capacity")
        assert code == 0
        theta = float(re.search(r"water level\s+: ([\d.e+-]+) W", out).group(1))
        rows = re.findall(
            r"^\s+\d+\s+[\d.e+-]+\s+([\d.e+-]+)\s+([\d.e+-]+)$", out,
            flags=re.MULTILINE)
        assert rows
        for psi_text, p_text in rows:
            psi, p = float(psi_text), float(p_text)
            if p > 0.0:
                assert psi + p == pytest.approx(theta, rel=1e-5)

    @pytest.mark.parametrize("allocation", ["waterfilling", "flat"])
    def test_infinite_power_exits_2(self, capsys, allocation):
        code, out, err = run(capsys, "capacity", "--power", "inf",
                             "--allocation", allocation)
        assert code == 2
        assert out == ""
        assert "p_t must be finite" in err

    @pytest.mark.parametrize("argv", [
        ("capacity",), ("capacity", "--allocation", "flat"),
        ("sweep", "--axis", "temperature", "--points", "3")])
    def test_huge_finite_power_gives_finite_capacity(self, capsys, argv):
        """At 1e308 W each subband's p_k / psi overflows float64; the
        capacity is still finite, and no warning line is printed."""
        code, out, err = run(capsys, *argv, "--power", "1e308")
        assert (code, err) == (0, "")
        assert "bits/s" in out or "C_bps_proposed" in out
        assert "inf" not in out

    def test_flat_allocation_flag(self, capsys):
        _, wf_out, _ = run(capsys, "capacity")
        _, flat_out, _ = run(capsys, "capacity", "--allocation", "flat")
        wf = float(re.search(r"capacity\s+: ([\d.e+-]+)", wf_out).group(1))
        flat = float(re.search(r"capacity\s+: ([\d.e+-]+)",
                               flat_out).group(1))
        assert wf >= flat
        assert "water level          : n/a" in flat_out

    def test_csv_table(self, capsys):
        code, out, _ = run(capsys, "capacity", "--format", "csv")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "subband,f_k_Hz,psi_k_W,p_k_W"
        assert len(lines) == 65  # header + default 64 subbands


class TestSweep:
    def test_csv_deterministic(self, capsys):
        args = ("sweep", "--axis", "distance", "--points", "7")
        _, first, _ = run(capsys, *args)
        _, second, _ = run(capsys, *args)
        assert first == second
        assert "\r" not in first

    def test_header_names_axis_and_columns(self, capsys):
        code, out, _ = run(capsys, "sweep", "--axis", "temperature",
                           "--points", "3", "--freqs", "1e12")
        assert code == 0
        header = out.split("\n")[0]
        assert header.startswith("temperature_K,")
        assert header.endswith(",gap")
        assert "L_db_proposed_f1e+12Hz" in header
        assert "C_bps_conventional_f1e+12Hz" in header

    def test_single_point(self, capsys):
        code, out, _ = run(capsys, "sweep", "--axis", "frequency",
                           "--metric", "capacity", "--points", "1")
        assert code == 0
        assert len(out.strip().split("\n")) == 2

    def test_values_are_locale_independent(self, capsys):
        _, out, _ = run(capsys, "sweep", "--axis", "pressure", "--points",
                        "3", "--freqs", "1e12")
        for cell in out.strip().split("\n")[1].split(",")[:-1]:
            assert re.fullmatch(r"-?\d\.\d{12}e[+-]\d{2,3}", cell), cell

    def test_distance_allocation_flag(self, capsys):
        code, out, _ = run(capsys, "sweep", "--axis", "distance",
                           "--points", "3", "--allocation", "flat")
        assert code == 0
        header = out.split("\n")[0]
        assert "waterfilling" not in header
        assert "C_bps_proposed_flat" in header

    @pytest.mark.parametrize("lo, hi", [("0", "1e-4"), ("1e-5", "1")])
    def test_distance_outside_package_exits_2(self, capsys, lo, hi):
        code, out, err = run(capsys, "sweep", "--axis", "distance",
                             "--from", lo, "--to", hi)
        assert code == 2
        assert out == ""
        assert "d must satisfy" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("lo, message", [
        ("-1e-4", "d must satisfy"), ("-1E-4", "d must satisfy"),
        ("-.5e-4", "d must satisfy"), ("-inf", "axis range must be finite"),
        ("-Infinity", "axis range must be finite")])
    def test_negative_bound_is_a_value(self, capsys, lo, message):
        code, out, err = run(capsys, "sweep", "--axis", "distance",
                             "--from", lo, "--to", "1e-4")
        assert code == 2
        assert out == ""
        assert message in err
        assert "expected one argument" not in err

    def test_negative_list_is_a_value(self, capsys):
        code, out, err = run(capsys, "sweep", "--axis", "frequency",
                             "--points", "3", "--distances", "-1e-4,1e-4")
        assert code == 2
        assert out == ""
        assert "d must satisfy" in err

    @pytest.mark.parametrize("flag, axis", [("--distances", "frequency"),
                                            ("--freqs", "temperature"),
                                            ("--freqs", "pressure")])
    @pytest.mark.parametrize("text", ["", ",", " , "],
                             ids=["empty", "comma", "spaced-comma"])
    def test_empty_list_exits_1(self, capsys, flag, axis, text):
        code, out, err = run(capsys, "sweep", "--axis", axis, "--points",
                             "3", flag, text)
        assert code == 1
        assert out == ""
        assert f"{flag} expects at least one number" in err

    def test_list_with_a_word_exits_1(self, capsys):
        code, out, err = run(capsys, "sweep", "--axis", "temperature",
                             "--points", "3", "--freqs", "1e12,abc")
        assert (code, out) == (1, "")
        assert err == ("error: --freqs expects comma-separated numbers: "
                       "could not convert string to float: 'abc'\n")

    def test_log_axis_from_a_negative_start_exits_2(self, capsys):
        assert run(capsys, "sweep", "--axis", "frequency", "--log", "--from",
                   "-1e12") == (
            2, "", "model error: log-spaced axis needs a positive start\n")

    @pytest.mark.parametrize("axis, source", [
        ("frequency", "--from to --to"), ("temperature", "with --freqs"),
        ("pressure", "with --freqs"), ("distance", "set in --scenario")])
    def test_frequency_flag_exits_1_and_names_the_axis_source(
            self, capsys, axis, source):
        """No sweep reads --frequency, so it is an error that points to the
        flag that does set the axis's frequencies, not ignored."""
        code, out, err = run(capsys, "sweep", "--axis", axis, "--points",
                             "5", "--frequency", "2.5e12")
        assert code == 1
        assert out == ""
        assert err.startswith("error: sweep takes no --frequency: ")
        assert err.count("\n") == 1 and err.rstrip().endswith(source)

    @pytest.mark.parametrize("axis, flag, value", [
        ("temperature", "--temperature", "350"),
        ("pressure", "--pressure", "0.5"), ("distance", "--distance", "1e-3")])
    def test_axis_override_flag_exits_1_and_names_it(self, capsys, axis, flag,
                                                     value):
        """The axis sets its own input row by row, so that input's override
        flag is an error that names it, not ignored."""
        err = one_error_line(*run(capsys, "sweep", "--axis", axis, "--points",
                                  "5", flag, value))
        assert err == (f"error: sweep takes no {flag}: the {axis} axis runs "
                       f"from --from to --to\n")

    @pytest.mark.parametrize("axis", [
        ("--axis", "frequency"),
        ("--axis", "frequency", "--metric", "capacity"),
        ("--axis", "temperature"),
        ("--axis", "pressure"),
        ("--axis", "distance"),
    ], ids=["frequency", "capacity-frequency", "temperature", "pressure",
            "distance"])
    @pytest.mark.parametrize("bound", [("--to", "inf"), ("--from=-inf",),
                                       ("--to", "nan")],
                             ids=["to-inf", "from-minus-inf", "to-nan"])
    def test_non_finite_axis_bound_exits_2(self, capsys, axis, bound):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a numpy warning fails the test
            code, out, err = run(capsys, "sweep", *axis, "--points", "5",
                                 *bound)
        assert code == 2
        assert out == ""
        assert "axis range must be finite" in err

    @pytest.mark.parametrize("args, values", [
        (("--axis", "frequency", "--distances", "1e-4,1.0000001e-4"),
         "0.0001 and 0.00010000001"),
        (("--axis", "temperature", "--freqs", "1e12,1.0000001e12"),
         "1000000000000.0 and 1000000100000.0"),
        (("--axis", "pressure", "--freqs", "1.5e12,1.5e12"),
         "1500000000000.0 and 1500000000000.0")],
        ids=["distances", "temperature-freqs", "pressure-freqs"])
    def test_repeated_column_name_exits_1(self, capsys, args, values):
        code, out, err = run(capsys, "sweep", "--points", "3", *args)
        assert code == 1
        assert out == ""
        assert values in err
        assert "Traceback" not in err

    def test_gap_marker_column(self, capsys):
        lo = repr(NULL_FREQUENCY)
        hi = repr(NULL_FREQUENCY * 1.0001)
        code, out, _ = run(capsys, "sweep", "--axis", "frequency", "--from",
                           lo, "--to", hi, "--points", "3")
        assert code == 0
        lines = out.strip().split("\n")
        gap_cells = [line.split(",")[-1] for line in lines[1:]]
        assert gap_cells[0] == "two-ray-null"
        # gapped metric cells are empty, never interpolated
        assert lines[1].split(",")[1] == ""

    def test_pretty_table(self, capsys):
        code, out, _ = run(capsys, "sweep", "--axis", "distance", "--points",
                           "3", "--format", "pretty")
        assert code == 0
        assert out.startswith("distance_m")

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "sweep.csv"
        code, out, _ = run(capsys, "sweep", "--axis", "distance", "--points",
                           "3", "--out", str(target))
        assert code == 0
        assert out == ""
        text = target.read_text()
        assert text.startswith("distance_m,")
        assert "\r" not in text


def reference_rows(result, spec):
    """Header, then one row per axis value, built row by row from the
    ``points`` and ``gaps`` views: gaps empty, reasons sorted and joined."""
    gap_reasons = {}
    for x, _column, reason in result.gaps:
        gap_reasons.setdefault(x, set()).add(reason)
    yield [f"{result.axis}_{result.unit}"] + result.columns + ["gap"]
    for x, row in result.points:
        cells = [f"{x:{spec}}"]
        for column in result.columns:
            value = row.get(column)
            cells.append("" if value is None else f"{value:{spec}}")
        cells.append(";".join(sorted(gap_reasons.get(x, ()))))
        yield cells


def reference_csv(result):
    rows = reference_rows(result, ".12e")
    return "\n".join(",".join(r) for r in rows) + "\n"


def reference_table(result):
    rows = list(reference_rows(result, ".6e"))
    widths = [max(len(r[i]) for r in rows) for i in range(len(rows[0]))]
    return "\n".join("  ".join(cell.ljust(w) for cell, w in zip(r, widths))
                     for r in rows) + "\n"


@functools.lru_cache(maxsize=None)
def long_sweep(name):
    if name == "gap-temperature":
        # every row mixes values with opaque and two-ray-null gaps
        scenario = gap_scenario()
        return sweep_vs_temperature(scenario, (250.0, 400.0), 3000,
                                    [1.2e12, null_frequency(scenario)])
    return sweep_pathloss_vs_frequency(load_scenario(), (1.0e12, 3.0e12),
                                       20000, [1.0e-4, 1.0e-3, 1.0e-2, 2.0e-2])


@pytest.mark.parametrize("name", ["gap-temperature", "spectrum"])
@pytest.mark.parametrize("render, reference", [
    (render_csv, reference_csv), (render_table, reference_table)],
    ids=["csv", "pretty"])
def test_render_matches_row_by_row_reference(name, render, reference):
    """Long sweeps render, over many rows, byte for byte as the row-by-row
    reference does."""
    result = long_sweep(name)
    text = render(result)
    assert text == reference(result)
    if name == "gap-temperature":
        lines = text.split("\n")[1:-1]
        assert len(lines) == 3000
        assert {line.split()[-1] if render is render_table
                else line.split(",")[-1]
                for line in lines} == {"opaque;two-ray-null"}


def test_streamed_csv_is_render_csv(capsys, tmp_path):
    """The sweep CSV is written block by block; over several blocks with
    gap rows, the --out bytes and stdout are render_csv's."""
    lo, hi = NULL_FREQUENCY, 2.0 * NULL_FREQUENCY  # both ends are nulls
    # four value columns, the axis and the gap: two whole blocks and a row
    n = 2 * (BLOCK_CELLS // 6) + 1
    argv = ["sweep", "--axis", "frequency", "--from", repr(lo), "--to",
            repr(hi), "--points", str(n), "--distances", "1e-4,2e-4"]
    result = sweep_pathloss_vs_frequency(load_scenario(), (lo, hi), n,
                                         [1.0e-4, 2.0e-4])
    gap_rows = sorted({result.samples.tolist().index(x)
                       for x, _, _ in result.gaps})
    assert gap_rows[0] == 0 and gap_rows[-1] == n - 1
    expected = render_csv(result)
    target = tmp_path / "sweep.csv"
    assert run(capsys, *argv, "--out", str(target)) == (0, "", "")
    assert target.read_bytes() == expected.encode("ascii")
    assert run(capsys, *argv) == (0, expected, "")


def one_column_result(samples, values, reasons=None):
    samples = np.asarray(samples, dtype=np.float64)
    if reasons is None:
        reasons = [""] * len(samples)
    return SweepResult("frequency", "Hz", samples, {
        "v": (np.asarray(values, dtype=np.float64),
              np.array([GAP_REASONS.index(reason) for reason in reasons],
                       dtype=np.uint8))})


def exact_decimal_float(digits: int, exponent: int) -> float:
    """The float64 nearest digits * 10**exponent."""
    return float(Fraction(digits) * Fraction(10) ** exponent)


def adversarial_cells() -> list[float]:
    """Floats where a 13-digit %.12e is hardest to get right: constructed
    ties (n + 0.5) 10^(e-12) and their neighbours, a power of ten and its
    neighbours, m just below 10^13 (the carry into the exponent), 3-digit
    exponents, negatives, signed zeros, subnormals, inf and NaN."""
    cells = []
    for e in (-12, -5, -1, 0, 1, 2, 7, 12, 13, 14, 15, 22, 34):
        for n in (10**12, 1234567890123, 5 * 10**12, 10**13 - 1):
            tie = exact_decimal_float(2 * n + 1, e - 12) / 2
            cells += [math.nextafter(tie, -math.inf), tie,
                      math.nextafter(tie, math.inf)]
        below = exact_decimal_float(99999999999995, e - 13)
        cells += [math.nextafter(below, 0.0), below,
                  math.nextafter(below, math.inf)]
    for p in range(-25, 36):
        power = exact_decimal_float(1, p)
        cells += [math.nextafter(power, 0.0), power,
                  math.nextafter(power, math.inf)]
    cells += [1e100, 9.9999999999995e99, 2.5e-150, 1.7976931348623157e308,
              5e-324, 2.2250738585072014e-308, 1.5e-310, 0.0, -0.0,
              -1.5, -2.0000000000005e12, math.inf, -math.inf, math.nan]
    return cells


def e12_cells(xs):
    """_e12_cells' cells of a 1-D ``xs`` as (len(xs), 18) bytes, and its
    mask, written into a matrix of one cell and its ',' a row."""
    matrix = np.zeros((len(xs), _CELL_BYTES.itemsize), np.uint8)
    ok = _e12_cells(xs, matrix.view(_CELL_BYTES)[:, 0])
    return matrix[:, :-1], ok


def test_cell_formatter_is_exact_where_it_accepts():
    """_e12_cells' accepted cells are format(x, ".12e") byte for byte; it
    decides ties exactly and declines 3-digit exponents and values that
    are not > 0."""
    xs = np.array(adversarial_cells())
    cells, ok = e12_cells(xs)
    for x, cell, accepted in zip(xs.tolist(), cells, ok.tolist()):
        if accepted:
            assert cell.tobytes().decode("ascii") == format(x, ".12e")
    # sweep-like cells, a power of ten and a carry into the exponent
    carry = math.nextafter(9999999999999.5, math.inf)
    cells, ok = e12_cells(np.array([1.5e12, 28.28853622645, 1e-5, carry]))
    assert ok.all()
    assert cells[3].tobytes() == b"1.000000000000e+13"
    ties = [1000000000000.5, 2000000000000.5]
    cells, ok = e12_cells(np.array(ties))
    assert ok.all()
    assert [cell.tobytes().decode("ascii") for cell in cells] == [
        format(x, ".12e") for x in ties]
    _, ok = e12_cells(np.array([1e100, -1.5, 0.0, math.inf, math.nan]))
    assert not ok.any()


def test_cells_just_below_a_power_of_ten_take_the_exponent_below():
    """np.log10 rounds each of these up to the power of ten above it (13.0,
    3.0, -5.0), so m = v 10^k falls below 10^12; the cell takes e one lower
    and is still accepted, format(v, ".12e") byte for byte."""
    xs = [9999999999999.998, 999.9999999999999, 9.999999999999999e-06]
    cells, ok = e12_cells(np.array(xs))
    assert ok.all()
    assert [cell.tobytes().decode("ascii") for cell in cells] == [
        format(x, ".12e") for x in xs]


def test_cell_formatter_prints_every_digit_group_lead_and_exponent():
    """Each four-digit group 0000-9999 in each of a cell's three group
    places, each lead digit 1-9 and each exponent -10..34 that the fast
    path takes is printed as format(x, ".12e") prints it."""
    group = np.arange(3 * 10**4) % 10**4
    lead = np.arange(3 * 10**4) % 9 + 1
    place = 10 ** (8 - 4 * (np.arange(3 * 10**4) // 10**4))
    exponent = np.arange(3 * 10**4) % 45 - 10
    # the float nearest 10^23 is below it, so its m < 10^12 is declined: a 1
    # in another group keeps every cell off a power of ten
    digits = lead * 10**12 + group * place + np.where(place == 1, 10**8, 1)
    xs = np.array([exact_decimal_float(int(n), int(e) - 12)
                   for n, e in zip(digits, exponent)])
    cells, ok = e12_cells(xs)
    assert ok.all()
    expected = "".join(format(x, ".12e") for x in xs.tolist())
    assert cells.tobytes().decode("ascii") == expected


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.lists(st.one_of(st.floats(), st.floats(1e-10, 1e34)),
                min_size=1, max_size=40))
@example(adversarial_cells())
def test_csv_cells_are_format_12e_for_any_float(xs):
    """Through render_csv, the fast cells and the per-row fallback together
    print every float64 as format(x, ".12e")."""
    result = one_column_result(xs, xs[::-1])
    text = render_csv(result)
    assert text == reference_csv(result)
    for line, x in zip(text.splitlines()[1:], xs):
        assert line.split(",")[0] == format(x, ".12e")


def test_csv_block_with_every_fallback_case_matches_reference():
    """One block holds, among fast rows, gap rows at both of its ends, a
    negative value and a 3-digit exponent, which take the per-row fallback,
    and a tie, which the fast path decides exactly."""
    n = 50
    samples = np.linspace(1.0e12, 3.0e12, n)
    values = np.linspace(20.0, 80.0, n)
    values[7], values[19], values[31] = -3.5, 1.25e150, 1000000000000.5
    reasons = [""] * n
    reasons[0], reasons[-1] = "two-ray-null", "opaque"
    result = one_column_result(samples, values, reasons)
    text = render_csv(result)
    assert text == reference_csv(result)
    lines = text.splitlines()
    assert lines[1].endswith(",,two-ray-null")
    assert lines[-1].endswith(",,opaque")
    assert [lines[i + 1].split(",")[1] for i in (7, 19, 31)] == [
        "-3.500000000000e+00", "1.250000000000e+150", "1.000000000000e+12"]


def test_reused_block_matrix_leaks_nothing_between_blocks():
    """Three whole render blocks and a shorter tail, each written into the
    same byte matrix: the last row of the first block takes the fallback
    through a gap, the tail's first row through a declined cell, and each
    block's text stays its own after the next is written."""
    step = BLOCK_CELLS // 3  # rows of a block: the axis, v and the gap
    n = 3 * step + 100
    samples = np.linspace(1.0e12, 3.0e12, n)
    values = np.linspace(20.0, 80.0, n)
    values[3 * step] = -1.5
    reasons = [""] * n
    reasons[step - 1] = "opaque"
    result = one_column_result(samples, values, reasons)
    text = render_csv(result)
    assert text == reference_csv(result)
    assert "".join(list(csv_blocks(result))) == text
    lines = text.splitlines()
    assert lines[step].endswith(",,opaque")
    assert lines[3 * step + 1].split(",")[1] == "-1.500000000000e+00"
    assert len(lines) == n + 1


def takes_no_general_pass(x: float) -> bool:
    """x is positive and finite, its np.log10 floors to its exact decimal
    exponent e, k = 12 - e lies in [0, 22] and x 10^k rounds below 10^13:
    _e12_cells needs no mask, clip or divide for it."""
    e = Decimal(x).adjusted()  # floor(log10 x) of the exact value
    return (-10 <= e <= 12 and np.floor(np.log10(x)) == e
            and x * float(10 ** (12 - e)) < 1e13)


FAST_CELLS = st.one_of(
    st.floats(1e-10, 1e13),
    # (n + 0.5) 10^(e-12), nearest: m is a half-integer, or next to one
    st.builds(lambda n, e: exact_decimal_float(2 * n + 1, e - 12) / 2,
              st.integers(10**12, 10**13 - 1), st.integers(-10, 12)),
    # just below 10^(e+1), where m rounds up to 10^13 and carries
    st.builds(lambda j, e: exact_decimal_float(10**14 - j, e - 13),
              st.integers(1, 5), st.integers(-10, 12)),
).filter(takes_no_general_pass)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.lists(FAST_CELLS, min_size=1, max_size=40))
@example([1000000000000.5, 2000000000000.5, 28.28853622645,
          math.nextafter(9999999999999.5, math.inf), 9.9999999999995e-10])
def test_blocks_that_skip_every_general_pass_print_exactly(xs):
    """A block of cells that need no general-case pass (positive, finite,
    k in [0, 22]) runs none of them, and its ties and carries are still
    format(x, ".12e") byte for byte."""
    cells, ok = e12_cells(np.array(xs))
    assert ok.all()
    assert [cell.tobytes().decode("ascii") for cell in cells] == [
        format(x, ".12e") for x in xs]
    result = one_column_result(xs, xs[::-1])
    assert render_csv(result) == reference_csv(result)


def test_cells_at_or_above_ten_to_the_thirteen_take_the_divide():
    """Every cell >= 10^13 has k < 0, so each m is v / 10^-k and a tie is
    decided from the exact residual; 10000000000005 and 10000000000015 are
    exact ties that round half to even, down and up."""
    xs = [10000000000005.0, 10000000000015.0, 1e13, 2.5e13, 1e34]
    for e in (13, 14, 15, 22, 34):
        for n in (10**12, 1234567890123, 5 * 10**12, 10**13 - 1):
            tie = exact_decimal_float(2 * n + 1, e - 12) / 2
            xs += [math.nextafter(tie, 0.0), tie,
                   math.nextafter(tie, math.inf)]
    cells, ok = e12_cells(np.array(xs))
    assert ok.all()
    printed = [cell.tobytes().decode("ascii") for cell in cells]
    assert printed == [format(x, ".12e") for x in xs]
    assert printed[:2] == ["1.000000000000e+13", "1.000000000002e+13"]
    result = one_column_result(xs, xs[::-1])
    assert render_csv(result) == reference_csv(result)


def test_one_column_crosses_ten_to_the_thirteen_in_a_block_and_at_its_edge():
    """k < 0 and k >= 0 in one column: the axis crosses 10^13 inside the
    first block, and the values cross it exactly at the block edge."""
    step = BLOCK_CELLS // 3  # rows of a block: the axis, v and the gap
    samples = np.linspace(5.0e12, 2.0e13, 2 * step)
    values = np.concatenate([np.linspace(1.0e12, 9.99e12, step),
                             np.linspace(1.0e13, 3.0e13, step)])
    result = one_column_result(samples, values)
    text = render_csv(result)
    assert text == reference_csv(result)
    assert [line.split(",")[:2] for line in text.splitlines()[1:]] == [
        [format(x, ".12e"), format(v, ".12e")]
        for x, v in zip(samples.tolist(), values.tolist())]


@pytest.mark.parametrize("general_first", [False, True])
def test_blocks_that_take_different_guards_render_in_either_order(
        general_first):
    """One block needs no general-case pass; the other has a declined
    cell, a 3-digit exponent, k < 0, a tie, a carry and a gap row. Each
    block's cells are their own, whichever is rendered first."""
    step = BLOCK_CELLS // 3
    plain = np.linspace(20.0, 80.0, step)
    general = np.linspace(20.0, 80.0, step)
    general[[3, 5, 7, 9, 11, 13]] = [
        -1.5, 1.25e150, 2.5e13, 1000000000000.5,
        math.nextafter(9999999999999.5, math.inf), math.nan]
    reasons = [""] * (2 * step)
    blocks = [general, plain] if general_first else [plain, general]
    reasons[(0 if general_first else step) + 17] = "opaque"
    samples = np.linspace(1.0e12, 3.0e12, 2 * step)
    result = one_column_result(samples, np.concatenate(blocks), reasons)
    text = render_csv(result)
    assert text == reference_csv(result)
    cells = [line.split(",")[1] for line in text.splitlines()[1:]]
    assert cells == [
        "" if reason else format(v, ".12e") for v, reason in
        zip(np.concatenate(blocks).tolist(), reasons)]


@pytest.mark.parametrize("argv", [
    ("capacity", "--frequency", "1e10"),
    ("capacity", "--frequency=-1e12"),
    ("capacity", "--frequency", "inf"),
    ("capacity", "--allocation", "flat", "--frequency", "0"),
    ("sweep", "--axis", "temperature", "--points", "3", "--freqs", "1e10"),
    ("sweep", "--axis", "temperature", "--points", "3", "--freqs", "-1e12"),
    ("sweep", "--axis", "pressure", "--points", "3", "--freqs", "0"),
    ("sweep", "--axis", "frequency", "--metric", "capacity", "--points",
     "3", "--from", "1e10"),
    ("capacity", "--frequency", "1e26"),
    ("capacity", "--frequency", "1e155"),
    ("sweep", "--axis", "frequency", "--metric", "capacity", "--from",
     "1e155", "--to", "1e156", "--points", "2")],
    ids=["capacity-1e10", "capacity-negative", "capacity-inf",
         "capacity-flat-zero", "temperature-1e10", "temperature-negative",
         "pressure-zero", "capacity-sweep-1e10", "capacity-subbands-collapse",
         "capacity-edges-collapse", "capacity-sweep-edges-collapse"])
def test_out_of_band_frequency_exits_2(capsys, argv):
    """A frequency that puts the band below 0 Hz is a model-domain error,
    as it is for `pathloss --frequency=-1e12`."""
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("model error:")
    assert "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ("pathloss", "--frequency", "1e300"),
    ("pathloss", "--distance", "1e-300"),
    ("pathloss", "--frequency", "1e160", "--format", "csv"),
    ("sweep", "--axis", "frequency", "--from", "1e300", "--to", "1e301",
     "--points", "3"),
    ("sweep", "--axis", "frequency", "--distances", "1e-300", "--points",
     "2")],
    ids=["spreading-overflows", "argument-overflows", "kernel-overflows",
         "sweep-overflows", "sweep-argument-overflows"])
def test_term_outside_float64_exits_2(capsys, argv):
    """A frequency or distance that overflows a two-ray or kernel term is
    a one-line model error, never a traceback or a nan cell."""
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("model error:")
    assert err.count("\n") == 1
    assert "outside float64" in err


@pytest.mark.parametrize("argv, code, named", [
    (("pathloss", "--temperature=1e-300", "--format", "csv"), 2,
     "temperature 1e-300 K"),
    (("pathloss", "--temperature=5e-324"), 2, "temperature 5e-324 K"),
    (("pathloss", "--temperature=inf"), 1, "t_s must be finite"),
    (("capacity", "--pressure=inf"), 1, "p must be finite"),
    (("sweep", "--axis", "temperature", "--from", "1e-300", "--to", "1e-299",
      "--points", "2"), 2, "temperature 1e-300 K"),
    # line 5's half-width squares to 0 (1e-300 atm) or to a subnormal
    # (1e-165 atm), so its pole at its own center leaves float64
    (("pathloss", "--pressure", "1e-300", "--frequency", "894558370500.0",
      "--format", "csv"), 2, "894558370500.0 Hz is on the center of line 5"),
    (("pathloss", "--pressure", "1e-165", "--frequency", "894558370500.0"),
     2, "894558370500.0 Hz is on the center of line 5"),
    # finite floors of ~1.35e288 W, beside which the 1 uW budget rounds away
    (("sweep", "--axis", "temperature", "--from", "1e299", "--to", "1e300",
      "--points", "3"), 2, "budget 1e-06 W is lost to rounding beside the "
     "lowest floor, 1.35110112963850")],
    ids=["pathloss-cold", "pathloss-subnormal", "pathloss-hot",
         "capacity-pressure", "sweep-cold", "pathloss-thin-center",
         "pathloss-subnormal-width-center", "sweep-hot-floors"])
def test_extreme_temperature_or_pressure_is_one_error_line(capsys, argv,
                                                           code, named):
    """A temperature or pressure that float64 cannot carry through the
    line factors or the water-filling is one error line naming what it
    loses: no nan cell, no warning."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got, out, err = run(capsys, *argv)
    assert got == code
    assert out == ""
    assert err.count("\n") == 1
    assert named in err


def test_capacity_at_a_nearly_transparent_extreme_exits_0(capsys):
    """kappa d ~ 1e-200 leaves the floors at the system noise alone."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, "capacity", "--temperature", "1e-170",
                             "--pressure", "1e-200")
    assert code == 0
    assert err == ""
    assert re.search(r"capacity\s+: [\d.]+e\+\d+ bits/s", out)


def test_pressure_axis_that_underflows_in_atm_names_the_kpa_value(capsys):
    code, out, err = run(capsys, "sweep", "--axis", "pressure", "--from",
                         "5e-324", "--to", "1e-323", "--points", "2")
    assert code == 1
    assert out == ""
    assert err.count("\n") == 1
    assert "pressure 5e-324 kPa underflows" in err


def test_thin_lines_off_their_centers_give_finite_cells(capsys):
    """At 1e-300 atm every half-width squares to 0, yet off the centers
    the medium is only nearly transparent."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, "pathloss", "--pressure", "1e-300",
                             "--frequency", "1e12", "--format", "csv")
    assert code == 0
    assert err == ""
    header, row = out.splitlines()
    assert header.startswith("f_Hz,")
    assert all(math.isfinite(float(cell)) for cell in row.split(","))


def test_axis_too_long_to_allocate_exits_1(capsys):
    code, out, err = run(capsys, "sweep", "--axis", "frequency", "--points",
                         str(10**20))
    assert code == 1
    assert out == ""
    assert err.count("\n") == 1
    assert "axis of 100000000000000000000 points" in err


@pytest.mark.parametrize("argv, message", [
    (("--axis", "frequency", "--from", "1e12", "--to", "1e300", "--log",
      "--points", "5000"),
     "frequency 1e+300 Hz puts f^2 tanh(a f) outside float64"),
    (("--axis", "frequency", "--from", "1e12", "--to", "1e300", "--log",
      "--points", "5000", "--metric", "capacity"),
     "frequency 1.0476206269564685e+25 Hz is too large to split a "
     "100000000000.0 Hz band into 64 subbands in float64"),
    # the first five blocks of rows evaluate before the sixth fails
    (("--axis", "temperature", "--from", "250", "--to", "1e30", "--log",
      "--points", "1000"),
     "no fundable subband: the budget 1e-06 W is lost to rounding beside "
     "the lowest floor, 18262383962.596256 W")],
    ids=["pathloss", "capacity", "row-level"])
def test_failed_sweep_leaves_the_out_file_as_it_was(capsys, tmp_path, argv,
                                                    message):
    """A sweep that fails writes nothing: an existing --out file keeps its
    bytes and no other file is left beside it."""
    target = tmp_path / "sweep.csv"
    target.write_bytes(b"an earlier sweep\n")
    assert run(capsys, "sweep", *argv, "--out", str(target)) == (
        2, "", f"model error: {message}\n")
    assert target.read_bytes() == b"an earlier sweep\n"
    assert [path.name for path in tmp_path.iterdir()] == ["sweep.csv"]


def child_peak_rss_mib(tmp_path, *argv) -> float:
    """Peak RSS [MiB] of a child process that runs the CLI on ``argv`` with
    its output to a file: the VmHWM of its own address space. (Its
    getrusage ru_maxrss would also count the address space it was spawned
    from, this test process's.)"""
    src = os.path.dirname(os.path.dirname(thzlink.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    script = ("import re, sys; from thzlink.cli import main; "
              "code = main(sys.argv[1:]); "
              "status = open('/proc/self/status').read(); "
              "print(re.search(r'VmHWM:\\s*(\\d+) kB', status)[1]); "
              "sys.exit(code)")
    child = subprocess.run(
        [sys.executable, "-c", script, *argv, "--out",
         str(tmp_path / "sweep.csv")],
        capture_output=True, env=env, timeout=600)
    assert child.returncode == 0, child.stderr
    return int(child.stdout) / 1024


@pytest.mark.skipif(not os.path.exists("/proc/self/status"),
                    reason="reads the peak RSS from /proc/self/status")
@pytest.mark.parametrize("axis, small, large", [
    (("--axis", "frequency", "--metric", "capacity"), 2000, 50000),
    (("--axis", "pressure"), 2000, 20000)], ids=["capacity", "pressure"])
def test_sweep_peak_memory_does_not_grow_with_points(tmp_path, axis, small,
                                                     large):
    """The CLI evaluates and writes a sweep one block of rows at a time, so
    only the 8-byte axis grows with --points. Whole-axis evaluation took
    the child's peak from 34 to 129 MiB (capacity) and from 36 to 81 MiB
    (pressure) over these point counts."""
    peaks = [child_peak_rss_mib(tmp_path, "sweep", *axis, "--points", str(n))
             for n in (small, large)]
    assert peaks[1] - peaks[0] < 16, peaks


def test_scenario_band_below_zero_exits_1(capsys, tmp_path):
    path = write_scenario(tmp_path, {"band": {"center": 1.0e10}})
    code, out, err = run(capsys, "capacity", "--scenario", path)
    assert code == 1
    assert out == ""
    assert "band edges must satisfy" in err


def one_error_line(code, out, err):
    """Exit 1 with nothing on stdout and one `error:` line on stderr."""
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    return err


class TestFileAndStreamErrors:
    def test_missing_bundled_catalog(self, capsys, monkeypatch):
        """An installed package without data/thz_lines.par."""
        monkeypatch.delenv("THZ_CATALOG", raising=False)
        monkeypatch.setattr(config, "BUNDLED_CATALOG", "no_such.par")
        err = one_error_line(*run(capsys, "pathloss"))
        assert "cannot read the bundled catalog" in err

    def test_catalog_with_a_non_ascii_byte(self, capsys, tmp_path):
        path = tmp_path / "latin1.par"
        path.write_bytes(config.read_bundled_catalog().encode("ascii")
                         + "caf\xe9\n".encode("latin-1"))
        err = one_error_line(*run(capsys, "pathloss", "--catalog", str(path)))
        assert "cannot read catalog" in err and "ascii" in err

    def test_scenario_that_is_not_utf8(self, capsys, tmp_path):
        path = tmp_path / "scenario.json"
        path.write_bytes(b'{"p_t": 1e-6, "x": "\xff"}')
        err = one_error_line(*run(capsys, "pathloss", "--scenario",
                                  str(path)))
        assert "is not valid JSON" in err and "utf-8" in err

    @pytest.mark.parametrize("name", ["missing/out.csv", "."],
                             ids=["missing-directory", "a-directory"])
    def test_out_that_cannot_be_written(self, capsys, tmp_path, name):
        target = str(tmp_path / name)
        err = one_error_line(*run(capsys, "sweep", "--axis", "distance",
                                  "--points", "3", "--out", target))
        assert f"cannot write {target!r}" in err

    def test_out_to_a_device_is_written_in_place(self, capsys):
        """Only a regular file is replaced through a temporary file; a
        device such as the null device stays what it is."""
        assert run(capsys, "sweep", "--axis", "distance", "--points", "3",
                   "--out", os.devnull) == (0, "", "")
        assert stat.S_ISCHR(os.stat(os.devnull).st_mode)

    def test_stdout_closed_early_exits_1_quietly(self):
        """`thzlink sweep ... | head -1`: the reader leaves after one line."""
        src = os.path.dirname(os.path.dirname(thzlink.__file__))
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))}
        child = subprocess.Popen(
            [sys.executable, "-c",
             "import sys; from thzlink.cli import main; sys.exit(main())",
             "sweep", "--axis", "frequency", "--points", "20000"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
        assert child.stdout.readline().startswith(b"frequency_Hz,")
        child.stdout.close()  # far more than a pipe holds is still unwritten
        err = child.stderr.read()
        child.stderr.close()
        assert (child.wait(timeout=120), err) == (1, b"")

    def test_entry_point_closed_early_exits_1_quietly(self):
        """`python -m thzlink.cli sweep ... | head -n 1` on 200 000 points:
        the reader leaves while most rows are unwritten, and the run ends
        with exit 1 and nothing on stderr."""
        src = os.path.dirname(os.path.dirname(thzlink.__file__))
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))}
        child = subprocess.Popen(
            [sys.executable, "-m", "thzlink.cli", "sweep", "--axis",
             "frequency", "--points", "200000"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
        assert child.stdout.readline().startswith(b"frequency_Hz,")
        child.stdout.close()
        err = child.stderr.read()
        child.stderr.close()
        assert (child.wait(timeout=120), err) == (1, b"")


@pytest.mark.parametrize("doc, named", [
    ({"p_t": "abc"}, "p_t must be a number, got a string"),
    ({"geometry": {"d": "x"}}, "geometry.d must be a number"),
    ({"band": 5}, "band must be an object, got an integer"),
    ({"medium": 5}, "medium must be an object"),
    ({"medium": {"epsilon_r": 1, "composition": 5}},
     "medium.composition must be an array"),
    ({"environment": {"t_s": None}}, "environment.t_s must be a number, "
     "got null"),
    ({"medium": {"epsilon_r": 1, "composition": [
        {"gas_id": "a", "iso_id": 1, "q": 0.25}]}},
     "medium.composition[0].gas_id must be an integer, got a string"),
    ({"p_t": 10**400}, "p_t is outside float64"),
    ({"band": {"subbands": 2.5}}, "band.subbands must be an integer, got "
     "a number"),
    ({"baseline": "no"}, "baseline must be a boolean, got a string"),
    ({"medium": {"epsilon_r": True, "composition": []}},
     "medium.epsilon_r must be a number, got a boolean"),
    ({"band": {"subbands": 0}}, "cannot split the band into 0 subbands"),
    ({"band": {"subbands": 10**20}}, "cannot split the band into "
     "100000000000000000000 subbands")],
    ids=["string-number", "string-section-number", "number-section",
         "number-medium", "number-array", "null-number", "string-integer",
         "huge-number", "fraction-integer", "string-boolean",
         "boolean-number", "zero-subbands", "huge-subbands"])
def test_scenario_value_of_the_wrong_type_exits_1(capsys, tmp_path, doc,
                                                  named):
    """Each value has the JSON type of its default; a mismatch is one error
    line that names the key path."""
    path = write_scenario(tmp_path, doc)
    err = one_error_line(*run(capsys, "capacity", "--scenario", path))
    assert named in err


def test_scenario_sample_is_the_default_scenario():
    """README points to data/scenario_sample.json for a scenario's full
    shape: it holds config.DEFAULT_SCENARIO, key for key and type for
    type."""
    path = os.path.join(os.path.dirname(thzlink.__file__), "data",
                        "scenario_sample.json")
    with open(path, encoding="utf-8") as handle:
        sample = json.load(handle)
    assert (json.dumps(sample, sort_keys=True)
            == json.dumps(DEFAULT_SCENARIO, sort_keys=True))


def test_integral_float_is_an_integer(capsys, tmp_path):
    path = write_scenario(tmp_path, {"band": {"subbands": 64.0}})
    assert run(capsys, "capacity", "--scenario", path) == \
        run(capsys, "capacity")


class TestCatalogResolution:
    def test_env_var_is_honored(self, capsys, monkeypatch):
        monkeypatch.setenv("THZ_CATALOG", "/no/such.par")
        code, _, err = run(capsys, "pathloss")
        assert code == 1
        assert "cannot read catalog" in err

    def test_explicit_catalog_wins(self, capsys, monkeypatch, tmp_path):
        from thzlink.config import read_bundled_catalog
        target = tmp_path / "copy.par"
        target.write_text(read_bundled_catalog())
        monkeypatch.setenv("THZ_CATALOG", "/no/such.par")
        code, out, _ = run(capsys, "pathloss", "--catalog", str(target))
        assert code == 0

    def test_malformed_catalog_exits_1(self, capsys, tmp_path):
        bad = tmp_path / "bad.par"
        bad.write_text("this is not a catalog record\n")
        code, _, err = run(capsys, "pathloss", "--catalog", str(bad))
        assert code == 1
        assert "line 1" in err


class TestOverrides:
    def test_flags_beat_scenario_file(self, capsys, tmp_path):
        path = write_scenario(tmp_path, {"environment": {"t_s": 350.0}})
        _, out_file, _ = run(capsys, "pathloss", "--scenario", path)
        _, out_flag, _ = run(capsys, "pathloss", "--scenario", path,
                             "--temperature", "296")
        _, out_default, _ = run(capsys, "pathloss")
        assert out_flag == out_default
        assert out_file != out_default

    def test_unknown_scenario_key_rejected(self, capsys, tmp_path):
        path = write_scenario(tmp_path, {"geom": {"d": 1e-4}})
        code, _, err = run(capsys, "pathloss", "--scenario", path)
        assert code == 1
        assert "unknown scenario keys" in err

    @pytest.mark.parametrize("medium, named", [
        ({"epsilon_r": 1, "composition": [], "zz": 1},
         "unknown keys ['zz'] in scenario section 'medium'"),
        ({"epsilon_r": 1, "composition": [
            {"gas_id": 1, "iso_id": 1, "q": 0.25, "x": 1}]},
         "composition[0] has unknown keys ['x']")],
        ids=["medium", "composition-entry"])
    def test_unknown_medium_key_is_one_error_line(self, capsys, tmp_path,
                                                  medium, named):
        path = write_scenario(tmp_path, {"medium": medium})
        code, out, err = run(capsys, "pathloss", "--scenario", path)
        assert (code, out) == (1, "")
        assert err == f"error: {named}\n"

    def test_species_missing_from_catalog_is_one_warning_line(self, capsys,
                                                              tmp_path):
        path = write_scenario(tmp_path, {"medium": {
            "epsilon_r": 1, "composition": [
                {"gas_id": 3, "iso_id": 1, "q": 0.01}]}})
        code, out, err = run(capsys, "pathloss", "--scenario", path)
        assert code == 0
        assert out.startswith("frequency ")
        assert err == "warning: no catalog records for species (3, 1)\n"


# Values every numeric flag may take, then each flag's typical values.
FUZZ_VALUES = ["0", "-1", "nan", "inf", "-inf", "1e-300", "1e26", "1e155",
               "1e300"]
TYPICAL = {"--frequency": ["1.2e12"], "--power": ["1e-6"],
           "--distance": ["1e-4"], "--temperature": ["296"],
           "--pressure": ["1"], "--from": ["1e-5", "250", "20", "1e12"],
           "--to": ["1e-4", "400", "200", "3e12"]}


@st.composite
def float_lists(draw):
    values = draw(st.lists(st.sampled_from(FUZZ_VALUES + ["1e-4", "1.2e12"]),
                           min_size=1, max_size=3))
    return draw(st.sampled_from(["", ",", "nan", ",".join(values),
                                 ",".join(values + values[:1])]))


@st.composite
def cli_argvs(draw):
    """A pathloss, capacity or sweep command with a random mix of flags. A
    sweep draws its axis first, and then neither --frequency nor the axis's
    own override flag, which exit 1 before any sweep runs."""
    command = draw(st.sampled_from(["pathloss", "capacity", "sweep"]))
    argv = [command]
    not_taken = ["--from", "--to"]
    if command == "sweep":
        axis = draw(st.sampled_from(["frequency", "temperature", "pressure",
                                     "distance"]))
        argv += ["--axis", axis, "--points", str(draw(st.integers(0, 3)))]
        not_taken = ["--frequency", f"--{axis}"]
    numeric = [flag for flag in TYPICAL if flag not in not_taken]
    for flag in draw(st.lists(st.sampled_from(numeric), unique=True)):
        value = draw(st.sampled_from(FUZZ_VALUES + TYPICAL[flag]))
        argv += draw(st.sampled_from([[flag, value], [f"{flag}={value}"]]))
    if draw(st.booleans()):
        argv.append("--baseline")
    if command == "capacity" and draw(st.booleans()):
        argv += ["--allocation", draw(st.sampled_from(["waterfilling",
                                                       "flat"]))]
    if command == "sweep":
        optional = {"--log": [], "--metric": ["pathloss", "capacity"],
                    "--allocation": ["waterfilling", "flat", "both"],
                    "--distances": None, "--freqs": None}
        for flag in draw(st.lists(st.sampled_from(sorted(optional)),
                                  unique=True)):
            choices = optional[flag]
            if choices is None:
                argv += [flag, draw(float_lists())]
            else:
                argv += [flag] + ([draw(st.sampled_from(choices))]
                                  if choices else [])
    return argv


@settings(max_examples=200, deadline=None, derandomize=True)
@given(cli_argvs())
def test_exit_code_contract_holds_for_any_flags(tmp_path_factory, argv):
    """Any flag mix exits 0, 1 or 2, no exception escapes main, and a
    command that fails leaves no --out file."""
    out_dir = tmp_path_factory.getbasetemp() / "fuzzed_out"
    out_dir.mkdir(exist_ok=True)
    for earlier in out_dir.iterdir():
        earlier.unlink()
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv + ["--out", str(out_dir / "out.txt")])
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    if code:
        assert list(out_dir.iterdir()) == []


def key_paths(default, path=()):
    """Every key path below a DEFAULT_SCENARIO value, array items too."""
    items = (default.items() if isinstance(default, dict)
             else enumerate(default) if isinstance(default, list) else ())
    for key, value in items:
        yield path + (key,)
        yield from key_paths(value, path + (key,))


# a value of each JSON type, numbers outside float64 and non-integral ones
WRONG_VALUES = st.one_of(
    st.text(max_size=4), st.none(), st.booleans(),
    st.lists(st.one_of(st.integers(-2, 2), st.text(max_size=2), st.none()),
             max_size=3),
    st.dictionaries(st.sampled_from(["d", "q", "gas_id", "t_s", "x"]),
                    st.one_of(st.integers(-2, 2), st.none()), max_size=2),
    st.integers(10**20, 10**400), st.integers(-10**400, -10**20),
    st.floats().filter(lambda x: not x.is_integer()))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.sampled_from(list(key_paths(DEFAULT_SCENARIO))), WRONG_VALUES,
       st.sampled_from(["pathloss", "capacity"]))
def test_exit_code_contract_holds_for_any_scenario_value(tmp_path_factory,
                                                         path, value,
                                                         command):
    """A scenario file with one value replaced by one of another JSON type
    exits 0, 1 or 2, and no exception escapes main."""
    doc = json.loads(json.dumps(DEFAULT_SCENARIO))
    parent = functools.reduce(lambda node, key: node[key], path[:-1], doc)
    parent[path[-1]] = value
    scenario = tmp_path_factory.getbasetemp() / "fuzzed_scenario.json"
    scenario.write_text(json.dumps(doc))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([command, "--scenario", str(scenario)])
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
