import contextlib
import functools
import io
import json
import re
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_grid_fixtures import gap_scenario, null_frequency

from thzlink.cli import main, render_csv, render_table
from thzlink.config import load_scenario
from thzlink.constants import LIGHT_SPEED
from thzlink.sweep import sweep_pathloss_vs_frequency, sweep_vs_temperature

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
      "--points", "2"), 2, "temperature 1e-300 K")],
    ids=["pathloss-cold", "pathloss-subnormal", "pathloss-hot",
         "capacity-pressure", "sweep-cold"])
def test_extreme_temperature_or_pressure_is_one_error_line(capsys, argv,
                                                           code, named):
    """A temperature or pressure that float64 cannot carry through the
    line factors is one error line naming it: no nan cell, no warning."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got, out, err = run(capsys, *argv)
    assert got == code
    assert out == ""
    assert err.count("\n") == 1
    assert named in err


def test_scenario_band_below_zero_exits_1(capsys, tmp_path):
    path = write_scenario(tmp_path, {"band": {"center": 1.0e10}})
    code, out, err = run(capsys, "capacity", "--scenario", path)
    assert code == 1
    assert out == ""
    assert "band edges must satisfy" in err


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
    """A pathloss, capacity or sweep command with a random mix of flags."""
    command = draw(st.sampled_from(["pathloss", "capacity", "sweep"]))
    argv = [command]
    numeric = [flag for flag in TYPICAL
               if command == "sweep" or flag not in ("--from", "--to")]
    for flag in draw(st.lists(st.sampled_from(numeric), unique=True)):
        value = draw(st.sampled_from(FUZZ_VALUES + TYPICAL[flag]))
        argv += draw(st.sampled_from([[flag, value], [f"{flag}={value}"]]))
    if draw(st.booleans()):
        argv.append("--baseline")
    if command == "capacity" and draw(st.booleans()):
        argv += ["--allocation", draw(st.sampled_from(["waterfilling",
                                                       "flat"]))]
    if command == "sweep":
        argv += ["--axis", draw(st.sampled_from(
                     ["frequency", "temperature", "pressure", "distance"])),
                 "--points", str(draw(st.integers(0, 3)))]
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
def test_exit_code_contract_holds_for_any_flags(argv):
    """Any flag mix exits 0, 1 or 2, and no exception escapes main."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
