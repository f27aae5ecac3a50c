import json
import re

import pytest

from thzlink.cli import main
from thzlink.constants import LIGHT_SPEED

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
