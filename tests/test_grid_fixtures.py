"""Sweep outputs pinned to CSV fixtures under ``tests/data``.

The capacity fixtures were captured from the per-point implementation (one
``channel_capacity`` call per axis point and subband loop per call) that
the batched channel-grid engine replaced; the two ``pathloss_frequency``
fixtures from the per-point ``dielectric_path_loss`` loop that the path-loss
cells replaced. Every value cell must agree with its fixture to rel 1e-12,
and every gap cell must carry the same reason. Cells are stored at full
precision (``repr``), so the comparison never sees the rounding of the
%.12e CSV format.

Regenerate (only after a deliberate model change) with
``PYTHONPATH=src python tests/test_grid_fixtures.py [NAME ...]``; with no
names every fixture is rewritten.
"""

import csv
import math
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from thzlink.capacity import BandPlan
from thzlink.config import load_scenario
from thzlink.constants import LIGHT_SPEED
from thzlink.spectro import Medium, SpectralLine
from thzlink.sweep import (sweep_capacity_vs_distance,
                           sweep_capacity_vs_frequency,
                           sweep_pathloss_vs_frequency, sweep_vs_pressure,
                           sweep_vs_temperature)

DATA = Path(__file__).parent / "data"
REL_TOL = 1.0e-12


def gap_scenario():
    """A scenario whose sweeps hit two-ray nulls and an opaque line.

    One narrow, overwhelming line at 1.2 THz makes the path loss there
    opaque while the subbands around it stay fundable; 63 subbands put a
    subband center on every band center, so a band centered on the
    two-ray null frequency has a null subband.
    """
    base = load_scenario()
    line = SpectralLine(gas_id=1, iso_id=1, f_c0=1.2e12,
                        line_intensity=1.0e16, alpha_air=1.0e7,
                        alpha_self=1.0e7, temp_exponent=0.7,
                        pressure_shift=0.0)
    return replace(base, medium=Medium(composition={(1, 1): 0.25},
                                       lines=(line,)),
                   band=BandPlan.centered(1.2e12, 1.0e11, 63))


def null_frequency(scenario):
    geom = scenario.geom
    return LIGHT_SPEED * geom.d / (2.0 * geom.h_t * geom.h_r)


def null_distance(scenario):
    """Separation that puts the lowest subband center on a null."""
    geom = scenario.geom
    f_low = float(scenario.band.f_k[0])
    return 2.0 * geom.h_t * geom.h_r * f_low / LIGHT_SPEED


def _cases():
    default = load_scenario()
    gaps = gap_scenario()
    f_null = null_frequency(gaps)
    gap_freqs = [1.2e12, f_null]
    # 1e-5 m puts f_null / 10 on a null and 1.2 THz deep in the opaque
    # line; 1.5e-7 m stays below the overflow cap and off every null
    gap_distances = [1.5e-7, 1.0e-5]
    return {
        "distance": lambda: sweep_capacity_vs_distance(
            default, (1.0e-5, 1.0e-4), 19, "both"),
        "temperature": lambda: sweep_vs_temperature(
            default, (250.0, 400.0), 11),
        "pressure": lambda: sweep_vs_pressure(default, (20.0, 200.0), 11),
        "capacity_frequency": lambda: sweep_capacity_vs_frequency(
            default, (1.0e12, 3.0e12), 9),
        "gaps_distance": lambda: sweep_capacity_vs_distance(
            gaps, (null_distance(gaps), 1.0e-4), 7, "both"),
        "gaps_temperature": lambda: sweep_vs_temperature(
            gaps, (250.0, 400.0), 5, gap_freqs),
        "gaps_pressure": lambda: sweep_vs_pressure(
            gaps, (20.0, 200.0), 5, gap_freqs),
        "gaps_capacity_frequency": lambda: sweep_capacity_vs_frequency(
            gaps, (f_null, 1.001 * f_null), 3),
        "pathloss_frequency": lambda: sweep_pathloss_vs_frequency(
            default, (1.0e12, 3.0e12), 101, [1.0e-4, 1.0e-3, 1.0e-2, 2.0e-2]),
        "gaps_pathloss_frequency": lambda: sweep_pathloss_vs_frequency(
            gaps, (1.2e12, f_null / 10.0), 5, gap_distances),
    }


CASES = sorted(_cases())


def cells(result):
    """Header and rows: the axis value, then each column's value or gap.

    Also checks that ``result.gaps`` lists the gaps row by row, in column
    order, which is the order the CSV cannot record.
    """
    reasons = {(x, column): reason for x, column, reason in result.gaps}
    assert result.gaps == [(x, column, reasons[(x, column)])
                           for x, row in result.points
                           for column in result.columns if column not in row]
    rows = []
    for x, row in result.points:
        rows.append([repr(x)] + [
            repr(row[column]) if column in row else reasons[(x, column)]
            for column in result.columns])
    return [f"{result.axis}_{result.unit}"] + result.columns, rows


def write_fixtures(names=()):
    DATA.mkdir(exist_ok=True)
    for name, run in _cases().items():
        if names and name not in names:
            continue
        header, rows = cells(run())
        with open(DATA / f"sweep_{name}.csv", "w", newline="") as handle:
            writer = csv.writer(handle, lineterminator="\n")
            writer.writerow(header)
            writer.writerows(rows)


def read_fixture(name):
    with open(DATA / f"sweep_{name}.csv", newline="") as handle:
        header, *rows = list(csv.reader(handle))
    return header, rows


def as_float(cell):
    try:
        return float(cell)
    except ValueError:
        return None  # a gap reason


@pytest.mark.parametrize("name", CASES)
def test_sweep_matches_fixture(name):
    expected_header, expected_rows = read_fixture(name)
    header, rows = cells(_cases()[name]())
    assert header == expected_header
    assert len(rows) == len(expected_rows)
    for row, expected in zip(rows, expected_rows):
        assert row[0] == expected[0]  # axis values are bitwise equal
        for column, cell, want in zip(header[1:], row[1:], expected[1:]):
            got, ref = as_float(cell), as_float(want)
            where = f"{name}: {column} at {row[0]}"
            if ref is None or got is None:
                assert cell == want, where
            else:
                assert math.isclose(got, ref, rel_tol=REL_TOL,
                                    abs_tol=0.0), where


def test_fixtures_cover_every_gap_reason():
    reasons = set()
    for name in CASES:
        _header, rows = read_fixture(name)
        reasons |= {cell for row in rows for cell in row[1:]
                    if as_float(cell) is None}
    assert reasons == {"two-ray-null", "opaque"}


if __name__ == "__main__":
    write_fixtures(sys.argv[1:])
