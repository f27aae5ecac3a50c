"""End-to-end acceptance suite.

Each test prints one `[criterion N] name: PASS/FAIL` line (run with
``pytest tests/test_acceptance.py -v -s`` to see them stream) and asserts
the criterion at its stated tolerance.
"""

import math
import time

import numpy as np
import pytest

from thzlink.absorption import Environment, medium_kappa
from thzlink.capacity import (BandPlan, approx_capacity_small_antenna,
                              channel_capacity, noise_power,
                              molecular_noise_temperature, psi_coefficients,
                              water_filling)
from thzlink.constants import BOLTZMANN, LIGHT_SPEED
from thzlink.errors import CatalogParseError
from thzlink.propagation import (LinkGeometry, db, link_budget_db,
                                 total_path_loss, two_ray_argument)
from thzlink.spectro import Medium, parse_line_catalog, serialize_line
from thzlink.sweep import (Scenario, sweep_capacity_vs_distance,
                           sweep_capacity_vs_frequency,
                           sweep_pathloss_vs_frequency, sweep_vs_pressure,
                           sweep_vs_temperature)

SPIKE_TARGETS = (1.21e12, 1.28e12, 1.45e12)
SPIKE_WINDOW = 0.03e12
TEST_FREQS = (1.0e12, 1.2e12, 1.5e12)


def _report(number, name, ok, detail=""):
    line = f"[criterion {number}] {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


def _column(result, name):
    return [(x, row[name]) for x, row in result.points if name in row]


def _local_maxima(series):
    return [series[i][0] for i in range(1, len(series) - 1)
            if series[i][1] > series[i - 1][1]
            and series[i][1] > series[i + 1][1]]


def test_criterion_1_spike_locations(default_scenario):
    started = time.perf_counter()
    result = sweep_pathloss_vs_frequency(default_scenario,
                                         (1.0e12, 3.0e12), 2000)
    elapsed = time.perf_counter() - started
    maxima = _local_maxima(_column(result, "L_db_proposed_d0.0001m"))
    missing = [t for t in SPIKE_TARGETS
               if not any(abs(f - t) <= SPIKE_WINDOW for f in maxima)]
    _report(1, "spike locations", not missing and elapsed < 60.0,
            f"{len(maxima)} maxima, runtime {elapsed:.1f}s")


def test_criterion_2_model_ordering(default_scenario):
    violations = 0
    points = 0

    loss = sweep_pathloss_vs_frequency(
        default_scenario, (1.0e12, 3.0e12), 401,
        d_values=[1e-4, 1e-3, 1e-2, 2e-2])
    for d_label in ("d0.0001m", "d0.001m", "d0.01m", "d0.02m"):
        prop = _column(loss, f"L_db_proposed_{d_label}")
        conv = _column(loss, f"L_db_conventional_{d_label}")
        points += len(prop)
        violations += sum(1 for p, c in zip(prop, conv) if p[1] < c[1])

    cap = sweep_capacity_vs_frequency(default_scenario, (1.0e12, 3.0e12), 41)
    prop = _column(cap, "C_bps_proposed")
    conv = _column(cap, "C_bps_conventional")
    points += len(prop)
    violations += sum(1 for p, c in zip(prop, conv) if p[1] > c[1])

    temp = sweep_vs_temperature(default_scenario, (250.0, 400.0), 16)
    pres = sweep_vs_pressure(default_scenario, (20.0, 200.0), 16)
    for result in (temp, pres):
        for f in TEST_FREQS:
            label = f"f{f:g}Hz"
            lp = _column(result, f"L_db_proposed_{label}")
            lc = _column(result, f"L_db_conventional_{label}")
            cp = _column(result, f"C_bps_proposed_{label}")
            cc = _column(result, f"C_bps_conventional_{label}")
            points += len(lp) + len(cp)
            violations += sum(1 for p, c in zip(lp, lc) if p[1] < c[1])
            violations += sum(1 for p, c in zip(cp, cc) if p[1] > c[1])

    dist = sweep_capacity_vs_distance(default_scenario, (1.0e-5, 1.0e-4), 19)
    for scheme in ("waterfilling", "flat"):
        cp = _column(dist, f"C_bps_proposed_{scheme}")
        cc = _column(dist, f"C_bps_conventional_{scheme}")
        points += len(cp)
        violations += sum(1 for p, c in zip(cp, cc) if p[1] > c[1])

    _report(2, "proposed/conventional ordering", violations == 0,
            f"{points} points, {violations} violations")


def test_criterion_3_temperature_and_pressure_laws(default_scenario):
    failures = []
    temp = sweep_vs_temperature(default_scenario, (250.0, 400.0), 16)
    pres = sweep_vs_pressure(default_scenario, (20.0, 200.0), 16)
    for f in TEST_FREQS:
        label = f"f{f:g}Hz"
        prop_t = [v for _, v in _column(temp, f"L_db_proposed_{label}")]
        conv_t = [v for _, v in _column(temp, f"L_db_conventional_{label}")]
        if not all((a - b) / abs(a) > 1e-12
                   for a, b in zip(prop_t, prop_t[1:])):
            failures.append(f"T law not strictly decreasing at {label}")
        if any(v != conv_t[0] for v in conv_t):
            failures.append(f"conventional varies with T at {label}")
        prop_p = [v for _, v in _column(pres, f"L_db_proposed_{label}")]
        conv_p = [v for _, v in _column(pres, f"L_db_conventional_{label}")]
        if not all((b - a) / abs(a) > 1e-12
                   for a, b in zip(prop_p, prop_p[1:])):
            failures.append(f"p law not strictly increasing at {label}")
        if any(v != conv_p[0] for v in conv_p):
            failures.append(f"conventional varies with p at {label}")
    _report(3, "temperature/pressure laws", not failures, "; ".join(failures))


def test_criterion_4_water_filling_optimality(rng):
    started = time.perf_counter()
    instances = 500
    candidate_pool = -np.log(rng.random((1_000_000, 8)))
    by_k = {}  # the draws, grouped by subband count
    for _ in range(instances):
        k = int(rng.integers(2, 9))
        scale = 10.0 ** rng.uniform(-10.0, 0.0)
        psi = scale * rng.uniform(0.05, 20.0, size=k)
        p_t = scale * k * 10.0 ** rng.uniform(-2.0, 2.0)
        by_k.setdefault(k, []).append((psi, p_t))
    worst_deficit = 0.0
    kkt_failures = 0
    # the pool is normalized once per distinct k, not once per instance
    for k, group in sorted(by_k.items()):
        weights = candidate_pool[:, :k]
        shares = weights / weights.sum(axis=1, keepdims=True)
        for psi, p_t in group:
            out = water_filling(psi, p_t, delta_f=1.0)

            # KKT certificate and budget exhaustion
            funded = out.p_k > 0
            if not math.isclose(float(np.sum(out.p_k)), p_t, rel_tol=1e-9):
                kkt_failures += 1
            elif funded.any() and np.max(np.abs(
                    out.p_k[funded] + psi[funded] - out.theta)
                    ) > 1e-9 * out.theta:
                kkt_failures += 1
            elif ((~funded).any()
                  and np.min(psi[~funded]) < out.theta * (1 - 1e-12)):
                kkt_failures += 1

            brute = float(np.max(np.sum(
                np.log2(1.0 + shares * (p_t / psi)), axis=1)))
            deficit = (brute - out.capacity_bits_per_s) / brute
            worst_deficit = max(worst_deficit, deficit)
    elapsed = time.perf_counter() - started
    ok = worst_deficit <= 1e-6 and kkt_failures == 0 and elapsed < 300.0
    _report(4, "water-filling optimality", ok,
            f"{instances} instances, worst deficit {worst_deficit:.2e}, "
            f"{kkt_failures} KKT failures, runtime {elapsed:.0f}s")


def test_criterion_5_water_filling_vs_flat(default_scenario):
    result = sweep_capacity_vs_distance(default_scenario,
                                        (1.0e-5, 1.0e-4), 19)
    wf_p = _column(result, "C_bps_proposed_waterfilling")
    fl_p = _column(result, "C_bps_proposed_flat")
    wf_c = _column(result, "C_bps_conventional_waterfilling")
    fl_c = _column(result, "C_bps_conventional_flat")
    failures = []
    max_gap_bps = 0.0
    for (x, wp), (_, fp), (_, wc), (_, fc) in zip(wf_p, fl_p, wf_c, fl_c):
        if wp < fp or wc < fc:
            failures.append(f"flat beats water-filling at d={x:g}")
        gap_prop = (wp - fp) / wp
        gap_conv = (wc - fc) / wc
        if gap_conv >= 0.01:
            failures.append(f"conventional gap {gap_conv:.3f} at d={x:g}")
        if not gap_prop > gap_conv:
            failures.append(f"proposed gap not larger at d={x:g}")
        max_gap_bps = max(max_gap_bps, wp - fp)
    _report(5, "water-filling vs flat", not failures,
            f"max proposed gap {max_gap_bps / 1e9:.3f} Gb/s; "
            + "; ".join(failures))


def test_criterion_6_small_antenna_fidelity(default_medium, env, band):
    errors = []
    for j in range(5):
        s = 0.5 ** j
        geom = LinkGeometry(d=2.4e-6 * s, h_t=1.03e-6 * s, h_r=1.03e-6 * s)
        sine_argument = two_ray_argument(geom, float(band.f_k[-1]), 1.0)
        kappa = max(medium_kappa(default_medium, float(f), env).total_kappa
                    for f in band.f_k)
        assert sine_argument < 0.01 and kappa * geom.d < 0.01
        approx = approx_capacity_small_antenna(
            geom, default_medium, env, band, geom.d,
            1.0e-9).capacity_bits_per_s
        exact = channel_capacity(
            geom, default_medium, env, band, geom.d,
            1.0e-9).capacity_bits_per_s
        errors.append(abs(approx - exact) / exact)
    within = errors[0] < 1e-2
    decreasing = all(b < a for a, b in zip(errors, errors[1:]))
    _report(6, "small-antenna capacity fidelity", within and decreasing,
            f"errors {['%.1e' % e for e in errors]}")


def test_criterion_7_consistency_oracles(default_medium, env, rng):
    worst_psi = 0.0
    worst_db = 0.0
    for _ in range(1000):
        geom = LinkGeometry(
            d=float(rng.uniform(5e-5, 5e-4)),
            h_t=float(rng.uniform(5e-6, 2e-5)),
            h_r=float(rng.uniform(5e-6, 2e-5)),
            g_t=float(rng.uniform(0.5, 4.0)),
            g_r=float(rng.uniform(0.5, 4.0)))
        medium = Medium(composition=default_medium.composition,
                        epsilon_r=float(rng.uniform(1.0, 4.0)),
                        lines=default_medium.lines)
        environment = Environment(t_s=float(rng.uniform(250.0, 400.0)),
                                  p=float(rng.uniform(0.3, 2.0)))
        band = BandPlan.centered(float(rng.uniform(0.4e12, 2.9e12)),
                                 float(rng.uniform(1e10, 2e11)), 4)
        d = float(rng.uniform(5e-5, 5e-4))

        psi = psi_coefficients(geom, medium, environment, band, d)
        for k in range(band.k):
            f = float(band.f_k[k])
            loss = total_path_loss(geom, medium, environment, f, d=d).l
            t_tot = environment.t_s + molecular_noise_temperature(
                medium, environment, f, d)
            composed = BOLTZMANN * loss * t_tot * band.delta_f
            worst_psi = max(worst_psi, abs(psi[k] - composed) / composed)

        p_t = float(rng.uniform(1e-9, 1e-3))
        f = float(band.f_k[0])
        budget = link_budget_db(geom, medium, environment, f, p_t)
        linear = db(p_t) - total_path_loss(geom, medium, environment, f).l_db
        worst_db = max(worst_db, abs(budget.p_r_dbw - linear))
    ok = worst_psi <= 1e-10 and worst_db <= 1e-4
    _report(7, "consistency oracles", ok,
            f"worst psi mismatch {worst_psi:.2e}, "
            f"worst dB mismatch {worst_db:.2e}")


def test_criterion_8_discretization_convergence(default_medium, env):
    geom = LinkGeometry(d=2.0e-5, h_t=2.0e-5, h_r=2.0e-5)
    p_t = 1.0e-6
    noise = {}
    capacity = {}
    for k in (256, 512, 1024, 2048):
        band = BandPlan.centered(1.0e12, 1.0e11, k)
        noise[k] = noise_power(default_medium, env, band, geom.d)
        out = channel_capacity(geom, default_medium, env, band, geom.d, p_t)
        assert np.all(out.p_k > 0), "refinement test expects a smooth optimum"
        capacity[k] = out.capacity_bits_per_s
    ratios = []
    for values in (noise, capacity):
        diffs = [abs(values[2 * k] - values[k]) for k in (256, 512, 1024)]
        ratios += [diffs[0] / diffs[1], diffs[1] / diffs[2]]
    ok = all(1.5 <= r <= 4.5 for r in ratios)
    _report(8, "discretization convergence", ok,
            "ratios " + ", ".join(f"{r:.2f}" for r in ratios))


def test_criterion_9_parser_round_trip(catalog_text):
    spans = [(1, 2), (3, 3), (4, 15), (16, 25), (36, 40), (41, 45),
             (56, 59), (60, 67)]
    records = [r for r in catalog_text.split("\n") if r]
    bad_round_trips = 0
    for record in records:
        species = (int(record[0:2]), int(record[2:3]))
        (line,) = parse_line_catalog(record, {species}, intensity_floor=0.0)
        rendered = serialize_line(line)
        (again,) = parse_line_catalog(rendered, {species},
                                      intensity_floor=0.0)
        if again != line or any(rendered[lo - 1:hi] != record[lo - 1:hi]
                                for lo, hi in spans):
            bad_round_trips += 1

    template = records[0]
    malformed = [
        (template[:-1], 1, None),                       # 159 characters
        (template + "x", 1, None),                      # 161 characters
        (template[:3] + "x" * 12 + template[15:], 1, (4, 15)),
        (template[:15] + "?" * 10 + template[25:], 1, (16, 25)),
        (template[:35] + "....." + template[40:], 1, (36, 40)),
        (template[:59] + " " * 8 + template[67:], 1, (60, 67)),
        ("a" + template[1:], 1, (1, 2)),
    ]
    unpositioned = 0
    for bad, line_number, span in malformed:
        text = records[0] + "\n" + records[1] + "\n" + bad
        try:
            parse_line_catalog(text, {(1, 1)}, intensity_floor=0.0)
            unpositioned += 1
        except CatalogParseError as exc:
            if exc.line_number != 3 or (span is not None
                                        and exc.col_span != span):
                unpositioned += 1
    ok = bad_round_trips == 0 and unpositioned == 0
    _report(9, "parser round trip", ok,
            f"{len(records)} records round-tripped, "
            f"{len(malformed)} malformed fixtures positioned")
