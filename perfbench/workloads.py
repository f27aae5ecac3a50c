"""The benchmark's four workloads: seeded inputs, operations and oracle.

A workload is a list of operations (one sweep call with its CSV
rendering, or one point query) that a pass runs in order, and an oracle
that recomputes a seeded sample of a pass's outputs through the library's
single-point public API. Library functions are looked up through their
module at call time, so a traced run sees the tracer's wrappers.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from thzlink import capacity, cli, config, propagation, spectro, sweep
from thzlink.absorption import Environment
from thzlink.capacity import BandPlan
from thzlink.constants import ATM_IN_KPA, WAVENUMBER_TO_HZ
from thzlink.errors import TwoRayNullError

# Largest relative difference the oracle accepts; the prototype's worst
# case was 3e-16.
REL_TOL = 1.0e-12

# Rows of each sweep, and queries of each pass, that the oracle recomputes.
ORACLE_SAMPLES = 12

# Species the default scenario keeps from a catalog.
KEPT_SPECIES = ((1, 1), (7, 1))


@dataclass(frozen=True)
class Op:
    """One operation of a pass; ``run`` returns what the oracle checks."""

    label: str
    run: Callable[[], object]


def rel_diff(a: float, b: float) -> float:
    scale = max(abs(a), abs(b))
    return 0.0 if scale == 0.0 else abs(a - b) / scale


def _compare(value, expected, where: str) -> str | None:
    if (value is None) != (expected is None):
        return f"{where}: got {value!r}, expected {expected!r}"
    if value is not None and not rel_diff(value, expected) <= REL_TOL:
        return (f"{where}: got {value!r}, expected {expected!r} "
                f"(rel {rel_diff(value, expected):.3g})")
    return None


def _models(scenario):
    return (("proposed", scenario.medium),
            ("conventional", scenario.medium.without_absorption()))


def _fmt(value: float) -> str:
    return f"{value:g}"  # the sweeps' column-name format


def _pathloss_oracle(scenario, medium, env, f, d=None):
    """Single-point L [dB], or None where the sweep must leave a gap."""
    try:
        report = propagation.total_path_loss(scenario.geom, medium, env, f,
                                             d=d)
    except TwoRayNullError:
        return None
    return None if report.opaque else report.l_db


def _capacity_oracle(solver, scenario, medium, env, band, d):
    try:
        return solver(scenario.geom, medium, env, band, d,
                      scenario.p_t).capacity_bits_per_s
    except TwoRayNullError:
        return None


class Workload:
    """A named list of operations over one scenario, with its oracle."""

    name = ""
    catalog_path: str | None = None  # None: the bundled catalog

    def __init__(self, seed: int, smoke: bool):
        self.seed = seed
        self.smoke = smoke

    def prepare(self, workdir: Path) -> None:
        """Write the input files the workload needs; not timed."""

    def load(self):
        """The scenario every operation runs on, as the CLI loads it."""
        return config.load_scenario(catalog_path=self.catalog_path)

    def ops(self, scenario) -> list[Op]:
        raise NotImplementedError

    def oracle_rng(self, pass_index: int):
        """The generator that picks what the oracle checks in a pass."""
        return np.random.default_rng([self.seed, 2, pass_index])

    def to_check(self, n_ops: int, rng) -> list[int]:
        """Indices of the operations the oracle checks in one pass."""
        return list(range(n_ops))

    def check(self, scenario, index: int, output, rng) -> list[str]:
        """Oracle mismatches of one operation's output; empty if correct."""
        raise NotImplementedError

    def fingerprint(self, output) -> str:
        """Identity of an output; every pass must reproduce the first."""
        raise NotImplementedError


class SweepWorkload(Workload):
    """Each operation is one sweep call plus ``cli.render_csv``."""

    def sweeps(self, scenario):
        """Yield (label, sweep call, expected row count, row checker)."""
        raise NotImplementedError

    def ops(self, scenario) -> list[Op]:
        self._rows = []
        ops = []
        for label, call, n_rows, row_checker in self.sweeps(scenario):
            self._rows.append((n_rows, row_checker))
            ops.append(Op(label, lambda call=call: self._rendered(call())))
        return ops

    @staticmethod
    def _rendered(result):
        return result, cli.render_csv(result)

    def fingerprint(self, output) -> str:
        return hashlib.sha256(output[1].encode("ascii")).hexdigest()

    def check(self, scenario, index, output, rng) -> list[str]:
        result, _csv = output
        n_rows, row_checker = self._rows[index]
        if len(result.points) != n_rows:
            return [f"{len(result.points)} rows, expected {n_rows}"]
        sample = rng.choice(n_rows, size=min(ORACLE_SAMPLES, n_rows),
                            replace=False)
        problems = []
        for i in sorted(sample):
            x, row = result.points[i]
            problems += [p for p in row_checker(scenario, x, row) if p]
        return problems


def _pathloss_rows(d_values):
    """Row checker of sweep_pathloss_vs_frequency: a column pair per d."""
    def checker(scenario, f, row):
        for d in d_values:
            for model, medium in _models(scenario):
                column = f"L_db_{model}_d{_fmt(d)}m"
                yield _compare(row.get(column),
                               _pathloss_oracle(scenario, medium,
                                                scenario.env, f, d),
                               f"{column} at f={f!r}")
    return checker


class Spectrum(SweepWorkload):
    name = "spectrum"
    d_values = (1.0e-4, 1.0e-3, 1.0e-2, 2.0e-2)

    def sweeps(self, scenario):
        n = 50 if self.smoke else 20000
        d_values = list(self.d_values)
        yield ("sweep_pathloss_vs_frequency",
               lambda: sweep.sweep_pathloss_vs_frequency(
                   scenario, cli.AXIS_DEFAULTS["frequency"], n, d_values),
               n, _pathloss_rows(d_values))


class CapacitySweeps(SweepWorkload):
    name = "capacity-sweeps"
    f_values = (1.0e12, 1.2e12, 1.5e12)  # the sweeps' defaults

    def sweeps(self, scenario):
        n_distance = 50 if self.smoke else 1000
        n_env = 10 if self.smoke else 250
        yield ("sweep_capacity_vs_distance",
               lambda: sweep.sweep_capacity_vs_distance(
                   scenario, cli.AXIS_DEFAULTS["distance"], n_distance,
                   "both"),
               n_distance, self._distance_rows)
        yield ("sweep_vs_temperature",
               lambda: sweep.sweep_vs_temperature(
                   scenario, cli.AXIS_DEFAULTS["temperature"], n_env),
               n_env,
               self._env_rows(lambda s, t_s: Environment(t_s=t_s,
                                                         p=s.env.p)))
        yield ("sweep_vs_pressure",
               lambda: sweep.sweep_vs_pressure(
                   scenario, cli.AXIS_DEFAULTS["pressure"], n_env),
               n_env,
               self._env_rows(lambda s, p_kpa: Environment(
                   t_s=s.env.t_s, p=p_kpa / ATM_IN_KPA)))

    @staticmethod
    def _distance_rows(scenario, d, row):
        schemes = (("waterfilling", capacity.channel_capacity),
                   ("flat", capacity.flat_allocation_capacity))
        for model, medium in _models(scenario):
            for scheme, solver in schemes:
                column = f"C_bps_{model}_{scheme}"
                yield _compare(row.get(column),
                               _capacity_oracle(solver, scenario, medium,
                                                scenario.env, scenario.band,
                                                d),
                               f"{column} at d={d!r}")

    def _env_rows(self, env_at):
        def checker(scenario, x, row):
            env = env_at(scenario, x)
            for f in self.f_values:
                band = BandPlan.centered(f, scenario.band.b, scenario.band.k)
                for model, medium in _models(scenario):
                    suffix = f"{model}_f{_fmt(f)}Hz"
                    yield _compare(row.get(f"L_db_{suffix}"),
                                   _pathloss_oracle(scenario, medium, env, f),
                                   f"L_db_{suffix} at x={x!r}")
                    yield _compare(row.get(f"C_bps_{suffix}"),
                                   _capacity_oracle(
                                       capacity.channel_capacity, scenario,
                                       medium, env, band, scenario.geom.d),
                                   f"C_bps_{suffix} at x={x!r}")
        return checker


def synthetic_catalog(seed: int, n_records: int) -> str:
    """Seeded catalog text of ``n_records`` 160-character records.

    40 species (gas 1-20, isotopologue 1-2) share the records. The two the
    default scenario keeps get exactly 1/20 of them, and 1/12 of those sit
    below the 1e-30 intensity floor, so the sizes are fixed and only the
    line parameters depend on the seed.
    """
    rng = np.random.default_rng([seed, 0])
    others = [(g, i) for g in range(1, 21) for i in (1, 2)
              if (g, i) not in KEPT_SPECIES]
    n_kept = n_records // 20
    n_weak = n_kept // 12
    species = [KEPT_SPECIES[j % 2] for j in range(n_kept)]
    species += [others[j] for j in rng.integers(0, len(others),
                                                n_records - n_kept)]
    weak = np.arange(n_records) < n_weak  # the first kept-species records
    log_s = np.where(weak, rng.uniform(-32.0, -30.5, n_records),
                     rng.uniform(-29.5, -22.0, n_records))
    wavenumber = rng.uniform(1.0, 200.0, n_records)
    alpha_air = rng.uniform(0.01, 0.1, n_records)
    alpha_self = rng.uniform(0.05, 0.5, n_records)
    temp_exponent = rng.uniform(0.5, 0.8, n_records)
    shift = rng.uniform(-0.005, 0.005, n_records)
    records = []
    for j in rng.permutation(n_records):
        gas_id, iso_id = species[j]
        records.append(spectro.serialize_line(spectro.SpectralLine(
            gas_id=gas_id, iso_id=iso_id,
            f_c0=float(wavenumber[j]) * WAVENUMBER_TO_HZ,
            line_intensity=10.0 ** float(log_s[j]) * spectro.INTENSITY_TO_SI,
            alpha_air=float(alpha_air[j]) * WAVENUMBER_TO_HZ,
            alpha_self=float(alpha_self[j]) * WAVENUMBER_TO_HZ,
            temp_exponent=float(temp_exponent[j]),
            pressure_shift=float(shift[j]) * WAVENUMBER_TO_HZ)))
    return "\n".join(records) + "\n"


class LargeCatalog(SweepWorkload):
    name = "large-catalog"
    d_values = (1.0e-4, 1.0e-2)

    def prepare(self, workdir: Path) -> None:
        n_records = 500 if self.smoke else 24000
        path = workdir / f"catalog-seed{self.seed}-{n_records}.par"
        path.write_text(synthetic_catalog(self.seed, n_records),
                        encoding="ascii")
        self.catalog_path = str(path)

    def sweeps(self, scenario):
        n = 50 if self.smoke else 10000
        d_values = list(self.d_values)
        yield ("sweep_pathloss_vs_frequency",
               lambda: sweep.sweep_pathloss_vs_frequency(
                   scenario, cli.AXIS_DEFAULTS["frequency"], n, d_values),
               n, _pathloss_rows(d_values))


@dataclass(frozen=True)
class Answer:
    """One point query: what `thzlink pathloss` and `capacity` compute."""

    f: float
    l_db: float
    p_t_dbw: float
    p_r_dbw: float
    allocation: capacity.PowerAllocation


class PointQueries(Workload):
    name = "point-queries"

    def ops(self, scenario) -> list[Op]:
        n = 20 if self.smoke else 2000
        lo, hi = cli.AXIS_DEFAULTS["frequency"]
        freqs = np.random.default_rng([self.seed, 1]).uniform(lo, hi, n)
        return [Op("query", lambda f=float(f): self._query(scenario, f))
                for f in freqs]

    @staticmethod
    def _query(scenario, f):
        geom, medium, env = scenario.geom, scenario.medium, scenario.env
        report = propagation.total_path_loss(geom, medium, env, f)
        budget = propagation.link_budget_db(geom, medium, env, f,
                                            scenario.p_t)
        band = BandPlan.centered(f, scenario.band.b, scenario.band.k)
        allocation = capacity.channel_capacity(geom, medium, env, band,
                                               geom.d, scenario.p_t)
        return Answer(f, report.l_db, budget.p_t_dbw, budget.p_r_dbw,
                      allocation)

    def to_check(self, n_ops, rng):
        return sorted(rng.choice(n_ops, size=min(ORACLE_SAMPLES, n_ops),
                                 replace=False))

    def check(self, scenario, index, output, rng) -> list[str]:
        """Cross-check a query against the grid path and the ledger."""
        f = output.f
        grid = sweep.sweep_pathloss_vs_frequency(scenario, (f, 2.0 * f), 1)
        rated = sweep.sweep_capacity_vs_frequency(scenario, (f, 2.0 * f), 1)
        problems = [
            _compare(output.l_db,
                     grid.points[0][1].get(
                         f"L_db_proposed_d{_fmt(scenario.geom.d)}m"),
                     f"L_db at f={f!r} vs the grid path"),
            _compare(output.allocation.capacity_bits_per_s,
                     rated.points[0][1].get("C_bps_proposed"),
                     f"capacity at f={f!r} vs the frequency sweep"),
            # the dB ledger sums to P_T - L
            _compare(output.p_r_dbw, output.p_t_dbw - output.l_db,
                     f"P_R at f={f!r} vs P_T - L"),
            # water-filling spends exactly the budget
            _compare(float(np.sum(output.allocation.p_k)), scenario.p_t,
                     f"allocated power at f={f!r} vs the budget"),
        ]
        return [p for p in problems if p]

    def fingerprint(self, output) -> str:
        return repr((output.l_db, output.p_r_dbw,
                     output.allocation.capacity_bits_per_s))


WORKLOADS = {w.name: w for w in (Spectrum, CapacitySweeps, LargeCatalog,
                                 PointQueries)}
