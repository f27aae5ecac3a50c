"""Experiment engine: one-axis sweeps for both channel model variants.

Every sweep evaluates the proposed (absorbing-medium) and the conventional
(kappa = 0, same geometry and permittivity) model at each axis point and
returns both as columns of one deterministic result table. Points where
the two-ray model is on a null, or where the medium saturates opaque, are
recorded as explicit gap rows rather than interpolated.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .absorption import (Environment, attenuation_from_optical_depth,
                         kappa_over_grid)
from .capacity import BandPlan, channel_capacity, flat_allocation_capacity
from .constants import ATM_IN_KPA
from .errors import DomainError, TwoRayNullError
from .propagation import LinkGeometry, db, dielectric_path_loss
from .spectro import Medium


@dataclass(frozen=True)
class Scenario:
    """One experiment configuration.

    ``p_t`` is the transmit power budget [W]; the default experiment's
    values live in ``config.DEFAULT_SCENARIO``. ``baseline`` empties the
    composition so the proposed model degenerates to the conventional one.
    """

    geom: LinkGeometry
    medium: Medium
    env: Environment
    band: BandPlan
    p_t: float
    baseline: bool = False

    def __post_init__(self):
        if not self.p_t >= 0:
            raise DomainError(f"p_t must be >= 0, got {self.p_t!r}")
        if self.baseline and self.medium.composition:
            object.__setattr__(self, "medium",
                               self.medium.without_absorption())

    def conventional(self) -> "Scenario":
        return replace(self, medium=self.medium.without_absorption(),
                       baseline=True)


@dataclass
class SweepResult:
    """Axis samples with one value column per (model, metric) pair.

    ``points`` maps each axis value to a column->value dict; a column is
    absent from a row when that point gapped, and ``gaps`` lists every
    (axis value, column, reason) skipped.
    """

    axis: str
    unit: str
    columns: list[str]
    points: list[tuple[float, dict[str, float]]] = field(default_factory=list)
    gaps: list[tuple[float, str, str]] = field(default_factory=list)


def _axis_values(lo: float, hi: float, n_points: int, log_axis: bool
                 ) -> np.ndarray:
    if not hi > lo:
        raise DomainError(
            f"axis range must satisfy from < to, got [{lo!r}, {hi!r}]")
    if n_points < 1:
        raise DomainError(f"n_points must be >= 1, got {n_points!r}")
    if n_points == 1:
        return np.array([lo], dtype=np.float64)
    if log_axis:
        if lo <= 0:
            raise DomainError("log-spaced axis needs a positive start")
        return np.geomspace(lo, hi, n_points)
    return np.linspace(lo, hi, n_points)


def _model_media(scenario: Scenario) -> list[tuple[str, Medium]]:
    return [("proposed", scenario.medium),
            ("conventional", scenario.medium.without_absorption())]


def _fmt(value: float, unit: str) -> str:
    return f"{value:g}{unit}"


def sweep_pathloss_vs_frequency(scenario: Scenario,
                                f_range: tuple[float, float],
                                n_points: int,
                                d_values: list[float] | None = None,
                                log_axis: bool = False) -> SweepResult:
    """Total path loss [dB] vs frequency, one column pair per distance."""
    if d_values is None:
        d_values = [scenario.geom.d]
    freqs = _axis_values(f_range[0], f_range[1], n_points, log_axis)
    if not np.all(freqs > 0):
        raise DomainError("frequency range must be positive")

    columns = [f"L_db_{model}_d{_fmt(d, 'm')}"
               for d in d_values for model, _ in _model_media(scenario)]
    result = SweepResult(axis="frequency", unit="Hz", columns=columns)

    kappa_by_model = {
        model: kappa_over_grid(medium, freqs, scenario.env)
        for model, medium in _model_media(scenario)
    }
    eps = scenario.medium.epsilon_r
    for i, f in enumerate(freqs):
        row: dict[str, float] = {}
        for d in d_values:
            for model, _ in _model_media(scenario):
                column = f"L_db_{model}_d{_fmt(d, 'm')}"
                try:
                    l_d = dielectric_path_loss(scenario.geom, float(f), eps, d)
                except TwoRayNullError:
                    result.gaps.append((float(f), column, "two-ray-null"))
                    continue
                attenuation = attenuation_from_optical_depth(
                    kappa_by_model[model][i] * d)
                if attenuation.opaque:
                    result.gaps.append((float(f), column, "opaque"))
                    continue
                row[column] = db(l_d) + db(attenuation.loss)
        result.points.append((float(f), row))
    return result


def sweep_capacity_vs_frequency(scenario: Scenario,
                                f_range: tuple[float, float],
                                n_points: int,
                                log_axis: bool = False) -> SweepResult:
    """Capacity [bits/s] vs center frequency of a re-centered band."""
    freqs = _axis_values(f_range[0], f_range[1], n_points, log_axis)
    columns = [f"C_bps_{model}" for model, _ in _model_media(scenario)]
    result = SweepResult(axis="frequency", unit="Hz", columns=columns)
    for f in freqs:
        band = BandPlan.centered(float(f), scenario.band.b, scenario.band.k)
        row: dict[str, float] = {}
        for model, medium in _model_media(scenario):
            column = f"C_bps_{model}"
            try:
                allocation = channel_capacity(
                    scenario.geom, medium, scenario.env, band,
                    scenario.geom.d, scenario.p_t)
            except TwoRayNullError:
                result.gaps.append((float(f), column, "two-ray-null"))
                continue
            row[column] = allocation.capacity_bits_per_s
        result.points.append((float(f), row))
    return result


def _pathloss_and_capacity_row(scenario: Scenario, env: Environment,
                               f_values: list[float], result: SweepResult,
                               x: float) -> dict[str, float]:
    row: dict[str, float] = {}
    for f in f_values:
        band = BandPlan.centered(f, scenario.band.b, scenario.band.k)
        for model, medium in _model_media(scenario):
            suffix = f"{model}_f{_fmt(f, 'Hz')}"
            try:
                l_d = dielectric_path_loss(scenario.geom, f,
                                           medium.epsilon_r)
            except TwoRayNullError:
                result.gaps.append((x, f"L_db_{suffix}", "two-ray-null"))
            else:
                kappa = kappa_over_grid(medium, np.array([f]), env)[0]
                attenuation = attenuation_from_optical_depth(
                    kappa * scenario.geom.d)
                if attenuation.opaque:
                    result.gaps.append((x, f"L_db_{suffix}", "opaque"))
                else:
                    row[f"L_db_{suffix}"] = db(l_d) + db(attenuation.loss)
            try:
                allocation = channel_capacity(
                    scenario.geom, medium, env, band, scenario.geom.d,
                    scenario.p_t)
            except TwoRayNullError:
                result.gaps.append((x, f"C_bps_{suffix}", "two-ray-null"))
            else:
                row[f"C_bps_{suffix}"] = allocation.capacity_bits_per_s
    return row


def sweep_vs_temperature(scenario: Scenario, t_range: tuple[float, float],
                         n_points: int, f_values: list[float] | None = None,
                         log_axis: bool = False) -> SweepResult:
    """Path loss and capacity vs system noise temperature [K]."""
    if f_values is None:
        f_values = [1.0e12, 1.2e12, 1.5e12]
    temps = _axis_values(t_range[0], t_range[1], n_points, log_axis)
    columns = [f"{metric}_{model}_f{_fmt(f, 'Hz')}"
               for f in f_values for model, _ in _model_media(scenario)
               for metric in ("L_db", "C_bps")]
    result = SweepResult(axis="temperature", unit="K", columns=columns)
    for t_s in temps:
        env = Environment(t_s=float(t_s), p=scenario.env.p)
        row = _pathloss_and_capacity_row(scenario, env, f_values, result,
                                         float(t_s))
        result.points.append((float(t_s), row))
    return result


def sweep_vs_pressure(scenario: Scenario, p_range_kpa: tuple[float, float],
                      n_points: int, f_values: list[float] | None = None,
                      log_axis: bool = False) -> SweepResult:
    """Path loss and capacity vs ambient pressure, axis in kPa."""
    if f_values is None:
        f_values = [1.0e12, 1.2e12, 1.5e12]
    pressures = _axis_values(p_range_kpa[0], p_range_kpa[1], n_points,
                             log_axis)
    columns = [f"{metric}_{model}_f{_fmt(f, 'Hz')}"
               for f in f_values for model, _ in _model_media(scenario)
               for metric in ("L_db", "C_bps")]
    result = SweepResult(axis="pressure", unit="kPa", columns=columns)
    for p_kpa in pressures:
        env = Environment(t_s=scenario.env.t_s,
                          p=float(p_kpa) / ATM_IN_KPA)
        row = _pathloss_and_capacity_row(scenario, env, f_values, result,
                                         float(p_kpa))
        result.points.append((float(p_kpa), row))
    return result


def sweep_capacity_vs_distance(scenario: Scenario,
                               d_range: tuple[float, float], n_points: int,
                               allocation: str = "both",
                               log_axis: bool = False) -> SweepResult:
    """Capacity [bits/s] vs antenna separation [m], per allocation scheme."""
    if allocation not in ("waterfilling", "flat", "both"):
        raise DomainError(
            f"allocation must be waterfilling, flat, or both, "
            f"got {allocation!r}")
    schemes = (["waterfilling", "flat"] if allocation == "both"
               else [allocation])
    distances = _axis_values(d_range[0], d_range[1], n_points, log_axis)
    columns = [f"C_bps_{model}_{scheme}"
               for model, _ in _model_media(scenario) for scheme in schemes]
    result = SweepResult(axis="distance", unit="m", columns=columns)
    for d in distances:
        row: dict[str, float] = {}
        for model, medium in _model_media(scenario):
            for scheme in schemes:
                column = f"C_bps_{model}_{scheme}"
                solver = (channel_capacity if scheme == "waterfilling"
                          else flat_allocation_capacity)
                try:
                    out = solver(scenario.geom, medium, scenario.env,
                                 scenario.band, float(d), scenario.p_t)
                except TwoRayNullError:
                    result.gaps.append((float(d), column, "two-ray-null"))
                    continue
                row[column] = out.capacity_bits_per_s
        result.points.append((float(d), row))
    return result


__all__ = [
    "Scenario", "SweepResult", "sweep_pathloss_vs_frequency",
    "sweep_capacity_vs_frequency", "sweep_vs_temperature",
    "sweep_vs_pressure", "sweep_capacity_vs_distance",
]
