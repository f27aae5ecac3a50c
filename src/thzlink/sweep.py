"""Experiment engine: one-axis sweeps for both channel model variants.

Every sweep evaluates the proposed (absorbing-medium) and the conventional
(kappa = 0, same geometry and permittivity) model at each axis point and
returns both as columns of one deterministic result table. Points where
the two-ray model is on a null, or where the medium saturates opaque, are
recorded as explicit gap rows rather than interpolated.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import kernels
from .absorption import DEFAULT_WING_CUTOFF, Environment, kappa_over_grid
from .capacity import (BandPlan, allocation_capacity_grid, centered_band_grid,
                       psi_grid, water_filling_grid)
from .capacity import channel_capacity  # noqa: F401 (perfbench patches it)
from .constants import ATM_IN_KPA
from .errors import DomainError, ValidationError
from .propagation import LinkGeometry, _check_distance, path_loss_grid
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
        if not 0 <= self.p_t < math.inf:
            raise DomainError(f"p_t must be finite and >= 0, got {self.p_t!r}")
        if self.baseline and self.medium.composition:
            object.__setattr__(self, "medium",
                               self.medium.without_absorption())


@dataclass(frozen=True, eq=False)
class SweepResult:
    """Axis samples with one value column per (model, metric) pair.

    ``cells`` maps each column, in order, to (values, reasons) arrays
    along ``samples``; a cell with a reason is a gap. Row views, built on
    first use: ``points`` pairs each axis value with a column->value dict
    of its cells that did not gap, and ``gaps`` lists every (axis value,
    column, reason) skipped.
    """

    axis: str
    unit: str
    samples: np.ndarray
    cells: dict[str, tuple[np.ndarray, np.ndarray]]

    @property
    def columns(self) -> list[str]:
        return list(self.cells)

    @functools.cached_property
    def _row_views(self) -> tuple[list, list]:
        points, gaps = [], []
        columns = [(column, values.tolist(), reasons)
                   for column, (values, reasons) in self.cells.items()]
        for i, x in enumerate(self.samples.tolist()):
            row: dict[str, float] = {}
            for column, values, reasons in columns:
                if reasons[i]:
                    gaps.append((x, column, reasons[i]))
                else:
                    row[column] = values[i]
            points.append((x, row))
        return points, gaps

    @property
    def points(self) -> list[tuple[float, dict[str, float]]]:
        return self._row_views[0]

    @property
    def gaps(self) -> list[tuple[float, str, str]]:
        return self._row_views[1]

    def __eq__(self, other):
        if not isinstance(other, SweepResult):
            return NotImplemented
        return ((self.axis, self.unit, self.columns, self._row_views)
                == (other.axis, other.unit, other.columns, other._row_views))


def _axis_values(lo: float, hi: float, n_points: int, log_axis: bool
                 ) -> np.ndarray:
    if not (math.isfinite(lo) and math.isfinite(hi) and hi > lo):
        raise DomainError(
            f"axis range must be finite and satisfy from < to, got "
            f"[{lo!r}, {hi!r}]")
    if n_points < 1:
        raise DomainError(f"n_points must be >= 1, got {n_points!r}")
    if n_points == 1:
        return np.array([lo], dtype=np.float64)
    if log_axis and lo <= 0:
        raise DomainError("log-spaced axis needs a positive start")
    try:
        return (np.geomspace if log_axis else np.linspace)(lo, hi, n_points)
    except (ValueError, MemoryError):
        raise ValidationError(
            [f"cannot allocate an axis of {n_points} points"]) from None


def _model_media(scenario: Scenario) -> list[tuple[str, Medium]]:
    return [("proposed", scenario.medium),
            ("conventional", scenario.medium.without_absorption())]


def _labels(values: list[float], unit: str) -> list[str]:
    """Column label of each value; two values with one label are an error."""
    labels: dict[str, float] = {}
    for value in values:
        label = f"{value:g}{unit}"
        if label in labels:
            raise ValidationError(
                [f"{labels[label]!r} and {value!r} both print as {label!r}, "
                 f"so their columns would share one name"])
        labels[label] = value
    return list(labels)


def sweep_pathloss_vs_frequency(scenario: Scenario,
                                f_range: tuple[float, float],
                                n_points: int,
                                d_values: list[float] | None = None,
                                log_axis: bool = False) -> SweepResult:
    """Total path loss [dB] vs frequency, one column pair per distance."""
    if d_values is None:
        d_values = [scenario.geom.d]
    freqs = _axis_values(f_range[0], f_range[1], n_points, log_axis)
    models = _model_media(scenario)
    # one row of kappa per model: the two-ray term, which does not depend
    # on the model, is evaluated once per distance
    kappa = np.stack([kappa_over_grid(medium, freqs, scenario.env)
                      for _, medium in models])
    geom, eps = scenario.geom, scenario.medium.epsilon_r
    cells = {}
    for d, label in zip(d_values, _labels(d_values, "m")):
        _check_distance(geom, d)
        *_, l_db, reasons = path_loss_grid(geom, eps, freqs, kappa, d)
        for (model, _), row_db, row_reasons in zip(models, l_db, reasons):
            cells[f"L_db_{model}_d{label}"] = (row_db, row_reasons)
    return SweepResult("frequency", "Hz", freqs, cells)


def _capacity_cells(scenario: Scenario, medium: Medium, schemes, f_k, kappa,
                    d, t_s, delta_f) -> dict[str, tuple]:
    """Capacity [bits/s] of every row of a subband grid, per scheme.

    Each argument is shared by all rows (a scalar, or (K,) for ``f_k`` and
    ``kappa``) or given per row ((R, 1), or (R, K)). Rows are evaluated a
    block at a time (kernels.row_blocks); a row with a subband on a
    two-ray null becomes a gap cell.
    """
    grid = (f_k, kappa, d, t_s, delta_f)
    n_rows = max(len(x) for x in grid if np.ndim(x) == 2)
    cells = {scheme: (np.full(n_rows, np.nan),
                      np.full(n_rows, "", dtype=object)) for scheme in schemes}
    for rows, block in kernels.row_blocks(n_rows, np.shape(f_k)[-1], *grid):
        psi, null = psi_grid(scenario.geom, medium.epsilon_r, *block)
        ok = ~null.any(axis=-1)
        psi = psi[ok]
        widths = block[-1][ok, 0] if np.ndim(block[-1]) == 2 else block[-1]
        for scheme in schemes:
            if scheme == "waterfilling":
                p_k, _theta = water_filling_grid(psi, scenario.p_t)
            else:
                p_k = np.full(psi.shape, scenario.p_t / psi.shape[-1])
            values, reasons = cells[scheme]
            values[rows][ok] = allocation_capacity_grid(p_k, psi, widths)
            reasons[rows][~ok] = "two-ray-null"
    return cells


def sweep_capacity_vs_frequency(scenario: Scenario,
                                f_range: tuple[float, float],
                                n_points: int,
                                log_axis: bool = False) -> SweepResult:
    """Capacity [bits/s] vs center frequency of a re-centered band."""
    freqs = _axis_values(f_range[0], f_range[1], n_points, log_axis)
    f_k, b = centered_band_grid(freqs, scenario.band.b, scenario.band.k)
    delta_f = b[:, None] / scenario.band.k  # BandPlan.delta_f of each row
    env = scenario.env
    cells = {}
    for model, medium in _model_media(scenario):
        kappa = kappa_over_grid(medium, f_k, env)
        cells[f"C_bps_{model}"] = _capacity_cells(
            scenario, medium, ["waterfilling"], f_k, kappa, scenario.geom.d,
            env.t_s, delta_f)["waterfilling"]
    return SweepResult("frequency", "Hz", freqs, cells)


def _environment_sweep(scenario: Scenario, axis: str, unit: str, xs, t_s, p,
                       f_values: list[float] | None) -> SweepResult:
    """Path loss and capacity at each f value over rows of (t_s, p).

    ``t_s`` and ``p`` are scalars or one value per axis point; one kernel
    call per model and f value covers the path-loss frequency and the
    subbands of every row.
    """
    if f_values is None:
        f_values = [1.0e12, 1.2e12, 1.5e12]
    # every row's environment is valid when the lowest t_s and p are
    Environment(t_s=float(np.min(t_s)), p=float(np.min(p)))
    geom = scenario.geom
    t_col = t_s[:, None] if np.ndim(t_s) else t_s
    cells = {}
    for f, label in zip(f_values, _labels(f_values, "Hz")):
        band = BandPlan.centered(f, scenario.band.b, scenario.band.k)
        freqs = np.concatenate(([f], band.f_k))
        for model, medium in _model_media(scenario):
            suffix = f"{model}_f{label}"
            kappa = kernels.kappa_totals(freqs, medium.packed, t_s, p,
                                         DEFAULT_WING_CUTOFF)
            *_, l_db, reasons = path_loss_grid(geom, medium.epsilon_r, f,
                                               kappa[:, 0], geom.d)
            cells[f"L_db_{suffix}"] = (l_db, reasons)
            cells[f"C_bps_{suffix}"] = _capacity_cells(
                scenario, medium, ["waterfilling"], band.f_k, kappa[:, 1:],
                geom.d, t_col, band.delta_f)["waterfilling"]
    return SweepResult(axis, unit, xs, cells)


def sweep_vs_temperature(scenario: Scenario, t_range: tuple[float, float],
                         n_points: int, f_values: list[float] | None = None,
                         log_axis: bool = False) -> SweepResult:
    """Path loss and capacity vs system noise temperature [K]."""
    temps = _axis_values(t_range[0], t_range[1], n_points, log_axis)
    return _environment_sweep(scenario, "temperature", "K", temps, temps,
                              scenario.env.p, f_values)


def sweep_vs_pressure(scenario: Scenario, p_range_kpa: tuple[float, float],
                      n_points: int, f_values: list[float] | None = None,
                      log_axis: bool = False) -> SweepResult:
    """Path loss and capacity vs ambient pressure, axis in kPa."""
    pressures = _axis_values(p_range_kpa[0], p_range_kpa[1], n_points,
                             log_axis)
    p_atm = pressures / ATM_IN_KPA
    # the axis rises, so its first value is the one that can underflow
    if pressures[0] > 0 and not p_atm[0] > 0:
        raise ValidationError([f"pressure {float(pressures[0])!r} kPa "
                               f"underflows to 0 atm in float64"])
    return _environment_sweep(scenario, "pressure", "kPa", pressures,
                              scenario.env.t_s, p_atm, f_values)


def sweep_capacity_vs_distance(scenario: Scenario,
                               d_range: tuple[float, float], n_points: int,
                               allocation: str = "both",
                               log_axis: bool = False) -> SweepResult:
    """Capacity [bits/s] vs antenna separation [m], per allocation scheme.

    kappa does not depend on d, so each model's is computed once for the
    whole axis.
    """
    if allocation not in ("waterfilling", "flat", "both"):
        raise DomainError(
            f"allocation must be waterfilling, flat, or both, "
            f"got {allocation!r}")
    schemes = (["waterfilling", "flat"] if allocation == "both"
               else [allocation])
    distances = _axis_values(d_range[0], d_range[1], n_points, log_axis)
    geom = scenario.geom
    for d in (distances[0], distances[-1]):  # the axis is monotonic
        _check_distance(geom, float(d))
    band, env = scenario.band, scenario.env
    cells = {}
    for model, medium in _model_media(scenario):
        kappa = kappa_over_grid(medium, band.f_k, env)
        by_scheme = _capacity_cells(scenario, medium, schemes, band.f_k,
                                    kappa, distances[:, None], env.t_s,
                                    band.delta_f)
        cells.update((f"C_bps_{model}_{scheme}", by_scheme[scheme])
                     for scheme in schemes)
    return SweepResult("distance", "m", distances, cells)


__all__ = [
    "Scenario", "SweepResult", "sweep_pathloss_vs_frequency",
    "sweep_capacity_vs_frequency", "sweep_vs_temperature",
    "sweep_vs_pressure", "sweep_capacity_vs_distance",
]
