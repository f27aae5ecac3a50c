"""Experiment engine: one-axis sweeps for both channel model variants.

Every sweep evaluates the proposed (absorbing-medium) and the conventional
(kappa = 0, same geometry and permittivity) model at each axis point and
returns both as columns of one deterministic result table. Points where
the two-ray model is on a null, or where the medium saturates opaque, are
recorded as explicit gap rows rather than interpolated. One evaluator,
_blocks, runs every sweep a block of rows at a time, which `thzlink sweep`
streams in bounded memory; each public sweep joins its blocks.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Iterator, Sequence
from dataclasses import dataclass

import numpy as np

from . import kernels
from .absorption import DEFAULT_WING_CUTOFF, Environment, kappa_over_grid
from .capacity import (BandPlan, allocation_capacity_grid, centered_band_grid,
                       psi_grid, water_filling_grid)
from .capacity import channel_capacity  # noqa: F401 (perfbench patches it)
from .constants import ATM_IN_KPA
from .errors import DomainError, ValidationError
from .propagation import (GAP_REASONS, LinkGeometry, _check_distance,
                          path_loss_grid)
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


class _Rows(Sequence):
    """``SweepResult.points``: rows are built when first read, then kept."""

    def __init__(self, samples: np.ndarray, cells: dict):
        self._samples, self._cells, self._built = samples, cells, {}

    def __len__(self) -> int:
        return len(self._samples)

    def __getitem__(self, i):
        i = range(len(self._samples))[i]  # IndexError past either end
        if isinstance(i, range):
            return [self[j] for j in i]
        if i not in self._built:
            self._built[i] = (self._samples[i].item(),
                              {column: values[i].item() for column,
                               (values, codes) in self._cells.items()
                               if not codes[i]})
        return self._built[i]

    def __eq__(self, other):
        return list(self) == (list(other) if isinstance(other, _Rows)
                              else other)


@dataclass(frozen=True, eq=False)
class SweepResult:
    """Axis samples with one value column per (model, metric) pair.

    ``cells`` maps each column, in order, to (values, codes) arrays along
    ``samples``; a cell whose uint8 code is not 0 is a gap, for the reason
    ``GAP_REASONS[code]``. Rows are built from the columns when read:
    ``points`` pairs each axis value with a column->value dict of its cells
    that did not gap, and ``gaps`` lists every (axis value, column, reason
    str) skipped. Results are equal when their axes, columns, gap codes
    and non-gap values are.
    """

    axis: str
    unit: str
    samples: np.ndarray
    cells: dict[str, tuple[np.ndarray, np.ndarray]]

    @property
    def columns(self) -> list[str]:
        return list(self.cells)

    @functools.cached_property
    def points(self) -> Sequence[tuple[float, dict[str, float]]]:
        return _Rows(self.samples, self.cells)

    @functools.cached_property
    def gaps(self) -> list[tuple[float, str, str]]:
        codes = np.array([c for _, c in self.cells.values()], np.uint8)
        codes = codes.reshape(len(self.cells), len(self.samples)).T
        rows, cols = np.nonzero(codes)  # row-major: row, then column order
        columns = self.columns
        return [(x, columns[c], GAP_REASONS[code]) for x, c, code in zip(
            self.samples[rows].tolist(), cols.tolist(),
            codes[rows, cols].tolist())]

    def __eq__(self, other):
        if not isinstance(other, SweepResult):
            return NotImplemented
        return ((self.axis, self.unit, self.columns)
                == (other.axis, other.unit, other.columns)
                and np.array_equal(self.samples, other.samples)
                and all(np.array_equal(codes, other.cells[column][1])
                        and np.array_equal(values[codes == 0],
                                           other.cells[column][0][codes == 0])
                        for column, (values, codes) in self.cells.items()))


def _axis_values(lo: float, hi: float, n_points: int, log_axis: bool
                 ) -> np.ndarray:
    if not (math.isfinite(lo) and math.isfinite(hi) and hi > lo):
        raise DomainError(f"axis range must be finite and satisfy from < to, "
                          f"got [{lo!r}, {hi!r}]")
    if n_points < 1:
        raise DomainError(f"n_points must be >= 1, got {n_points!r}")
    log_axis = log_axis and n_points > 1  # one point is the start
    if log_axis and lo <= 0:
        raise DomainError("log-spaced axis needs a positive start")
    try:
        return (np.geomspace if log_axis else np.linspace)(lo, hi, n_points)
    except (ValueError, MemoryError):
        raise ValidationError(
            [f"cannot allocate an axis of {n_points} points"]) from None


def _labels(values: list[float], unit: str) -> list[str]:
    """Column label of each value; two values with one label are an error."""
    labels = [f"{value:g}{unit}" for value in values]
    for i, label in enumerate(labels):
        first = labels.index(label)
        if first < i:
            raise ValidationError(
                [f"{values[first]!r} and {values[i]!r} both print as "
                 f"{label!r}, so their columns would share one name"])
    return labels


def _blocks(scenario: Scenario, varies: str, bounds: tuple[float, float],
            n_points: int, log_axis: bool, values=None
            ) -> Iterator[SweepResult]:
    """The sweep whose axis sets ``varies`` per row, one SweepResult per
    row_blocks block of the frequencies a row carries: "f" (1), path loss
    at each distance in ``values``; "f_k", the band center (K), capacity;
    "t_s" or "p" (kPa), both at each frequency in ``values`` (K + 1); "d"
    (K), capacity per scheme of the allocation ``values``. A block's
    kappas are one kernel call per model ("d": before the blocks). A
    column group's floor grid and its one path_loss_grid call serve both
    models: the conventional model's cells are that call's L_d [dB] and
    two-ray null codes. A proposed model without lines (``baseline``) gets
    L_d + 0.0 dB from Beer-Lambert at kappa = 0, L_d bit for bit, so its
    cells equal the conventional model's. Checks that name the axis, its
    ends or a label, or that scan the whole axis (each row's band, then
    the kernel and two-ray terms at the ends, which bound every row's),
    run before the first block."""
    geom, env, band = scenario.geom, scenario.env, scenario.band
    eps = scenario.medium.epsilon_r  # both models'
    axis, unit = {"f": ("frequency", "Hz"), "f_k": ("frequency", "Hz"), "d":
                  ("distance", "m"), "t_s": ("temperature", "K"),
                  "p": ("pressure", "kPa")}[varies]
    schemes = ([(f"_{s}", s) for s in ("waterfilling", "flat")
                if values in (s, "both")] if varies == "d"
               else [] if varies == "f" else [("", "waterfilling")])
    if varies == "d" and not schemes:
        raise DomainError(f"allocation must be waterfilling, flat, or both, "
                          f"got {values!r}")
    samples = _axis_values(*bounds, n_points, log_axis)
    lowest = float(samples[0])
    models = [("proposed", scenario.medium),
              ("conventional", scenario.medium.without_absorption())]
    if varies == "p" and lowest > 0 and not lowest / ATM_IN_KPA > 0:
        raise ValidationError([f"pressure {lowest!r} kPa underflows to 0 "
                               f"atm in float64"])
    per_row = 1 if varies == "f" else band.k + (varies in ("t_s", "p"))
    # per group of columns: suffix, the first of its per_row kappas, the
    # path-loss frequency leading them and its d, and the band
    groups, kernel_freqs = [("", 0, None, None, band.f_k, band.delta_f)], None
    if varies == "f":
        values = [geom.d] if values is None else values
        labels = _labels(values, "m")
    elif varies == "d":
        _check_distance(geom, lowest)
        _check_distance(geom, float(samples[-1]))
        fixed = np.stack([kappa_over_grid(medium, band.f_k, env)
                          for _, medium in models])[:, None]
    if varies in ("t_s", "p"):
        values = [1.0e12, 1.2e12, 1.5e12] if values is None else values
        # every row's environment is valid when the first row's is
        Environment(t_s=lowest if varies == "t_s" else env.t_s,
                    p=lowest / ATM_IN_KPA if varies == "p" else env.p)
        labels = _labels(values, "Hz")
        f_k, b = centered_band_grid(values, band.b, band.k)
        kernel_freqs = np.column_stack((values, f_k)).ravel()  # f, its band
        groups = [(f"_f{label}", i * per_row, f, geom.d, f_k[i], b[i] / band.k)
                  for i, (label, f) in enumerate(zip(labels, values))]

    def cells_of(x: np.ndarray, schemes=schemes) -> dict:
        t_s = x[:, None] if varies == "t_s" else env.t_s
        p = x[:, None] / ATM_IN_KPA if varies == "p" else env.p
        d = x[:, None] if varies == "d" else geom.d
        freqs, block_groups = kernel_freqs, groups
        if varies == "f":  # each distance reads the one column
            freqs = x
            block_groups = [(f"_d{label}", 0, x, d_f, None, None)
                            for label, d_f in zip(labels, values)]
        elif varies == "f_k":
            freqs, b = centered_band_grid(x, band.b, band.k)
            block_groups = [("", 0, None, None, freqs, b[:, None] / band.k)]
        # the block's one kernel call per model, as (models, rows, columns)
        kappas = fixed if varies == "d" else np.stack([kernels.kappa_totals(
            freqs, medium.packed, t_s, p, DEFAULT_WING_CUTOFF)
            for _, medium in models]).reshape(len(models), len(x), -1)
        cells = {}
        for suffix, first, f, d_f, f_k, delta_f in block_groups:
            kappa = kappas[..., first:first + per_row]
            if f is not None:  # one path-loss grid serves both models
                _, _, l_d_db, _, l_db, l_codes = path_loss_grid(
                    geom, eps, f, kappa[0, :, 0], _check_distance(geom, d_f))
                # the conventional L is L_d; a null (1) outranks opaque
                path_loss = ((l_db, l_codes), (np.full(len(x), l_d_db),
                                               (l_codes == 1).view(np.uint8)))
                kappa = kappa[..., 1:]
            if schemes:  # and one floor grid
                psi, null = psi_grid(geom, eps, f_k, kappa, d, t_s, delta_f)
                ok = ~null.any(axis=-1)  # a subband on a null gaps its row
                psi = psi[:, ok]
                widths = delta_f[ok, 0] if np.ndim(delta_f) == 2 else delta_f
                codes = (~ok).view(np.uint8)  # 1: "two-ray-null"
            for i, (model, _) in enumerate(models):
                if f is not None:
                    cells[f"L_db_{model}{suffix}"] = path_loss[i]
                for tag, scheme in schemes:
                    p_k = (water_filling_grid(psi[i], scenario.p_t)[0]
                           if scheme == "waterfilling" else
                           np.full(psi[i].shape, scenario.p_t / band.k))
                    bps = np.full(len(x), np.nan)
                    bps[ok] = allocation_capacity_grid(p_k, psi[i], widths)
                    cells[f"C_bps_{model}{suffix}{tag}"] = (bps, codes)
        return cells

    if len(samples) > kernels.BLOCK_CELLS // per_row:
        if varies == "f_k":  # the first row without a band names itself
            for rows, _ in kernels.row_blocks(len(samples), per_row):
                centered_band_grid(samples[rows], band.b, band.k)
        cells_of(samples[[0, -1]], schemes=())
    for rows, _ in kernels.row_blocks(len(samples), per_row):
        yield SweepResult(axis, unit, samples[rows], cells_of(samples[rows]))


def _join(blocks: Iterator[SweepResult]) -> SweepResult:
    """The one SweepResult of a sweep's blocks."""
    first, *rest = parts = list(blocks)
    return first if not rest else SweepResult(
        first.axis, first.unit, np.concatenate([b.samples for b in parts]),
        {name: tuple(map(np.concatenate, zip(*(b.cells[name] for b in parts))))
         for name in first.cells})


def sweep_pathloss_vs_frequency(scenario: Scenario,
                                f_range: tuple[float, float],
                                n_points: int,
                                d_values: list[float] | None = None,
                                log_axis: bool = False) -> SweepResult:
    """Total path loss [dB] vs frequency, one column pair per distance."""
    return _join(_blocks(scenario, "f", f_range, n_points, log_axis, d_values))


def sweep_capacity_vs_frequency(scenario: Scenario,
                                f_range: tuple[float, float],
                                n_points: int,
                                log_axis: bool = False) -> SweepResult:
    """Capacity [bits/s] vs center frequency of a re-centered band."""
    return _join(_blocks(scenario, "f_k", f_range, n_points, log_axis))


def sweep_vs_temperature(scenario: Scenario, t_range: tuple[float, float],
                         n_points: int, f_values: list[float] | None = None,
                         log_axis: bool = False) -> SweepResult:
    """Path loss and capacity vs system noise temperature [K]."""
    return _join(_blocks(scenario, "t_s", t_range, n_points, log_axis,
                         f_values))


def sweep_vs_pressure(scenario: Scenario, p_range_kpa: tuple[float, float],
                      n_points: int, f_values: list[float] | None = None,
                      log_axis: bool = False) -> SweepResult:
    """Path loss and capacity vs ambient pressure, axis in kPa."""
    return _join(_blocks(scenario, "p", p_range_kpa, n_points, log_axis,
                         f_values))


def sweep_capacity_vs_distance(scenario: Scenario,
                               d_range: tuple[float, float], n_points: int,
                               allocation: str = "both",
                               log_axis: bool = False) -> SweepResult:
    """Capacity [bits/s] vs antenna separation [m], per allocation scheme."""
    return _join(_blocks(scenario, "d", d_range, n_points, log_axis,
                         allocation))


__all__ = [
    "Scenario", "SweepResult", "sweep_pathloss_vs_frequency",
    "sweep_capacity_vs_frequency", "sweep_vs_temperature",
    "sweep_vs_pressure", "sweep_capacity_vs_distance",
]
