"""Hot numeric kernel: the line sum of :mod:`thzlink.absorption`.

This is the one place the sum is evaluated: over grids by kappa_totals,
line by line by line_contributions. Its formulas factor as kappa_j(f) =
g(f) w_j [1/((f - f_c)^2 + alpha^2) + 1/((f + f_c)^2 + alpha^2)] with
g(f) = f^2 tanh(a f) per point and w_j = amp_j alpha/(pi f_c^2 tanh(a f_c))
per line, both computed once per call, so a lines x points pair costs the
two poles, the cutoff test and a weighted sum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constants import (BOLTZMANN, GAS_CONSTANT_ATM, PLANCK, P_REF, T_REF,
                        T_STP)
from .errors import DomainError

# Kept as a constant, like active_backend(), because the benchmark's run
# provenance records both.
NUMBA_AVAILABLE = False


@dataclass(frozen=True)
class LineArrays:
    """Struct-of-arrays view of a medium's lines, ready for the kernel;
    ``q`` holds the mixing ratio of each line's own species."""

    f_c0: np.ndarray
    intensity: np.ndarray
    alpha_air: np.ndarray
    alpha_self: np.ndarray
    temp_exponent: np.ndarray
    pressure_shift: np.ndarray
    q: np.ndarray

    def __len__(self) -> int:
        return self.f_c0.shape[0]


def pack_lines(medium) -> LineArrays:
    """Pack a Medium's lines into contiguous float64 arrays."""
    n = len(medium.lines)
    cols = np.empty((7, n))
    for j, line in enumerate(medium.lines):
        cols[:, j] = (line.f_c0, line.line_intensity, line.alpha_air,
                      line.alpha_self, line.temp_exponent,
                      line.pressure_shift, medium.q_for(line))
    cols.setflags(write=False)  # a Medium caches its packing
    return LineArrays(*cols)


# Most lines x points pairs evaluated at once. Every call is split over
# rows and points into such blocks, which bounds its temporaries (64 KiB
# each, so they stay in cache); no point's sum depends on another point.
BLOCK_PAIRS = 1 << 13


def _at(condition, row: int) -> float:
    """A per-row temperature or pressure's value at ``row``, or the scalar."""
    return float(condition[row, 0] if np.ndim(condition) else condition)


def _factors(freqs, lines: LineArrays, t_s, p):
    """A call's result shape and, with lines and points, its factors: per
    point f and g, per line f_c, alpha^2 and w. Raises as kappa_totals."""
    freqs = np.asarray(freqs, dtype=np.float64)
    # per-row conditions become (R, 1) columns; scalars become numpy's, whose
    # division by an underflowed 0 gives inf, as an array's does, not an error
    t_s, p = (np.float64(x) if isinstance(x, float) or np.ndim(x) == 0 else
              np.asarray(x, dtype=np.float64).reshape(-1, 1) for x in (t_s, p))
    shape = np.broadcast(freqs, t_s, p).shape
    if len(lines) == 0 or freqs.size == 0:
        return shape, None
    # argmin and argmax are the cheapest scans, and they return a NaN first
    lowest = float(freqs.flat[freqs.argmin()])
    if not lowest > 0:
        raise DomainError(f"frequency must be > 0, got {lowest!r}")
    highest = float(freqs.flat[freqs.argmax()])
    if not highest < np.inf:
        raise DomainError(f"frequency must be finite, got {highest!r}")
    # every factor is checked below, NaN and inf included
    with np.errstate(all="ignore"):
        f_c = lines.f_c0 + lines.pressure_shift * (p / P_REF)
        alpha = (((1.0 - lines.q) * lines.alpha_air
                  + lines.q * lines.alpha_self)
                 * ((p / P_REF) * (T_REF / t_s) ** lines.temp_exponent))
        # one Avogadro factor total: it lives inside `intensity` [m^2 Hz/mol],
        # so the volumetric density here is molar [mol/m^3]
        amp = ((p / P_REF) * (T_STP / t_s) * (p / (GAS_CONSTANT_ATM * t_s))
               * (lines.q * lines.intensity))
        a = PLANCK / (2.0 * BOLTZMANN * t_s)
        weight = amp * alpha / (np.pi * f_c * f_c * np.tanh(a * f_c))
        alpha2 = alpha * alpha
        g = freqs * freqs * np.tanh(a * freqs)
    nearest = int(f_c.argmin())
    if not f_c.flat[nearest] > 0:
        row, j = divmod(nearest, len(lines))
        raise DomainError(
            f"pressure shift drives resonance of line {j} to "
            f"{float(f_c.flat[nearest])!r} Hz at p={_at(p, row)!r} atm")
    # w >= 0 has alpha as a factor, so its largest value shows either one
    # outside float64, and argmax returns a NaN first
    largest = int(weight.argmax())
    if not weight.flat[largest] < np.inf:
        row = largest // len(lines)
        raise DomainError(
            f"temperature {_at(t_s, row)!r} K at pressure {_at(p, row)!r} atm "
            f"puts the line widths or weights outside float64")
    # 0 < tanh(a f) <= 1, so f^2 tanh(a f) overflows where f^2 does, and
    # its smallest value shows whether any underflowed to 0
    outside = "frequency {!r} Hz puts f^2 tanh(a f) outside float64"
    if not highest * highest < np.inf:
        raise DomainError(outside.format(highest))
    smallest = g.argmin()
    if not g.flat[smallest] > 0:
        raise DomainError(outside.format(
            float(np.broadcast_to(freqs, g.shape).flat[smallest])))
    if f_c.shape != weight.shape:  # per-row t_s at one p; broadcast_to is slow
        f_c = np.broadcast_to(f_c, weight.shape)
    return shape, (freqs, g, f_c, alpha2, weight)


def _weighted_poles(f, f_c, alpha2, weight, cutoff) -> np.ndarray:
    """w_j times the poles, 0 beyond the cutoff, (..., K, lines), for (K,)
    or (B, K) points and (lines,) or (B, lines) line factors (1-D: any row).

    Lines run along the last, contiguous axis, so numpy sums each point's
    lines in the same (pairwise) order whatever the block's shape, and a
    point's kappa has the same bits alone, in any block or in any row."""
    f, fc, a2 = f[..., None], f_c[..., None, :], alpha2[..., None, :]
    # in place, as allocating temporaries costs more than their arithmetic;
    # f_c has every line factor's shape, so dm and dp have the block's
    dm = f - fc
    terms = dm * dm
    terms += a2
    np.reciprocal(terms, out=terms)
    dp = f + fc
    dp *= dp
    dp += a2
    terms += np.reciprocal(dp, out=dp)
    terms *= weight[..., None, :]
    terms[np.abs(dm) > cutoff] = 0.0
    return terms


def kappa_totals(freqs, lines: LineArrays, t_s, p,
                 cutoff: float = np.inf) -> np.ndarray:
    """Total absorption coefficient [1/m] at each grid point.

    ``freqs`` is one row of points (K,) or a rows x points grid (R, K);
    ``t_s`` (kelvin) and ``p`` (atm) are scalars or one value per row (R,).
    The result is (K,) for one row and (R, K) otherwise. Lines farther
    than ``cutoff`` [Hz] from a frequency contribute zero there. With no
    lines the result is all zeros; otherwise a frequency that is not > 0
    and finite, or that puts the per-point factor f^2 tanh(a f) outside
    finite, non-zero float64, or a line whose pressure-shifted center is
    <= 0, or a temperature and pressure that put a line's weight outside
    finite float64, raises DomainError.
    """
    shape, terms = _factors(freqs, lines, t_s, p)
    if terms is None:
        return np.zeros(shape)
    f, g, *per_line = terms
    if len(lines) * math.prod(shape) <= BLOCK_PAIRS:  # one block
        return g * _weighted_poles(f, *per_line, cutoff).sum(axis=-1)
    points = max(1, min(shape[-1], BLOCK_PAIRS // len(lines)))
    rows = max(1, BLOCK_PAIRS // (len(lines) * points))
    out = np.empty(shape)
    by_row = out.reshape(-1, shape[-1])
    for r in range(0, len(by_row), rows):
        f, g, *per_line = (x[r:r + rows] if np.ndim(x) == 2 else x
                           for x in terms)
        for k in range(0, shape[-1], points):
            cols = slice(k, k + points)
            by_row[r:r + rows, cols] = g[..., cols] * _weighted_poles(
                f[..., cols], *per_line, cutoff).sum(axis=-1)
    return out


def line_contributions(freqs, lines: LineArrays, t_s, p,
                       cutoff: float = np.inf) -> np.ndarray:
    """Each line's kappa [1/m] at each point: (lines, K) for one row, else
    (R, lines, K). As kappa_totals, but in one block, for a few points."""
    shape, terms = _factors(freqs, lines, t_s, p)
    if terms is None:
        return np.zeros(shape[:-1] + (len(lines),) + shape[-1:])
    f, g, *per_line = terms
    return np.swapaxes(g[..., None] * _weighted_poles(f, *per_line, cutoff),
                       -1, -2)


def active_backend() -> str:
    """Name of the grid kernel, as the benchmark's provenance records it."""
    return "numpy"


__all__ = [
    "LineArrays", "pack_lines", "kappa_totals", "line_contributions",
    "active_backend", "NUMBA_AVAILABLE",
]
