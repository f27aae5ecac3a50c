"""Hot numeric kernel: absorption coefficient over frequency grids.

Summing the line-shape contribution of every catalog line at every grid
frequency dominates sweep runtime, so that sum lives here as one
vectorized numpy evaluation over a lines x frequencies array. It is the
same Van Vleck-Weisskopf math as the scalar reference functions in
:mod:`thzlink.absorption` and rejects the same out-of-domain inputs.
Each frequency accumulates independently, so results are deterministic.
"""

from __future__ import annotations

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
    """Struct-of-arrays view of a medium's lines, ready for the kernel.

    ``q`` holds the mixing ratio of each line's own species.
    """

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


# Most lines x points pairs one block of a multi-row call evaluates at
# once. It bounds the call's temporaries (64 KiB each), which then stay in
# cache; a single row is never split, since splitting a large row slows it.
BLOCK_PAIRS = 1 << 13


def kappa_totals(freqs, lines: LineArrays, t_s, p,
                 cutoff: float = np.inf) -> np.ndarray:
    """Total absorption coefficient [1/m] at each grid point.

    ``freqs`` is one row of points (K,) or a rows x points grid (R, K);
    ``t_s`` (kelvin) and ``p`` (atm) are scalars or one value per row (R,).
    The result is (K,) for one row and (R, K) otherwise. Lines farther
    than ``cutoff`` [Hz] from a frequency contribute zero there. With no
    lines the result is all zeros; otherwise a frequency that is not > 0
    and finite, or a line whose pressure-shifted center is <= 0, raises
    DomainError, as the scalar reference does.
    """
    freqs = np.asarray(freqs, dtype=np.float64)
    # per-row conditions become (R, 1) columns; scalars stay scalars, so a
    # one-row call computes exactly the (lines, K) sum it always did
    if np.ndim(t_s):
        t_s = np.asarray(t_s, dtype=np.float64).reshape(-1, 1)
    if np.ndim(p):
        p = np.asarray(p, dtype=np.float64).reshape(-1, 1)
    shape = np.broadcast(freqs, t_s, p).shape
    if len(lines) == 0:
        return np.zeros(shape)
    # argmin is the cheapest scan here, and it returns a NaN first
    if freqs.size:
        lowest = float(freqs.flat[freqs.argmin()])
        if not lowest > 0:
            raise DomainError(f"frequency must be > 0, got {lowest!r}")
        highest = float(freqs.max())
        if not highest < np.inf:
            raise DomainError(f"frequency must be finite, got {highest!r}")
    f_c = lines.f_c0 + lines.pressure_shift * (p / P_REF)
    if not f_c.min() > 0:
        where = np.unravel_index(f_c.argmin(), f_c.shape)
        p_at = float(p[where[0], 0]) if np.ndim(p) else p
        raise DomainError(
            f"pressure shift drives resonance of line {where[-1]} to "
            f"{float(f_c[where])!r} Hz at p={p_at} atm")
    alpha = (((1.0 - lines.q) * lines.alpha_air + lines.q * lines.alpha_self)
             * (p / P_REF) * (T_REF / t_s) ** lines.temp_exponent)
    # one Avogadro factor total: it lives inside `intensity` [m^2 Hz/mol],
    # so the volumetric density here is molar [mol/m^3]
    amp = ((p / P_REF) * (T_STP / t_s)
           * (p * lines.q / (GAS_CONSTANT_ATM * t_s)) * lines.intensity)
    a = PLANCK / (2.0 * BOLTZMANN * t_s)

    terms = (freqs, f_c, alpha, amp, a)
    step = max(1, BLOCK_PAIRS // (len(lines) * shape[-1]))
    if len(shape) == 1 or step >= shape[0]:
        return _block_totals(*terms, cutoff)
    out = np.empty(shape)
    for start in range(0, shape[0], step):
        rows = slice(start, start + step)
        out[rows] = _block_totals(
            *(x[rows] if np.ndim(x) == 2 else x for x in terms), cutoff)
    return out


def _block_totals(freqs, f_c, alpha, amp, a, cutoff):
    """Line sums of a block of rows.

    ``freqs`` is (K,) or (B, K); ``f_c``, ``alpha`` and ``amp`` are
    (lines,) or (B, lines); ``a`` is a scalar or (B, 1). The 1-D and
    scalar forms stand for every row.
    """
    f = freqs[..., None, :]
    fc = f_c[..., None]
    al = alpha[..., None]
    dm = f - fc
    dp = f + fc
    shape = (al / np.pi) * (f / fc) * (1.0 / (dm * dm + al * al)
                                       + 1.0 / (dp * dp + al * al))
    if np.ndim(a):
        a = a[..., None]
    xi = (f / fc) * (np.tanh(a * f) / np.tanh(a * fc)) * shape
    contrib = np.where(np.abs(dm) <= cutoff, amp[..., None] * xi, 0.0)
    return contrib.sum(axis=-2)


def active_backend() -> str:
    """Name of the grid kernel, as the benchmark's provenance records it."""
    return "numpy"


__all__ = [
    "LineArrays", "pack_lines", "kappa_totals", "active_backend",
    "NUMBA_AVAILABLE",
]
