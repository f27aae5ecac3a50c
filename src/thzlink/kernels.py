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
    return LineArrays(*(np.ascontiguousarray(cols[i]) for i in range(7)))


def kappa_totals(freqs, lines: LineArrays, t_s: float, p: float,
                 cutoff: float = np.inf) -> np.ndarray:
    """Total absorption coefficient [1/m] at each grid frequency.

    Lines farther than ``cutoff`` [Hz] from a frequency contribute zero
    there. With no lines the result is all zeros; otherwise a frequency
    that is not > 0, or a line whose pressure-shifted center is <= 0,
    raises DomainError, as the scalar reference does.
    """
    freqs = np.ascontiguousarray(freqs, dtype=np.float64)
    if len(lines) == 0:
        return np.zeros(freqs.shape)
    # argmin is the cheapest scan here, and it returns a NaN first
    if freqs.size:
        lowest = float(freqs[freqs.argmin()])
        if not lowest > 0:
            raise DomainError(f"frequency must be > 0, got {lowest!r}")
    f_c = lines.f_c0 + lines.pressure_shift * (p / P_REF)
    j = int(f_c.argmin())
    if f_c[j] <= 0:
        raise DomainError(
            f"pressure shift drives resonance of line {j} to "
            f"{float(f_c[j])!r} Hz at p={p} atm")
    alpha = (((1.0 - lines.q) * lines.alpha_air + lines.q * lines.alpha_self)
             * (p / P_REF) * (T_REF / t_s) ** lines.temp_exponent)
    # one Avogadro factor total: it lives inside `intensity` [m^2 Hz/mol],
    # so the volumetric density here is molar [mol/m^3]
    amp = ((p / P_REF) * (T_STP / t_s)
           * (p * lines.q / (GAS_CONSTANT_ATM * t_s)) * lines.intensity)
    a = PLANCK / (2.0 * BOLTZMANN * t_s)

    f = freqs[None, :]
    fc = f_c[:, None]
    al = alpha[:, None]
    dm = f - fc
    dp = f + fc
    shape = (al / np.pi) * (f / fc) * (1.0 / (dm * dm + al * al)
                                       + 1.0 / (dp * dp + al * al))
    xi = (f / fc) * (np.tanh(a * f) / np.tanh(a * fc)) * shape
    contrib = np.where(np.abs(dm) <= cutoff, amp[:, None] * xi, 0.0)
    return contrib.sum(axis=0)


def active_backend() -> str:
    """Name of the grid kernel, as the benchmark's provenance records it."""
    return "numpy"


__all__ = [
    "LineArrays", "pack_lines", "kappa_totals", "active_backend",
    "NUMBA_AVAILABLE",
]
