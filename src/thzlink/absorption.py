"""Molecular absorption: line shapes, absorption coefficient, attenuation.

Every line of the medium contributes an individual absorption coefficient
built from a Van Vleck-Weisskopf profile with a pressure/temperature
dependent Lorentz half-width and a radiation-field tanh correction; the
medium coefficient kappa [1/m] is their sum, and the attenuation over a
path of length d follows Beer-Lambert as exp(kappa*d).

Scalar single-frequency operations live here and serve as the readable
reference; grids go through :mod:`thzlink.kernels`. Everything is a pure
function of immutable inputs and safe to call concurrently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import kernels
from .constants import (BOLTZMANN, GAS_CONSTANT_ATM, PLANCK, P_REF, T_REF,
                        T_STP)
from .errors import DomainError, ValidationError
from .spectro import Medium, SpectralLine

# Lines farther than this [Hz] from the evaluation frequency are skipped;
# pass wing_cutoff=None to evaluate every line (oracle comparisons).
DEFAULT_WING_CUTOFF = 5.0e12

# kappa*d beyond this saturates to an "opaque medium" result.
DEFAULT_OVERFLOW_CAP = 700.0


@dataclass(frozen=True)
class Environment:
    """Operating conditions around the chip.

    Attributes:
        t_s: system electronic noise temperature [K].
        p: ambient pressure [atm].
    """

    t_s: float = T_REF
    p: float = 1.0

    def __post_init__(self):
        problems = []
        if not self.t_s > 0:
            problems.append(f"t_s must be > 0, got {self.t_s!r}")
        if not self.p > 0:
            problems.append(f"p must be > 0, got {self.p!r}")
        if problems:
            raise ValidationError(problems)


@dataclass(frozen=True)
class AbsorptionBreakdown:
    """Total absorption coefficient and its per-line contributions [1/m].

    ``per_line`` is keyed by (gas_id, iso_id, index of the line within the
    medium's line list); ``total_kappa`` is exactly the sum of its values.
    """

    total_kappa: float
    per_line: dict[tuple[int, int, int], float]


@dataclass(frozen=True)
class Attenuation:
    """Beer-Lambert attenuation over one path.

    ``loss`` is dimensionless >= 1 and ``transmittance`` its reciprocal.
    When kappa*d exceeds the overflow cap, ``loss`` saturates at
    exp(cap) and ``opaque`` is set instead of overflowing.
    """

    loss: float
    transmittance: float
    opaque: bool
    optical_depth: float  # kappa * d


def _check_q(q: float):
    if not 0.0 <= q <= 1.0:
        raise DomainError(f"mixing ratio must be in [0, 1], got {q!r}")


def lorentz_half_width(line: SpectralLine, q: float,
                       env: Environment) -> float:
    """Pressure- and temperature-dependent Lorentz half-width [Hz]."""
    _check_q(q)
    broadening = (1.0 - q) * line.alpha_air + q * line.alpha_self
    return broadening * (env.p / P_REF) * (T_REF / env.t_s) ** line.temp_exponent


def shifted_resonance(line: SpectralLine, env: Environment) -> float:
    """Line center after the linear pressure shift [Hz]."""
    f_c = line.f_c0 + line.pressure_shift * (env.p / P_REF)
    if f_c <= 0:
        raise DomainError(
            f"pressure shift drives resonance of {line.species} to "
            f"{f_c!r} Hz at p={env.p} atm")
    return f_c


def vvw_line_shape(line: SpectralLine, f: float, env: Environment,
                   q: float) -> float:
    """Van Vleck-Weisskopf asymmetric line shape [1/Hz].

    Two mirrored Lorentzian poles at +/- the shifted line center, scaled
    by f/f_c; SI throughout (unit conversion happened at ingestion).
    """
    if not f > 0:
        raise DomainError(f"frequency must be > 0, got {f!r}")
    alpha = lorentz_half_width(line, q, env)
    f_c = shifted_resonance(line, env)
    pole_lo = 1.0 / ((f - f_c) ** 2 + alpha ** 2)
    pole_hi = 1.0 / ((f + f_c) ** 2 + alpha ** 2)
    return (alpha / math.pi) * (f / f_c) * (pole_lo + pole_hi)


def spectral_line_shape(line: SpectralLine, f: float, env: Environment,
                        q: float) -> float:
    """Radiation-field-corrected line shape [1/Hz].

    Applies the f/f_c ratio and the tanh(hf/2kT) correction ratio to the
    Van Vleck-Weisskopf profile.
    """
    shape = vvw_line_shape(line, f, env, q)
    f_c = shifted_resonance(line, env)
    a = PLANCK / (2.0 * BOLTZMANN * env.t_s)
    return (f / f_c) * (math.tanh(a * f) / math.tanh(a * f_c)) * shape


def line_absorption(line: SpectralLine, q: float, f: float,
                    env: Environment) -> float:
    """Individual absorption coefficient of one line [1/m].

    The line intensity carries the per-mole cross-section scaling, so
    the volumetric density factor here is molar [mol/m^3].
    """
    _check_q(q)
    molar_density = env.p * q / (GAS_CONSTANT_ATM * env.t_s)
    xi = spectral_line_shape(line, f, env, q)
    return ((env.p / P_REF) * (T_STP / env.t_s)
            * molar_density * line.line_intensity * xi)


def medium_kappa(medium: Medium, f: float, env: Environment,
                 wing_cutoff: float | None = DEFAULT_WING_CUTOFF
                 ) -> AbsorptionBreakdown:
    """Medium absorption coefficient at one frequency, per-line resolved."""
    per_line: dict[tuple[int, int, int], float] = {}
    total = 0.0
    for index, line in enumerate(medium.lines):
        q = medium.q_for(line)
        f_c = shifted_resonance(line, env)
        if wing_cutoff is not None and abs(f - f_c) > wing_cutoff:
            contribution = 0.0
        else:
            contribution = line_absorption(line, q, f, env)
        per_line[(line.gas_id, line.iso_id, index)] = contribution
        total += contribution
    return AbsorptionBreakdown(total_kappa=total, per_line=per_line)


def kappa_over_grid(medium: Medium, freqs, env: Environment,
                    wing_cutoff: float | None = DEFAULT_WING_CUTOFF
                    ) -> np.ndarray:
    """Total kappa [1/m] on a frequency grid via the hot kernel.

    Raises DomainError for a medium with lines when a grid frequency is
    <= 0 or a line's pressure-shifted center is <= 0.
    """
    packed = kernels.pack_lines(medium)
    cutoff = np.inf if wing_cutoff is None else float(wing_cutoff)
    return kernels.kappa_totals(freqs, packed, env.t_s, env.p, cutoff)


def maa(medium: Medium, f: float, env: Environment, d: float,
        wing_cutoff: float | None = DEFAULT_WING_CUTOFF,
        overflow_cap: float = DEFAULT_OVERFLOW_CAP) -> Attenuation:
    """Molecular absorption attenuation over a path of length d [m].

    Returns the Beer-Lambert loss exp(kappa*d) >= 1 together with the
    transmittance exp(-kappa*d); saturates with ``opaque=True`` instead of
    overflowing once kappa*d exceeds ``overflow_cap``.
    """
    if d < 0:
        raise DomainError(f"path length must be >= 0, got {d!r}")
    kappa = medium_kappa(medium, f, env, wing_cutoff).total_kappa
    return attenuation_from_optical_depth(kappa * d, overflow_cap)


def attenuation_from_optical_depth(
        optical_depth: float,
        overflow_cap: float = DEFAULT_OVERFLOW_CAP) -> Attenuation:
    """Beer-Lambert loss for a precomputed kappa*d."""
    opaque = optical_depth > overflow_cap
    loss = math.exp(min(optical_depth, overflow_cap))
    return Attenuation(loss=loss,
                       transmittance=math.exp(-optical_depth),
                       opaque=opaque,
                       optical_depth=optical_depth)


__all__ = [
    "DEFAULT_WING_CUTOFF", "DEFAULT_OVERFLOW_CAP", "Environment",
    "AbsorptionBreakdown", "Attenuation", "lorentz_half_width",
    "shifted_resonance", "vvw_line_shape", "spectral_line_shape",
    "line_absorption", "medium_kappa", "kappa_over_grid", "maa",
    "attenuation_from_optical_depth",
]
