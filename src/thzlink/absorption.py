"""Molecular absorption: line shapes, absorption coefficient, attenuation.

Every line of the medium contributes an individual absorption coefficient
built from a Van Vleck-Weisskopf profile with a pressure/temperature
dependent Lorentz half-width and a radiation-field tanh correction; the
medium coefficient kappa [1/m] is their sum, and the attenuation over a
path of length d follows Beer-Lambert as exp(kappa*d). For a line of
mixing ratio q at T [K] and p [atm], with a = h/(2 k_B T):

    f_c = f_c0 + shift p/P_REF
    alpha = ((1 - q) alpha_air + q alpha_self) (p/P_REF) (T_REF/T)^n
    F = (alpha/pi) (f/f_c) [1/((f-f_c)^2 + alpha^2) + 1/((f+f_c)^2 + alpha^2)]
    kappa_j = (p/P_REF) (T_STP/T) (p q/(R T)) S (f/f_c) tanh(af)/tanh(af_c) F

or 0 where |f - f_c| exceeds the wing cutoff. The sum is evaluated only
in :mod:`thzlink.kernels`, which the one-point functions here view. All
are pure functions of immutable inputs, safe to call concurrently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import kernels
from .constants import BOLTZMANN, PLANCK, P_REF, T_REF
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
        if not 0 < self.t_s < math.inf:
            problems.append(f"t_s must be finite and > 0, got {self.t_s!r}")
        if not 0 < self.p < math.inf:
            problems.append(f"p must be finite and > 0, got {self.p!r}")
        if problems:
            raise ValidationError(problems)


@dataclass(frozen=True)
class AbsorptionBreakdown:
    """Total absorption coefficient [1/m] and its per-line terms, keyed by
    (gas_id, iso_id, index in the medium's line list), which sum to it."""

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
    if not 0 < f < math.inf:
        raise DomainError(f"frequency must be > 0 and finite, got {f!r}")
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
    """Individual absorption coefficient of one line [1/m], no cutoff:
    :func:`medium_kappa` of the line alone at mixing ratio ``q``."""
    _check_q(q)
    medium = Medium(composition={line.species: q}, lines=(line,))
    return medium_kappa(medium, f, env, wing_cutoff=None).total_kappa


def medium_kappa(medium: Medium, f: float, env: Environment,
                 wing_cutoff: float | None = DEFAULT_WING_CUTOFF
                 ) -> AbsorptionBreakdown:
    """Medium absorption coefficient at one frequency, per-line resolved:
    the one-point view of :func:`thzlink.kernels.line_contributions`."""
    cutoff = np.inf if wing_cutoff is None else float(wing_cutoff)
    contributions = kernels.line_contributions(
        (f,), medium.packed, env.t_s, env.p, cutoff)[:, 0]
    per_line = {(line.gas_id, line.iso_id, index): value
                for index, (line, value)
                in enumerate(zip(medium.lines, contributions.tolist()))}
    return AbsorptionBreakdown(total_kappa=float(contributions.sum()),
                               per_line=per_line)


def kappa_over_grid(medium: Medium, freqs, env: Environment,
                    wing_cutoff: float | None = DEFAULT_WING_CUTOFF
                    ) -> np.ndarray:
    """Total kappa [1/m] on a frequency grid via the hot kernel.

    Raises DomainError for a medium with lines as kernels.kappa_totals
    does: for a grid frequency that is not > 0 and finite, a line's
    pressure-shifted center <= 0, or a factor outside float64.
    """
    cutoff = np.inf if wing_cutoff is None else float(wing_cutoff)
    return kernels.kappa_totals(freqs, medium.packed, env.t_s, env.p, cutoff)


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
    kappa = float(kappa_over_grid(medium, (f,), env, wing_cutoff)[0])
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
