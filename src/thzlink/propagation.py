"""Two-ray dielectric propagation loss, total path loss, link budget.

The in-package channel combines a direct and a single dominant reflected
ray; their phase relation produces the csc^2 term of the spreading loss.
Total path loss multiplies that dielectric loss by the molecular
absorption attenuation. All gains and losses are linear internally; dB
appears only at the reporting boundary.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .absorption import (DEFAULT_OVERFLOW_CAP, DEFAULT_WING_CUTOFF,
                         Environment, maa, medium_kappa)
from .constants import LIGHT_SPEED
from .errors import DomainError, TwoRayNullError, ValidationError
from .spectro import Medium

# |sin(argument)| below this counts as sitting on a two-ray null.
NULL_SINE_TOLERANCE = 1.0e-12


def db(x: float) -> float:
    """Linear power ratio to dB."""
    return 10.0 * math.log10(x)


@dataclass(frozen=True)
class LinkGeometry:
    """Antenna and package geometry [m, linear gains].

    Attributes:
        d: transmitter-receiver separation.
        h_t, h_r: antenna heights.
        g_t, g_r: antenna gains (linear).
        d_c: longest package side (bounds d).
        h: package height (bounds antenna heights).
    """

    d: float
    h_t: float
    h_r: float
    g_t: float = 1.0
    g_r: float = 1.0
    d_c: float = 0.02
    h: float = 1.0e-3

    def __post_init__(self):
        problems = []
        if not 0 < self.d <= self.d_c:
            problems.append(
                f"d must satisfy 0 < d <= d_c={self.d_c!r}, got {self.d!r}")
        for name in ("h_t", "h_r"):
            value = getattr(self, name)
            if not 0 < value <= self.h:
                problems.append(
                    f"{name} must satisfy 0 < {name} <= h={self.h!r}, "
                    f"got {value!r}")
        for name in ("g_t", "g_r"):
            if not getattr(self, name) > 0:
                problems.append(
                    f"{name} must be > 0, got {getattr(self, name)!r}")
        if problems:
            raise ValidationError(problems)


@dataclass(frozen=True)
class PathLossReport:
    """Dielectric, absorption, and total path loss (linear and dB)."""

    l_d: float
    l_a: float
    l: float
    l_d_db: float
    l_a_db: float
    l_db: float
    opaque: bool = False


@dataclass(frozen=True)
class LinkBudget:
    """Received-power ledger [dB terms]; p_r_dbw is the sum of the terms."""

    p_t_dbw: float
    g_t_db: float
    g_r_db: float
    permittivity_db: float   # -10 log10(eps_r)
    spreading_db: float      # -20 log10[(2 pi d f / c) csc(arg)]
    absorption_db: float     # -10 log10(e) * kappa * d
    p_r_dbw: float


def phase_velocity(epsilon_r: float) -> float:
    """Wave speed in the dielectric [m/s]."""
    if not epsilon_r >= 1.0:
        raise DomainError(f"epsilon_r must be >= 1, got {epsilon_r!r}")
    return LIGHT_SPEED / math.sqrt(epsilon_r)


def phase_difference(geom: LinkGeometry, f: float, epsilon_r: float) -> float:
    """Phase offset between direct and reflected E-field components [rad]."""
    return 4.0 * math.pi * geom.h_t * geom.h_r * f / (phase_velocity(epsilon_r) * geom.d)


def two_ray_argument(geom: LinkGeometry, f: float, epsilon_r: float,
                     d: float | None = None) -> float:
    """Argument of the two-ray sine (half the phase difference) [rad]."""
    if not epsilon_r >= 1.0:
        raise DomainError(f"epsilon_r must be >= 1, got {epsilon_r!r}")
    if d is None:
        d = geom.d
    return (2.0 * math.pi * geom.h_t * geom.h_r * f * math.sqrt(epsilon_r)
            / (LIGHT_SPEED * d))


def _checked_sine(argument: float, f: float | None = None,
                  subband: int | None = None) -> float:
    s = math.sin(argument)
    if abs(s) < NULL_SINE_TOLERANCE:
        raise TwoRayNullError(argument, frequency=f, subband=subband)
    return s


def _check_distance(geom: LinkGeometry, d: float):
    if not 0 < d <= geom.d_c:
        raise DomainError(
            f"d must satisfy 0 < d <= d_c={geom.d_c!r}, got {d!r}")


def dielectric_path_loss(geom: LinkGeometry, f: float, epsilon_r: float,
                         d: float | None = None) -> float:
    """Two-ray dielectric propagation loss (linear, > 0).

    Raises TwoRayNullError when the sine argument lands on a multiple of
    pi, where the model itself diverges; ``d`` overrides ``geom.d`` for
    distance sweeps.
    """
    if not f > 0:
        raise DomainError(f"frequency must be > 0, got {f!r}")
    if d is None:
        d = geom.d
    else:
        _check_distance(geom, d)
    argument = two_ray_argument(geom, f, epsilon_r, d)
    sine = _checked_sine(argument, f)
    spreading = 2.0 * math.pi * d * f / LIGHT_SPEED
    return spreading ** 2 * epsilon_r / (geom.g_t * geom.g_r) / sine ** 2


def total_path_loss(geom: LinkGeometry, medium: Medium, env: Environment,
                    f: float, d: float | None = None,
                    wing_cutoff: float | None = DEFAULT_WING_CUTOFF,
                    overflow_cap: float = DEFAULT_OVERFLOW_CAP
                    ) -> PathLossReport:
    """Total path loss L = L_d * L_a with dB components."""
    if d is None:
        d = geom.d
    l_d = dielectric_path_loss(geom, f, medium.epsilon_r, d)
    attenuation = maa(medium, f, env, d, wing_cutoff, overflow_cap)
    l_a = attenuation.loss
    return PathLossReport(
        l_d=l_d, l_a=l_a, l=l_d * l_a,
        l_d_db=db(l_d), l_a_db=db(l_a), l_db=db(l_d) + db(l_a),
        opaque=attenuation.opaque)


def link_budget_db(geom: LinkGeometry, medium: Medium, env: Environment,
                   f: float, p_t: float,
                   wing_cutoff: float | None = DEFAULT_WING_CUTOFF
                   ) -> LinkBudget:
    """Received power at the far antenna, term by term in dB.

    The absorption term uses the exact 10*log10(e) constant so the ledger
    sum equals the linear-domain result to rounding error.
    """
    if not p_t > 0:
        raise DomainError(f"transmit power must be > 0, got {p_t!r}")
    argument = two_ray_argument(geom, f, medium.epsilon_r)
    sine = _checked_sine(argument, f)
    spreading = 2.0 * math.pi * geom.d * f / LIGHT_SPEED
    kappa = medium_kappa(medium, f, env, wing_cutoff).total_kappa

    p_t_dbw = db(p_t)
    g_t_db = db(geom.g_t)
    g_r_db = db(geom.g_r)
    permittivity_db = -db(medium.epsilon_r)
    spreading_db = -20.0 * math.log10(spreading / abs(sine))
    absorption_db = -(10.0 / math.log(10.0)) * kappa * geom.d
    return LinkBudget(
        p_t_dbw=p_t_dbw, g_t_db=g_t_db, g_r_db=g_r_db,
        permittivity_db=permittivity_db, spreading_db=spreading_db,
        absorption_db=absorption_db,
        p_r_dbw=(p_t_dbw + g_t_db + g_r_db + permittivity_db
                 + spreading_db + absorption_db))


__all__ = [
    "NULL_SINE_TOLERANCE", "db", "LinkGeometry", "PathLossReport",
    "LinkBudget", "phase_velocity", "phase_difference", "two_ray_argument",
    "dielectric_path_loss", "total_path_loss", "link_budget_db",
]
