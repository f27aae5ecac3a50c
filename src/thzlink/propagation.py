"""Two-ray dielectric propagation loss, total path loss, link budget.

The in-package channel combines a direct and a single dominant reflected
ray; their phase relation produces the csc^2 term of the spreading loss.
Total path loss multiplies that dielectric loss by the molecular
absorption attenuation, whose wing cutoff and overflow cap are model
constants. All gains and losses are linear internally; dB appears only at
the reporting boundary.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .absorption import Environment, _beer_lambert, kappa_over_grid
from .constants import LIGHT_SPEED
from .errors import DomainError, TwoRayNullError, ValidationError
from .kernels import _check_frequencies
from .spectro import Medium

# |sin(argument)| below this counts as sitting on a two-ray null.
NULL_SINE_TOLERANCE = 1.0e-12

# a gap reason's text, indexed by its uint8 code: 0 is no gap
GAP_REASONS = ("", "two-ray-null", "opaque")


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
    return 2.0 * two_ray_argument(geom, f, epsilon_r)


def _sine_argument(geom: LinkGeometry, f, epsilon_r: float, d):
    """2 pi h_t h_r f sqrt(epsilon_r) / (c d), over floats or arrays."""
    if not epsilon_r >= 1.0:
        raise DomainError(f"epsilon_r must be >= 1, got {epsilon_r!r}")
    return (2.0 * math.pi * geom.h_t * geom.h_r * f * math.sqrt(epsilon_r)
            / (LIGHT_SPEED * d))


def two_ray_argument(geom: LinkGeometry, f: float, epsilon_r: float,
                     d: float | None = None) -> float:
    """Argument of the two-ray sine (half the phase difference) [rad].

    Raises DomainError for a frequency that is not finite, an epsilon_r
    below 1, or a ``d`` (which overrides ``geom.d``) outside (0, d_c].
    """
    _check_frequencies(np.float64(f), positive=False)
    return _sine_argument(geom, f, epsilon_r, _check_distance(geom, d))


def two_ray_grid(geom: LinkGeometry, f, epsilon_r: float, d) -> tuple:
    """Dielectric loss L_d (linear) and two-ray null mask over broadcasting
    f [Hz] and d [m].

    L_d is meaningless where the null mask is set: the sine argument sits
    on a multiple of pi, where the model itself diverges. Raises
    DomainError for a frequency that is not > 0 and finite, an epsilon_r
    below 1, or a frequency and distance that put L_d (or a term of it)
    outside finite, non-zero float64.
    """
    f = np.asarray(f, dtype=np.float64)
    _check_frequencies(f)
    # a term outside float64 leaves L_d there too, as 0, inf or NaN
    with np.errstate(all="ignore"):
        spreading = 2.0 * math.pi * d * f / LIGHT_SPEED
        sine = np.sin(_sine_argument(geom, f, epsilon_r, d))
        # not ** 2: on a 0-d input that is a numpy scalar's pow()
        l_d = (spreading * spreading * epsilon_r / (geom.g_t * geom.g_r)
               / (sine * sine))
    for i in (l_d.argmin(), l_d.argmax()):
        if not 0 < l_d.item(i) < np.inf:
            f_i, d_i = (float(np.broadcast_to(x, l_d.shape).flat[i])
                        for x in (f, d))
            raise DomainError(
                f"frequency {f_i!r} Hz at distance {d_i!r} m puts the "
                f"two-ray terms outside float64")
    return l_d, np.abs(sine) < NULL_SINE_TOLERANCE


def path_loss_grid(geom: LinkGeometry, epsilon_r: float, f, kappa,
                   d) -> tuple:
    """Path loss over broadcasting f [Hz], kappa [1/m] and d [m]: L_d and
    L_a (linear), then L_d, L_a and L = L_d * L_a in dB, and each cell's
    gap reason.

    The reasons are a uint8 array of codes into GAP_REASONS: 1 for
    "two-ray-null", 2 for "opaque", 0 for none; the null takes precedence.
    An opaque cell, whose kappa * d exceeds DEFAULT_OVERFLOW_CAP, saturates
    L_a at exp(cap). Raises as two_ray_grid.
    """
    l_d, null = two_ray_grid(geom, f, epsilon_r, d)
    l_a, opaque = _beer_lambert(kappa * d)
    l_d_db, l_a_db = 10.0 * np.log10(l_d), 10.0 * np.log10(l_a)
    codes = np.where(null, np.uint8(1), opaque * np.uint8(2))
    return l_d, l_a, l_d_db, l_a_db, l_d_db + l_a_db, codes


def _check_distance(geom: LinkGeometry, d: float | None = None) -> float:
    """``d``, or ``geom.d`` when None; DomainError unless 0 < d <= d_c."""
    if d is None:
        return geom.d
    if not 0 < d <= geom.d_c:
        raise DomainError(
            f"d must satisfy 0 < d <= d_c={geom.d_c!r}, got {d!r}")
    return d


def dielectric_path_loss(geom: LinkGeometry, f: float, epsilon_r: float,
                         d: float | None = None) -> float:
    """Two-ray dielectric propagation loss (linear, > 0): the one-point
    view of :func:`two_ray_grid`.

    Raises TwoRayNullError when the sine argument lands on a multiple of
    pi, where the model itself diverges, and DomainError as two_ray_grid
    does or for a ``d`` outside (0, d_c]; ``d`` overrides ``geom.d``.
    """
    d = _check_distance(geom, d)
    l_d, null = two_ray_grid(geom, f, epsilon_r, d)
    if null:
        raise TwoRayNullError(two_ray_argument(geom, f, epsilon_r, d),
                              frequency=f)
    return float(l_d)


def total_path_loss(geom: LinkGeometry, medium: Medium, env: Environment,
                    f: float, d: float | None = None) -> PathLossReport:
    """Total path loss L = L_d * L_a with dB components: the one-cell view
    of :func:`path_loss_grid`, so it has the bits of a sweep's cell.

    Raises TwoRayNullError on a two-ray null, and DomainError as
    dielectric_path_loss and kappa_over_grid do.
    """
    d = _check_distance(geom, d)
    kappa = kappa_over_grid(medium, (f,), env)[0]
    *losses, code = path_loss_grid(geom, medium.epsilon_r, f, kappa, d)
    reason = GAP_REASONS[code.item()]
    if reason == "two-ray-null":
        raise TwoRayNullError(two_ray_argument(geom, f, medium.epsilon_r, d),
                              frequency=f)
    l_d, l_a, l_d_db, l_a_db, l_db = map(float, losses)
    return PathLossReport(l_d=l_d, l_a=l_a, l=l_d * l_a, l_d_db=l_d_db,
                          l_a_db=l_a_db, l_db=l_db,
                          opaque=reason == "opaque")


def link_budget_db(geom: LinkGeometry, medium: Medium, env: Environment,
                   f: float, p_t: float) -> LinkBudget:
    """Received power at the far antenna, term by term in dB.

    The absorption term uses the exact 10*log10(e) constant so the ledger
    sum equals the linear-domain result to rounding error.
    """
    if not 0 < p_t < math.inf:
        raise DomainError(f"transmit power must be finite and > 0, got "
                          f"{p_t!r}")
    l_d = dielectric_path_loss(geom, f, medium.epsilon_r)
    kappa = float(kappa_over_grid(medium, (f,), env)[0])
    p_t_dbw = db(p_t)
    g_t_db = db(geom.g_t)
    g_r_db = db(geom.g_r)
    permittivity_db = -db(medium.epsilon_r)
    # L_d carries the gains and the permittivity; the rest is spreading
    spreading_db = -db(l_d) - g_t_db - g_r_db - permittivity_db
    absorption_db = -(10.0 / math.log(10.0)) * kappa * geom.d
    return LinkBudget(
        p_t_dbw=p_t_dbw, g_t_db=g_t_db, g_r_db=g_r_db,
        permittivity_db=permittivity_db, spreading_db=spreading_db,
        absorption_db=absorption_db,
        p_r_dbw=(p_t_dbw + g_t_db + g_r_db + permittivity_db
                 + spreading_db + absorption_db))


__all__ = [
    "NULL_SINE_TOLERANCE", "GAP_REASONS", "db", "LinkGeometry",
    "PathLossReport", "LinkBudget", "phase_velocity", "phase_difference",
    "two_ray_argument", "two_ray_grid", "path_loss_grid",
    "dielectric_path_loss", "total_path_loss", "link_budget_db",
]
