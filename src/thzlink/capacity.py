"""Frequency-selective noise model and water-filling Shannon capacity.

The channel bandwidth is split into K narrow subbands treated as parallel
channels. Each subband k carries a noise-loss floor Psi_k combining the
dielectric loss, the absorption attenuation, and the total noise
temperature at its center frequency; the optimal allocation pours the
power budget above those floors up to a common water level.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .absorption import DEFAULT_WING_CUTOFF, Environment, kappa_over_grid
from .constants import BOLTZMANN, T_REF
from .errors import (ApproximationRegimeError, DomainError, TwoRayNullError,
                     ValidationError)
from .propagation import (LinkGeometry, _check_distance, two_ray_argument,
                          two_ray_grid)
from .spectro import Medium


@dataclass(frozen=True)
class BandPlan:
    """K subbands of equal width across a total bandwidth B [Hz].

    Center frequencies sit at the subband midpoints, so the k-th center is
    f_lo + (k - 1/2) * B/K.
    """

    b: float
    k: int
    f_k: np.ndarray

    def __post_init__(self):
        problems = []
        if not (isinstance(self.k, int) and self.k >= 1):
            problems.append(f"subband count must be an integer >= 1, got {self.k!r}")
        if not self.b > 0:
            problems.append(f"bandwidth must be > 0, got {self.b!r}")
        f_k = np.asarray(self.f_k, dtype=np.float64)
        if f_k.shape != (self.k,):
            problems.append(
                f"expected {self.k} center frequencies, got shape {f_k.shape}")
        else:
            if not np.all(f_k > 0):
                problems.append("every center frequency must be > 0")
            if self.k > 1 and not np.all(np.diff(f_k) > 0):
                problems.append("center frequencies must be strictly increasing")
        if problems:
            raise ValidationError(problems)
        object.__setattr__(self, "f_k", f_k)

    @property
    def delta_f(self) -> float:
        return self.b / self.k

    @classmethod
    def from_edges(cls, f_lo: float, f_hi: float, k: int) -> "BandPlan":
        if not f_hi > f_lo >= 0:
            raise ValidationError(
                [f"band edges must satisfy 0 <= f_lo < f_hi, got "
                 f"[{f_lo!r}, {f_hi!r}]"])
        b = f_hi - f_lo
        delta = b / k
        centers = f_lo + (np.arange(k) + 0.5) * delta
        return cls(b=b, k=k, f_k=centers)

    @classmethod
    def centered(cls, center: float, bandwidth: float, k: int) -> "BandPlan":
        """The band around a model-domain frequency ``center`` [Hz].

        A center that is not finite, that puts the lower edge below 0 Hz,
        or so large that float64 cannot tell the band's edges or subband
        centers apart raises DomainError; the other checks are
        from_edges'.
        """
        f_lo, f_hi = center - bandwidth / 2.0, center + bandwidth / 2.0
        if not (f_lo >= 0 and center < math.inf):
            raise DomainError(
                f"frequency {center!r} Hz puts the band edges at "
                f"[{f_lo!r}, {f_hi!r}]; they must satisfy 0 <= f_lo < f_hi")
        try:
            return cls.from_edges(f_lo, f_hi, k)
        except ValidationError:
            # the same width and count at 0 Hz raise if they are invalid;
            # if they are not, the center collapsed the band
            cls.from_edges(0.0, bandwidth, k)
            raise DomainError(
                f"frequency {center!r} Hz is too large to split a "
                f"{bandwidth!r} Hz band into {k} subbands in float64"
            ) from None


@dataclass(frozen=True)
class NoiseModel:
    """Per-subband noise temperatures [K].

    Total noise is system electronic plus molecular absorption
    re-emission; other sources are assumed negligible and dropped, which
    ``t_prime_neglected`` records.
    """

    t_s: float
    t_m: np.ndarray
    t_tot: np.ndarray
    t_prime_neglected: bool = True


@dataclass(frozen=True)
class PowerAllocation:
    """Subband powers [W], the water level, and the resulting capacity.

    ``theta`` is None for allocations that are not water-filled (flat).
    """

    p_k: np.ndarray
    theta: float | None
    psi_k: np.ndarray
    capacity_bits_per_s: float | None = None


def molecular_noise_temperature(medium: Medium, env: Environment, f: float,
                                d: float) -> float:
    """Absorption re-emission noise temperature T_ref*(1 - tau) [K]."""
    kappa = float(kappa_over_grid(medium, (f,), env)[0])
    return T_REF * -math.expm1(-kappa * d)


def noise_model(medium: Medium, env: Environment, band: BandPlan, d: float,
                wing_cutoff: float | None = DEFAULT_WING_CUTOFF) -> NoiseModel:
    """Subband noise temperatures over a band plan."""
    kappa = kappa_over_grid(medium, band.f_k, env, wing_cutoff)
    t_m = T_REF * -np.expm1(-kappa * d)
    return NoiseModel(t_s=env.t_s, t_m=t_m, t_tot=env.t_s + t_m)


def noise_power(medium: Medium, env: Environment, band: BandPlan,
                d: float) -> float:
    """Total noise power over the band [W], midpoint-rule discretized."""
    model = noise_model(medium, env, band, d)
    return BOLTZMANN * float(np.sum(model.t_tot)) * band.delta_f


def psi_grid(geom: LinkGeometry, epsilon_r: float, f_k, kappa, d, t_s,
             delta_f) -> tuple[np.ndarray, np.ndarray]:
    """Noise-loss floors Psi [W] over a rows x subbands grid.

    ``f_k`` and ``kappa`` are (K,) or (R, K); ``d``, ``t_s`` and
    ``delta_f`` are scalars or (R, 1) columns; everything broadcasts to
    (R, K). Opaque cells saturate to +inf. Also returns the mask of cells
    whose subband center sits on a two-ray null, where the floor is
    meaningless. Raises DomainError as two_ray_grid does.
    """
    l_d, null = two_ray_grid(geom, f_k, epsilon_r, d)
    with np.errstate(over="ignore"):
        bracket = (t_s + T_REF) * np.exp(kappa * d) - T_REF
        psi = BOLTZMANN * l_d * delta_f * bracket
    return psi, np.broadcast_to(null, psi.shape)


def psi_coefficients(geom: LinkGeometry, medium: Medium, env: Environment,
                     band: BandPlan, d: float,
                     wing_cutoff: float | None = DEFAULT_WING_CUTOFF
                     ) -> np.ndarray:
    """Noise-loss floor Psi_k [W] of every subband.

    Equals k_B * L(f_k) * T_tot(f_k) * delta_f; opaque subbands saturate
    to +inf, which the water-filling solver treats as never-funded.

    Raises DomainError unless 0 < d <= geom.d_c, and TwoRayNullError
    naming the first subband whose center frequency sits on a two-ray
    null.
    """
    _check_distance(geom, d)
    kappa = kappa_over_grid(medium, band.f_k, env, wing_cutoff)
    psi, null = psi_grid(geom, medium.epsilon_r, band.f_k, kappa, d,
                         env.t_s, band.delta_f)
    if null.any():
        k_index = int(null.argmax())
        f = float(band.f_k[k_index])
        raise TwoRayNullError(two_ray_argument(geom, f, medium.epsilon_r, d),
                              frequency=f, subband=k_index)
    return psi


def _check_budget(p_t: float):
    if not 0 <= p_t < math.inf:
        raise DomainError(f"power budget must be finite and >= 0, got {p_t!r}")


def water_filling_grid(psi, p_t: float) -> tuple[np.ndarray, np.ndarray]:
    """Exact water-filling of every row of a rows x subbands floor grid.

    The water level solves sum((theta - psi)^+) = p_t in closed form:
    with a row's floors sorted ascending, the level implied by funding the
    m cheapest floors is (p_t + sum of those floors)/m, and the optimal
    active set is the largest m whose implied level still exceeds its
    m-th floor. No iteration tolerance is involved.

    Returns the (R, K) allocations and the (R,) water levels. A zero
    budget yields all-zero allocations with each level at the row's
    lowest floor. Raises DomainError for a budget that is negative or not
    finite, a floor that is not > 0, or a row whose floors are all
    infinite.
    """
    psi = np.asarray(psi, dtype=np.float64)
    if not np.all(psi > 0):
        raise DomainError("every psi entry must be > 0")
    _check_budget(p_t)
    if p_t == 0:
        return np.zeros_like(psi), psi.min(axis=-1)
    psi_sorted = np.sort(psi, axis=-1)
    m = np.arange(1, psi.shape[-1] + 1)
    with np.errstate(invalid="ignore"):
        theta_by_m = (p_t + np.cumsum(psi_sorted, axis=-1)) / m
    feasible = theta_by_m > psi_sorted
    if not feasible.any(axis=-1).all():
        raise DomainError("no fundable subband (all floors infinite)")
    # the active set is the largest feasible m of each row
    m_star = psi.shape[-1] - feasible[..., ::-1].argmax(axis=-1)
    # The level is recomputed from a pairwise sum (np.sum) of the funded
    # floors: the sequential rounding of the cumsum shows when the budget
    # is far below the floors, since p_k = theta - psi_k then cancels.
    funded = np.empty(m_star.shape)
    for count in set(m_star.tolist()):
        rows = m_star == count
        funded[rows] = psi_sorted[rows, :count].sum(axis=-1)
    theta = (p_t + funded) / m_star
    return np.maximum(theta[..., None] - psi, 0.0), theta


def allocation_capacity_grid(p_k, psi, delta_f) -> np.ndarray:
    """Shannon capacity [bits/s] of each row of explicit allocations.

    ``delta_f`` is a scalar or one subband width per row (R,).
    """
    p_k = np.asarray(p_k, dtype=np.float64)
    funded = p_k > 0
    ratio = np.divide(p_k, psi, out=np.zeros(funded.shape), where=funded)
    return delta_f * np.sum(np.log2(1.0 + ratio), axis=-1)


def water_filling(psi, p_t: float, delta_f: float | None = None
                  ) -> PowerAllocation:
    """Exact water-filling over one row of noise-loss floors psi [W].

    See :func:`water_filling_grid`; this is its one-row view.
    """
    psi = np.asarray(psi, dtype=np.float64)
    if psi.ndim != 1 or psi.size == 0:
        raise DomainError("psi must be a non-empty 1-D array")
    allocation, theta = water_filling_grid(psi[None, :], p_t)
    capacity = None
    if delta_f is not None:
        capacity = allocation_capacity(allocation[0], psi, delta_f)
    return PowerAllocation(p_k=allocation[0], theta=float(theta[0]),
                           psi_k=psi, capacity_bits_per_s=capacity)


def allocation_capacity(p_k, psi, delta_f: float) -> float:
    """Shannon capacity [bits/s] of an explicit subband allocation."""
    return float(allocation_capacity_grid(p_k, psi, delta_f))


def channel_capacity(geom: LinkGeometry, medium: Medium, env: Environment,
                     band: BandPlan, d: float, p_t: float,
                     wing_cutoff: float | None = DEFAULT_WING_CUTOFF
                     ) -> PowerAllocation:
    """Water-filled channel capacity; the result carries the allocation."""
    psi = psi_coefficients(geom, medium, env, band, d, wing_cutoff)
    return water_filling(psi, p_t, delta_f=band.delta_f)


def flat_allocation_capacity(geom: LinkGeometry, medium: Medium,
                             env: Environment, band: BandPlan, d: float,
                             p_t: float,
                             wing_cutoff: float | None = DEFAULT_WING_CUTOFF
                             ) -> PowerAllocation:
    """Capacity with the budget split evenly across subbands."""
    _check_budget(p_t)
    psi = psi_coefficients(geom, medium, env, band, d, wing_cutoff)
    allocation = np.full(band.k, p_t / band.k)
    return PowerAllocation(
        p_k=allocation, theta=None, psi_k=psi,
        capacity_bits_per_s=allocation_capacity(allocation, psi,
                                                band.delta_f))


# Small-antenna approximation applies while this regime measure stays
# below the threshold (and kappa*d stays small).
APPROX_REGIME_LIMIT = 0.1


def approx_capacity_small_antenna(geom: LinkGeometry, medium: Medium,
                                  env: Environment, band: BandPlan, d: float,
                                  p_t: float,
                                  wing_cutoff: float | None = DEFAULT_WING_CUTOFF
                                  ) -> PowerAllocation:
    """Capacity in the small-antenna limit (unit gains, h_t*h_r << d).

    Replaces the exact floors with their Maclaurin-limit form
    Phi_k = k_B d^4 delta_f [T_S + (T_S + T_ref) kappa_k d] / (h_t^2 h_r^2),
    which drops the csc^2 oscillation and the permittivity factor.
    """
    regime = (two_ray_argument(geom, float(band.f_k[-1]), medium.epsilon_r, d)
              / (2.0 * math.pi))
    if regime >= APPROX_REGIME_LIMIT:
        raise ApproximationRegimeError(
            f"antenna size measure {regime:.4g} >= {APPROX_REGIME_LIMIT}; "
            "the small-antenna approximation does not apply")
    if geom.g_t != 1.0 or geom.g_r != 1.0:
        raise ApproximationRegimeError(
            "the small-antenna approximation assumes unit antenna gains")
    kappa = kappa_over_grid(medium, band.f_k, env, wing_cutoff)
    phi = (BOLTZMANN * d ** 4 * band.delta_f
           * (env.t_s + (env.t_s + T_REF) * kappa * d)
           / (geom.h_t ** 2 * geom.h_r ** 2))
    return water_filling(phi, p_t, delta_f=band.delta_f)


__all__ = [
    "BandPlan", "NoiseModel", "PowerAllocation",
    "molecular_noise_temperature", "noise_model", "noise_power",
    "psi_grid", "psi_coefficients", "water_filling_grid", "water_filling",
    "allocation_capacity_grid", "allocation_capacity", "channel_capacity",
    "flat_allocation_capacity",
    "approx_capacity_small_antenna", "APPROX_REGIME_LIMIT",
]
