"""Hot numeric kernel: the line sum of :mod:`thzlink.absorption`.

This is the one place the sum is evaluated: over grids by kappa_totals,
line by line by line_contributions. Its formulas factor as kappa_j(f) =
g(f) w_j [1/A + 1/B] with A = (f - f_c)^2 + alpha^2, B = (f + f_c)^2 +
alpha^2 = A + f 4f_c, g(f) = f^2 tanh(a f) per point and w_j = amp_j
alpha/(pi f_c^2 tanh(a f_c)) per line. The per-line factors, 4 f_c among
them, depend only on the temperature and pressure: a scalar condition's
are derived and checked once and kept on the LineArrays, so repeated calls
at one condition reuse them; the per-point factors are computed once per
call. A lines x points pair costs one division, the poles taken as (A +
B)/(A B), the cutoff test (skipped when no pair is farther apart than the
cutoff) and a weighted sum. A B is a normal float64 wherever B is in [1,
2^511), which a call checks from its extreme points and line factors;
outside that, each pair whose A B is not normal takes the two reciprocals.

Every call runs _weighted_poles in one of two pair layouts:

- tiles, for a call of more than BLOCK_CELLS pairs at a scalar (T, p):
  each block of points takes slices of (points, lines) copies of the four
  line factors, tiled once per call, and its points repeated once per line
  (the array that takes B), so that no pass broadcasts a column of points
  against a row of lines, which costs about twice a same-shape pass;
- broadcast views, for one-block calls, and for per-row T, per-row p or
  per-row points, whose line factors or points differ by row.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field

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
    ``q`` holds the mixing ratio of each line's own species.

    ``_state`` is the last scalar condition's validated line state, as one
    (key, state) tuple that is read and replaced whole, so concurrent
    callers never pair a key with another condition's arrays."""

    f_c0: np.ndarray
    intensity: np.ndarray
    alpha_air: np.ndarray
    alpha_self: np.ndarray
    temp_exponent: np.ndarray
    pressure_shift: np.ndarray
    q: np.ndarray
    _state: tuple | None = field(default=None, init=False, compare=False,
                                 repr=False)

    def __len__(self) -> int:
        return self.f_c0.shape[0]


def pack_lines(medium) -> LineArrays:
    """Pack a Medium's lines into contiguous float64 arrays."""
    return _pack(medium.lines, map(medium.q_for, medium.lines))


def _pack(lines, qs) -> LineArrays:
    """``lines`` (SpectralLine) at mixing ratios ``qs``, as LineArrays."""
    cols = np.empty((7, len(lines)))
    for j, (line, q) in enumerate(zip(lines, qs)):
        cols[:, j] = (line.f_c0, line.line_intensity, line.alpha_air,
                      line.alpha_self, line.temp_exponent,
                      line.pressure_shift, q)
    cols.setflags(write=False)  # a Medium caches its packing
    return LineArrays(*cols)


def _line_center_and_width(lines, q, t_s, p):
    """Pressure-shifted center f_c and Lorentz half-width alpha [Hz] of a
    SpectralLine or LineArrays (the fields share names) at mixing ratio
    ``q``, ``t_s`` [K] and ``p`` [atm], floats or arrays. np.power, not
    **, so that floats and arrays share one pow."""
    return (lines.f_c0 + lines.pressure_shift * (p / P_REF),
            ((1.0 - q) * lines.alpha_air + q * lines.alpha_self)
            * ((p / P_REF) * np.power(T_REF / t_s, lines.temp_exponent)))


def _check_frequencies(freqs: np.ndarray, positive: bool = True) -> tuple:
    """The lowest and highest of ``freqs``. DomainError unless every one is
    finite and, with ``positive``, > 0; argmin and argmax are the cheapest
    scans, and they return a NaN first."""
    lowest = freqs.item(freqs.argmin())
    if positive and not lowest > 0:
        raise DomainError(f"frequency must be > 0, got {lowest!r}")
    highest = freqs.item(freqs.argmax())
    if not (-np.inf < lowest and highest < np.inf):
        raise DomainError("frequency must be finite, got "
                          f"{highest if lowest > -np.inf else lowest!r}")
    return lowest, highest


# Most cells evaluated at once: kernel lines x points, capacity rows x
# subbands, rendered rows x columns; no row depends on another. 1 << 14 ran
# fastest of 1 << 12 ... 1 << 16: larger blocks pay fewer numpy dispatches,
# but past 128 KiB a float64 temporary, glibc malloc returns a block's freed
# temporaries to the OS and the next block faults them in afresh.
BLOCK_CELLS = 1 << 14


def row_blocks(n_rows: int, row_cells: int, *args):
    """Row slices of at most BLOCK_CELLS cells (a longer row alone), with
    ``args`` at those rows: a 2-D one is sliced, any other is shared."""
    step = max(1, BLOCK_CELLS // row_cells)
    per_row = [np.ndim(x) == 2 for x in args]  # once per call, not per block
    for start in range(0, n_rows, step):
        rows = slice(start, start + step)
        yield rows, [x[rows] if sliced else x
                     for x, sliced in zip(args, per_row)]


# A pole denominator (f - f_c)^2 + alpha^2 at least this large has a finite
# reciprocal; below it the denominator is subnormal or 0, and its reciprocal
# can overflow.
_TINY = np.finfo(np.float64).tiny


def _at(condition, row: int) -> float:
    """A per-row temperature or pressure's value at ``row``, or the scalar."""
    return float(condition[row, 0] if np.ndim(condition) else condition)


def _derive_line_state(lines: LineArrays, t_s, p):
    """Per line f_c, alpha^2, w and 4 f_c, a = h/2kT, whether any alpha^2 is
    below the smallest normal float64, the largest alpha^2, and the lowest
    and highest f_c, at numpy-scalar or per-row (R, 1) conditions. Raises
    for a resonance <= 0 or a weight outside float64."""
    # every factor is checked below, NaN and inf included
    with np.errstate(all="ignore"):
        f_c, alpha = _line_center_and_width(lines, lines.q, t_s, p)
        # one Avogadro factor total: it lives inside `intensity` [m^2 Hz/mol],
        # so the volumetric density here is molar [mol/m^3]
        amp = ((p / P_REF) * (T_STP / t_s) * (p / (GAS_CONSTANT_ATM * t_s))
               * (lines.q * lines.intensity))
        a = PLANCK / (2.0 * BOLTZMANN * t_s)
        weight = amp * alpha / (np.pi * f_c * f_c * np.tanh(a * f_c))
        alpha2 = alpha * alpha
    nearest = int(f_c.argmin())
    if not f_c.item(nearest) > 0:
        row, j = divmod(nearest, len(lines))
        raise DomainError(
            f"pressure shift drives resonance of line {j} to "
            f"{float(f_c.flat[nearest])!r} Hz at p={_at(p, row)!r} atm")
    # w >= 0 has alpha as a factor, so its largest value shows either one
    # outside float64, and argmax returns a NaN first
    largest = int(weight.argmax())
    if not weight.item(largest) < np.inf:
        row = largest // len(lines)
        raise DomainError(
            f"temperature {_at(t_s, row)!r} K at pressure {_at(p, row)!r} atm "
            f"puts the line widths or weights outside float64")
    return (f_c, alpha2, weight, 4.0 * f_c, a, bool(alpha2.min() < _TINY),
            alpha2.item(alpha2.argmax()), f_c.item(nearest),
            f_c.item(f_c.argmax()))


def _kept_line_state(lines: LineArrays, t_s, p):
    """The line state at numpy-scalar conditions, derived once per (t_s, p)
    and kept, read-only, on ``lines``. A condition that raises is never
    kept."""
    # the bits of (t_s, p), so that 0.0 and -0.0 are two conditions
    key = struct.pack("dd", t_s, p)
    slot = lines._state
    if slot is not None and slot[0] == key:
        return slot[1]
    state = _derive_line_state(lines, t_s, p)
    for x in state[:4]:
        x.setflags(write=False)
    object.__setattr__(lines, "_state", (key, state))
    return state


def _condition(x):
    """A temperature or pressure as numpy's scalar, whose division by an
    underflowed 0 gives inf, as an array's does, not an error; or, given
    per row, as an (R, 1) column."""
    if isinstance(x, float) or np.ndim(x) == 0:
        return np.float64(x)
    return np.asarray(x, dtype=np.float64).reshape(-1, 1)


def _factors(freqs, lines: LineArrays, t_s, p, cutoff: float):
    """A call's result shape and, with lines and points, its factors: per
    point f and g, per line f_c, 4 f_c, alpha^2 and w, whether an alpha^2
    underflowed, whether every pair's A.B is sure to be normal, and the
    cutoff, inf where it cannot mask any pair. Raises as kappa_totals."""
    freqs = np.asarray(freqs, dtype=np.float64)
    t_s, p = _condition(t_s), _condition(p)
    per_row = isinstance(t_s, np.ndarray) or isinstance(p, np.ndarray)
    shape = np.broadcast(freqs, t_s, p).shape if per_row else freqs.shape
    if len(lines) == 0 or freqs.size == 0:
        return shape, None
    lowest, highest = _check_frequencies(freqs)
    # per-row conditions (the temperature and pressure sweeps) are not kept
    f_c, alpha2, weight, f4c, a, narrow, alpha2_hi, f_c_lo, f_c_hi = (
        _derive_line_state if per_row else _kept_line_state)(lines, t_s, p)
    # fl(f - f_c) is monotone in f and f_c, so no pair's |f - f_c| exceeds
    # these two; within the cutoff it masks nothing (a NaN keeps the mask)
    if highest - f_c_lo <= cutoff and f_c_hi - lowest <= cutoff:
        cutoff = np.inf
    # 0 < tanh(a f) <= 1, so f^2 tanh(a f) overflows where f^2 does, and
    # its smallest value shows whether any underflowed to 0
    outside = "frequency {!r} Hz puts f^2 tanh(a f) outside float64"
    if not highest * highest < np.inf:
        raise DomainError(outside.format(highest))
    # tanh(x) rounds to 1.0 for every x >= 19, so capping a where each
    # a f >= 20 keeps every g and keeps a f finite at the coldest rows,
    # unless the grid spans more decades than float64 holds
    cap = 20.0 / lowest
    a = np.minimum(a, cap) if per_row else min(a, cap)
    if not cap * highest < np.inf and not float(np.max(a)) * highest < np.inf:
        raise DomainError(f"frequencies {lowest!r} to {highest!r} Hz put "
                          f"a f in tanh(a f) outside float64")
    g = freqs * freqs * np.tanh(a * freqs)
    smallest = g.argmin()
    if not g.item(smallest) > 0:
        raise DomainError(outside.format(
            float(np.broadcast_to(freqs, g.shape).flat[smallest])))
    # _TINY <= A <= B, so every A.B is normal where B = A + f 4f_c is in
    # [1, 2^511): rounding is monotone, so no pair's B is below the first
    # bound, nor above the second, (f + f_c)^2 + alpha^2 at its extremes
    # with a factor 2 for rounding
    top = highest + f_c_hi
    bounded = (lowest * (4.0 * f_c_lo) >= 1.0
               and top * top + alpha2_hi < 2.0 ** 510)
    return shape, (freqs, g, f_c, f4c, alpha2, weight, narrow, bounded,
                   cutoff)


def _weighted_poles(f, f_c, f4c, alpha2, weight, narrow, bounded,
                    cutoff) -> np.ndarray:
    """w_j times the poles, 0 beyond the cutoff, at the (..., K, lines)
    pairs, for operands that broadcast to them: as _broadcast's views or
    _tiled's same-shape copies. With ``narrow`` (some alpha^2 underflowed),
    a point on such a line's center, where its pole leaves float64, raises
    DomainError.

    The two poles are 1/A + 1/B with A = (f - f_c)^2 + alpha^2 and B = A +
    f 4f_c = (f + f_c)^2 + alpha^2, taken as (A + B)/(A.B): one division a
    pair. Unless ``bounded``, a pair whose A.B is not a normal float64
    takes the two reciprocals, B as (f + f_c)^2 + alpha^2, so a pair's bits
    depend on its own f and line alone.

    Every layout gives each pair the same operations, and lines run along
    the last, contiguous axis, so numpy sums each point's lines in the same
    (pairwise) order whatever the operands' shapes, and a point's kappa has
    the same bits alone, in any block or in any row."""
    dm = f - f_c
    mask = np.abs(dm) > cutoff if cutoff < np.inf else None
    # in place after the first pass, as allocating temporaries costs more
    # than their arithmetic
    dm *= dm
    # A, in dm unless alpha^2 varies by row where f - f_c does not (per-row
    # T at one p)
    dm = np.add(dm, alpha2,
                out=dm if alpha2.shape[:-2] in ((), dm.shape[:-2]) else None)
    # only a line whose alpha^2 is below _TINY can put an A there
    if narrow and not dm.min() >= _TINY:
        at = int(dm.argmin())
        raise DomainError(
            f"frequency {float(np.broadcast_to(f, dm.shape).flat[at])!r} "
            f"Hz is on the center of line {at % dm.shape[-1]}, whose "
            f"half-width squared underflows float64")
    # B in f only where f is _tiled's repeat, made by this call: _broadcast's
    # f is a view of the caller's points, and never owns its data
    b = np.multiply(f, f4c, out=f if bounded and f.flags.owndata else None)
    b = np.add(b, dm, out=b if b.shape == dm.shape else None)
    if bounded:
        terms = dm + b
        dm *= b
        terms /= dm
    else:  # the two reciprocals where A.B is not normal
        with np.errstate(all="ignore"):
            terms = dm + b
            b *= dm
            terms /= b
        dp = f + f_c
        np.copyto(terms, 1.0 / dm + 1.0 / (dp * dp + alpha2),
                  where=~((b >= _TINY) & (b < np.inf)))
    terms *= weight
    if mask is not None:
        np.copyto(terms, 0.0, where=mask)
    return terms


def _broadcast(f, f_c, f4c, alpha2, weight, *flags):
    """_weighted_poles' operands as views: (K,) or (B, K) points as
    (..., K, 1) and (lines,) or (B, lines) line factors (1-D: any row) as
    (..., 1, lines). Four of its passes then broadcast one against the
    other, each at ~2x a same-shape pass's cost, but nothing is copied."""
    return (f[..., None], f_c[..., None, :], f4c[..., None, :],
            alpha2[..., None, :], weight[..., None, :], *flags)


def _tiled(f, tiles, *flags):
    """_weighted_poles' operands as same-shape arrays: each point of ``f``
    repeated once per line, in an array of its own, and the first
    ``f.size`` rows of each (P, lines) tile of f_c, 4 f_c, alpha^2 and w,
    viewed in the pairs' shape. The repeat is one pass; it saves four
    broadcasting ones."""
    pairs = f.shape + tiles[0].shape[-1:]
    return (np.repeat(f[..., None], pairs[-1], axis=-1),
            *(tile[:f.size].reshape(pairs) for tile in tiles), *flags)


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
    finite float64, or a frequency on the center of a line whose half-width
    squared underflows float64, raises DomainError. A scalar (t_s, p)'s
    per-line factors are kept on ``lines`` and reused while it repeats.
    """
    shape, terms = _factors(freqs, lines, t_s, p, cutoff)
    if terms is None:
        return np.zeros(shape)
    f, g, *per_line = terms
    if len(lines) * math.prod(shape) <= BLOCK_CELLS:  # one block
        return g * _weighted_poles(*_broadcast(f, *per_line)).sum(axis=-1)
    # a row longer than the budget is split into blocks of points
    points = max(1, min(shape[-1], BLOCK_CELLS // len(lines)))
    out = np.empty(shape)
    by_row = out.reshape(-1, shape[-1])
    # tiled once per call at a scalar condition; per-row line factors stay
    # views, as tiling them per block would cost about the copies it saves
    tiles = [np.tile(x, (max(1, BLOCK_CELLS // len(lines)), 1))
             for x in per_line[:4]] if per_line[2].ndim == 1 else None
    for rows, (f, g, *per_line) in row_blocks(len(by_row),
                                              len(lines) * points, *terms):
        for k in range(0, shape[-1], points):
            cols = slice(k, k + points)
            operands = (_tiled(f[..., cols], tiles, *per_line[4:]) if tiles
                        else _broadcast(f[..., cols], *per_line))
            by_row[rows, cols] = g[..., cols] * _weighted_poles(
                *operands).sum(axis=-1)
    return out


def line_contributions(freqs, lines: LineArrays, t_s, p,
                       cutoff: float = np.inf) -> np.ndarray:
    """Each line's kappa [1/m] at each point: (lines, K) for one row, else
    (R, lines, K). As kappa_totals, but in one block, for a few points."""
    shape, terms = _factors(freqs, lines, t_s, p, cutoff)
    if terms is None:
        return np.zeros(shape[:-1] + (len(lines),) + shape[-1:])
    f, g, *per_line = terms
    return np.swapaxes(
        g[..., None] * _weighted_poles(*_broadcast(f, *per_line)), -1, -2)


def active_backend() -> str:
    """Name of the grid kernel, as the benchmark's provenance records it."""
    return "numpy"


__all__ = [
    "LineArrays", "pack_lines", "kappa_totals", "line_contributions",
    "active_backend", "NUMBA_AVAILABLE",
]
