"""A 50-digit oracle for the Van Vleck-Weisskopf line sum.

The oracle restates the formulas of :mod:`thzlink.absorption`'s docstrings
in mpmath, one line and one frequency at a time, so the kernel and the
one-point API built on it are checked against arithmetic they do not
share. Inputs are the library's float64 values taken exactly; only the
arithmetic differs.
"""

import mpmath
import numpy as np
import pytest

from thzlink import kernels
from thzlink.absorption import (DEFAULT_WING_CUTOFF, Environment,
                                line_absorption, maa, medium_kappa)
from thzlink.constants import (BOLTZMANN, GAS_CONSTANT_ATM, PLANCK, P_REF,
                               T_REF, T_STP)
from thzlink.spectro import Medium

REL = 1e-12
DIGITS = 50


def oracle_line(line, q, f, t_s, p, cutoff=None):
    """kappa_j [1/m] of one line at one frequency, to 50 digits."""
    with mpmath.workdps(DIGITS):
        mp = mpmath.mpf
        f, t_s, p, q = mp(f), mp(t_s), mp(p), mp(q)
        f_c = mp(line.f_c0) + mp(line.pressure_shift) * (p / mp(P_REF))
        if cutoff is not None and abs(f - f_c) > mp(cutoff):
            return mp(0)
        alpha = (((1 - q) * mp(line.alpha_air) + q * mp(line.alpha_self))
                 * (p / mp(P_REF))
                 * (mp(T_REF) / t_s) ** mp(line.temp_exponent))
        vvw = ((alpha / mpmath.pi) * (f / f_c)
               * (1 / ((f - f_c) ** 2 + alpha ** 2)
                  + 1 / ((f + f_c) ** 2 + alpha ** 2)))
        a = mp(PLANCK) / (2 * mp(BOLTZMANN) * t_s)
        xi = (f / f_c) * (mpmath.tanh(a * f) / mpmath.tanh(a * f_c)) * vvw
        molar_density = p * q / (mp(GAS_CONSTANT_ATM) * t_s)
        return ((p / mp(P_REF)) * (mp(T_STP) / t_s) * molar_density
                * mp(line.line_intensity) * xi)


def oracle_kappa(medium, f, t_s, p, cutoff=None):
    with mpmath.workdps(DIGITS):
        return mpmath.fsum(oracle_line(line, medium.q_for(line), f, t_s, p,
                                       cutoff) for line in medium.lines)


def assert_close(value, expected, where):
    value, expected = mpmath.mpf(float(value)), mpmath.mpf(expected)
    if expected == 0:
        assert value == 0, where
    else:
        rel = abs(value - expected) / abs(expected)
        assert rel <= REL, f"{where}: rel {float(rel):.3g}"


def _freqs(medium, env):
    """A spread grid plus points on and beside shifted line centers."""
    centers = [line.f_c0 + line.pressure_shift * env.p / P_REF
               for line in medium.lines[::7]]
    return np.concatenate((np.linspace(0.4e12, 3.1e12, 9), centers,
                           np.array(centers) + 3.0e9))


def test_kernel_one_row(default_medium, env):
    freqs = _freqs(default_medium, env)
    got = kernels.kappa_totals(freqs, default_medium.packed, env.t_s, env.p)
    assert got.shape == freqs.shape
    for f, value in zip(freqs.tolist(), got.tolist()):
        assert_close(value, oracle_kappa(default_medium, f, env.t_s, env.p),
                     f"f={f!r}")


def test_kernel_rows_with_per_row_conditions(default_medium):
    temps = np.array([250.0, 296.0, 333.3, 400.0])
    pressures = np.array([0.2, 1.0, 1.7, 0.55])
    freqs = np.linspace(0.9e12, 2.6e12, 7)
    shared = kernels.kappa_totals(freqs, default_medium.packed, temps,
                                  pressures)
    per_row = freqs[None, :] * np.array([1.0, 1.1, 0.93, 1.2])[:, None]
    own = kernels.kappa_totals(per_row, default_medium.packed, temps,
                               pressures)
    assert shared.shape == own.shape == (4, 7)
    for r, (t_s, p) in enumerate(zip(temps.tolist(), pressures.tolist())):
        for k in range(7):
            assert_close(shared[r, k], oracle_kappa(
                default_medium, freqs[k], t_s, p), f"row {r}, f={freqs[k]!r}")
            assert_close(own[r, k], oracle_kappa(
                default_medium, per_row[r, k], t_s, p),
                f"row {r}, f={per_row[r, k]!r}")


def test_kernel_finite_cutoff(default_medium, env):
    cutoff = 0.35e12
    freqs = _freqs(default_medium, env)
    # no line sits so near the cutoff that float rounding could flip it
    for line in default_medium.lines:
        f_c = line.f_c0 + line.pressure_shift * env.p / P_REF
        assert np.all(np.abs(np.abs(freqs - f_c) - cutoff) > 1.0e3)
    got = kernels.kappa_totals(freqs, default_medium.packed, env.t_s, env.p,
                               cutoff)
    skipped = 0
    for f, value in zip(freqs.tolist(), got.tolist()):
        expected = oracle_kappa(default_medium, f, env.t_s, env.p, cutoff)
        skipped += expected != oracle_kappa(default_medium, f, env.t_s, env.p)
        assert_close(value, expected, f"f={f!r}")
    assert skipped  # the cutoff removes lines somewhere on the grid


@pytest.mark.parametrize("cutoff", [None, 0.35e12])
def test_medium_kappa_total_and_per_line(default_medium, cutoff):
    """medium_kappa at the wing cutoff, and the kernel's per-line terms and
    their sum, as medium_kappa forms them, at ``cutoff`` (None: none)."""
    env = Environment(t_s=321.0, p=1.4)
    for f in (0.55e12, 1.2e12, 1.6693e12, 2.9e12):
        breakdown = medium_kappa(default_medium, f, env)
        assert_close(breakdown.total_kappa, oracle_kappa(
            default_medium, f, env.t_s, env.p, DEFAULT_WING_CUTOFF),
            f"f={f!r}")
        assert len(breakdown.per_line) == len(default_medium.lines)
        terms = kernels.line_contributions(
            (f,), default_medium.packed, env.t_s, env.p,
            np.inf if cutoff is None else cutoff)[:, 0]
        assert_close(terms.sum(), oracle_kappa(
            default_medium, f, env.t_s, env.p, cutoff), f"f={f!r}")
        for index, line in enumerate(default_medium.lines):
            key = (line.gas_id, line.iso_id, index)
            assert_close(breakdown.per_line[key], oracle_line(
                line, default_medium.q_for(line), f, env.t_s, env.p,
                DEFAULT_WING_CUTOFF), f"f={f!r}, line {key}")
            assert_close(terms[index], oracle_line(
                line, default_medium.q_for(line), f, env.t_s, env.p,
                cutoff), f"f={f!r}, line {key}")


def test_line_absorption(line_factory):
    lines = [line_factory(),
             line_factory(f_c0=1.7e12, intensity=8.0e11, alpha_air=4.0e9,
                          alpha_self=2.2e10, temp_exponent=0.45,
                          pressure_shift=-2.5e8)]
    for line in lines:
        for q in (0.0, 0.05, 0.6, 1.0):
            for t_s, p in ((296.0, 1.0), (260.0, 0.3), (390.0, 2.2)):
                for f in (0.3e12, 0.999e12, 1.7e12, 4.0e12):
                    assert_close(
                        line_absorption(line, q, f, Environment(t_s, p)),
                        oracle_line(line, q, f, t_s, p),
                        f"q={q}, t_s={t_s}, p={p}, f={f!r}")


def test_maa(default_medium, water_medium):
    env = Environment(t_s=280.0, p=0.8)
    for medium in (default_medium, water_medium,
                   Medium(composition={}, epsilon_r=2.0)):
        for f in (1.0e12, 1.21e12, 2.2e12):
            for d in (0.0, 1.0e-4, 2.0e-2):
                out = maa(medium, f, env, d)
                with mpmath.workdps(DIGITS):
                    depth = oracle_kappa(medium, f, env.t_s, env.p,
                                         DEFAULT_WING_CUTOFF) * d
                    assert_close(out.optical_depth, depth, f"f={f!r}, d={d}")
                    assert_close(out.loss, mpmath.exp(depth), f"f={f!r}")
                    assert_close(out.transmittance, mpmath.exp(-depth),
                                 f"f={f!r}")
                assert not out.opaque
