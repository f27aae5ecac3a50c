import sys
import threading
import tracemalloc
import warnings

import numpy as np
import pytest

from thzlink import kernels
from thzlink.absorption import Environment, kappa_over_grid, medium_kappa
from thzlink.errors import DomainError
from thzlink.spectro import Medium


def test_pack_lines_respects_per_species_q(full_catalog):
    medium = Medium(
        composition={(1, 1): 0.3, (7, 1): 0.05},
        lines=tuple(ln for ln in full_catalog
                    if ln.species in {(1, 1), (7, 1)}))
    packed = kernels.pack_lines(medium)
    for j, line in enumerate(medium.lines):
        expected = 0.3 if line.species == (1, 1) else 0.05
        assert packed.q[j] == expected
        assert packed.f_c0[j] == line.f_c0


def test_grid_matches_scalar_reference(default_medium, env):
    freqs = np.linspace(0.9e12, 1.6e12, 37)
    packed = default_medium.packed
    grid = kernels.kappa_totals(freqs, packed, env.t_s, env.p)
    model_grid = kappa_over_grid(default_medium, freqs, env)
    for i, f in enumerate(freqs):
        # medium_kappa's per-line sum, without and at the wing cutoff
        scalar = kernels.line_contributions((f,), packed, env.t_s,
                                            env.p).sum()
        assert grid[i] == pytest.approx(scalar, rel=1e-12)
        assert model_grid[i] == pytest.approx(
            medium_kappa(default_medium, float(f), env).total_kappa,
            rel=1e-12)


def test_wing_cutoff_skips_far_lines(default_medium, env):
    f_far = np.array([8.5e12])  # > 5 THz beyond every catalog line
    assert kappa_over_grid(default_medium, f_far, env)[0] == 0.0
    assert kernels.kappa_totals(f_far, default_medium.packed, env.t_s,
                                env.p)[0] > 0.0
    scalar = medium_kappa(default_medium, 8.5e12, env).total_kappa
    assert scalar == 0.0


@pytest.mark.parametrize("per_row", [False, True], ids=["scalar", "rows"])
def test_cutoff_at_the_widest_pair_masks_exactly_that_pair(default_medium,
                                                           env, per_row):
    """The mask is skipped only when no pair can exceed the cutoff: at the
    widest pair's distance nothing is masked, one float below it that pair
    (and no other) is, in one row or per row."""
    lines = default_medium.packed
    freqs = np.linspace(0.9e12, 1.6e12, 37)
    t_s = np.full(2, env.t_s) if per_row else env.t_s
    free = kernels.line_contributions(freqs, lines, t_s, env.p)
    f_c = lines.f_c0 + lines.pressure_shift * env.p  # P_REF is 1 atm
    distance = np.abs(freqs[None, :] - f_c[:, None])
    widest = distance.max()
    totals = kernels.kappa_totals(freqs, lines, t_s, env.p)
    for cutoff, masked in ((widest, 0), (np.nextafter(widest, 0.0), 1)):
        want = np.where(distance > cutoff, 0.0, free)
        got = kernels.line_contributions(freqs, lines, t_s, env.p, cutoff)
        assert np.array_equal(got, want)
        assert (got != free).sum() == masked * np.size(t_s)
        changed = kernels.kappa_totals(freqs, lines, t_s, env.p,
                                       cutoff) != totals
        assert changed.sum() == masked * np.size(t_s)


def test_empty_medium_gives_zeros(env):
    medium = Medium(composition={}, epsilon_r=1.0)
    freqs = np.linspace(1e12, 2e12, 11)
    assert np.all(kappa_over_grid(medium, freqs, env) == 0.0)


def test_grid_rejects_what_scalar_rejects(default_medium, env, line_factory):
    shifted = line_factory(f_c0=1.0e12, pressure_shift=-2.0e12)
    shifted_medium = Medium(composition={shifted.species: 0.1},
                            lines=(shifted,))
    line = line_factory()
    one_line_medium = Medium(composition={line.species: 0.1}, lines=(line,))
    cold = Environment(t_s=1.0e-300, p=env.p)
    dense = Environment(t_s=env.t_s, p=1.0e200)
    # the line's half-width squares to 0, so its pole at f_c is 1/0
    thin = Environment(t_s=env.t_s, p=1.0e-300)
    cases = [(default_medium, env, -1.0e12, "frequency must be > 0"),
             (default_medium, env, 0.0, "frequency must be > 0"),
             (default_medium, env, np.inf, "frequency must be finite"),
             (default_medium, env, 1.0e160, r"1e\+160 Hz puts f\^2 tanh"),
             (default_medium, env, 1.0e-300, r"1e-300 Hz puts f\^2 tanh"),
             (shifted_medium, env, 1.0e12, "pressure shift drives resonance"),
             (default_medium, cold, 1.0e12,
              r"temperature 1e-300 K at pressure 1.0 atm puts the line"),
             (one_line_medium, dense, 1.0e12,
              r"temperature 296.0 K at pressure 1e\+200 atm puts the line"),
             (one_line_medium, thin, 1.0e12,
              r"1000000000000.0 Hz is on the center of line 0")]
    for medium, conditions, f, message in cases:
        with pytest.raises(DomainError, match=message):
            medium_kappa(medium, f, conditions)
        with pytest.raises(DomainError, match=message):
            kappa_over_grid(medium, np.array([1.5e12, f]), conditions)


def test_rows_match_one_row_calls_bitwise(default_medium, env):
    """A multi-row call is the one-row sum, row by row, bit for bit."""
    freqs = np.linspace(0.9e12, 1.6e12, 37)
    temps = np.linspace(250.0, 400.0, 9)
    pressures = np.linspace(0.2, 2.0, 9)
    by_t = kernels.kappa_totals(freqs, default_medium.packed, temps, env.p)
    by_p = kernels.kappa_totals(freqs, default_medium.packed, env.t_s,
                                pressures)
    by_f = kernels.kappa_totals(freqs[None, :] * np.linspace(1, 2, 9)[:, None],
                                default_medium.packed, env.t_s, env.p)
    assert by_t.shape == by_p.shape == by_f.shape == (9, 37)
    for row in range(9):
        assert np.array_equal(by_t[row], kernels.kappa_totals(
            freqs, default_medium.packed, temps[row], env.p))
        assert np.array_equal(by_p[row], kernels.kappa_totals(
            freqs, default_medium.packed, env.t_s, pressures[row]))
        assert np.array_equal(by_f[row], kernels.kappa_totals(
            freqs * np.linspace(1, 2, 9)[row], default_medium.packed,
            env.t_s, env.p))


def test_cold_rows_at_high_frequency_saturate_tanh_without_warning(
        default_medium):
    """Below ~1e-165 K, a f overflows at the highest frequencies; tanh(a f)
    is 1 there, and the rows still match one-row calls bit for bit."""
    freqs = np.array([1.0e12, 1.0e20, 1.0e150])
    temps = np.array([1.0e-300, 1.0e-170, 296.0])
    rows = kernels.kappa_totals(freqs, default_medium.packed, temps, 1.0e-300)
    for row, t_s in enumerate(temps):
        one = kernels.kappa_totals(freqs, default_medium.packed, float(t_s),
                                   1.0e-300)
        assert np.array_equal(rows[row], one)
        assert np.all(np.isfinite(one))


def test_cold_grid_over_too_many_decades_is_a_domain_error(default_medium):
    with pytest.raises(DomainError, match="outside float64"):
        kernels.kappa_totals([1.0e-160, 1.0e150], default_medium.packed,
                             1.0e-300, 1.0e-300)


def test_blocks_cover_every_row(default_medium, env):
    lines = default_medium.packed
    n_rows = 5 * kernels.BLOCK_CELLS // (len(lines) * 64) + 3
    temps = np.linspace(250.0, 400.0, n_rows)
    freqs = np.linspace(1.0e12, 1.1e12, 64)
    grid = kernels.kappa_totals(freqs, lines, temps, env.p)
    for row in (0, n_rows // 2, n_rows - 1):
        assert np.array_equal(grid[row], kernels.kappa_totals(
            freqs, lines, float(temps[row]), env.p))


def test_row_blocks_tile_the_rows_within_the_budget():
    """Every row once, in order, in blocks of at most BLOCK_CELLS cells
    unless one row alone is longer; 2-D arguments are sliced at the
    block's rows and any other is passed whole."""
    per_row, shared = np.arange(20.0).reshape(10, 2), np.arange(3.0)
    for row_cells in (1, kernels.BLOCK_CELLS // 3, kernels.BLOCK_CELLS + 1):
        blocks = list(kernels.row_blocks(10, row_cells, per_row, shared, 5.0))
        assert [i for rows, _ in blocks
                for i in range(10)[rows]] == list(range(10))
        for rows, (x, y, z) in blocks:
            n = len(range(10)[rows])
            assert n * row_cells <= kernels.BLOCK_CELLS or n == 1
            assert np.array_equal(x, per_row[rows])
            assert y is shared and z == 5.0
    assert len(blocks) == 10


def test_one_row_is_split_by_the_pair_budget(default_medium, env):
    """A row with more pairs than BLOCK_CELLS is evaluated in blocks of
    points, so its temporaries stay bounded; each point's sum is its own."""
    lines = default_medium.packed
    freqs = np.linspace(0.5e12, 3.5e12,
                        20 * kernels.BLOCK_CELLS // len(lines) + 7)
    tracemalloc.start()
    row = kernels.kappa_totals(freqs, lines, env.t_s, env.p, 5.0e12)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    # a few per-point arrays plus a few block temporaries, in bytes; one
    # lines x points temporary alone would be 20 blocks
    assert peak < 8 * (8 * freqs.size + 8 * kernels.BLOCK_CELLS)
    step = kernels.BLOCK_CELLS // len(lines)
    for k in (0, step - 1, step, freqs.size - 1):
        assert row[k] == pytest.approx(kernels.kappa_totals(
            freqs[k:k + 1], lines, env.t_s, env.p, 5.0e12)[0], rel=1e-14)


def test_wide_row_keeps_its_tiles_within_the_budget(wide_medium, env):
    """At scalar conditions a split row's line factors are tiled once per
    call, three copies of at most BLOCK_CELLS cells, so with 1 100 lines the
    peak is still a few blocks, not the row's lines x points."""
    lines = wide_medium.packed
    freqs = np.linspace(0.5e12, 3.5e12,
                        20 * kernels.BLOCK_CELLS // len(lines) + 7)
    tracemalloc.start()
    kernels.kappa_totals(freqs, lines, env.t_s, env.p, 1.0e12)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    # the bound of test_one_row_is_split_by_the_pair_budget, plus the three
    # tiles counted as three blocks; the row's temporaries would be 20
    assert peak < 8 * (8 * freqs.size + 8 * kernels.BLOCK_CELLS) + 3 * (
        8 * kernels.BLOCK_CELLS)


def _medium(name, request, line_factory):
    if name == "one-line":
        line = line_factory()
        return Medium(composition={line.species: 0.1}, lines=(line,))
    return request.getfixturevalue(name)


def _one_point_calls(freqs, lines, t_s, p, cutoff):
    return np.reshape([kernels.kappa_totals(freqs.flat[k:k + 1], lines, t_s,
                                            p, cutoff)[0]
                       for k in range(freqs.size)], freqs.shape)


@pytest.mark.parametrize("cutoff", [np.inf, 2.0e11],
                         ids=["mask-skipped", "mask-active"])
@pytest.mark.parametrize("medium_name", ["one-line", "default_medium",
                                         "wide_medium"])
def test_blocks_at_scalar_conditions_match_one_point_calls(
        medium_name, cutoff, request, env, line_factory):
    """Every point of a scalar-condition call has its one-point call's bits,
    signs included, on either side of each block boundary: K = P - 1, P,
    P + 1 and 2P + 1 points, P being the most points a block holds, and a
    grid whose blocks hold several rows of 3 points, the last block short."""
    lines = _medium(medium_name, request, line_factory).packed
    most = max(1, kernels.BLOCK_CELLS // len(lines))
    freqs = np.linspace(0.4e12, 3.4e12, 2 * most + 1)
    one = _one_point_calls(freqs, lines, env.t_s, env.p, cutoff)
    for k in (most - 1, most, most + 1, 2 * most + 1):
        got = kernels.kappa_totals(freqs[:k], lines, env.t_s, env.p, cutoff)
        assert np.array_equal(got, one[:k])
        assert np.array_equal(np.signbit(got), np.signbit(one[:k]))
    rows_per_block = kernels.BLOCK_CELLS // (3 * len(lines))
    assert rows_per_block > 1
    grid = (np.linspace(0.4e12, 3.4e12, 3)[None, :]
            * np.linspace(1.0, 1.02, rows_per_block + 2)[:, None])
    got = kernels.kappa_totals(grid, lines, env.t_s, env.p, cutoff)
    one = _one_point_calls(grid, lines, env.t_s, env.p, cutoff)
    assert np.array_equal(got, one)
    assert np.array_equal(np.signbit(got), np.signbit(one))


@pytest.mark.parametrize("medium_name, line", [("default_medium", 17),
                                               ("wide_medium", 1000)])
def test_center_of_a_narrow_line_in_a_later_block_names_it(
        medium_name, line, request, env):
    """At 1e-300 atm every half-width squared underflows; a point exactly on
    a line's center, in the third block of a split row, raises the
    one-block call's error, naming that frequency and line."""
    lines = request.getfixturevalue(medium_name).packed
    most = max(1, kernels.BLOCK_CELLS // len(lines))
    freqs = np.linspace(0.4e12, 3.4e12, 4 * most)
    # the shift moves the center by ~1e-292 Hz, which rounds away
    center = float(lines.f_c0[line])
    freqs[2 * most + 1] = center
    message = (f"frequency {center!r} Hz is on the center of line {line}, "
               f"whose half-width squared underflows float64")
    for f in (freqs, freqs[2 * most + 1:2 * most + 2]):
        with pytest.raises(DomainError) as raised:
            kernels.kappa_totals(f, lines, env.t_s, 1.0e-300)
        assert str(raised.value) == message


@pytest.mark.parametrize("cutoff", [np.inf, 2.0e11],
                         ids=["mask-skipped", "mask-active"])
@pytest.mark.parametrize("medium_name", ["one-line", "default_medium",
                                         "wide_medium"])
def test_temperature_rows_at_one_pressure_match_one_point_calls(
        medium_name, cutoff, request, env, line_factory):
    """Rows that differ only in temperature share their line centers; every
    point of every row still has its one-point call's bits, signs included,
    at R - 1, R and R + 1 rows, R being the rows a block holds, and in rows
    longer than one block, on either side of each block of points."""
    lines = _medium(medium_name, request, line_factory).packed
    points = max(1, kernels.BLOCK_CELLS // (3 * len(lines)))
    rows_per_block = kernels.BLOCK_CELLS // (points * len(lines))
    assert rows_per_block > 1
    freqs = np.linspace(0.4e12, 3.4e12, points)
    temps = np.linspace(250.0, 400.0, rows_per_block + 1)
    one = np.stack([_one_point_calls(freqs, lines, float(t_s), env.p, cutoff)
                    for t_s in temps])
    for n_rows in (rows_per_block - 1, rows_per_block, rows_per_block + 1):
        got = kernels.kappa_totals(freqs, lines, temps[:n_rows], env.p,
                                   cutoff)
        assert np.array_equal(got, one[:n_rows])
        assert np.array_equal(np.signbit(got), np.signbit(one[:n_rows]))
    most = max(1, kernels.BLOCK_CELLS // len(lines))
    freqs = np.linspace(0.4e12, 3.4e12, 2 * most + 1)
    got = kernels.kappa_totals(freqs, lines, temps[:2], env.p, cutoff)
    for row, t_s in enumerate(temps[:2]):
        for k in (0, most - 1, most, 2 * most):
            want = kernels.kappa_totals(freqs[k:k + 1], lines, float(t_s),
                                        env.p, cutoff)
            assert np.array_equal(got[row, k:k + 1], want)
            assert np.array_equal(np.signbit(got[row, k:k + 1]),
                                  np.signbit(want))


@pytest.mark.parametrize("medium_name, line", [("default_medium", 17),
                                               ("wide_medium", 1000)])
def test_center_of_a_narrow_line_in_a_later_row_block_names_it(
        medium_name, line, request):
    """At 1e-300 atm and 296 K every half-width squared underflows; at
    1e-250 K the widths are ~1e150 times wider and do not. Rows at one
    pressure over one row of points, cold ones first, raise the one-point
    call's error in the first warm row's block, at a point on a line's
    center in the second block of points."""
    lines = request.getfixturevalue(medium_name).packed
    most = max(1, kernels.BLOCK_CELLS // len(lines))
    freqs = np.linspace(0.4e12, 3.4e12, 2 * most)
    # the shift moves the center by ~1e-292 Hz, which rounds away
    center = float(lines.f_c0[line])
    freqs[most + 1] = center
    temps = np.array([1.0e-250] * 3 + [296.0] * 2)
    assert np.all(np.isfinite(kernels.kappa_totals(freqs, lines, temps[:3],
                                                   1.0e-300)))
    with pytest.raises(DomainError) as one_point:
        kernels.kappa_totals(freqs[most + 1:most + 2], lines, 296.0,
                             1.0e-300)
    assert f"{center!r} Hz is on the center of line {line}," in str(
        one_point.value)
    with pytest.raises(DomainError) as raised:
        kernels.kappa_totals(freqs, lines, temps, 1.0e-300)
    assert str(raised.value) == str(one_point.value)


def test_wide_temperature_rows_keep_center_terms_within_the_budget(
        wide_medium, env):
    """Each block of rows that differ only in temperature computes its own
    center terms, one block at a time, so with 1 100 lines the peak is the
    scalar-condition bound plus one block set of those terms, not the rows'
    lines x points."""
    lines = wide_medium.packed
    freqs = np.linspace(0.5e12, 3.5e12,
                        20 * kernels.BLOCK_CELLS // len(lines) + 7)
    temps = np.linspace(250.0, 400.0, 4)
    cells = temps.size * freqs.size
    tracemalloc.start()
    kernels.kappa_totals(freqs, lines, temps, env.p, 1.0e12)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    # the bound of test_one_row_is_split_by_the_pair_budget over the call's
    # cells, plus one block's (f - f_c)^2, (f + f_c)^2 and mask counted as
    # three blocks; one row's center terms alone would be 3 x 20 blocks
    assert peak < 8 * (8 * cells + 8 * kernels.BLOCK_CELLS) + 3 * (
        8 * kernels.BLOCK_CELLS)


def test_line_contributions_at_per_row_temperatures_match_one_row_calls(
        default_medium, env):
    lines = default_medium.packed
    freqs = np.linspace(0.9e12, 1.6e12, 5)
    temps = np.linspace(250.0, 400.0, 3)
    for cutoff in (np.inf, 2.0e11):
        rows = kernels.line_contributions(freqs, lines, temps, env.p, cutoff)
        assert rows.shape == (3, len(lines), 5)
        for row, t_s in enumerate(temps):
            one = kernels.line_contributions(freqs, lines, float(t_s), env.p,
                                             cutoff)
            assert np.array_equal(rows[row], one)
            assert np.array_equal(np.signbit(rows[row]), np.signbit(one))


def test_one_row_shapes(default_medium, env):
    freqs = np.linspace(1.0e12, 1.1e12, 5)
    for medium in (default_medium, Medium(composition={})):
        assert kernels.kappa_totals(freqs, medium.packed, 296.0,
                                    1.0).shape == (5,)
        assert kernels.kappa_totals(freqs, medium.packed, [296.0],
                                    1.0).shape == (1, 5)
        assert kernels.kappa_totals(freqs, medium.packed, 296.0,
                                    [1.0, 2.0]).shape == (2, 5)


@pytest.mark.parametrize("f", [np.inf, np.nan])
def test_grid_rejects_non_finite_frequency(default_medium, env, f):
    with pytest.raises(DomainError, match="frequency must be"):
        kappa_over_grid(default_medium, np.array([1.5e12, f]), env)


def test_pressure_shift_error_names_the_row_pressure(line_factory):
    shifted = line_factory(f_c0=1.0e12, pressure_shift=-0.6e12)
    medium = Medium(composition={shifted.species: 0.1}, lines=(shifted,))
    with pytest.raises(DomainError, match=r"line 0 .* at p=2\.0 atm"):
        kernels.kappa_totals(np.array([1e12]), medium.packed, 296.0,
                             [1.0, 2.0])


def test_medium_packs_its_lines_once(default_medium, monkeypatch):
    medium = Medium(composition=default_medium.composition,
                    lines=default_medium.lines)
    calls = []
    real = kernels.pack_lines
    monkeypatch.setattr(kernels, "pack_lines",
                        lambda m: calls.append(m) or real(m))
    env = Environment()
    for _ in range(3):
        kappa_over_grid(medium, np.array([1.0e12, 1.2e12]), env)
    assert len(calls) == 1
    assert not medium.packed.f_c0.flags.writeable


def _both_calls(freqs, lines, t_s, p):
    return (kernels.kappa_totals(freqs, lines, t_s, p, 5.0e12),
            kernels.line_contributions(freqs[:3], lines, t_s, p, 5.0e12))


def test_kept_line_state_gives_fresh_pack_bits(default_medium):
    """Conditions A, B, A on one packing, with per-row conditions between
    them, give a fresh packing's bits; per-row calls keep no state."""
    medium = Medium(composition=default_medium.composition,
                    lines=default_medium.lines)
    lines = medium.packed
    freqs = np.linspace(0.9e12, 1.6e12, 37)
    temps, pressures = np.linspace(250.0, 400.0, 4), np.linspace(0.2, 2.0, 4)
    # each condition after the second A shares t_s or p with the one before;
    # 0.0 and -0.0 give weights of opposite sign, so kappa's zeros differ
    for t_s, p in ((296.0, 1.0), (temps, 1.0), (350.0, 0.5),
                   (296.0, pressures), (296.0, 1.0), (350.0, 1.0),
                   (350.0, 0.5), (350.0, 0.0), (350.0, -0.0)):
        kept = lines._state
        got = _both_calls(freqs, lines, t_s, p)
        want = _both_calls(freqs, kernels.pack_lines(medium), t_s, p)
        for g, w in zip(got, want):
            assert np.array_equal(g, w)
            assert np.array_equal(np.signbit(g), np.signbit(w))
        if np.ndim(t_s) or np.ndim(p):
            assert lines._state is kept
        else:
            assert not any(x.flags.writeable for x in lines._state[1][:3])
    assert "_state" not in repr(lines)


def test_raising_condition_keeps_the_previous_state(line_factory):
    shifted = line_factory(f_c0=1.0e12, pressure_shift=-0.6e12)
    medium = Medium(composition={shifted.species: 0.1}, lines=(shifted,))
    lines = medium.packed
    freqs = np.array([0.9e12, 1.1e12])
    before = kernels.kappa_totals(freqs, lines, 296.0, 1.0)
    kept = lines._state
    for t_s, p, message in ((1.0e-300, 1.0, "temperature 1e-300 K"),
                            (296.0, 2.0, "pressure shift drives")):
        with pytest.raises(DomainError, match=message):
            kernels.kappa_totals(freqs, lines, t_s, p)
        assert lines._state is kept
    assert np.array_equal(kernels.kappa_totals(freqs, lines, 296.0, 1.0),
                          before)


def test_two_threads_alternating_conditions_get_their_own_bits(
        default_medium):
    medium = Medium(composition=default_medium.composition,
                    lines=default_medium.lines)
    lines = medium.packed
    freqs = np.linspace(0.9e12, 1.6e12, 64)
    conditions = ((296.0, 1.0), (350.0, 0.5))
    want = [kernels.kappa_totals(freqs, kernels.pack_lines(medium), *c)
            for c in conditions]
    done, wrong = [0, 0], []

    def alternate(thread):
        for n in range(300):
            which = (thread + n) % 2
            got = kernels.kappa_totals(freqs, lines, *conditions[which])
            if not np.array_equal(got, want[which]):
                wrong.append((thread, n))
            done[thread] += 1

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=alternate, args=(thread,))
                   for thread in (0, 1)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert done == [300, 300]
    assert wrong == []


def _two_reciprocal_terms(freqs, lines, t_s, p):
    """g per point, and w_j [1/A + 1/B] per point and line with A = (f -
    f_c)^2 + alpha^2 and B = (f + f_c)^2 + alpha^2: the pole pair as two
    reciprocals, on the kernel's line state at one condition."""
    f_c, alpha2, weight, _, a = kernels._derive_line_state(
        lines, np.float64(t_s), np.float64(p))[:5]
    f = np.asarray(freqs, dtype=np.float64)
    dm, dp = f[:, None] - f_c, f[:, None] + f_c
    poles = 1.0 / (dm * dm + alpha2) + 1.0 / (dp * dp + alpha2)
    a = min(a, 20.0 / f.min())  # the kernel's cap: tanh(a f) is 1 there
    return f * f * np.tanh(a * f), weight * poles


@pytest.mark.parametrize("medium_name", ["one-line", "default_medium",
                                         "wide_medium"])
def test_line_contributions_match_two_reciprocals(medium_name, request, env,
                                                  line_factory):
    """(A + B)/(A.B) is the two reciprocals to rel 1e-15 per line, within
    1 Hz of line centers and in the far wings; the caller's points, which
    with one line have the pairs' shape, are left as they were."""
    lines = _medium(medium_name, request, line_factory).packed
    f_c = kernels._derive_line_state(lines, np.float64(env.t_s),
                                     np.float64(env.p))[0]
    centers = f_c[[0, len(lines) // 2, -1]]
    freqs = np.concatenate([(centers[:, None] + [-1.0, -0.25, 0.0, 0.5, 1.0])
                            .ravel(), [1.0e9, 1.0e10, 2.0e14, 1.0e15]])
    before = freqs.copy()
    got = kernels.line_contributions(freqs, lines, env.t_s, env.p)
    assert np.array_equal(freqs, before)
    g, terms = _two_reciprocal_terms(freqs, lines, env.t_s, env.p)
    want = (g[:, None] * terms).T
    assert np.all(want > 0)
    assert np.max(np.abs(got / want - 1.0)) <= 1.0e-15


@pytest.mark.parametrize("t_s, p", [(296.0, 1.0), (1.0e-300, 1.0e-300)])
def test_pairs_past_a_normal_product_take_two_reciprocals(default_medium,
                                                          t_s, p):
    """At 1e78 and 1e150 Hz, A.B overflows: those points are the two
    reciprocals' bits, the points below keep the one division, each as its
    one-point call, and nothing warns."""
    lines = default_medium.packed
    freqs = np.array([1.0e12, 1.0e20, 1.0e78, 1.0e150])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = kernels.kappa_totals(freqs, lines, t_s, p)
        one = [kernels.kappa_totals(freqs[k:k + 1], lines, t_s, p)[0]
               for k in range(freqs.size)]
    assert np.array_equal(got, one)
    g, terms = _two_reciprocal_terms(freqs, lines, t_s, p)
    assert np.array_equal(got[2:], (g * terms.sum(axis=-1))[2:])
    # (A + B)/(A.B) would give 0 at 1e78 Hz; at 1e150 Hz and 1e-300 atm,
    # each w_j/A underflows to 0
    assert np.all(np.isfinite(got)) and np.all(got[:3] > 0)


@pytest.mark.parametrize("t_s, p, f_c0, alpha, freqs", [
    # B < 1 at every point, A.B normal at each
    (296.0, 1.0, 0.01, 1.0e-3, [1.0e-3, 0.01, 0.0101, 1.0, 10.0]),
    # A.B underflows to 0 at each point off the center
    (1.0e-300, 1.0e-300, 1.0e-150, 1.0, [3.0e-150, 5.0e-150, 1.0e-149]),
], ids=["normal-products", "zero-products"])
def test_one_line_below_a_quarter_hertz_squared(t_s, p, f_c0, alpha, freqs,
                                                line_factory):
    """f f_c < 1/4, so B < 1: a one-line call, whose broadcast f has the
    pairs' shape, matches its one-point calls and the two reciprocals,
    warns of nothing and leaves the caller's points as they were."""
    line = line_factory(f_c0=f_c0, intensity=1.0, alpha_air=alpha,
                        alpha_self=alpha, temp_exponent=0.0)
    lines = Medium(composition={line.species: 0.1}, lines=(line,)).packed
    freqs = np.array(freqs)
    before = freqs.copy()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = kernels.kappa_totals(freqs, lines, t_s, p)
        one = [kernels.kappa_totals(freqs[k:k + 1], lines, t_s, p)[0]
               for k in range(freqs.size)]
    assert np.array_equal(freqs, before)
    assert np.array_equal(got, one)
    g, terms = _two_reciprocal_terms(freqs, lines, t_s, p)
    want = g * terms[:, 0]
    assert np.all(np.isfinite(want)) and np.all(want > 0)
    assert np.max(np.abs(got / want - 1.0)) <= 1.0e-15
