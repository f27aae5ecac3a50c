"""Command-line front end.

Three subcommands: ``pathloss`` and ``capacity`` evaluate one operating
point and print a human-readable report (or a one-shot CSV), ``sweep``
runs one axis study and emits a deterministic CSV. Exit codes are a
stable contract: 0 success, 1 configuration or parse error, 2
model-domain error (e.g. a two-ray null at the requested frequency).
"""

from __future__ import annotations

import argparse
import contextlib
import os
import re
import sys
import warnings
from collections.abc import Iterator
from dataclasses import replace
from itertools import chain, islice

import numpy as np

from .absorption import Environment
from .capacity import (BandPlan, channel_capacity,
                       flat_allocation_capacity)
from .config import CATALOG_ENV_VAR, load_scenario
from .errors import (CatalogParseError, ChannelModelError, ConfigError,
                     DomainError, ValidationError)
from .kernels import BLOCK_CELLS, row_blocks
from .propagation import GAP_REASONS, link_budget_db, total_path_loss
from .sweep import Scenario, SweepResult, _blocks, _join

# axis: (range, per-row input, values flag, flag it replaces, frequencies)
_SWEEP_AXES = {
    "frequency": ((1.0e12, 3.0e12), "f", "--distances", "--frequency",
                  "the frequency axis runs from --from to --to"),
    "temperature": ((250.0, 400.0), "t_s", "--freqs", "--temperature",
                    "set the temperature axis's frequencies with --freqs"),
    "pressure": ((20.0, 200.0), "p", "--freqs", "--pressure",
                 "set the pressure axis's frequencies with --freqs"),
    "distance": ((1.0e-5, 1.0e-4), "d", None, "--distance",
                 "the distance axis uses the band set in --scenario"),
}
AXIS_DEFAULTS = {axis: row[0] for axis, row in _SWEEP_AXES.items()}


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse takes "-1e-4" and "-inf" for flags; no flag here starts
        # with a digit, ".digit", inf or nan, so such words are values
        self._negative_number_matcher = re.compile(
            r"^-(\.?\d|inf|nan)", re.IGNORECASE)

    def error(self, message):  # config errors exit 1, not argparse's 2
        raise ConfigError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="thzlink",
                     description="THz in-package link modeling")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, frequency_help="operating frequency [Hz] (default: "
                                     "scenario band center)"):
        p.add_argument("--catalog", metavar="PATH",
                       help=f"line catalog path (default: ${CATALOG_ENV_VAR} "
                            "or the bundled sample catalog)")
        p.add_argument("--scenario", metavar="PATH",
                       help="scenario JSON; omitted keys use defaults")
        p.add_argument("--out", metavar="PATH",
                       help="write output here instead of stdout")
        p.add_argument("--format", choices=("csv", "pretty"), default=None,
                       help="output format (default: pretty for single "
                            "points, csv for sweeps)")
        p.add_argument("--baseline", action="store_true",
                       help="force the conventional model (empty "
                            "composition, kappa = 0)")
        p.add_argument("--frequency", type=float, default=None,
                       help=frequency_help)
        p.add_argument("--power", type=float, default=None,
                       help="transmit power override [W]")
        p.add_argument("--distance", type=float, default=None,
                       help="antenna separation override [m]")
        p.add_argument("--temperature", type=float, default=None,
                       help="system noise temperature override [K]")
        p.add_argument("--pressure", type=float, default=None,
                       help="ambient pressure override [atm]")

    p_loss = sub.add_parser("pathloss", help="single-point path loss and "
                                             "link-budget ledger")
    add_common(p_loss)
    p_loss.set_defaults(func=cmd_pathloss)

    p_cap = sub.add_parser("capacity", help="single-point capacity with "
                                            "per-subband allocation")
    add_common(p_cap)
    p_cap.add_argument("--allocation", choices=("waterfilling", "flat"),
                       default="waterfilling")
    p_cap.set_defaults(func=cmd_capacity)

    p_sweep = sub.add_parser("sweep", help="one-axis study as CSV",
                             description="An axis replaces its own flag: "
                             "--distance, --temperature or --pressure.")
    add_common(p_sweep, frequency_help="not taken: see --freqs, --from "
                                       "and --to")
    p_sweep.add_argument("--axis", required=True,
                         choices=("frequency", "temperature", "pressure",
                                  "distance"))
    p_sweep.add_argument("--from", dest="axis_from", type=float, default=None,
                         help="axis start (Hz, K, kPa, or m)")
    p_sweep.add_argument("--to", dest="axis_to", type=float, default=None,
                         help="axis end")
    p_sweep.add_argument("--points", type=int, default=101)
    p_sweep.add_argument("--log", action="store_true",
                         help="log-spaced axis samples")
    p_sweep.add_argument("--metric", choices=("pathloss", "capacity"),
                         default="pathloss",
                         help="metric for the frequency axis")
    p_sweep.add_argument("--allocation",
                         choices=("waterfilling", "flat", "both"),
                         default="both",
                         help="allocation scheme(s) for the distance axis")
    p_sweep.add_argument("--distances", default=None,
                         help="comma-separated separations [m] for the "
                              "frequency path-loss sweep")
    p_sweep.add_argument("--freqs", default=None,
                         help="comma-separated frequencies [Hz] for the "
                              "temperature/pressure axes")
    p_sweep.set_defaults(func=cmd_sweep)
    return parser


def _load_run_config(args) -> tuple[Scenario, float]:
    """The scenario with the flags applied, and the operating frequency."""
    scenario = load_scenario(args.scenario, args.catalog)
    geom, env = scenario.geom, scenario.env
    if args.distance is not None:
        geom = replace(geom, d=args.distance)
    if args.temperature is not None or args.pressure is not None:
        env = Environment(
            t_s=args.temperature if args.temperature is not None else env.t_s,
            p=args.pressure if args.pressure is not None else env.p)
    scenario = replace(scenario, geom=geom, env=env)
    if args.power is not None:
        scenario = replace(scenario, p_t=args.power)
    if args.baseline:
        scenario = replace(scenario, baseline=True)
    if args.frequency is not None:
        return scenario, args.frequency
    return scenario, float(scenario.band.f_k[0] + scenario.band.f_k[-1]) / 2.0


def _emit(text: str | Iterator[str], path: str | None):
    """Write ``text``, or each of its blocks, to ``path`` (a regular file
    whole or not at all) or stdout; ConfigError if it cannot be written."""
    blocks = [text] if isinstance(text, str) else text
    if path is None:
        sys.stdout.writelines(blocks)
        sys.stdout.flush()  # so a closed pipe raises here, not at exit
        return
    try:
        if os.path.exists(path) and not os.path.isfile(path):
            # a device or a pipe is written in place, and a directory fails
            with open(path, "w", encoding="utf-8", newline="\n") as handle:
                handle.writelines(blocks)
            return
        target = os.path.realpath(path)
        temp = f"{target}.{os.urandom(8).hex()}.tmp"  # beside the target
        # "x": a new file, never through a link, in the mode "w" gives
        with open(temp, "x", encoding="utf-8", newline="\n") as handle:
            try:
                handle.writelines(blocks)
            except BaseException:
                os.unlink(temp)
                raise
        os.replace(temp, target)
    except OSError as exc:
        raise ConfigError(
            f"cannot write {path!r}: {exc.strerror or exc}") from exc


def cmd_pathloss(args) -> int:
    scenario, f = _load_run_config(args)
    report = total_path_loss(scenario.geom, scenario.medium, scenario.env, f)
    budget = link_budget_db(scenario.geom, scenario.medium, scenario.env, f,
                            scenario.p_t)
    if args.format == "csv":
        header = ("f_Hz,L_d_db,L_a_db,L_db,P_R_dBW,opaque")
        row = (f"{f:.12e},{report.l_d_db:.12e},{report.l_a_db:.12e},"
               f"{report.l_db:.12e},{budget.p_r_dbw:.12e},"
               f"{int(report.opaque)}")
        _emit(header + "\n" + row + "\n", args.out)
        return 0
    lines = [
        f"frequency            : {f:.6e} Hz",
        f"dielectric loss L_d  : {report.l_d:.6e}  ({report.l_d_db:.6f} dB)",
        f"absorption loss L_a  : {report.l_a:.6e}  ({report.l_a_db:.6f} dB)",
        f"total path loss L    : {report.l:.6e}  ({report.l_db:.6f} dB)",
        f"opaque               : {'yes' if report.opaque else 'no'}",
        "link budget:",
        f"  transmit power     : {budget.p_t_dbw:+.6f} dBW",
        f"  transmit gain      : {budget.g_t_db:+.6f} dB",
        f"  receive gain       : {budget.g_r_db:+.6f} dB",
        f"  permittivity       : {budget.permittivity_db:+.6f} dB",
        f"  spreading          : {budget.spreading_db:+.6f} dB",
        f"  molecular          : {budget.absorption_db:+.6f} dB",
        f"  received power     : {budget.p_r_dbw:+.6f} dBW",
    ]
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def cmd_capacity(args) -> int:
    scenario, f = _load_run_config(args)
    band = BandPlan.centered(f, scenario.band.b, scenario.band.k)
    solver = (channel_capacity if args.allocation == "waterfilling"
              else flat_allocation_capacity)
    allocation = solver(scenario.geom, scenario.medium, scenario.env, band,
                        scenario.geom.d, scenario.p_t)
    theta_text = ("n/a" if allocation.theta is None
                  else f"{allocation.theta:.6e} W")
    if args.format == "csv":
        lines = ["subband,f_k_Hz,psi_k_W,p_k_W"]
        for k in range(band.k):
            lines.append(f"{k + 1},{band.f_k[k]:.12e},"
                         f"{allocation.psi_k[k]:.12e},"
                         f"{allocation.p_k[k]:.12e}")
        _emit("\n".join(lines) + "\n", args.out)
        return 0
    lines = [
        f"capacity             : {allocation.capacity_bits_per_s:.6e} bits/s",
        f"allocation           : {args.allocation}",
        f"water level          : {theta_text}",
        f"subbands             : {band.k} x {band.delta_f:.6e} Hz",
        "subband  f_k_Hz        psi_k_W        p_k_W",
    ]
    for k in range(band.k):
        lines.append(f"{k + 1:>7d}  {band.f_k[k]:.6e}  "
                     f"{allocation.psi_k[k]:.6e}  {allocation.p_k[k]:.6e}")
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def _parse_float_list(text: str, flag: str) -> list[float]:
    try:
        values = [float(part) for part in text.split(",") if part.strip()]
    except ValueError as exc:
        raise ConfigError(f"{flag} expects comma-separated numbers: {exc}")
    if not values:
        raise ConfigError(f"{flag} expects at least one number")
    return values


def _header(result: SweepResult) -> tuple[str, ...]:
    return (f"{result.axis}_{result.unit}", *result.columns, "gap")


def _cell_rows(result: SweepResult, spec: str, rows) -> list[tuple[str, ...]]:
    """Body rows ``rows`` (a slice or indices), one string per cell: gaps
    empty, the gap column their reasons sorted and joined with ';'."""
    cells = [(values[rows].tolist(), codes[rows])
             for values, codes in result.cells.values()]
    columns = [[f"{x:{spec}}" for x in result.samples[rows].tolist()]]
    columns += [["" if code else f"{value:{spec}}"
                 for value, code in zip(values, codes.tolist())]
                for values, codes in cells]
    gap = [""] * len(columns[0])
    gapped = np.any([codes != 0 for _, codes in cells], axis=0)
    for i in np.flatnonzero(gapped).tolist():
        reasons = {GAP_REASONS[codes[i]] for _, codes in cells}
        gap[i] = ";".join(sorted(reasons - {""}))
    return list(zip(*columns, gap))


# 10^0 .. 10^22, each exact in float64
_POW10 = np.array([float(10**k) for k in range(23)])
# two ASCII characters per uint16, in the byte order of a uint8 view
_PAIRS = np.frombuffer("".join(f"{i:02d}" for i in range(100)).encode(),
                       np.uint16)
_LEAD = np.frombuffer(b"0.1.2.3.4.5.6.7.8.9.", np.uint16)
# 0000 .. 9999 and e-99 .. e+99, four characters per uint32 in that order
_GROUPS = np.stack(np.broadcast_arrays(_PAIRS[:, None], _PAIRS), -1)
_GROUPS = _GROUPS.view(np.uint32).ravel()
_EXPONENTS = np.stack([np.frombuffer(b"e-" * 99 + b"e+" * 100, np.uint16),
                       np.concatenate([_PAIRS[:0:-1], _PAIRS])], -1)
_EXPONENTS = _EXPONENTS.view(np.uint32).ravel()
# "d.dddddddddddde+XX" and the ',' after it, at their offsets in a CSV row
_CELL_BYTES = np.dtype([("lead", np.uint16), ("groups", np.uint32, 3),
                        ("exp", np.uint32), ("comma", np.uint8)])


def _product_error(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a b - fl(a b), exactly: Dekker's TwoProduct on Veltkamp's split,
    for products that neither overflow nor underflow."""
    def split(y):
        c = 134217729.0 * y  # 2^27 + 1
        high = c - (c - y)
        return high, y - high
    (a1, a2), (b1, b2) = split(a), split(b)
    return ((a1 * b1 - a * b) + a1 * b2 + a2 * b1) + a2 * b2


def _scaled(x: np.ndarray, k: np.ndarray) -> np.ndarray:
    """x 10^k for |k| <= 22 in one rounding: each cell's 10^max(k, 0) or
    10^max(-k, 0) is 1.0."""
    m = x * _POW10[np.maximum(k, 0)]
    if k.min() < 0:
        m /= _POW10[np.maximum(-k, 0)]
    return m


def _e12_cells(x: np.ndarray, cells: np.ndarray) -> np.ndarray:
    """Write ``format(v, ".12e")`` of each v in ``x`` into ``cells``, a
    _CELL_BYTES view of x's shape, and return a mask of the cells that hold
    it exactly. A cell's "d." is ``lead``, its twelve decimals are three
    groups of four digits, and "e+XX" or "e-XX" is ``exp``; each is one
    lookup, and its ',' is left as it is.

    For v > 0 with e = floor(log10 v) and k = 12 - e, |k| <= 22 makes 10^|k|
    exact, so m = v 10^k takes one rounding; m < 2^53 and ulp(m) <= 2^-9,
    so every half-integer near m is a float64, and by monotone rounding
    rint(m) is the integer nearest the exact v 10^k unless m is itself a
    half-integer. At such a tie the sign of v 10^k - m decides: the error
    of the product for k >= 0, the residual v - m 10^|k| for k < 0, both
    exact; at 0 the tie is exact, and rint rounds it half to even as the
    format does. Those 13 digits are what the correctly rounded format
    prints. np.log10 rounds some v just below a power of ten up to it (3.0
    for 999.9999999999999), and then m < 10^12: such a cell takes e one
    lower. A cell is declined (mask False, bytes meaningless) for v <= 0,
    NaN or inf, |k| > 22 or m outside [10^12, 10^13]. A pass that only
    such cells, k < 0, exponents one too high, ties or carries need runs
    only where one occurs."""
    ok = (x > 0) & (x < np.inf)
    x = x if ok.all() else np.where(ok, x, 1.0)
    e = np.floor(np.log10(x)).astype(np.intp)
    k = 12 - e
    if k.min() < -22 or k.max() > 22:
        ok &= np.abs(k) <= 22
        k = np.clip(k, -22, 22)
    m = _scaled(x, k)
    low = m < 1e12  # not where x was replaced by 1.0: its m is 10^12
    if low.any():
        low &= k < 22  # a clipped k, or one whose 10^(k + 1) is not exact
        e -= low
        k += low
        m = _scaled(x, k)
    n = np.rint(m)
    ok &= (m >= 1e12) & (m <= 1e13)
    tie = np.abs(m - n) == 0.5  # a declined one is finite and replaced below
    if tie.any():
        v, m_tie, scale = x[tie], m[tie], _POW10[np.abs(k[tie])]
        # fl(m 10^|k|) is within a factor 2 of v, so v less it is exact
        above = np.where(k[tie] >= 0, _product_error(v, scale),
                         (v - m_tie * scale) - _product_error(m_tie, scale))
        n[tie] = np.where(above == 0, n[tie], m_tie + np.copysign(0.5, above))
    carry = n == 1e13  # m in [10^13 - 0.5, 10^13]: 1.000000000000e+(e+1)
    if carry.any():
        n[carry] = 1e12
        e += carry
    if not ok.all():  # every digit and exponent of a declined cell
        n, e = np.where(ok, n, 1e12), np.where(ok, e, 0)  # indexes safely
    n = n.astype(np.int64)
    # each group is n // 10^i less 10^4 times the digits before it: integer
    # floor division is exact, and several times faster than numpy's remainder
    ahead = n // 10**12
    cells["lead"] = _LEAD[ahead]
    groups = cells["groups"]
    for j, unit in enumerate((10**8, 10**4)):
        digits = n // unit
        groups[..., j] = _GROUPS[digits - ahead * 10**4]
        ahead = digits
    groups[..., 2] = _GROUPS[n - ahead * 10**4]
    cells["exp"] = _EXPONENTS[e + 99]
    return ok


def csv_blocks(result: SweepResult) -> Iterator[str]:
    """render_csv's text: the header, then one block of row_blocks rows at
    a time. One byte matrix, allocated once with its ',' after each cell
    (the last opens the empty gap column) and its '\n's, takes each block's
    cells in its leading rows from _e12_cells and is decoded to a new str
    before the next block overwrites it; rows with a gap or a cell
    _e12_cells declines are then replaced by _cell_rows'."""
    yield ",".join(_header(result)) + "\n"
    columns = [result.samples, *(values for values, _ in
                                 result.cells.values())]
    n_cols = len(columns)
    width = n_cols * _CELL_BYTES.itemsize + 1  # a row's bytes, with '\n'
    for block, _ in row_blocks(len(result.samples), n_cols + 1):
        x = np.stack([c[block] for c in columns], axis=1)
        if block.start == 0:  # the first block is the longest
            matrix = np.empty((len(x), width), np.uint8)
            cells = matrix[:, :-1].view(_CELL_BYTES)
            cells["comma"] = ord(",")
            matrix[:, -1] = ord("\n")
        ok = _e12_cells(x, cells[:len(x)])
        text = str(matrix[:len(x)].data, "ascii")
        gapped = [codes[block] != 0 for _, codes in result.cells.values()]
        redo = np.flatnonzero(~ok.all(axis=1) | np.any(gapped, axis=0))
        if redo.size:
            pieces, start = [], 0
            rows = _cell_rows(result, ".12e", block.start + redo)
            for i, row in zip(redo.tolist(), rows):
                pieces += [text[start:i * width], ",".join(row), "\n"]
                start = (i + 1) * width
            pieces.append(text[start:])
            text = "".join(pieces)
        yield text


def render_csv(result: SweepResult) -> str:
    """Locale-independent CSV: '.' decimals, %.12e cells, LF endings."""
    return "".join(csv_blocks(result))


def render_table(result: SweepResult) -> str:
    rows = [_header(result)]
    for block, _ in row_blocks(len(result.samples), len(result.cells) + 2):
        rows += _cell_rows(result, ".6e", block)
    widths = [max(len(r[i]) for r in rows) for i in range(len(rows[0]))]
    return "\n".join("  ".join(cell.ljust(w) for cell, w in zip(r, widths))
                     for r in rows) + "\n"


def cmd_sweep(args) -> int:
    defaults, varies, list_flag, own_flag, source = _SWEEP_AXES[args.axis]
    for flag, instead in (("--frequency", source), (own_flag, f"the "
                          f"{args.axis} axis runs from --from to --to")):
        if getattr(args, flag[2:]) is not None:
            raise ConfigError(f"sweep takes no {flag}: {instead}")
    scenario, _ = _load_run_config(args)
    lo, hi = (default if value is None else value for value, default
              in zip((args.axis_from, args.axis_to), defaults))
    if varies == "f" and args.metric == "capacity":
        varies, list_flag = "f_k", None
    text = getattr(args, list_flag[2:]) if list_flag else None
    values = (args.allocation if varies == "d" else None if text is None
              else _parse_float_list(text, list_flag))
    blocks = _blocks(scenario, varies, (lo, hi), args.points, args.log,
                     values)
    if args.format == "pretty":  # the table's column widths need every row
        _emit(render_table(_join(blocks)), args.out)
    else:  # one header, then runs of blocks, about csv_blocks' rows each
        first = next(blocks)
        run = max(1, BLOCK_CELLS // (len(first.cells) + 2)
                  // len(first.samples))
        blocks = chain([first], blocks)
        runs = (_join([block, *islice(blocks, run - 1)]) for block in blocks)
        _emit(chain.from_iterable(islice(csv_blocks(result), i > 0, None)
                                  for i, result in enumerate(runs)), args.out)
    return 0


def _warning_line(message, *_) -> None:
    print(f"warning: {message}", file=sys.stderr)


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    with warnings.catch_warnings():
        # one stderr line, as an error is, without the source line
        warnings.showwarning = _warning_line
        try:
            args = parser.parse_args(argv)
            return args.func(args)
        except (ConfigError, CatalogParseError, ValidationError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        except DomainError as exc:
            print(f"model error: {exc}", file=sys.stderr)
            return 2
        except ChannelModelError as exc:  # any other model failure
            print(f"error: {exc}", file=sys.stderr)
            return 2
        except BrokenPipeError:  # the reader closed stdout, as `| head` does
            # send what is still buffered to /dev/null: flushing it to the
            # closed pipe at exit would print the error again
            with contextlib.suppress(OSError, ValueError):
                os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            return 1


if __name__ == "__main__":
    sys.exit(main())
