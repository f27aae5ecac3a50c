"""Spectroscopic line-catalog ingestion and medium composition.

The line catalog is a text file of fixed-width 160-character records, one
transition per line. Only eight fields are consumed (1-based columns):

    molecule id        [1-2]    integer
    isotopologue id    [3]      integer
    wavenumber         [4-15]   cm^-1
    intensity          [16-25]  cm^-1 / (molecule cm^-2)
    air half-width     [36-40]  cm^-1 / atm
    self half-width    [41-45]  cm^-1 / atm
    temperature exp.   [56-59]  dimensionless
    pressure shift     [60-67]  cm^-1 / atm

All spectral quantities are converted to SI at ingestion (wavenumbers and
pressure-normalized widths/shifts to Hz via 100*c, intensities to
m^2 Hz/mol), so downstream formulas carry no unit patch factors.

The catalog is parsed as columns: the text's bytes are viewed as records.
Byte checks skip each unwanted species' record that _parse_records would
provably read without error (every field laid out as serialize_line
writes it, a non-zero wavenumber and air width, no minus that fails a
check): a 24 000-record catalog keeping 1 100 lines parses in ~13 ms, not
~30 ms. The other records' fields are converted at once with numpy, the
line checks run as masks over them, and only the lines that pass the
species and intensity filters become SpectralLine objects; blank lines are
skipped. Text that this pass refuses (a field that does not convert, a
failed check, a record that is not 160 printable ASCII characters) is
parsed again one record at a time by the reference parser, _parse_records.
It keeps the same lines where the text is valid, and otherwise locates the
first bad record for the CatalogParseError.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import kernels
from .constants import AVOGADRO, WAVENUMBER_TO_HZ
from .errors import CatalogParseError, ValidationError

RECORD_WIDTH = 160

# Intensity: cm^-1/(molecule cm^-2) -> m^2 Hz/mol
#   100*c      converts cm^-1 to Hz
#   1e-4 * N_A converts cm^2/molecule to m^2/mol
INTENSITY_TO_SI = WAVENUMBER_TO_HZ * 1.0e-4 * AVOGADRO

# Lines weaker than this (catalog intensity units) are dropped at ingestion.
DEFAULT_INTENSITY_FLOOR = 1.0e-30

# Consumed fields: name -> (1-based inclusive column span, type)
_FIELDS = {
    "gas_id": ((1, 2), int),
    "iso_id": ((3, 3), int),
    "wavenumber": ((4, 15), float),
    "intensity": ((16, 25), float),
    "alpha_air": ((36, 40), float),
    "alpha_self": ((41, 45), float),
    "temp_exponent": ((56, 59), float),
    "pressure_shift": ((60, 67), float),
}

# The consumed fields of one record, as a numpy record dtype over its bytes
_RECORD = np.dtype({
    "names": list(_FIELDS),
    "formats": [f"S{hi - lo + 1}" for (lo, hi), _ in _FIELDS.values()],
    "offsets": [lo - 1 for (lo, _), _ in _FIELDS.values()],
    "itemsize": RECORD_WIDTH,
})

# What serialize_line writes in each consumed field, a class per column:
# "d" a digit, "b" a blank or a digit, "m" a minus or a digit, "s" a sign;
# other characters stand for themselves. These are HITRAN's I2, I1, F12.6,
# E10.3, F5.4, F5.3, F4.2 and F8.6, with _fixed_decimal's dropped zero.
_LAYOUT = {
    "gas_id": "bd", "iso_id": "d", "wavenumber": "bbbbd.dddddd",
    "intensity": " d.dddEsdd", "alpha_air": ".dddd", "alpha_self": "d.ddd",
    "temp_exponent": "m.dd", "pressure_shift": "m.dddddd",
}
_COLUMNS = {name: slice(lo - 1, hi) for name, ((lo, hi), _) in _FIELDS.items()}


def _layout_table() -> np.ndarray:
    """Flat (column, byte) table: may the column hold the byte?"""
    classes = {"d": b"0123456789", "b": b" 0123456789",
               "m": b"-0123456789", "s": b"+-"}
    table = np.ones((max(c.stop for c in _COLUMNS.values()), 256), bool)
    for name, layout in _LAYOUT.items():
        for column, kind in enumerate(layout, start=_COLUMNS[name].start):
            table[column] = False
            table[column, list(classes.get(kind, kind.encode()))] = True
    return table.ravel()


_LAYOUT_OK = _layout_table()
_LAYOUT_OFFSETS = np.arange(0, _LAYOUT_OK.size, 256, dtype=np.uint16)
_BLOCK_RECORDS = 4096  # records per block of the byte checks


def _skippable(chars: np.ndarray, wanted: set[tuple[int, int]]) -> np.ndarray:
    """Which records, (n, 160) bytes, _parse_records would read without
    error and then drop, as their species is not wanted: every consumed
    field is laid out as serialize_line writes it, the wavenumber and air
    width hold a non-zero digit, and no minus makes a line's check fail."""
    # a wanted species outside gas 0-99, iso 0-9 may share its code with
    # another species, whose records are then converted, not skipped
    codes = [10 * gas + iso for gas, iso in wanted]
    skip = np.empty(len(chars), dtype=bool)
    for start in range(0, len(chars), _BLOCK_RECORDS):
        head = chars[start:start + _BLOCK_RECORDS, :len(_LAYOUT_OFFSETS)]
        ok = _LAYOUT_OK.take(head + _LAYOUT_OFFSETS).all(axis=1)
        blank = head[:, _COLUMNS["wavenumber"]] == ord(" ")
        ok &= (blank[:, :-1] | ~blank[:, 1:]).all(axis=1)  # leading only
        for name in ("wavenumber", "alpha_air"):  # only 1-9 lie above "0"
            ok &= (head[:, _COLUMNS[name]] > ord("0")).any(axis=1)
        species = np.dot(head[:, :3] & 15, [100, 10, 1])  # " " & 15 == 0
        skip[start:start + len(head)] = ok & ~np.isin(species, codes)
    return skip


@dataclass(frozen=True)
class SpectralLine:
    """One spectroscopic transition of an isotopologue, in SI units.

    Attributes:
        gas_id: catalog molecule number.
        iso_id: isotopologue number within the gas.
        f_c0: resonant frequency at reference pressure [Hz].
        line_intensity: line density [m^2 Hz/mol].
        alpha_air: air broadening coefficient [Hz/atm].
        alpha_self: self broadening coefficient [Hz/atm].
        temp_exponent: temperature broadening exponent (dimensionless).
        pressure_shift: linear pressure shift [Hz/atm].
    """

    gas_id: int
    iso_id: int
    f_c0: float
    line_intensity: float
    alpha_air: float
    alpha_self: float
    temp_exponent: float
    pressure_shift: float

    def __post_init__(self):
        problems = []
        if not self.f_c0 > 0:
            problems.append(f"f_c0 must be > 0, got {self.f_c0!r}")
        if not self.alpha_air > 0:
            problems.append(f"alpha_air must be > 0, got {self.alpha_air!r}")
        if self.alpha_self < 0:
            problems.append(
                f"alpha_self must be >= 0, got {self.alpha_self!r}")
        if self.line_intensity < 0:
            problems.append(
                f"line_intensity must be >= 0, got {self.line_intensity!r}")
        if problems:
            raise ValidationError(problems)

    @property
    def species(self) -> tuple[int, int]:
        return (self.gas_id, self.iso_id)


def _si_fields(values: dict) -> dict:
    """SpectralLine's fields, in its order and in SI units, from the
    consumed fields of one record or the columns of many."""
    return {
        "gas_id": values["gas_id"],
        "iso_id": values["iso_id"],
        "f_c0": values["wavenumber"] * WAVENUMBER_TO_HZ,
        "line_intensity": values["intensity"] * INTENSITY_TO_SI,
        "alpha_air": values["alpha_air"] * WAVENUMBER_TO_HZ,
        "alpha_self": values["alpha_self"] * WAVENUMBER_TO_HZ,
        "temp_exponent": values["temp_exponent"],
        "pressure_shift": values["pressure_shift"] * WAVENUMBER_TO_HZ,
    }


def _parse_field(record: str, name: str, line_number: int):
    span, kind = _FIELDS[name]
    raw = record[span[0] - 1:span[1]]
    text = raw.strip()
    if not text:
        raise CatalogParseError(f"blank {name} field", line_number, span)
    try:
        return kind(text)
    except ValueError:
        raise CatalogParseError(
            f"non-numeric {name} field {raw!r}", line_number, span) from None


def _parse_record(record: str, line_number: int) -> tuple[tuple[int, int], float, SpectralLine]:
    if len(record) != RECORD_WIDTH:
        raise CatalogParseError(
            f"record is {len(record)} characters, expected {RECORD_WIDTH}",
            line_number)
    values = {name: _parse_field(record, name, line_number)
              for name in _FIELDS}
    try:
        line = SpectralLine(**_si_fields(values))
    except ValidationError as exc:
        raise CatalogParseError(str(exc), line_number) from None
    return (values["gas_id"], values["iso_id"]), values["intensity"], line


def _parse_records(raw_text: str, wanted: set[tuple[int, int]],
                   intensity_floor: float) -> list[SpectralLine]:
    """The reference parser: one record at a time, raising at the first
    malformed one."""
    lines: list[SpectralLine] = []
    for line_number, record in enumerate(raw_text.split("\n"), start=1):
        if not record:
            continue  # blank separator, e.g. trailing newline
        species, raw_intensity, line = _parse_record(record, line_number)
        if species not in wanted:
            continue
        if raw_intensity < intensity_floor:
            continue
        lines.append(line)
    return lines


def _parse_columns(raw_text: str, wanted: set[tuple[int, int]],
                   intensity_floor: float) -> list[SpectralLine] | None:
    """The lines _parse_records keeps, parsed field by field, at once, over
    every record _skippable does not skip. None unless the text, blank
    lines dropped, is 160-character records of printable ASCII, each
    followed by a newline (optional after the last), whose fields all
    convert and whose lines all pass SpectralLine's checks.

    The printable bytes matter: numpy reads b"1.5\\x00" as 1.5 and refuses
    0x1c-0x1f as blanks, while Python's float, which the reference parser
    uses, refuses the first and strips the second."""
    try:
        data = raw_text.encode("ascii")
    except UnicodeEncodeError:
        return None
    stride = RECORD_WIDTH + 1
    for _ in range(2):  # as given, then with blank lines (separators) dropped
        n, tail = divmod(len(data) + 1, stride)  # tail 1: a final newline
        newlines = np.frombuffer(data, np.uint8)[RECORD_WIDTH::stride]
        if n and tail <= 1 and (newlines == ord("\n")).all():
            break
        data = b"\n".join(filter(None, data.split(b"\n")))
    else:
        return None
    chars = np.ndarray((n, RECORD_WIDTH), np.uint8, data, strides=(stride, 1))
    if chars.min() < 0x20 or chars.max() > 0x7e:
        return None
    rows = np.flatnonzero(~_skippable(chars, wanted))
    fields = np.ndarray((n,), _RECORD, data, strides=(stride,))
    try:
        values = {name: fields[name][rows].astype(kind)
                  for name, (_, kind) in _FIELDS.items()}
    except ValueError:
        return None
    si = _si_fields(values)
    # SpectralLine.__post_init__'s checks, on every converted record
    if not ((si["f_c0"] > 0).all() and (si["alpha_air"] > 0).all()
            and not (si["alpha_self"] < 0).any()
            and not (si["line_intensity"] < 0).any()):
        return None
    keep = np.zeros(len(rows), dtype=bool)
    for gas, iso in wanted:
        keep |= (si["gas_id"] == gas) & (si["iso_id"] == iso)
    keep &= ~(values["intensity"] < intensity_floor)
    return [SpectralLine(*line) for line in
            zip(*(column[keep].tolist() for column in si.values()))]


def parse_line_catalog(
    raw_text: str,
    wanted: set[tuple[int, int]],
    intensity_floor: float = DEFAULT_INTENSITY_FLOOR,
) -> list[SpectralLine]:
    """Parse fixed-width catalog records for the wanted species.

    Args:
        raw_text: newline-delimited 160-character records.
        wanted: set of (gas_id, iso_id) species to keep.
        intensity_floor: drop lines weaker than this many catalog intensity
            units (set to 0 to keep everything).

    Returns:
        SpectralLine list in catalog order, SI units.

    Raises:
        CatalogParseError: on the first malformed record, carrying the
            1-based line number and, where applicable, the column span.

    Emits a UserWarning for any wanted species with no surviving records.
    """
    lines = _parse_columns(raw_text, wanted, intensity_floor)
    if lines is None:
        lines = _parse_records(raw_text, wanted, intensity_floor)
    seen = {line.species for line in lines}
    for species in sorted(wanted - seen):
        warnings.warn(
            f"no catalog records for species {species}", stacklevel=2)
    return lines


def _fixed_decimal(value: float, width: int, decimals: int) -> str:
    """Format to a fixed column width, dropping the leading integer zero
    (Fortran style) when needed to make room for the sign."""
    text = f"{value:.{decimals}f}"
    if len(text) > width:
        if text.startswith("0."):
            text = text[1:]
        elif text.startswith("-0."):
            text = "-" + text[2:]
    if len(text) > width:
        raise ValueError(
            f"value {value!r} does not fit in {width}.{decimals} format")
    return text.rjust(width)


def serialize_line(line: SpectralLine) -> str:
    """Render a SpectralLine back to a 160-character catalog record.

    The eight consumed fields are emitted at catalog precision; ignored
    columns are blank. Re-parsing the result reproduces the line exactly.
    """
    record = [" "] * RECORD_WIDTH

    def put(span, text):
        lo, hi = span
        width = hi - lo + 1
        assert len(text) == width
        record[lo - 1:hi] = text

    put(_FIELDS["gas_id"][0], f"{line.gas_id:2d}")
    put(_FIELDS["iso_id"][0], f"{line.iso_id:1d}")
    put(_FIELDS["wavenumber"][0], f"{line.f_c0 / WAVENUMBER_TO_HZ:12.6f}")
    put(_FIELDS["intensity"][0],
        f"{line.line_intensity / INTENSITY_TO_SI:10.3E}")
    put(_FIELDS["alpha_air"][0],
        _fixed_decimal(line.alpha_air / WAVENUMBER_TO_HZ, 5, 4))
    put(_FIELDS["alpha_self"][0],
        _fixed_decimal(line.alpha_self / WAVENUMBER_TO_HZ, 5, 3))
    put(_FIELDS["temp_exponent"][0],
        _fixed_decimal(line.temp_exponent, 4, 2))
    put(_FIELDS["pressure_shift"][0],
        _fixed_decimal(line.pressure_shift / WAVENUMBER_TO_HZ, 8, 6))
    return "".join(record)


@dataclass(frozen=True)
class Medium:
    """Gas mixture plus the dielectric constant of the fill material.

    composition maps (gas_id, iso_id) to its mixing ratio q in [0, 1]; the
    ratios may sum to less than 1, the remainder being non-absorbing
    background. ``lines`` holds the catalog lines of exactly the species
    present in the composition.
    """

    composition: dict[tuple[int, int], float]
    epsilon_r: float = 1.0
    lines: tuple[SpectralLine, ...] = ()

    def __post_init__(self):
        problems = []
        total = 0.0
        for species, q in self.composition.items():
            if not 0.0 <= q <= 1.0:
                problems.append(
                    f"mixing ratio for {species} must be in [0, 1], got {q!r}")
            else:
                total += q
        if total > 1.0 + 1e-12:
            problems.append(f"mixing ratios sum to {total!r} > 1")
        if not self.epsilon_r >= 1.0:
            problems.append(
                f"epsilon_r must be >= 1, got {self.epsilon_r!r}")
        for line in self.lines:
            if line.species not in self.composition:
                problems.append(
                    f"line at {line.f_c0:.6e} Hz belongs to species "
                    f"{line.species} absent from the composition")
        if problems:
            raise ValidationError(problems)
        object.__setattr__(self, "lines", tuple(self.lines))

    @property
    def species(self) -> set[tuple[int, int]]:
        return set(self.composition)

    def q_for(self, line: SpectralLine) -> float:
        return self.composition[line.species]

    @cached_property
    def packed(self) -> "kernels.LineArrays":
        """The lines as the kernel's arrays, packed once on first use."""
        return kernels.pack_lines(self)

    def without_absorption(self) -> "Medium":
        """The conventional pure-propagation baseline: same permittivity,
        empty composition, hence kappa = 0 everywhere."""
        return Medium(composition={}, epsilon_r=self.epsilon_r, lines=())


def load_medium(config_doc: dict, catalog: list[SpectralLine]) -> Medium:
    """Build a Medium from a parsed config document and a parsed catalog.

    The document must carry ``epsilon_r`` (number) and ``composition``
    (array of {gas_id, iso_id, q}, with no other keys). Catalog lines are
    filtered down to the species named in the composition.

    Raises:
        ValidationError: listing every violation found, both structural
            (missing/duplicate entries) and value-range ones.
    """
    problems = []
    if "epsilon_r" not in config_doc:
        problems.append("missing key 'epsilon_r'")
    if "composition" not in config_doc:
        problems.append("missing key 'composition'")
    if problems:
        raise ValidationError(problems)

    composition: dict[tuple[int, int], float] = {}
    for i, entry in enumerate(config_doc["composition"]):
        fields = {"gas_id", "iso_id", "q"}
        unknown, missing = set(entry) - fields, fields - set(entry)
        if unknown:
            problems.append(
                f"composition[{i}] has unknown keys {sorted(unknown)}")
        if missing:
            problems.append(
                f"composition[{i}] missing keys {sorted(missing)}")
        if unknown or missing:
            continue
        species = (int(entry["gas_id"]), int(entry["iso_id"]))
        if species in composition:
            problems.append(f"duplicate composition entry for {species}")
            continue
        composition[species] = float(entry["q"])
    if problems:
        raise ValidationError(problems)

    lines = tuple(ln for ln in catalog if ln.species in composition)
    return Medium(composition=composition,
                  epsilon_r=float(config_doc["epsilon_r"]),
                  lines=lines)


__all__ = [
    "RECORD_WIDTH", "INTENSITY_TO_SI", "DEFAULT_INTENSITY_FLOOR",
    "SpectralLine", "Medium", "parse_line_catalog", "serialize_line",
    "load_medium",
]
