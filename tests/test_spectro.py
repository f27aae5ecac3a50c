import math
import re
import struct
import tracemalloc
import warnings
from dataclasses import astuple, fields, replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from thzlink import spectro
from thzlink.constants import AVOGADRO, LIGHT_SPEED, WAVENUMBER_TO_HZ
from thzlink.errors import CatalogParseError, ValidationError
from thzlink.spectro import (DEFAULT_INTENSITY_FLOOR, INTENSITY_TO_SI, Medium,
                             SpectralLine, load_medium, parse_line_catalog,
                             serialize_line)


def make_record(gas=1, iso=1, nu=33.3564, s=1.650e-19, gair=0.0945,
                gself=0.452, n=0.75, delta=-0.0021):
    """Independent record builder (not serialize_line) used as the oracle."""
    def strip0(value, width, decimals):
        text = f"{value:.{decimals}f}"
        if len(text) > width:
            text = text.replace("0.", ".", 1)
        return text.rjust(width)

    rec = (f"{gas:2d}{iso:1d}{nu:12.6f}{s:10.3E}{1.0:10.3E}"
           f"{strip0(gair, 5, 4)}{strip0(gself, 5, 3)}{100.0:10.4f}"
           f"{strip0(n, 4, 2)}{strip0(delta, 8, 6)}")
    rec += " " * (160 - len(rec))
    assert len(rec) == 160
    return rec


def test_wavenumber_conversion():
    # 100 * 2.9979e8 * 33.3564 computed by hand
    (line,) = parse_line_catalog(make_record(), {(1, 1)})
    assert line.f_c0 == pytest.approx(9.999915156e11, rel=1e-9)
    assert line.f_c0 == pytest.approx(100.0 * LIGHT_SPEED * 33.3564, rel=1e-15)


def test_all_fields_converted():
    (line,) = parse_line_catalog(make_record(), {(1, 1)})
    k = 100.0 * LIGHT_SPEED
    assert line.gas_id == 1 and line.iso_id == 1
    assert line.alpha_air == pytest.approx(0.0945 * k, rel=1e-12)
    assert line.alpha_self == pytest.approx(0.452 * k, rel=1e-12)
    assert line.temp_exponent == 0.75
    assert line.pressure_shift == pytest.approx(-0.0021 * k, rel=1e-12)
    # intensity: cm^-1/(molec cm^-2) * 100c * 1e-4 * N_A
    assert line.line_intensity == pytest.approx(
        1.650e-19 * k * 1e-4 * AVOGADRO, rel=1e-12)


def test_species_filter_excludes_unwanted():
    text = make_record(gas=1) + "\n" + make_record(gas=2)
    lines = parse_line_catalog(text, {(1, 1)})
    assert [ln.gas_id for ln in lines] == [1]


def test_parse_then_filter_equals_filter_then_parse(catalog_text):
    broad = parse_line_catalog(catalog_text, {(1, 1), (7, 1)},
                               intensity_floor=0.0)
    narrow = parse_line_catalog(catalog_text, {(7, 1)}, intensity_floor=0.0)
    assert [ln for ln in broad if ln.species == (7, 1)] == narrow


def test_wrong_width_record_is_positioned_error():
    bad = make_record()[:-1]  # 159 characters
    with pytest.raises(CatalogParseError) as excinfo:
        parse_line_catalog(make_record() + "\n" + bad, {(1, 1)})
    assert excinfo.value.line_number == 2
    assert "159" in str(excinfo.value)


@pytest.mark.parametrize("span, name", [
    ((4, 15), "wavenumber"),
    ((16, 25), "intensity"),
    ((36, 40), "alpha_air"),
    ((60, 67), "pressure_shift"),
])
def test_non_numeric_field_names_line_and_span(span, name):
    rec = list(make_record())
    rec[span[0] - 1:span[1]] = "x" * (span[1] - span[0] + 1)
    with pytest.raises(CatalogParseError) as excinfo:
        parse_line_catalog("".join(rec), {(1, 1)})
    assert excinfo.value.line_number == 1
    assert excinfo.value.col_span == span
    assert name in str(excinfo.value)


def test_blank_field_is_error():
    rec = list(make_record())
    rec[3:15] = " " * 12
    with pytest.raises(CatalogParseError) as excinfo:
        parse_line_catalog("".join(rec), {(1, 1)})
    assert excinfo.value.col_span == (4, 15)


def test_invalid_physical_value_is_positioned_error():
    with pytest.raises(CatalogParseError) as excinfo:
        parse_line_catalog(make_record(gair=0.0), {(1, 1)})
    assert excinfo.value.line_number == 1
    assert "alpha_air" in str(excinfo.value)


def test_missing_species_warns():
    with pytest.warns(UserWarning, match=r"\(99, 1\)"):
        lines = parse_line_catalog(make_record(), {(1, 1), (99, 1)})
    assert len(lines) == 1


def test_intensity_floor(catalog_text):
    kept = parse_line_catalog(catalog_text, {(1, 1)})
    everything = parse_line_catalog(catalog_text, {(1, 1)},
                                    intensity_floor=0.0)
    assert len(everything) == len(kept) + 1  # one sub-floor fixture line
    dropped = set(ln.f_c0 for ln in everything) - set(ln.f_c0 for ln in kept)
    (f_c0,) = dropped
    assert f_c0 == pytest.approx(45.0 * 100.0 * LIGHT_SPEED, rel=1e-12)
    assert DEFAULT_INTENSITY_FLOOR == 1e-30


def test_conversion_is_exactly_linear():
    (one,) = parse_line_catalog(make_record(nu=33.3564), {(1, 1)})
    (two,) = parse_line_catalog(make_record(nu=66.7128), {(1, 1)})
    assert two.f_c0 == 2.0 * one.f_c0


def test_round_trip_whole_catalog(catalog_text, full_catalog):
    source_records = [r for r in catalog_text.split("\n") if r]
    assert len(source_records) >= len(full_catalog)
    for line in full_catalog:
        record = serialize_line(line)
        assert len(record) == 160
        (again,) = parse_line_catalog(record, {line.species},
                                      intensity_floor=0.0)
        assert again == line


def test_serialize_rejects_a_value_wider_than_its_column(full_catalog):
    """The temperature exponent's column is 4 characters of %.2f."""
    line = replace(full_catalog[0], temp_exponent=123.0)
    with pytest.raises(ValueError, match=r"value 123\.0 does not fit in "
                                         r"4\.2 format"):
        serialize_line(line)


def test_round_trip_preserves_source_text(catalog_text):
    # consumed column spans survive byte-for-byte on the bundled catalog
    spans = [(1, 2), (3, 3), (4, 15), (16, 25), (36, 40), (41, 45),
             (56, 59), (60, 67)]
    for record in catalog_text.split("\n"):
        if not record:
            continue
        species = (int(record[0:2]), int(record[2:3]))
        (line,) = parse_line_catalog(record, {species}, intensity_floor=0.0)
        rendered = serialize_line(line)
        for lo, hi in spans:
            assert rendered[lo - 1:hi] == record[lo - 1:hi], (lo, hi, record)


def test_load_medium_filters_lines(full_catalog):
    medium = load_medium(
        {"epsilon_r": 1.0,
         "composition": [{"gas_id": 7, "iso_id": 1, "q": 0.2}]},
        full_catalog)
    assert medium.species == {(7, 1)}
    assert all(ln.species == (7, 1) for ln in medium.lines)
    assert len(medium.lines) == 4


def test_load_medium_reports_every_violation(full_catalog):
    with pytest.raises(ValidationError) as excinfo:
        load_medium(
            {"epsilon_r": 0.5,
             "composition": [{"gas_id": 1, "iso_id": 1, "q": 1.2},
                             {"gas_id": 7, "iso_id": 1, "q": 0.9}]},
            full_catalog)
    text = str(excinfo.value)
    assert "epsilon_r" in text
    assert "1.2" in text
    # q=1.2 is out of range and epsilon_r < 1; both reported at once
    assert len(excinfo.value.violations) >= 2


def test_load_medium_rejects_sum_above_one(full_catalog):
    with pytest.raises(ValidationError, match="sum"):
        load_medium(
            {"epsilon_r": 1.0,
             "composition": [{"gas_id": 1, "iso_id": 1, "q": 0.7},
                             {"gas_id": 7, "iso_id": 1, "q": 0.6}]},
            full_catalog)


def test_load_medium_rejects_duplicates(full_catalog):
    with pytest.raises(ValidationError, match="duplicate"):
        load_medium(
            {"epsilon_r": 1.0,
             "composition": [{"gas_id": 1, "iso_id": 1, "q": 0.1},
                             {"gas_id": 1, "iso_id": 1, "q": 0.2}]},
            full_catalog)


def test_empty_composition_is_valid_baseline(full_catalog):
    medium = load_medium({"epsilon_r": 1.0, "composition": []}, full_catalog)
    assert medium.lines == ()
    assert medium.composition == {}


def test_medium_rejects_foreign_lines(full_catalog):
    oxygen_lines = tuple(ln for ln in full_catalog if ln.species == (7, 1))
    with pytest.raises(ValidationError, match="absent"):
        Medium(composition={(1, 1): 0.1}, epsilon_r=1.0, lines=oxygen_lines)


def test_spectral_line_invariants():
    with pytest.raises(ValidationError):
        SpectralLine(gas_id=1, iso_id=1, f_c0=-1.0, line_intensity=1.0,
                     alpha_air=1.0, alpha_self=1.0, temp_exponent=0.5,
                     pressure_shift=0.0)
    with pytest.raises(ValidationError):
        SpectralLine(gas_id=1, iso_id=1, f_c0=1e12, line_intensity=-1.0,
                     alpha_air=1.0, alpha_self=1.0, temp_exponent=0.5,
                     pressure_shift=0.0)


# --- column parse against the record-by-record reference parser ----------

def _bits(lines):
    return [struct.pack("<qqdddddd", *astuple(line)) for line in lines]


def _outcome(parse, text, wanted, floor=DEFAULT_INTENSITY_FLOOR):
    """The lines a parser keeps, or its error as (type, line, span, text)."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            return _bits(parse(text, wanted, floor))
    except CatalogParseError as exc:
        return type(exc), exc.line_number, exc.col_span, str(exc)


def _seeded_catalog(seed, n_records):
    rng = np.random.default_rng(seed)
    records = []
    for _ in range(n_records):
        records.append(serialize_line(SpectralLine(
            gas_id=int(rng.integers(1, 10)), iso_id=int(rng.integers(1, 4)),
            f_c0=float(rng.uniform(1.0, 900.0)) * WAVENUMBER_TO_HZ,
            line_intensity=10.0 ** float(rng.uniform(-33.0, -19.0))
            * INTENSITY_TO_SI,
            alpha_air=float(rng.uniform(0.001, 0.2)) * WAVENUMBER_TO_HZ,
            alpha_self=float(rng.uniform(0.0, 0.9)) * WAVENUMBER_TO_HZ,
            temp_exponent=float(rng.uniform(-0.9, 0.99)),
            pressure_shift=float(rng.uniform(-0.09, 0.09))
            * WAVENUMBER_TO_HZ)))
    return "\n".join(records) + "\n"


SEEDED_WANTED = {(1, 1), (2, 3), (7, 1), (9, 2)}


@pytest.mark.parametrize("floor", [0.0, DEFAULT_INTENSITY_FLOOR])
def test_column_parse_is_bitwise_reference_on_bundled_catalog(
        catalog_text, floor):
    wanted = {(1, 1), (1, 2), (7, 1), (4, 1)}
    columns = spectro._parse_columns(catalog_text, wanted, floor)
    assert columns is not None  # the bundled catalog takes the column path
    reference = spectro._parse_records(catalog_text, wanted, floor)
    assert columns == reference
    assert _bits(columns) == _bits(reference)


@pytest.mark.parametrize("floor", [0.0, DEFAULT_INTENSITY_FLOOR])
def test_column_parse_is_bitwise_reference_on_seeded_catalog(floor):
    text = _seeded_catalog(20261018, 3000)
    columns = spectro._parse_columns(text, SEEDED_WANTED, floor)
    assert columns is not None
    reference = spectro._parse_records(text, SEEDED_WANTED, floor)
    assert len(reference) > 200
    assert columns == reference
    assert _bits(columns) == _bits(reference)


def _species(text):
    return {(int(record[0:2]), int(record[2]))
            for record in text.split("\n") if record}


def _skipped(text, wanted):
    """_parse_columns's skip rule on each record of newline-ended text."""
    chars = np.frombuffer(text.encode("ascii"), np.uint8).reshape(-1, 161)
    return spectro._skippable(chars[:, :160], wanted)


@pytest.mark.parametrize("floor", [0.0, DEFAULT_INTENSITY_FLOOR])
@pytest.mark.parametrize("every_species", [False, True],
                         ids=["none-wanted", "all-wanted"])
@pytest.mark.parametrize("source", ["bundled", "seeded"])
def test_column_parse_is_bitwise_reference_at_either_extreme_of_skipping(
        catalog_text, source, every_species, floor):
    text = (catalog_text if source == "bundled"
            else _seeded_catalog(20261018, 3000))
    wanted = _species(text) if every_species else set()
    # no species wanted: every record is skipped; all of them: none is
    assert (_skipped(text, wanted) == (not every_species)).all()
    columns = spectro._parse_columns(text, wanted, floor)
    assert columns is not None
    reference = spectro._parse_records(text, wanted, floor)
    assert (len(reference) > 30) == every_species
    assert columns == reference
    assert _bits(columns) == _bits(reference)


def test_parse_peak_memory_is_the_text_and_a_bounded_rest():
    text = _seeded_catalog(20261020, 2000) * 100  # 200 000 records
    tracemalloc.start()
    try:
        lines = parse_line_catalog(text, {(1, 1)})
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(lines) > 1000
    # the text's ASCII bytes are one copy of it; the rest must not grow
    # with the records of species that are not wanted
    assert peak < len(text) + 8 * 2**20


SMALL_CATALOG = _seeded_catalog(7, 12)
SMALL_WANTED = {tuple(int(x) for x in (record[0:2], record[2]))
                for record in SMALL_CATALOG.split("\n")[:6:2]}
CORRUPTIONS = ["\x00", "\x1c", "\t", "_", "x", " ", "é", "\n", "\r"]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.lists(st.tuples(st.integers(0, len(SMALL_CATALOG) - 1),
                          st.sampled_from(CORRUPTIONS)),
                min_size=1, max_size=3))
def test_corrupted_catalog_matches_reference(edits):
    text = list(SMALL_CATALOG)
    for at, char in edits:
        text[at] = char
    text = "".join(text)
    assert (_outcome(parse_line_catalog, text, SMALL_WANTED)
            == _outcome(spectro._parse_records, text, SMALL_WANTED))


# blanks and the characters a Python int or float can be spelled with
FIELD_ALPHABET = " 0123456789+-.eE_infatyINFATY"


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.data())
def test_any_field_text_parses_as_the_reference(data):
    record = list(SMALL_CATALOG.split("\n")[0])
    name = data.draw(st.sampled_from(sorted(spectro._FIELDS)))
    (lo, hi), *_ = spectro._FIELDS[name]
    record[lo - 1:hi] = data.draw(st.text(FIELD_ALPHABET, min_size=hi - lo + 1,
                                          max_size=hi - lo + 1))
    text = SMALL_CATALOG + "".join(record)
    wanted = SMALL_WANTED | {(int(x), 1) for x in range(-9, 100)}
    for floor in (0.0, DEFAULT_INTENSITY_FLOOR):
        assert (_outcome(parse_line_catalog, text, wanted, floor)
                == _outcome(spectro._parse_records, text, wanted, floor))


# a record of a species SMALL_WANTED lacks, as serialize_line writes it
UNWANTED_RECORD = make_record(gas=12, iso=1, nu=12.5, s=3.2e-24, gair=0.0512,
                              gself=0.31, n=0.69, delta=-0.0013)
CONSUMED_COLUMNS = sorted({column for (lo, hi), *_ in spectro._FIELDS.values()
                           for column in range(lo, hi + 1)})


def test_unwanted_record_is_skipped_until_its_species_is_wanted():
    assert (12, 1) not in SMALL_WANTED
    assert _skipped(UNWANTED_RECORD + "\n", SMALL_WANTED).all()
    assert not _skipped(UNWANTED_RECORD + "\n", {(12, 1)}).any()
    # (1, 111) shares the code 10 * gas + iso with (12, 1): not skipped
    clash = {(1, 111)}
    assert not _skipped(UNWANTED_RECORD + "\n", clash).any()
    assert (_outcome(parse_line_catalog, UNWANTED_RECORD, clash)
            == _outcome(spectro._parse_records, UNWANTED_RECORD, clash) == [])


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.lists(st.tuples(st.sampled_from(CONSUMED_COLUMNS),
                          st.sampled_from(FIELD_ALPHABET)),
                min_size=1, max_size=3))
@example([(36, ".0000")])  # alpha_air zero
@example([(4, "    0.000000")])  # wavenumber zero
@example([(41, "-.000")])  # alpha_self -0.0, which passes its check
@example([(41, "-")])  # alpha_self -0.31
@example([(16, "-1.000E-25")])  # negative intensity
@example([(16, "1.000E-100")])  # a three-digit exponent
@example([(1, "01")])  # a leading zero: gas 1, a wanted species
@example([(3, "A")])  # a letter isotopologue id
def test_edited_unwanted_record_parses_as_the_reference(edits):
    """Each edit writes its text from a 1-based column of the record."""
    record = list(UNWANTED_RECORD)
    for column, chars in edits:
        record[column - 1:column - 1 + len(chars)] = chars
    text = SMALL_CATALOG + "".join(record) + "\n"
    wanted = SMALL_WANTED | {(1, 1)}
    for floor in (0.0, DEFAULT_INTENSITY_FLOOR):
        assert (_outcome(parse_line_catalog, text, wanted, floor)
                == _outcome(spectro._parse_records, text, wanted, floor))


# the bytes each class of a _FIELDS layout stands for
LAYOUT_CLASSES = {"d": "0123456789", "b": " 0123456789", "m": "-0123456789",
                  "s": "+-"}


def test_record_format_table_rows_agree(full_catalog):
    """The _FIELDS rows run in SpectralLine's field order, each layout is as
    wide as its span, the skip table accepts in each consumed column just
    its layout's bytes (any byte elsewhere), and serialize_line writes only
    those bytes in each field, for the bundled lines and a seeded draw."""
    assert [attr for _, _, attr, *_ in spectro._FIELDS.values()] == [
        f.name for f in fields(SpectralLine)]
    table = spectro._LAYOUT_OK.reshape(-1, 256)
    assert len(table) == max(CONSUMED_COLUMNS)
    assert all(table[column - 1].all() for column in range(1, len(table) + 1)
               if column not in CONSUMED_COLUMNS)
    records = ([serialize_line(line) for line in full_catalog]
               + _seeded_catalog(20261022, 2000).splitlines())
    for (lo, hi), *_, layout in spectro._FIELDS.values():
        assert len(layout) == hi - lo + 1
        accepted = [LAYOUT_CLASSES.get(kind, kind) for kind in layout]
        for column, chars in enumerate(accepted, start=lo - 1):
            assert bytes(np.flatnonzero(table[column]).tolist()) == (
                chars.encode())
        pattern = re.compile("".join(f"[{re.escape(chars)}]"
                                     for chars in accepted))
        for record in records:
            assert pattern.fullmatch(record[lo - 1:hi]), (record, lo, hi)


def test_blank_line_mid_file_is_skipped(catalog_text):
    records = catalog_text.split("\n")
    gapped = "\n".join(records[:10] + [""] + records[10:])
    assert (_bits(parse_line_catalog(gapped, {(1, 1), (7, 1)}))
            == _bits(parse_line_catalog(catalog_text, {(1, 1), (7, 1)})))


def test_blank_lines_keep_the_column_path(catalog_text):
    records = catalog_text.split("\n")
    gapped = "\n".join([""] + records[:10] + ["", ""] + records[10:]) + "\n"
    wanted = {(1, 1), (7, 1)}
    columns = spectro._parse_columns(gapped, wanted, 0.0)
    assert columns is not None
    assert _bits(columns) == _bits(spectro._parse_records(gapped, wanted, 0.0))
    assert _bits(columns) == _bits(
        spectro._parse_columns(catalog_text, wanted, 0.0))


def test_missing_final_newline_keeps_every_line(catalog_text):
    assert catalog_text.endswith("\n")
    trimmed = catalog_text[:-1]
    assert spectro._parse_columns(trimmed, {(1, 1)}, 0.0) is not None
    assert (_bits(parse_line_catalog(trimmed, {(1, 1)}, 0.0))
            == _bits(parse_line_catalog(catalog_text, {(1, 1)}, 0.0)))


def test_crlf_catalog_is_positioned_error(catalog_text):
    with pytest.raises(CatalogParseError) as excinfo:
        parse_line_catalog(catalog_text.replace("\n", "\r\n"), {(1, 1)})
    assert excinfo.value.line_number == 1
    assert "161" in str(excinfo.value)


def test_invalid_value_in_unwanted_species_is_positioned_error():
    text = "\n".join([make_record(), make_record(), make_record(gas=2),
                      make_record(gas=5, gair=0.0), make_record()])
    with pytest.raises(CatalogParseError) as excinfo:
        parse_line_catalog(text, {(1, 1)})
    assert excinfo.value.line_number == 4
    assert "alpha_air" in str(excinfo.value)
