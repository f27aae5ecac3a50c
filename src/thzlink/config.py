"""Scenario configuration: defaults, JSON schema, catalog resolution.

A scenario file is one JSON document; any omitted key falls back to the
default experiment (two 0.02 mm antennas 0.1 mm apart in a 20 x 1 mm
package, humid-air medium, 296 K, 1 atm, 100 GHz band around 1 THz split
64 ways, 1 uW budget). The catalog path resolves in order: explicit
argument, THZ_CATALOG environment variable, bundled sample catalog.
"""

from __future__ import annotations

import json
import os
from importlib import resources

from .absorption import Environment
from .capacity import BandPlan
from .errors import ConfigError
from .propagation import LinkGeometry
from .spectro import SpectralLine, load_medium, parse_line_catalog
from .sweep import Scenario

CATALOG_ENV_VAR = "THZ_CATALOG"
BUNDLED_CATALOG = "thz_lines.par"

DEFAULT_SCENARIO = {
    "geometry": {
        "d": 1.0e-4,
        "h_t": 2.0e-5,
        "h_r": 2.0e-5,
        "g_t": 1.0,
        "g_r": 1.0,
        "d_c": 0.02,
        "h": 1.0e-3,
    },
    "environment": {
        "t_s": 296.0,
        "p": 1.0,
    },
    "medium": {
        "epsilon_r": 1.0,
        "composition": [
            {"gas_id": 1, "iso_id": 1, "q": 0.25},
            {"gas_id": 7, "iso_id": 1, "q": 0.21},
        ],
    },
    "band": {
        "center": 1.0e12,
        "bandwidth": 1.0e11,
        "subbands": 64,
    },
    "p_t": 1.0e-6,
    "baseline": False,
}


def read_bundled_catalog() -> str:
    return (resources.files("thzlink") / "data" / BUNDLED_CATALOG).read_text()


def read_catalog(path: str | None = None) -> str:
    """Catalog text from the explicit path, $THZ_CATALOG, or the bundle."""
    if path is None:
        path = os.environ.get(CATALOG_ENV_VAR) or None
    try:
        if path is None:
            return read_bundled_catalog()
        with open(path, encoding="ascii") as handle:
            return handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        source = "the bundled catalog" if path is None else f"catalog {path!r}"
        raise ConfigError(f"cannot read {source}: {exc}") from exc


def read_scenario_doc(path: str | None) -> dict:
    if path is None:
        return {}
    try:
        with open(path, encoding="utf-8") as handle:
            doc = json.load(handle)
    except OSError as exc:
        raise ConfigError(f"cannot read scenario {path!r}: {exc}") from exc
    except (ValueError, RecursionError) as exc:  # not UTF-8, not JSON, too deep
        raise ConfigError(f"scenario {path!r} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError(f"scenario {path!r} must hold a JSON object")
    return doc


# The JSON type of each value json.load returns, bool before its base int
_JSON_TYPES = ((bool, "a boolean"), (int, "an integer"), (float, "a number"),
               (str, "a string"), (dict, "an object"), (list, "an array"),
               (type(None), "null"))


def _json_type(value) -> str:
    return next(name for kind, name in _JSON_TYPES if isinstance(value, kind))


def _check_type(value, default, path: str) -> None:
    """ConfigError naming ``path`` unless ``value`` has the JSON type of its
    default: any number for a float, an integral one for an int, never a
    bool, and numbers within float64. Objects are checked key by key and
    arrays item by item, against the default's first item."""
    want, got = _json_type(default), _json_type(value)
    if {want, got} <= {"an integer", "a number"}:  # JSON has one number type
        try:
            got = "an integer" if float(value).is_integer() else "a number"
        except OverflowError:
            raise ConfigError(
                f"scenario value {path} is outside float64") from None
        if want == "a number":
            return
    if got != want:
        raise ConfigError(f"scenario value {path} must be {want}, got {got}")
    if isinstance(value, dict):
        for key in value:
            if key in default:
                _check_type(value[key], default[key], f"{path}.{key}")
    elif isinstance(value, list):
        for i, item in enumerate(value):
            _check_type(item, default[0], f"{path}[{i}]")


def _merged(doc: dict) -> dict:
    known = set(DEFAULT_SCENARIO)
    unknown = set(doc) - known
    if unknown:
        raise ConfigError(
            f"unknown scenario keys {sorted(unknown)}; expected a subset "
            f"of {sorted(known)}")
    merged = {}
    for key, default in DEFAULT_SCENARIO.items():
        value = doc.get(key, default)
        _check_type(value, default, key)
        if not isinstance(default, dict):
            merged[key] = value
            continue
        extra = set(value) - set(default)
        if extra:
            raise ConfigError(
                f"unknown keys {sorted(extra)} in scenario section {key!r}")
        # a medium replaces the default's whole, composition included
        merged[key] = value if key == "medium" else {**default, **value}
    return merged


def build_scenario(doc: dict, catalog: list[SpectralLine]) -> Scenario:
    """Assemble a Scenario from a (possibly partial) config document."""
    merged = _merged(doc)
    medium = load_medium(merged["medium"], catalog)
    geometry = merged["geometry"]
    band = merged["band"]
    center, width = float(band["center"]), float(band["bandwidth"])
    return Scenario(
        geom=LinkGeometry(**geometry),
        medium=medium,
        env=Environment(**merged["environment"]),
        # the file's band is configuration: its errors are ValidationErrors
        band=BandPlan.from_edges(center - width / 2.0, center + width / 2.0,
                                 int(band["subbands"])),
        p_t=float(merged["p_t"]),
        baseline=bool(merged["baseline"]),
    )


def scenario_species(doc: dict) -> set[tuple[int, int]]:
    """Species the scenario needs from the catalog (parse-time filter)."""
    merged = _merged(doc)
    return {(int(entry["gas_id"]), int(entry["iso_id"]))
            for entry in merged["medium"].get("composition", [])
            if isinstance(entry, dict) and {"gas_id", "iso_id"} <= set(entry)}


def load_scenario(scenario_path: str | None = None,
                  catalog_path: str | None = None) -> Scenario:
    """Fail-fast loader: read and parse everything before computing."""
    doc = read_scenario_doc(scenario_path)
    raw = read_catalog(catalog_path)
    catalog = parse_line_catalog(raw, scenario_species(doc))
    return build_scenario(doc, catalog)


__all__ = [
    "CATALOG_ENV_VAR", "DEFAULT_SCENARIO", "read_bundled_catalog",
    "read_catalog", "read_scenario_doc", "build_scenario",
    "scenario_species", "load_scenario",
]
