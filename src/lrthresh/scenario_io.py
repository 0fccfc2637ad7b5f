"""Scenario files: a small YAML format naming a state, settings, and noise.

Keyword shortcuts cover every bundled configuration ("ghz", "paper-table",
"paper-maxent", ...) so no one has to hand-type 27 coefficients; explicit
coefficient lists and phase tables are accepted for everything else. Angles
may be plain radians or rational multiples of pi written as strings, e.g.
"2/3 pi". Parsed files validate against the JSON schema shipped with the
package.
"""

from __future__ import annotations

import functools
import json
import re
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

import jsonschema
import numpy as np
import yaml

from .scenario import (
    PhaseSettings,
    PureState,
    Scenario,
    ghz_state,
    paper_optimal_state,
    paper_settings,
    product_state,
)

STATE_KEYWORDS = ("ghz", "paper-table", "product")
SETTINGS_KEYWORDS = ("paper-maxent", "paper-near-optimal", "zero")

_PAPER_SETTINGS_BY_KEYWORD = {
    "paper-maxent": "maxent_3qutrit",
    "paper-near-optimal": "near_optimal_3qutrit",
}

# "2/3 pi", "-pi", "0.5 pi"; the numeric part defaults to 1
_ANGLE_RE = re.compile(
    r"^\s*(?P<sign>[+-])?\s*(?:(?P<num>\d+(?:\.\d*)?)\s*(?:/\s*(?P<den>\d+))?\s*)?"
    r"(?:pi|π)\s*$"
)


class ScenarioFileError(ValueError):
    """Malformed scenario file; the message carries a field diagnostic."""


def parse_angle(value) -> float:
    """An angle in radians, from a number or a 'fraction of pi' string."""
    if isinstance(value, bool):
        raise ScenarioFileError(f"angle must be a number or pi-string, got {value!r}")
    if isinstance(value, (int, float)):
        return float(value)
    if isinstance(value, str):
        match = _ANGLE_RE.match(value)
        if match:
            num = float(match.group("num")) if match.group("num") else 1.0
            if match.group("den"):
                den = float(match.group("den"))
                if den == 0:
                    raise ScenarioFileError(f"zero denominator in angle {value!r}")
                num /= den
            if match.group("sign") == "-":
                num = -num
            return num * np.pi
        try:
            return float(value)
        except ValueError:
            raise ScenarioFileError(
                f"cannot parse angle {value!r}; use radians or e.g. '2/3 pi'"
            ) from None
    raise ScenarioFileError(f"angle must be a number or pi-string, got {value!r}")


def format_angle(radians: float) -> float | str:
    """Inverse of parse_angle for clean pi fractions, plain radians otherwise."""
    frac = radians / np.pi
    for den in range(1, 37):
        num = frac * den
        if abs(num - round(num)) < 1e-12:
            num = int(round(num))
            if num == 0:
                return 0
            prefix = "-" if num < 0 else ""
            num = abs(num)
            if den == 1:
                return f"{prefix}pi" if num == 1 else f"{prefix}{num} pi"
            return f"{prefix}{num}/{den} pi"
    return float(radians)


_NUMBER_ITEMS = {"type": "number"}
_NUMBER_TYPES = {int, float}


@functools.cache
def _validator(schema_file: str):
    """The validator for one bundled schema; the schema is checked once per process.

    Its items keyword passes a list of plain ints and floats against
    {"type": "number"} in one type scan instead of one descent per item (a
    report's witness holds hundreds). Every other case, an invalid list
    included, goes to the stock keyword, so the errors are jsonschema's own.
    """
    text = resources.files("lrthresh.schemas").joinpath(schema_file).read_text()
    schema = json.loads(text)
    cls = jsonschema.validators.validator_for(schema)
    cls.check_schema(schema)
    stock_items = cls.VALIDATORS["items"]

    def items(validator, items, instance, schema):
        if (items == _NUMBER_ITEMS and type(instance) is list
                and set(map(type, instance)) <= _NUMBER_TYPES):
            return
        yield from stock_items(validator, items, instance, schema)

    return jsonschema.validators.extend(cls, {"items": items})(schema)


def _schema_error(raw, schema_file: str) -> jsonschema.ValidationError | None:
    """The error jsonschema.validate(raw, schema) would raise, or None if raw is valid."""
    return jsonschema.exceptions.best_match(_validator(schema_file).iter_errors(raw))


@dataclass(frozen=True)
class ScenarioFile:
    """Parsed scenario description: resolved objects plus the original specs.

    state_spec and settings_spec keep the keyword or explicit form from the
    file so serialization round-trips semantically.
    """

    scenario: Scenario
    state: PureState
    settings: PhaseSettings
    state_spec: object
    settings_spec: object
    noise: float | None = None


def _resolve_state(sc: Scenario, spec) -> PureState:
    if isinstance(spec, str):
        if spec == "ghz":
            return ghz_state(sc)
        if spec == "paper-table":
            if (sc.parties, sc.dim) != (3, 3):
                raise ScenarioFileError(
                    "state 'paper-table' is a three-qutrit state; "
                    f"scenario has parties={sc.parties}, dim={sc.dim}"
                )
            return paper_optimal_state()
        if spec == "product":
            raise ScenarioFileError(
                "state 'product' needs local vectors: {product: [[...], ...]}"
            )
        raise ScenarioFileError(
            f"unknown state keyword {spec!r}; expected one of {STATE_KEYWORDS} "
            "or a coefficient list"
        )
    if isinstance(spec, dict):
        if set(spec) == {"product"}:
            vectors = spec["product"]
            if not isinstance(vectors, list) or len(vectors) != sc.parties:
                raise ScenarioFileError(
                    f"state.product must list {sc.parties} local vectors"
                )
            return product_state(sc, [[float(x) for x in v] for v in vectors])
        raise ScenarioFileError(f"unrecognized state mapping with keys {sorted(spec)}")
    if isinstance(spec, list):
        coeffs = [float(x) for x in spec]
        want = sc.dim ** sc.parties
        if len(coeffs) != want:
            raise ScenarioFileError(
                f"explicit state needs {want} coefficients, got {len(coeffs)}"
            )
        if not np.all(np.isfinite(coeffs)):
            raise ScenarioFileError("state coefficients must be finite")
        norm = np.linalg.norm(coeffs)
        if norm == 0:
            raise ScenarioFileError("explicit state has zero norm")
        return PureState(sc, np.asarray(coeffs) / norm)
    raise ScenarioFileError(f"cannot interpret state spec of type {type(spec).__name__}")


def _resolve_settings(sc: Scenario, spec) -> PhaseSettings:
    if isinstance(spec, str):
        if spec == "zero":
            return PhaseSettings(
                sc, np.zeros((sc.parties, sc.settings_per_party, sc.dim))
            )
        name = _PAPER_SETTINGS_BY_KEYWORD.get(spec)
        if name is None:
            raise ScenarioFileError(
                f"unknown settings keyword {spec!r}; expected one of "
                f"{SETTINGS_KEYWORDS} or explicit phase tables"
            )
        bundled = paper_settings(name)
        if bundled.scenario != sc:
            raise ScenarioFileError(
                f"settings {spec!r} are defined for {bundled.scenario}, "
                f"file declares {sc}"
            )
        return bundled
    if isinstance(spec, list):
        try:
            table = np.array(
                [[[parse_angle(a) for a in row] for row in party] for party in spec],
                dtype=float,
            )
        except (TypeError, ScenarioFileError) as err:
            raise ScenarioFileError(f"bad phase table: {err}") from None
        want = (sc.parties, sc.settings_per_party, sc.dim)
        if table.shape != want:
            raise ScenarioFileError(
                f"explicit settings must form a {want} table, got {table.shape}"
            )
        return PhaseSettings(sc, table)
    raise ScenarioFileError(
        f"cannot interpret settings spec of type {type(spec).__name__}"
    )


def resolve_scenario(raw: dict) -> tuple[Scenario, PureState, PhaseSettings]:
    """The scenario, state and settings a schema-valid scenario mapping names.

    Scenario files and the scenario block of a report share this form.
    """
    sc = Scenario(
        parties=int(raw["parties"]),
        dim=int(raw["dim"]),
        settings_per_party=int(raw.get("settings_per_party", 2)),
    )
    return sc, _resolve_state(sc, raw["state"]), _resolve_settings(sc, raw["settings"])


def _load_yaml(text: str):
    """yaml.safe_load through libyaml when PyYAML has it.

    A document libyaml rejects is parsed again by the pure-Python loader, so
    every error message is that loader's.
    """
    try:
        return yaml.load(text, Loader=getattr(yaml, "CSafeLoader", yaml.SafeLoader))
    except yaml.YAMLError:
        return yaml.load(text, Loader=yaml.SafeLoader)


def parse_scenario_file(text: str) -> ScenarioFile:
    try:
        raw = _load_yaml(text)
    except yaml.YAMLError as err:
        raise ScenarioFileError(f"not valid YAML: {err}") from None
    if not isinstance(raw, dict):
        raise ScenarioFileError("scenario file must be a mapping at top level")
    err = _schema_error(raw, "scenario.schema.json")
    if err is not None:
        path = ".".join(str(p) for p in err.absolute_path) or "<top level>"
        raise ScenarioFileError(f"field {path}: {err.message}")

    sc, state, settings = resolve_scenario(raw)
    noise = raw.get("noise")
    if noise is not None:
        noise = float(noise)
        if not 0.0 <= noise <= 1.0:
            raise ScenarioFileError(f"field noise: must lie in [0, 1], got {noise}")
    return ScenarioFile(
        scenario=sc,
        state=state,
        settings=settings,
        state_spec=raw["state"],
        settings_spec=raw["settings"],
        noise=noise,
    )


def serialize_scenario_file(sf: ScenarioFile) -> str:
    doc: dict = {
        "parties": sf.scenario.parties,
        "dim": sf.scenario.dim,
        "settings_per_party": sf.scenario.settings_per_party,
        "state": sf.state_spec,
        "settings": sf.settings_spec,
    }
    if sf.noise is not None:
        doc["noise"] = sf.noise
    return yaml.safe_dump(doc, sort_keys=False, default_flow_style=None)


def load_scenario_file(path: str | Path) -> ScenarioFile:
    try:
        text = Path(path).read_text()
    except (OSError, UnicodeDecodeError) as err:
        raise ScenarioFileError(f"cannot read {path}: {err}") from None
    return parse_scenario_file(text)


def explicit_settings_spec(settings: PhaseSettings) -> list[list[list]]:
    """The nested-table form with angles rendered as pi fractions when exact."""
    return [
        [[format_angle(float(a)) for a in row] for row in party]
        for party in settings.table
    ]
