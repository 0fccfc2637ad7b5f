"""Scenario file parsing, angle grammar, and round-trip serialization."""

import numpy as np
import pytest
import yaml

from lrthresh import (
    Scenario,
    ScenarioFileError,
    format_angle,
    ghz_state,
    paper_optimal_state,
    paper_settings,
    parse_angle,
    parse_scenario_file,
)

from conftest import serialize_scenario_file

GHZ33 = """
parties: 3
dim: 3
state: ghz
settings: paper-maxent
"""


def test_parse_angle_forms():
    assert parse_angle(1.25) == 1.25
    assert parse_angle(0) == 0.0
    assert abs(parse_angle("2/3 pi") - 2 * np.pi / 3) < 1e-15
    assert abs(parse_angle("-pi") + np.pi) < 1e-15
    assert abs(parse_angle("pi") - np.pi) < 1e-15
    assert abs(parse_angle("17/18 pi") - 17 * np.pi / 18) < 1e-15
    assert abs(parse_angle("0.5 pi") - np.pi / 2) < 1e-15
    assert abs(parse_angle("23/36pi") - 23 * np.pi / 36) < 1e-15
    assert parse_angle("1.5") == 1.5


def test_parse_angle_rejects_garbage():
    for bad in ("two pi", "pi pi", "1/0 pi", "", "2/ pi pi", True, None, [1]):
        with pytest.raises(ScenarioFileError):
            parse_angle(bad)


# YAML infinities and NaN, a string that overflows, a pi multiple that
# overflows, and an int beyond the float range
NONFINITE_ANGLES = [".inf", "-.inf", ".nan", "'1e999'", "'" + "9" * 400 + " pi'", "1" + "0" * 400]


@pytest.mark.parametrize("bad", NONFINITE_ANGLES,
                         ids=["inf", "-inf", "nan", "1e999", "huge-pi", "huge-int"])
def test_nonfinite_angles_are_rejected_as_a_bad_phase_table(bad):
    text = f"parties: 2\ndim: 2\nstate: ghz\nsettings:\n  - [[0, {bad}], [0, 0]]\n" \
        "  - [[0, 0], [0, 0]]\n"
    with pytest.raises(ScenarioFileError, match=r"^bad phase table: angle must be finite"):
        parse_scenario_file(text)
    with pytest.raises(ScenarioFileError, match="finite"):
        parse_angle(yaml.safe_load(bad))


def test_format_angle_round_trips():
    for value in (0.0, np.pi, -np.pi / 3, 2 * np.pi / 3, 23 * np.pi / 36, 1.2345):
        rendered = format_angle(value)
        assert abs(parse_angle(rendered) - value) < 1e-12
    assert format_angle(np.pi) == "pi"
    assert format_angle(2 * np.pi / 3) == "2/3 pi"
    assert format_angle(0.0) == 0


def test_parse_keyword_file():
    sf = parse_scenario_file(GHZ33)
    assert sf.scenario == Scenario(parties=3, dim=3, settings_per_party=2)
    assert np.array_equal(sf.state.coeffs, ghz_state(sf.scenario).coeffs)
    assert np.array_equal(sf.settings.table, paper_settings("maxent_3qutrit").table)
    assert sf.noise is None


def test_parse_paper_table_state():
    sf = parse_scenario_file("parties: 3\ndim: 3\nstate: paper-table\nsettings: zero\n")
    assert np.array_equal(sf.state.coeffs, paper_optimal_state().coeffs)
    assert np.max(np.abs(sf.settings.table)) == 0.0


def test_parse_explicit_state_and_settings():
    text = """
parties: 2
dim: 2
state: [1, 1, 0, 0]
settings:
  - [["0", "1/2 pi"], [0, 0]]
  - [[0, "pi"], [0, 0.25]]
noise: 0.3
"""
    sf = parse_scenario_file(text)
    assert abs(np.linalg.norm(sf.state.coeffs) - 1.0) < 1e-12
    assert abs(sf.state.coeffs[0] - 1 / np.sqrt(2)) < 1e-12
    assert abs(sf.settings.table[0, 0, 1] - np.pi / 2) < 1e-12
    assert abs(sf.settings.table[1, 0, 1] - np.pi) < 1e-12
    assert sf.noise == 0.3


def test_parse_product_state():
    text = """
parties: 2
dim: 3
state:
  product:
    - [1, 0, 0]
    - [0, 1, 0]
settings: zero
"""
    sf = parse_scenario_file(text)
    assert sf.state.coeffs[1] == 1.0


def test_round_trip_preserves_semantics():
    for text in (
        GHZ33,
        "parties: 2\ndim: 3\nstate: ghz\nsettings: zero\nnoise: 0.1\n",
        "parties: 2\ndim: 2\nstate: [1, 0, 0, 1]\n"
        "settings: [[[0, '1/2 pi'], [0, 0]], [[0, 'pi'], [0, 0.25]]]\n",
    ):
        sf = parse_scenario_file(text)
        again = parse_scenario_file(serialize_scenario_file(sf))
        assert again.scenario == sf.scenario
        assert np.max(np.abs(again.state.coeffs - sf.state.coeffs)) < 1e-12
        assert np.max(np.abs(again.settings.table - sf.settings.table)) < 1e-12
        assert again.noise == sf.noise
        assert again.state_spec == sf.state_spec


MALFORMED = [
    ("state: ghz\nsettings: zero\n", "parties"),  # missing required fields
    ("parties: 3\ndim: 3\nstate: nope\nsettings: zero\n", "state"),
    ("parties: 3\ndim: 3\nstate: ghz\nsettings: wrong\n", "settings"),
    ("parties: 3\ndim: 3\nstate: ghz\nsettings: zero\nnoise: 1.5\n", "noise"),
    ("parties: 2\ndim: 2\nstate: [1, 0]\nsettings: zero\n", ""),  # short list
    ("parties: 2\ndim: 2\nstate: ghz\nsettings: [[[0, 0]]]\n", ""),  # bad shape
    ("- just\n- a list\n", ""),
    ("parties: [3\n", ""),
]
# YAML syntax errors beyond the one above, for the loader comparison
BAD_YAML = [
    "parties: 3\n\tdim: 3\n",
    "parties: 'three\n",
    "parties: 3\n  dim: 3\n",
    "state: [1, 0\nsettings: zero\n",
    "a: b: c\n",
    "{parties: 3\n",
    "parties: *missing\n",
    "- x\ny: 1\n",
]


def test_rejects_malformed_files():
    for text, hint in MALFORMED:
        with pytest.raises(ScenarioFileError) as err:
            parse_scenario_file(text)
        if hint:
            assert hint in str(err.value)


def test_keyword_scenario_mismatches():
    with pytest.raises(ScenarioFileError):
        parse_scenario_file("parties: 2\ndim: 2\nstate: paper-table\nsettings: zero\n")
    with pytest.raises(ScenarioFileError):
        parse_scenario_file("parties: 2\ndim: 2\nstate: ghz\nsettings: paper-maxent\n")
    with pytest.raises(ScenarioFileError):
        parse_scenario_file("parties: 3\ndim: 3\nstate: product\nsettings: zero\n")


def _outcome(text):
    """What parse_scenario_file makes of text: its specs and arrays, or its error."""
    try:
        sf = parse_scenario_file(text)
    except ScenarioFileError as err:
        return str(err)
    return (sf.scenario, sf.state_spec, sf.settings_spec, sf.noise,
            sf.state.coeffs.tolist(), sf.settings.table.tolist())


VALID = [
    GHZ33,
    "parties: 2\ndim: 3\nstate: ghz\nsettings: zero\nnoise: 0.1\n",
    "parties: 2\ndim: 2\nstate: [1, 0, 0, 1.5e-1]\n"
    "settings: [[[0, '1/2 pi'], [0, 0]], [[0, 'pi'], [-0.0, .25]]]\n",
    "parties: 2\ndim: 3\nstate:\n  product:\n    - [1, 0, 0]\n    - [0, 1, 0]\n"
    "settings: zero\n",
]


def test_loader_choice_leaves_every_outcome(monkeypatch):
    texts = VALID + [text for text, _ in MALFORMED] + BAD_YAML
    with_libyaml = [_outcome(text) for text in texts]
    monkeypatch.delattr(yaml, "CSafeLoader", raising=False)
    assert [_outcome(text) for text in texts] == with_libyaml
    # every YAML syntax error carries the pure-Python loader's message
    for text in BAD_YAML + ["parties: [3\n"]:
        with pytest.raises(yaml.YAMLError) as err:
            yaml.load(text, Loader=yaml.SafeLoader)
        assert _outcome(text) == f"not valid YAML: {err.value}"

