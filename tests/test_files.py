"""Config loaders: one error rule for the scene, scenario and model
files. The CSV writer: the bytes the csv module writes."""

from __future__ import annotations

import csv
import math
import re

import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from crosswalk_sim.files import ConfigError, _outline, _write_csv, load_model_config, load_scenario, load_scene

LOADERS = {
    "scene": load_scene,
    "scenario": load_scenario,
    "model": load_model_config,
}

BAD_FILES = {
    "unknown-key": "magic_knob: 3\n",
    "non-mapping": "- 1.0\n- 2.0\n",
    "empty": "",
    "yaml-syntax": "road: [1, 2\n",
    "not-utf8": "name: caf\u00e9\n",  # written as latin-1
    # a scenario's scene names the directory the file is in
    "directory-reference": "scene: .\n",
}


@pytest.mark.parametrize("case", BAD_FILES)
@pytest.mark.parametrize("what", LOADERS)
def test_bad_config_names_the_file(tmp_path, what, case):
    dest = tmp_path / f"{what}.yaml"
    dest.write_text(BAD_FILES[case], encoding="latin-1")
    with pytest.raises(ValueError, match=re.escape(str(dest))):
        LOADERS[what](dest)


def test_yaml_syntax_error_is_one_line_with_its_place(tmp_path):
    # yaml's own message spans several lines; all three loaders read
    # through files._read, whose message is one line
    dest = tmp_path / "scene.yaml"
    dest.write_text("a: 1\nb: c: d\n")
    refused = re.escape(f"{dest}: not valid YAML: mapping values are not allowed here at line 2, column 5")
    with pytest.raises(ValueError, match=f"^{refused}$"):
        load_scene(dest)


# A key given twice in one mapping, of which yaml.safe_load would keep the
# last: at the top of a scenario, inside a scene's obstacle and in the model
# file. The message names the key and the place of its second copy.
REPEATED_KEYS = [
    ("scenario", "scene: {scene}\npolicy: oracle\npolicy: pomdp\n", "'policy' at line 3, column 1"),
    (
        "scene",
        "obstacles:\n  - center: [20.0, 0.0]\n    size: [4.0, 2.0]\n    center: [30.0, 0.0]\n",
        "'center' at line 4, column 5",
    ),
    ("model", "discount: 0.9\ndiscount: 0.95\n", "'discount' at line 2, column 1"),
]


@pytest.mark.parametrize("what, text, place", REPEATED_KEYS, ids=[w for w, _, _ in REPEATED_KEYS])
def test_repeated_key_names_the_file_key_and_line(tmp_path, repo_root, what, text, place):
    dest = tmp_path / f"{what}.yaml"
    dest.write_text(text.format(scene=repo_root / "configs" / "scene_exposed.yaml"))
    refused = re.escape(f"{dest}: not valid YAML: duplicate key {place}")
    with pytest.raises(ValueError, match=f"^{refused}$"):
        LOADERS[what](dest)


def test_merge_key_may_override_what_it_brings_in(tmp_path):
    # a YAML merge (<<) brings in an anchored mapping's keys, and the
    # mapping's own keys override them: no key is given twice
    dest = tmp_path / "scene.yaml"
    dest.write_text(
        "obstacles:\n  - &box\n    center: [20.0, 0.0]\n    size: [4.0, 2.0]\n  - <<: *box\n    center: [30.0, 0.0]\n"
    )
    first, second = load_scene(dest).obstacles
    assert (first.center, second.center) == ((20.0, 0.0), (30.0, 0.0))
    assert second.size == first.size == (4.0, 2.0)


# A value under each loader that does not convert to its field's type, and
# the key it sits under; {scene} stands for a shipped scene file.
BAD_VALUES = [
    ("scene", "road:\n  heading: north\n", "heading"),
    ("scene", "obstacles:\n  - center: 5\n    size: [1.0, 1.0]\n", "center"),
    ("scenario", "scene: {scene}\nduration: fast\n", "duration"),
    ("model", "discount: high\n", "discount"),
]

# Values that Python's own conversion would take but the field's type does
# not: a string for a bool (bool("false") is True), and a YAML boolean for
# a number (float(True) is 1.0).
STRICT_VALUES = [
    ("scene", "pedestrian:\n  present: 'false'\n  position: [40.0, 1.0]\n", "present"),
    ("scenario", "scene: {scene}\nduration: true\n", "duration"),
    ("model", "discount: true\n", "discount"),
]


# Values that convert to the field's type but lie outside its range: every
# float must be finite (YAML reads 1e999 as a string that float() takes to
# inf), a scenario's duration positive and at most files.MAX_DURATION,
# an obstacle's extents and the crosswalk width positive and the discount
# in (0, 1). The validation names the field.
RANGE_VALUES = [
    ("scenario", "scene: {scene}\nduration: -5.0\n", "duration"),
    ("scenario", "scene: {scene}\nduration: .nan\n", "duration"),
    ("scenario", "scene: {scene}\nduration: .inf\n", "duration"),
    ("scenario", "scene: {scene}\nduration: 0\n", "duration"),
    ("scenario", "scene: {scene}\nduration: 1.0e308\n", "duration"),
    ("scenario", "scene: {scene}\nduration: 1.0e306\n", "duration"),
    ("scene", "obstacles:\n  - center: [20.0, 0.0]\n    size: [0.0, 1.0]\n", "size"),
    ("scene", "obstacles:\n  - size: [4.0, 2.0]\n    center: [.nan, -1.5]\n", "center"),
    ("scene", "obstacles:\n  - center: [20.0, 0.0]\n    size: [.nan, 2.0]\n", "size"),
    ("scene", "obstacles:\n  - center: [20.0, 0.0]\n    size: [1e999, 2.0]\n", "size"),
    ("scene", "obstacles:\n  - center: [20.0, 0.0]\n    size: [4.0, 2.0]\n    yaw: -.inf\n", "yaw"),
    ("scene", "road:\n  heading: .nan\n", "heading"),
    ("scene", "crosswalk:\n  distance: .inf\n", "distance"),
    ("scene", "crosswalk:\n  width: -3.0\n", "width"),
    ("scene", "pedestrian:\n  position: [40.0, .nan]\n", "position"),
    ("model", "discount: 1.5\n", "discount"),
    ("model", "discount: .nan\n", "discount"),
]


@pytest.mark.parametrize(
    "what, text, key",
    BAD_VALUES + STRICT_VALUES + RANGE_VALUES,
    ids=[f"{w}-{k}" for w, _, k in BAD_VALUES]
    + [f"strict-{w}-{k}" for w, _, k in STRICT_VALUES]
    + [f"range-{w}-{k}-{t.split(': ')[-1].strip()}" for w, t, k in RANGE_VALUES],
)
def test_bad_value_names_the_file_and_key(tmp_path, repo_root, what, text, key):
    dest = tmp_path / f"{what}.yaml"
    dest.write_text(text.format(scene=repo_root / "configs" / "scene_exposed.yaml"))
    with pytest.raises(ValueError, match=re.escape(f"{dest}: bad value for key '{key}'")):
        LOADERS[what](dest)


def test_scenario_values_convert_to_their_types(tmp_path, repo_root):
    dest = tmp_path / "scenario.yaml"
    scene = repo_root / "configs" / "scene_exposed.yaml"
    dest.write_text(f"scene: {scene}\nduration: '15'\n")
    cfg = load_scenario(dest)
    assert cfg.duration == 15.0 and type(cfg.duration) is float


def test_model_values_convert_to_their_types(tmp_path):
    dest = tmp_path / "model.yaml"
    dest.write_text("discount: '0.9'\n")
    cfg = load_model_config(dest)
    assert cfg.discount == 0.9 and type(cfg.discount) is float


def test_scene_values_convert_to_their_types(tmp_path):
    dest = tmp_path / "scene.yaml"
    dest.write_text("road:\n  origin: [-2, '5']\npedestrian:\n  present: false\n")
    scene = load_scene(dest)
    assert scene.road.origin == (-2.0, 5.0) and scene.pedestrian.present is False
    assert all(type(b) is float for b in scene.road.origin)


# The road's cross-section is world.ROAD_BOUNDS and world.LANE_WIDTH for
# every scene, so a scene file that still sets it fails on the key.
@pytest.mark.parametrize(
    "text",
    ["road:\n  bounds: 5\n", "road:\n  bounds: [5.0, -2.0]\n", "road:\n  lane_width: -3.6\n"],
    ids=["bounds-5", "bounds-[5.0, -2.0]", "lane_width--3.6"],
)
def test_road_cross_section_keys_are_unknown(tmp_path, text):
    dest = tmp_path / "scene.yaml"
    dest.write_text(text)
    key = text.split()[1].rstrip(":")
    with pytest.raises(ValueError, match=re.escape(f"{dest}: unknown road key '{key}'")):
        load_scene(dest)


@pytest.mark.parametrize("what", LOADERS)
def test_missing_config_file(tmp_path, what):
    with pytest.raises(FileNotFoundError):
        LOADERS[what](tmp_path / "absent.yaml")


@pytest.mark.parametrize(
    "text, refused",
    [
        ("scene: absent.yaml\npolcy: oracle\n", "unknown scenario key 'polcy'"),
        ("model: absent.yaml\npolicy: pomdp\n", "missing scenario key 'scene'"),
    ],
    ids=["unknown", "missing"],
)
def test_scenario_keys_are_checked_before_its_files_open(tmp_path, text, refused):
    # the file the scenario names does not exist, yet the scenario's own
    # key fails first, naming the scenario file
    dest = tmp_path / "scenario.yaml"
    dest.write_text(text)
    with pytest.raises(ConfigError, match=f"^{re.escape(f'{dest}: {refused}')}$"):
        load_scenario(dest)


def test_infeasible_pomdp_scene_names_the_scenario_file(tmp_path):
    # an occluder reaching 3.0 m left of the lane centre leaves no room to
    # swing around it inside the 5.4 m road edge, and a pomdp scenario
    # derives its model geometry from that path on load
    (tmp_path / "scene.yaml").write_text("obstacles:\n  - center: [33.0, 1.0]\n    size: [6.0, 4.0]\n")
    dest = tmp_path / "scenario.yaml"
    dest.write_text("scene: scene.yaml\npolicy: pomdp\n")
    with pytest.raises(ValueError, match=re.escape(f"{dest}: needed lateral offset")):
        load_scenario(dest)


def scenario_over_moved_crosswalk(tmp_path, repo_root, policy, distance):
    """A scenario file over a copy of the hidden scene whose crosswalk line
    and pedestrian both stand at road x = distance."""
    scene = yaml.safe_load((repo_root / "configs" / "scene_hidden.yaml").read_text())
    scene["crosswalk"]["distance"] = distance
    scene["pedestrian"]["position"][0] = distance
    (tmp_path / "scene.yaml").write_text(yaml.safe_dump(scene))
    dest = tmp_path / "scenario.yaml"
    dest.write_text(f"scene: scene.yaml\npolicy: {policy}\n")
    return dest


# the message refusing a crosswalk line at road x: the path runs along
# road x 0-59.81 m, and a run ends 0.5 m short of its 60 m end
OFF_PATH = "is off the path, which reaches x in (0.00, 59.81] m"
PAST_RUN_END = "lies {:.2f} m along the path, past the 59.50 m at which a run ends"
REFUSED_CROSSWALKS = {
    65.0: OFF_PATH,  # beyond the path's end, once read as its end
    0.0: OFF_PATH,  # at or behind its start, once read as 0.0
    -3.0: OFF_PATH,
    59.4: PAST_RUN_END.format(59.59),  # no run reaches it
    59.7: PAST_RUN_END.format(59.89),  # and in the model's terminal bin
}


@pytest.mark.parametrize("policy", ["oracle", "baseline", "pomdp"])
@pytest.mark.parametrize("distance", list(REFUSED_CROSSWALKS))
def test_scene_with_crosswalk_off_the_path_names_the_scenario_file(tmp_path, repo_root, policy, distance):
    dest = scenario_over_moved_crosswalk(tmp_path, repo_root, policy, distance)
    refused = f"{dest}: crosswalk distance {distance:g} m {REFUSED_CROSSWALKS[distance]}"
    with pytest.raises(ValueError, match=re.escape(refused)):
        load_scenario(dest)


@pytest.mark.parametrize("policy", ["oracle", "baseline", "pomdp"])
def test_crosswalk_short_of_the_run_end_loads(tmp_path, repo_root, policy):
    # at x = 59.3 m the line lies 59.49 m along the path, in distance bin
    # 118, which holds [59.0, 59.5) m as it does for the car
    config = load_scenario(scenario_over_moved_crosswalk(tmp_path, repo_root, policy, 59.3))
    assert config.policy == policy
    if policy == "pomdp":
        assert config.model_config.crosswalk_bin == 118


@pytest.mark.parametrize("key", ["scene", "model"])
def test_unreadable_scenario_reference_names_the_key(tmp_path, repo_root, key):
    # a directory named as a scenario's scene or model is refused naming
    # the scenario file and the key; a missing one raises FileNotFoundError
    doc = {"scene": str(repo_root / "configs" / "scene_hidden.yaml"), "policy": "pomdp", key: "."}
    dest = tmp_path / "scenario.yaml"
    dest.write_text(yaml.safe_dump(doc))
    refused = f"{dest}: {key}: [Errno 21] Is a directory: {str(tmp_path)!r}"
    with pytest.raises(ConfigError, match=f"^{re.escape(refused)}$"):
        load_scenario(dest)
    doc[key] = "absent.yaml"
    dest.write_text(yaml.safe_dump(doc))
    with pytest.raises(FileNotFoundError):
        load_scenario(dest)


@pytest.mark.parametrize("key", ["scene", "model", "policy_file"])
def test_empty_scenario_reference_names_the_key(tmp_path, repo_root, key):
    # policy_file is no longer a scenario key: left empty, it fails as unknown
    kind = "unknown" if key == "policy_file" else "empty"
    doc = {"scene": str(repo_root / "configs" / "scene_exposed.yaml"), key: None}
    dest = tmp_path / "scenario.yaml"
    dest.write_text(yaml.safe_dump(doc))
    with pytest.raises(ValueError, match=re.escape(f"{dest}: {kind} scenario key '{key}'")):
        load_scenario(dest)


# --- CSV writer -------------------------------------------------------------


def reference_csv(dest, header, rows, comments=()):
    """The writer as first written: csv.writer, each float as f"{v:.17g}"."""
    with open(dest, "w", encoding="utf-8", newline="") as fh:
        for line in comments:
            fh.write(f"# {line}\n")
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows([v if isinstance(v, str) else f"{v:.17g}" for v in row] for row in rows)


def assert_same_bytes(tmp_path, header, rows, comments=()):
    rows = list(rows)
    _write_csv(tmp_path / "got.csv", header, iter(rows), comments)
    reference_csv(tmp_path / "want.csv", header, rows, comments)
    assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()


SPECIAL = (math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, -5e-324, 1e22, 1e-7, 0.1, 1 / 3, 2.0**53 + 2)


def test_csv_special_values_and_ints(tmp_path):
    rows = [(v, -v, 7) for v in SPECIAL] + [(3, -12, 2**60 + 1)]
    assert_same_bytes(tmp_path, ("a", "b", "n"), rows, ["termination: duration", "seed: 0"])


def test_csv_scene_outline(tmp_path, hidden_scene, exposed_scene):
    for scene in (hidden_scene, exposed_scene):
        assert_same_bytes(tmp_path, ("kind", "north", "east"), _outline(scene))


def test_csv_zero_rows(tmp_path):
    assert_same_bytes(tmp_path, ("time", "ux"), [], ["termination: duration"])
    assert (tmp_path / "got.csv").read_bytes() == b"# termination: duration\ntime,ux\r\n"


@settings(max_examples=100, deadline=None)
@given(
    rows=st.lists(
        st.tuples(
            st.text(st.characters(categories=["L", "N"]) | st.sampled_from("_-. "), min_size=1, max_size=12),
            st.floats(allow_nan=True, allow_infinity=True),
            st.floats(allow_nan=True, allow_infinity=True, width=32),
            st.integers(-(2**70), 2**70),
        ),
        max_size=30,
    ),
    comments=st.lists(st.text(st.characters(exclude_categories=["Cs", "Cc", "Zl", "Zp"]), max_size=20), max_size=3),
)
def test_csv_matches_csv_module(tmp_path_factory, rows, comments):
    assert_same_bytes(tmp_path_factory.mktemp("csv"), ("kind", "x", "y", "n"), rows, comments)
