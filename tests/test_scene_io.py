import hashlib
import json
from fractions import Fraction

import pytest

from conconic import (
    load_scene,
    report_from_dict,
    report_to_dict,
    report_to_json,
    scene_from_dict,
    scene_instance,
    scene_to_dict,
    verify_scene,
)
from conconic.scene import SceneError, decode_value

ISOGONAL_SCENE = {
    "triangle": [["0", "0"], ["4", "0"], ["0", "3"]],
    "mode": "rational",
    "feet": {"generator": "isogonal", "params": ["1/2", "1/2", "1/2"]},
}

EXPLICIT_SCENE = {
    "triangle": [["0", "0"], ["4", "0"], ["0", "3"]],
    "feet": {"params": ["1/3", "2/5", "3/7", "1/2", "1/2", "1/2"]},
}

FLOAT_ISOTOMIC_SCENE = {
    "triangle": [[0.0, 0.0], [4.0, 0.0], [0.0, 3.0]],
    "mode": "float",
    "feet": {"generator": "isotomic", "params": [0.3, 0.45, 0.61]},
}

THROUGH_SCENE = {
    "triangle": [["0", "0"], ["4", "0"], ["0", "3"]],
    "feet": {"generator": "through_points", "points": [["1", "1/2"], ["3/2", "1"]]},
}


def test_scene_round_trip():
    scene = scene_from_dict(ISOGONAL_SCENE)
    assert scene_from_dict(scene_to_dict(scene)) == scene


def test_scene_defaults():
    scene = scene_from_dict(EXPLICIT_SCENE)
    assert scene.mode == "rational"
    assert scene.exact
    assert scene.epsilon == 1e-9


def test_scene_parses_decimal_strings_exactly():
    scene = scene_from_dict(
        {
            "triangle": [["0", "0"], ["4", "0"], ["0", "3"]],
            "feet": {"params": ["0.25", "0.5", "0.75", "1/3", "2/3", "0.1"]},
        }
    )
    kind, params = scene.feet
    assert kind == "params"
    assert params[0] == Fraction(1, 4)
    assert params[5] == Fraction(1, 10)


def test_scene_validation_errors():
    cases = [
        ({}, "triangle"),
        ({"triangle": [["0", "0"]], "feet": {"params": ["1/2"] * 6}}, "three vertices"),
        ({"triangle": ISOGONAL_SCENE["triangle"], "feet": {}}, "params or a generator"),
        ({"triangle": ISOGONAL_SCENE["triangle"], "feet": {"params": ["1/2"] * 5}}, "six side"),
        ({"triangle": ISOGONAL_SCENE["triangle"], "feet": {"generator": "dual"}}, "generator"),
        ({"triangle": ISOGONAL_SCENE["triangle"], "feet": {"params": ["1/2"] * 6}, "mode": "auto"}, "mode"),
        ({"triangle": ISOGONAL_SCENE["triangle"], "feet": {"params": ["1/2"] * 6}, "extra": 1}, "unknown"),
        ({"triangle": [[0.5, "0"], ["4", "0"], ["0", "3"]], "feet": {"params": ["1/2"] * 6}}, "rational mode"),
        ({"triangle": ISOGONAL_SCENE["triangle"], "feet": {"params": ["1/2"] * 6}, "epsilon": -1}, "positive"),
        ({"triangle": ISOGONAL_SCENE["triangle"], "feet": {"params": ["1/2"] * 6}, "epsilon": "nan"}, "epsilon"),
        ({"triangle": ISOGONAL_SCENE["triangle"], "feet": {"params": ["1/2"] * 6}, "epsilon": "abc"}, "epsilon"),
        ({"triangle": ISOGONAL_SCENE["triangle"], "feet": {"params": ["1/2"] * 6}, "epsilon": "inf"}, "epsilon"),
        ({"triangle": ISOGONAL_SCENE["triangle"], "feet": {"params": ["1/2"] * 6}, "epsilon": 1}, "epsilon"),
        ({"triangle": ISOGONAL_SCENE["triangle"], "feet": {"params": ["1/2"] * 6}, "closure_tol": 1e-7}, "unknown"),
        ({"triangle": [["0", "0"], ["1e400", "0"], ["0", "3"]], "feet": {"params": ["1/2"] * 6}, "mode": "float"},
         "'1e400'"),
        # an out-of-range or unparsable value names its field, and a long
        # one is shortened (the length bound below) with its length stated
        ({"triangle": [[0, 0], [10**400, 0], [0, 3]], "feet": {"params": ["1/2"] * 6}, "mode": "float"},
         "vertex 1: 10000000000000000000...000000 (401 characters) is too large for a float"),
        ({"triangle": ISOGONAL_SCENE["triangle"], "feet": {"params": ["1/2"] * 6}, "epsilon": 10**400},
         "epsilon must be a finite positive number below 1, got 10000000000000000000...000000 (401 characters)"),
        # str() of an int past 4,300 digits raises: its sign and size stand in
        ({"triangle": [[0, 0], [10**5000, 0], [0, 3]], "feet": {"params": ["1/2"] * 6}, "mode": "float"},
         "vertex 1: an integer of about 5001 digits is too large for a float"),
        ({"triangle": ISOGONAL_SCENE["triangle"], "feet": {"params": ["1/2"] * 6}, "epsilon": -(10**5000)},
         "epsilon must be a finite positive number below 1, got a negative integer of about 5001 digits"),
        ({"triangle": [["0", "0"], ["1e999", "0"], ["0", "3"]], "feet": {"params": ["1/2"] * 6}, "mode": "float"},
         "vertex 1: '1e999' is too large for a float"),
        ({"triangle": ISOGONAL_SCENE["triangle"], "feet": {"params": ["1/2", "1/2", "1/2", "x", "1/2", "1/2"]}},
         "feet params[3]: cannot parse 'x' as a number"),
        ({"triangle": ISOGONAL_SCENE["triangle"], "feet": {"generator": "isotomic", "params": ["1/2", "1/3", "/"]}},
         "feet params[2]: cannot parse '/' as a number"),
        ({"triangle": ISOGONAL_SCENE["triangle"],
          "feet": {"generator": "through_points", "points": [["1", "1e999"], ["1/2", "1"]]}, "mode": "float"},
         "generator point 0: '1e999' is too large for a float"),
        ({"triangle": ISOGONAL_SCENE["triangle"],
          "feet": {"generator": "through_points", "points": [["1", "1"], [True, "1"]]}},
         "generator point 1: expected a number, got True"),
        ({"triangle": ISOGONAL_SCENE["triangle"], "feet": {"params": ["1/2"] * 5 + ["7" * 60 + "x"]}},
         "feet params[5]: cannot parse '7777777777777777777...7777x' (61 characters) as a number"),
        # JSON reads 1e400 as inf; NaN and Infinity are literals it accepts
        ({"triangle": [[0.0, 0.0], [json.loads("1e400"), 0.0], [0.0, 3.0]], "feet": {"params": [0.5] * 6},
          "mode": "float"}, "expected a finite number, got the float inf"),
        ({"triangle": [[0.0, 0.0], [4.0, json.loads("NaN")], [0.0, 3.0]], "feet": {"params": [0.5] * 6},
          "mode": "float"}, "got the float nan"),
        ({"triangle": [[0.0, 0.0], [4.0, 0.0], [json.loads("-Infinity"), 3.0]], "feet": {"params": [0.5] * 6},
          "mode": "float"}, "got the float -inf"),
        # a string is not a list of parameters, even when its length fits
        ({"triangle": ISOGONAL_SCENE["triangle"], "feet": {"params": "234567"}}, "six side"),
        ({"triangle": ISOGONAL_SCENE["triangle"], "feet": {"generator": "isogonal", "params": "234"}},
         "isogonal needs exactly three side parameters"),
        # a feet object carries only the fields its kind reads
        ({"triangle": ISOGONAL_SCENE["triangle"], "feet": {"params": ["1/2"] * 6, "generatr": "isogonal"}},
         "unknown feet fields for params: ['generatr']"),
        ({"triangle": ISOGONAL_SCENE["triangle"],
          "feet": {"generator": "through_points", "points": [["1", "1"], ["1/2", "1"]], "params": ["x"]}},
         "unknown feet fields for through_points: ['params']"),
        ({"triangle": ISOGONAL_SCENE["triangle"],
          "feet": {"generator": "isotomic", "params": ["1/2"] * 3, "points": [], "weights": []}},
         "unknown feet fields for isotomic: ['points', 'weights']"),
    ]
    for data, needle in cases:
        with pytest.raises(SceneError) as exc:
            scene_from_dict(data)
        assert needle in str(exc.value)
        assert len(str(exc.value)) < 120


def test_a_coordinate_past_the_digit_limit_names_its_field_and_the_limit(tmp_path):
    # a decimal form past the limit is refused; an integer one is read
    # (the next test)
    from conconic import cli

    data = {"triangle": [["0", "0"], ["1." + "0" * 5000, "0"], ["0", "3"]], "feet": {"params": ["1/2"] * 6}}
    for mode in ("rational", "float"):
        with pytest.raises(SceneError) as exc:
            scene_from_dict(dict(data, mode=mode))
        assert str(exc.value) == ("vertex 1: '1.00000000000000000...00000' (5002 characters) "
                                  "has more digits than the interpreter converts (4,300)")
    path = tmp_path / "long.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    assert cli.main(["verify", str(path)]) == 1


def test_an_integer_coordinate_past_the_digit_limit_is_read_exactly(tmp_path, capsys):
    from conconic import cli

    data = {"triangle": [["0", "0"], ["1" + "0" * 5000, "0"], ["0", "3"]], "feet": {"params": ["1/2"] * 6}}
    assert scene_from_dict(data).triangle[1][0] == 10**5000
    with pytest.raises(SceneError) as exc:
        scene_from_dict(dict(data, mode="float"))
    assert str(exc.value) == "vertex 1: '1000000000000000000...00000' (5001 characters) is too large for a float"
    path = tmp_path / "long.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    assert cli.main(["verify", str(path)]) in (0, 2)
    assert capsys.readouterr().err == ""


def test_rational_mode_keeps_out_of_float_range_values_exact():
    scene = scene_from_dict({"triangle": [["0", "0"], ["1e400", "0"], ["0", "3"]], "feet": {"params": ["1/2"] * 6}})
    assert scene.triangle[1][0] == 10**400


def test_scene_instance_materializes_feet():
    tri, feet = scene_instance(scene_from_dict(EXPLICIT_SCENE))
    from conconic import HPoint

    # a1 at t=1/3 on BC: B + (C - B)/3 = (8/3, 1)
    assert feet.A1 == HPoint(Fraction(8, 3), 1, 1)
    # medians in the second triple
    assert feet.A2 == HPoint(2, Fraction(3, 2), 1)


def test_verify_report_shape_and_chart():
    report = verify_scene(scene_from_dict(ISOGONAL_SCENE))
    assert [name for name, _ in report.conditions.named] == ["outer6", "inner6", "tangent6", "concurrent"]
    assert report.conditions.agree and report.conditions.all_hold
    assert report.conditions.outer6.residual == 0
    assert report.chart.b1 == Fraction(25, 16)
    assert report.chart.c2 == Fraction(9, 25)
    assert report.chart.p == report.chart.q == Fraction(9, 16)
    assert report.conditions.outer6.witness_conic is not None


def test_report_round_trip_rational():
    for scene_dict in (ISOGONAL_SCENE, EXPLICIT_SCENE, THROUGH_SCENE):
        report = verify_scene(scene_from_dict(scene_dict))
        wire = report_to_json(report)
        assert report_from_dict(json.loads(wire)) == report


def test_report_round_trip_float():
    report = verify_scene(scene_from_dict(FLOAT_ISOTOMIC_SCENE))
    assert report.conditions.all_hold
    wire = report_to_json(report)
    assert report_from_dict(json.loads(wire)) == report


# sha256 of report_to_json for fixed scenes on the 3-4-5 triangle (rational
# unless the entry overrides triangle and mode); any change to verdicts,
# residuals, witnesses, the chart or the wire format itself changes a digest
PINNED_REPORTS = {
    "b21f6e93e7fe62c6db7d3f77049e5903f6065687cec412d2f44ff31f4861511a": {
        "feet": {"params": ["3/5", "2/3", "1/3", "1/3", "1/2", "4/7"]}},
    "4c973796397dc226bf62b93d1aaf87d539a008f054e3d642192bd821bdd186ce": {
        "feet": {"params": ["3/5", "2/3", "1/3", "1/3", "1/2", "3/5"]}},
    "d8614230d84b432a5d0a5ac01cfb30ee71f8f9cee9b08b91f2ebc87d77408e8e": {
        "feet": {"generator": "isogonal", "params": ["1/3", "2/5", "1/2"]}},
    "2b76ced13227587d8846b77f0b7aaa64d77c3e7477ff54f38ad4973fdf185932": {
        "feet": {"generator": "isotomic", "params": ["1/3", "2/5", "1/2"]}},
    "18a956dd1ccf9a6b5c3459ccc7e79550d5730ffbb8640f9714cb1c1bb913e621": {
        "feet": {"generator": "through_points", "points": [["1", "1/2"], ["3/2", "1"]]}},
    "590c3386cb50c97d4b4b47679d1329ac30f0fc6cc1d47105db2e59d243643638": FLOAT_ISOTOMIC_SCENE,
    "08e27075a6f1fc68cf714f2d1b66ec95cba94cb0be36e341869997cb605dc6af": {
        **FLOAT_ISOTOMIC_SCENE, "feet": {"generator": "isogonal", "params": [0.3, 0.45, 0.61]}},
}


def test_report_wire_format_is_pinned():
    for digest, scene in PINNED_REPORTS.items():
        report = verify_scene(scene_from_dict({"triangle": ISOGONAL_SCENE["triangle"], **scene}))
        assert hashlib.sha256(report_to_json(report).encode()).hexdigest() == digest, scene


def test_rational_values_travel_as_strings():
    report = verify_scene(scene_from_dict(ISOGONAL_SCENE))
    data = report_to_dict(report)
    assert data["chart"]["b1"] == "25/16"
    assert data["verdicts"]["outer6"]["residual"] == "0"
    assert all(isinstance(v, str) for v in data["witnesses"]["outer6"])


def _load_undecodable_bytes(tmp_path):
    path = tmp_path / "scene.json"
    path.write_bytes(b"\xff{}")
    return load_scene(str(path))


def _scene_with(**fields):
    return scene_from_dict({"triangle": ISOGONAL_SCENE["triangle"], "feet": {"params": ["1/2"] * 6}, **fields})


@pytest.mark.parametrize("call, message", [
    (lambda tmp: decode_value([1], True), "expected a number or string, got list"),
    (lambda tmp: report_from_dict({"mode": "exact"}), "mode must be one of ('rational', 'float'), got 'exact'"),
    (_load_undecodable_bytes,
     "{tmp}/scene.json: 'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"),
    (lambda tmp: scene_from_dict([ISOGONAL_SCENE]), "a scene must be a JSON object"),
    (lambda tmp: _scene_with(feet=[["1/2"] * 6]), "feet must be an object with params or a generator"),
    (lambda tmp: _scene_with(feet={"generator": "through_points", "points": [["1", "1"]]}),
     "through_points needs exactly two points"),
    (lambda tmp: _scene_with(triangle=[["0", "0"], "40", ["0", "3"]]), "vertex 1 must be a pair of coordinates"),
], ids=["list-value", "report-mode", "undecodable-bytes", "scene-not-an-object", "feet-not-an-object",
        "one-through-point", "vertex-not-a-pair"])
def test_scene_input_checks_name_the_problem(call, message, tmp_path):
    with pytest.raises(SceneError) as err:
        call(tmp_path)
    assert str(err.value) == message.format(tmp=tmp_path)


@pytest.mark.parametrize("key", ["agree", "all_hold", "criterion"])
def test_report_from_dict_rejects_contradicting_derived_values(key):
    data = report_to_dict(verify_scene(scene_from_dict(ISOGONAL_SCENE)))
    holder = data["chart"] if key == "criterion" else data
    holder[key] = not holder[key]
    with pytest.raises(SceneError, match=key):
        report_from_dict(data)


@pytest.mark.parametrize("data, missing", [
    ({"mode": "rational"}, "'witnesses'"),
    ({"mode": "rational", "witnesses": {}, "verdicts": {}}, "'witnesses.outer6'"),
    ({}, "'mode'"),
])
def test_report_from_dict_names_a_missing_field(data, missing):
    with pytest.raises(SceneError, match=missing):
        report_from_dict(data)


@pytest.mark.parametrize("path", [("chart",), ("provenance",), ("chart", "b1"), ("verdicts", "concurrent", "holds")])
def test_report_from_dict_names_a_missing_nested_field(path):
    data = report_to_dict(verify_scene(scene_from_dict(ISOGONAL_SCENE)))
    holder = data
    for key in path[:-1]:
        holder = holder[key]
    del holder[path[-1]]
    with pytest.raises(SceneError, match=repr(".".join(path))):
        report_from_dict(data)


def test_median_second_triple_scene_disagrees():
    report = verify_scene(scene_from_dict(EXPLICIT_SCENE))
    # the second triple is the median triple, whose cevians concur: the
    # derived points collapse and the six-derived-point determinant
    # vanishes trivially while the other three conditions fail
    assert [rec.holds for _, rec in report.conditions.named] == [False, True, False, False]
    assert not report.conditions.agree


def test_load_scene_from_file(tmp_path):
    path = tmp_path / "scene.json"
    path.write_text(json.dumps(ISOGONAL_SCENE))
    scene = load_scene(str(path))
    assert scene.feet[0] == "isogonal"
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(SceneError):
        load_scene(str(bad))
