import argparse
import hashlib
import json
import math
import random
import sys
from fractions import Fraction

import pytest

import conconic.scene as scene
from conconic import Conic, ProofChart, load_scene, report_from_dict, verify_scene
from conconic.cli import build_parser, main
from conconic.errors import ChartDegenerate

ISOGONAL_SCENE = """
{
  "triangle": [["0","0"], ["4","0"], ["0","3"]],
  "mode": "rational",
  "feet": {"generator": "isogonal", "params": ["1/2", "1/2", "1/2"]}
}
"""

MIXED_SCENE = """
{
  "triangle": [["0","0"], ["4","0"], ["0","3"]],
  "feet": {"params": ["1/3", "2/5", "3/7", "1/2", "1/2", "1/2"]}
}
"""


@pytest.fixture
def scene_file(tmp_path):
    def write(content, name="scene.json"):
        path = tmp_path / name
        path.write_text(content)
        return str(path)

    return write


def test_verify_agreeing_scene_exits_zero(scene_file, capsys):
    code = main(["verify", scene_file(ISOGONAL_SCENE)])
    out = capsys.readouterr().out
    assert code == 0
    assert "outer6" in out and "holds" in out
    assert "p = q" in out


def test_verify_disagreeing_scene_exits_two(scene_file, capsys):
    code = main(["verify", scene_file(MIXED_SCENE)])
    out = capsys.readouterr().out
    assert code == 2
    assert "disagree" in out


def test_verify_json_report(scene_file, capsys):
    code = main(["verify", scene_file(ISOGONAL_SCENE), "--json"])
    data = json.loads(capsys.readouterr().out)
    assert code == 0
    assert data["agree"] is True
    assert data["chart"]["p"] == "9/16"
    assert list(data["verdicts"]) == sorted(data["verdicts"])


def _no_chart_frame(cfg, eps):
    raise ChartDegenerate("chart frame cannot be built")


def _p_at_infinity(cfg, eps):
    return ProofChart(b1=Fraction(1, 2), c2=Fraction(1, 3), p=None, q=Fraction(2, 3), eps=eps)


# to_chart stand-in -> (wire chart object, text chart line)
DEGENERATE_CHARTS = {
    "no_frame": (
        _no_chart_frame,
        {"degenerate": True, "b1": None, "c2": None, "p": None, "q": None, "criterion": None},
        "chart       degenerate (frame could not be built)",
    ),
    "p_at_infinity": (
        _p_at_infinity,
        {"degenerate": True, "b1": "1/2", "c2": "1/3", "p": None, "q": "2/3", "criterion": None},
        "chart       b1=1/2 c2=1/3 p=infinite q=2/3  criterion: undefined",
    ),
}


@pytest.mark.parametrize("case", sorted(DEGENERATE_CHARTS))
def test_verify_reports_a_degenerate_chart(case, monkeypatch, scene_file, capsys):
    fake, wire, line = DEGENERATE_CHARTS[case]
    monkeypatch.setattr(scene, "to_chart", fake)
    path = scene_file(ISOGONAL_SCENE)
    assert main(["verify", path]) == 0
    assert line in capsys.readouterr().out.splitlines()
    assert main(["verify", path, "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["chart"] == wire
    assert report_from_dict(data) == verify_scene(load_scene(path))


def test_verify_missing_file_exits_one(capsys):
    code = main(["verify", "/nonexistent/scene.json"])
    assert code == 1
    assert "error" in capsys.readouterr().err


def test_verify_invalid_scene_exits_one(scene_file, capsys):
    code = main(["verify", scene_file('{"triangle": []}')])
    assert code == 1
    assert "error" in capsys.readouterr().err


FOOT_AT_VERTEX_SCENE = """
{
  "triangle": [["0","0"], ["4","0"], ["0","3"]],
  "feet": {"params": ["0", "2/5", "3/7", "1/2", "1/2", "1/2"]}
}
"""


@pytest.mark.parametrize("flags", [[], ["--mode", "float"], ["--json"]])
def test_verify_foot_at_a_vertex_exits_one(scene_file, capsys, flags):
    code = main(["verify", scene_file(FOOT_AT_VERTEX_SCENE), *flags])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err == "error: FootOffSide: foot A1 coincides with vertex B\n"


@pytest.mark.parametrize("feet, index", [
    ({"params": [0.3, 1e308, 0.5, 0.25, 0.4, 0.2]}, 1),
    ({"params": [0.3, 0.2, 0.5, 0.25, -1e308, 0.2]}, 4),
    ({"generator": "isogonal", "params": [0.3, 1e308, 0.5]}, 1),
], ids=["params", "second-triple", "isogonal"])
def test_verify_names_a_foot_past_float_range(feet, index, scene_file, capsys):
    data = {"mode": "float", "triangle": [[0, 0], [4, 0], [1, 3]], "feet": feet}
    assert _verify_run(scene_file, data, "scene.json", [], capsys) == (
        1, "", f"error: feet params[{index}]: non-finite homogeneous coordinate\n")


def test_verify_float_mode_override(scene_file, capsys):
    code = main(["verify", scene_file(ISOGONAL_SCENE), "--mode", "float", "--json"])
    data = json.loads(capsys.readouterr().out)
    assert code == 0
    assert data["mode"] == "float"
    assert isinstance(data["verdicts"]["outer6"]["residual"], float)


def _verify_run(scene_file, data, name, flags, capsys):
    """(exit code, stdout, stderr) of ``verify`` on the scene ``data``."""
    code = main(["verify", scene_file(json.dumps(data), name), *flags])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("flags", [[], ["--json"]])
@pytest.mark.parametrize("text", [ISOGONAL_SCENE, MIXED_SCENE], ids=["agreeing", "disagreeing"])
def test_rational_override_of_a_float_scene_of_exact_strings(text, flags, scene_file, capsys):
    # the override is merged before the file's values are decoded, so the
    # exact strings of a float-mode file are read exactly
    data = {**json.loads(text), "mode": "rational"}
    expected = _verify_run(scene_file, data, "rational.json", flags, capsys)
    assert expected[0] in (0, 2) and expected[2] == ""
    got = _verify_run(scene_file, {**data, "mode": "float"}, "float.json", ["--mode", "rational", *flags], capsys)
    assert got == expected


@pytest.mark.parametrize("flags", [[], ["--json"]])
def test_float_override_of_a_rational_scene_of_json_floats(flags, scene_file, capsys):
    data = {"triangle": [[0.0, 0.0], [4.0, 0.0], [0.0, 3.0]],
            "feet": {"generator": "isogonal", "params": [0.5, 0.5, 0.5]}}
    expected = _verify_run(scene_file, {**data, "mode": "float"}, "float.json", flags, capsys)
    assert expected[0] == 0 and expected[2] == ""
    got = _verify_run(scene_file, {**data, "mode": "rational"}, "rational.json", ["--mode", "float", *flags], capsys)
    assert got == expected


def test_mode_override_of_a_scene_that_is_not_an_object_exits_one(scene_file, capsys):
    assert main(["verify", scene_file("[1, 2]"), "--mode", "float"]) == 1
    assert capsys.readouterr().err == "error: a scene must be a JSON object\n"


def test_verify_svg_is_deterministic(scene_file, tmp_path):
    scene = scene_file(ISOGONAL_SCENE)
    svg1 = tmp_path / "a.svg"
    svg2 = tmp_path / "b.svg"
    assert main(["verify", scene, "--svg", str(svg1)]) == 0
    assert main(["verify", scene, "--svg", str(svg2)]) == 0
    assert svg1.read_bytes() == svg2.read_bytes()
    assert svg1.read_text().startswith("<?xml")


def test_verify_svg_bytes_are_pinned(tmp_path):
    scene = tmp_path / "scene.json"
    scene.write_text(json.dumps({
        "triangle": [["0", "0"], ["4", "0"], ["0", "3"]],
        "feet": {"generator": "isogonal", "params": ["1/3", "2/5", "1/2"]},
    }))
    svg = tmp_path / "out.svg"
    assert main(["verify", str(scene), "--svg", str(svg)]) == 0
    digest = hashlib.sha256(svg.read_bytes()).hexdigest()
    assert digest == "052b2c327ff88747137f9641ecc274b6722a1d25067dd0b84d89999a99f28cf9"


@pytest.mark.parametrize(
    "argv, needle",
    [
        (["morley", "--triangle", "0,0 4,0 0,3", "--epsilon", "abc"], "--epsilon"),
        (["morley", "--triangle", "0,0 4,0 0,3", "--epsilon", "nan"], "--epsilon"),
        (["poncelet", "--outer", "1,0,1,0,0,-4", "--inner", "1,0,1,0,0,-2.5",
          "--expected-n", "3", "--closure-tol", "inf"], "--closure-tol"),
        (["poncelet", "--outer", "1,0,1,0,0,-4", "--inner", "1,0,1,0,0,-1",
          "--start", "2,0", "--epsilon", "0"], "--epsilon"),
        (["verify", "scene.json", "--epsilon", "-1"], "--epsilon"),
        (["verify", "scene.json", "--closure-tol", "1e-7"], "--closure-tol"),
        (["morley", "--triangle", "0,0 1e400,0 0,1"], "1e400"),
        (["poncelet", "--outer", "1e400,0,1,0,0,-4", "--inner", "1,0,1,0,0,-1", "--start", "2,0"], "1e400"),
        (["morley", "--triangle", "0,0 4 0,3"], "error: vertex '4' is not an 'x,y' pair\n"),
        (["poncelet", "--outer", "1,0,1,0,0", "--inner", "1,0,1,0,0,-1", "--start", "2,0"],
         "error: a conic needs six coefficients (x^2, xy, y^2, xz, yz, z^2 order)\n"),
        (["poncelet", "--outer", "1,0,1,0,0,-4", "--inner", "1,0,1,0,0,-1", "--start", "1,2,3,4"],
         "error: point '1,2,3,4' must be 'x,y' or 'x,y,z'\n"),
        # the one route into main's ValueError handler
        (["poncelet", "--outer", "1,0,1,0,0,-4", "--inner", "1,0,1,0,0,-1",
          "--expected-n", "3", "--samples", "0"], "error: at least one sample is required\n"),
    ],
)
def test_bad_flags_exit_one_naming_the_flag(argv, needle, capsys):
    assert main(argv) == 1
    assert needle in capsys.readouterr().err


_CONICS = ["--outer", "1,0,1,0,0,-4", "--inner", "1,0,1,0,0,-1"]


@pytest.mark.parametrize("argv, message", [
    (["morley", "--triangle", "0,0 4,0"], "triangle must be three 'x,y' pairs separated by spaces"),
    (["morley", "--triangle", "0,0;4,0;0,3;1,1"], "triangle must be three 'x,y' pairs separated by spaces"),
    (["morley", "--triangle", "0,0 4,0,1 0,3"], "vertex '4,0,1' is not an 'x,y' pair"),
    # the count is read before the values, so a short vertex with a bad value names the count
    (["morley", "--triangle", "0,0 x 0,3"], "vertex 'x' is not an 'x,y' pair"),
    (["morley", "--triangle", "0,0 4,x 0,3"], "cannot parse 'x' as a number"),
    (["poncelet", "--outer", "1,0,1,0,0,-4,1", "--inner", "1,0,1,0,0,-1", "--start", "2,0"],
     "a conic needs six coefficients (x^2, xy, y^2, xz, yz, z^2 order)"),
    (["poncelet", "--outer", "1,2,x", "--inner", "1,0,1,0,0,-1", "--start", "2,0"],
     "a conic needs six coefficients (x^2, xy, y^2, xz, yz, z^2 order)"),
    (["poncelet", "--outer", "1,0,1,0,0,x", "--inner", "1,0,1,0,0,-1", "--start", "2,0"],
     "cannot parse 'x' as a number"),
    (["poncelet", *_CONICS, "--start", "2"], "point '2' must be 'x,y' or 'x,y,z'"),
    (["poncelet", *_CONICS, "--start", "x,0,1,1"], "point 'x,0,1,1' must be 'x,y' or 'x,y,z'"),
    (["poncelet", *_CONICS, "--start", "2,0,x"], "cannot parse 'x' as a number"),
], ids=["two-vertices", "four-vertices", "three-value-vertex", "one-value-vertex", "bad-vertex-value",
        "seven-coefficients", "count-before-values", "bad-coefficient", "one-value-point", "four-value-point",
        "bad-point-value"])
def test_each_coordinate_reader_message_is_one_error_line(argv, message, capsys):
    # every CLI coordinate is read by one rule: split on commas, check the
    # count, then decode each value in float mode
    assert main(argv) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


def _actions(parser):
    return [(a.option_strings, a.dest, a.default, getattr(a.type, "__name__", a.type), a.choices,
             a.required, a.metavar, a.help) for a in parser._actions]


_HELP = (["-h", "--help"], "help", argparse.SUPPRESS, None, None, False, None, "show this help message and exit")
_OUTPUT = {
    "configuration": [
        (["--svg"], "svg", None, None, None, False, "PATH", "write a drawing of the configuration"),
        (["--json"], "json", False, None, None, False, None, "emit the report as JSON"),
    ],
    "chain": [
        (["--svg"], "svg", None, None, None, False, "PATH", "write a drawing of the chain"),
        (["--json"], "json", False, None, None, False, None, "emit the report as JSON"),
    ],
}
_TOLERANCES = [
    (["--epsilon"], "epsilon", 1e-9, "_tolerance", None, False, None, None),
    (["--closure-tol"], "closure_tol", 1e-7, "_tolerance", None, False, None, None),
]
_SUBCOMMANDS = {
    "verify": ("check the four conditions on a scene file", "_cmd_verify", [
        _HELP,
        ([], "scene", None, None, None, True, None, "path to a scene JSON file"),
        (["--mode"], "mode", None, None, ("rational", "float"), False, None, "override the scene's arithmetic backend"),
        (["--epsilon"], "epsilon", None, "_tolerance", None, False, None, "float-mode tolerance for residual predicates"),
        *_OUTPUT["configuration"],
    ]),
    "morley": ("build and check a trisector configuration", "_cmd_morley", [
        _HELP,
        (["--triangle"], "triangle", None, None, None, True, None, "three vertices as 'x,y x,y x,y'"),
        (["--poncelet-samples"], "poncelet_samples", 0, "int", None, False, "N",
         "also check chain closure at n=3 from N sample points"),
        *_TOLERANCES,
        *_OUTPUT["configuration"],
    ]),
    "poncelet": ("trace tangent chains between two conics", "_cmd_poncelet", [
        _HELP,
        (["--outer"], "outer", None, None, None, True, "C", "outer conic, six comma-separated coefficients"),
        (["--inner"], "inner", None, None, None, True, "C", "inner conic, six comma-separated coefficients"),
        (["--start"], "start", None, None, None, False, "PT", "chain start 'x,y' on the outer conic"),
        (["--max-steps"], "max_steps", 100, "int", None, False, None, None),
        (["--expected-n"], "expected_n", None, "int", None, False, None,
         "porism mode: require closure at exactly this step"),
        (["--samples"], "samples", 20, "int", None, False, None, "porism mode: number of starting points"),
        *_TOLERANCES,
        *_OUTPUT["chain"],
    ]),
}


def test_each_subcommand_lists_its_options_in_order():
    # the parser's structure, which reads the same on every Python version
    # where the help text's layout may not
    parser = build_parser()
    (commands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    assert commands.dest == "command" and commands.required
    assert [(a.dest, a.help) for a in commands._choices_actions] == [
        (name, help_text) for name, (help_text, _, _) in _SUBCOMMANDS.items()]
    assert list(commands.choices) == list(_SUBCOMMANDS)
    for name, (_, func, actions) in _SUBCOMMANDS.items():
        sub = commands.choices[name]
        assert sub.get_default("func").__name__ == func
        assert _actions(sub) == actions, name


@pytest.mark.parametrize(
    "scene, flags, needle",
    [
        ({"mode": "float", "triangle": [["0", "0"], ["1e400", "0"], ["0", "3"]]}, [], "1e400"),
        ({"mode": "float", "triangle": [[0, 0], [10**400, 0], [0, 3]]}, [], str(10**400)),
        ({"triangle": [["0", "0"], ["1e400", "0"], ["0", "3"]]}, ["--mode", "float"], "1e400"),
        ({"triangle": [["0", "0"], ["4", "0"], ["0", "3"]], "epsilon": 10**400}, [], str(10**400)),
    ],
)
def test_out_of_float_range_scene_values_exit_one_naming_the_value(scene, flags, needle, tmp_path, capsys):
    # one short line that names the field and echoes the value as written;
    # a value past 40 characters is echoed as its head and its length
    path = tmp_path / "scene.json"
    path.write_text(json.dumps({**scene, "feet": {"params": ["1/2"] * 6}}))
    assert main(["verify", str(path), *flags]) == 1
    err = capsys.readouterr().err
    field = "epsilon" if "epsilon" in scene else "vertex 1"
    assert err.startswith(f"error: {field}") and err.count("\n") == 1 and len(err) < 120
    if len(needle) <= 40:
        assert needle in err
    else:
        assert needle[:19] in err and f"({len(needle)} characters)" in err


@pytest.mark.parametrize(
    "scene, needle",
    [
        ('{"mode": "float", "triangle": [[0, 0], [1e400, 0], [0, 3]], "feet": {"params": [0.5, 0.5, 0.5, 0.5, 0.5, 0.5]}}',
         "expected a finite number, got the float inf"),
        ('{"mode": "float", "triangle": [[0, 0], [4, 0], [0, 3]], "feet": {"params": [0.5, 0.5, 0.5, Infinity, 0.5, 0.5]}}',
         "expected a finite number, got the float inf"),
        ('{"triangle": [["0", "0"], ["4", "0"], ["0", "3"]], "feet": {"params": "234567"}}',
         "feet params must list exactly six side parameters"),
        ('{"triangle": [["0", "0"], ["4", "0"], ["0", "3"]], '
         '"feet": {"params": ["1/2", "1/2", "1/2", "1/2", "1/2", "1/2"], "generatr": "isogonal"}}',
         "unknown feet fields for params: ['generatr']"),
        ('{"triangle": [["0", "0"], ["4", "0"], ["0", "3"]], '
         '"feet": {"generator": "through_points", "points": [["1", "1"], ["1/2", "1"]], "params": ["x"]}}',
         "unknown feet fields for through_points: ['params']"),
    ],
)
def test_non_finite_or_string_scene_values_exit_one(scene, needle, scene_file, capsys):
    assert main(["verify", scene_file(scene)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and needle in err


@pytest.mark.parametrize(
    "literal",
    [
        pytest.param("1" + "0" * 5000, id="int-literal-past-the-digit-limit"),
        pytest.param("-" + "9" * 5000, id="negative-int-literal-past-the-digit-limit"),
    ],
)
def test_an_int_literal_past_the_digit_limit_is_read_exactly(literal, scene_file, capsys):
    # a JSON integer literal past 4,300 digits is read exactly, like the same
    # number written as a string
    path = scene_file('{"triangle": [[0, 0], [' + literal + ', 0], [0, 3]], "feet": {"params": ["1/2", "1/3", '
                      '"1/2", "2/3", "1/2", "1/4"]}}')
    value = load_scene(path).triangle[1][0]
    assert value == (10**5000 if literal[0] == "1" else 1 - 10**5000)
    assert main(["verify", path]) in (0, 2)
    assert capsys.readouterr().err == ""


def test_morley_command(capsys, tmp_path):
    svg = tmp_path / "morley.svg"
    code = main(
        ["morley", "--triangle", "0,0 4,0 0,3", "--poncelet-samples", "10",
         "--svg", str(svg), "--json"]
    )
    data = json.loads(capsys.readouterr().out)
    assert code == 0
    assert data["equilateral_relative_spread"] < 1e-10
    assert all(rec["holds"] for rec in data["verdicts"].values())
    assert data["porism"]["all_closed"] is True
    assert data["porism"]["steps"] == [3] * 10
    assert svg.exists()


def test_morley_text_prints_the_second_center_in_coordinate_order(capsys):
    triangle = ["morley", "--triangle", "0,0 4,0 1,3"]
    assert main(triangle) == 0
    text = capsys.readouterr().out
    assert main([*triangle, "--json"]) == 0
    x, y, z = json.loads(capsys.readouterr().out)["centers"]["second"]
    assert len({x, y, z}) == 3
    assert f"second trisector center: ({x:.6g} : {y:.6g} : {z:.6g})\n" in text


def test_main_reads_the_command_line_when_given_no_arguments(monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", ["conconic", "poncelet", "--outer", "1,0,1,0,0,-4",
                                      "--inner", "1,0,1,0,0,-1", "--expected-n", "3", "--samples", "4"])
    assert main() == 0
    assert capsys.readouterr().out.startswith("all chains closed at n=3 over 4 samples")


def test_morley_exits_two_when_the_chains_miss_a_tight_closure_tolerance(capsys):
    argv = ["morley", "--triangle", "0,0 4,0 0,3", "--poncelet-samples", "5", "--closure-tol", "1e-18", "--json"]
    code = main(argv)
    data = json.loads(capsys.readouterr().out)
    assert all(rec["holds"] for rec in data["verdicts"].values())
    assert data["porism"]["all_closed"] is False
    assert code == 2


def test_morley_json_is_pinned(capsys):
    argv = ["morley", "--triangle", "0,0 4,0 0,3", "--poncelet-samples", "25", "--json"]
    assert main(argv) == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digest == "79e0835bd20ca121be289f48a088c108f05ba98ac6647610e1fd88bcd436b33f"


def test_morley_builds_the_trisectors_once(monkeypatch, capsys):
    import conconic.morley as morley

    calls = []
    original = morley._trisectors_and_meets
    monkeypatch.setattr(morley, "_trisectors_and_meets", lambda tri: calls.append(tri) or original(tri))
    assert main(["morley", "--triangle", "0,0 4,0 0,3", "--json"]) == 0
    assert len(calls) == 1


def test_morley_svg_is_pinned(tmp_path):
    svg = tmp_path / "morley.svg"
    assert main(["morley", "--triangle", "0,0 4,0 0,3", "--svg", str(svg)]) == 0
    assert hashlib.sha256(svg.read_bytes()).hexdigest() == (
        "bcd8bdda6e6faa4448429802de8079aa41cfce387f0d548c13c47cb92acf0588"
    )


def test_poncelet_porism_json_and_svg_are_pinned(capsys, tmp_path):
    # concentric circles R = 2, r = 2 cos(pi/5): every chain closes at n = 5
    inner = f"1,0,1,0,0,{-(2.0 * math.cos(math.pi / 5)) ** 2!r}"
    svg = tmp_path / "chain.svg"
    argv = ["poncelet", "--outer", "1,0,1,0,0,-4", "--inner", inner,
            "--expected-n", "5", "--samples", "25", "--json", "--svg", str(svg)]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert json.loads(out)["steps"] == [5] * 25
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "78e60846e90c81cf298933d98a003606a4428e3141ed8c040b6b96aebf73eaeb"
    )
    assert hashlib.sha256(svg.read_bytes()).hexdigest() == (
        "473f7c17543e650c5bda672270dff03a7ff284e170b4db9574af6278b59432db"
    )


def test_verify_draws_line_pair_witness_at_epsilon_flag(scene_file, tmp_path, capsys):
    scene = scene_file(json.dumps({
        "triangle": [[0.0, 0.0], [4.0, 0.0], [0.0, 3.0]],
        "mode": "float",
        "feet": {"generator": "isotomic", "params": [0.5, 0.8, 0.6]},
    }))
    svg = tmp_path / "out.svg"
    assert main(["verify", scene, "--epsilon", "1e-3", "--json", "--svg", str(svg)]) == 0
    witness = Conic.from_coeffs(json.loads(capsys.readouterr().out)["witnesses"]["inner6"])
    assert witness.classify(1e-3) == "line_pair"
    assert svg.read_text().count("stroke-dasharray") == 2


def test_morley_rejects_bad_triangle(capsys):
    code = main(["morley", "--triangle", "0,0 1,1 2,2"])
    assert code == 1
    assert "error" in capsys.readouterr().err


def test_poncelet_single_chain(capsys):
    code = main(
        ["poncelet", "--outer", "1,0,1,0,0,-4", "--inner", "1,0,1,0,0,-1",
         "--start", "2,0", "--json"]
    )
    data = json.loads(capsys.readouterr().out)
    assert code == 0
    assert data["closure_step"] == 3
    assert data["gap"] <= 1e-9


def test_poncelet_porism_mode(capsys):
    code = main(
        ["poncelet", "--outer", "1,0,1,0,0,-4", "--inner", "1,0,1,0,0,-1",
         "--expected-n", "3", "--samples", "12", "--json"]
    )
    data = json.loads(capsys.readouterr().out)
    assert code == 0
    assert data["all_closed"] is True


def test_poncelet_open_chain_exits_two(capsys):
    code = main(
        ["poncelet", "--outer", "1,0,1,0,0,-4", "--inner", "1,0,1,0,0,-1.69",
         "--start", "2,0", "--max-steps", "40"]
    )
    assert code == 2
    assert "did not close" in capsys.readouterr().out


def test_poncelet_chain_from_a_point_at_infinity_runs(capsys):
    code = main(
        ["poncelet", "--outer", "1,0,-1,0,0,-1", "--inner", "1,0,1,0,0,-0.25", "--start", "1,1,0"]
    )
    assert code == 2
    captured = capsys.readouterr()
    assert "did not close" in captured.out and captured.err == ""


@pytest.mark.parametrize("mode", [["--expected-n", "3", "--samples", "4"],
                                  ["--start", "1.4142135623730951,1.4142135623730951", "--max-steps", "20"]])
def test_poncelet_chains_on_an_inner_hyperbola_step_along_its_asymptote(mode, capsys):
    # a first step whose one finite touch point turns clockwise takes the
    # tangent that touches at infinity, the asymptote, and does not stick
    code = main(["poncelet", "--outer", "1,0,1,0,0,-4", "--inner", "1,0,-1,0,0,-1", *mode])
    assert code == 2
    captured = capsys.readouterr()
    assert "did not close" in captured.out and captured.err == ""


def test_poncelet_requires_start_or_expected_n(capsys):
    code = main(["poncelet", "--outer", "1,0,1,0,0,-4", "--inner", "1,0,1,0,0,-1"])
    assert code == 1
    assert "start" in capsys.readouterr().err


def test_poncelet_start_off_conic_exits_one(capsys):
    code = main(
        ["poncelet", "--outer", "1,0,1,0,0,-4", "--inner", "1,0,1,0,0,-1",
         "--start", "1.5,0"]
    )
    assert code == 1


@pytest.mark.parametrize("mode", [["--start", "2,0"], ["--expected-n", "3"]])
def test_poncelet_degenerate_inner_conic_is_named(mode, capsys):
    code = main(["poncelet", "--outer", "1,0,1,0,0,-4", "--inner", "1,0,1,0,0,0", *mode])
    assert code == 1
    assert capsys.readouterr().err == "error: DegenerateConic: inner conic is degenerate\n"


def test_poncelet_porism_degenerate_outer_conic_is_named(capsys):
    code = main(["poncelet", "--outer", "1,0,1,0,0,0", "--inner", "1,0,1,0,0,-1", "--expected-n", "3"])
    assert code == 1
    assert capsys.readouterr().err == "error: DegenerateConic: outer conic is degenerate\n"


def test_poncelet_single_chain_on_a_degenerate_outer_conic_is_named(capsys):
    # the real line pair x^2 = y^2 and the point pair x^2 + y^2 = 0 are
    # rejected before any step, as in porism mode
    for argv in (
        ["--outer", "1,0,-1,0,0,0", "--inner", "1,0,1,0,0,-1", "--start", "2,2", "--json"],
        ["--outer", "1,0,1,0,0,0", "--inner", "1,0,1,0,0,-1", "--start", "0,0"],
    ):
        assert main(["poncelet"] + argv) == 1
        assert capsys.readouterr().err == "error: DegenerateConic: outer conic is degenerate\n"


def test_poncelet_start_takes_homogeneous_coordinates(capsys):
    argv = ["poncelet", "--outer", "1,0,1,0,0,-4", "--inner", "1,0,1,0,0,-1", "--json", "--start"]
    assert main(argv + ["2,0"]) == 0
    affine = capsys.readouterr()
    assert main(argv + ["2,0,1"]) == 0
    assert capsys.readouterr() == affine


def test_poncelet_options_take_values_that_start_with_a_minus_sign(capsys):
    # argparse reads "-2,0" as an option unless it is joined to its own
    argv = ["poncelet", "--outer", "-1,0,-1,0,0,4", "--inner", "-1,0,-1,0,0,1", "--json"]
    assert main(argv + ["--start=-2,0"]) == 0
    joined = capsys.readouterr()
    assert json.loads(joined.out)["closure_step"] == 3
    assert main(argv + ["--start", "-2,0"]) == 0
    assert capsys.readouterr() == joined
    # a value may also start with a minus sign and a point
    argv = ["poncelet", "--outer", "-.25,0,-.25,0,0,.0625", "--inner", "-1,0,-1,0,0,.0625", "--start"]
    assert main(argv + ["-.5,0"]) == 0
    assert capsys.readouterr().out.startswith("chain closed at step 3 ")


def test_poncelet_option_without_a_value_keeps_the_argparse_error(capsys):
    for argv in (["--inner", "--start", "2,0"], ["--inner"], ["--inner", "-h"]):
        code = main(["poncelet", "--outer", "1,0,1,0,0,-4", *argv])
        assert code == 1
        assert "argument --inner: expected one argument" in capsys.readouterr().err


def test_poncelet_porism_runs_on_an_inner_parabola(capsys):
    # the inner parabola y = x^2 + 1 has its centre at infinity; its chains
    # are oriented by the midpoint of the touch points and do not close
    argv = ["poncelet", "--outer=1,0,0,0,-1,0", "--inner", "1,0,0,0,-1,1", "--expected-n", "3", "--samples", "4"]
    assert main(argv) == 2
    out = capsys.readouterr()
    assert out.out.startswith("some chains did not close at n=3 over 4 samples")
    assert out.err == ""


def large_triangle_scene(digits: int, feet) -> dict:
    """A rational scene on the triangle (0, 0), (N1, 0), (0, N2), N1 and N2
    random integers of ``digits`` digits drawn by ``Random(1)``; ``feet``
    maps N1 and N2 to the scene's feet."""
    rnd = random.Random(1)
    n1, n2 = (rnd.randrange(10 ** (digits - 1), 10 ** digits) for _ in range(2))
    return {"triangle": [["0", "0"], [str(n1), "0"], ["0", str(n2)]], "mode": "rational", "feet": feet(n1, n2)}


def isogonal_feet(n1, n2):
    return {"generator": "isogonal", "params": ["1/3", "2/5", "3/7"]}


def isotomic_feet(n1, n2):
    return {"generator": "isotomic", "params": ["1/3", "2/5", "3/7"]}


def params_feet(n1, n2):
    return {"params": ["1/3", "2/5", "3/7", "1/2", "1/2", "1/2"]}


def through_feet(n1, n2):
    return {"generator": "through_points", "points": [[str(n1 // 3), str(n2 // 4)], [str(n1 // 5), str(n2 // 3)]]}


@pytest.mark.parametrize("digits, feet", [
    (40, isogonal_feet), (80, isogonal_feet), (80, params_feet), (150, isogonal_feet), (300, through_feet),
])
def test_verify_svg_of_exact_scenes_past_float_range(tmp_path, capsys, digits, feet):
    # the witness conics' integer coefficients (about 800 bits at 40 digits,
    # 1,600 to 2,100 at 80) are scaled by one power of two where they meet a
    # float; the params scene at 80 digits has a degenerate witness, at 150
    # digits the interior points are past float range, and at 300 digits
    # so are the lines of the through-points scene's degenerate witness
    path = tmp_path / "scene.json"
    path.write_text(json.dumps(large_triangle_scene(digits, feet)))
    svg = tmp_path / "out.svg"
    assert main(["verify", str(path), "--svg", str(svg)]) in (0, 2)
    assert capsys.readouterr().err == ""
    text = svg.read_text()
    assert text.startswith("<?xml") and text.endswith("</svg>\n")


@pytest.mark.parametrize("digits", [350, 400])
def test_verify_svg_of_a_params_scene_past_float_range(tmp_path, capsys, digits):
    # the degenerate witness's exact line has entries past float range:
    # its basis candidates are ranked on the line's scaled float copy
    # rather than converting each entry to a float, which overflowed
    path = tmp_path / "scene.json"
    path.write_text(json.dumps(large_triangle_scene(digits, params_feet)))
    svg = tmp_path / "out.svg"
    assert main(["verify", str(path), "--svg", str(svg)]) == 2
    assert capsys.readouterr().err == ""
    assert svg.read_text().endswith("</svg>\n")


@pytest.mark.parametrize("feet", [params_feet, isogonal_feet, isotomic_feet, through_feet])
@pytest.mark.parametrize("digits", [10, 40, 150, 400])
def test_large_exact_scenes_run_in_every_output_mode(tmp_path, capsys, digits, feet):
    # a seeded family of exact scenes from 10 to 400 digits in every feet
    # shape: text, JSON and SVG runs exit 0 or 2 with nothing on stderr,
    # the JSON report reads back to itself and the SVG is complete
    path = tmp_path / "scene.json"
    path.write_text(json.dumps(large_triangle_scene(digits, feet)))
    assert main(["verify", str(path)]) in (0, 2)
    assert capsys.readouterr().err == ""
    assert main(["verify", str(path), "--json"]) in (0, 2)
    out = capsys.readouterr()
    assert out.err == ""
    data = json.loads(out.out)
    assert scene.report_to_dict(report_from_dict(data)) == data
    svg = tmp_path / "out.svg"
    assert main(["verify", str(path), "--svg", str(svg)]) in (0, 2)
    assert capsys.readouterr().err == ""
    assert svg.read_text().endswith("</svg>\n")


def long_residual_feet(n1, n2):
    return {"params": [f"1/{n1}", "1/3", f"{n1}/{3 * max(n1, n2)}", "2/5", "1/2", f"1/{n2}"]}


def test_verify_writes_a_residual_past_the_digit_limit(tmp_path, capsys):
    # at 216 digits the tangent6 residual has about 4,318 digits, more than
    # str() converts: text and JSON reports write it, and the JSON report
    # reads back to the same report
    path = tmp_path / "scene.json"
    path.write_text(json.dumps(large_triangle_scene(216, long_residual_feet)))
    assert main(["verify", str(path)]) in (0, 2)
    text = capsys.readouterr()
    assert text.err == ""
    assert main(["verify", str(path), "--json"]) in (0, 2)
    out = capsys.readouterr()
    assert out.err == ""
    data = json.loads(out.out)
    assert max(len(v["residual"]) for v in data["verdicts"].values()) > 4300
    assert scene.report_to_dict(report_from_dict(data)) == data
    tangent = data["verdicts"]["tangent6"]["residual"]
    assert f"tangent6    fails  residual {tangent}\n" in text.out


def test_svg_of_a_40_digit_scene_draws_its_triangle(tmp_path, capsys):
    # exact points past 1e14 from the origin are finite points, not points
    # at infinity: the three vertices are drawn in a frame of nonzero size
    path = tmp_path / "scene.json"
    path.write_text(json.dumps(large_triangle_scene(40, isogonal_feet)))
    svg = tmp_path / "out.svg"
    assert main(["verify", str(path), "--svg", str(svg)]) == 0
    capsys.readouterr()
    text = svg.read_text()
    _, _, width, height = (float(v) for v in text.split('viewBox="')[1].split('"')[0].split())
    assert width > 1e39 and height > 1e39
    assert text.count("<polygon") == 1 and text.count("<circle") >= 3


def test_a_scene_with_every_vertex_past_float_range_runs_in_every_output_mode(tmp_path, capsys):
    # N and M of 350 digits: no vertex of the triangle (N, N), (M, N), (N, M)
    # has float coordinates, so the SVG takes the unit frame (it built its
    # frame from no corners and exited 1), and every mode exits as the text
    # verdicts do
    rnd = random.Random(1)
    n, m = (str(rnd.randrange(10 ** 349, 10 ** 350)) for _ in range(2))
    data = {"triangle": [[n, n], [m, n], [n, m]], "feet": {"params": ["1/3", "2/5", "1/2", "1/4", "3/7", "2/9"]}}
    path = tmp_path / "scene.json"
    path.write_text(json.dumps(data))
    assert main(["verify", str(path)]) == 0
    assert capsys.readouterr().err == ""
    assert main(["verify", str(path), "--json"]) == 0
    report = capsys.readouterr().out
    svg = tmp_path / "out.svg"
    for argv in (["--svg", str(svg)], ["--json", "--svg", str(svg)]):
        svg.unlink(missing_ok=True)
        assert main(["verify", str(path), *argv]) == 0
        out = capsys.readouterr()
        assert out.err == ""
        assert out.out == report or "--json" not in argv
        text = svg.read_text()
        assert 'viewBox="-0.1500 -0.1500 1.3000 1.3000"' in text and text.endswith("</svg>\n")
