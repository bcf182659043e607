"""The immutable-record base shared by the package's value types, the
start-up cost it keeps out of ``conconic.cli``, and the package's lazy
exports and per-command module loading."""

import copy
import json
import os
import pickle
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from conconic import (
    CevianConfig,
    CevianFeet,
    ChainResult,
    ConditionReport,
    Conic,
    HLine,
    HPoint,
    MorleyCenters,
    MorleyData,
    PorismReport,
    ProjectiveMap,
    ProofChart,
    Scene,
    Triangle,
    Verdict,
    VerifyReport,
    build_config,
    check_conditions,
    morley_config,
    porism_check,
    scene_from_dict,
    to_chart,
    trace_chain,
    verify_scene,
)
from conconic.errors import DegenerateTriangle, SingularMap
from conconic.generate import concurrency_solved_instance
from conconic.projective import Record, _Frozen

SRC = Path(__file__).resolve().parent.parent / "src"

ISOGONAL = {
    "triangle": [["0", "0"], ["4", "0"], ["0", "3"]],
    "mode": "rational",
    "feet": {"generator": "isogonal", "params": ["1/2", "1/3", "2/5"]},
}
RIGHT_345 = Triangle(HPoint(0, 0, 1), HPoint(4, 0, 1), HPoint(0, 3, 1))


def _circle(radius: float) -> Conic:
    return Conic.from_coeffs((1.0, 0.0, 1.0, 0.0, 0.0, -radius * radius))


def _samples():
    """One instance of every record class, built the way the library does."""
    tri, feet, _ = concurrency_solved_instance(random.Random(3))
    cfg = build_config(tri, feet)
    morley = morley_config(Triangle(HPoint(0.0, 0.0, 1.0), HPoint(4.0, 0.0, 1.0), HPoint(1.0, 3.0, 1.0)))
    outer, inner = _circle(2.0), _circle(1.0)
    return {
        Verdict: Verdict(residual=0, holds=True),
        ProjectiveMap: ProjectiveMap(((1, 2, 0), (0, 1, 0), (0, 0, 3))),
        Triangle: tri,
        CevianFeet: feet,
        CevianConfig: cfg,
        ConditionReport: check_conditions(cfg),
        ProofChart: to_chart(cfg),
        MorleyCenters: morley.centers,
        MorleyData: morley,
        ChainResult: trace_chain(outer, inner, HPoint(2.0, 0.0, 1.0)),
        PorismReport: porism_check(outer, inner, expected_n=3, num_samples=4),
        Scene: scene_from_dict(ISOGONAL),
        VerifyReport: verify_scene(scene_from_dict(ISOGONAL)),
    }


SAMPLES = _samples()
CLASSES = list(SAMPLES)


def _fields(obj):
    return {name: getattr(obj, name) for name in type(obj).__annotations__}


def test_every_record_class_is_sampled():
    assert len(CLASSES) == 13
    assert all(issubclass(cls, Record) for cls in CLASSES)


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_record_semantics(cls):
    obj = SAMPLES[cls]
    fields = _fields(obj)
    names = list(fields)

    # frozen: no field can be set or deleted, and no attribute added
    for name in names + ["extra"]:
        with pytest.raises(AttributeError):
            setattr(obj, name, None)
    for name in names:
        with pytest.raises(AttributeError):
            delattr(obj, name)
    assert _fields(obj) == fields

    # equality and hash follow the type and the field values
    twin = cls(**fields)
    assert twin == obj and twin is not obj
    assert cls(*fields.values()) == obj
    if cls is VerifyReport:  # its provenance is a dict, as in any frozen dataclass
        with pytest.raises(TypeError):
            hash(obj)
    else:
        assert hash(twin) == hash(obj)
    lookalike = type("Lookalike", (Record,), {"__annotations__": dict.fromkeys(names)})
    assert lookalike(**fields) != obj
    first = names[0]
    if cls not in (Triangle, ProjectiveMap):  # their __post_init__ checks the fields
        changed = obj.replace(**{first: "changed"})
        assert changed != obj
        assert _fields(changed) == {**fields, first: "changed"}

    # repr in the dataclass format
    body = ", ".join(f"{n}={v!r}" for n, v in fields.items())
    assert repr(obj) == f"{cls.__name__}({body})"

    # a missing, unknown or duplicated argument is a TypeError
    required = [n for n in names if n not in vars(cls)]  # no class-level default
    with pytest.raises(TypeError):
        cls(**{n: v for n, v in fields.items() if n != required[-1]})
    with pytest.raises(TypeError):
        cls(**fields, unknown=1)
    with pytest.raises(TypeError):
        cls(fields[first], **fields)
    with pytest.raises(TypeError):
        cls(*fields.values(), *fields.values())
    with pytest.raises(TypeError):
        obj.replace(unknown=1)

    # copies and pickles round-trip to equal objects
    assert copy.copy(obj) == obj
    assert copy.deepcopy(obj) == obj
    assert pickle.loads(pickle.dumps(obj)) == obj


class Lookalike(Record):
    """A record class that is no other record's class."""


VALUES = [HPoint(3, 4, 5), HPoint(0.1, -0.0, 2.0), HLine(1, -2, 3), HLine(0.1, 0.2, -0.3),
          Conic(1, 0, 1, 0, 0, -1), Conic(0.5, 0.0, 1.0, 0.1, -0.0, -3.0), *SAMPLES.values()]


@pytest.mark.parametrize("value", VALUES, ids=lambda v: type(v).__name__)
def test_every_value_type_freezes_compares_hashes_and_copies_by_one_rule(value):
    """Points, lines, conics and records take their value protocol from
    ``_Frozen`` alone, keyed by ``_key``: coordinates, coefficients or
    field values."""
    cls = type(value)
    for name in ("__setattr__", "__delattr__", "__eq__", "__hash__", "__reduce__"):
        assert getattr(cls, name) is getattr(_Frozen, name), name
    key = value._key
    assert type(key) is tuple
    with pytest.raises(AttributeError, match=f"^{cls.__name__} is immutable$"):
        value.extra = 1
    with pytest.raises(AttributeError, match=f"^{cls.__name__} is immutable$"):
        del value.extra
    assert value._key == key
    assert value.__reduce__() == (cls, key)
    assert cls(*key) == value
    assert value.__eq__(key) is NotImplemented and value != key
    assert value.__eq__(object.__new__(Lookalike)) is NotImplemented
    if cls is VerifyReport:  # its provenance is a dict
        with pytest.raises(TypeError):
            hash(value)
    else:
        assert hash(value) == hash((cls.__name__, key))
    for twin in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
        assert type(twin) is cls and twin == value and twin is not value
        assert repr(twin) == repr(value)


def test_repr_matches_the_dataclass_format():
    assert repr(Verdict(residual=0, holds=True)) == (
        "Verdict(residual=0, holds=True, witness_conic=None, degenerate=False)"
    )
    witnessed = Verdict(
        residual=Fraction(-3, 2), holds=False, witness_conic=Conic(1, 0, 1, 0, 0, -1), degenerate=True
    )
    assert repr(witnessed) == (
        "Verdict(residual=Fraction(-3, 2), holds=False, "
        "witness_conic=Conic(1*x^2 + 1*y^2 + -1*z^2 = 0), degenerate=True)"
    )
    assert repr(ProofChart(b1=Fraction(1, 2), c2=3, p=None, q=-0.25)) == (
        "ProofChart(b1=Fraction(1, 2), c2=3, p=None, q=-0.25, eps=1e-09)"
    )
    assert repr(scene_from_dict(ISOGONAL)) == (
        "Scene(mode='rational', triangle=((Fraction(0, 1), Fraction(0, 1)), "
        "(Fraction(4, 1), Fraction(0, 1)), (Fraction(0, 1), Fraction(3, 1))), "
        "feet=('isogonal', (Fraction(1, 2), Fraction(1, 3), Fraction(2, 5))), epsilon=1e-09)"
    )


def test_positional_and_keyword_arguments_fill_distinct_fields():
    assert Verdict(0, holds=True) == Verdict(residual=0, holds=True)
    assert ProofChart(1, 2, q=4, p=3) == ProofChart(b1=1, c2=2, p=3, q=4)


def test_each_argument_fault_is_named():
    cases = [
        (lambda: Verdict(1, True, None, False, 5), "Verdict() takes 4 arguments but 5 were given"),
        (lambda: Verdict(1, residual=2, holds=True), "Verdict() got multiple values for argument 'residual'"),
        (lambda: Verdict(1, True, bogus=1), "Verdict() got an unexpected keyword argument 'bogus'"),
        (lambda: Verdict(holds=True), "Verdict() missing required arguments: 'residual'"),
    ]
    for build, message in cases:
        with pytest.raises(TypeError) as err:
            build()
        assert str(err.value) == message


def test_defaults_apply():
    verdict = Verdict(residual=1, holds=False)
    assert verdict.witness_conic is None and verdict.degenerate is False
    assert Verdict(1, False) == verdict
    assert ProofChart(b1=1, c2=2, p=3, q=3).eps == 1e-9
    assert Scene(mode="rational", triangle=(), feet=("params", ())).epsilon == 1e-9
    assert Verdict(residual=1, holds=False, degenerate=True).witness_conic is None


def test_post_init_checks_still_run():
    with pytest.raises(DegenerateTriangle):
        Triangle(HPoint(0, 0, 1), HPoint(1, 1, 1), HPoint(2, 2, 1))
    with pytest.raises(SingularMap):
        ProjectiveMap(((1, 2, 3), (2, 4, 6), (0, 0, 1)))
    with pytest.raises(DegenerateTriangle):
        RIGHT_345.replace(C=HPoint(8, 0, 1))
    assert ProjectiveMap([[1, 0, 0], [0, 1, 0], [0, 0, 1]]).matrix == ((1, 0, 0), (0, 1, 0), (0, 0, 1))


def test_triangle_sides_are_cached_on_the_frozen_instance():
    tri = Triangle(*RIGHT_345.vertices)
    assert "sides" not in vars(tri)
    sides = tri.sides
    assert tri.sides is sides
    assert vars(tri)["sides"] is sides
    assert tri == RIGHT_345  # the cached value is not a field
    assert copy.deepcopy(tri).sides == sides


def test_triangle_and_config_read_their_backend_once_outside_their_fields():
    tri = Triangle(*RIGHT_345.vertices)
    assert "exact" not in vars(tri)
    assert tri.exact is True and vars(tri)["exact"] is True
    assert tri == RIGHT_345 and repr(tri) == repr(RIGHT_345)
    cfg = build_config(*concurrency_solved_instance(random.Random(3))[:2])
    assert cfg.exact is True and vars(cfg)["exact"] is True
    assert cfg.replace(feet=cfg.feet) == cfg
    mixed = Triangle(HPoint(0, 0, 1), HPoint(4.0, 0.0, 1.0), HPoint(0, 3, 1))
    assert mixed.exact is False


def test_cli_import_loads_no_dataclasses():
    """``conconic.cli`` starts without ``dataclasses`` and the modules it
    pulls in (``inspect``, ``ast``), and without the seeded instance
    generators of ``conconic.generate``: each CLI process imports the
    package."""
    unwanted = ("dataclasses", "inspect", "ast", "conconic.generate")
    probe = f"import conconic.cli, sys; print(sorted(m for m in {unwanted!r} if m in sys.modules))"
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    ).stdout
    assert out.strip() == "[]"


def _run_probe(args):
    """The JSON printed by ``python -c *args`` in a fresh interpreter with the
    package on its path.  A module that ``cli`` registered lazily and that
    never ran is an instance of a ``types.ModuleType`` subclass, so the
    probes count only plain modules as loaded."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    out = subprocess.run([sys.executable, "-c", *args], env=env, capture_output=True, text=True, check=True)
    return json.loads(out.stdout)


_CLI_PROBE = """
import contextlib, io, json, sys, types
from conconic import cli
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(sys.argv[1:])
print(json.dumps([code, sorted(n for n, m in sys.modules.items()
                               if n.startswith("conconic.") and type(m) is types.ModuleType)]))
"""


def test_each_cli_command_runs_only_the_modules_it_uses(tmp_path):
    scene = tmp_path / "scene.json"
    scene.write_text(json.dumps({"triangle": [["0", "0"], ["4", "0"], ["0", "3"]],
                                 "feet": {"generator": "isogonal", "params": ["1/2", "1/3", "2/5"]}}),
                     encoding="utf-8")
    svg = str(tmp_path / "out.svg")
    triangle = ["--triangle", "0,0 4,0 1,3"]
    circles = ["--outer", "1,0,1,0,0,-4", "--inner", "1,0,1,0,0,-1"]
    lazy = {"conconic.morley", "conconic.poncelet", "conconic.svg"}
    cases = [
        (["verify", str(scene)], set()),
        (["verify", str(scene), "--json", "--mode", "float"], set()),
        (["verify", str(scene), "--svg", svg], {"conconic.poncelet", "conconic.svg"}),
        (["morley", *triangle], {"conconic.morley"}),
        (["morley", *triangle, "--poncelet-samples", "4"], {"conconic.morley", "conconic.poncelet"}),
        (["morley", *triangle, "--svg", svg], lazy),
        (["poncelet", *circles, "--expected-n", "3", "--samples", "4"], {"conconic.poncelet"}),
        (["poncelet", *circles, "--expected-n", "3", "--samples", "4", "--svg", svg],
         {"conconic.poncelet", "conconic.svg"}),
        (["poncelet", *circles, "--start", "2,0", "--svg", svg], {"conconic.poncelet", "conconic.svg"}),
    ]
    for argv, wanted in cases:
        code, executed = _run_probe([_CLI_PROBE, *argv])
        assert code == 0, argv
        assert lazy & set(executed) == wanted, argv
        assert "conconic.generate" not in executed


def test_every_export_resolves_on_first_use_and_is_kept():
    import conconic

    package = SRC / "conconic"
    probe = """
import json, sys, types
import conconic
bare = sorted(n for n in sys.modules if n.startswith("conconic"))
names = {}
exec("from conconic import *", names)
submodules = sorted(n for n in sys.argv[1:] if isinstance(getattr(conconic, n), types.ModuleType))
print(json.dumps([bare, sorted(n for n in names if not n.startswith("__")), submodules,
                  sorted(conconic.__all__), sorted(n for n in vars(conconic) if not n.startswith("_"))]))
"""
    modules = sorted(p.stem for p in package.glob("*.py") if not p.stem.startswith("_"))
    bare, star, submodules, exported, kept = _run_probe([probe, *modules])
    assert bare == ["conconic"]  # a bare import runs no submodule
    assert star == exported == sorted(set(conconic.__all__)) == sorted(conconic.__all__)
    assert submodules == modules
    assert set(exported) | set(modules) == set(kept)
    for name in conconic.__all__:
        value = getattr(__import__("conconic", fromlist=[name]), name)
        assert value is vars(conconic)[name] is vars(getattr(conconic, conconic._ORIGIN[name]))[name]
    assert set(conconic.__all__) <= set(dir(conconic))
    assert set(modules) <= set(dir(conconic))
    assert conconic.HPoint is conconic.projective.HPoint
    assert conconic.render_chain is conconic.svg.render_chain
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        conconic.no_such_name
