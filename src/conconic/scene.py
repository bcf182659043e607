"""Scene and report wire format for the verification pipeline.

A scene declares a triangle and six cevian feet; feet are given either as
six side parameters in the order (a1, b1, c1, a2, b2, c2) — the foot on a
side with endpoints (P, Q) at parameter t is P + t (Q - P), placed by
``cevians.foot_point`` — or through a named generator (``isogonal``,
``isotomic``, ``through_points``).  A ``Scene`` keeps that choice as one
``feet = (kind, values)`` pair: kind ``"params"`` with the six
parameters, ``"isogonal"`` or ``"isotomic"`` with the three parameters of
the first triple, or ``"through_points"`` with the two points as
coordinate pairs.  A feet object carries only the fields its kind reads.

Exact values travel as strings ("3/4", "0.25", "-2"); floats travel as
JSON numbers.  In rational mode every value is parsed exactly and a report
serialized and re-parsed compares equal field by field, so the format is
lossless.  Conic coefficients on the wire are always in the monomial
order (x^2, xy, y^2, xz, yz, z^2).
"""

from __future__ import annotations

import json
import math
from typing import Any, Dict, Optional, Sequence, Tuple

from .cevians import (
    CONDITION_NAMES,
    SIDES,
    CevianFeet,
    ConditionReport,
    CevianConfig,
    ProofChart,
    Triangle,
    build_config,
    cevians_through_point,
    check_conditions,
    foot_point,
    isogonal_feet,
    isotomic_feet,
    to_chart,
)
from .conics import Conic
from .errors import ChartDegenerate
from .projective import HPoint, Record, Verdict
from .scalars import DEFAULT_EPS, Scalar, _int_from_digits, brief_repr, format_scalar, parse_scalar

MODES = ("rational", "float")
GENERATORS = ("isogonal", "isotomic", "through_points")
# the fields of a feet object each kind reads; any other field is an error
_FEET_FIELDS = {"params": {"params"}, "isogonal": {"generator", "params"},
                "isotomic": {"generator", "params"}, "through_points": {"generator", "points"}}


class SceneError(ValueError):
    """A scene file does not conform to the expected schema."""


# ----- scalar encoding ------------------------------------------------------


def encode_value(x: Scalar):
    """Exact scalars become "p/q" strings; floats stay JSON numbers."""
    if isinstance(x, float):
        return x
    return format_scalar(x)


def decode_value(v: Any, exact: bool) -> Scalar:
    """Parse a wire value into the requested arithmetic backend."""
    if isinstance(v, bool):
        raise SceneError(f"expected a number, got {v!r}")
    if isinstance(v, (str, int)):
        try:
            return parse_scalar(v, exact)
        except ValueError as err:
            raise SceneError(str(err)) from None
    if isinstance(v, float):
        if exact:
            raise SceneError(
                f"rational mode requires exact values as strings, got the float {v!r}"
            )
        if not math.isfinite(v):
            raise SceneError(f"expected a finite number, got the float {v!r}")
        return v
    raise SceneError(f"expected a number or string, got {type(v).__name__}")


def parse_tolerance(value: Any, name: str) -> float:
    """A tolerance as a float; it must be a finite number in (0, 1)."""
    try:
        tol = float(value)
    except (TypeError, ValueError, OverflowError):
        tol = math.nan
    if not 0 < tol < 1:
        raise SceneError(f"{name} must be a finite positive number below 1, got {brief_repr(value)}")
    return tol


def _is_list(raw: Any, n: int) -> bool:
    """Whether ``raw`` is a JSON list of ``n`` items (a string is not one)."""
    return isinstance(raw, Sequence) and not isinstance(raw, str) and len(raw) == n


def _decode_field(v: Any, exact: bool, what: str) -> Scalar:
    """``decode_value`` of the scene field ``what``, whose errors name it."""
    try:
        return decode_value(v, exact)
    except SceneError as err:
        raise SceneError(f"{what}: {err}") from None


def _exact_mode(mode: Any) -> bool:
    """Whether the scene or report ``mode`` is exact, after checking it."""
    if mode not in MODES:
        raise SceneError(f"mode must be one of {MODES}, got {mode!r}")
    return mode == "rational"


def _decode_pair(pair: Any, exact: bool, what: str) -> Tuple[Scalar, Scalar]:
    if not _is_list(pair, 2):
        raise SceneError(f"{what} must be a pair of coordinates")
    return (_decode_field(pair[0], exact, what), _decode_field(pair[1], exact, what))


# ----- scenes ---------------------------------------------------------------


class Scene(Record):
    """Declarative verification input: a triangle plus a feet prescription
    ``feet = (kind, values)``, as the module docstring describes."""

    mode: str
    triangle: Tuple[Tuple[Scalar, Scalar], ...]
    feet: Tuple[str, tuple]
    epsilon: float = DEFAULT_EPS

    @property
    def exact(self) -> bool:
        return self.mode == "rational"


def scene_from_dict(data: Dict[str, Any]) -> Scene:
    if not isinstance(data, dict):
        raise SceneError("a scene must be a JSON object")
    unknown = set(data) - {"triangle", "mode", "feet", "epsilon"}
    if unknown:
        raise SceneError(f"unknown scene fields: {sorted(unknown)}")
    mode = data.get("mode", "rational")
    exact = _exact_mode(mode)

    triangle_raw = data.get("triangle")
    if not _is_list(triangle_raw, 3):
        raise SceneError("triangle must list exactly three vertices")
    triangle = tuple(
        _decode_pair(pair, exact, f"vertex {i}") for i, pair in enumerate(triangle_raw)
    )

    feet = data.get("feet")
    if not isinstance(feet, dict):
        raise SceneError("feet must be an object with params or a generator")
    if "generator" in feet:
        kind = feet["generator"]
        if kind not in GENERATORS:
            raise SceneError(f"generator must be one of {GENERATORS}, got {kind!r}")
    elif "params" in feet:
        kind = "params"
    else:
        raise SceneError("feet must carry either params or a generator")
    unknown = set(feet) - _FEET_FIELDS[kind]
    if unknown:
        raise SceneError(f"unknown feet fields for {kind}: {sorted(unknown)}")
    if kind == "through_points":
        pts = feet.get("points")
        if not _is_list(pts, 2):
            raise SceneError("through_points needs exactly two points")
        values = tuple(
            _decode_pair(p, exact, f"generator point {i}") for i, p in enumerate(pts)
        )
    else:
        raw = feet.get("params")
        if kind == "params" and not _is_list(raw, 6):
            raise SceneError("feet params must list exactly six side parameters")
        if kind != "params" and not _is_list(raw, 3):
            raise SceneError(f"{kind} needs exactly three side parameters")
        values = tuple(_decode_field(v, exact, f"feet params[{i}]") for i, v in enumerate(raw))

    return Scene(
        mode=mode,
        triangle=triangle,
        feet=(kind, values),
        epsilon=parse_tolerance(data.get("epsilon", DEFAULT_EPS), "epsilon"),
    )


def scene_to_dict(scene: Scene) -> Dict[str, Any]:
    kind, values = scene.feet
    feet: Dict[str, Any] = {} if kind == "params" else {"generator": kind}
    if kind == "through_points":
        feet["points"] = [[encode_value(x), encode_value(y)] for x, y in values]
    else:
        feet["params"] = [encode_value(v) for v in values]
    return {
        "mode": scene.mode,
        "triangle": [[encode_value(x), encode_value(y)] for x, y in scene.triangle],
        "feet": feet,
        "epsilon": scene.epsilon,
    }


def load_scene(path: str) -> Scene:
    return scene_from_dict(_read_scene_json(path))


def _read_scene_json(path: str) -> Any:
    """The JSON value of the scene file at ``path``, not yet checked."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh, parse_int=_json_int)
        except json.JSONDecodeError as err:
            raise SceneError(f"{path} is not valid JSON: {err}") from err
        except ValueError as err:  # undecodable bytes
            raise SceneError(f"{path}: {err}") from err


def _json_int(text: str) -> int:
    """A JSON integer literal of any length: its digits go through
    ``_int_from_digits``, which reads past the interpreter's digit limit."""
    if text[0] == "-":
        return -_int_from_digits(text[1:])
    return _int_from_digits(text)


def scene_instance(scene: Scene) -> Tuple[Triangle, CevianFeet]:
    """Materialize the triangle and the six feet a scene describes.

    The feet are not validated here: ``build_config`` checks them, and a
    foot past float range raises a ``SceneError`` naming its parameter.
    """
    tri = Triangle(*(HPoint(x, y, 1) for x, y in scene.triangle))
    kind, values = scene.feet
    if kind == "through_points":
        p1, p2 = (HPoint(x, y, 1) for x, y in values)
        return tri, CevianFeet.from_triples(
            cevians_through_point(tri, p1, scene.epsilon),
            cevians_through_point(tri, p2, scene.epsilon),
        )
    feet = []
    for i, t in enumerate(values):
        try:
            feet.append(foot_point(tri, SIDES[i % 3], t))
        except ValueError as err:  # a non-finite coordinate
            raise SceneError(f"feet params[{i}]: {err}") from None
    if kind == "params":
        return tri, CevianFeet.from_triples(feet[:3], feet[3:])
    conjugate = {"isogonal": isogonal_feet, "isotomic": isotomic_feet}[kind]
    return tri, CevianFeet.from_triples(feet, conjugate(tri, feet, scene.epsilon))


# ----- reports --------------------------------------------------------------


class VerifyReport(Record):
    """Everything the verification pipeline concluded about one scene: the
    four verdicts and the normalized chart, None when its frame cannot be
    built."""

    mode: str
    conditions: ConditionReport
    chart: Optional[ProofChart]
    provenance: Dict[str, Any]


def report_from_conditions(
    scene: Scene, cfg: CevianConfig, conditions: ConditionReport
) -> VerifyReport:
    try:
        chart = to_chart(cfg, scene.epsilon)
    except ChartDegenerate:
        chart = None
    return VerifyReport(
        mode=scene.mode,
        conditions=conditions,
        chart=chart,
        provenance={
            "scene": scene_to_dict(scene),
            "epsilon": scene.epsilon,
        },
    )


def _verify(scene: Scene) -> Tuple[CevianConfig, VerifyReport]:
    """The configuration a scene describes and its verification report."""
    tri, feet = scene_instance(scene)
    cfg = build_config(tri, feet, scene.epsilon)
    return cfg, report_from_conditions(scene, cfg, check_conditions(cfg, scene.epsilon))


def verify_scene(scene: Scene) -> VerifyReport:
    """Run the four-condition check on a scene and assemble the report."""
    return _verify(scene)[1]


# ----- report serialization -------------------------------------------------
#
# The wire report is derived from the computed verdicts and chart: "agree",
# "all_hold", the chart's "degenerate" and its "criterion" are not stored
# anywhere else, and decoding recomputes them and rejects a contradiction.


def _encode_opt(x: Optional[Scalar]):
    return None if x is None else encode_value(x)


def _chart_flags(chart: Optional[ProofChart]) -> Tuple[bool, Optional[bool]]:
    """The chart's wire "degenerate" and "criterion" values."""
    if chart is None or chart.degenerate:
        return True, None
    return False, chart.criterion


def report_to_dict(report: VerifyReport) -> Dict[str, Any]:
    conditions, chart = report.conditions, report.chart
    degenerate, criterion = _chart_flags(chart)
    return {
        "mode": report.mode,
        "verdicts": {
            name: {
                "holds": v.holds,
                "residual": encode_value(v.residual),
                "degenerate": v.degenerate,
            }
            for name, v in conditions.named
        },
        "witnesses": {
            name: None if v.witness_conic is None else [encode_value(c) for c in v.witness_conic.coeffs]
            for name, v in conditions.named[:3]
        },
        "chart": {
            "degenerate": degenerate,
            **{k: None if chart is None else _encode_opt(getattr(chart, k)) for k in ("b1", "c2", "p", "q")},
            "criterion": criterion,
        },
        "agree": conditions.agree,
        "all_hold": conditions.all_hold,
        "provenance": report.provenance,
    }


def _decode_opt(v: Any, exact: bool) -> Optional[Scalar]:
    return None if v is None else decode_value(v, exact)


def _field(data: Any, *path: str) -> Any:
    """``data[path[0]][path[1]]...`` of a wire report, or a ``SceneError``
    naming the first key on the path that is missing."""
    for depth, key in enumerate(path):
        if not isinstance(data, dict) or key not in data:
            raise SceneError(f"report has no field {'.'.join(path[:depth + 1])!r}")
        data = data[key]
    return data


def _decode_verdict(data: Dict[str, Any], name: str, exact: bool) -> Verdict:
    # concurrency has no witness; the wire lists none for it
    coeffs = None if name == "concurrent" else _field(data, "witnesses", name)
    witness = None if coeffs is None else Conic.from_coeffs([decode_value(v, exact) for v in coeffs])
    return Verdict(
        residual=decode_value(_field(data, "verdicts", name, "residual"), exact),
        holds=bool(_field(data, "verdicts", name, "holds")),
        witness_conic=witness,
        degenerate=bool(_field(data, "verdicts", name, "degenerate")),
    )


def report_from_dict(data: Dict[str, Any]) -> VerifyReport:
    mode = _field(data, "mode")
    exact = _exact_mode(mode)
    conditions = ConditionReport(**{name: _decode_verdict(data, name, exact) for name in CONDITION_NAMES})
    b1 = _field(data, "chart", "b1")
    chart = None if b1 is None else ProofChart(
        b1=decode_value(b1, exact),
        c2=decode_value(_field(data, "chart", "c2"), exact),
        p=_decode_opt(_field(data, "chart", "p"), exact),
        q=_decode_opt(_field(data, "chart", "q"), exact),
        eps=parse_tolerance(_field(data, "provenance", "epsilon"), "epsilon"),
    )
    degenerate, criterion = _chart_flags(chart)
    for what, stored, derived in (
        ("agree", _field(data, "agree"), conditions.agree),
        ("all_hold", _field(data, "all_hold"), conditions.all_hold),
        ("chart degenerate", _field(data, "chart", "degenerate"), degenerate),
        ("chart criterion", _field(data, "chart", "criterion"), criterion),
    ):
        if stored != derived:
            raise SceneError(f"stored {what} {stored!r} contradicts the decoded report, which gives {derived!r}")
    return VerifyReport(mode=mode, conditions=conditions, chart=chart, provenance=_field(data, "provenance"))


def report_to_json(report: VerifyReport) -> str:
    return json.dumps(report_to_dict(report), indent=2, sort_keys=True)
