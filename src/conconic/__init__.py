"""Projective geometry kernel for six-point conconicity verification.

The package machine-checks four equivalent conditions on a triangle with
two cevian triples — six outer feet on one conic, six derived points on
one conic, six cevians tangent to one conic, and concurrency of three
auxiliary lines — plus the corollaries that force them (conjugate cevian
triples, cevians through a common point) and the two showcase
configurations: angle trisectors with their equilateral triangle, and
tangent chain closures between the two fitted conics.
"""

from .cevians import (
    CevianFeet,
    ConditionReport,
    ProofChart,
    CevianConfig,
    Triangle,
    build_config,
    cevians_through_point,
    check_conditions,
    isogonal_feet,
    isotomic_feet,
    solve_sixth_foot,
    to_chart,
    validate_feet,
)
from .conics import (
    Conic,
    brianchon_concurrent,
    conconic,
    conconic_by_fit,
    conic_through_points,
    cotangent,
    intersect_line,
    pascal_collinear,
    tangent_lines_from,
    veronese,
)
from .errors import GeometryError
from .morley import (
    MorleyCenters,
    MorleyData,
    first_morley_center,
    morley_config,
    morley_triangle,
    second_morley_center,
)
from .poncelet import (
    ChainResult,
    PorismReport,
    find_point_on_conic,
    poncelet_step,
    porism_check,
    sample_on_conic,
    trace_chain,
)
from .projective import (
    HLine,
    HPoint,
    LINE_AT_INFINITY,
    ProjectiveMap,
    Verdict,
    collinearity,
    concurrency,
    incident,
    join,
    map_from_correspondence,
    meet,
    projective_gap,
)
from .scalars import DEFAULT_CLOSURE_TOL, DEFAULT_EPS
from .scene import (
    Scene,
    SceneError,
    VerifyReport,
    load_scene,
    report_from_dict,
    report_to_dict,
    report_to_json,
    scene_from_dict,
    scene_instance,
    scene_to_dict,
    verify_scene,
)
from .svg import render_chain, render_configuration, render_morley

__version__ = "0.1.0"

__all__ = [
    "CevianFeet",
    "ChainResult",
    "Conic",
    "ConditionReport",
    "DEFAULT_CLOSURE_TOL",
    "DEFAULT_EPS",
    "GeometryError",
    "HLine",
    "HPoint",
    "LINE_AT_INFINITY",
    "MorleyCenters",
    "MorleyData",
    "PorismReport",
    "ProjectiveMap",
    "ProofChart",
    "Scene",
    "SceneError",
    "CevianConfig",
    "Triangle",
    "Verdict",
    "VerifyReport",
    "brianchon_concurrent",
    "build_config",
    "cevians_through_point",
    "check_conditions",
    "collinearity",
    "concurrency",
    "conconic",
    "conconic_by_fit",
    "conic_through_points",
    "cotangent",
    "find_point_on_conic",
    "first_morley_center",
    "incident",
    "intersect_line",
    "isogonal_feet",
    "isotomic_feet",
    "join",
    "load_scene",
    "map_from_correspondence",
    "meet",
    "morley_config",
    "morley_triangle",
    "pascal_collinear",
    "poncelet_step",
    "porism_check",
    "projective_gap",
    "render_chain",
    "render_configuration",
    "render_morley",
    "report_from_dict",
    "report_to_dict",
    "report_to_json",
    "sample_on_conic",
    "scene_from_dict",
    "scene_instance",
    "scene_to_dict",
    "second_morley_center",
    "solve_sixth_foot",
    "tangent_lines_from",
    "to_chart",
    "trace_chain",
    "validate_feet",
    "verify_scene",
    "veronese",
]
