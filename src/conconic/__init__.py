"""Projective geometry kernel for six-point conconicity verification.

The package machine-checks four equivalent conditions on a triangle with
two cevian triples — six outer feet on one conic, six derived points on
one conic, six cevians tangent to one conic, and concurrency of three
auxiliary lines — plus the corollaries that force them (conjugate cevian
triples, cevians through a common point) and the two showcase
configurations: angle trisectors with their equilateral triangle, and
tangent chain closures between the two fitted conics.

The public names below resolve on first use (PEP 562): ``import conconic``
runs no submodule, and ``conconic.HPoint`` or ``from conconic import
HPoint`` imports the module that defines it (``conconic.projective``) and
keeps the name.  Submodules resolve the same way, so ``conconic.svg``
works after a bare ``import conconic``.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

# every public name, by the module that defines it; ``__all__`` is read from here
_EXPORTS = {
    "cevians": (
        "CevianConfig", "CevianFeet", "ConditionReport", "ProofChart", "Triangle",
        "build_config", "cevians_through_point", "check_conditions", "isogonal_feet",
        "isotomic_feet", "solve_sixth_foot", "to_chart", "validate_feet",
    ),
    "conics": (
        "Conic", "brianchon_concurrent", "conconic", "conconic_by_fit", "conic_through_points",
        "cotangent", "intersect_line", "pascal_collinear", "tangent_lines_from", "veronese",
    ),
    "errors": ("GeometryError",),
    "morley": (
        "MorleyCenters", "MorleyData", "first_morley_center", "morley_config",
        "morley_triangle", "second_morley_center",
    ),
    "poncelet": (
        "ChainResult", "PorismReport", "find_point_on_conic", "poncelet_step",
        "porism_check", "sample_on_conic", "trace_chain",
    ),
    "projective": (
        "HLine", "HPoint", "LINE_AT_INFINITY", "ProjectiveMap", "Verdict", "collinearity",
        "concurrency", "incident", "join", "map_from_correspondence", "meet", "projective_gap",
    ),
    "scalars": ("DEFAULT_CLOSURE_TOL", "DEFAULT_EPS"),
    "scene": (
        "Scene", "SceneError", "VerifyReport", "load_scene", "report_from_dict",
        "report_to_dict", "report_to_json", "scene_from_dict", "scene_instance",
        "scene_to_dict", "verify_scene",
    ),
    "svg": ("render_chain", "render_configuration", "render_morley"),
}

# every submodule: those above, and the three that define no export
_SUBMODULES = (*_EXPORTS, "cli", "generate", "linalg")

_ORIGIN = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_ORIGIN)


def __getattr__(name: str):
    module = _ORIGIN.get(name)
    if module is not None:
        value = getattr(_import_module(f"{__name__}.{module}"), name)
    elif name in _SUBMODULES:
        value = _import_module(f"{__name__}.{name}")
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__, *_SUBMODULES})
