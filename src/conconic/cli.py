"""Command line front end: verify scenes, trisector runs, chain runs.

Exit codes are part of the contract: 0 means the run succeeded and the
verdicts agree (for chains: the chain closed / the porism held), 1 means
the input could not be parsed or validated, and 2 means the geometry was
fine but the verdicts came back negative or inconsistent.

Each run is a fresh process, so a command loads only the modules it runs.
``morley``, ``poncelet`` and ``svg`` are registered in ``sys.modules`` as
lazy modules (``importlib.util.LazyLoader``) whose code runs on their first
attribute access: ``verify`` without ``--svg`` runs none of them,
``poncelet`` runs no ``morley``, and ``morley`` without ``--svg`` runs no
``svg``.  Their functions are read as module attributes at call time.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import re
import sys
from typing import Optional, Sequence

from .cevians import Triangle
from .conics import Conic
from .errors import GeometryError, TheoremConsistencyError
from .projective import HPoint
from .scalars import DEFAULT_CLOSURE_TOL, DEFAULT_EPS, format_scalar
from .scene import (
    SceneError,
    _verify,
    decode_value,
    load_scene,
    parse_tolerance,
    report_to_json,
    scene_from_dict,
    scene_to_dict,
)


def _lazy_module(name: str):
    """The module ``name``: the loaded one, or else one registered in
    ``sys.modules`` whose code runs on its first attribute access."""
    module = sys.modules.get(name)
    if module is None:
        spec = importlib.util.find_spec(name)
        spec.loader = importlib.util.LazyLoader(spec.loader)
        module = importlib.util.module_from_spec(spec)
        sys.modules[name] = module
        spec.loader.exec_module(module)
    return module


morley, poncelet, svg = (_lazy_module(f"{__package__}.{name}") for name in ("morley", "poncelet", "svg"))

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_DISAGREE = 2


def _fmt_value(v) -> str:
    if v is None:
        return "infinite"
    if isinstance(v, float):
        return f"{v:.6g}"
    return format_scalar(v)


def _tolerance(text: str) -> float:
    try:
        return parse_tolerance(text, "tolerance")
    except SceneError as err:
        raise argparse.ArgumentTypeError(str(err)) from None


def _parse_triangle(text: str) -> Triangle:
    parts = text.replace(";", " ").split()
    if len(parts) != 3:
        raise SceneError("triangle must be three 'x,y' pairs separated by spaces")
    pts = []
    for part in parts:
        coords = part.split(",")
        if len(coords) != 2:
            raise SceneError(f"vertex {part!r} is not an 'x,y' pair")
        pts.append(HPoint(*(decode_value(v, exact=False) for v in coords), 1.0))
    return Triangle(*pts)


def _parse_conic(text: str) -> Conic:
    coeffs = [decode_value(v, exact=False) for v in text.split(",")]
    if len(coeffs) != 6:
        raise SceneError(
            "a conic needs six coefficients (x^2, xy, y^2, xz, yz, z^2 order)"
        )
    return Conic.from_coeffs(tuple(coeffs))


def _parse_point(text: str) -> HPoint:
    coords = text.split(",")
    if len(coords) == 2:
        return HPoint(*(decode_value(v, exact=False) for v in coords), 1.0)
    if len(coords) == 3:
        return HPoint(*(decode_value(v, exact=False) for v in coords))
    raise SceneError(f"point {text!r} must be 'x,y' or 'x,y,z'")


def _write_svg(path: Optional[str], content: str) -> None:
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(content)


# ----- verify ---------------------------------------------------------------


def _print_verify_text(report) -> None:
    conditions, ch = report.conditions, report.chart
    for name, v in conditions.named:
        flag = "holds" if v.holds else "fails"
        extra = "  (degenerate witness)" if v.degenerate else ""
        print(f"{name:<11} {flag}  residual {_fmt_value(v.residual)}{extra}")
    if ch is None:
        print("chart       degenerate (frame could not be built)")
    else:
        crit = "undefined" if ch.degenerate else "p = q" if ch.criterion else "p != q"
        print(
            f"chart       b1={_fmt_value(ch.b1)} c2={_fmt_value(ch.c2)} "
            f"p={_fmt_value(ch.p)} q={_fmt_value(ch.q)}  criterion: {crit}"
        )
    if conditions.agree:
        state = "all four conditions hold" if conditions.all_hold else "all four conditions fail"
        print(f"agreement   {state}")
    else:
        print("agreement   conditions disagree (degenerate or perturbed input)")


def _cmd_verify(args: argparse.Namespace) -> int:
    scene = load_scene(args.scene)
    overrides = {}
    if args.mode:
        overrides["mode"] = args.mode
    if args.epsilon is not None:
        overrides["epsilon"] = args.epsilon
    if overrides:
        scene = scene_from_dict({**scene_to_dict(scene), **overrides})

    cfg, report = _verify(scene)

    if args.json:
        print(report_to_json(report))
    else:
        _print_verify_text(report)

    conditions = report.conditions
    if args.svg:
        witnesses = (conditions.outer6.witness_conic, conditions.inner6.witness_conic)
        _write_svg(args.svg, svg.render_configuration(cfg, witnesses, scene.epsilon))
    return EXIT_OK if conditions.agree else EXIT_DISAGREE


# ----- morley ---------------------------------------------------------------


def _porism(outer: Conic, inner: Conic, n: int, samples: int, args: argparse.Namespace) -> dict:
    """The JSON payload of ``porism_check``: closure at exactly ``n`` steps
    from ``samples`` spread starting points."""
    report = poncelet.porism_check(outer, inner, expected_n=n, num_samples=samples,
                                   closure_tol=args.closure_tol, eps=args.epsilon)
    return {
        "expected_n": n,
        "all_closed": report.all_closed,
        "max_gap": report.max_gap,
        "steps": list(report.steps),
    }


def _cmd_morley(args: argparse.Namespace) -> int:
    tri = _parse_triangle(args.triangle)
    data = morley.morley_config(tri, args.epsilon)
    cfg = data.config
    _, spread = morley.side_spread(data.trisector_meets)
    payload = {
        "triangle": [[float(v) for v in p.coords] for p in tri.vertices],
        "morley_triangle": [[float(v) for v in p.coords] for p in (cfg.U1, cfg.V1, cfg.W1)],
        "equilateral_relative_spread": spread,
        "verdicts": {
            name: {"holds": rec.holds, "residual": float(rec.residual)}
            for name, rec in data.report.named
        },
        "centers": {
            "first": [float(v) for v in data.centers.first.coords],
            "second": [float(v) for v in data.centers.second.coords],
        },
        "inner_conic": [float(v) for v in data.inner_conic.coeffs],
        "cevian_conic": [float(v) for v in data.cevian_conic.coeffs],
    }
    ok = data.report.all_hold
    if args.poncelet_samples:
        payload["porism"] = _porism(data.inner_conic, data.cevian_conic, 3, args.poncelet_samples, args)
        ok = ok and payload["porism"]["all_closed"]

    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(f"equilateral relative spread: {spread:.3e}")
        for name, rec in payload["verdicts"].items():
            print(f"{name:<11} {'holds' if rec['holds'] else 'fails'}  residual {rec['residual']:.3e}")
        second = payload["centers"]["second"]
        print(f"second trisector center: ({second[0]:.6g} : {second[1]:.6g} : {second[2]:.6g})")
        if "porism" in payload:
            p = payload["porism"]
            state = "closed" if p["all_closed"] else "did not close"
            print(f"chains {state} at n=3 over {args.poncelet_samples} samples (max gap {p['max_gap']:.3e})")

    if args.svg:
        _write_svg(args.svg, svg.render_morley(data, args.epsilon))
    return EXIT_OK if ok else EXIT_DISAGREE


# ----- poncelet -------------------------------------------------------------


def _cmd_poncelet(args: argparse.Namespace) -> int:
    outer = _parse_conic(args.outer)
    inner = _parse_conic(args.inner)
    if args.expected_n is not None:
        payload = {**_porism(outer, inner, args.expected_n, args.samples, args), "samples": args.samples}
        closed = payload["all_closed"]
        if args.json:
            print(json.dumps(payload, indent=2, sort_keys=True))
        else:
            state = "all chains closed" if closed else "some chains did not close"
            print(f"{state} at n={args.expected_n} over {args.samples} samples (max gap {payload['max_gap']:.3e})")
        if args.svg:
            chain = poncelet.trace_chain(outer, inner, poncelet.find_point_on_conic(outer, args.epsilon),
                                         max(args.expected_n, 3), args.closure_tol, args.epsilon)
            _write_svg(args.svg, svg.render_chain(outer, inner, chain, args.epsilon))
        return EXIT_OK if closed else EXIT_DISAGREE

    if not args.start:
        raise SceneError("either --start or --expected-n with --samples is required")
    start = _parse_point(args.start)
    chain = poncelet.trace_chain(outer, inner, start, args.max_steps, args.closure_tol, args.epsilon)
    payload = {
        "closure_step": chain.closure_step,
        "gap": chain.gap,
        "points": [[float(v) for v in p.coords] for p in chain.points],
    }
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        if chain.closed:
            print(f"chain closed at step {chain.closure_step} (gap {chain.gap:.3e})")
        else:
            print(f"chain did not close within {args.max_steps} steps (best gap {chain.gap:.3e})")
    if args.svg:
        _write_svg(args.svg, svg.render_chain(outer, inner, chain, args.epsilon))
    return EXIT_OK if chain.closed else EXIT_DISAGREE


# ----- entry point ----------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="conconic",
        description="Verify six-cevian conconicity conditions, trisector "
        "configurations, and tangent chain closures.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    verify_cmd = sub.add_parser("verify", help="check the four conditions on a scene file")
    verify_cmd.add_argument("scene", help="path to a scene JSON file")
    verify_cmd.add_argument("--mode", choices=("rational", "float"), default=None,
                            help="override the scene's arithmetic backend")
    verify_cmd.add_argument("--epsilon", type=_tolerance, default=None,
                            help="float-mode tolerance for residual predicates")
    verify_cmd.add_argument("--svg", metavar="PATH", help="write a drawing of the configuration")
    verify_cmd.add_argument("--json", action="store_true", help="emit the report as JSON")
    verify_cmd.set_defaults(func=_cmd_verify)

    morley_cmd = sub.add_parser("morley", help="build and check a trisector configuration")
    morley_cmd.add_argument("--triangle", required=True,
                            help="three vertices as 'x,y x,y x,y'")
    morley_cmd.add_argument("--poncelet-samples", type=int, default=0, metavar="N",
                            help="also check chain closure at n=3 from N sample points")
    morley_cmd.add_argument("--epsilon", type=_tolerance, default=DEFAULT_EPS)
    morley_cmd.add_argument("--closure-tol", type=_tolerance, default=DEFAULT_CLOSURE_TOL)
    morley_cmd.add_argument("--svg", metavar="PATH", help="write a drawing of the configuration")
    morley_cmd.add_argument("--json", action="store_true", help="emit the report as JSON")
    morley_cmd.set_defaults(func=_cmd_morley)

    poncelet_cmd = sub.add_parser("poncelet", help="trace tangent chains between two conics")
    poncelet_cmd.add_argument("--outer", required=True, metavar="C",
                              help="outer conic, six comma-separated coefficients")
    poncelet_cmd.add_argument("--inner", required=True, metavar="C",
                              help="inner conic, six comma-separated coefficients")
    poncelet_cmd.add_argument("--start", metavar="PT", help="chain start 'x,y' on the outer conic")
    poncelet_cmd.add_argument("--max-steps", type=int, default=100)
    poncelet_cmd.add_argument("--expected-n", type=int, default=None,
                              help="porism mode: require closure at exactly this step")
    poncelet_cmd.add_argument("--samples", type=int, default=20,
                              help="porism mode: number of starting points")
    poncelet_cmd.add_argument("--epsilon", type=_tolerance, default=DEFAULT_EPS)
    poncelet_cmd.add_argument("--closure-tol", type=_tolerance, default=DEFAULT_CLOSURE_TOL)
    poncelet_cmd.add_argument("--svg", metavar="PATH", help="write a drawing of the chain")
    poncelet_cmd.add_argument("--json", action="store_true", help="emit the report as JSON")
    poncelet_cmd.set_defaults(func=_cmd_poncelet)
    return parser


# ``poncelet`` options whose values may start with a minus sign
_SIGNED_VALUE_OPTIONS = ("--outer", "--inner", "--start")
_SIGNED_VALUE = re.compile(r"-[0-9.]")


def _join_signed_values(argv: Sequence[str]) -> list:
    """``poncelet`` arguments with ``--outer -1,0,...`` joined into
    ``--outer=-1,0,...``.  argparse reads a token that starts with ``-``,
    unless it is a plain negative number, as an option, which would leave
    such an option without its value.  Only a value that starts with a
    minus sign and then a digit or a point is joined; every other token
    reaches argparse as it is."""
    argv = list(argv)
    if argv[:1] != ["poncelet"]:
        return argv
    out = []
    tokens = iter(argv)
    for token in tokens:
        if token in _SIGNED_VALUE_OPTIONS:
            value = next(tokens, None)
            if value is not None and _SIGNED_VALUE.match(value):
                token = f"{token}={value}"
            elif value is not None:
                out.append(token)
                token = value
        out.append(token)
    return out


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = build_parser().parse_args(_join_signed_values(sys.argv[1:] if argv is None else argv))
    except SystemExit as exc:  # argparse exits 2 on usage errors; invalid input is 1 here
        return EXIT_INVALID if exc.code else EXIT_OK
    try:
        return args.func(args)
    except (SceneError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_INVALID
    except TheoremConsistencyError as err:
        print(f"internal consistency violation: {err}", file=sys.stderr)
        return EXIT_DISAGREE
    except GeometryError as err:
        print(f"error: {type(err).__name__}: {err}", file=sys.stderr)
        return EXIT_INVALID
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
