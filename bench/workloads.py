"""The four benchmark workloads.

A workload turns a seed into a deterministic sequence of operations.
``op(i)`` performs operation ``i`` and returns its output; ``check(i, out)``
returns None when that output matches the family's known truth, or a
message saying what is wrong.  Operation ``i`` draws its inputs from its
own ``random.Random`` derived from the seed and ``i``, so any operation can
be replayed on its own and a pass over ``range(trace_ops)`` always does the
same work.  ``traced_op`` is the in-process form of an operation for the
traced run (it differs from ``op`` only for ``cli_scenes``).

The package is reached through its modules (``generate.float_triangle``,
not a name imported at load time) so that the traced run's rebinding sees
the benchmark's own calls too.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

from conconic import cevians, cli, conics, generate, morley, poncelet
from conconic.projective import HPoint


def op_rng(seed: int, i: int) -> random.Random:
    return random.Random(seed * 1_000_003 + i)


class Workload:
    name = ""
    warmup_ops = 1      # untimed operations before measuring
    trace_ops = 1       # operations in one pass of the traced run

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        # known float-mode defects seen; an operation that hits one still
        # passes its check, and the traced run reports them per pass
        self.notes = Counter()

    def setup(self) -> None:
        pass

    def close(self) -> None:
        pass

    def op(self, i: int):
        raise NotImplementedError

    def traced_op(self, i: int):
        return self.op(i)

    def check(self, i: int, out):
        raise NotImplementedError


def _exact_zero(x) -> bool:
    return isinstance(x, (int, Fraction)) and x == 0


# ----- exact_sweep -----------------------------------------------------------


class ExactSweep(Workload):
    """Generate one exact instance per op, cycling through five families,
    and run build_config, check_conditions and to_chart on it."""

    name = "exact_sweep"
    FAMILIES = ("solved", "isogonal", "isotomic", "through", "perturbed")
    warmup_ops = 5
    trace_ops = 50

    def op(self, i):
        family = self.FAMILIES[i % 5]
        rnd = op_rng(self.seed, i)
        points = None
        if family == "solved":
            tri, feet, _ = generate.concurrency_solved_instance(rnd)
        elif family in ("isogonal", "isotomic"):
            tri, feet = generate.conjugate_instance(rnd, family)
        elif family == "through":
            tri, feet, p1, p2 = generate.through_point_instance(rnd)
            points = (p1, p2)
        else:
            tri, feet = generate.perturbed_failing_instance(rnd)
        cfg = cevians.build_config(tri, feet)
        report = cevians.check_conditions(cfg)
        chart = cevians.to_chart(cfg)
        return family, report, chart, points

    def check(self, i, out):
        family, report, chart, points = out
        positive = family != "perturbed"
        verdicts = (report.outer6, report.inner6, report.tangent6, report.concurrent)
        if positive:
            if report.booleans != (True,) * 4:
                return f"{family}: conditions {report.booleans}, expected all to hold"
            if not all(_exact_zero(v.residual) for v in verdicts):
                return f"{family}: residuals {[v.residual for v in verdicts]} are not exactly 0"
        elif any(report.booleans):
            return f"perturbed: conditions {report.booleans}, expected none to hold"
        if points is not None:
            witness = report.inner6.witness_conic
            if witness is None or witness.classify() != "double_line":
                return "through: inner6 witness is not a double line"
            if not all(witness.contains(p) for p in points):
                return "through: inner6 witness misses a generating point"
        if chart.degenerate or chart.criterion != positive:
            return f"{family}: chart p={chart.p} q={chart.q}, expected p == q to be {positive}"
        return None


# ----- float_chains ----------------------------------------------------------


def _circle(radius: float) -> conics.Conic:
    return conics.Conic.from_coeffs((1.0, 0.0, 1.0, 0.0, 0.0, -radius * radius))


class FloatChains(Workload):
    """Trisector configurations with 3-step porism checks; every fourth op is
    a concentric pair (n = 3..8) plus a 100-step chain that must not close."""

    name = "float_chains"
    warmup_ops = 4
    trace_ops = 24      # 18 trisector ops and n = 3..8 once each

    def op(self, i):
        if i % 4 == 3:
            n = 3 + (i // 4) % 6
            outer = _circle(2.0)
            r = 2.0 * math.cos(math.pi / n)
            report = poncelet.porism_check(outer, _circle(r), expected_n=n,
                                           num_samples=20, closure_tol=1e-9)
            chain = poncelet.trace_chain(outer, _circle(1.01 * r), HPoint(2.0, 0.0, 1.0),
                                         max_steps=100)
            return "concentric", n, report, chain
        tri = generate.float_triangle(op_rng(self.seed, i), 15.0, 150.0)
        data = morley.morley_config(tri)
        report = poncelet.porism_check(data.inner_conic, data.cevian_conic,
                                       expected_n=3, num_samples=25, closure_tol=1e-7)
        return "trisector", tri, data, report

    def check(self, i, out):
        if out[0] == "concentric":
            _, n, report, chain = out
            if not report.all_closed or report.steps != (n,) * 20:
                return f"concentric n={n}: steps {report.steps}"
            if chain.closed:
                return f"concentric n={n}: 1%-perturbed chain closed at {chain.closure_step}"
            return None
        _, tri, data, report = out
        _, spread = morley.equilateral_side_spread(tri)
        if not spread < 1e-10:
            return f"trisector: equilateral spread {spread:.3e}"
        if not data.report.all_hold:
            return f"trisector: conditions {data.report.booleans}"
        if report.steps != (3,) * 25:
            return f"trisector: steps {report.steps}"
        return None


# ----- sextuple_oracles ------------------------------------------------------


class SextupleOracles(Workload):
    """Alternate point and line sextuples; one in four of each is on (tangent
    to) a conic by construction, the rest are random."""

    name = "sextuple_oracles"
    warmup_ops = 8
    trace_ops = 64

    @staticmethod
    def kind(i):
        return ("lines" if i % 2 else "points"), (i // 2) % 4 == 0

    def op(self, i):
        kind, positive = self.kind(i)
        rnd = op_rng(self.seed, i)
        if kind == "points":
            pts = generate.conconic_sextuple(rnd) if positive else generate.random_sextuple(rnd)
            return (conics.conconic(pts).holds, conics.conconic_by_fit(pts),
                    conics.pascal_collinear(pts))
        lines = generate.cotangent_sextuple(rnd) if positive else generate.random_line_sextuple(rnd)
        return conics.cotangent(lines).holds, conics.brianchon_concurrent(lines)

    def check(self, i, out):
        kind, positive = self.kind(i)
        if len(set(out)) != 1:
            return f"{kind}: routes disagree {out}"
        if positive and not out[0]:
            return f"{kind}: engineered positive rejected"
        return None


# ----- cli_scenes ------------------------------------------------------------


def _q(x) -> str:
    f = Fraction(x)
    return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"


def _side_param(tri, side, foot) -> Fraction:
    """t with foot = P + t (Q - P) on the side (P, Q)."""
    (px, py), (qx, qy) = (v.to_xy() for v in tri.side_endpoints(side))
    fx, fy = foot.to_xy()
    return (fx - px) / (qx - px) if qx != px else (fy - py) / (qy - py)


def _triangle_field(tri):
    return [[_q(x), _q(y)] for x, y in (v.to_xy() for v in tri.vertices)]


def _params_scene(tri, feet):
    names = ("A1", "B1", "C1", "A2", "B2", "C2")
    sides = cevians.SIDES * 2
    return {"triangle": _triangle_field(tri),
            "feet": {"params": [_q(_side_param(tri, side, getattr(feet, name)))
                                for name, side in zip(names, sides)]}}


def _generator_scene(tri, feet, kind):
    first = zip(cevians.SIDES, (feet.A1, feet.B1, feet.C1))
    return {"triangle": _triangle_field(tri),
            "feet": {"generator": kind,
                     "params": [_q(_side_param(tri, side, foot)) for side, foot in first]}}


def _through_scene(tri, p1, p2):
    return {"triangle": _triangle_field(tri),
            "feet": {"generator": "through_points",
                     "points": [[_q(x), _q(y)] for x, y in (p1.to_xy(), p2.to_xy())]}}


class CliScenes(Workload):
    """One op is one ``python -m conconic.cli`` process, closed loop with a
    single client, over a fixed cycle of seeded argv lists."""

    name = "cli_scenes"
    warmup_ops = 1

    def setup(self):
        rnd = random.Random(self.seed)
        self.workdir.mkdir(parents=True, exist_ok=True)
        solved_tri, solved_feet, _ = generate.concurrency_solved_instance(rnd)
        pert_tri, pert_feet = generate.perturbed_failing_instance(rnd)
        iso_tri, iso_feet = generate.conjugate_instance(rnd, "isogonal")
        tom_tri, tom_feet = generate.conjugate_instance(rnd, "isotomic")
        thr_tri, _, p1, p2 = generate.through_point_instance(rnd)
        scenes = {
            "solved": _params_scene(solved_tri, solved_feet),
            "perturbed": _params_scene(pert_tri, pert_feet),
            "isogonal": _generator_scene(iso_tri, iso_feet, "isogonal"),
            "isotomic": _generator_scene(tom_tri, tom_feet, "isotomic"),
            "through": _through_scene(thr_tri, p1, p2),
        }
        for name in ("isogonal", "isotomic", "through"):
            scenes[name + "_float"] = dict(scenes[name], mode="float")
        paths = {}
        for name, scene in scenes.items():
            paths[name] = self.workdir / f"{name}.json"
            paths[name].write_text(json.dumps(scene), encoding="utf-8")

        def svg(k):
            return str(self.workdir / f"out{k}.svg")

        def verify(name, *flags, holds=True, mode="rational"):
            return (["verify", str(paths[name]), *flags],
                    {"cmd": "verify", "holds": holds, "mode": mode})

        def morley_argv(*flags):
            tri = generate.float_triangle(rnd, 15.0, 150.0)
            text = " ".join(f"{x!r},{y!r}" for x, y in (v.to_xy() for v in tri.vertices))
            return (["morley", "--triangle", text, "--poncelet-samples", "25", *flags],
                    {"cmd": "morley"})

        def poncelet_argv(n, *flags):
            radius = rnd.choice((1.0, 2.0, 3.0, 5.0))
            r2 = (radius * math.cos(math.pi / n)) ** 2
            return (["poncelet", "--outer", f"1,0,1,0,0,{-radius * radius!r}",
                     "--inner", f"1,0,1,0,0,{-r2!r}", "--expected-n", str(n),
                     "--samples", "20", *flags],
                    {"cmd": "poncelet", "n": n})

        self.runs = [
            verify("solved", "--json"),
            verify("perturbed", "--json", holds=False),
            verify("isogonal", "--json", "--svg", svg(1)),
            verify("isotomic"),
            verify("through", "--json"),
            verify("solved", "--mode", "float", "--json", mode="float"),
            verify("isogonal_float", "--json", mode="float"),
            verify("isotomic_float", "--json", "--svg", svg(2), mode="float"),
            verify("through_float", mode="float"),
            verify("perturbed", "--mode", "float", "--json", holds=False, mode="float"),
            morley_argv("--json"),
            morley_argv("--json", "--svg", svg(3)),
            # the chain SVGs are the slowest runs; three of them put op_ms_p90
            # inside one group of similar runs instead of between two groups
            poncelet_argv(3, "--json", "--svg", svg(4)),
            poncelet_argv(5, "--svg", svg(5)),
            poncelet_argv(8, "--json", "--svg", svg(6)),
        ]
        self.trace_ops = len(self.runs)
        self.env = dict(os.environ)
        src = str(Path(cevians.__file__).resolve().parent.parent)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, self.env.get("PYTHONPATH")) if p)
        self.stderr = open(self.workdir / "cli-stderr.log", "wb")
        self.peak_child_kb = 0

    def close(self):
        stderr = getattr(self, "stderr", None)
        if stderr is not None:
            stderr.close()

    def op(self, i):
        argv, _ = self.runs[i % len(self.runs)]
        proc = subprocess.Popen([sys.executable, "-m", "conconic.cli", *argv],
                                stdout=subprocess.PIPE, stderr=self.stderr, env=self.env)
        with proc.stdout:
            out = proc.stdout.read()
        # wait4 instead of wait(), to read this child's own peak RSS
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.peak_child_kb = max(self.peak_child_kb, usage.ru_maxrss)
        return proc.returncode, out.decode("utf-8")

    def traced_op(self, i):
        argv, _ = self.runs[i % len(self.runs)]
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
        return code, buf.getvalue()

    def check(self, i, out):
        argv, want = self.runs[i % len(self.runs)]
        code, text = out
        if "--svg" in argv:
            # removed once read, so the next run of this argv must write it again
            svg = Path(argv[argv.index("--svg") + 1])
            complete = svg.read_text(encoding="utf-8").rstrip().endswith("</svg>")
            svg.unlink()
            if not complete:
                return f"{argv[0]}: incomplete SVG"
        if "--json" in argv and want["cmd"] == "verify":
            return self._check_verify(want, code, json.loads(text))
        if code != 0:
            return f"{argv[0]}: exit code {code}"
        if "--json" not in argv:
            return self._check_text(argv, want, text)
        data = json.loads(text)
        if want["cmd"] == "morley":
            verdicts = [v["holds"] for v in data["verdicts"].values()]
            if not all(verdicts) or data["equilateral_relative_spread"] >= 1e-10:
                return f"morley: verdicts {verdicts}, spread {data['equilateral_relative_spread']}"
            if not data["porism"]["all_closed"] or data["porism"]["steps"] != [3] * 25:
                return f"morley: porism steps {data['porism']['steps']}"
            return None
        if not data["all_closed"] or data["steps"] != [want["n"]] * 20:
            return f"poncelet n={want['n']}: steps {data['steps']}"
        return None

    def _check_verify(self, want, code, data):
        holds = [v["holds"] for v in data["verdicts"].values()]
        if code != (0 if data["agree"] else 2):
            return f"verify: exit code {code} with agree={data['agree']}"
        if data["mode"] != want["mode"]:
            return f"verify: mode {data['mode']}, expected {want['mode']}"
        if not data["agree"] and want["mode"] == "float" and not want["holds"]:
            # the float tolerance accepts some conditions of a perturbed instance
            self.notes["scene.float_verdict_disagree"] += 1
            return None
        if data["all_hold"] != want["holds"] or holds != [want["holds"]] * 4:
            return f"verify: verdicts {holds}, expected all {want['holds']}"
        if data["chart"]["criterion"] != data["all_hold"]:
            if want["mode"] == "rational":
                return f"verify: chart criterion {data['chart']['criterion']} on exact input"
            self.notes["scene.chart_criterion_mismatch"] += 1
        return None

    @staticmethod
    def _check_text(argv, want, text):
        if want["cmd"] == "verify":
            state = "hold" if want["holds"] else "fail"
            expected = f"agreement   all four conditions {state}"
        elif want["cmd"] == "morley":
            expected = "chains closed at n=3"
        else:
            expected = f"all chains closed at n={want['n']}"
        return None if expected in text else f"{argv[0]}: output lacks {expected!r}"


WORKLOADS = {cls.name: cls for cls in (ExactSweep, FloatChains, CliScenes, SextupleOracles)}
