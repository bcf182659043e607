"""``scripts/op_count.py`` counts the same work on every run."""

import importlib.util
import random
import sys
import tempfile
from collections import Counter
from pathlib import Path

OP_COUNT = Path(__file__).resolve().parent.parent / "scripts" / "op_count.py"


def _load_op_count():
    spec = importlib.util.spec_from_file_location("op_count", OP_COUNT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_counts_of_exact_sweep_ops_repeat_exactly():
    count = _load_op_count().count
    first = count("exact_sweep", 7, 3)
    second = count("exact_sweep", 7, 3)
    opcodes, calls, failed = first
    assert first == second
    assert failed == 0
    assert sum(opcodes.values()) > 0 and sum(calls.values()) > 0
    # the package's own kernels are counted under their module names
    assert opcodes["conconic.scalars.canonical_tuple"] > 0
    assert calls["conconic.cevians.to_chart"] == 3


def _calls_during(fn) -> Counter:
    """Calls (frame entries) made while ``fn()`` runs, keyed by
    ``module.name``."""
    calls = Counter()

    def on_call(frame, event, arg):
        calls[f"{frame.f_globals.get('__name__')}.{frame.f_code.co_name}"] += 1

    sys.settrace(on_call)
    try:
        fn()
    finally:
        sys.settrace(None)
    return calls


def _edges_of_ops(workload: str, seed: int, n_ops: int) -> Counter:
    """Calls (frame entries) over operations ``0 .. n_ops-1`` of a workload,
    after its warm-up, keyed by (caller, callee) ``module.name`` pairs."""
    edges = Counter()

    def name(frame):
        return f"{frame.f_globals.get('__name__')}.{frame.f_code.co_name}"

    def on_call(frame, event, arg):
        edges[name(frame.f_back), name(frame)] += 1

    with tempfile.TemporaryDirectory() as workdir:
        wl = _load_op_count().load_workloads().WORKLOADS[workload](seed, Path(workdir))
        wl.setup()
        try:
            for i in range(wl.warmup_ops):
                wl.traced_op(i)
            sys.settrace(on_call)
            try:
                for i in range(n_ops):
                    wl.traced_op(i)
            finally:
                sys.settrace(None)
        finally:
            wl.close()
    return edges


def test_exact_feet_are_built_in_one_pass_and_lazy_attributes_run_no_functools_frame():
    # ops 0-4 of exact_sweep, one per generator family: feet_from_params
    # builds each exact foot from the vertex triples without foot_point,
    # and no functools frame (such as cached_property.__get__) runs
    edges = _edges_of_ops("exact_sweep", 7, 5)
    one_pass = edges["conconic.cevians.feet_from_params", "conconic.cevians._exact_foot"]
    assert one_pass > 0 and one_pass % 6 == 0
    assert edges["conconic.cevians.feet_from_params", "conconic.cevians.foot_point"] == 0
    assert [callee for _, callee in edges if callee.startswith("functools.")] == []
    # the triangles' and configurations' exactness is computed by projective.lazy
    assert edges["conconic.projective.__get__", "conconic.cevians.exact"] > 0


def test_exact_sweep_decides_identity_on_integer_triples():
    # one op per generator family: exact coincidence, join and meet never
    # reach the float zero test, and to_chart reads the chart from integer
    # brackets: no frame matrix, no composed map, no scalars.div
    _, calls, failed = _load_op_count().count("exact_sweep", 7, 5)
    assert failed == 0
    assert calls["conconic.projective.coincident"] > 0 and calls["conconic.projective.join"] > 0
    assert calls["conconic.projective._coincident"] == 0
    assert calls["conconic.cevians.to_chart"] == 5
    assert calls["conconic.projective._frame_matrix"] == 0
    assert calls["conconic.projective._map_between_frames"] == 0
    assert calls["conconic.scalars.div"] == 0


def test_float_chart_builds_one_frame_and_a_float_fit_one_norm_per_row():
    # a float to_chart builds one frame matrix, its source's, against a
    # target frame built at import, and divides only the kept coordinate of
    # each of its four images; a float _fit scales each Veronese row by one
    # row_norm
    from conconic import cevians, conics, generate
    from conconic.projective import HPoint

    tri, feet = generate.conjugate_instance(random.Random(3), "isogonal")
    cfg = cevians.build_config(generate.float_copy(tri), generate.float_copy(feet))
    calls = _calls_during(lambda: cevians.to_chart(cfg))
    assert calls["conconic.projective._frame_matrix"] == calls["conconic.projective._map_between_frames"] == 1
    assert calls["conconic.scalars.div"] == 4
    five = [HPoint(x, y, 1.0) for x, y in ((1.0, 0.0), (0.0, 1.0), (-1.0, 0.0), (0.0, -1.0), (0.6, 0.8))]
    calls = _calls_during(lambda: conics._fit(five, 1e-9))
    assert calls["conconic.conics._fit"] == 1
    assert calls["conconic.linalg.row_norm"] == 5


def test_every_six_item_condition_takes_the_one_verdict():
    # ops 0-4 of exact_sweep, one per generator family: outer6, inner6 and
    # tangent6 of every check_conditions reach conics._six_point_verdict,
    # the collapsed inner points of the through-point family included
    _, calls, failed = _load_op_count().count("exact_sweep", 7, 5)
    assert failed == 0
    assert calls["conconic.cevians.check_conditions"] == 6
    assert calls["conconic.conics._six_point_verdict"] == 3 * calls["conconic.cevians.check_conditions"]


def test_exact_six_point_verdicts_make_no_integer_elimination():
    # ops 0-4 of exact_sweep (18 verdicts) and ops 0-7 of sextuple_oracles
    # (8 verdicts): every exact residual and witness comes from brackets,
    # so linalg.bareiss, linalg.det's integer backend, is never called
    for workload, n_ops in (("exact_sweep", 5), ("sextuple_oracles", 8)):
        _, calls, failed = _load_op_count().count(workload, 7, n_ops)
        assert failed == 0
        assert calls["conconic.conics._six_point_verdict"] > 0
        assert calls["conconic.conics._bracket_parts"] > 0
        assert calls["conconic.linalg.bareiss"] == 0


def test_float_chain_steps_make_no_helper_calls():
    # ops 0-3 of float_chains: three trisector porism checks (25 chains of
    # 3 steps each) and one concentric op (20 chains of 3 steps and one of
    # 100).  Every step is one poncelet._step: the basis crosses, Gram
    # forms, norms and coincidence tests of a step are written out, and a
    # first step reads its touch points off the inner adjugate rows, so
    # what is left of linalg's triple helpers is counted below; a helper
    # call put back on the step path raises one of these counts.
    _, calls, failed = _load_op_count().count("float_chains", 7, 4)
    assert failed == 0
    steps = 3 * 25 * 3 + 20 * 3 + 100
    assert calls["conconic.poncelet._step"] == steps
    assert calls["conconic.poncelet.poncelet_step"] == 0
    # each step still goes through the names the benchmark's tracer
    # rebinds, and reads the inner dual only through tangent_lines_from
    assert calls["conconic.conics.tangent_lines_from"] == steps
    assert calls["conconic.conics.Conic.dual"] == steps
    # each tangent construction is one _meet_coords frame: it spans the
    # pencil, takes the Gram forms and solves the float root pair itself
    assert calls["conconic.conics._meet_coords"] == steps
    assert calls["conconic.conics._points_on_line"] == 0
    assert calls["conconic.conics._quadratic_root_pairs"] == 0
    assert calls["conconic.poncelet.second_intersection"] >= steps
    # no first step takes a pole or divides through scalars.div: the only
    # divisions are the two of to_xy on the centre of each porism check's
    # point search
    assert calls["conconic.conics.Conic.pole"] == 0
    assert calls["conconic.projective.HPoint.to_xy"] == 4
    assert calls["conconic.scalars.div"] == 2 * 4
    assert calls["conconic.linalg.cross"] <= 331       # 0.86 per step
    assert calls["conconic.linalg.matvec3"] <= 17      # 0.04 per step
    assert calls["conconic.linalg.dot"] <= 26          # 0.07 per step
    assert calls["conconic.linalg.row_norm"] <= 153    # 0.40 per step


def test_float_chain_steps_take_the_shared_predicates():
    # ops 0-3 of float_chains: a step tests its vertex on the outer conic
    # with Conic.contains, whose form is conics._form_zero, and its
    # coincidence tests (one on a first step, two on any later one) are
    # projective.coincident, with no private copy of either rule
    edges = _edges_of_ops("float_chains", 7, 4)
    chains = 3 * 25 + 20 + 1
    steps = 3 * 25 * 3 + 20 * 3 + 100
    assert edges["conconic.poncelet._step", "conconic.conics.contains"] == steps
    assert edges["conconic.conics.contains", "conconic.conics._form_zero"] >= steps
    assert edges["conconic.poncelet._step", "conconic.projective.coincident"] == 2 * steps - chains


def test_float_chain_points_and_lines_skip_the_generic_canonicalizer():
    # ops 0-3 of float_chains: every point and line is canonicalized by
    # scalars.canonical_triple, so the generic canonical_tuple sees only the
    # coefficient 6-tuples of the conics built (a point or line sent through
    # it raises this count); and the centre of each conic that a chain
    # orients by or a point search starts from is built once: an outer and
    # an inner conic per trisector op, one outer and two inner circles in the
    # concentric op
    _, calls, failed = _load_op_count().count("float_chains", 7, 4)
    assert failed == 0
    assert calls["conconic.scalars.canonical_tuple"] == calls["conconic.conics.Conic.__init__"] <= 20
    assert calls["conconic.scalars.canonical_triple"] > 0
    assert calls["conconic.conics.Conic._center"] == 3 * 2 + 3
