"""The comparison of ``scripts/trace_diff.py`` on fixed metric dicts."""

from conftest import load_script

PARENT = {
    "linalg.det.calls_per_op": 2.0,
    "linalg.det.self_ms_per_op": 0.05,
    "linalg.det.float_calls_per_op": 2.0,
    "conics.conic_through_points.calls_per_op": 3.5,
    "conics.conic_through_points.self_ms_per_op": 0.2,
    "poncelet.poncelet_step.calls_per_op": 96.0,
    "poncelet.poncelet_step.self_ms_per_op": 1.5,
    "svg.render_chain.calls_per_op": 0.0,
    "svg.render_chain.self_ms_per_op": 0.0,
    "poncelet.trace_chain.steps_per_chain": 3.0,
    "fail_frac": 0.0,
}


def test_equal_calls_print_only_the_self_times_side_by_side():
    change = dict(PARENT, **{"poncelet.poncelet_step.self_ms_per_op": 1.1, "fail_frac": 0.5})
    calls, self_ms, vanished = load_script("scripts/trace_diff.py").compare(PARENT, change)
    assert calls == [] and vanished == []
    # functions with no calls on either side are left out
    assert self_ms == [
        ("linalg.det", 0.05, 0.05),
        ("conics.conic_through_points", 0.2, 0.2),
        ("poncelet.poncelet_step", 1.5, 1.1),
    ]


def test_a_function_whose_calls_fall_to_zero_has_vanished():
    change = dict(PARENT, **{
        "conics.conic_through_points.calls_per_op": 0.0,
        "conics.conic_through_points.self_ms_per_op": 0.0,
        "linalg.det.float_calls_per_op": 0.0,   # a backend count, not a function
        "svg.render_chain.calls_per_op": 1.0,
    })
    del change["linalg.det.calls_per_op"]
    calls, self_ms, vanished = load_script("scripts/trace_diff.py").compare(PARENT, change)
    assert calls == [
        ("linalg.det.calls_per_op", 2.0, None),
        ("linalg.det.float_calls_per_op", 2.0, 0.0),
        ("conics.conic_through_points.calls_per_op", 3.5, 0.0),
        ("svg.render_chain.calls_per_op", 0.0, 1.0),
    ]
    # a metric missing from the change reads as no calls
    assert vanished == ["linalg.det", "conics.conic_through_points"]
    assert ("svg.render_chain", 0.0, 0.0) in self_ms and ("linalg.det", 0.05, 0.05) in self_ms


def test_metrics_only_the_change_has_come_last():
    change = dict(PARENT, **{"conics._fit.calls_per_op": 3.5, "conics._fit.self_ms_per_op": 0.2})
    calls, self_ms, vanished = load_script("scripts/trace_diff.py").compare(PARENT, change)
    assert calls == [("conics._fit.calls_per_op", None, 3.5)]
    assert self_ms[-1] == ("conics._fit", None, 0.2) and vanished == []
