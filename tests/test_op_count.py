"""``scripts/op_count.py`` counts the same work on every run."""

import importlib.util
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


def test_exact_sweep_decides_identity_on_integer_triples():
    # one op per generator family: exact coincidence, join and meet never
    # reach the float zero test, and to_chart builds one frame matrix, its
    # source's, against a target frame built at import
    _, calls, failed = _load_op_count().count("exact_sweep", 7, 5)
    assert failed == 0
    assert calls["conconic.projective.coincident"] > 0 and calls["conconic.projective.join"] > 0
    assert calls["conconic.projective._coincident"] == 0
    assert calls["conconic.projective._frame_matrix"] == calls["conconic.cevians.to_chart"] == 5
