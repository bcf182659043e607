"""The summary of ``scripts/bench_pairs.py`` on canned paired runs, and its
raw setup timing on fake checkouts."""

import argparse
import sys

import pytest

from conftest import load_script


def _runs(**series):
    length = len(next(iter(series.values())))
    return [{"metrics": {name: {"value": values[i]} for name, values in series.items()}}
            for i in range(length)]


def test_summary_reads_quartiles_iqr_and_wins_in_the_better_direction():
    summarize = load_script("scripts/bench_pairs.py").summarize
    parent = _runs(ops_per_s=[100, 110, 90, 105, 95], op_ms_p50=[2.0, 1.8, 2.2, 1.9, 2.1])
    change = _runs(ops_per_s=[130, 110, 125, 85, 140], op_ms_p50=[1.5, 1.8, 1.6, 2.0, 2.2])
    ops, p50 = summarize(parent, change, [("ops_per_s", "higher"), ("op_ms_p50", "lower")])
    assert ops["metric"] == "ops_per_s" and ops["pairs"] == 5
    assert ops["parent"] == (95, 100, 105) and ops["change"] == (110, 125, 130)
    assert ops["parent_iqr"] == 10
    # pair 2 ties (110 and 110) and counts for neither side
    assert (ops["change_wins"], ops["parent_wins"]) == (3, 1)
    assert p50["parent"] == pytest.approx((1.9, 2.0, 2.1))
    assert p50["parent_iqr"] == pytest.approx(0.2)
    # lower is better: 1.5 < 2.0, 1.6 < 2.2, 2.0 > 1.9 and 2.2 > 2.1
    assert (p50["change_wins"], p50["parent_wins"]) == (2, 2)


def test_summary_of_one_pair():
    summarize = load_script("scripts/bench_pairs.py").summarize
    (row,) = summarize(_runs(setup_s=[0.1]), _runs(setup_s=[0.1]), [("setup_s", "lower")])
    assert row["parent"] == row["change"] == (0.1, 0.1, 0.1)
    assert row["parent_iqr"] == 0 and (row["change_wins"], row["parent_wins"]) == (0, 0)


def _verdict(parent, change, better="higher", bound=0.2):
    bench_pairs = load_script("scripts/bench_pairs.py")
    (row,) = bench_pairs.summarize(_runs(m=parent), _runs(m=change), [("m", better)])
    return bench_pairs.verdict(row, better, bound)


def test_a_gain_wins_nine_tenths_of_the_pairs_by_more_than_the_parent_iqr():
    parent = [100, 110, 90, 105, 95, 101, 99, 103, 97, 100]   # median 100, IQR 5.5
    assert _verdict(parent, [v + 20 for v in parent]) == "gain"
    # 9 of 10 pairs won is enough, 8 is not
    nine = [v + 20 for v in parent[:9]] + [parent[9] - 1]
    eight = [v + 20 for v in parent[:8]] + [parent[8] - 1, parent[9] - 1]
    assert _verdict(parent, nine) == "gain"
    assert _verdict(parent, eight) == "within bound"
    # every pair won, by less than the parent's IQR: no gain
    assert _verdict(parent, [v + 5 for v in parent]) == "within bound"
    # lower is better
    assert _verdict([2.0, 2.1, 1.9, 2.0, 2.05], [1.5, 1.6, 1.4, 1.5, 1.55], better="lower", bound=0.25) == "gain"


def test_a_median_worse_past_the_bound_is_worse():
    parent = [2.0, 2.1, 1.9, 2.0, 2.05]
    assert _verdict(parent, [2.6, 2.7, 2.5, 2.6, 2.65], better="lower", bound=0.25) == "worse"
    assert _verdict(parent, [2.4, 2.5, 2.3, 2.4, 2.45], better="lower", bound=0.25) == "within bound"
    assert _verdict([100, 101, 99, 100, 100], [79, 80, 78, 79, 79]) == "worse"


def test_a_parent_spread_wider_than_the_bound_is_unresolved_unless_the_change_wins_every_pair():
    parent = [60, 80, 100, 120, 140]    # median 100, IQR 40 > 0.2 * 100
    assert _verdict(parent, [61, 79, 101, 119, 141]) == "unresolved"
    assert _verdict(parent, [v + 1 for v in parent]) == "within bound"
    # a median worse past the bound is worse, whatever the spread
    assert _verdict(parent, [v - 30 for v in parent]) == "worse"


def test_bytecode_condition_reads_the_environment_and_the_package_cache(tmp_path):
    bytecode_condition = load_script("scripts/bench_pairs.py").bytecode_condition
    package = tmp_path / "src" / "conconic"
    (package / "__pycache__").mkdir(parents=True)
    for stem in ("__init__", "cli", "svg"):
        (package / f"{stem}.py").write_text("", encoding="utf-8")
    tag = sys.implementation.cache_tag
    (package / "__pycache__" / f"cli.{tag}.pyc").write_bytes(b"")
    (package / "__pycache__" / "svg.cpython-00.pyc").write_bytes(b"")  # another interpreter's
    line = bytecode_condition(tmp_path, {"PYTHONDONTWRITEBYTECODE": "1"})
    assert line == (f"bytecode {tmp_path}: children do not write bytecode (PYTHONDONTWRITEBYTECODE='1'); "
                    f"1/3 package modules have a {tag} .pyc")
    # unset or empty, the variable lets children write bytecode
    for env in ({}, {"PYTHONDONTWRITEBYTECODE": ""}):
        assert "children write bytecode (PYTHONDONTWRITEBYTECODE='')" in bytecode_condition(tmp_path, env)


def test_setup_line_reads_unscaled_medians_and_iqrs_in_ms():
    setup_line = load_script("scripts/bench_pairs.py").setup_line
    walls = {"parent": [0.140, 0.130, 0.136, 0.150, 0.135], "change": [0.139, 0.137, 0.160, 0.138, 0.133]}
    assert setup_line(walls) == ("setup raw (5 --setup-only children per side, unscaled wall): "
                                 "parent 136.0 ms (IQR 5.0) -> change 138.0 ms (IQR 2.0) (+1.5%)")


def test_setup_walls_alternate_setup_only_children_between_checkouts(tmp_path):
    # each fake checkout's bench/run.py logs its checkout and arguments
    log = tmp_path / "log.txt"
    for side in ("parent", "change"):
        bench = tmp_path / side / "bench"
        bench.mkdir(parents=True)
        (bench / "run.py").write_text(
            "import sys\n"
            f"with open({str(log)!r}, 'a') as fh:\n"
            f"    fh.write({side!r} + ' ' + ' '.join(sys.argv[1:]) + '\\n')\n",
            encoding="utf-8")
    args = argparse.Namespace(workload="exact_sweep", seed=7)
    walls = load_script("scripts/bench_pairs.py").setup_walls(tmp_path / "parent", tmp_path / "change", args, runs=3)
    assert [len(walls[side]) for side in ("parent", "change")] == [3, 3]
    assert all(t > 0 for side in walls.values() for t in side)
    lines = log.read_text(encoding="utf-8").splitlines()
    assert [line.split()[0] for line in lines] == ["parent", "change", "change", "parent", "parent", "change"]
    assert set(line.split(" ", 1)[1] for line in lines) == {"--workload exact_sweep --seed 7 --setup-only"}
