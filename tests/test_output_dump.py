"""Output families of ``scripts/output_dump.py`` pinned at seed 1, so a
change that must leave them byte-identical is checked by tier-1: the exact
verdicts, residuals, witnesses, charts, generated triangles and feet,
sextuple oracles and sixth feet, the float Poncelet chains (closure
steps and gaps, and every vertex and link coordinate), the float sixth feet
and the SVG bytes.  The float verdict, residual, witness and chart
families are left out: their residuals are expected to change when the
float verdict scale does (ROADMAP item 1).  That re-scales residuals, not
chains, sixth feet or drawings, so those digests stay fixed."""

import contextlib
import hashlib
import io

import pytest

from conftest import load_script

EXACT_DIGESTS = {
    "verdicts": "82e201479833b519f8870959331b9d1d10ea59bedf4b070af35a059664d9de56",
    "residuals": "7881ad8a34f211dd6abae379487f798db3ee529d6cd1456fee4590b9192b80c7",
    "witnesses": "a15ff757080585375cbbb1ec1d4d5e9e63fd3edf54d1c352f2c2200126f0d9af",
    "charts": "25343af3447fb8a3f9fc8c0768fb96f6c3982c69b5fff1f5c53a8d25465a27fb",
    "feet": "ef486ea3f902a3cd9f8f0071d8b9992be4ee1ddd0156d3471c16aa9ba1c75eb9",
    "sextuples": "e1ae27eda1e863c26acc03ce8a77b4d70aab3916a4fabeab2adeb53349b3b0be",
    "sixth_feet": "ba2881a6e538ff0046ba325ed7554442789c4260d80b2eb143f7768372709fc1",
}

CHAIN_DIGESTS = {
    "chains": "9d11cc3a31353412beacf9d626f324989bd83581ceba093e4d6d3d8a46a67c0a",
    "chain_points": "c50654936be96c5bbde4ff841b03e8f2f2628b718c10c43d3f48e54ed0a22b19",
}

FLOAT_DIGESTS = {
    "float_sixth_feet": "654a0b56ccccd9116d967f4645e1045d8271f53c14ff18fa1cc70be35d06578d",
    "svg": "62199775f30a2ff09d7e5499c431284da7a8fc7b08deea03068e91763cc3ac1d",
}


def _run_output_dump(*argv) -> str:
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        assert load_script("scripts/output_dump.py").main(list(argv)) == 0
    return stdout.getvalue()


@pytest.fixture(scope="module")
def seed_1_stdout():
    return _run_output_dump("--seed", "1")


@pytest.fixture(scope="module")
def seed_1_digests(seed_1_stdout):
    digests = {}
    for line in seed_1_stdout.splitlines():
        family, _count, digest = line.split()
        digests[family] = digest
    return digests


def test_exact_output_families_keep_their_seed_1_digests(seed_1_digests):
    assert {family: seed_1_digests.get(family) for family in EXACT_DIGESTS} == EXACT_DIGESTS


def test_float_chain_families_keep_their_seed_1_digests(seed_1_digests):
    assert {family: seed_1_digests.get(family) for family in CHAIN_DIGESTS} == CHAIN_DIGESTS


def test_float_sixth_feet_and_svg_families_keep_their_seed_1_digests(seed_1_digests):
    assert {family: seed_1_digests.get(family) for family in FLOAT_DIGESTS} == FLOAT_DIGESTS


def test_seeds_range_prints_the_digest_of_the_single_seed_runs_in_a_row(seed_1_stdout):
    # the digest a loop of --seed runs piped to sha256sum reads
    both = seed_1_stdout + _run_output_dump("--seed", "2")
    assert _run_output_dump("--seeds", "1-2") == hashlib.sha256(both.encode()).hexdigest() + "\n"
