"""The exact output families of ``scripts/output_dump.py`` are pinned at
seed 1, so a change that must leave exact verdicts, residuals, witnesses,
charts, sextuple oracles and sixth feet byte-identical is checked by
tier-1.  The float families are left out: their residuals are expected to
change when the float verdict scale does."""

import contextlib
import importlib.util
import io
from pathlib import Path

OUTPUT_DUMP = Path(__file__).resolve().parent.parent / "scripts" / "output_dump.py"

EXACT_DIGESTS = {
    "verdicts": "82e201479833b519f8870959331b9d1d10ea59bedf4b070af35a059664d9de56",
    "residuals": "7881ad8a34f211dd6abae379487f798db3ee529d6cd1456fee4590b9192b80c7",
    "witnesses": "a15ff757080585375cbbb1ec1d4d5e9e63fd3edf54d1c352f2c2200126f0d9af",
    "charts": "25343af3447fb8a3f9fc8c0768fb96f6c3982c69b5fff1f5c53a8d25465a27fb",
    "sextuples": "e1ae27eda1e863c26acc03ce8a77b4d70aab3916a4fabeab2adeb53349b3b0be",
    "sixth_feet": "ba2881a6e538ff0046ba325ed7554442789c4260d80b2eb143f7768372709fc1",
}


def _load_output_dump():
    spec = importlib.util.spec_from_file_location("output_dump", OUTPUT_DUMP)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_exact_output_families_keep_their_seed_1_digests():
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        assert _load_output_dump().main(["--seed", "1"]) == 0
    digests = {}
    for line in stdout.getvalue().splitlines():
        family, _count, digest = line.split()
        digests[family] = digest
    assert {family: digests.get(family) for family in EXACT_DIGESTS} == EXACT_DIGESTS
