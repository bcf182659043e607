"""``scripts/fuzz_cli.py``: a fixed sample of mutated inputs per command
keeps every invariant of the command line."""

import sys

import pytest

from conftest import load_script

# fixed: a breach is mended, never hidden by a new seed or a smaller sample
SEED, CASES = 1, 200


@pytest.mark.parametrize("command", ["verify", "morley", "poncelet"])
def test_a_fixed_sample_of_mutated_inputs_keeps_every_invariant(command):
    fuzz = load_script("scripts/fuzz_cli.py")
    breaches, _, codes = fuzz.fuzz(command, SEED, CASES)
    assert [fuzz._describe(*breach) for breach in breaches] == []
    # the sample reaches the success and the input-error endings, and
    # verify and poncelet also reach exit 2
    assert {0, 1} <= set(codes) <= {0, 1, 2} and sum(codes.values()) == CASES
    assert command == "morley" or 2 in codes


def test_each_case_is_drawn_alike_whatever_the_sample_size():
    fuzz = load_script("scripts/fuzz_cli.py")
    for command in fuzz.COMMANDS:
        assert [fuzz.draw(command, SEED, k) for k in range(5)] == [fuzz.draw(command, SEED, k) for k in range(5)]
        assert fuzz.draw(command, SEED, 3) != fuzz.draw(command, SEED + 1, 3)


def _unprefixed(argv):
    print("no prefix", file=sys.stderr)
    return 1


def _bare_report(argv):
    print('{"mode": "float"}')
    return 0


@pytest.mark.parametrize("fake, argv, message", [
    (lambda argv: 1 / 0, [], "exception escaped main: ZeroDivisionError: division by zero"),
    (lambda argv: 3, [], "exit code 3"),
    (_unprefixed, [], "exit 1 without an error line: 'no prefix\\n'"),
    (lambda argv: 0, ["--svg", "out.svg"], "--svg wrote an incomplete file (0 characters) on exit 0"),
    (_bare_report, ["--json"], "--json report does not round-trip: SceneError: "),
], ids=["escape", "exit-3", "no-error-prefix", "no-svg", "bad-report"])
def test_each_breach_is_reported(fake, argv, message, monkeypatch, tmp_path):
    fuzz = load_script("scripts/fuzz_cli.py")
    monkeypatch.setattr(fuzz, "cli_main", fake)
    _, breaches, _ = fuzz.check(["verify", "scene.json", *argv], tmp_path)
    assert len(breaches) == 1 and breaches[0].startswith(message)
