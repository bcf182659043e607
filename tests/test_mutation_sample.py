"""``scripts/mutation_sample.py`` draws the same mutants on every run."""

import ast
import importlib.util
from pathlib import Path

MUTATION_SAMPLE = Path(__file__).resolve().parent.parent / "scripts" / "mutation_sample.py"


def _load_mutation_sample():
    spec = importlib.util.spec_from_file_location("mutation_sample", MUTATION_SAMPLE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_one_seed_always_draws_the_same_mutants():
    ms = _load_mutation_sample()
    functions = {"_meet_coords", "_quadratic_root_pairs"}
    first = ms.sample(ms.ROOT, 1, 12, functions=functions)
    assert ms.sample(ms.ROOT, 1, 12, functions=functions) == first
    assert ms.sample(ms.ROOT, 2, 12, functions=functions) != first
    assert len(first) == 12 and {function for _, _, _, function, _ in first} <= functions
    for rel, k, _, _, _ in first[:3]:
        original = ast.unparse(ast.parse((ms.ROOT / rel).read_text())) + "\n"
        mutant = ms.mutated_source(ms.ROOT, rel, k)
        compile(mutant, rel, "exec")
        assert mutant != original


SAMPLE_MODULE = '''"""A docstring with 0, 1 and 2 in it."""


def f(x, y):
    """Neither is this 1 mutated."""
    if x < y and not x in y:
        x += 2 * y - 1.0
    return x / y, x is y


class K:
    def g(self):
        return 0
'''


def test_the_operator_set_on_a_small_module(tmp_path):
    ms = _load_mutation_sample()
    package = tmp_path / ms.PACKAGE
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("X = 1 + 2\n")
    (package / "sample.py").write_text(SAMPLE_MODULE)
    mutants = ms.enumerate_mutants(tmp_path)
    assert [(line, function, description) for _, _, line, function, description in mutants] == [
        (6, "f", "and -> or"),
        (6, "f", "< -> <="),
        (6, "f", "< -> >="),
        (6, "f", "not x -> x"),
        (6, "f", "in -> not in"),
        (7, "f", "+ -> -"),
        (7, "f", "- -> +"),
        (7, "f", "* -> /"),
        (7, "f", "2 -> 3"),
        (7, "f", "1.0 -> 0.0"),
        (8, "f", "/ -> *"),
        (8, "f", "is -> is not"),
        (13, "K.g", "0 -> 1"),
    ]
    assert [k for _, k, _, _, _ in mutants] == list(range(len(mutants)))
    assert ms.enumerate_mutants(tmp_path, functions={"K.g"}) == mutants[-1:]
    dropped = ms.mutated_source(tmp_path, "src/conconic/sample.py", 3)
    assert "if x < y and x in y:" in dropped
