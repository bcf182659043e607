"""The benchmark's tracer wraps library functions by name; each of those
names must still resolve, or a traced run breaks where tier-1 cannot see."""

import importlib

from conftest import load_script


def test_every_traced_name_resolves_in_conconic():
    keys = load_script("bench/tracing.py").TRACED_KEYS
    assert keys
    missing = []
    for key in keys:
        layer, func = key.split(".", 1)
        owner = importlib.import_module(f"conconic.{layer}")
        if "." in func:
            # methods are rebound on the class that defines them
            cls_name, attr = func.split(".")
            found = attr in vars(getattr(owner, cls_name, object))
        else:
            found = callable(getattr(owner, func, None))
        if not found:
            missing.append(key)
    assert missing == []
