"""Span tracer for the benchmark's traced runs.

The tracer wraps the public functions listed in ``TRACED`` without touching
the package source: ``install`` rebinds each traced name in every loaded
``conconic`` module that holds the original object (and on the class, for
methods), so calls between modules go through the wrapper.  ``uninstall``
puts every original back.

Each call records one span (name, start, end, parent span, op id) in flat
in-memory lists.  ``fold`` turns the spans of one pass into per-function
call counts and self time (duration minus the time its child spans cover)
and then clears them; the spans of the first pass are kept so that they
can be written out when the run ends.
"""

from __future__ import annotations

import sys
from collections import Counter
from fractions import Fraction
from time import perf_counter

# layer (module name) -> traced public functions of that layer
TRACED = {
    "scalars": ("canonical_tuple",),
    "linalg": ("det", "nullspace", "adjugate3", "normalized_det"),
    "projective": ("join", "meet", "map_from_correspondence"),
    "conics": (
        "conconic", "cotangent", "veronese_residual", "conconic_by_fit",
        "conic_through_points", "tangent_lines_from", "intersect_line",
        "Conic.rank", "Conic.dual",
    ),
    "cevians": (
        "validate_feet", "build_config", "check_conditions", "to_chart",
        "isogonal_feet", "isotomic_feet", "cevians_through_point",
    ),
    "generate": (
        "concurrency_solved_instance", "solve_concurrent_params",
        "conjugate_instance", "through_point_instance",
        "perturbed_failing_instance", "float_triangle", "conconic_sextuple",
        "cotangent_sextuple", "random_sextuple", "random_line_sextuple",
    ),
    "morley": ("morley_config",),
    "poncelet": ("porism_check", "trace_chain", "poncelet_step", "second_intersection"),
    "scene": ("scene_from_dict", "report_from_conditions", "report_to_dict"),
    "svg": ("render_configuration", "render_chain", "render_morley"),
    "cli": ("main",),
}

TRACED_KEYS = tuple(f"{layer}.{func}" for layer, funcs in TRACED.items() for func in funcs)
DET_BACKENDS = ("int", "fraction", "float")


def det_backend(rows) -> str:
    """The determinant route ``linalg.det`` takes for these entries."""
    flat = [v for row in rows for v in row]
    if not all(isinstance(v, (int, Fraction)) and not isinstance(v, bool) for v in flat):
        return "float"
    if all(isinstance(v, int) or v.denominator == 1 for v in flat):
        return "int"
    return "fraction"


class Tracer:
    """Wrappers, span buffers and folded per-function totals."""

    def __init__(self):
        self.op_id = -1
        self.calls = Counter()        # key -> calls over all folded passes
        self.self_s = Counter()       # key -> self seconds over all folded passes
        self.raised = Counter()       # (key, exception name) -> count
        self.det_backends = Counter() # backend -> linalg.det calls
        self.chain_steps = 0          # links over all traced trace_chain results
        self.kept = None              # spans of the first folded pass
        self._restore = []
        self.span_key = []
        self.span_parent = []
        self.span_op = []
        self.span_start = []
        self.span_end = []
        self._stack = [-1]

    # ----- wrappers -----------------------------------------------------

    def _wrap(self, key, fn, pre=None, post=None):
        keys, parents, ops = self.span_key, self.span_parent, self.span_op
        starts, ends, stack = self.span_start, self.span_end, self._stack
        tracer = self

        def wrapper(*args, **kwargs):
            if pre is not None:
                pre(args)
            idx = len(keys)
            keys.append(key)
            parents.append(stack[-1])
            ops.append(tracer.op_id)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as err:
                ends[idx] = perf_counter()
                starts[idx] = t0
                stack.pop()
                tracer.raised[key, type(err).__name__] += 1
                raise
            ends[idx] = perf_counter()
            starts[idx] = t0
            stack.pop()
            if post is not None:
                post(result)
            return result

        return wrapper

    def _count_det(self, args):
        self.det_backends[det_backend(args[0])] += 1

    def _count_chain(self, result):
        self.chain_steps += len(result.links)

    def install(self):
        """Rebind every traced name in the loaded conconic modules."""
        import conconic.cli  # noqa: F401  (cli is not imported by the package)

        modules = [m for name, m in sys.modules.items()
                   if name == "conconic" or name.startswith("conconic.")]
        hooks = {"linalg.det": (self._count_det, None),
                 "poncelet.trace_chain": (None, self._count_chain)}
        for key in TRACED_KEYS:
            layer, func = key.split(".", 1)
            owner = sys.modules[f"conconic.{layer}"]
            pre, post = hooks.get(key, (None, None))
            if "." in func:
                cls_name, attr = func.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[attr]
                self._rebind(cls, attr, original, self._wrap(key, original, pre, post))
                continue
            original = getattr(owner, func)
            wrapper = self._wrap(key, original, pre, post)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._rebind(module, attr, original, wrapper)

    def _rebind(self, owner, attr, original, wrapper):
        self._restore.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def uninstall(self):
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    # ----- folding ------------------------------------------------------

    def fold(self, factor=1.0):
        """Add the buffered spans to the totals, their times multiplied by
        ``factor``, and clear the buffers."""
        keys, parents = self.span_key, self.span_parent
        starts, ends = self.span_start, self.span_end
        covered = [0.0] * len(keys)
        for i, parent in enumerate(parents):
            if parent >= 0:
                covered[parent] += ends[i] - starts[i]
        for i, key in enumerate(keys):
            self.calls[key] += 1
            self.self_s[key] += (ends[i] - starts[i] - covered[i]) * factor
        if self.kept is None:
            self.kept = list(zip(keys, starts, ends, parents, self.span_op))
        # the wrappers hold these list objects, so empty them in place
        for buf in (keys, parents, self.span_op, starts, ends):
            buf.clear()
        del self._stack[1:]

    def write_spans(self, path):
        """Write the kept spans as tab-separated lines, times in microseconds."""
        spans = self.kept or []
        t0 = min((s[1] for s in spans), default=0.0)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("span\tname\tstart_us\tend_us\tparent\top\n")
            for i, (key, start, end, parent, op) in enumerate(spans):
                fh.write(f"{i}\t{key}\t{(start - t0) * 1e6:.3f}\t{(end - t0) * 1e6:.3f}\t{parent}\t{op}\n")
