"""Spans around calls into grasspace's public functions, for traced runs.

The program carries no tracing of its own; the wrappers are installed from
outside.  ``Tracer.install`` replaces every binding of a listed function in
every ``grasspace`` module namespace (``theorems.check_properties`` is a
binding separate from ``maps.check_properties``, and ``projspace.quotient``
reaches ``verify_projective_axioms`` through its module global), and
``Tracer.uninstall`` puts every original back.

Functions that run millions of times per job (``collinear``, ``line_through``,
``mat_vec``, field operations) are not wrapped: a wrapper would dominate
their cost.
"""

import collections
import functools
import importlib
import sys
import time

LAYERS = {
    "field": ("field_make",),
    "projspace": (
        "build_space",
        "planes",
        "quotient",
        "plane_quotient",
        "dual_space",
        "verify_projective_axioms",
    ),
    "grassmann": ("build_grassmann", "automorphism_group", "export_graph", "parse_graph"),
    "linalg": ("rref", "nullspace", "is_invertible"),
    "maps": (
        "collineation_point_map",
        "induced_line_map",
        "duality_line_map",
        "preserves_intersections",
        "preserves_skewness",
        "reconstruct_point_map",
        "restrict_to_star",
        "check_properties",
        "classify_point_map",
        "pencil_image_is_pencil",
    ),
    "theorems": (
        "generate_instance",
        "verify_theorem1",
        "verify_theorem2",
        "theorem2_predicates",
        "all_collineation_line_perms",
        "chow_crosscheck",
        "one_way_shadow",
    ),
    "cli": ("serialize_grassmap", "parse_grassmap", "line_map_from_grassmap"),
}
SPAN_NAMES = tuple(f"{module}.{name}" for module, names in LAYERS.items() for name in names)
# Generators are timed while they run, on each resumption, not when created.
GENERATORS = frozenset({"theorems.all_collineation_line_perms"})


class Tracer:
    """In-memory spans of one traced job.

    A span is ``[name, start, end, parent]``, ``parent`` being the index of
    the enclosing span or -1.  ``calls`` counts invocations; a generator has
    one span per resumption but one call.
    """

    def __init__(self):
        self.spans = []
        self.calls = collections.Counter()
        self._stack = []
        self._bindings = []

    def reset(self):
        self.spans.clear()
        self.calls.clear()

    def install(self):
        wrappers = {}
        for module, names in LAYERS.items():
            namespace = importlib.import_module(f"grasspace.{module}")
            for name in names:
                original = getattr(namespace, name)
                span_name = f"{module}.{name}"
                make = self._wrap_generator if span_name in GENERATORS else self._wrap
                wrappers[id(original)] = (original, make(span_name, original))
        for module_name, namespace in list(sys.modules.items()):
            if module_name != "grasspace" and not module_name.startswith("grasspace."):
                continue
            for attr, value in list(vars(namespace).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._bindings.append((namespace, attr, value))
                    setattr(namespace, attr, hit[1])

    def uninstall(self):
        while self._bindings:
            namespace, attr, original = self._bindings.pop()
            setattr(namespace, attr, original)

    def _open(self, name):
        span = [name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else -1]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span):
        span[2] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.calls[name] += 1
            span = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(span)

        return traced

    def _wrap_generator(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.calls[name] += 1
            return self._iterate(name, fn(*args, **kwargs))

        return traced

    def _iterate(self, name, inner):
        try:
            while True:
                span = self._open(name)
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    self._close(span)
                yield item
        finally:
            inner.close()

    def export_spans(self):
        """Spans as ``[name index, start, end, parent]`` rows, times in
        microseconds from the first span's start."""
        index = {name: i for i, name in enumerate(SPAN_NAMES)}
        origin = self.spans[0][1] if self.spans else 0.0
        return [
            [index[name], round((start - origin) * 1e6, 1), round((end - origin) * 1e6, 1), parent]
            for name, start, end, parent in self.spans
        ]

    def layer_times(self):
        """Per span name, ``(total_s, self_s)``.

        Self time is a span's duration minus the durations of its child
        spans, which run one after another inside it.  Total time counts a
        span only when no enclosing span has the same name.
        """
        spans = self.spans
        child_s = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= 0:
                child_s[parent] += end - start
        total = dict.fromkeys(SPAN_NAMES, 0.0)
        own = dict.fromkeys(SPAN_NAMES, 0.0)
        for i, (name, start, end, parent) in enumerate(spans):
            own[name] += end - start - child_s[i]
            while parent >= 0 and spans[parent][0] != name:
                parent = spans[parent][3]
            if parent < 0:
                total[name] += end - start
        return total, own
