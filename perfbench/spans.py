"""In-memory spans and operator counters around calls into finiverse.

``Tracer.install`` wraps every public function of the six library modules
(the functions named in each module's ``__all__``) in a span, and replaces
the name everywhere a finiverse module holds it, so that by-name imports
(``geometry`` imports ``element_index``) and calls through a module
(``cli`` calls ``fields.x``) are both seen.  ``AffineSpace.points`` gets a
span too.  Field-element operators get aggregated counters (calls and busy
time) instead of one span each, to keep the overhead bounded; a few tiny
per-element functions get call counts only.

A span is ``[name, start, end, parent, job, op_s, items, index]``:
``parent`` is the index of the enclosing span (-1 for none), ``op_s`` the
operator time spent directly inside it, ``items`` the length of the result
where the span counts what it built, and ``index`` its own position.
Spans stay in memory until ``aggregate``.
"""

from __future__ import annotations

import sys
import time
from types import FunctionType

MODULES = ("fields", "geometry", "hilbert", "regularization", "cosmology", "cli")

NAME, START, END, PARENT, JOB, OP_S, ITEMS, INDEX = range(8)

#: operator categories: method name -> counter
OPERATORS = {
    "__mul__": "mul",
    "__add__": "add",
    "__sub__": "add",
    "__neg__": "add",
    "inverse": "inv",
    "__truediv__": "inv",
    "__pow__": "pow",
}

#: per-element functions that get a call count and no span
COUNT_ONLY = {"fields.element_index", "hilbert.conjugate"}

#: spans that record the length of their result
COUNT_ITEMS = {"geometry.points", "geometry.enumerate_lines", "hilbert.enumerate_vectors"}

FACTORIES = ("fields.make_prime_field", "fields.make_gaussian_extension",
             "fields.make_extension_field")


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []
        self.stack: list[list] = []
        self.ops = {cat: [0, 0.0] for cat in set(OPERATORS.values())}
        self.counts: dict[str, int] = {}
        self.job = -1
        self._in_op = False
        self._patches: list[tuple[object, str, object]] = []

    # -- wrappers -------------------------------------------------------------

    def wrap_span(self, name, fn):
        spans, stack, clock = self.spans, self.stack, self.clock
        count_items = name in COUNT_ITEMS

        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1][INDEX] if stack else -1, self.job, 0.0, 0,
                   len(spans)]
            spans.append(rec)
            stack.append(rec)
            rec[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[END] = clock()
                stack.pop()
            if count_items:
                rec[ITEMS] = len(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def wrap_operator(self, category, fn):
        counter, stack, clock = self.ops[category], self.stack, self.clock

        def traced(*args, **kwargs):
            if self._in_op:  # an operator inside an operator counts once, outside
                return fn(*args, **kwargs)
            self._in_op = True
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                self._in_op = False
                counter[0] += 1
                counter[1] += dt
                if stack:
                    stack[-1][OP_S] += dt

        traced.__wrapped__ = fn
        return traced

    def wrap_count(self, name, fn):
        counts = self.counts
        counts.setdefault(name, 0)

        def traced(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        traced.__wrapped__ = fn
        return traced

    # -- patching -------------------------------------------------------------

    def _patch(self, owner, attr, new):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self):
        """Wrap the library's public functions and element operators."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        loaded = [m for n, m in sorted(sys.modules.items())
                  if m is not None and (n == "finiverse" or n.startswith("finiverse."))]
        for short in MODULES:
            module = sys.modules.get(f"finiverse.{short}")
            if module is None:
                continue
            for attr in module.__all__:
                fn = module.__dict__.get(attr)
                if not (isinstance(fn, FunctionType) and fn.__module__ == module.__name__):
                    continue
                name = f"{short}.{attr}"
                wrapper = (self.wrap_count(name, fn) if name in COUNT_ONLY
                           else self.wrap_span(name, fn))
                for holder in loaded:
                    for key, value in list(holder.__dict__.items()):
                        if value is fn:
                            self._patch(holder, key, wrapper)
        fields = sys.modules.get("finiverse.fields")
        if fields is not None:
            for method, category in OPERATORS.items():
                fn = fields.FieldElement.__dict__[method]
                self._patch(fields.FieldElement, method, self.wrap_operator(category, fn))
        geometry = sys.modules.get("finiverse.geometry")
        if geometry is not None:
            fn = geometry.AffineSpace.__dict__["points"]
            self._patch(geometry.AffineSpace, "points", self.wrap_span("geometry.points", fn))

    def uninstall(self):
        while self._patches:
            owner, attr, old = self._patches.pop()
            setattr(owner, attr, old)


# ---------------------------------------------------------------------------
# aggregation
# ---------------------------------------------------------------------------


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus its direct children and its operator time.

    Spans are nested and single-threaded, so the direct children of a span
    cover disjoint parts of it and their durations can simply be summed.
    """
    child = [0.0] * len(spans)
    for rec in spans:
        if rec[PARENT] >= 0:
            child[rec[PARENT]] += rec[END] - rec[START]
    return [rec[END] - rec[START] - child[i] - rec[OP_S] for i, rec in enumerate(spans)]


def aggregate(tracer: Tracer) -> dict:
    """Span- and counter-derived per-layer metrics of one traced run."""
    spans = tracer.spans
    selfs = self_times(spans)
    total: dict[str, float] = {}
    calls: dict[str, int] = {}
    self_by_name: dict[str, float] = {}
    items: dict[str, int] = {}
    for rec, own in zip(spans, selfs):
        name = rec[NAME]
        total[name] = total.get(name, 0.0) + rec[END] - rec[START]
        calls[name] = calls.get(name, 0) + 1
        self_by_name[name] = self_by_name.get(name, 0.0) + own
        items[name] = items.get(name, 0) + rec[ITEMS]

    def s(name):
        return total.get(name, 0.0)

    construct = [rec for rec in spans if rec[NAME] in FACTORIES
                 and (rec[PARENT] < 0 or spans[rec[PARENT]][NAME] not in FACTORIES)]
    layer_self = {}
    for name, own in self_by_name.items():
        layer = name.split(".", 1)[0]
        layer_self[layer] = layer_self.get(layer, 0.0) + own
    reg_top = [rec for rec in spans if rec[NAME].startswith("regularization.")
               and (rec[PARENT] < 0 or not spans[rec[PARENT]][NAME].startswith("regularization."))]
    out = {
        "fields.construct.calls": len(construct),
        "fields.construct.s": sum(rec[END] - rec[START] for rec in construct),
        "fields.operation_tables.s": s("fields.operation_tables"),
        "fields.axiom_battery.self_s": self_by_name.get("fields.verify_field_axioms", 0.0)
        + self_by_name.get("fields.verify_modular_ring_axioms", 0.0),
        "geometry.points.built": items.get("geometry.points", 0),
        "geometry.points.s": s("geometry.points"),
        "geometry.enumerate_lines.s": s("geometry.enumerate_lines"),
        "geometry.lines.built": items.get("geometry.enumerate_lines", 0),
        "geometry.incidence_structure.self_s": self_by_name.get("geometry.incidence_structure", 0.0),
        "geometry.check_hesse_property.s": s("geometry.check_hesse_property"),
        "geometry.self_s": layer_self.get("geometry", 0.0),
        "geometry.find_degenerate_pair.s": s("geometry.find_degenerate_pair"),
        "geometry.find_ordinary_line.s": s("geometry.find_ordinary_line"),
        "hilbert.enumerate_vectors.s": s("hilbert.enumerate_vectors"),
        "hilbert.vectors.built": items.get("hilbert.enumerate_vectors", 0),
        "hilbert.inner_product.calls": calls.get("hilbert.inner_product", 0),
        "hilbert.inner_product.s": s("hilbert.inner_product"),
        "hilbert.conjugate.calls": tracer.counts.get("hilbert.conjugate", 0),
        "regularization.calls": len(reg_top),
        "regularization.s": sum(rec[END] - rec[START] for rec in reg_top),
        "cosmology.evolve_scale_factor.s": s("cosmology.evolve_scale_factor"),
        "cli.dispatch_s": s("cli.dispatch"),
        "cli.render_s": s("cli.render_json") + s("cli.render_text"),
    }
    for cat, (n, secs) in tracer.ops.items():
        out[f"fields.{cat}.calls"] = n
        out[f"fields.{cat}.s"] = secs
    return out


def merge(into: dict, more: dict) -> dict:
    """Sum two aggregates key by key."""
    for key, value in more.items():
        into[key] = into.get(key, 0) + value
    return into


def parse_importtime(stderr: str) -> dict[str, tuple[int, int]]:
    """`-X importtime` lines -> {module: (self_us, cumulative_us)}."""
    out = {}
    for line in stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        parts = line[len("import time:"):].split("|")
        if len(parts) != 3 or not parts[0].strip().isdigit():
            continue
        out[parts[2].strip()] = (int(parts[0]), int(parts[1]))
    return out
