"""Spans recorded around the public functions of each convaccel module.

The wrappers live here, outside the program: ``Tracer.install`` replaces a
traced function at every import site (any ``convaccel`` module attribute
bound to the original object, so ``from .engine import conv_exec`` copies
are caught as well as module globals) and ``uninstall`` restores them.
Spans are kept in memory; a layer's self time is its span's duration minus
the part of that interval its child spans cover.
"""

from __future__ import annotations

import functools
import sys
import time
from typing import NamedTuple

# (module, function) pairs traced, named "<module>.<function>" in the trace.
TRACED = (
    ("engine", "conv_exec"),
    ("engine", "mpool_exec"),
    ("engine", "exec_with_split"),
    ("quant", "rescale_block"),
    ("tensors", "load_bank"),
    ("tensors", "load_tensor"),
    ("tensors", "save_tensor"),
    ("graph", "parse_network"),
    ("graph", "validate"),
    ("graph", "run_network"),
    ("perf", "network_perf"),
    ("dse", "enumerate_points"),
    ("dse", "pareto_front"),
    ("cli", "main"),
)
# Called hundreds of thousands of times per sweep, so only counted: a span
# each would more than double the sweep's host time.
COUNTED = (
    ("engine", "plan_split"),
    ("perf", "conv_cycles"),
)


def _pool_key(pool):
    return f"{pool.window}x{pool.window}s{pool.stride}" if pool is not None else "none"


def _conv_key(args, _kwargs):
    """(input geometry, bank geometry, stride, pool) of an engine call."""
    ia, bank, spec = args[:3]
    return (ia.geom, bank.geom, spec.stride, _pool_key(spec.pool))


def _mpool_key(args, kwargs):
    t, window = args[:2]
    stride = args[2] if len(args) > 2 else kwargs.get("stride", 2)
    return (t.geom, None, stride, f"{window}x{window}s{stride}")


def _first_arg(args, _kwargs):
    return args[0] if args else None


TAGS = {
    "engine.conv_exec": _conv_key,
    "engine.exec_with_split": _conv_key,
    "engine.mpool_exec": _mpool_key,
    "tensors.load_bank": _first_arg,
}


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span in the same list, -1 for none
    tag: object = None


class Tracer:
    """Records one span per call of each installed wrapper, single-threaded."""

    def __init__(self):
        self.spans: list[Span | None] = []
        self._stack: list[int] = []
        self.counts: dict[str, int] = {}
        self._patched: list[tuple[object, str, object]] = []

    def wrap(self, name, fn):
        tag_of = TAGS.get(name)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                tag = tag_of(args, kwargs) if tag_of else None
                spans[idx] = Span(name, start, end, parent, tag)

        return traced

    def count(self, name, fn):
        counts = self.counts
        counts[name] = 0

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def install(self):
        """Wrap every traced and counted function at every site that binds it."""
        modules = [m for n, m in list(sys.modules.items()) if n.split(".")[0] == "convaccel"]
        wrappers = [(m, f, self.wrap) for m, f in TRACED] + [(m, f, self.count) for m, f in COUNTED]
        for mod_name, fn_name, make in wrappers:
            original = getattr(sys.modules[f"convaccel.{mod_name}"], fn_name)
            wrapper = make(f"{mod_name}.{fn_name}", original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patched.append((mod, attr, original))
                        setattr(mod, attr, wrapper)

    def uninstall(self):
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def sites(self):
        """{span name: sorted 'module.attr' sites patched}."""
        out: dict[str, list[str]] = {}
        for mod, attr, original in self._patched:
            name = f"{original.__module__.split('.')[-1]}.{original.__name__}"
            out.setdefault(name, []).append(f"{mod.__name__}.{attr}")
        return {k: sorted(v) for k, v in out.items()}

    def take(self) -> list[Span]:
        """Return the finished spans and start a new list."""
        if self._stack:
            raise RuntimeError("take() called inside an open span")
        done = list(self.spans)
        self.spans.clear()
        return done


def self_times(spans) -> list[float]:
    """Per span: duration minus the union of its children's intervals within it."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent >= 0:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out = []
    for i, s in enumerate(spans):
        covered, cursor = 0.0, s.start
        for start, end in sorted(children.get(i, ())):
            start, end = max(start, cursor), min(end, s.end)
            if end > start:
                covered += end - start
                cursor = end
        out.append((s.end - s.start) - covered)
    return out


def ancestor(spans, idx, name) -> int:
    """Index of the nearest enclosing span called ``name``, or -1."""
    p = spans[idx].parent
    while p >= 0 and spans[p].name != name:
        p = spans[p].parent
    return p


def split_passes(spans, roots_per_pass):
    """Cut one span list into passes of ``roots_per_pass`` top-level spans each.

    Parent indices are rebased so each pass is a span list of its own.
    """
    out, current, roots, offset = [], [], 0, 0
    for i, s in enumerate(spans):
        if s.parent < 0:
            if roots == roots_per_pass:
                out.append(current)
                current, roots, offset = [], 0, i
            roots += 1
        current.append(s._replace(parent=s.parent - offset if s.parent >= 0 else -1))
    out.append(current)
    return out


def summarize(spans):
    """{name: [inclusive seconds, self seconds, calls]} over one pass."""
    agg: dict[str, list] = {}
    for s, own in zip(spans, self_times(spans)):
        a = agg.setdefault(s.name, [0.0, 0.0, 0])
        a[0] += s.end - s.start
        a[1] += own
        a[2] += 1
    return agg


def split_restreams(spans):
    """Secondary convolutions run: conv_exec calls inside split exec_with_split calls."""
    per_layer: dict[int, int] = {}
    for i, s in enumerate(spans):
        if s.name == "engine.conv_exec":
            layer = ancestor(spans, i, "engine.exec_with_split")
            per_layer[layer] = per_layer.get(layer, 0) + 1
    return sum(c for c in per_layer.values() if c > 1)
