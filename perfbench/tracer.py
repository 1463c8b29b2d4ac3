"""Outside-in tracing of gclab: wrap each module's public functions by attribute.

``labcli`` calls the library through module attributes (``census.components``)
and a module's own calls resolve through its globals, so replacing every
public function attribute of every layer module with a timing wrapper also
catches nested calls. Each call becomes one span (id, parent id, name,
duration); a span's self time is its duration minus that of its child spans.

Observers are optional per-name hooks that look at a call's arguments and
result (for counts and correctness evidence). Their time is kept out of every
open span and out of the op, so what they do never shows up as layer time.
"""

from __future__ import annotations

import functools
import inspect
from collections import Counter
from time import perf_counter

LAYERS = ("distributions", "branching", "configuration", "census", "percolation", "labcli")
GRAPH_METHODS = ("degrees", "degree_sequence", "adjacency_csr", "incidence_csr")
ROOT = "bench"


def public_functions(package):
    """(owner, attribute, span name) for every public gclab function by layer.

    A function imported into another module (``configuration.sample``) is
    wrapped there too, under the name of the module that defines it.
    """
    prefix = package.__name__ + "."
    for layer in LAYERS:
        module = getattr(package, layer)
        for attr, obj in vars(module).items():
            if attr.startswith("_") or not inspect.isfunction(obj):
                continue
            if obj.__module__.startswith(prefix):
                yield module, attr, f"{obj.__module__[len(prefix):]}.{obj.__name__}"
    for attr in GRAPH_METHODS:
        yield package.configuration.MultiGraph, attr, f"configuration.{attr}"


class Patches:
    """Attribute replacements that can be undone in reverse order."""

    def __init__(self):
        self._undo = []

    def replace(self, owner, attr, make_wrapper):
        original = vars(owner)[attr]
        setattr(owner, attr, make_wrapper(original))
        self._undo.append((owner, attr, original))

    def undo(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


def capture(patches: Patches, owner, attr, sink: list, tag: str) -> None:
    """Record (tag, args, result) of every call, with no timing at all."""

    def make(fn):
        @functools.wraps(fn)
        def captured(*args, **kwargs):
            result = fn(*args, **kwargs)
            sink.append((tag, args, result))
            return result

        return captured

    patches.replace(owner, attr, make)


class Tracer:
    """Spans of the current op plus per-name totals over all folded ops."""

    def __init__(self, observers=None):
        self.observers = dict(observers or {})
        self.patches = Patches()
        self.spans = []  # (span_id, parent_id, name, seconds) of the current op
        self._stack = [(0, ROOT)]
        self._next_id = 1
        self.excluded = 0.0  # observer seconds, subtracted from every open span
        self.calls = Counter()
        self.self_s = Counter()
        self.total_s = Counter()
        self.nested = Counter()  # (parent name, child name) -> calls
        self.ops = 0
        self.op_s = 0.0

    def install(self, package) -> None:
        for owner, attr, name in list(public_functions(package)):
            self.patches.replace(owner, attr, functools.partial(self._wrap, name))

    def uninstall(self) -> None:
        self.patches.undo()

    def _wrap(self, name, fn):
        tracer = self
        observe = self.observers.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = tracer._next_id
            tracer._next_id += 1
            parent_id, parent_name = tracer._stack[-1]
            tracer._stack.append((span_id, name))
            excluded = tracer.excluded
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                stop = perf_counter()
                tracer._stack.pop()
                tracer.spans.append(
                    (span_id, parent_id, name, stop - start - (tracer.excluded - excluded))
                )
            if observe is not None:
                hook_start = perf_counter()
                observe(args, result, parent_name)
                tracer.excluded += perf_counter() - hook_start
            return result

        return traced

    def run_op(self, op):
        """Run one op as the root span; returns (result, traced seconds)."""
        self.spans = []
        excluded = self.excluded
        start = perf_counter()
        result = op()
        stop = perf_counter()
        return result, stop - start - (self.excluded - excluded)

    def fold(self, op_seconds: float) -> Counter:
        """Add the current op's spans to the totals.

        Returns the op's calls by span name and by (parent name, name).
        """
        child_s = Counter()
        names = {0: ROOT}
        for span_id, parent_id, name, seconds in self.spans:
            child_s[parent_id] += seconds
            names[span_id] = name
        op_calls = Counter()
        op_nested = Counter()
        for span_id, parent_id, name, seconds in self.spans:
            op_calls[name] += 1
            op_nested[(names[parent_id], name)] += 1
            self.total_s[name] += seconds
            self.self_s[name] += seconds - child_s[span_id]
        self.calls.update(op_calls)
        self.nested.update(op_nested)
        self.self_s[ROOT] += op_seconds - child_s[0]
        self.total_s[ROOT] += op_seconds
        self.ops += 1
        self.op_s += op_seconds
        self.spans = []
        return op_calls + op_nested

    def layer_self_s(self, layer: str) -> float:
        return sum(s for name, s in self.self_s.items() if name.startswith(layer + "."))

    def layer_calls(self, layer: str) -> int:
        return sum(c for name, c in self.calls.items() if name.startswith(layer + "."))
