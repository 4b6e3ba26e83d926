"""Per-layer tracing of quadsum from outside the package.

``Tracer.install`` wraps every public function of the layer modules in a
timing wrapper and rebinds it in every quadsum namespace that holds it, so
``from .lattice import residue_census`` in ``theta`` and ``equidist`` is
traced as well.  Self time is a call's duration minus the time spent in its
traced children, computed on the fly, so it is exact for every call.

Spans (name, start, end, parent index) are kept in memory and written out at
the end.  To keep memory bounded, each name stores at most ``SPAN_CAP`` spans;
later calls of that name, and every call below a call that was not stored,
only add to per-(parent, callee) counters.
"""

from __future__ import annotations

import importlib
import json
import time
from collections import defaultdict
from contextlib import contextmanager, nullcontext

LAYERS = ("arith", "lattice", "density", "theta", "equidist", "cli")
NAMESPACES = ("quadsum",) + tuple(f"quadsum.{m}" for m in LAYERS + ("errors", "limits"))
SPAN_CAP = 2000

_clock = time.perf_counter


class _Frame:
    __slots__ = ("name", "start", "child", "span", "layer")

    def __init__(self, name, start, span, layer):
        self.name = name
        self.start = start
        self.child = 0.0
        self.span = span
        self.layer = layer


def rebind(replacements: dict) -> None:
    """Rebind, in every quadsum namespace, each object whose id is a key of
    ``replacements`` to the value stored under that id."""
    for ns in NAMESPACES:
        module = importlib.import_module(ns)
        for attr, obj in list(vars(module).items()):
            new = replacements.get(id(obj))
            if new is not None:
                setattr(module, attr, new)


class NullTracer:
    """Stands in for ``Tracer`` in untraced runs: nothing is wrapped or kept."""

    def span(self, name: str):
        return nullcontext()

    def paused(self):
        return nullcontext()

    def add(self, key: str, amount: float) -> None:
        pass


class Tracer:
    def __init__(self):
        self.stack: list[_Frame] = []
        self.spans: list[list] = []  # [name, start, end, parent span index or -1]
        self.stored: dict[str, int] = defaultdict(int)
        self.totals: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])  # calls, total_s, self_s
        self.edges: dict[tuple[str, str], list] = defaultdict(lambda: [0, 0.0])  # calls, total_s
        self.values: dict[str, float] = defaultdict(float)
        self.top_level_s = 0.0  # summed duration of layer calls not nested in another layer call
        self._layer_depth = 0
        self._paused = 0

    # -- frames ------------------------------------------------------------

    def _enter(self, name: str, layer: bool) -> _Frame:
        parent = self.stack[-1] if self.stack else None
        span = -1
        if (parent is None or parent.span >= 0) and self.stored[name] < SPAN_CAP:
            self.stored[name] += 1
            span = len(self.spans)
            self.spans.append([name, 0.0, 0.0, parent.span if parent else -1])
        frame = _Frame(name, 0.0, span, layer)
        self.stack.append(frame)
        self._layer_depth += layer
        frame.start = _clock()
        return frame

    def _exit(self, frame: _Frame) -> tuple[float, float]:
        end = _clock()
        self.stack.pop()
        dur = end - frame.start
        self_s = dur - frame.child
        parent = self.stack[-1] if self.stack else None
        if parent is not None:
            parent.child += dur
        tot = self.totals[frame.name]
        tot[0] += 1
        tot[1] += dur
        tot[2] += self_s
        if frame.span >= 0:
            span = self.spans[frame.span]
            span[1] = frame.start
            span[2] = end
        else:
            edge = self.edges[(parent.name if parent else "", frame.name)]
            edge[0] += 1
            edge[1] += dur
        if frame.layer:
            self._layer_depth -= 1
            if self._layer_depth == 0:
                self.top_level_s += dur
        return dur, self_s

    @contextmanager
    def span(self, name: str):
        """A benchmark-level span (a job, or the check of its result)."""
        frame = self._enter(name, layer=False)
        try:
            yield
        finally:
            self._exit(frame)

    @contextmanager
    def paused(self):
        """Run oracle code without recording layer calls; its whole cost
        stays in the enclosing span's self time."""
        self._paused += 1
        try:
            yield
        finally:
            self._paused -= 1

    def add(self, key: str, amount: float) -> None:
        if not self._paused:
            self.values[key] += amount

    def maximum(self, key: str, value: float) -> None:
        self.values[key] = max(self.values[key], value)

    # -- wrappers ----------------------------------------------------------

    def wrap(self, name: str, fn, observe=None):
        tracer = self

        def traced(*args, **kwargs):
            if tracer._paused:
                return fn(*args, **kwargs)
            frame = tracer._enter(name, layer=True)
            try:
                result = fn(*args, **kwargs)
            finally:
                dur, self_s = tracer._exit(frame)
            if observe is not None:
                observe(tracer, args, kwargs, result, dur, self_s)
            return result

        traced.__name__ = getattr(fn, "__name__", name)
        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Wrap the public functions of every layer."""
        wrappers = {}
        for layer in LAYERS:
            module = importlib.import_module(f"quadsum.{layer}")
            for attr, obj in vars(module).items():
                if attr.startswith("_") or isinstance(obj, type) or not callable(obj):
                    continue
                if getattr(obj, "__module__", None) != module.__name__:
                    continue
                name = f"{layer}.{attr}"
                wrappers[id(obj)] = self.wrap(name, obj, OBSERVERS.get(name))
        rebind(wrappers)

    # -- output ------------------------------------------------------------

    def dump(self, path: str, extra: dict) -> None:
        doc = {
            "spans_fields": ["name", "start_s", "end_s", "parent"],
            "spans": self.spans,
            "edges": [[p, c, n, t] for (p, c), (n, t) in sorted(self.edges.items())],
            "totals": {k: {"calls": v[0], "total_s": v[1], "self_s": v[2]}
                       for k, v in sorted(self.totals.items())},
            "values": dict(self.values),
            **extra,
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)


# ---------------------------------------------------------------------------
# observers: counts read from arguments and results at layer boundaries
# ---------------------------------------------------------------------------


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _primes_upto(tr, args, kwargs, result, dur, self_s):
    tr.maximum("arith.primes_upto.max_n", _arg(args, kwargs, 0, "n"))


def _singular_series(tr, args, kwargs, result, dur, self_s):
    tr.add("density.singular_series.primes", len(result.factors))


def _local_density(tr, args, kwargs, result, dur, self_s):
    if _arg(args, kwargs, 0, "p") == 2:
        tr.add("density.local_density.p2.calls", 1)
        tr.add("density.local_density.p2.self_s", self_s)


def _residue_census(tr, args, kwargs, result, dur, self_s):
    d, nmax, p = (_arg(args, kwargs, i, k) for i, k in enumerate(("d", "nmax", "p")))
    cells = (nmax + 1) * p**d
    tr.add("lattice.residue_census.cells", cells)
    tr.add("lattice.residue_census.bytes_computed", 8 * cells)  # int64 cells, computed not measured


def _theta_value(tr, args, kwargs, result, dur, self_s):
    tr.maximum("theta.radius.max", result.radius)
    tr.add("theta.radius.sum", result.radius)


OBSERVERS = {
    "arith.primes_upto": _primes_upto,
    "density.singular_series": _singular_series,
    "density.local_density": _local_density,
    "lattice.residue_census": _residue_census,
    "theta.theta_j_eval_full": _theta_value,
    "theta.theta_eval_full": _theta_value,
}
