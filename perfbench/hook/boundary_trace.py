"""Boundary tracer for the pdbell layers, used by the benchmark's traced run.

A layer is one module of the package: ``cli``, ``checks``, ``sequences``,
``polynomials``, ``series``, ``bernoulli`` and ``oracle``.  A span is recorded
only where one layer calls into another.  The tracer replaces, in each
caller's module namespace, the module aliases it holds (``seq``, ``poly``,
``ser``, ...) by proxies and the functions it imported by name by wrappers,
so a call such as ``seq.stirling2`` from ``checks`` is timed while calls that
``sequences`` makes to its own functions run unwrapped.  Instances of the two
value classes, ``IntPolynomial`` and ``TruncatedSeries``, are operated on by
every layer, so their arithmetic methods are wrapped on the class and open a
span only when the innermost open span belongs to another layer.  Accessors
(``coeff``, ``degree``, ``__eq__``, ...) stay unwrapped: the package calls
them inside its own loops, and their cost stays with the caller.  Functions
a module stored in its own tables at import time (``cli._SEQ_FAMILIES``) are
called untraced; none of the benchmark's jobs reaches them.

Spans stay in memory as flat integer arrays.  A layer's self time is the
duration of its spans minus the durations of their child spans.  The
installer also adds the counters the benchmark reports; memos reachable only
through private names are read once after the run and never written.
"""

from __future__ import annotations

import sys
import time
import types
from array import array
from typing import Callable, Iterable

LAYERS = ("cli", "checks", "sequences", "polynomials", "series", "bernoulli", "oracle")
PACKAGE = "pdbell"
VALUE_CLASSES = {
    ("polynomials", "IntPolynomial"): (
        "__init__", "__add__", "__sub__", "__neg__", "__mul__", "__rmul__",
        "evaluate", "reflected", "scale_variable", "times_y_power", "__str__",
    ),
    ("series", "TruncatedSeries"): (
        "__init__", "zero", "one", "t", "from_constant", "__add__", "__sub__",
        "__neg__", "scale", "shift", "__mul__", "__truediv__", "exp", "pow",
    ),
}
CACHED_CONSTRUCTORS = ("exponential_poly", "r_exponential_poly", "geometric_poly", "pdb_poly")


def self_times(parents: Iterable[int], starts: Iterable[int], ends: Iterable[int]) -> list[int]:
    """Self time of every span: its duration minus its children's durations.

    Spans are given in the order they were opened; ``parents[i]`` is the index
    of the span that was open when span ``i`` started, or -1 for a root.  On
    one thread child spans never overlap, so their durations add up.
    """
    durations = [end - start for start, end in zip(starts, ends)]
    own = list(durations)
    for parent, duration in zip(parents, durations):
        if parent >= 0:
            own[parent] -= duration
    return own


class BoundaryTracer:
    """In-memory span recorder; one instance per traced process."""

    def __init__(self, clock: Callable[[], int] = time.perf_counter_ns) -> None:
        self.clock = clock
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_of = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        # Open spans, innermost last; the sentinel stands for "outside pdbell".
        self._open_layers: list[str | None] = [None]
        self._open_ids: list[int] = [-1]
        self.counters: dict[str, int] = {}
        self.distinct: dict[str, set] = {}

    def wrap(self, fn: Callable, layer: str, name: str) -> Callable:
        """``fn`` timed as a span of ``layer`` unless called from ``layer``."""
        layer = sys.intern(layer)  # the guard below compares by identity
        name_id = self._name_ids.setdefault(name, len(self.names))
        if name_id == len(self.names):
            self.names.append(name)
        open_layers, open_ids = self._open_layers, self._open_ids
        name_of, parent, start, end = self.name_of, self.parent, self.start, self.end
        clock = self.clock

        def traced(*args, **kwargs):
            if open_layers[-1] is layer:
                return fn(*args, **kwargs)
            idx = len(name_of)
            name_of.append(name_id)
            parent.append(open_ids[-1])
            end.append(0)
            open_layers.append(layer)
            open_ids.append(idx)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                open_layers.pop()
                open_ids.pop()

        traced.__wrapped__ = fn
        return traced

    def count(self, fn: Callable, key: str, distinct: bool = False) -> Callable:
        """``fn`` with a call counter ``key.calls``, and optionally a set of
        the distinct positional argument tuples it saw (``key.distinct``)."""
        counters = self.counters
        counters[key + ".calls"] = 0
        seen = self.distinct.setdefault(key, set()) if distinct else None

        def counted(*args, **kwargs):
            counters[key + ".calls"] += 1
            if seen is not None:
                seen.add(args)
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    def summary(self) -> dict[str, object]:
        """Self time (ns) and span count per layer and per boundary name."""
        own = self_times(self.parent, self.start, self.end)
        by_name: dict[str, list[int]] = {}
        for name_id, ns in zip(self.name_of, own):
            entry = by_name.setdefault(self.names[name_id], [0, 0])
            entry[0] += ns
            entry[1] += 1
        layers = {layer: {"self_ns": 0, "calls": 0} for layer in LAYERS}
        for name, (ns, calls) in by_name.items():
            layer = layers[name.split(".", 1)[0]]
            layer["self_ns"] += ns
            layer["calls"] += calls
        return {
            "layers": layers,
            "functions": {k: {"self_ns": v[0], "calls": v[1]} for k, v in by_name.items()},
            "spans": len(self.name_of),
        }


class _LayerProxy:
    """Stands in for a layer module inside another layer's namespace."""

    def __init__(self, module: types.ModuleType, layer: str, tracer: BoundaryTracer):
        self._module = module
        self._layer = layer
        self._tracer = tracer

    def __getattr__(self, attr: str):
        value = getattr(self._module, attr)
        if callable(value) and not isinstance(value, type):
            value = self._tracer.wrap(value, self._layer, f"{self._layer}.{attr}")
        # cache, so later lookups are plain instance attribute reads
        self.__dict__[attr] = value
        return value


def _layer_of(value: object) -> str | None:
    module = getattr(value, "__module__", None) or getattr(value, "__name__", None)
    if isinstance(module, str) and module.startswith(PACKAGE + "."):
        layer = module[len(PACKAGE) + 1 :]
        if layer in LAYERS:
            return layer
    return None


def install(tracer: BoundaryTracer) -> None:
    """Wrap every cross-layer entry point of the imported pdbell modules.

    Must run after ``pdbell.cli`` is imported (which imports every layer) and
    before ``pdbell.cli.main`` is looked up by the caller.
    """
    modules = {layer: sys.modules[f"{PACKAGE}.{layer}"] for layer in LAYERS}

    # Counters first, so the wrappers installed below wrap the counted callables.
    seq = modules["sequences"]
    seq.pdb_number = tracer.count(seq.pdb_number, "sequences.pdb_number", distinct=True)
    poly_cls = modules["polynomials"].IntPolynomial
    poly_cls.__init__ = tracer.count(poly_cls.__init__, "polynomials.construct")
    for (layer, cls_name), methods in VALUE_CLASSES.items():
        cls = getattr(modules[layer], cls_name)
        for attr in methods:
            member = vars(cls)[attr]
            name = f"{layer}.{cls_name}.{attr}"
            if isinstance(member, classmethod):
                setattr(cls, attr, classmethod(tracer.wrap(member.__func__, layer, name)))
            else:
                setattr(cls, attr, tracer.wrap(member, layer, name))

    for caller, module in modules.items():
        namespace = vars(module)
        for attr, value in list(namespace.items()):
            is_module = isinstance(value, types.ModuleType)
            if not is_module and (isinstance(value, type) or not callable(value)):
                continue
            layer = _layer_of(value)
            if layer is None or layer == caller:
                continue
            if is_module:
                namespace[attr] = _LayerProxy(value, layer, tracer)
            else:
                namespace[attr] = tracer.wrap(value, layer, f"{layer}.{value.__name__}")

    cli = modules["cli"]
    cli.main = tracer.wrap(cli.main, "cli", "cli.main")


def memo_counters(tracer: BoundaryTracer) -> dict[str, float]:
    """Counters read after the run; private memos are only read."""
    modules = {layer: sys.modules[f"{PACKAGE}.{layer}"] for layer in LAYERS}
    poly = modules["polynomials"]
    hits = misses = 0
    for name in CACHED_CONSTRUCTORS:
        info = getattr(poly, name).cache_info()
        hits += info.hits
        misses += info.misses
    triangles = dict(modules["sequences"]._triangles)
    out: dict[str, float] = dict(tracer.counters)
    out.update({f"{key}.distinct": len(seen) for key, seen in tracer.distinct.items()})
    out.update(
        {
            "polynomials.cache_hits": hits,
            "polynomials.cache_lookups": hits + misses,
            "sequences.triangles": len(triangles),
            "sequences.triangle_rows": sum(len(t._rows) for t in triangles.values()),
            "bernoulli.cache_entries": len(modules["bernoulli"]._cache),
        }
    )
    return out
