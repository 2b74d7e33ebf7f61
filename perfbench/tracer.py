"""Per-layer spans and work counts for one traced gwve run.

The tracer wraps, from outside the package, every public function and every
public method (plus ``__init__``) of the classes defined in each layer
module.  Each call becomes a span: its name, start, end and the span that
caused it.  Spans are folded into per-function and per-edge aggregates as
they close, because a long engine run makes millions of them.  A span's self
time is its duration minus the part of it that its child spans cover; child
spans that ran on pool threads count by the union of their intervals.

Span stacks are kept per thread.  A task submitted to a
``ThreadPoolExecutor`` inherits the submitting thread's current span as its
parent, so worker spans hang below the Monte Carlo collector that waited
for them.  Aggregates are also kept per thread and merged at the end, so counts
are exact under any thread schedule.

Untraced invocations install no wrappers: only a traced child process calls
``Tracer.install``.
"""

from __future__ import annotations

import functools
import inspect
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np

LAYERS = (
    "offspring", "environment", "pgf_engine", "oracle", "spines",
    "streams", "experiments", "config", "cli",
)

# Targets named by a per-layer metric, or expected to disappear in planned
# refactors.  A target the package no longer has is reported as absent.
TARGETS = (
    "offspring.sum_sample",
    "offspring.sample",
    "offspring.pgf",
    "environment.dist_at",
    "pgf_engine.CompositionTrace.__init__",
    "pgf_engine.composition_trace",
    "pgf_engine.compose",
    "pgf_engine.d1_compose",
    "pgf_engine.d2_compose",
    "pgf_engine.g_ratio",
    "oracle.exact_pmf",
    "streams.stream",
    "spines.simulate_gw_populations",
    "spines.simulate_one_spine_populations",
    "spines.simulate_two_spine_populations",
    "experiments.collect_populations",
    "cli.main",
)

_HOOK_ERRORS = (AttributeError, TypeError, ValueError, IndexError)


class _Frame:
    __slots__ = ("key", "child_s", "async_spans")

    def __init__(self, key: str):
        self.key = key
        self.child_s = 0.0
        self.async_spans: list[tuple[float, float]] = []


class _ThreadState:
    """One thread's span stack and aggregates."""

    def __init__(self):
        self.stack: list[_Frame] = []
        self.inherited: _Frame | None = None  # parent span of a pool task
        self.funcs: dict[str, list] = {}      # key -> [calls, total_s, self_s]
        self.edges: dict[tuple, list] = {}    # (parent key, key) -> [calls, total_s]
        self.counts: dict[str, float] = {}
        self.maxima: dict[str, float] = {}

    def add(self, name: str, value) -> None:
        self.counts[name] = self.counts.get(name, 0) + value

    def high(self, name: str, value) -> None:
        if value > self.maxima.get(name, -np.inf):
            self.maxima[name] = value


def _covered(spans: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of spans, clipped to [lo, hi]."""
    total, end = 0.0, lo
    for a, b in sorted(spans):
        a, b = max(a, end), min(b, hi)
        if b > a:
            total += b - a
            end = b
    return total


# Work counts recorded at layer boundaries, keyed by (layer, function name).
# Each reads only the result, so argument-list changes cannot break it.
def _count_sum_sample(st, result):
    st.add("offspring.sum_sample.elems", int(np.size(result)))


def _count_sample(st, result):
    st.add("offspring.sample.draws", int(np.size(result)))


def _count_exact_pmf(st, result):
    st.high("oracle.cap_max", int(result.cap))
    st.high("oracle.tail_mass_max", float(result.tail_mass))


def _count_batch(st, result):
    x = np.asarray(result.x_n)
    st.add("spines.replicates", int(x.size) + int(result.aborted))
    st.add("spines.aborted", int(result.aborted))
    st.add("spines.survivors", int(np.count_nonzero(x)))


_HOOKS = {
    ("offspring", "sum_sample"): _count_sum_sample,
    ("offspring", "sample"): _count_sample,
    ("oracle", "exact_pmf"): _count_exact_pmf,
    ("spines", "simulate_gw_populations"): _count_batch,
    ("spines", "simulate_one_spine_populations"): _count_batch,
    ("spines", "simulate_two_spine_populations"): _count_batch,
}


class Tracer:
    def __init__(self):
        self._local = threading.local()
        self._states: list[_ThreadState] = []
        self._originals: dict[int, tuple] = {}  # id(original) -> (original, wrapper)
        self.keys: list[str] = []

    def _state(self) -> _ThreadState:
        try:
            return self._local.state
        except AttributeError:
            st = _ThreadState()
            self._local.state = st
            self._states.append(st)  # list.append is atomic
            return st

    # ------------------------------------------------------------------
    # Installation.

    def _wrap(self, key: str, fn, hook):
        state = self._state
        perf = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            st = state()
            stack = st.stack
            parent = stack[-1] if stack else st.inherited
            frame = _Frame(key)
            stack.append(frame)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf()
                stack.pop()
                dur = t1 - t0
                self_s = dur - frame.child_s
                if frame.async_spans:
                    self_s -= _covered(frame.async_spans, t0, t1)
                agg = st.funcs.get(key)
                if agg is None:
                    agg = st.funcs[key] = [0, 0.0, 0.0]
                agg[0] += 1
                agg[1] += dur
                agg[2] += max(0.0, self_s)
                pkey = parent.key if parent is not None else None
                edge = st.edges.get((pkey, key))
                if edge is None:
                    edge = st.edges[(pkey, key)] = [0, 0.0]
                edge[0] += 1
                edge[1] += dur
                if parent is not None:
                    if stack:
                        parent.child_s += dur
                    else:  # ran on a pool thread for a span of another thread
                        parent.async_spans.append((t0, t1))
            if hook is not None:
                try:
                    hook(st, result)
                except _HOOK_ERRORS:
                    st.add("trace.hook_errors", 1)
            return result

        self._originals[id(fn)] = (fn, traced)
        self.keys.append(key)
        return traced

    def _wrap_class(self, layer: str, cls) -> None:
        for attr, member in list(vars(cls).items()):
            if attr.startswith("_") and attr != "__init__":
                continue
            key = f"{layer}.{cls.__name__}.{attr}"
            hook = _HOOKS.get((layer, attr))
            if isinstance(member, (staticmethod, classmethod)):
                setattr(cls, attr, type(member)(self._wrap(key, member.__func__, hook)))
            elif inspect.isfunction(member):
                setattr(cls, attr, self._wrap(key, member, hook))

    def install(self, modules: dict, rebind_in) -> None:
        """Wrap the public functions and classes defined in each layer module
        (``{layer: module}``), then rebind every reference to a wrapped
        function held by name or in a module-level dict of ``rebind_in``."""
        for layer, mod in modules.items():
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isclass(obj):
                    self._wrap_class(layer, obj)
                elif inspect.isfunction(obj):
                    setattr(mod, name, self._wrap(f"{layer}.{name}", obj, _HOOKS.get((layer, name))))
        for mod in rebind_in:
            for name, obj in list(vars(mod).items()):
                hit = self._originals.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(mod, name, hit[1])
                elif isinstance(obj, dict):
                    for k, v in list(obj.items()):
                        hit = self._originals.get(id(v))
                        if hit is not None and hit[0] is v:
                            obj[k] = hit[1]
        self._patch_pool()

    def _patch_pool(self) -> None:
        """Let pool tasks inherit the submitting thread's current span."""
        original = ThreadPoolExecutor.submit
        state = self._state

        @functools.wraps(original)
        def submit(pool, fn, /, *args, **kwargs):
            st = state()
            parent = st.stack[-1] if st.stack else st.inherited

            def task(*a, **k):
                wst = state()
                previous, wst.inherited = wst.inherited, parent
                try:
                    return fn(*a, **k)
                finally:
                    wst.inherited = previous

            return original(pool, task, *args, **kwargs)

        ThreadPoolExecutor.submit = submit

    def absent(self, targets=TARGETS) -> list[str]:
        """Targets with no wrapped function: a target ``layer.name`` matches a
        function of that name or a method of that name on any class."""
        found = set(self.keys)
        out = []
        for target in targets:
            layer, _, rest = target.partition(".")
            if target in found:
                continue
            if "." not in rest and any(
                k.startswith(layer + ".") and k.rsplit(".", 1)[1] == rest for k in found
            ):
                continue
            out.append(target)
        return out

    # ------------------------------------------------------------------
    # Results.

    def summary(self) -> dict:
        """Aggregates merged over threads, in JSON-ready form."""
        funcs: dict[str, list] = {}
        edges: dict[str, list] = {}
        counts: dict[str, float] = {}
        maxima: dict[str, float] = {}
        for st in list(self._states):
            for key, (calls, total, self_s) in st.funcs.items():
                agg = funcs.setdefault(key, [0, 0.0, 0.0])
                agg[0] += calls
                agg[1] += total
                agg[2] += self_s
            for (pkey, key), (calls, total) in st.edges.items():
                agg = edges.setdefault(f"{pkey or ''}>{key}", [0, 0.0])
                agg[0] += calls
                agg[1] += total
            for name, value in st.counts.items():
                counts[name] = counts.get(name, 0) + value
            for name, value in st.maxima.items():
                maxima[name] = max(maxima.get(name, value), value)
        return {
            "funcs": {k: {"calls": c, "total_s": t, "self_s": s} for k, (c, t, s) in sorted(funcs.items())},
            "edges": {k: {"calls": c, "total_s": t} for k, (c, t) in sorted(edges.items())},
            "counts": counts,
            "maxima": maxima,
            "absent": self.absent(),
        }


def _select(funcs: dict, layer: str, name: str | None = None):
    """Calls and self time summed over keys of a layer (and function name)."""
    calls, self_s = 0, 0.0
    for key, agg in funcs.items():
        parts = key.split(".")
        if parts[0] != layer or (name is not None and parts[-1] != name):
            continue
        calls += agg["calls"]
        self_s += agg["self_s"]
    return calls, self_s


def layer_metrics(summary: dict, threads: int) -> dict:
    """Per-layer metrics ``{name: (value, unit)}`` from a traced run's summary."""
    funcs, edges, counts, maxima = (summary[k] for k in ("funcs", "edges", "counts", "maxima"))
    out = {}
    for layer in LAYERS:
        calls, self_s = _select(funcs, layer)
        out[f"{layer}.calls"] = (calls, "count")
        out[f"{layer}.self_s"] = (self_s, "s")
    for layer, name, label in (
        ("offspring", "sum_sample", "offspring.sum_sample"),
        ("offspring", "sample", "offspring.sample"),
        ("offspring", "pgf", "offspring.pgf"),
        ("environment", "dist_at", "environment.dist_at"),
        ("pgf_engine", "g_ratio", "pgf_engine.g_ratio"),
        ("oracle", "exact_pmf", "oracle.exact_pmf"),
        ("streams", "stream", "streams.stream"),
    ):
        calls, self_s = _select(funcs, layer, name)
        out[f"{label}.calls"] = (calls, "count")
        out[f"{label}.self_s"] = (self_s, "s")
    out["pgf_engine.trace.calls"] = (
        funcs.get("pgf_engine.CompositionTrace.__init__", {"calls": 0})["calls"], "count")
    out["offspring.sum_sample.elems"] = (counts.get("offspring.sum_sample.elems", 0), "count")
    out["offspring.sample.draws"] = (counts.get("offspring.sample.draws", 0), "count")
    out["oracle.cap_max"] = (maxima.get("oracle.cap_max", 0), "count")
    out["oracle.tail_mass_max"] = (maxima.get("oracle.tail_mass_max", 0.0), "prob")

    reps = counts.get("spines.replicates", 0)
    out["spines.replicates"] = (reps, "count")
    out["spines.abort_frac"] = (counts.get("spines.aborted", 0) / reps if reps else 0.0, "ratio")
    elems = counts.get("offspring.sum_sample.elems", 0)
    out["experiments.survivor_yield"] = (
        counts.get("spines.survivors", 0) / elems if elems else 0.0, "ratio")
    # Busy share of the Monte Carlo collector: time in the spans it launched
    # (on pool threads or inline) over threads x its own wall time.
    collect = funcs.get("experiments.collect_populations", {"total_s": 0.0})["total_s"]
    busy = sum(e["total_s"] for k, e in edges.items()
               if k.startswith("experiments.collect_populations>"))
    out["experiments.mc_busy_frac"] = (busy / (threads * collect) if collect else 0.0, "ratio")
    out["trace.absent_targets"] = (len(summary["absent"]), "count")
    out["trace.hook_errors"] = (counts.get("trace.hook_errors", 0), "count")
    return out
