"""Span tracing of pcid's layer boundaries, installed from outside the library.

`Tracer.install()` replaces the public entry points of each pcid module with
wrappers that record one span per call: name, layer, start, end, parent span
and thread id, plus a few computed counters (draw bytes, GEMM flops, CSV
rows).  Every module attribute and registry entry that refers to the same
function object is replaced, so names that other modules imported directly
(`verifiers.run_ensemble`, `runner.VERIFIERS[...]`) are traced too.  A
boundary that a later version of pcid no longer has is listed in
`Tracer.absent` instead of failing.

Spans are kept in memory and written once, at the end, by `write_spans`.
Recording is thread-safe: chunk workers run on a thread pool.  A span
opened on a worker thread with no open span of its own takes the innermost
open `map_path_chunks` span as its parent.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import threading
import time
from dataclasses import dataclass


# (module, attribute, span name).  Span names start with their layer.
BOUNDARIES = (
    ("pcid.engine", "run_ensemble", "engine.run_ensemble"),
    ("pcid.engine", "map_path_chunks", "engine.map_path_chunks"),
    ("pcid.engine", "_run_chunk", "engine.chunk"),
    ("pcid.engine", "_chunk_draws", "engine.draws"),
    ("pcid.statistics", "clt_path_summaries", "statistics.reducer"),
    ("pcid.statistics", "gaussian_path_summaries", "statistics.reducer"),
    ("pcid.verifiers", "energy_permutation_test", "verifiers.energy"),
    ("pcid.runner", "write_series", "runner.write_series"),
    ("pcid.runner", "load_config", "specs.load_config"),
    ("pcid.specs", "spec_from_dict", "specs.spec_from_dict"),
    ("pcid.engine", "_validate_run_args", "specs.validate"),
)
# Families matched by name, so that a renamed or added member is still traced.
KERNEL_PREFIX = ("pcid.processes", "simulate_", "_chunk")
CHECK_PREFIX = ("pcid.verifiers", "check_", "")
KS_FUNCTIONS = ("kstest", "ks_2samp")
REKEY = ("pcid.engine", "_StreamFiller", "rekey")


def _maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


@dataclass
class Span:
    sid: int
    name: str
    parent: int | None
    thread: int
    start: float
    end: float = 0.0
    rss_start: float = 0.0
    rss_end: float = 0.0
    threads: int | None = None     # map_path_chunks only: resolved worker count

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    def to_dict(self) -> dict:
        return {"id": self.sid, "name": self.name, "parent": self.parent,
                "thread": self.thread, "start": self.start, "end": self.end,
                "rss_growth_mb": self.rss_end - self.rss_start}


class _ModuleProxy:
    """Stands in for a module, overriding some of its functions."""

    def __init__(self, module, overrides: dict):
        self._module = module
        self._overrides = overrides

    def __getattr__(self, name):
        if name in self._overrides:
            return self._overrides[name]
        return getattr(self._module, name)


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.absent: list[str] = []
        self._thread_counters: list[dict[str, float]] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._open_maps: list[int] = []
        self._next_id = 0

    # -- recording -----------------------------------------------------------

    def _stack(self) -> list[int]:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def count(self, name: str, amount: float = 1) -> None:
        # per-thread tallies: no lock on the hot path (one call per re-key)
        counters = getattr(self._local, "counters", None)
        if counters is None:
            counters = self._local.counters = {}
            with self._lock:
                self._thread_counters.append(counters)
        counters[name] = counters.get(name, 0) + amount

    @property
    def counters(self) -> dict[str, float]:
        total: dict[str, float] = {}
        with self._lock:
            for counters in self._thread_counters:
                for name, value in counters.items():
                    total[name] = total.get(name, 0) + value
        return total

    def _counter_failed(self, name: str) -> None:
        with self._lock:
            if f"{name} counters" not in self.absent:
                self.absent.append(f"{name} counters")

    def _open(self, name: str) -> Span:
        stack = self._stack()
        with self._lock:
            parent = stack[-1] if stack else (self._open_maps[-1] if self._open_maps else None)
            span = Span(self._next_id, name, parent, threading.get_ident(),
                        time.perf_counter(), rss_start=_maxrss_mb())
            self._next_id += 1
            self.spans.append(span)
            if name == "engine.map_path_chunks":
                self._open_maps.append(span.sid)
        stack.append(span.sid)
        return span

    def _close(self, span: Span) -> None:
        span.rss_end = _maxrss_mb()
        span.end = time.perf_counter()
        self._stack().pop()
        if span.name == "engine.map_path_chunks":
            with self._lock:
                self._open_maps.remove(span.sid)

    def wrap(self, fn, name: str, on_call=None):
        tracer = self

        def traced(*args, **kwargs):
            span = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(span)
            if on_call is not None:
                try:
                    on_call(span, args, kwargs, result)
                except Exception:  # noqa: BLE001 - a changed signature loses a counter, not the run
                    tracer._counter_failed(name)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    # -- installation --------------------------------------------------------

    @staticmethod
    def _replace_everywhere(original, replacement) -> None:
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == "pcid" or mod_name.startswith("pcid.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, replacement)
                elif isinstance(value, dict):
                    for key, item in list(value.items()):
                        if item is original:
                            value[key] = replacement

    def _wrap_boundary(self, module, attr: str, name: str, on_call=None) -> None:
        fn = getattr(module, attr, None)
        if not callable(fn):
            self.absent.append(f"{module.__name__}.{attr}")
            return
        self._replace_everywhere(fn, self.wrap(fn, name, on_call))

    def install(self) -> None:
        import pcid.engine
        import pcid.processes
        import pcid.runner
        import pcid.statistics
        import pcid.verifiers

        modules = {m.__name__: m for m in (pcid.engine, pcid.processes, pcid.runner,
                                           pcid.statistics, pcid.verifiers,
                                           sys.modules["pcid.specs"])}
        hooks = {"engine.draws": self._on_draws,
                 "engine.map_path_chunks": self._on_map,
                 "verifiers.energy": self._on_energy,
                 "runner.write_series": self._on_write_series}
        for mod_name, attr, name in BOUNDARIES:
            self._wrap_boundary(modules[mod_name], attr, name, hooks.get(name))

        for (mod_name, prefix, suffix), span_name in ((KERNEL_PREFIX, "processes.kernel"),
                                                      (CHECK_PREFIX, "verifiers")):
            module = modules[mod_name]
            names = sorted(a for a in vars(module) if a.startswith(prefix)
                           and a.endswith(suffix) and callable(getattr(module, a)))
            if not names:
                self.absent.append(f"{mod_name}.{prefix}*{suffix}")
            for attr in names:
                short = attr[len(prefix):len(attr) - len(suffix)] if suffix else attr
                on_call = self._on_kernel if span_name == "processes.kernel" else None
                self._wrap_boundary(module, attr, f"{span_name}.{short}", on_call)

        stats_module = getattr(pcid.verifiers, "sp_stats", None)
        ks = {f: self.wrap(getattr(stats_module, f), "verifiers.ks")
              for f in KS_FUNCTIONS if callable(getattr(stats_module, f, None))}
        if ks:
            pcid.verifiers.sp_stats = _ModuleProxy(stats_module, ks)
        else:
            self.absent.append("pcid.verifiers.sp_stats.ks*")

        json_module = getattr(pcid.runner, "json", None)
        if json_module is not None and callable(getattr(json_module, "dump", None)):
            pcid.runner.json = _ModuleProxy(
                json_module, {"dump": self.wrap(json_module.dump, "runner.report_write")})
        else:
            self.absent.append("pcid.runner.json.dump")

        mod_name, cls_name, method = REKEY
        cls = getattr(modules[mod_name], cls_name, None)
        rekey = getattr(cls, method, None)
        if rekey is None:
            self.absent.append(f"{mod_name}.{cls_name}.{method}")
        else:
            def counted_rekey(filler, *args, **kwargs):
                self.count("engine.draws.rekeys")
                return rekey(filler, *args, **kwargs)
            setattr(cls, method, counted_rekey)

    # -- computed counters ---------------------------------------------------

    def _on_draws(self, span, args, kwargs, result) -> None:
        if isinstance(result, dict):
            self.count("engine.draws.bytes",
                       sum(getattr(v, "nbytes", 0) for v in result.values()))

    def _on_map(self, span, args, kwargs, result) -> None:
        threads = kwargs.get("threads")
        span.threads = threads if threads else (os.cpu_count() or 1)
        n_coords = getattr(args[0], "n_coords", 1)
        self.count("engine.path_steps", int(args[1]) * int(args[2]) * n_coords)

    def _on_kernel(self, span, args, kwargs, result) -> None:
        spec, horizon = args[0], int(args[1])
        n_paths = next((a.shape[0] for a in args[2:] if getattr(a, "ndim", 0) >= 1), 0)
        self.count("processes.kernel.path_steps",
                   n_paths * horizon * getattr(spec, "n_coords", 1))

    def _on_energy(self, span, args, kwargs, result) -> None:
        n = len(args[0]) + len(args[1])
        perms = kwargs.get("n_permutations", args[3] if len(args) > 3 else 199)
        self.count("verifiers.energy.flops", 2 * n * n * (perms + 1))
        self.count("verifiers.energy.matrix_bytes", 8 * (n * n + 2 * n * (perms + 1)))

    def _on_write_series(self, span, args, kwargs, result) -> None:
        ens, record = args[0], args[1]
        self.count("runner.write_series.rows",
                   sum(int(ens.arrays[name].size) for name in record))
        self.count("runner.write_series.bytes",
                   sum(os.path.getsize(p) for p in result or ()))

    # -- output --------------------------------------------------------------

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span.to_dict()) + "\n")


def _union_length(intervals: list[tuple[float, float]]) -> float:
    total, cur_lo, cur_hi = 0.0, None, None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the part of it that its children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out = {}
    for s in spans:
        clipped = [(max(lo, s.start), min(hi, s.end)) for lo, hi in children.get(s.sid, ())]
        out[s.sid] = (s.end - s.start) - _union_length([c for c in clipped if c[1] > c[0]])
    return out


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Aggregate spans and counters into the per-layer metrics (unit-less
    values; units are declared in BENCHMARK.json)."""
    spans = tracer.spans
    by_id = {s.sid: s for s in spans}
    selfs = self_times(spans)
    m: dict[str, float] = {}

    def add(name: str, value: float) -> None:
        m[name] = m.get(name, 0.0) + value

    for s in spans:
        dur = s.end - s.start
        add(f"{s.layer}.self_s", selfs[s.sid])
        if s.name.startswith("verifiers.check_"):
            add(f"{s.name}.self_s", selfs[s.sid])
        # time of a boundary counts once even when it nests in itself
        parent = by_id.get(s.parent)
        if parent is None or parent.name != s.name:
            add(f"{s.name}.s", dur)
        if s.name.startswith("processes.kernel."):
            add("processes.kernel.s", dur)
        # high-water growth counts once per outermost span of a layer
        outer = parent
        while outer is not None and outer.layer != s.layer:
            outer = by_id.get(outer.parent)
        if outer is None:
            add(f"{s.layer}.rss_growth_mb", s.rss_end - s.rss_start)

    maps = [s for s in spans if s.name == "engine.map_path_chunks"]
    busy = sum(s.end - s.start for s in spans
               if s.name in ("engine.chunk", "statistics.reducer") and s.parent is not None
               and by_id[s.parent].name == "engine.map_path_chunks")
    capacity = sum((s.threads or 1) * (s.end - s.start) for s in maps)
    m["engine.busy_frac"] = busy / capacity if capacity > 0 else 0.0
    m["engine.chunks"] = float(sum(1 for s in spans if s.name == "engine.chunk"))
    m["engine.draws.calls"] = float(sum(1 for s in spans if s.name == "engine.draws"))
    for name, value in tracer.counters.items():
        m[name] = float(value)
    steps = m.get("processes.kernel.path_steps", 0.0)
    kernel_s = m.get("processes.kernel.s", 0.0)
    m["processes.kernel.ns_per_path_step"] = 1e9 * kernel_s / steps if steps else 0.0
    m["trace.spans"] = float(len(spans))
    return m
