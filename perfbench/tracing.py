"""Outside-in layer tracing for the traced benchmark run.

The program under test carries no spans of its own.  ``Tracer.install``
rebinds the public functions and methods where the repo's layers meet
(the table in ``LAYERS``) with timing wrappers, and ``Tracer.remove``
puts the originals back.  Each wrapper opens a span; a span's *self
time* is its duration minus the time its child spans cover, so the
self times of all layers plus the unattributed remainder add up to the
traced wall time.

Spans nest per thread (the traced ``serve-mixed`` run executes handler
code on executor threads and decodes on the event-loop thread).  A
generator function is timed across each resume, so the time its
consumer spends between items is not charged to it.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import sys
import threading
import time
from collections import defaultdict

#: Span name -> the (module, attribute path) targets it wraps.  Names
#: are ``<layer>.<what>``; a module-level function is rebound in every
#: namespace its callers look it up in.
LAYERS = {
    "dataflows.enumerate": [
        ("repro.dataflows.base", "Dataflow.enumerate_candidate_arrays")],
    "kernels.score": [("repro.kernels", "score_candidates")],
    "kernels.select": [("repro.kernels", "select_best")],
    "mapping.optimize": [("repro.energy.model", "optimize_mapping")],
    "mapping.rebuild": [("repro.dataflows.base", "Dataflow.rebuild_mapping")],
    "energy.account": [("repro.engine.core", "evaluate_layer")],
    "engine.dispatch": [
        ("repro.engine.core", "EvaluationEngine.evaluate_networks"),
        ("repro.engine.core", "EvaluationEngine.evaluate_networks_stream")],
    "cache.get": [("repro.engine.cache", "EvaluationCache.get"),
                  ("repro.store.tier", "StoreTierCache.get")],
    "cache.put": [("repro.engine.cache", "EvaluationCache.put"),
                  ("repro.store.tier", "StoreTierCache.put")],
    "store.read": [("repro.store.db", "ExperimentStore.get_evaluation")],
    "store.write": [("repro.store.db", "ExperimentStore.put_evaluations"),
                    ("repro.store.db", "ExperimentStore.record_cells"),
                    ("repro.store.db",
                     "ExperimentStore.checkpoint_exploration"),
                    ("repro.store.db", "ExperimentStore.begin_run")],
    "store.query": [("repro.store.db", "ExperimentStore.query_cells")],
    "dse.sample": [("repro.dse", "DesignSpace.iter_candidates_indexed")],
    "dse.row": [("repro.dse", "DseCandidate.from_evaluation")],
    "dse.pareto_insert": [("repro.dse", "ParetoFrontier.insert")],
    "api.assemble": [("repro.api", "Session.evaluate"),
                     ("repro.api", "Session.stream_indexed")],
    "service.dispatch": [
        ("repro.service.dispatcher", "BatchDispatcher.run"),
        ("repro.service.dispatcher", "BatchDispatcher.stream_batch"),
        ("repro.service.dispatcher", "BatchDispatcher.run_dse"),
        ("repro.service.dispatcher", "BatchDispatcher.stream_dse"),
        ("repro.service.dispatcher", "BatchDispatcher.run_query")],
    "service.decode": [("repro.service.schema", "BatchRequest.from_dict"),
                       ("repro.service.schema", "DseRequest.from_dict"),
                       ("repro.service.schema", "QueryRequest.from_dict")],
    "netserve.decode": [("repro.netserve.server", "decode_line"),
                        ("repro.netserve.core", "decode_line")],
    "netserve.handle": [("repro.netserve.core", "RequestHandler.handle")],
}

#: Count-only wrappers (no span): counter name -> target.
COUNTERS = {
    "mapping.scalar_search": (
        "repro.dataflows.base", "Dataflow.enumerate_mappings"),
    "dse.points_expanded": ("repro.dse", "DesignSpace._expand_points"),
}


def _resolve(module_name: str, path: str):
    """(owner object, attribute name, raw attribute) or None if absent."""
    owner = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name, None)
        if owner is None:
            return None
    if attr not in vars(owner):
        return None
    return owner, attr, vars(owner)[attr]


class _ThreadState(threading.local):
    def __init__(self) -> None:
        self.stack = []


class Tracer:
    """Span and counter recorder with per-thread span stacks."""

    def __init__(self) -> None:
        self._local = _ThreadState()
        self._lock = threading.Lock()
        #: span name -> [self seconds, inclusive seconds, calls]
        self.spans = defaultdict(lambda: [0.0, 0.0, 0])
        self.counts = defaultdict(float)
        self._installed = []
        self.missing = []

    # -- recording -----------------------------------------------------

    def _enter(self, name: str) -> None:
        self._local.stack.append([name, time.perf_counter(), 0.0])

    def _exit(self, calls: int) -> None:
        end = time.perf_counter()
        stack = self._local.stack
        name, start, child = stack.pop()
        duration = end - start
        if stack:
            stack[-1][2] += duration
            if stack[-1][0] == name:
                calls = 0  # a same-layer override calling its base
        with self._lock:
            entry = self.spans[name]
            entry[0] += duration - child
            if not stack or stack[-1][0] != name:
                entry[1] += duration
            entry[2] += calls

    def parent(self):
        """The innermost open span on this thread, or None."""
        stack = self._local.stack
        return stack[-1][0] if stack else None

    def count(self, name: str, amount: float = 1) -> None:
        """Add ``amount`` to counter ``name``."""
        with self._lock:
            self.counts[name] += amount

    @contextlib.contextmanager
    def span(self, name: str):
        """Record the enclosed block as one span (used for bookkeeping)."""
        self._enter(name)
        try:
            yield
        finally:
            self._exit(1)

    # -- wrappers ------------------------------------------------------

    def _timed(self, name: str, fn):
        tracer = self
        hook = _HOOKS.get(name)
        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                if hook is not None:
                    with tracer.span("trace.bookkeeping"):
                        hook(tracer, fn, args, kwargs, None)
                return tracer._traced_generator(name, fn(*args, **kwargs))
            return wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if hook is not None and name in _PRE_HOOKS:
                with tracer.span("trace.bookkeeping"):
                    hook(tracer, fn, args, kwargs, None)
            tracer._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit(1)
            if hook is not None and name not in _PRE_HOOKS:
                hook(tracer, fn, args, kwargs, result)
            return result
        return wrapper

    def _traced_generator(self, name: str, inner):
        items = 0
        try:
            while True:
                self._enter(name)
                try:
                    item = next(inner)
                except StopIteration as stop:
                    return stop.value
                finally:
                    self._exit(1 if items == 0 else 0)
                items += 1
                yield item
        finally:
            inner.close()
            self.count(name + ".items", items)

    def _counted(self, name: str, fn):
        tracer = self
        if name == "dse.points_expanded":  # count the points it yields
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                items = 0
                try:
                    for item in fn(*args, **kwargs):
                        items += 1
                        yield item
                finally:
                    tracer.count(name, items)
            return wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            # Only a search the optimizer streams itself is a fallback;
            # other callers of the scalar enumerator are not searches.
            if tracer.parent() == "mapping.optimize":
                tracer.count(name)
            return fn(*args, **kwargs)
        return wrapper

    def _rebind(self, module_name: str, path: str, make) -> None:
        found = _resolve(module_name, path)
        if found is None:
            self.missing.append(f"{module_name}.{path}")
            return
        owner, attr, raw = found
        if isinstance(raw, classmethod):
            replacement = classmethod(make(raw.__func__))
        elif isinstance(raw, staticmethod):
            replacement = staticmethod(make(raw.__func__))
        else:
            replacement = make(raw)
        setattr(owner, attr, replacement)
        self._installed.append((owner, attr, raw))

    def install(self) -> None:
        """Wrap every target of ``LAYERS`` and ``COUNTERS``."""
        from repro.engine.cache import MISSING
        _MISSING[0] = MISSING
        for name, targets in LAYERS.items():
            for module_name, path in targets:
                self._rebind(module_name, path,
                             functools.partial(self._timed, name))
        for name, (module_name, path) in COUNTERS.items():
            self._rebind(module_name, path,
                         functools.partial(self._counted, name))
        if self.missing:
            print("trace: targets not found (their metrics read 0): "
                  + ", ".join(self.missing), file=sys.stderr)

    def remove(self) -> None:
        """Restore every wrapped attribute."""
        for owner, attr, raw in reversed(self._installed):
            setattr(owner, attr, raw)
        self._installed.clear()

    # -- results -------------------------------------------------------

    def self_s(self, name: str) -> float:
        return self.spans[name][0] if name in self.spans else 0.0

    def inclusive_s(self, name: str) -> float:
        return self.spans[name][1] if name in self.spans else 0.0

    def calls(self, name: str) -> int:
        return self.spans[name][2] if name in self.spans else 0

    def self_times(self) -> dict:
        """A copy of every span's self time so far."""
        with self._lock:
            return {name: entry[0] for name, entry in self.spans.items()}


# ----------------------------------------------------------------------
# Hooks: work counts taken at the same boundaries as the spans.
# ----------------------------------------------------------------------

def _enumerate_hook(tracer, fn, args, kwargs, block):
    if block is not None:
        tracer.count("dataflows.rows_emitted", len(block))


def _score_hook(tracer, fn, args, kwargs, scores):
    tracer.count("kernels.rows_scored", len(scores))


def _insert_hook(tracer, fn, args, kwargs, accepted):
    if accepted:
        tracer.count("dse.pareto_accepted")


def _get_hook(tracer, fn, args, kwargs, value):
    tracer.count("cache.hits" if value is not _MISSING[0] else "cache.misses")


#: The cache's miss sentinel, looked up once by ``Tracer.install``.
_MISSING = [None]


def _store_write_hook(tracer, fn, args, kwargs, written):
    if fn.__name__ in ("put_evaluations", "record_cells"):
        tracer.count("store.rows_written", written)


def _dispatch_hook(tracer, fn, args, kwargs, _result):
    jobs = args[1] if len(args) > 1 else kwargs.get("jobs")
    if not isinstance(jobs, (list, tuple)):
        return
    keys = [job.key for cell in jobs for job in cell.layer_jobs]
    tracer.count("engine.layer_jobs", len(keys))
    tracer.count("engine.unique_layer_jobs", len(set(keys)))


_HOOKS = {
    "dataflows.enumerate": _enumerate_hook,
    "kernels.score": _score_hook,
    "dse.pareto_insert": _insert_hook,
    "cache.get": _get_hook,
    "store.write": _store_write_hook,
    "engine.dispatch": _dispatch_hook,
}

#: Hooks that need the arguments before the call rather than its result.
_PRE_HOOKS = frozenset({"engine.dispatch"})


# ----------------------------------------------------------------------
# The per-layer metrics a traced run reports.
# ----------------------------------------------------------------------

#: Every timed span, in report order (``trace.bookkeeping`` is the
#: tracer's own argument inspection, kept out of the layers it wraps).
SPANS = tuple(LAYERS) + ("trace.bookkeeping",)

#: Spans whose call count has its own metric name.
CALL_NAMES = {"store.read": "store.reads", "store.write": "store.writes"}


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def per_layer_metrics(tracer: Tracer, wall_s: float, overhead_s: float,
                      extra: dict) -> dict:
    """Every per-layer metric as ``{name: (value, unit)}``.

    ``wall_s`` is the traced wall time the shares are taken of;
    ``extra`` supplies what the spans cannot see: cache evictions, the
    netserve queue wait and refusals, the workload's own counts of
    layer evaluations and DSE candidates, and the wall and span self
    times of ``store-warm``'s record and warm phases.
    """
    counts = tracer.counts
    out = {}
    attributed = 0.0
    for span in SPANS:
        seconds = tracer.self_s(span)
        attributed += seconds
        out[span + "_s"] = (seconds, "s")
        out[CALL_NAMES.get(span, span + "_calls")] = (tracer.calls(span),
                                                       "count")
        out[span + "_share"] = (100.0 * _ratio(seconds, wall_s), "%")
    out["dataflows.rows_emitted"] = (counts["dataflows.rows_emitted"],
                                     "count")
    out["kernels.rows_per_s"] = (
        _ratio(counts["kernels.rows_scored"], tracer.self_s("kernels.score")),
        "1/s")
    out["mapping.scalar_fallbacks"] = (counts["mapping.scalar_search"],
                                       "count")
    out["engine.dedupe_ratio"] = (
        _ratio(counts["engine.unique_layer_jobs"],
               counts["engine.layer_jobs"]),
        "ratio")
    out["cache.hit_ratio"] = (
        _ratio(counts["cache.hits"], counts["cache.hits"]
               + counts["cache.misses"]), "ratio")
    out["cache.evictions"] = (extra.get("cache.evictions", 0), "count")
    out["store.rows_written"] = (counts["store.rows_written"], "count")
    # A sampler that never expands the grid wastes nothing: ratio 1.
    out["dse.sample_yield_ratio"] = (
        _ratio(counts["dse.sample.items"],
               max(counts["dse.points_expanded"], counts["dse.sample.items"])),
        "ratio")
    out["dse.pareto_accept_ratio"] = (
        _ratio(counts["dse.pareto_accepted"],
               tracer.calls("dse.pareto_insert")), "ratio")
    out["netserve.queue_wait_s"] = (extra.get("netserve.queue_wait_s", 0.0),
                                    "s")
    for name in ("netserve.rejected", "netserve.timeouts"):
        out[name] = (extra.get(name, 0), "count")
    layer_evals = extra.get("work.layer_evals", 0)
    dse_candidates = extra.get("work.dse_candidates", 0)
    mapping = counts["dataflows.rows_emitted"]
    out["work.layer_evals"] = (layer_evals, "count")
    out["work.dse_candidates"] = (dse_candidates, "count")
    out["work.mapping_candidates"] = (mapping, "count")
    out["work.mapping_per_layer_eval"] = (_ratio(mapping, layer_evals),
                                          "ratio")
    out["work.mapping_per_dse_candidate"] = (_ratio(mapping, dse_candidates),
                                             "ratio")
    for span, phase in (("store.write", "record"), ("store.read", "warm")):
        out[f"{span}_share_of_{phase}"] = (
            100.0 * _ratio(extra.get(f"phase.{phase}.{span}", 0.0),
                           extra.get(f"phase.{phase}_s", 0.0)), "%")
    out["trace.wall_s"] = (wall_s, "s")
    out["trace.unattributed_s"] = (wall_s - attributed, "s")
    out["trace.unattributed_share"] = (
        100.0 * _ratio(wall_s - attributed, wall_s), "%")
    out["trace.overhead_s"] = (overhead_s, "s")
    return out
