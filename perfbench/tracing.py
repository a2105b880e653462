"""Per-layer timing installed from outside the program.

:class:`Tracer` replaces the public entry points of each layer with
timing wrappers at run time and puts the originals back on
:meth:`Tracer.remove`; nothing under ``src/`` is edited.  Each wrapper
adds one call count and the call's wall time to an in-memory aggregate
named after the layer.  Aggregates, not spans, are kept: the benchmark
reports per-call means and per-point totals, and an aggregate costs one
locked add per call.  The lock matters because the service settles its
miss batches on a worker thread while the event loop keeps answering.

:func:`layer_metrics` turns one aggregate into the per-layer metrics
named in ``BENCHMARK.json``.  A metric whose layer did not run in the
traced process reads 0.
"""

from __future__ import annotations

import contextvars
import threading
import time
from collections import defaultdict

# Kernel lookups and structural-cache hits are read from the program's
# own counters, not from wrappers.
from repro.circuit.biasing import kernel_totals
from repro.core import comparison, scheme_evaluator
from repro.core.config import ExperimentConfig
from repro.core.scheme_evaluator import structural_cache_stats
from repro.engine import cache, evaluator, executor, service
from repro.engine.distributed import DistributedExecutor

#: Entry time of the ``EvaluationService.evaluate`` call running in this
#: task, and the id of the config that call built.  Set by the wrappers
#: so a miss's queue wait can be read when its batch starts.
_ENTRY = contextvars.ContextVar("entry", default=None)
_CONFIG_ID = contextvars.ContextVar("config_id", default=None)


class Tracer:
    """Counts and times calls into the program's layers."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._patches: list[tuple[object, str, object]] = []
        self.reset()

    # -- aggregates --------------------------------------------------------------
    def reset(self) -> None:
        """Zero every aggregate and re-read the program's counters."""
        with self._lock:
            self.calls: dict[str, list] = defaultdict(lambda: [0, 0.0])
            self.items: dict[str, int] = defaultdict(int)
            #: id(config) -> evaluate entry time, for misses not yet run.
            self.waiting: dict[int, float] = {}
        kernel = kernel_totals()
        self._kernel_start = (kernel.hits, kernel.misses)
        self._structural = structural_cache_stats()
        self._structural_start = (self._structural.scheme_hits,
                                  self._structural.scheme_misses)

    def add(self, name: str, seconds: float, items: int = 0) -> None:
        """Record one call of ``name`` that took ``seconds``."""
        with self._lock:
            record = self.calls[name]
            record[0] += 1
            record[1] += seconds
            if items:
                self.items[name] += items

    def snapshot(self) -> dict:
        """JSON-safe copy of the aggregates plus counter deltas."""
        kernel = kernel_totals()
        # The stats object read at reset; clearing the structural cache
        # replaces it, which no traced phase does.
        stats = self._structural
        scheme_hits = stats.scheme_hits - self._structural_start[0]
        scheme_misses = stats.scheme_misses - self._structural_start[1]
        with self._lock:
            return {
                "calls": {name: list(record) for name, record in self.calls.items()},
                "items": dict(self.items),
                "kernel_hits": kernel.hits - self._kernel_start[0],
                "kernel_misses": kernel.misses - self._kernel_start[1],
                "scheme_hits": scheme_hits,
                "scheme_misses": scheme_misses,
            }

    # -- wrappers ----------------------------------------------------------------
    def _patch(self, owner: object, attribute: str, wrapper) -> None:
        original = getattr(owner, attribute)
        self._patches.append((owner, attribute, original))
        setattr(owner, attribute, wrapper(original))

    def _timed(self, name: str, items=None):
        """Wrapper factory: time every call under ``name``; ``items``
        maps the call's arguments to a work-item count."""
        def wrap(original):
            def timed(*args, **kwargs):
                start = time.perf_counter()
                try:
                    return original(*args, **kwargs)
                finally:
                    self.add(name, time.perf_counter() - start,
                             items(*args, **kwargs) if items else 0)
            return timed
        return wrap

    def _cache_get(self, original):
        def get(cache_self, key):
            start = time.perf_counter()
            entry = original(cache_self, key)
            self.add("cache.get_hit" if entry is not None else "cache.get_miss",
                     time.perf_counter() - start)
            return entry
        return get

    def _service_point_key(self, original):
        def point_key(config, *args, **kwargs):
            start = time.perf_counter()
            try:
                return original(config, *args, **kwargs)
            finally:
                self.add("cache.point_key", time.perf_counter() - start)
                entry = _ENTRY.get()
                if entry is not None:
                    _CONFIG_ID.set(id(config))
                    with self._lock:
                        self.waiting[id(config)] = entry
        return point_key

    def _service_evaluate(self, original):
        async def evaluate(service_self, overrides, timeout_s=None):
            start = time.perf_counter()
            # The original runs without suspending up to its point_key
            # call, so the entry time reaches that call through the task's
            # context and no other request can interleave.
            _ENTRY.set(start)
            _CONFIG_ID.set(None)
            name = "service.evaluate_error"
            try:
                result = await original(service_self, overrides, timeout_s=timeout_s)
                name = ("service.evaluate_hit" if result.from_cache
                        else "service.evaluate_coalesced" if result.coalesced
                        else "service.evaluate_miss")
                return result
            finally:
                self.add(name, time.perf_counter() - start)
                with self._lock:  # a miss's batch has already taken its entry
                    self.waiting.pop(_CONFIG_ID.get(), None)
        return evaluate

    def _serial_run(self, original):
        def run(executor_self, items):
            start = time.perf_counter()
            with self._lock:
                waits = [start - entry for entry in
                         (self.waiting.pop(id(item.config), None) for item in items)
                         if entry is not None]
            try:
                return original(executor_self, items)
            finally:
                self.add("executor.serial_run", time.perf_counter() - start, len(items))
                for wait in waits:
                    self.add("service.queue_wait", wait)
        return run

    def install(self) -> "Tracer":
        """Wrap every layer's public entry points; a second call before
        :meth:`remove` does nothing."""
        if self._patches:
            return self
        # Modules that imported a function by name hold their own
        # reference, so each reference is wrapped where it is called.
        self._patch(ExperimentConfig, "with_overrides", self._timed("config.with_overrides"))
        for module in (cache, evaluator):
            self._patch(module, "point_key", self._timed("cache.point_key"))
        self._patch(service, "point_key", self._service_point_key)
        self._patch(cache.EvaluationCache, "get", self._cache_get)
        self._patch(cache.EvaluationCache, "put", self._timed("cache.put"))
        self._patch(executor.SerialExecutor, "run", self._serial_run)
        self._patch(DistributedExecutor, "run",
                    self._timed("distributed.run", lambda _self, items: len(items)))
        for module in (comparison, executor):
            self._patch(module, "compare_schemes", self._timed("comparison.compare_schemes"))
        self._patch(comparison, "savings_versus_baseline", self._timed("comparison.rollup"))
        self._patch(comparison.SchemeComparison, "as_records", self._timed("comparison.rollup"))
        self._patch(scheme_evaluator, "evaluate_scheme", self._timed("savings.evaluate_scheme"))
        self._patch(scheme_evaluator, "create_scheme", self._timed("scheme_evaluator.scheme_build"))
        self._patch(ExperimentConfig, "build_library", self._timed("scheme_evaluator.library_build"))
        self._patch(service.EvaluationService, "evaluate", self._service_evaluate)
        return self

    def remove(self) -> None:
        """Put every original back, most recent patch first."""
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)


def merge(snapshots: list[dict]) -> dict:
    """Sum several :meth:`Tracer.snapshot` results."""
    total = {"calls": defaultdict(lambda: [0, 0.0]), "items": defaultdict(int),
             "kernel_hits": 0, "kernel_misses": 0,
             "scheme_hits": 0, "scheme_misses": 0}
    for snap in snapshots:
        for name, (count, seconds) in snap["calls"].items():
            total["calls"][name][0] += count
            total["calls"][name][1] += seconds
        for name, count in snap["items"].items():
            total["items"][name] += count
        for name in ("kernel_hits", "kernel_misses", "scheme_hits", "scheme_misses"):
            total[name] += snap[name]
    return total


def _count(agg: dict, name: str) -> int:
    return agg["calls"].get(name, (0, 0.0))[0]


def _seconds(agg: dict, name: str) -> float:
    return agg["calls"].get(name, (0, 0.0))[1]


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _mean_us(agg: dict, name: str) -> float:
    """Mean microseconds per call of ``name``."""
    return 1e6 * _ratio(_seconds(agg, name), _count(agg, name))


def layer_metrics(agg: dict) -> dict[str, float]:
    """Per-layer metrics of one merged aggregate.

    ``*_us`` metrics are mean microseconds per call, except the three
    structure and roll-up figures, which are microseconds per evaluated
    point (per ``compare_schemes`` call), so that a layer that did not
    run on a point reads 0 for it.
    """
    points = _count(agg, "comparison.compare_schemes")
    hits, misses = _count(agg, "cache.get_hit"), _count(agg, "cache.get_miss")
    scheme_hits, scheme_misses = agg["scheme_hits"], agg["scheme_misses"]
    return {
        "core.config.with_overrides_us": _mean_us(agg, "config.with_overrides"),
        "engine.cache.point_key_us": _mean_us(agg, "cache.point_key"),
        "engine.cache.get_hit_us": _mean_us(agg, "cache.get_hit"),
        "engine.cache.hit_share": _ratio(hits, hits + misses),
        "engine.cache.put_us": _mean_us(agg, "cache.put"),
        "engine.executor.serial_us_per_item":
            1e6 * _ratio(_seconds(agg, "executor.serial_run"), agg["items"].get("executor.serial_run", 0)),
        "core.comparison.compare_schemes_us":
            1e6 * _ratio(_seconds(agg, "comparison.compare_schemes"), points),
        "power.savings.evaluate_scheme_us": _mean_us(agg, "savings.evaluate_scheme"),
        "core.comparison.rollup_us": 1e6 * _ratio(_seconds(agg, "comparison.rollup"), points),
        "core.scheme_evaluator.library_build_us":
            1e6 * _ratio(_seconds(agg, "scheme_evaluator.library_build"), points),
        "core.scheme_evaluator.scheme_build_us":
            1e6 * _ratio(_seconds(agg, "scheme_evaluator.scheme_build"), points),
        "core.scheme_evaluator.scheme_hit_rate": _ratio(scheme_hits, scheme_hits + scheme_misses),
        "circuit.biasing.lookups_per_point":
            _ratio(agg["kernel_hits"] + agg["kernel_misses"], points),
        "circuit.biasing.misses_per_point": _ratio(agg["kernel_misses"], points),
        "engine.distributed.run_us_per_item":
            1e6 * _ratio(_seconds(agg, "distributed.run"), agg["items"].get("distributed.run", 0)),
    }


#: Aggregate names of ``EvaluationService.evaluate`` calls, by outcome.
_OUTCOMES = ("service.evaluate_hit", "service.evaluate_miss",
             "service.evaluate_coalesced", "service.evaluate_error")


def service_metrics(agg: dict, round_trip_s: float) -> dict[str, float]:
    """Per-layer metrics of the service process's aggregate, given the
    clients' mean round trip over the same queries."""
    requests = sum(_count(agg, name) for name in _OUTCOMES)
    evaluate_s = sum(_seconds(agg, name) for name in _OUTCOMES)
    return {
        "engine.service.http_us": 1e6 * (round_trip_s - _ratio(evaluate_s, requests)),
        "engine.service.evaluate_hit_us": _mean_us(agg, "service.evaluate_hit"),
        "engine.service.queue_wait_ms": _mean_us(agg, "service.queue_wait") / 1e3,
        "engine.service.batch_size_mean":
            _ratio(agg["items"].get("executor.serial_run", 0), _count(agg, "executor.serial_run")),
        "engine.service.coalesced_share":
            _ratio(_count(agg, "service.evaluate_coalesced"), requests),
    }
