"""The unified evaluation engine: batched, parallel, cached evaluation.

:class:`EvaluationEngine` is the single seam every evaluation consumer in
the repository routes through — the NSGA-II explorer's population batches,
the exhaustive baseline's full grids, the sensitivity analyzer's perturbed
sweeps and the flow controller's netlist/layout fan-out.  It combines

* inline, vectorized spec evaluation: cache misses are gathered into one
  miss :class:`~repro.arch.batch.SpecBatch` and computed in the calling
  process on every backend (analytic evaluations cost well under a
  microsecond each, far less than any pool round trip),
* an executor backend (``serial`` / ``process``, see
  :mod:`repro.engine.executors`) for the generic :meth:`EvaluationEngine.map`
  fan-out of expensive picklable work (Monte Carlo, physical layouts),
* the shared bounded memoization cache keyed by ``(spec, model-params,
  tech)`` (see :mod:`repro.engine.cache`), and
* hit/miss/timing statistics exposed to results and reports.

Determinism contract: for a fixed input order the engine returns results in
exactly that order regardless of backend, so an NSGA-II run with a fixed
seed produces the identical Pareto set under ``serial`` and ``process``
execution (the regression suite asserts this bit-identically).
"""

from __future__ import annotations

import functools
import threading
import time
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, replace
from typing import Callable, Dict, List, Optional, Sequence, TypeVar, Union

from repro.arch.batch import SpecBatch
from repro.engine.cache import (
    EvaluationCache,
    parameters_cache_key,
    shared_cache,
    spec_tuple_cache_key,
)
from repro.engine.executors import (
    create_executor,
    resolve_workers,
    validate_backend,
)
from repro.errors import WorkerCrashError
from repro.obs import MetricsRegistry, SIZE_BUCKETS, get_tracer

Item = TypeVar("Item")
Result = TypeVar("Result")


def _traced_map_call(fn: Callable, item):
    """Worker-side ``map`` shim: run ``fn(item)`` under a local trace.

    ``engine.map`` fans arbitrary callables out to a conventional
    ``ProcessPoolExecutor`` whose workers each have their own process-wide
    tracer — spans opened there (e.g. the physical pipeline's per-stage
    spans during the flow's layout fan-out) would otherwise be stranded.
    This wrapper enables the worker tracer around the call and ships the
    finished span dictionaries back with the result; the parent adopts
    them under its ``engine.map`` span.  Span ids embed the worker pid,
    so the shipped hierarchy keeps valid parent links after adoption.
    """
    tracer = get_tracer()
    tracer.clear()
    tracer.enable()
    try:
        with tracer.span("engine.map.item"):
            result = fn(item)
        spans = [span.as_dict() for span in tracer.finished_spans()]
    finally:
        tracer.disable()
        tracer.clear()
    return result, spans


@dataclass
class EngineStats:
    """Aggregate statistics of one engine instance.

    Attributes:
        backend: executor backend name.
        workers: pool size (1 for ``serial``).
        batches: number of batch submissions (``map`` or ``evaluate_specs``).
        tasks: total items routed through the engine.
        evaluations: spec evaluations actually computed (cache misses).
        cache_hits: spec evaluations answered from the cache.
        store_hits: cache hits whose entry was hydrated from the
            persistent result store (work amortized from past campaigns).
        store_writes: evaluations flushed to the persistent store.
        busy_seconds: wall-clock time spent inside engine calls.
        dispatch_seconds: parallel-submission scheduling overhead.  Spec
            evaluation always runs inline, so this stays 0; the field is
            kept for the stored and served statistics format.
        worker_seconds: time spent inside the estimator's batch kernel
            computing cache misses.
        serialize_seconds: batch serialization overhead.  Always 0 for
            the same reason; kept for the stored and served statistics
            format.
    """

    backend: str
    workers: int
    batches: int = 0
    tasks: int = 0
    evaluations: int = 0
    cache_hits: int = 0
    store_hits: int = 0
    store_writes: int = 0
    busy_seconds: float = 0.0
    dispatch_seconds: float = 0.0
    worker_seconds: float = 0.0
    serialize_seconds: float = 0.0

    @property
    def evaluations_per_second(self) -> float:
        """Computed evaluations per busy second (0 when idle)."""
        if self.busy_seconds <= 0.0:
            return 0.0
        return self.evaluations / self.busy_seconds

    def snapshot(self) -> "EngineStats":
        """An independent copy of the counters at this instant."""
        return replace(self)

    def since(self, baseline: "EngineStats") -> "EngineStats":
        """Counter deltas relative to an earlier :meth:`snapshot`.

        Engines are long-lived (one per flow, shared across `explore_many`
        sizes), so per-run statistics are reported as deltas instead of the
        cumulative totals.
        """
        return EngineStats(
            backend=self.backend,
            workers=self.workers,
            batches=self.batches - baseline.batches,
            tasks=self.tasks - baseline.tasks,
            evaluations=self.evaluations - baseline.evaluations,
            cache_hits=self.cache_hits - baseline.cache_hits,
            store_hits=self.store_hits - baseline.store_hits,
            store_writes=self.store_writes - baseline.store_writes,
            busy_seconds=self.busy_seconds - baseline.busy_seconds,
            dispatch_seconds=self.dispatch_seconds - baseline.dispatch_seconds,
            worker_seconds=self.worker_seconds - baseline.worker_seconds,
            serialize_seconds=(
                self.serialize_seconds - baseline.serialize_seconds
            ),
        )

    def as_dict(self) -> Dict[str, float]:
        """Flat dictionary for result records and report tables."""
        return {
            "backend": self.backend,
            "workers": self.workers,
            "batches": self.batches,
            "tasks": self.tasks,
            "evaluations": self.evaluations,
            "cache_hits": self.cache_hits,
            "store_hits": self.store_hits,
            "store_writes": self.store_writes,
            "busy_seconds": round(self.busy_seconds, 6),
            "dispatch_seconds": round(self.dispatch_seconds, 6),
            "worker_seconds": round(self.worker_seconds, 6),
            "serialize_seconds": round(self.serialize_seconds, 6),
            "evaluations_per_second": round(self.evaluations_per_second, 1),
        }


class EvaluationEngine:
    """Batched, parallel, cached evaluation of design points and tasks.

    Args:
        backend: ``serial`` (default) or ``process``; the backend only
            decides how :meth:`map` runs, spec evaluation is always inline.
        workers: pool size; defaults to the machine's CPU count.
        cache: evaluation cache; defaults to the process-wide shared cache.
        store: optional :class:`~repro.store.result_store.ResultStore`.
            On startup the LRU cache is hydrated from the store (every past
            campaign's evaluations become warm cache hits), and computed
            misses are written behind in batches of ``store_flush_size``
            (plus a final flush on :meth:`close`/:meth:`flush_store`).
        store_flush_size: write-behind batch size.
        metrics: :class:`~repro.obs.MetricsRegistry` the engine records
            into; defaults to a private registry.  All statistics live in
            the registry under ``engine.*`` names and :attr:`stats`
            materializes the classic :class:`EngineStats` view from it.

    The ``map`` executor is created lazily on first use and reused across
    batches; call :meth:`close` (or use the engine as a context manager) to
    release pool workers deterministically.
    """

    def __init__(
        self,
        backend: str = "serial",
        workers: Optional[int] = None,
        cache: Optional[EvaluationCache] = None,
        store=None,
        store_flush_size: int = 64,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        self.backend = validate_backend(backend)
        self.workers = 1 if self.backend == "serial" else resolve_workers(workers)
        self.cache = cache if cache is not None else shared_cache()
        self._executor = None
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        # Instrument handles are resolved once: hot paths record into
        # them directly instead of paying a name lookup per batch.
        registry = self.metrics
        self._m_batches = registry.counter("engine.eval.batches")
        self._m_tasks = registry.counter("engine.eval.tasks")
        self._m_evaluations = registry.counter("engine.eval.computed")
        self._m_cache_hits = registry.counter("engine.cache.hit")
        self._m_store_hits = registry.counter("engine.store.hit")
        self._m_store_writes = registry.counter("engine.store.write")
        self._m_busy = registry.counter("engine.busy.seconds")
        self._m_worker = registry.counter("engine.worker.seconds")
        self._m_batch_size = registry.histogram(
            "engine.eval.batch_size", SIZE_BUCKETS
        )
        self.store = store
        self.store_flush_size = max(1, store_flush_size)
        # Concurrent threads (a serving layer's workers) may evaluate
        # through one engine; the write-behind buffer swap must be atomic
        # or a flush could drop entries appended between put_many and
        # clear.
        self._store_lock = threading.Lock()
        self._store_buffer: List = []
        self._store_keys = (
            set(store.hydrate(self.cache)) if store is not None else set()
        )
        # Keys this engine has already buffered/flushed to the store —
        # kept apart from ``_store_keys`` so ``store_hits`` keeps meaning
        # "hit hydrated from the store", not "hit we wrote ourselves".
        self._written_keys: set = set()

    # -- lifecycle ------------------------------------------------------------

    def _ensure_executor(self):
        if self._executor is None and self.backend != "serial":
            self._executor = create_executor(self.backend, self.workers)
        return self._executor

    def _discard_executor(self) -> None:
        """Shut the ``map`` executor down; the next ``map`` rebuilds it."""
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None

    def close(self) -> None:
        """Flush the store buffer and release every worker (idempotent).

        The pending write-behind batch is flushed *before* teardown — and
        still flushed if teardown is what raises — so no computed
        evaluation is lost on shutdown.  The engine transparently rebuilds
        the ``map`` executor if it is used again.
        """
        try:
            self.flush_store()
        finally:
            self._discard_executor()

    def flush_store(self) -> None:
        """Write buffered evaluations behind to the persistent store.

        The buffer is swapped out under the lock and written outside it,
        so concurrent evaluating threads never block on SQLite and an
        entry appended mid-flush lands in the next batch instead of being
        cleared unwritten.
        """
        if self.store is None:
            return
        with self._store_lock:
            batch, self._store_buffer = self._store_buffer, []
        if batch:
            started = time.perf_counter()
            self.store.put_many(batch)
            self._m_store_writes.add(len(batch))
            self.metrics.histogram("store.flush.seconds").observe(
                time.perf_counter() - started
            )

    def __enter__(self) -> "EvaluationEngine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- statistics -----------------------------------------------------------

    @property
    def stats(self) -> EngineStats:
        """Aggregate batch/cache/timing statistics of this engine.

        Materialized from the metrics registry on every read.  The
        ``int()``/``float()`` coercions matter: registry counters start
        as int ``0``, and ``as_dict()`` must keep emitting ``0.0`` (not
        ``0``) for the seconds fields to stay byte-identical with the
        pre-registry dataclass.
        """
        return EngineStats(
            backend=self.backend,
            workers=self.workers,
            batches=int(self._m_batches.value),
            tasks=int(self._m_tasks.value),
            evaluations=int(self._m_evaluations.value),
            cache_hits=int(self._m_cache_hits.value),
            store_hits=int(self._m_store_hits.value),
            store_writes=int(self._m_store_writes.value),
            busy_seconds=float(self._m_busy.value),
            worker_seconds=float(self._m_worker.value),
        )

    # -- generic parallel map -------------------------------------------------

    def _chunk(self, count: int) -> int:
        """Chunk size for a ``map`` submission of ``count`` items.

        An even split into ``4 * workers`` chunks so stragglers rebalance,
        floored so a small batch split across many workers never
        degenerates into 1-item chunks (the floor keeps every worker busy,
        ``count / workers``, but caps the fragment size at 4).
        """
        even = count // (self.workers * 4) or 1
        floor = min(4, max(1, count // self.workers))
        return max(floor, even)

    def map(
        self,
        fn: Callable[[Item], Result],
        items: Sequence[Item],
        chunk_size: Optional[int] = None,
    ) -> List[Result]:
        """Apply ``fn`` to every item, preserving input order.

        With the ``process`` backend ``fn`` and the items must be picklable;
        Monte Carlo ``measure_many`` and the flow controller's layout
        fan-out use this.  A worker that dies mid-call (segfault, OOM
        kill, ``kill -9``) fails the call with
        :class:`~repro.errors.WorkerCrashError`; the broken pool is
        discarded and the next call spawns a fresh one.
        """
        items = list(items)
        start = time.perf_counter()
        tracer = get_tracer()
        try:
            with tracer.span(
                "engine.map", count=len(items), backend=self.backend
            ) as map_span:
                if not items or self.backend == "serial":
                    return [fn(item) for item in items]
                executor = self._ensure_executor()
                chunksize = chunk_size or self._chunk(len(items))
                results: List[Result] = []
                try:
                    if not tracer.enabled:
                        results.extend(
                            executor.map(fn, items, chunksize=chunksize)
                        )
                        return results
                    # Ship worker-side spans home under this map span.
                    call = functools.partial(_traced_map_call, fn)
                    for result, records in executor.map(
                        call, items, chunksize=chunksize
                    ):
                        tracer.adopt(records, parent_id=map_span.span_id)
                        results.append(result)
                    return results
                except BrokenProcessPool as error:
                    self._discard_executor()
                    raise WorkerCrashError(
                        f"a {self.backend} worker died during engine.map "
                        f"of {len(items)} items; the pool was discarded "
                        "and the next call starts a fresh one",
                        failed_ranges=[(len(results), len(items))],
                    ) from error
        finally:
            self._m_batches.inc()
            self._m_tasks.add(len(items))
            self._m_busy.add(time.perf_counter() - start)
            self._m_batch_size.observe(len(items))

    # -- cached spec evaluation ----------------------------------------------

    def evaluate_specs(self, estimator, specs: Union[SpecBatch, Sequence]) -> List:
        """Evaluate design specs through ``estimator``, cached and batched.

        Accepts either a sequence of scalar specs or a
        :class:`~repro.arch.batch.SpecBatch` (grid consumers build batches
        directly, skipping the per-spec object hop).  Returns one
        :class:`~repro.model.estimator.ACIMMetrics` per spec, in input
        order.  Hits are served from the cache; misses are deduplicated,
        gathered into one miss SpecBatch, computed inline by the vectorized
        kernel on every backend and inserted into the cache.
        """
        if isinstance(specs, SpecBatch):
            batch = specs
            tuples = batch.as_tuples()
        else:
            batch = None
            spec_list = list(specs)
            tuples = [spec.as_tuple() for spec in spec_list]
        start = time.perf_counter()
        try:
            if not tuples:
                return []
            with get_tracer().span(
                "engine.evaluate_specs",
                count=len(tuples),
                backend=self.backend,
            ) as eval_span:
                params_key = parameters_cache_key(estimator.parameters)
                keys = [
                    spec_tuple_cache_key(spec_tuple, params_key)
                    for spec_tuple in tuples
                ]
                results: Dict[tuple, object] = {}
                missing_indices: List[int] = []
                pending = set()
                # Hit counts aggregate in locals and land in the registry
                # once per batch — one lock acquisition instead of one per
                # spec, which is what keeps the instrumented serial path
                # inside the overhead budget.
                cache_hits = 0
                store_hits = 0
                unstored_hits: List = []
                for index, key in enumerate(keys):
                    if key in results or key in pending:
                        continue
                    cached = self.cache.get(key)
                    if cached is not None:
                        results[key] = cached
                        cache_hits += 1
                        if key in self._store_keys:
                            store_hits += 1
                        elif (
                            self.store is not None
                            and key not in self._written_keys
                        ):
                            # A hit the cache already held (e.g. warmed by
                            # another engine sharing the process-wide
                            # cache) that this store has never seen: it
                            # must still reach the store, or queries would
                            # miss work the engine demonstrably served.
                            unstored_hits.append((key, cached))
                    else:
                        pending.add(key)
                        missing_indices.append(index)
                if unstored_hits:
                    with self._store_lock:
                        self._written_keys.update(
                            key for key, _ in unstored_hits
                        )
                        self._store_buffer.extend(unstored_hits)
                if cache_hits:
                    self._m_cache_hits.add(cache_hits)
                if store_hits:
                    self._m_store_hits.add(store_hits)
                eval_span.set("misses", len(missing_indices))
                if missing_indices:
                    if batch is not None:
                        missing = batch.take(missing_indices)
                    else:
                        missing = SpecBatch.from_specs(
                            [spec_list[i] for i in missing_indices]
                        )
                    computed = self._compute(missing, estimator)
                    for index, metrics in zip(missing_indices, computed):
                        key = keys[index]
                        results[key] = metrics
                        self.cache.put(key, metrics)
                    if self.store is not None:
                        with self._store_lock:
                            self._written_keys.update(
                                keys[i] for i in missing_indices
                            )
                            self._store_buffer.extend(
                                (keys[i], results[keys[i]])
                                for i in missing_indices
                            )
                            buffered = len(self._store_buffer)
                        if buffered >= self.store_flush_size:
                            self.flush_store()
                    self._m_evaluations.add(len(missing_indices))
                return [results[key] for key in keys]
        finally:
            self._m_batches.inc()
            self._m_tasks.add(len(tuples))
            self._m_busy.add(time.perf_counter() - start)
            self._m_batch_size.observe(len(tuples))

    def _compute(self, batch: SpecBatch, estimator) -> List:
        """Evaluate a cache-miss SpecBatch inline, in order."""
        with get_tracer().span(
            "engine.chunk", where="inline", count=len(batch)
        ):
            started = time.perf_counter()
            results = estimator.evaluate_batch(batch)
            self._m_worker.add(time.perf_counter() - started)
        return results


def default_engine() -> EvaluationEngine:
    """A fresh serial engine bound to the shared cache (the cheap default)."""
    return EvaluationEngine("serial")
