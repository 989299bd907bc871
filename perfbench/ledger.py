"""Per-layer self-time ledger for the EasyACIM benchmark.

The ledger wraps public entry points of each layer of ``repro`` — from
the outside, without editing the program — and records one span per call:
layer name, start, end and the span that caused it.  Spans stay in memory
and are written out when the run ends.  A layer's *self time* is its
spans' duration minus the time covered by their direct child spans, so
the self times of all layers plus the time no span covers add up to the
traced wall time.

Wrappers are installed where callers look names up: a method is replaced
on its class, a module-level function in its defining module *and* in
every loaded ``repro`` module that imported it by name.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

_clock = time.perf_counter


# -- counters attached to boundaries -------------------------------------------


def _len_arg(position: int, name: str, key: str) -> Callable:
    def count(args, kwargs, result):
        value = kwargs.get(name, args[position] if len(args) > position else ())
        try:
            return {key: len(value)}
        except TypeError:
            return {key: 0}
    return count


def _len_result(key: str) -> Callable:
    def count(args, kwargs, result):
        return {key: len(result)}
    return count


def _one(key: str) -> Callable:
    def count(args, kwargs, result):
        return {key: 1}
    return count


def _route_counts(args, kwargs, result):
    nets = kwargs.get("nets", args[2] if len(args) > 2 else ())
    return {"nets": len(nets), "failed_nets": len(result.result.failed)}


def _gds_bytes(args, kwargs, result):
    if isinstance(result, int):
        return {"bytes": result}
    return {"bytes": len(result or "")}


def _store_rows(args, kwargs, result):
    """Rows the store held when the page was cut (``evaluation_count``)."""
    return {"rows": args[0].evaluation_count()}


def _mc_counts(args, kwargs, result):
    return {
        "specs": len(result),
        "trials": sum(measurement.trials for measurement in result),
    }


#: (module, attribute path, layer, counter) of every wrapped entry point.
BOUNDARIES: Tuple[Tuple[str, str, str, Optional[Callable]], ...] = (
    ("repro.api.session", "Session.submit", "api.submit", None),
    ("repro.api.session", "Session.flow", "flow.run", None),
    ("repro.dse.nsga2", "NSGA2.step", "dse.nsga2", _one("generations")),
    ("repro.dse.pareto", "non_dominated_sort", "dse.pareto",
     _len_arg(0, "points", "points")),
    ("repro.dse.pareto", "crowding_distance", "dse.pareto",
     _len_arg(0, "points", "points")),
    ("repro.dse.pareto", "pareto_front", "dse.pareto",
     _len_arg(0, "points", "points")),
    ("repro.dse.pareto", "pareto_front_mask", "dse.pareto",
     _len_arg(0, "points", "points")),
    ("repro.dse.distill", "distill", "dse.distill", None),
    ("repro.arch.batch", "SpecBatch.enumerate", "arch.enumerate",
     _len_result("points")),
    ("repro.arch.batch", "SpecBatch.from_product", "arch.enumerate",
     _len_result("points")),
    ("repro.model.estimator", "ACIMEstimator.evaluate_arrays", "model.kernel",
     _len_arg(1, "batch", "points")),
    ("repro.model.estimator", "ACIMEstimator.evaluate_batch", "model.kernel",
     _len_arg(1, "specs", "points")),
    ("repro.model.estimator", "ACIMEstimator.evaluate", "model.kernel",
     _one("points")),
    ("repro.engine.engine", "EvaluationEngine.evaluate_specs",
     "engine.evaluate", _len_arg(2, "specs", "specs")),
    ("repro.engine.engine", "EvaluationEngine.flush_store", "engine.flush",
     None),
    ("repro.sim.montecarlo", "measure_many", "sim.mc", _mc_counts),
    ("repro.store.result_store", "ResultStore.put_many", "store.write",
     _len_arg(1, "entries", "rows")),
    ("repro.store.result_store", "ResultStore.save_checkpoint",
     "store.checkpoint", None),
    ("repro.store.result_store", "ResultStore.save_pareto",
     "store.checkpoint", None),
    ("repro.store.result_store", "ResultStore.put_run_metrics",
     "store.checkpoint", None),
    ("repro.store.result_store", "ResultStore.update_campaign",
     "store.checkpoint", None),
    ("repro.store.result_store", "ResultStore.query_page", "store.query",
     _store_rows),
    ("repro.store.result_store", "ResultStore.put_artifact",
     "store.artifact", None),
    ("repro.store.result_store", "ResultStore.get_artifact",
     "store.artifact", None),
    ("repro.store.result_store", "ResultStore.put_template_entry",
     "store.artifact", None),
    ("repro.store.result_store", "ResultStore.list_template_entries",
     "store.artifact", None),
    ("repro.physical.pipeline", "PhysicalPipeline.run", "physical.run", None),
    ("repro.physical.macro_library", "MacroLibrary.get_or_build",
     "physical.macro", None),
    ("repro.physical.netlist_builder", "NetlistBuilder.build",
     "netlist.build", None),
    ("repro.placement.hierarchical", "HierarchicalPlacer.place",
     "placement.place", None),
    ("repro.placement.hierarchical", "HierarchicalPlacer.place_with_template",
     "placement.place", None),
    ("repro.placement.hierarchical", "HierarchicalPlacer.place_with_optimizer",
     "placement.place", None),
    ("repro.placement.hierarchical", "HierarchicalPlacer.place_macro_instances",
     "placement.place", None),
    ("repro.routing.hier_router", "HierarchicalRouter.route_cell",
     "routing.route", _route_counts),
    ("repro.layout.gdsii", "write_gds", "layout.gds", _gds_bytes),
    ("repro.layout.def_export", "write_def", "layout.gds", _gds_bytes),
)

#: Layers whose spans the ledger records (``engine.map`` is wrapped apart).
LAYERS = sorted({layer for _, _, layer, _ in BOUNDARIES} | {"engine.map"})


def _timed_task(fn, item):
    """Worker-side shim for ``engine.map``: the task's result and its own
    compute seconds (module-level, so process pools can pickle it)."""
    started = _clock()
    result = fn(item)
    return result, _clock() - started


class Ledger:
    """In-memory span recorder plus the wrappers that feed it.

    Spans are ``[layer, start, end, child_seconds, parent, thread]`` lists;
    a child adds its duration to its parent when it ends, and spans never
    cross threads, so each span is mutated only by the thread that owns
    it.
    """

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.counts: Dict[str, float] = defaultdict(float)
        self.map_worker_s = 0.0
        self.map_wall_s = 0.0
        self.map_workers = 1
        self._local = threading.local()
        self._count_lock = threading.Lock()
        self._restore: List[Tuple[object, str, object]] = []
        self._restore_items: List[Tuple[dict, object, object]] = []

    # -- recording -------------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _enter(self, layer: str) -> list:
        stack = self._stack()
        parent = stack[-1] if stack else None
        span = [layer, _clock(), 0.0, 0.0, parent, threading.get_ident()]
        stack.append(span)
        return span

    def _exit(self, span: list) -> bool:
        """Close ``span``; True when it is the outermost span of its layer."""
        span[2] = _clock()
        stack = self._stack()
        stack.pop()
        parent = span[4]
        if parent is not None:
            parent[3] += span[2] - span[1]
        self.spans.append(span)
        return parent is None or parent[0] != span[0]

    def wrap(self, layer: str, fn: Callable, counter: Optional[Callable]):
        ledger = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = ledger._enter(layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                outermost = ledger._exit(span)
            if outermost:
                amounts = counter(args, kwargs, result) if counter else {}
                with ledger._count_lock:
                    ledger.counts[f"{layer}.calls"] += 1
                    for key, amount in amounts.items():
                        ledger.counts[f"{layer}.{key}"] += amount
            return result

        wrapper.__perfbench_original__ = fn
        return wrapper

    def _wrap_map(self, fn: Callable):
        ledger = self

        @functools.wraps(fn)
        def wrapper(engine, task, items, *args, **kwargs):
            items = list(items)
            span = ledger._enter("engine.map")
            started = _clock()
            try:
                pairs = fn(
                    engine, functools.partial(_timed_task, task), items,
                    *args, **kwargs
                )
            finally:
                wall = _clock() - started
                outermost = ledger._exit(span)
            if outermost:
                ledger.counts["engine.map.calls"] += 1
                ledger.counts["engine.map.tasks"] += len(items)
                ledger.map_wall_s += wall
                ledger.map_worker_s += sum(seconds for _, seconds in pairs)
                ledger.map_workers = max(1, getattr(engine, "workers", 1))
            return [result for result, _ in pairs]

        wrapper.__perfbench_original__ = fn
        return wrapper

    # -- installation ------------------------------------------------------------

    def install(self) -> "Ledger":
        """Wrap every boundary in :data:`BOUNDARIES`.

        Every ``repro`` module is imported first, so each one that bound a
        wrapped function by name sees the wrapper.
        """
        import pkgutil

        import repro

        for info in pkgutil.walk_packages(repro.__path__, "repro."):
            if not info.name.endswith("__main__"):
                importlib.import_module(info.name)
        for module_name, path, layer, counter in BOUNDARIES:
            module = importlib.import_module(module_name)
            if "." in path:
                owner_name, attr = path.split(".")
                self._wrap_method(
                    getattr(module, owner_name), attr,
                    lambda fn, layer=layer, counter=counter:
                        self.wrap(layer, fn, counter),
                )
            else:
                self._wrap_function(module, path, layer, counter)
        engine_module = importlib.import_module("repro.engine.engine")
        self._wrap_method(
            engine_module.EvaluationEngine, "map", self._wrap_map
        )
        return self

    def _wrap_method(self, owner, attr: str, make: Callable) -> None:
        raw = owner.__dict__[attr]
        if isinstance(raw, classmethod):
            replacement = classmethod(make(raw.__func__))
        elif isinstance(raw, staticmethod):
            replacement = staticmethod(make(raw.__func__))
        else:
            replacement = make(raw)
            # Dispatch tables built in the class body (``Session._HANDLERS``)
            # hold the function itself, not the attribute.
            for table in vars(owner).values():
                if isinstance(table, dict):
                    for key, value in list(table.items()):
                        if value is raw:
                            table[key] = replacement
                            self._restore_items.append((table, key, raw))
        setattr(owner, attr, replacement)
        self._restore.append((owner, attr, raw))

    def _wrap_function(self, module, name: str, layer: str, counter) -> None:
        original = getattr(module, name)
        wrapper = self.wrap(layer, original, counter)
        for loaded_name, loaded in list(sys.modules.items()):
            if loaded is None or not (
                loaded_name == "repro" or loaded_name.startswith("repro.")
            ):
                continue
            for attr, value in list(vars(loaded).items()):
                if value is original:
                    setattr(loaded, attr, wrapper)
                    self._restore.append((loaded, attr, original))

    def uninstall(self) -> None:
        """Put every original back (reverse order of installation)."""
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)
        while self._restore_items:
            table, key, original = self._restore_items.pop()
            table[key] = original

    # -- the ledger ------------------------------------------------------------

    def self_seconds(self) -> Dict[str, float]:
        """Self time per layer, summed over every thread."""
        totals: Dict[str, float] = defaultdict(float)
        for layer, start, end, child, _, _ in self.spans:
            totals[layer] += (end - start) - child
        return {layer: totals.get(layer, 0.0) for layer in LAYERS}

    def covered_seconds(self) -> float:
        """Wall time covered by the union of root spans over all threads."""
        roots = sorted(
            (start, end) for _, start, end, _, parent, _ in self.spans
            if parent is None
        )
        covered = 0.0
        current_start = current_end = None
        for start, end in roots:
            if current_end is None or start > current_end:
                if current_end is not None:
                    covered += current_end - current_start
                current_start, current_end = start, end
            else:
                current_end = max(current_end, end)
        if current_end is not None:
            covered += current_end - current_start
        return covered

    def write(self, path: str) -> None:
        """Write every span as one JSON line (parent by index)."""
        index = {id(span): position for position, span in enumerate(self.spans)}
        with open(path, "w") as handle:
            for span in self.spans:
                layer, start, end, child, parent, ident = span
                handle.write(json.dumps({
                    "layer": layer,
                    "start": start,
                    "end": end,
                    "self_s": (end - start) - child,
                    "parent": index.get(id(parent)) if parent else None,
                    "thread": ident,
                }) + "\n")

    def report(self, wall: float, overhead_frac: float) -> Dict[str, float]:
        """Self times (``<layer>.self_s``), boundary counts, and the
        validity figures of the ledger.

        Args:
            wall: traced wall time of the measured work.
            overhead_frac: traced over untraced time of the same work,
                minus one (the caller measures both).
        """
        flat: Dict[str, float] = {
            f"{layer}.self_s": seconds
            for layer, seconds in self.self_seconds().items()
        }
        flat.update(self.counts)
        flat["engine.map.worker_s"] = self.map_worker_s
        flat["engine.map.dispatch_s"] = max(
            0.0, self.map_wall_s - self.map_worker_s / self.map_workers
        )
        flat["trace.overhead_frac"] = overhead_frac
        flat["bench.traced_wall_s"] = wall
        flat["bench.unattributed_s"] = wall - self.covered_seconds()
        return flat
