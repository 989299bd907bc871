#!/usr/bin/env python3
"""Scaling benchmark of the unified evaluation engine.

Two experiments, mirroring the two regimes the engine serves:

1. **Analytic throughput** — evaluations/sec of the closed-form estimation
   model through the engine (cache lookups, inline vectorized kernel,
   per-spec records) for batch sizes {1, 32, 256}.  Spec evaluation runs
   inline on every backend, so one serial row per batch size is the whole
   picture.

2. **High-fidelity 16 kb exhaustive sweep** — every feasible design point
   of the paper's 16 kb design space evaluated with the behavioral
   Monte-Carlo SNR harness (tens of milliseconds per point, the cost
   regime of SPICE-backed or simulation-backed evaluation).  Here the
   ``process`` backend must deliver >= 2x over ``serial`` with 4 workers;
   the script asserts it, and also asserts that NSGA-II with a fixed seed
   returns the bit-identical Pareto set under serial and process backends.

Run with::

    python benchmarks/bench_engine_scaling.py            # record baseline
    python benchmarks/bench_engine_scaling.py --quick    # CI-sized run

Results are written to ``benchmarks/BENCH_engine.json`` (override with
``--json``); the committed file is the recorded baseline.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import time
from pathlib import Path

from repro.arch.spec import enumerate_design_space
from repro.dse.exhaustive import evaluate_all
# Benchmarks drive the internal core directly (same implementation the
# session layer uses) so they stay silent under -W error::DeprecationWarning.
from repro.dse.explorer import _ExplorerCore as DesignSpaceExplorer
from repro.dse.nsga2 import NSGA2Config
from repro.dse.pareto import pareto_front
from repro.engine import EvaluationCache, EvaluationEngine
from repro.model.estimator import ACIMEstimator
from repro.sim.montecarlo import measure_many

ARRAY_SIZE = 16 * 1024
BATCH_SIZES = (1, 32, 256)
BACKENDS = ("serial", "process")


def _spec_pool(count: int):
    """At least ``count`` feasible specs, cycling several array sizes."""
    specs = []
    size = ARRAY_SIZE
    while len(specs) < count:
        specs.extend(enumerate_design_space(size))
        size //= 2
        if size < 64:
            size = ARRAY_SIZE * 2
    return specs[:count]


def analytic_throughput(repeats: int = 3) -> tuple:
    """Evaluations/sec of the analytic model per batch size (serial).

    Returns ``(matrix, splits, metrics)``: ``splits`` holds the timing
    decomposition (dispatch / worker / serialize seconds) after the
    largest-batch runs — ``worker`` is the kernel, the rest of the wall
    time is cache and record work — and ``metrics`` is the engine's full
    metric snapshot (the ``docs/observability.md`` catalogue).
    """
    estimator = ACIMEstimator()
    matrix = {}
    splits = {}
    largest = max(BATCH_SIZES)
    with EvaluationEngine("serial", cache=EvaluationCache()) as engine:
        engine.evaluate_specs(estimator, _spec_pool(largest))  # warm-up
        for batch_size in BATCH_SIZES:
            specs = _spec_pool(batch_size)
            best = float("inf")
            for _ in range(repeats):
                engine.cache.clear()
                start = time.perf_counter()
                engine.evaluate_specs(estimator, specs)
                best = min(best, time.perf_counter() - start)
            matrix[f"batch{batch_size}_serial"] = round(batch_size / best, 1)
        stats = engine.stats.as_dict()
        splits["serial"] = {
            key: stats[key]
            for key in ("dispatch_seconds", "worker_seconds", "serialize_seconds")
        }
        metrics = {"serial": engine.metrics.snapshot()}
    return matrix, splits, metrics


def _noop(value):
    return value


def high_fidelity_sweep(workers: int, trials: int, columns: int) -> dict:
    """The 16 kb exhaustive space through Monte-Carlo SNR, per backend."""
    specs = list(enumerate_design_space(ARRAY_SIZE))
    results = {"design_points": len(specs), "mc_trials": trials}
    reference = None
    for backend, backend_workers in (("serial", 1), ("process", workers)):
        with EvaluationEngine(backend, workers=backend_workers) as engine:
            engine.map(_noop, [0] * backend_workers)  # pool spawn off-clock
            start = time.perf_counter()
            measurements = measure_many(
                specs, trials=trials, columns=columns, engine=engine
            )
            elapsed = time.perf_counter() - start
        snrs = [round(m.snr_db, 9) for m in measurements]
        if reference is None:
            reference = snrs
        elif snrs != reference:
            raise AssertionError(
                "backend changed Monte-Carlo results: determinism broken"
            )
        results[f"{backend}_seconds"] = round(elapsed, 3)
        results[f"{backend}_evals_per_sec"] = round(len(specs) / elapsed, 2)
    results["process_speedup"] = round(
        results["serial_seconds"] / results["process_seconds"], 2
    )
    return results


def pareto_determinism(workers: int, seed: int = 11) -> dict:
    """Fixed-seed NSGA-II Pareto sets must be bit-identical across backends."""
    reference = None
    for backend in BACKENDS:
        engine = EvaluationEngine(
            backend, workers=workers, cache=EvaluationCache()
        )
        with engine:
            explorer = DesignSpaceExplorer(
                config=NSGA2Config(population_size=64, generations=40,
                                   seed=seed, backend=backend, workers=workers),
                engine=engine,
            )
            result = explorer.explore(ARRAY_SIZE)
        front = sorted(
            (design.spec.as_tuple(), design.objectives)
            for design in result.pareto_set
        )
        if reference is None:
            reference = front
        elif front != reference:
            raise AssertionError(
                f"{backend} backend produced a different Pareto set"
            )
    # Cross-check against the exhaustively computed true frontier.
    designs = evaluate_all(ARRAY_SIZE)
    true_front = {
        designs[i].spec.as_tuple()
        for i in pareto_front([d.objectives for d in designs])
    }
    found = {spec_tuple for spec_tuple, _ in reference}
    return {
        "seed": seed,
        "backends_identical": True,
        "front_size": len(reference),
        "true_front_recall": round(len(found & true_front) / len(true_front), 3),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workers", type=int, default=4)
    parser.add_argument("--mc-trials", type=int, default=120,
                        help="Monte-Carlo trials per design point")
    parser.add_argument("--mc-columns", type=int, default=4)
    parser.add_argument("--quick", action="store_true",
                        help="CI-sized run (fewer trials, no baseline write)")
    parser.add_argument("--json", type=Path,
                        default=Path(__file__).parent / "BENCH_engine.json")
    parser.add_argument("--no-assert", action="store_true",
                        help="record numbers without enforcing the 2x gate")
    args = parser.parse_args(argv)
    trials = 40 if args.quick else args.mc_trials

    cores = os.cpu_count() or 1
    record = {
        "benchmark": "engine_scaling",
        "array_size": ARRAY_SIZE,
        "workers": args.workers,
        "cpu": platform.processor() or platform.machine(),
        "cpu_cores": cores,
        "python": platform.python_version(),
    }

    print("[1/3] analytic throughput (batch size, serial)")
    matrix, splits, metric_snapshots = analytic_throughput()
    record["analytic_evals_per_sec"] = matrix
    record["analytic_timing_splits"] = splits
    record["metrics"] = metric_snapshots
    for key, value in matrix.items():
        print(f"    {key:>18}: {value:>12.1f} evals/s")
    for backend, split in splits.items():
        parts = ", ".join(f"{k.split('_')[0]} {v:.4f}s" for k, v in split.items())
        print(f"    batch{max(BATCH_SIZES)} {backend} splits: {parts}")

    print(f"[2/3] high-fidelity 16 kb exhaustive sweep ({trials} MC trials)")
    record["high_fidelity"] = high_fidelity_sweep(
        args.workers, trials, args.mc_columns
    )
    for key, value in record["high_fidelity"].items():
        print(f"    {key:>22}: {value}")

    print("[3/3] fixed-seed Pareto determinism across backends")
    record["determinism"] = pareto_determinism(args.workers)
    for key, value in record["determinism"].items():
        print(f"    {key:>22}: {value}")

    speedup = record["high_fidelity"]["process_speedup"]
    # The 2x gate needs parallel hardware: on a single-core host every
    # backend is serialized by the scheduler, so it is recorded as
    # skipped rather than failed (determinism is still enforced above).
    gate_applies = cores >= 2 and not args.no_assert
    record["speedup_gate"] = {
        "threshold": 2.0,
        "enforced": gate_applies,
        "passed": speedup >= 2.0 if gate_applies else None,
    }
    if gate_applies and speedup < 2.0:
        print(f"FAIL: high-fidelity process speedup {speedup:.2f}x < 2x gate")
        return 1
    gate_note = "gate: 2x" if gate_applies else (
        f"gate skipped: {cores} CPU core(s), no parallel hardware")
    print(f"OK: process speedup {speedup:.2f}x high-fidelity "
          f"({gate_note}), Pareto sets bit-identical across "
          f"{', '.join(BACKENDS)}")

    if not args.quick:
        args.json.write_text(json.dumps(record, indent=2) + "\n")
        print(f"baseline written to {args.json}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
