"""Tests of the unified evaluation engine (cache, backends, determinism)."""

import pytest

from repro.arch.batch import SpecBatch
from repro.arch.spec import ACIMDesignSpec, enumerate_design_space
from repro.dse.exhaustive import evaluate_all
from repro.dse.explorer import _ExplorerCore
from repro.dse.nsga2 import NSGA2Config
from repro.engine import (
    BACKENDS,
    EvaluationCache,
    EvaluationEngine,
    parameters_cache_key,
    spec_cache_key,
    validate_backend,
)
from repro.errors import EngineError, OptimizationError, SpecificationError
from repro.model.estimator import ACIMEstimator, ModelParameters


class TestEvaluationCache:
    def test_miss_then_hit(self):
        cache = EvaluationCache(max_size=4)
        assert cache.get("a") is None
        cache.put("a", 1)
        assert cache.get("a") == 1
        stats = cache.stats()
        assert stats["hits"] == 1 and stats["misses"] == 1

    def test_bounded_lru_eviction(self):
        cache = EvaluationCache(max_size=2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1  # refresh recency: "b" is now LRU
        cache.put("c", 3)
        assert len(cache) == 2
        assert cache.get("b") is None
        assert cache.get("a") == 1 and cache.get("c") == 3
        assert cache.stats()["evictions"] == 1

    def test_invalid_size_rejected(self):
        with pytest.raises(EngineError):
            EvaluationCache(max_size=0)

    def test_parameter_keys_distinguish_bundles(self):
        base = ModelParameters()
        calibrated = ModelParameters.calibrated()
        assert parameters_cache_key(base) != parameters_cache_key(calibrated)
        spec = ACIMDesignSpec(64, 16, 2, 4)
        assert spec_cache_key(spec, base) != spec_cache_key(spec, calibrated)


class TestEvaluationEngine:
    def test_unknown_backend_rejected(self):
        with pytest.raises(EngineError):
            EvaluationEngine("gpu")
        with pytest.raises(EngineError):
            validate_backend("cluster")
        # The retired thread backend is an unknown name for user configs.
        with pytest.raises(EngineError):
            EvaluationEngine("thread")
        with pytest.raises(EngineError):
            NSGA2Config(backend="thread")
        assert BACKENDS == ("serial", "process")

    def test_map_preserves_order(self):
        with EvaluationEngine("serial") as engine:
            assert engine.map(_square, list(range(20))) == [
                i * i for i in range(20)
            ]

    def test_map_preserves_order_process(self):
        with EvaluationEngine("process", workers=2) as engine:
            assert engine.map(_square, list(range(20))) == [
                i * i for i in range(20)
            ]

    def test_evaluate_specs_matches_serial_evaluate(self):
        estimator = ACIMEstimator()
        specs = list(enumerate_design_space(1024))
        expected = [estimator.evaluate(spec) for spec in specs]
        for backend in BACKENDS:
            engine = EvaluationEngine(
                backend, workers=2, cache=EvaluationCache()
            )
            with engine:
                got = engine.evaluate_specs(estimator, specs)
            # The scalar fast path and the vectorized batch path agree
            # within the documented 1e-12 parity bound (transcendental
            # ufuncs may differ from ``math`` by a few ULP).
            for got_metrics, expected_metrics in zip(got, expected):
                _assert_metrics_close(got_metrics, expected_metrics, backend)

    def test_cache_hits_on_repeat_batches(self):
        engine = EvaluationEngine("serial", cache=EvaluationCache())
        estimator = ACIMEstimator()
        specs = list(enumerate_design_space(1024))
        engine.evaluate_specs(estimator, specs)
        first_evals = engine.stats.evaluations
        engine.evaluate_specs(estimator, specs)
        assert engine.stats.evaluations == first_evals
        assert engine.stats.cache_hits == len(specs)

    def test_duplicate_specs_evaluated_once(self):
        engine = EvaluationEngine("serial", cache=EvaluationCache())
        estimator = ACIMEstimator()
        spec = ACIMDesignSpec(64, 16, 2, 4)
        results = engine.evaluate_specs(estimator, [spec, spec, spec])
        assert results[0] == results[1] == results[2]
        assert engine.stats.evaluations == 1

    def test_stats_as_dict(self):
        engine = EvaluationEngine("serial", cache=EvaluationCache())
        engine.evaluate_specs(ACIMEstimator(), [ACIMDesignSpec(64, 16, 2, 4)])
        stats = engine.stats.as_dict()
        assert stats["backend"] == "serial"
        assert stats["evaluations"] == 1
        assert stats["busy_seconds"] > 0


class TestEstimatorBatch:
    def test_batch_equals_individual_evaluations(self):
        estimator = ACIMEstimator(ModelParameters.calibrated())
        specs = list(enumerate_design_space(4096))
        batch = estimator.evaluate_batch(specs)
        for spec, metrics in zip(specs, batch):
            _assert_metrics_close(metrics, estimator.evaluate(spec))

    def test_batch_with_full_snr_model(self):
        params = ModelParameters(use_simplified_snr=False)
        estimator = ACIMEstimator(params)
        specs = list(enumerate_design_space(1024))
        batch = estimator.evaluate_batch(specs)
        for spec, metrics in zip(specs, batch):
            _assert_metrics_close(metrics, estimator.evaluate(spec))


class TestExhaustiveThroughEngine:
    def test_evaluate_all_identical_across_backends(self):
        serial = evaluate_all(4096)
        with EvaluationEngine(
            "process", workers=2, cache=EvaluationCache()
        ) as engine:
            parallel = evaluate_all(4096, engine=engine)
        assert [d.spec for d in parallel] == [d.spec for d in serial]
        assert [d.objectives for d in parallel] == [
            d.objectives for d in serial
        ]


class TestSeedDeterminismAcrossBackends:
    """The ISSUE's regression: same seed => identical Pareto set, any backend."""

    def test_serial_and_process_backends_agree(self):
        pareto_sets = {}
        for backend in ("serial", "process"):
            config = NSGA2Config(
                population_size=28, generations=10, seed=11,
                backend=backend, workers=2,
            )
            # A private cache per run so the comparison is between actual
            # computations, not a warm shared cache.
            engine = EvaluationEngine(
                backend, workers=2, cache=EvaluationCache()
            )
            with engine:
                explorer = _ExplorerCore(config=config, engine=engine)
                result = explorer.explore(4096)
            pareto_sets[backend] = {
                (design.spec.as_tuple(), design.objectives)
                for design in result.pareto_set
            }
        assert pareto_sets["serial"] == pareto_sets["process"]

    def test_vectorized_and_reference_kernels_agree_bit_identically(self):
        """The ISSUE 3 regression: the array-kernel refactor leaves a
        fixed-seed NSGA-II Pareto front bit-identical to the retained
        scalar-reference path (the pre-refactor implementation)."""
        pareto_sets = {}
        for kernel in ("reference", "vectorized"):
            config = NSGA2Config(population_size=28, generations=10, seed=11)
            estimator = ACIMEstimator(kernel=kernel)
            # A private cache per run so the two kernels cannot serve each
            # other's evaluations.
            engine = EvaluationEngine("serial", cache=EvaluationCache())
            with engine:
                explorer = _ExplorerCore(
                    estimator=estimator, config=config, engine=engine
                )
                result = explorer.explore(4096)
            pareto_sets[kernel] = [
                (design.spec.as_tuple(), design.objectives)
                for design in result.pareto_set
            ]
        assert pareto_sets["vectorized"] == pareto_sets["reference"]

    def test_engine_stats_surface_in_result(self):
        config = NSGA2Config(population_size=16, generations=4, seed=2)
        result = _ExplorerCore(config=config).explore(1024)
        assert result.engine_stats["backend"] == "serial"
        assert result.engine_stats["tasks"] > 0

    def test_engine_stats_are_per_run_deltas(self):
        config = NSGA2Config(population_size=16, generations=4, seed=2)
        with EvaluationEngine("serial", cache=EvaluationCache()) as engine:
            explorer = _ExplorerCore(config=config, engine=engine)
            first = explorer.explore(1024)
            second = explorer.explore(1024)
        # Identical seeded runs submit the identical number of tasks; a
        # cumulative (non-delta) snapshot would double on the second run.
        assert second.engine_stats["tasks"] == first.engine_stats["tasks"]
        # The second run is fully served by the engine's warm cache.
        assert second.engine_stats["evaluations"] == 0
        assert second.engine_stats["cache_hits"] > 0

    def test_invalid_backend_in_config(self):
        with pytest.raises(EngineError):
            NSGA2Config(backend="gpu")
        with pytest.raises(OptimizationError):
            NSGA2Config(workers=0)


class TestProcessBackend:
    """``process`` parallelises ``map`` only; spec evaluation stays inline."""

    def test_empty_spec_list(self):
        with _fresh_process_engine() as engine:
            assert engine.evaluate_specs(ACIMEstimator(), []) == []
            # No map work => no pool was ever spawned.
            assert engine._executor is None

    def test_spec_evaluation_never_spawns_a_pool(self):
        with _fresh_process_engine() as engine:
            engine.evaluate_specs(ACIMEstimator(), SpecBatch.enumerate(4096))
            assert engine._executor is None

    def test_single_spec_batch(self):
        estimator = ACIMEstimator()
        spec = ACIMDesignSpec(64, 16, 2, 4)
        with _fresh_process_engine() as engine:
            (got,) = engine.evaluate_specs(estimator, [spec])
        _assert_metrics_close(got, estimator.evaluate(spec))

    def test_infeasible_spec_raises_without_hanging(self):
        # L > H in one row: batch validation raises in the caller, and the
        # engine serves the next submission.
        feasible = SpecBatch.enumerate(1024)
        bad = SpecBatch.from_spec(ACIMDesignSpec(4, 256, 8, 1))
        batch = SpecBatch.concat([feasible, bad])
        with _fresh_process_engine() as engine:
            with pytest.raises(SpecificationError):
                engine.evaluate_specs(ACIMEstimator(), batch)
            results = engine.evaluate_specs(ACIMEstimator(), feasible)
            assert len(results) == len(feasible)

    def test_map_chunks_are_clamped(self):
        engine = EvaluationEngine("process", workers=8, cache=EvaluationCache())
        try:
            assert engine._chunk(20) > 1
            assert engine._chunk(20) <= 20
        finally:
            engine.close()

    def test_close_shuts_down_the_map_pool(self):
        engine = _fresh_process_engine()
        assert engine.map(_square, list(range(8))) == [i * i for i in range(8)]
        executor = engine._executor
        assert executor is not None
        engine.close()
        assert engine._executor is None
        with pytest.raises(RuntimeError):
            executor.submit(_square, 1)


class TestTimingSplits:
    def test_serial_backend_reports_worker_seconds_only(self):
        with EvaluationEngine("serial", cache=EvaluationCache()) as engine:
            engine.evaluate_specs(ACIMEstimator(), SpecBatch.enumerate(1024))
            stats = engine.stats.as_dict()
        assert stats["worker_seconds"] > 0
        assert stats["dispatch_seconds"] == 0.0
        assert stats["serialize_seconds"] == 0.0

    def test_splits_are_deltas_in_since(self):
        with EvaluationEngine("serial", cache=EvaluationCache()) as engine:
            engine.evaluate_specs(ACIMEstimator(), SpecBatch.enumerate(1024))
            baseline = engine.stats.snapshot()
            engine.cache.clear()
            engine.evaluate_specs(ACIMEstimator(), SpecBatch.enumerate(1024))
            delta = engine.stats.since(baseline)
        assert 0 < delta.worker_seconds < engine.stats.worker_seconds

    def test_engine_stats_table_shows_splits(self):
        from repro.flow.report import engine_stats_table

        with EvaluationEngine("serial", cache=EvaluationCache()) as engine:
            engine.evaluate_specs(
                ACIMEstimator(), [ACIMDesignSpec(64, 16, 2, 4)]
            )
            (row,) = engine_stats_table(engine.stats.as_dict())
        assert {"dispatch_s", "worker_s", "serialize_s"} <= set(row)


def _fresh_process_engine(workers: int = 2) -> EvaluationEngine:
    """A process engine with a private cache (no shared-cache hits)."""
    return EvaluationEngine("process", workers=workers, cache=EvaluationCache())


def _square(value: int) -> int:
    return value * value


def _assert_metrics_close(got, expected, context=""):
    """Metrics records agree on the spec and within 1e-12 on every metric."""
    from repro.model.estimator import METRIC_FIELDS

    assert got.spec == expected.spec, context
    for field in METRIC_FIELDS:
        assert getattr(got, field) == pytest.approx(
            getattr(expected, field), rel=1e-12, abs=0.0
        ), (field, context)
