"""Tests of resumable campaigns: checkpointing, kill/resume bit-identity,
warm starts from the persistent store, flow recording and the CLI."""

import json
import sqlite3

import pytest

from repro.cli import main
from repro.dse.distill import DistillationCriteria
from repro.dse.explorer import _ExplorerCore
from repro.dse.nsga2 import NSGA2, NSGA2Config
from repro.dse.problem import ACIMDesignProblem
from repro.engine import reset_shared_cache
from repro.errors import OptimizationError, StoreError
from repro.flow.controller import FlowInputs, _FlowCore
from repro.model.estimator import ACIMEstimator, ModelParameters
from repro.store import ResultStore
from repro.store.campaign import _CampaignManagerCore

#: Small-but-real exploration: a few generations over the 1 kb space.
CONFIG = NSGA2Config(population_size=16, generations=6, seed=3)

ARRAY_SIZE = 1024


def _pareto_signature(designs):
    return [(design.spec.as_tuple(), design.objectives) for design in designs]


def _stopped_campaign_with_config(tmp_path, name, config_changes):
    """Store path of a campaign stopped after two generations, whose
    stored config was then rewritten with ``config_changes`` (as an
    older release would have recorded it)."""
    path = tmp_path / "store.sqlite"
    with ResultStore(path) as store:
        _CampaignManagerCore(store).run(
            name, ARRAY_SIZE, config=CONFIG, stop_after_generations=2
        )
    with sqlite3.connect(path) as conn:
        (config_json,) = conn.execute(
            "SELECT config_json FROM campaigns WHERE name = ?", (name,)
        ).fetchone()
        config = {**json.loads(config_json), **config_changes}
        conn.execute(
            "UPDATE campaigns SET config_json = ? WHERE name = ?",
            (json.dumps(config, sort_keys=True), name),
        )
    conn.close()
    return path


@pytest.fixture
def store(tmp_path):
    with ResultStore(tmp_path / "store.sqlite") as store:
        yield store


@pytest.fixture(scope="module")
def reference_pareto():
    """The uninterrupted exploration every resume variant must reproduce."""
    result = _ExplorerCore(config=CONFIG).explore(ARRAY_SIZE)
    return _pareto_signature(result.pareto_set)


class TestStepwiseNSGA2:
    def test_run_equals_manual_stepping(self):
        monolithic = NSGA2(ACIMDesignProblem(ARRAY_SIZE), CONFIG).run()
        stepped = NSGA2(ACIMDesignProblem(ARRAY_SIZE), CONFIG)
        stepped.initialize()
        while not stepped.done:
            stepped.step()
        assert _population_signature(monolithic) == _population_signature(
            stepped.result()
        )

    def test_state_round_trips_through_json(self):
        optimizer = NSGA2(ACIMDesignProblem(ARRAY_SIZE), CONFIG)
        optimizer.initialize()
        optimizer.step()
        snapshot = json.loads(json.dumps(optimizer.state()))
        restored = NSGA2(ACIMDesignProblem(ARRAY_SIZE), CONFIG)
        restored.restore_state(snapshot)
        while not optimizer.done:
            optimizer.step()
        while not restored.done:
            restored.step()
        assert _population_signature(optimizer.result()) == (
            _population_signature(restored.result())
        )

    def test_step_before_initialize_rejected(self):
        optimizer = NSGA2(ACIMDesignProblem(ARRAY_SIZE), CONFIG)
        with pytest.raises(OptimizationError):
            optimizer.step()
        with pytest.raises(OptimizationError):
            optimizer.state()

    def test_corrupt_state_rejected(self):
        optimizer = NSGA2(ACIMDesignProblem(ARRAY_SIZE), CONFIG)
        with pytest.raises(OptimizationError):
            optimizer.restore_state({"generation": 1})


def _population_signature(population):
    return sorted(
        (individual.genome, individual.objectives, individual.violation)
        for individual in population
    )


class TestCampaignResume:
    def test_interrupted_resume_is_bit_identical(self, store, reference_pareto):
        manager = _CampaignManagerCore(store)
        first = manager.run(
            "camp", ARRAY_SIZE, config=CONFIG, stop_after_generations=2
        )
        assert first.status == "interrupted"
        assert first.generations_done == 2
        assert store.get_campaign("camp").status == "interrupted"
        second = manager.resume("camp")
        assert second.status == "completed"
        assert second.resumed
        assert _pareto_signature(second.pareto_set) == reference_pareto
        # The recorded Pareto set reads back identically.
        stored = store.load_pareto("camp")
        assert [
            (e.spec.as_tuple(), e.metrics.objectives()) for e in stored
        ] == reference_pareto

    def test_campaign_stored_on_thread_backend_resumes(
        self, tmp_path, reference_pareto
    ):
        # Stores written before the thread backend was retired record
        # backend "thread"; resuming one runs serial and lands on the
        # uninterrupted serial front.
        path = _stopped_campaign_with_config(
            tmp_path, "legacy", {"backend": "thread"}
        )
        with ResultStore(path) as store:
            assert store.get_campaign("legacy").config["backend"] == "thread"
            result = _CampaignManagerCore(store).resume("legacy")
        assert result.status == "completed"
        assert result.engine_stats["backend"] == "serial"
        assert _pareto_signature(result.pareto_set) == reference_pareto

    def test_campaign_stored_with_surrogate_screening_resumes_exact(
        self, tmp_path, reference_pareto
    ):
        # Stores written while surrogate screening existed record its
        # mode in the config and a ``screener`` key in every checkpoint;
        # resuming one runs the exact path and lands on the
        # uninterrupted plain front.
        path = _stopped_campaign_with_config(
            tmp_path, "screened", {"surrogate": "screen"}
        )
        with sqlite3.connect(path) as conn:
            generation, state_json = conn.execute(
                "SELECT generation, state_json FROM checkpoints "
                "WHERE campaign = 'screened' ORDER BY generation DESC LIMIT 1"
            ).fetchone()
            state = json.loads(state_json)
            state["screener"] = {"rows": [[[64, 16, 8, 3], [1.0] * 8]]}
            conn.execute(
                "UPDATE checkpoints SET state_json = ? "
                "WHERE campaign = 'screened' AND generation = ?",
                (json.dumps(state), generation),
            )
        conn.close()
        with ResultStore(path) as store:
            assert store.get_campaign("screened").config["surrogate"] == (
                "screen"
            )
            assert "screener" in store.latest_checkpoint("screened")[1]
            result = _CampaignManagerCore(store).resume("screened")
        assert result.status == "completed"
        assert _pareto_signature(result.pareto_set) == reference_pareto

    def test_campaign_stored_with_shards_resumes(
        self, tmp_path, reference_pareto
    ):
        # Stores written while the sharded store pre-warm existed record
        # a ``shards`` count in the config; it is never read, so the
        # campaign resumes as a plain one onto the uninterrupted front.
        path = _stopped_campaign_with_config(
            tmp_path, "sharded", {"shards": 2}
        )
        with ResultStore(path) as store:
            assert store.get_campaign("sharded").config["shards"] == 2
            result = _CampaignManagerCore(store).resume("sharded")
        assert result.status == "completed"
        assert _pareto_signature(result.pareto_set) == reference_pareto

    def test_kill_mid_generation_resumes_identically(
        self, store, reference_pareto, monkeypatch
    ):
        # A cold shared cache so the estimator actually runs (the kill is
        # injected into its batch evaluation path).
        reset_shared_cache()
        manager = _CampaignManagerCore(store)
        calls = {"count": 0}
        original = ACIMEstimator.evaluate_batch

        def dying_evaluate_batch(self, specs):
            calls["count"] += 1
            if calls["count"] == 4:  # partway through a later generation
                raise KeyboardInterrupt("simulated kill -9")
            return original(self, specs)

        monkeypatch.setattr(
            ACIMEstimator, "evaluate_batch", dying_evaluate_batch
        )
        with pytest.raises(KeyboardInterrupt):
            manager.run("killed", ARRAY_SIZE, config=CONFIG)
        monkeypatch.setattr(ACIMEstimator, "evaluate_batch", original)
        # The partial generation was never committed; resume replays from
        # the last durable checkpoint and lands on the identical front.
        assert store.latest_checkpoint("killed") is not None
        result = _CampaignManagerCore(store).resume("killed")
        assert result.status == "completed"
        assert _pareto_signature(result.pareto_set) == reference_pareto

    def test_checkpoint_cadence(self, store):
        manager = _CampaignManagerCore(store, checkpoint_every=3)
        manager.run("sparse", ARRAY_SIZE, config=CONFIG)
        # Generation 0 (initialization), 3 and 6 (final, forced).
        assert store.checkpoint_count("sparse") == 3
        with pytest.raises(StoreError):
            _CampaignManagerCore(store, checkpoint_every=0)

    def test_stop_commits_checkpoint_and_cadence_survives_resume(self, store):
        manager = _CampaignManagerCore(store, checkpoint_every=3)
        manager.run(
            "sparse", ARRAY_SIZE, config=CONFIG, stop_after_generations=2
        )
        # The stop itself is durable even though 2 is off-cadence.
        assert store.latest_checkpoint("sparse")[0] == 2
        # A resume through a default-cadence manager keeps the campaign's
        # recorded checkpoint_every=3: generations 0, 2 (stop), 3 and 6.
        result = _CampaignManagerCore(store).resume("sparse")
        assert result.status == "completed"
        assert store.checkpoint_count("sparse") == 4

    def test_overlapping_campaign_hits_persistent_store(self, tmp_path):
        path = tmp_path / "store.sqlite"
        with ResultStore(path) as store:
            _CampaignManagerCore(store).run("first", ARRAY_SIZE, config=CONFIG)
        # A separate store handle (a fresh process's view of the file):
        # the second campaign's engine warm-starts from the first's work.
        with ResultStore(path) as store:
            result = _CampaignManagerCore(store).run(
                "second",
                ARRAY_SIZE,
                config=NSGA2Config(population_size=16, generations=3, seed=9),
            )
            assert result.engine_stats["store_hits"] > 0

    def test_duplicate_name_rejected(self, store):
        manager = _CampaignManagerCore(store)
        manager.run("camp", ARRAY_SIZE, config=CONFIG)
        with pytest.raises(StoreError, match="already exists"):
            manager.run("camp", ARRAY_SIZE, config=CONFIG)

    def test_resume_of_completed_campaign_rejected(self, store):
        manager = _CampaignManagerCore(store)
        manager.run("camp", ARRAY_SIZE, config=CONFIG)
        with pytest.raises(StoreError, match="already completed"):
            manager.resume("camp")

    def test_resume_unknown_campaign_rejected(self, store):
        with pytest.raises(StoreError, match="no campaign"):
            _CampaignManagerCore(store).resume("ghost")

    def test_resume_with_different_model_parameters_rejected(self, store):
        _CampaignManagerCore(store).run(
            "camp", ARRAY_SIZE, config=CONFIG, stop_after_generations=1
        )
        other = _CampaignManagerCore(
            store, estimator=ACIMEstimator(ModelParameters.calibrated())
        )
        with pytest.raises(StoreError, match="different model parameters"):
            other.resume("camp")

    def test_query_across_campaigns(self, store):
        manager = _CampaignManagerCore(store)
        manager.run("camp", ARRAY_SIZE, config=CONFIG)
        entries = manager.query(
            criteria=DistillationCriteria(min_snr_db=0.0),
            rank_by="snr_db",
        )
        assert entries
        assert all(e.metrics.snr_db >= 0.0 for e in entries)
        values = [e.metrics.snr_db for e in entries]
        assert values == sorted(values, reverse=True)


class TestFlowRecording:
    def test_flow_records_campaign_and_pareto(self, store):
        # Cold shared cache so the flow actually computes (and therefore
        # writes behind) rather than riding earlier tests' warm entries.
        reset_shared_cache()
        inputs = FlowInputs(
            array_size=ARRAY_SIZE, nsga2=CONFIG, store=store,
            campaign_name="flow-camp",
        )
        result = _FlowCore(inputs).run(
            generate_netlists=False, generate_layouts=False
        )
        record = store.get_campaign("flow-camp")
        assert record is not None and record.status == "completed"
        assert record.evaluations == result.exploration.evaluations
        assert result.engine_stats["store_writes"] > 0
        stored = store.load_pareto("flow-camp")
        assert [
            (e.spec.as_tuple(), e.metrics.objectives()) for e in stored
        ] == _pareto_signature(result.exploration.pareto_set)
        # Re-running the same flow upserts instead of failing.
        _FlowCore(inputs).run(
            generate_netlists=False, generate_layouts=False
        )
        assert len(store.list_campaigns()) == 1

    def test_flow_warm_starts_from_store(self, store):
        def run():
            return _FlowCore(
                FlowInputs(array_size=ARRAY_SIZE, nsga2=CONFIG, store=store)
            ).run(generate_netlists=False, generate_layouts=False)

        run()
        # The second flow builds a fresh engine; all its hits against the
        # hydrated entries are attributed to the store.
        assert run().engine_stats["store_hits"] > 0


class TestCampaignCli:
    def _args(self, tmp_path, *extra):
        return list(extra) + ["--store", str(tmp_path / "store.sqlite")]

    def test_run_interrupt_resume_query(self, tmp_path, capsys):
        base = [
            "campaign", "run", "demo",
            "--array-size", str(ARRAY_SIZE),
            "--population", "16", "--generations", "5", "--seed", "3",
            "--stop-after", "2", "--engine-stats",
        ]
        assert main(self._args(tmp_path, *base)) == 0
        output = capsys.readouterr().out
        assert "interrupted" in output
        assert "campaign resume demo" in output

        assert main(self._args(tmp_path, "campaign", "resume", "demo")) == 0
        output = capsys.readouterr().out
        assert "completed" in output

        assert main(self._args(tmp_path, "campaign", "list")) == 0
        output = capsys.readouterr().out
        assert "demo" in output and "completed" in output

        assert main(self._args(
            tmp_path, "campaign", "query", "--rank-by", "snr_db", "--limit", "3"
        )) == 0
        output = capsys.readouterr().out
        assert "ranked by snr_db" in output

    def test_query_empty_store_fails_loudly(self, tmp_path, capsys):
        assert main(self._args(tmp_path, "campaign", "query")) == 1
        assert "no stored design points" in capsys.readouterr().out

    def test_query_exports(self, tmp_path, capsys):
        main(self._args(
            tmp_path, "campaign", "run", "demo",
            "--array-size", str(ARRAY_SIZE),
            "--population", "16", "--generations", "2",
        ))
        json_path = tmp_path / "query.json"
        assert main(self._args(
            tmp_path, "campaign", "query", "--json", str(json_path)
        )) == 0
        capsys.readouterr()
        # The uniform --json flag emits the repro.api result envelope
        # (ranked records under payload.designs) for every subcommand.
        document = json.loads(json_path.read_text())
        assert document["kind"] == "query"
        assert document["payload"]["designs"]
        assert document["payload"]["rank_by"] == "tops_per_watt"
