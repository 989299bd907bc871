"""Monte-Carlo SNR validation, the last phase of a ``dse`` cycle.

After a cycle's query pages the caller validates the SNR of seeded
batches of feasible design points (H 64-1024, L 2-32, B_ADC 2-6, fixed
trials per point) with ``repro.sim.montecarlo.measure_many`` on
``EvaluationEngine("process", workers=2)``.  This is the only user work
of the benchmark that goes through ``engine.map`` and the process pool;
spawning the pool belongs to set-up.
"""

from __future__ import annotations

import pickle
import random
import time
from typing import Dict, List

import harness

HEIGHTS = (64, 128, 256, 512, 1024)
LOCAL_SIZES = (2, 4, 8, 16, 32)
ADC_BITS = (2, 3, 4, 5, 6)
WIDTH = 64

#: Design points per ``measure_many`` call, trials per point, and calls
#: per ``dse`` cycle (about 1 s of a 12.5 s cycle on the 2-core host).
BATCH = 18
TRIALS = 2000
COLUMNS = 8
BATCHES_PER_CYCLE = 12
WORKERS = 2

#: Batches of the last cycle the output check re-runs on a serial engine,
#: and that the traced run times on both engines for the speed-up.
CHECKED_BATCHES = 2
SPEEDUP_BATCHES = 5


def feasible_specs() -> List[tuple]:
    from repro.arch.spec import ACIMDesignSpec
    from repro.errors import ReproError

    specs = []
    for h in HEIGHTS:
        for l in LOCAL_SIZES:
            for b in ADC_BITS:
                try:
                    ACIMDesignSpec(h, WIDTH, l, b).validate()
                except (ReproError, ValueError):
                    continue
                specs.append((h, WIDTH, l, b))
    return specs


def pickle_seconds(batch: tuple, results: list) -> float:
    """Pickling time of one batch's tasks and its results."""
    specs, seed = batch
    tasks = [(spec, TRIALS, COLUMNS, seed + index)
             for index, spec in enumerate(specs)]
    started = time.perf_counter()
    pickle.loads(pickle.dumps(tasks))
    pickle.loads(pickle.dumps(results))
    return time.perf_counter() - started


class MonteCarloPhase:
    """The process engine and the seeded batches of every cycle."""

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.engine = None
        self.space: List[tuple] = []

    def start(self) -> None:
        from repro.arch.spec import ACIMDesignSpec
        from repro.engine import EvaluationEngine
        from repro.sim.montecarlo import measure_many

        self.space = feasible_specs()
        self.engine = EvaluationEngine("process", workers=WORKERS)
        # Spawn every pool worker now: a tiny batch with one task each.
        warm = [ACIMDesignSpec(*spec) for spec in self.space[:WORKERS * 2]]
        measure_many(warm, trials=10, columns=1, engine=self.engine)

    def close(self) -> None:
        if self.engine is not None:
            self.engine.close()
            self.engine = None

    def batches(self, cycle: int) -> List[tuple]:
        """Cycle ``cycle``'s batches (design points, simulation seed), from
        the workload seed and the cycle alone, so a traced repeat of a
        cycle runs the very same batches."""
        rng = random.Random(f"{self.seed}/{cycle}")
        return [
            ([rng.choice(self.space) for _ in range(BATCH)],
             rng.randrange(1, 1 << 30))
            for _ in range(BATCHES_PER_CYCLE)
        ]

    def run_batch(self, batch: tuple, engine=None) -> list:
        from repro.arch.spec import ACIMDesignSpec
        from repro.sim.montecarlo import measure_many

        specs, seed = batch
        return measure_many([ACIMDesignSpec(*spec) for spec in specs],
                            trials=TRIALS, columns=COLUMNS, seed=seed,
                            engine=engine or self.engine)

    def run(self, record: harness.RunRecord, cycle: int) -> Dict[str, list]:
        """Every batch of ``cycle``: timings, batches and results."""
        out = {"mc_s": [], "mc_batches": self.batches(cycle), "mc_results": []}
        for batch in out["mc_batches"]:
            started = time.perf_counter()
            results = self.run_batch(batch)
            out["mc_s"].append(time.perf_counter() - started)
            record.op(len(results) == BATCH, "measure_many returned a short batch")
            out["mc_results"].append(results)
        return out

    def peak_rss_mb(self) -> float:
        """Sum of the pool workers' peak RSS; they run the simulation and
        pickle its results."""
        return sum(harness.pid_peak_rss_mb(pid)
                   for pid in harness.descendant_pids())

    def check(self, record: harness.RunRecord, cycle: dict) -> None:
        """Seeded batches equal a serial-engine run with the same seeds."""
        from repro.engine import EvaluationEngine

        picks = random.Random(self.seed).sample(
            range(len(cycle["mc_batches"])), CHECKED_BATCHES)
        with EvaluationEngine("serial") as serial:
            for index in picks:
                twin = self.run_batch(cycle["mc_batches"][index], engine=serial)
                record.check(
                    twin == cycle["mc_results"][index],
                    f"MC batch {index}: process results differ from serial",
                )

    def serialize_seconds(self, cycle: dict) -> float:
        """``EngineStats.serialize_seconds`` covers only the shared-memory
        evaluation path; for ``map`` the figure is the pickling of what
        the pool ships (tasks out, results back), timed beside the run."""
        return sum(pickle_seconds(batch, results) for batch, results
                   in zip(cycle["mc_batches"], cycle["mc_results"]))

    def speedup(self, cycle: dict) -> float:
        """Wall time of the same batches on a serial engine over that on
        the process engine."""
        from repro.engine import EvaluationEngine

        sample = cycle["mc_batches"][:SPEEDUP_BATCHES]
        with EvaluationEngine("serial") as serial:
            started = time.perf_counter()
            for batch in sample:
                self.run_batch(batch, engine=serial)
            serial_wall = time.perf_counter() - started
        started = time.perf_counter()
        for batch in sample:
            self.run_batch(batch)
        return serial_wall / (time.perf_counter() - started)
