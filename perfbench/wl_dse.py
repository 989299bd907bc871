"""``dse`` workload: paper-budget campaigns, exhaustive sweeps, Pareto
pages and Monte-Carlo SNR validation.

One caller drives an in-process ``Session`` (default serial backend, file
store, empty cache) in a closed loop.  A cycle visits every array size of
:data:`SIZES_KB`: one checkpointed NSGA-II campaign at the paper budget,
then an exhaustive sweep of the same space.  A phase of default
(``pareto_only=True``) query pages in seeded order, ranking and offset,
over the store just written, follows; seeded Monte-Carlo SNR batches on
a 2-worker process engine (``mc_phase.py``) close the cycle.
"""

from __future__ import annotations

import random
import time
from typing import Dict, List

import numpy as np

import harness
from mc_phase import MonteCarloPhase

#: Array sizes of one cycle, in Kb (1 Kb .. 1 Mb).
SIZES_KB = (1, 4, 16, 64, 256, 1024)

#: Pareto-only query pages per cycle: DEFAULT_PAGES with no bounds (the
#: ones ``pareto_query_s`` reports: their cost is alike, 1.3-2.1 s each on
#: the 2-core host), then one page per bound set of QUERY_BOUNDS
#: (filtered pages cost 5-10x less).
DEFAULT_PAGES = 2

#: Paper budget of a campaign (NSGA-II population x generations).
POPULATION = 80
GENERATIONS = 40

#: Optional distillation bounds a query page may carry.
QUERY_BOUNDS = (
    {"min_snr_db": 10.0},
    {"min_tops_per_watt": 600.0},
    {"max_area_f2_per_bit": 2500.0},
    {"min_snr_db": 5.0, "min_tops_per_watt": 400.0},
)

#: Samples of the fixed Monte-Carlo hypervolume estimate.
HV_SAMPLES = 20000


def plan(seed: int) -> dict:
    """The request sequence of one cycle, generated from ``seed`` alone.

    The seed orders the query pages and picks each page's ranking metric
    and offset, and which campaign and page the output check re-runs.
    Campaigns run in ascending size at the request's default optimiser
    seed: a 16 Kb campaign took 0.59-0.98 s over five optimiser seeds (the
    layering the dominance sort meets), and a pareto page's cost follows
    the order rows entered the store (the pure-Python front stops at the
    first dominator it meets); either would swamp comparisons between runs.
    """
    from repro.store.result_store import RANK_METRICS

    rng = random.Random(seed)
    campaigns = [{"array_size": kb * 1024, "seed": 1} for kb in SIZES_KB]
    ranks = sorted(RANK_METRICS)
    queries = [
        dict(rank_by=rng.choice(ranks), offset=rng.randrange(0, 40),
             limit=20, **bounds)
        for bounds in [{}] * DEFAULT_PAGES + list(QUERY_BOUNDS)
    ]
    rng.shuffle(queries)
    return {"campaigns": campaigns, "queries": queries,
            "check_campaign": rng.randrange(len(campaigns)),
            "check_query": rng.randrange(len(queries))}


class Workload(harness.SessionWorkload):
    name = "dse"
    CYCLE_S = 12.5

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.plan = plan(seed)
        self.mc = MonteCarloPhase(seed)

    def setup(self) -> None:
        self.mc.start()
        super().setup()

    def teardown(self) -> None:
        super().teardown()
        self.mc.close()

    # -- one cycle ---------------------------------------------------------------

    def cycle(self, record: harness.RunRecord, index: int) -> dict:
        """Run one cycle; returns its timings and payloads."""
        from repro import CampaignRequest, ExploreRequest, QueryRequest

        cycle_started = time.perf_counter()
        out = {"campaign_s": [], "sweep_s": [], "sweep_points": 0,
               "query_s": [], "campaigns": [], "sweeps": [], "queries": []}
        for number, item in enumerate(self.plan["campaigns"]):
            started = time.perf_counter()
            result = self.session.submit(CampaignRequest(
                name=f"c{index}-{number}", array_size=item["array_size"],
                population=POPULATION, generations=GENERATIONS,
                seed=item["seed"], checkpoint_every=1,
            ))
            out["campaign_s"].append(time.perf_counter() - started)
            record.op(result.status == "ok", f"campaign {number} not ok")
            out["campaigns"].append(result.payload)
            started = time.perf_counter()
            result = self.session.submit(ExploreRequest(
                array_size=item["array_size"], method="exhaustive",
            ))
            out["sweep_s"].append(time.perf_counter() - started)
            record.op(result.status == "ok", f"sweep {number} not ok")
            out["sweep_points"] += result.payload["evaluations"]
            out["sweeps"].append(result.payload)
        for query in self.plan["queries"]:
            started = time.perf_counter()
            result = self.session.submit(QueryRequest(**query))
            out["query_s"].append(time.perf_counter() - started)
            record.op(result.status == "ok", "query not ok")
            out["queries"].append(result.payload)
        out.update(self.mc.run(record, index))
        out["wall_s"] = time.perf_counter() - cycle_started
        out["store_rows"] = self.session.store.evaluation_count()
        return out

    def op_seconds(self, cycle: dict) -> List[float]:
        return (cycle["campaign_s"] + cycle["sweep_s"] + cycle["query_s"]
                + cycle["mc_s"])

    def measure(self, record: harness.RunRecord, seconds: float) -> dict:
        cycles = self.cycles(record, seconds)
        campaign_s = [t for c in cycles for t in c["campaign_s"]]
        sweep_s = sum(sum(c["sweep_s"]) for c in cycles)
        query_s = [
            t for c in cycles
            for t, query in zip(c["query_s"], self.plan["queries"])
            if query.keys() == {"rank_by", "offset", "limit"}
        ]
        mc_s = sum(sum(c["mc_s"]) for c in cycles)
        return {
            "cycles": cycles,
            # Every request of the closed loop (campaign, sweep, page,
            # Monte-Carlo batch) per second of the loop's wall time: it
            # covers the whole run, where a page alone (1.3-2.1 s each on
            # one store) took six samples in two clumps and spread 40%.
            "throughput_per_s": sum(len(self.op_seconds(c)) for c in cycles)
            / sum(c["wall_s"] for c in cycles),
            # Time to a paper-budget Pareto front; the sizes' campaigns
            # cost alike, so their median is a plain typical latency.
            "latency_s": harness.median(campaign_s),
            "explore_per_s": len(campaign_s) / sum(campaign_s),
            "pareto_query_s": harness.median(query_s),
            "sweep_points_per_s": sum(c["sweep_points"] for c in cycles)
            / sweep_s,
            "mc_trials_per_s": sum(
                m.trials for c in cycles for batch in c["mc_results"]
                for m in batch) / mc_s,
            "store_rows": cycles[-1]["store_rows"],
            "samples": len(campaign_s),
        }

    def peak_rss_mb(self) -> float:
        """This process plus the pool workers."""
        return super().peak_rss_mb() + self.mc.peak_rss_mb()

    # -- traced run --------------------------------------------------------------

    def stats_baseline(self) -> dict:
        baseline = super().stats_baseline()
        baseline["mc"] = self.mc.engine.stats.snapshot()
        return baseline

    def stats_layers(self, baseline: dict, cycle: dict) -> Dict[str, float]:
        layers = super().stats_layers(baseline, cycle)
        stats = self.mc.engine.stats.since(baseline["mc"])
        layers["engine.map.serialize_s"] = (
            stats.serialize_seconds + self.mc.serialize_seconds(cycle))
        return layers

    def traced(self, record: harness.RunRecord, measured: dict,
               spans_path: str) -> Dict[str, float]:
        layers = super().traced(record, measured, spans_path)
        layers["engine.map.speedup"] = self.mc.speedup(measured["cycles"][-1])
        return layers

    # -- output checks -----------------------------------------------------------

    def check(self, record: harness.RunRecord, measured: dict) -> dict:
        cycle = measured["cycles"][-1]
        self._check_campaign(record, cycle)
        for index, sweep in enumerate(cycle["sweeps"]):
            self._check_sweep(record, index, sweep)
        self._check_query(record, cycle)
        self.mc.check(record, cycle)
        ratios = [
            hv_ratio(campaign["pareto"], sweep["pareto"])
            for campaign, sweep in zip(cycle["campaigns"], cycle["sweeps"])
        ]
        return {
            "front_hv_ratio": float(np.mean(ratios)),
            "explore_per_s": measured["explore_per_s"],
            "pareto_query_s": measured["pareto_query_s"],
            "sweep_points_per_s": measured["sweep_points_per_s"],
            "mc_trials_per_s": measured["mc_trials_per_s"],
            "query_store_rows": measured["store_rows"],
        }

    def _check_campaign(self, record, cycle) -> None:
        """A sampled campaign front equals a direct ``Session.explore``."""
        from repro import ExploreRequest, Session, SessionConfig
        from repro.engine.cache import DEFAULT_CACHE_SIZE

        index = self.plan["check_campaign"]
        item = self.plan["campaigns"][index]
        with Session(SessionConfig(cache_size=DEFAULT_CACHE_SIZE)) as direct:
            twin = direct.submit(ExploreRequest(
                array_size=item["array_size"], population=POPULATION,
                generations=GENERATIONS, seed=item["seed"],
            ))
        record.check(
            twin.payload["pareto"] == cycle["campaigns"][index]["pareto"],
            f"campaign front {item} differs from direct explore",
        )

    def _check_sweep(self, record, index, sweep) -> None:
        """A sweep front equals the pure-Python oracle over the grid
        evaluated straight through the model (no engine, cache or store)."""
        from repro.arch.batch import SpecBatch
        from repro.dse.pareto import pareto_front
        from repro.model.estimator import ACIMEstimator

        grid = SpecBatch.enumerate(sweep["array_size"])
        metrics = ACIMEstimator().evaluate_batch(grid)
        front = pareto_front([m.objectives() for m in metrics])
        expected = sorted(
            (metrics[i].as_dict() for i in front),
            key=lambda d: (d["H"], d["W"], d["L"], d["B_ADC"]),
        )
        record.check(
            sweep["pareto"] == expected and sweep["evaluations"] == len(grid),
            f"sweep front {sweep['array_size']} differs from the oracle",
        )

    def _check_query(self, record, cycle) -> None:
        """A sampled pareto page equals filter + oracle front + rank + page
        over every stored row."""
        from repro.dse.distill import DistillationCriteria
        from repro.dse.pareto import pareto_front
        from repro.store.result_store import RANK_METRICS

        index = self.plan["check_query"]
        query = self.plan["queries"][index]
        page = cycle["queries"][index]
        rows, _ = self.session.store.query_page(pareto_only=False)
        bounds = {k: v for k, v in query.items()
                  if k not in ("rank_by", "offset", "limit")}
        if bounds:
            criteria = DistillationCriteria(name="check", **bounds)
            rows = [row for row in rows if criteria.accepts(row)]
        front = pareto_front([row.metrics.objectives() for row in rows])
        rows = sorted(
            (rows[i] for i in front),
            key=lambda row: (getattr(row.metrics, query["rank_by"]),
                             row.spec.as_tuple()),
            reverse=RANK_METRICS[query["rank_by"]],
        )
        expected = [row.as_dict() for row in
                    rows[query["offset"]:query["offset"] + query["limit"]]]
        record.check(
            page["designs"] == expected and page["total"] == len(rows),
            f"query page {query} differs from the oracle",
        )


def _objectives(designs: List[Dict]) -> np.ndarray:
    return np.array([
        (-d["snr_db"], -d["tops"], d["energy_per_mac_fJ"], d["area_f2_per_bit"])
        for d in designs
    ], dtype=float)


def hv_ratio(front: List[Dict], reference_front: List[Dict]) -> float:
    """4-objective hypervolume of ``front`` over that of ``reference_front``.

    Both are normalised to the reference front's ideal/nadir box, the
    reference point sits 10% beyond the nadir, and the volume is a
    fixed-sample Monte-Carlo estimate (same samples every call), so the
    ratio is identical on every run of the same fronts.
    """
    reference = _objectives(reference_front)
    low = reference.min(axis=0)
    span = np.maximum(reference.max(axis=0) - low, 1e-300)
    samples = np.random.default_rng(20240623).uniform(
        0.0, 1.1, size=(HV_SAMPLES, 4)
    )

    def dominated(points: np.ndarray) -> int:
        normalised = (points - low) / span
        hits = 0
        for chunk in np.array_split(samples, 10):
            covered = (normalised[None, :, :] <= chunk[:, None, :]).all(axis=2)
            hits += int(covered.any(axis=1).sum())
        return hits

    base = dominated(reference)
    return dominated(_objectives(front)) / base if base else 0.0
