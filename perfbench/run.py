"""EasyACIM end-to-end benchmark: one command, three workloads.

Run from the root of a repository checkout::

    python3 perfbench/run.py --workload dse --seed 1 --seconds 25 --trace 0

``--trace 0`` measures the end-to-end metrics with no instrumentation;
``--trace 1`` repeats the measured work under the per-layer ledger
(``ledger.py``) and reports self time and counts per layer instead.  Every
metric is printed by name with its unit; the last line is the JSON result
``{"correct", "attempted", "failed", "metrics"}``.  Metric names, units and
directions live in ``BENCHMARK.json``; ``perfbench/README.md`` maps them
to each workload.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import harness

WORKLOADS = ("dse", "flow", "serve")

#: Where a traced run leaves its spans (one JSON line each).
TRACE_DIR = ".perfbench-traces"


def load_workload(name: str, seed: int):
    if name == "dse":
        import wl_dse as module
    elif name == "flow":
        import wl_flow as module
    else:
        import wl_serve as module
    return module.Workload(seed)


def metric_catalogue(root: str) -> dict:
    with open(os.path.join(root, "BENCHMARK.json")) as handle:
        config = json.load(handle)
    return {
        section: {m["name"]: m["unit"] for m in config[section]}
        for section in ("end_to_end", "per_layer")
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = harness.repo_root()
    catalogue = metric_catalogue(root)
    workload = load_workload(args.workload, args.seed)
    record = harness.RunRecord()
    try:
        workload.setup()
        setup_samples = [harness.process_age_s()]
        measured = workload.measure(record, args.seconds)
        peak_rss = workload.peak_rss_mb()
        extras = workload.check(record, measured)
        if args.trace:
            traces = os.path.join(root, TRACE_DIR)
            os.makedirs(traces, exist_ok=True)
            layers = workload.traced(record, measured, os.path.join(
                traces, f"{args.workload}-seed{args.seed}.jsonl"))
    finally:
        workload.teardown()
        harness.remove_tree(os.path.join(root, harness.SCRATCH_DIR))
    if not args.trace:
        setup_samples += harness.probe_setup(
            args.workload, args.seed, harness.SETUP_SAMPLES - 1)
        harness.remove_tree(os.path.join(root, harness.SCRATCH_DIR))

    record.notes["setup_samples_s"] = [round(s, 4) for s in setup_samples]
    record.notes["latency_samples"] = measured["samples"]
    if args.trace:
        for name in catalogue["per_layer"]:
            if name in layers:
                record.put(name, layers[name], catalogue["per_layer"][name])
        for name, value in extras.items():
            record.put(f"e2e.{name}", value, catalogue["per_layer"][f"e2e.{name}"])
        record.put("e2e.fail_frac", record.failed / max(1, record.attempted),
                   catalogue["per_layer"]["e2e.fail_frac"])
        names = catalogue["per_layer"]
    else:
        record.put("setup_s", harness.median(setup_samples), "s")
        record.put("peak_rss_mb", peak_rss, "MiB")
        record.put("throughput_per_s", measured["throughput_per_s"], "1/s")
        record.put("latency_s", measured["latency_s"], "s")
        names = catalogue["end_to_end"]
    harness.emit(record, list(names), names)
    return 0


if __name__ == "__main__":
    sys.exit(main())
