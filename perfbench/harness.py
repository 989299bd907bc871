"""Shared plumbing of the EasyACIM benchmark: statistics, scratch space,
memory readings, the run record every workload fills in, set-up timing,
and the scaffold of the in-process session workloads.

Nothing here touches the program under test except ``repo_root``, which
puts the checkout's ``src`` directory on ``sys.path``.
"""

from __future__ import annotations

import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

#: Directory (relative to the checkout root) for stores, exports and
#: temporary files; removed when a run ends.
SCRATCH_DIR = ".perfbench"


def repo_root() -> str:
    """The checkout root (the current directory), with ``src`` importable.

    Raises ``SystemExit(2)`` when the directory holds no EasyACIM sources,
    so a copy of the benchmark alone fails fast without a result.
    """
    root = os.getcwd()
    package = os.path.join(root, "src", "repro", "__init__.py")
    if not os.path.isfile(package):
        print(
            f"perfbench: no EasyACIM sources under {root}/src; run from the "
            "root of a repository checkout",
            file=sys.stderr,
        )
        raise SystemExit(2)
    src = os.path.join(root, "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    # Temporary files of this process and its children stay in the checkout.
    scratch_tmp = os.path.join(root, SCRATCH_DIR, "tmp")
    os.makedirs(scratch_tmp, exist_ok=True)
    os.environ["TMPDIR"] = scratch_tmp
    tempfile.tempdir = scratch_tmp
    return root


def scratch(prefix: str) -> str:
    """A fresh private directory under the checkout's scratch area."""
    base = os.path.join(os.getcwd(), SCRATCH_DIR)
    os.makedirs(base, exist_ok=True)
    return tempfile.mkdtemp(prefix=prefix, dir=base)


def remove_tree(path: Optional[str]) -> None:
    if path:
        shutil.rmtree(path, ignore_errors=True)


# -- statistics ---------------------------------------------------------------


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values)) if values else 0.0


def mean(values: Sequence[float]) -> float:
    return float(statistics.fmean(values)) if values else 0.0


def percentile(values: Sequence[float], q: float) -> Optional[float]:
    """The ``q`` quantile (0..1) when at least ten samples lie beyond it.

    Returns ``None`` when the sample is too small to support it, so a
    caller never reports a tail the data cannot show.
    """
    ordered = sorted(values)
    count = len(ordered)
    if count == 0 or count * (1.0 - q) < 10:
        return None
    index = min(count - 1, max(0, int(round(q * count)) - 1))
    return float(ordered[index])


def tail(values: Sequence[float], q: float) -> float:
    """``percentile`` or, below its sample floor, the maximum (an upper
    bound on the quantile the sample cannot resolve)."""
    value = percentile(values, q)
    if value is None:
        return float(max(values)) if values else 0.0
    return value


def overhead_frac(traced: Sequence[float], untraced: Sequence[float]) -> float:
    """Median over paired operations of traced / untraced time, minus one.

    Pairing the same request of two runs and taking the median keeps a
    slow stretch of the host during either run out of the figure.
    """
    return median([t / u for t, u in zip(traced, untraced) if u > 0]) - 1.0


# -- memory -------------------------------------------------------------------


def self_peak_rss_mb() -> float:
    """Peak resident set of this process in MiB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def pid_peak_rss_mb(pid: int) -> float:
    """Peak resident set (``VmHWM``) of another live process in MiB."""
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    return 0.0


def descendant_pids() -> List[int]:
    """Live processes descended from this one (pool workers), from ``/proc``."""
    parents = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
            parents[int(entry)] = int(fields[1])
        except (OSError, IndexError, ValueError):
            continue
    found, frontier = [], [os.getpid()]
    while frontier:
        children = [pid for pid, ppid in parents.items() if ppid in frontier]
        found += children
        frontier = children
    return found


# -- the run record -----------------------------------------------------------


@dataclass
class RunRecord:
    """What one workload run reports.

    ``attempted``/``failed`` count user operations; a failed output check
    marks its operation failed and is named in ``failures``.
    """

    attempted: int = 0
    failed: int = 0
    failures: List[str] = field(default_factory=list)
    metrics: Dict[str, tuple] = field(default_factory=dict)
    notes: Dict[str, object] = field(default_factory=dict)

    def op(self, ok: bool = True, name: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(name or "operation failed")

    def check(self, ok: bool, name: str) -> bool:
        """Record an output check; a failure counts one failed operation."""
        if not ok:
            self.failed += 1
            self.failures.append(name)
        return ok

    def put(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = (float(value), unit)


def emit(record: RunRecord, names: Sequence[str], units: Dict[str, str]) -> None:
    """Print every metric by name with its unit, then the JSON result line."""
    for failure in record.failures:
        print(f"FAILED CHECK: {failure}")
    metrics = {}
    for name in names:
        value, unit = record.metrics.get(name, (0.0, units[name]))
        metrics[name] = {"value": value, "unit": units[name]}
        print(f"{name:32s} {value:16.6g} {units[name]}")
    for key, value in sorted(record.notes.items()):
        print(f"  note {key}: {value}")
    print(json.dumps({
        "correct": record.failed == 0,
        "attempted": max(1, record.attempted),
        "failed": record.failed,
        "metrics": metrics,
    }))
    sys.stdout.flush()


# -- set-up time --------------------------------------------------------------

#: Set-up samples per run: the measured process's own, plus fresh probe
#: processes (``setup_probe.py``); ``setup_s`` is their median.
SETUP_SAMPLES = 3

#: Seconds a set-up probe may take before the run gives up on it.
PROBE_TIMEOUT_S = 120.0


def process_age_s() -> float:
    """Seconds since this process started (``starttime`` of
    ``/proc/self/stat``, in clock ticks since boot), so interpreter start
    and imports count as set-up too."""
    with open("/proc/self/stat") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    started = int(fields[19]) / os.sysconf("SC_CLK_TCK")
    return time.clock_gettime(time.CLOCK_BOOTTIME) - started


def probe_setup(workload: str, seed: int, count: int) -> List[float]:
    """Set-up times of ``count`` fresh ``setup_probe.py`` processes, each
    from its own start to ready for ``workload``."""
    script = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                          "setup_probe.py")
    samples = []
    for index in range(count):
        # Its own process group, so a probe that hangs goes down together
        # with the server it may have started.
        process = subprocess.Popen(
            [sys.executable, script, "--workload", workload,
             "--seed", str(seed + index + 1)],
            stdout=subprocess.PIPE, text=True, start_new_session=True,
        )
        try:
            out, _ = process.communicate(timeout=PROBE_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            os.killpg(process.pid, signal.SIGKILL)
            process.communicate()
            raise
        if process.returncode != 0:
            raise RuntimeError(f"set-up probe {index} of {workload} failed")
        samples.append(float(out.split()[-1]))
    return samples


# -- in-process session workloads ---------------------------------------------


class SessionWorkload:
    """Scaffold of the workloads that drive an in-process ``Session``.

    Set-up opens a ``Session`` with a private evaluation cache and a file
    store in a fresh scratch directory.  A run makes
    ``round(seconds / CYCLE_S)`` cycles (at least one), each on a freshly
    opened session, so the amount of work depends on the arguments only,
    never on how fast the host happens to be.  Subclasses supply
    ``cycle()`` (whose result holds ``wall_s``), ``op_seconds()`` (the
    per-request timings paired for the trace overhead) and ``check()``.
    """

    name = ""
    CYCLE_S = 10.0

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.session = None
        self.directory: Optional[str] = None

    def setup(self) -> None:
        self.open()

    def teardown(self) -> None:
        self.close()

    def open(self) -> None:
        from repro import Session, SessionConfig
        from repro.engine.cache import DEFAULT_CACHE_SIZE

        self.directory = scratch(f"{self.name}-")
        self.session = Session(SessionConfig(
            store=os.path.join(self.directory, "store.db"),
            cache_size=DEFAULT_CACHE_SIZE,
        ))

    def close(self) -> None:
        if self.session is not None:
            self.session.close()
            self.session = None
        remove_tree(self.directory)
        self.directory = None

    def cycle(self, record: "RunRecord", index: int) -> dict:
        raise NotImplementedError

    def op_seconds(self, cycle: dict) -> List[float]:
        raise NotImplementedError

    def cycles(self, record: "RunRecord", seconds: float) -> List[dict]:
        done = []
        for index in range(max(1, round(seconds / self.CYCLE_S))):
            if index:
                self.close()
                self.open()
            done.append(self.cycle(record, index))
        return done

    def peak_rss_mb(self) -> float:
        return self_peak_rss_mb()

    def stats_baseline(self) -> dict:
        return {"engine": self.session.engine.stats.snapshot()}

    def stats_layers(self, baseline: dict, cycle: dict) -> Dict[str, float]:
        """Per-layer figures from the public stats since ``baseline``."""
        engine = self.session.engine.stats.since(baseline["engine"])
        return {"engine.cache.hit_ratio": engine.cache_hits / max(
            1, engine.cache_hits + engine.evaluations)}

    def traced(self, record: "RunRecord", measured: dict,
               spans_path: str) -> Dict[str, float]:
        """The last measured cycle again, on a freshly opened session
        under the ledger: per-layer self time and counts, the overhead
        taken request by request against the measured run of the same
        requests."""
        from ledger import Ledger

        self.close()
        ledger = Ledger().install()
        try:
            self.open()
            baseline = self.stats_baseline()
            cycle = self.cycle(record, len(measured["cycles"]) - 1)
            figures = self.stats_layers(baseline, cycle)
        finally:
            ledger.uninstall()
        ledger.write(spans_path)
        layers = ledger.report(cycle["wall_s"], overhead_frac(
            self.op_seconds(cycle), self.op_seconds(measured["cycles"][-1])))
        layers.update(figures)
        return layers
