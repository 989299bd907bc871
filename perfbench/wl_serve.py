"""``serve`` workload: open-loop Poisson traffic against ``repro serve``.

The target is ``repro serve`` in its own process, started by
``serve_launcher.py``.  Set-up launches it on an ephemeral port and
pre-fills its store with one 16 Kb paper-budget campaign (about 300
rows).  The measured phase sends a seeded Poisson stream at
:data:`NOMINAL_RPS` from one sender thread while one poller thread reads
job status until each job is terminal: exactly 70% ``estimate`` (stored
geometries, which hit the server's cache, and unseen ones the model
evaluates cold; see :func:`estimate_geometries`), 20% default query
pages, 5% ``library`` and 5% small ``layout``, spread over
:data:`TENANTS`.  Latency runs from each
request's due time to the terminal state the client observes; the
median ``estimate`` latency of this phase is ``latency_s``.  A
closed-loop phase (two callers, one fixed request list) then measures
capacity, ``throughput_per_s``.

The traced run adds the fixed rate ladder of :data:`LADDER_RPS` and a
second, ledger-wrapped server that replays the nominal stream.
"""

from __future__ import annotations

import http.client
import json
import os
import queue
import random
import signal
import subprocess
import sys
import threading
import time
from typing import Dict, List, Optional

import harness

#: Nominal open-loop rate.  This mix saturates the GIL-bound server on a
#: 2-core host near 60 req/s (closed loop).  Each query page holds the
#: interpreter lock for 45-90 ms (with the host's speed), and a request
#: served meanwhile waits for it; at 50 req/s most requests do, and even at
#: 20 req/s the median estimate latency jumped between the fast (~6 ms)
#: and the queued (~13 ms) mode from run to run.  At 10 req/s a page runs
#: under 10% of the time.  50 req/s and up stay covered by the ladder.
NOMINAL_RPS = 10.0
#: The rate ladder of the traced run: the nominal rate and 20 req/s, where
#: this server meets the limit today, then 50-300 req/s.
LADDER_RPS = (10.0, 20.0, 50.0, 100.0, 150.0, 200.0, 300.0)
LADDER_RUNG_S = 3.0
#: Limit on a rung's p90 latency (a 3 s rung at 50 req/s supports p90 with
#: ten samples beyond it; below that the limit applies to the maximum).
LADDER_P_LIMIT_S = 0.25
TENANTS = tuple(f"tenant-{index}" for index in range(8))
MIX = (("estimate", 0.70), ("query", 0.20), ("library", 0.05),
       ("layout", 0.05))
SMALL_LAYOUTS = ((16, 4, 2, 1), (16, 8, 2, 2), (32, 4, 4, 2), (32, 8, 2, 3))
#: Array sizes (Kb) whose geometries the estimate traffic evaluates cold,
#: besides the stored 16 Kb ones it finds in the server's cache.  The
#: 16 Kb front strictly dominates every 1 and 4 Kb design; it dominates
#: none of 64 Kb and up.
COLD_SIZES_KB = (1, 4)

#: Share of ``--seconds`` spent at the nominal rate; the rest is the
#: closed-loop capacity phase.  With a quarter (5 s of a 20 s run) a slow
#: stretch of the host moved its throughput and latency by 2x in four
#: runs of ten.
NOMINAL_SHARE = 0.5
CLOSED_LOOP_CALLERS = 2
#: Requests in the closed-loop phase's exact-mix list (cycled; a 20-request
#: block holds the whole mix).  The list is the same on every run: where
#: the four query pages fall decides whether the two callers wait on them
#: together or one after the other, which moved capacity between 58 and
#: 99 req/s across seeds.
CLOSED_LOOP_MIX = 20
CLOSED_LOOP_SEED = 20240623

#: Status reads of one outstanding job: every POLL_MIN_S for the first
#: POLL_FINE reads (so a fast job's latency is not rounded to a back-off
#: step), then doubling up to POLL_MAX_S.
POLL_MIN_S = 0.001
POLL_FINE = 8
POLL_MAX_S = 0.05
#: Seconds a job may stay non-terminal after it was due before it fails.
JOB_TIMEOUT_S = 10.0
#: Every ``CHECK_EVERY``-th request of the nominal phase is re-run in process.
CHECK_EVERY = 10

TERMINAL = ("done", "failed", "cancelled")


# -- wire helpers ---------------------------------------------------------------


class Wire:
    """One HTTP exchange per call on a fresh connection (as
    ``repro.serve.ServeClient`` does), timing connect and exchange."""

    def __init__(self, port: int) -> None:
        self.port = port

    def call(self, method: str, path: str, body: Optional[dict] = None):
        connection = http.client.HTTPConnection("127.0.0.1", self.port,
                                                timeout=30.0)
        try:
            started = time.perf_counter()
            connection.connect()
            connected = time.perf_counter()
            payload = json.dumps(body).encode() if body is not None else None
            headers = {"Content-Type": "application/json"} if body else {}
            connection.request(method, path, body=payload, headers=headers)
            response = connection.getresponse()
            raw = response.read()
            finished = time.perf_counter()
        finally:
            connection.close()
        document = json.loads(raw) if raw else {}
        return response.status, document, connected - started, finished - connected


def listen_overflows() -> int:
    """``ListenOverflows + ListenDrops`` from ``/proc/net/netstat``."""
    try:
        with open("/proc/net/netstat") as handle:
            lines = handle.read().splitlines()
    except OSError:
        return 0
    for header, values in zip(lines[::2], lines[1::2]):
        if header.startswith("TcpExt:"):
            table = dict(zip(header.split()[1:], values.split()[1:]))
            return int(table.get("ListenOverflows", 0)) + int(
                table.get("ListenDrops", 0))
    return 0


# -- the request stream -----------------------------------------------------------


def make_requests(rng: random.Random, count: int, pool: List[tuple]) -> List[dict]:
    """``count`` requests in the exact proportions of :data:`MIX`, shuffled
    (the kinds' service times differ by 100x, so a drawn mix would move
    every latency)."""
    from repro.store.result_store import RANK_METRICS

    ranks = sorted(RANK_METRICS)
    kinds = []
    for kind, share in MIX:
        kinds += [kind] * round(share * count)
    kinds = (kinds + ["estimate"] * count)[:count]
    rng.shuffle(kinds)
    requests = []
    for kind in kinds:
        if kind == "estimate":
            h, w, l, b = rng.choice(pool)
            request = {"kind": "estimate", "height": h, "width": w,
                       "local_array_size": l, "adc_bits": b}
        elif kind == "query":
            request = {"kind": "query", "rank_by": rng.choice(ranks),
                       "offset": rng.randrange(0, 40), "limit": 20}
        elif kind == "library":
            request = {"kind": "library", "report": True}
        else:
            h, w, l, b = rng.choice(SMALL_LAYOUTS)
            request = {"kind": "layout", "height": h, "width": w,
                       "local_array_size": l, "adc_bits": b,
                       "route_columns": True}
        requests.append({"request": request, "tenant": rng.choice(TENANTS)})
    return requests


def arrivals(rng: random.Random, rate: float, duration: float) -> List[float]:
    """Poisson arrival offsets (seconds) over ``duration``."""
    offsets, now = [], 0.0
    while True:
        now += rng.expovariate(rate)
        if now >= duration:
            return offsets
        offsets.append(now)


# -- load generation ----------------------------------------------------------------


class Outcome:
    __slots__ = ("index", "due", "latency", "ok", "document", "polls",
                 "connect_s", "submit_s", "late_s")

    def __init__(self, index: int, due: float) -> None:
        self.index, self.due = index, due
        self.latency: Optional[float] = None
        self.ok = False
        self.document: Optional[dict] = None
        self.polls = 0
        self.connect_s = self.submit_s = self.late_s = 0.0


def open_loop(wire: Wire, requests: List[dict], offsets: List[float]) -> List[Outcome]:
    """Send ``requests`` at ``offsets`` from one thread; a second thread
    polls each accepted job until it is terminal."""
    outcomes = [Outcome(i, 0.0) for i in range(len(requests))]
    pending: "queue.Queue" = queue.Queue()
    start = time.perf_counter() + 0.05
    done_sending = threading.Event()

    def send() -> None:
        for index, (document, offset) in enumerate(zip(requests, offsets)):
            outcome = outcomes[index]
            outcome.due = start + offset
            delay = outcome.due - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            outcome.late_s = max(0.0, time.perf_counter() - outcome.due)
            try:
                status, reply, connect_s, submit_s = wire.call(
                    "POST", "/v1/submit", document)
            except OSError:
                outcome.latency = time.perf_counter() - outcome.due
                continue
            outcome.connect_s, outcome.submit_s = connect_s, submit_s
            if status != 202:
                outcome.latency = time.perf_counter() - outcome.due
                outcome.document = reply
                continue
            pending.put((outcome, reply["job_id"], 0.0, POLL_MIN_S))
        done_sending.set()

    sender = threading.Thread(target=send, name="perfbench-sender")
    sender.start()
    poll(wire, pending, done_sending)
    sender.join()
    return outcomes


def poll(wire: Wire, pending: "queue.Queue", done_sending: threading.Event) -> None:
    """Read job status until every accepted job is terminal or timed out."""
    waiting: List[tuple] = []
    while True:
        while True:
            try:
                waiting.append(pending.get_nowait())
            except queue.Empty:
                break
        if not waiting:
            if done_sending.is_set() and pending.empty():
                return
            time.sleep(POLL_MIN_S / 2)
            continue
        now = time.perf_counter()
        still = []
        for outcome, job_id, next_poll, interval in waiting:
            if next_poll > now:
                still.append((outcome, job_id, next_poll, interval))
                continue
            try:
                status, document, _, _ = wire.call("GET", f"/v1/jobs/{job_id}")
            except OSError:
                status, document = 0, {}
            outcome.polls += 1
            observed = time.perf_counter()
            if status == 200 and document.get("state") in TERMINAL:
                outcome.latency = observed - outcome.due
                outcome.ok = document["state"] == "done"
                outcome.document = document
            elif observed - outcome.due > JOB_TIMEOUT_S:
                outcome.latency = observed - outcome.due
            else:
                still.append((outcome, job_id, observed + interval,
                              next_interval(outcome.polls, interval)))
        waiting = still
        if waiting:
            soonest = min(item[2] for item in waiting)
            time.sleep(max(0.0, min(POLL_MIN_S, soonest - time.perf_counter())))


def next_interval(polls: int, interval: float) -> float:
    """The wait before the next status read after ``polls`` reads."""
    return interval if polls < POLL_FINE else min(POLL_MAX_S, interval * 2)


def closed_loop(wire: Wire, requests: List[dict], duration: float) -> tuple:
    """``CLOSED_LOOP_CALLERS`` callers taking the next request of the
    (cycled) list once their previous one is terminal; returns
    (completed, failed, wall)."""
    counts = {"next": 0, "done": 0, "failed": 0}
    lock = threading.Lock()
    deadline = time.perf_counter() + duration

    def caller() -> None:
        while time.perf_counter() < deadline:
            with lock:
                document = requests[counts["next"] % len(requests)]
                counts["next"] += 1
            ok = False
            try:
                status, reply, _, _ = wire.call("POST", "/v1/submit", document)
                if status == 202:
                    interval, polls = POLL_MIN_S, 0
                    while True:
                        status, job, _, _ = wire.call(
                            "GET", f"/v1/jobs/{reply['job_id']}")
                        if status != 200 or job.get("state") in TERMINAL:
                            ok = status == 200 and job["state"] == "done"
                            break
                        polls += 1
                        time.sleep(interval)
                        interval = next_interval(polls, interval)
            except OSError:
                ok = False
            with lock:
                counts["done" if ok else "failed"] += 1

    started = time.perf_counter()
    threads = [threading.Thread(target=caller)
               for _ in range(CLOSED_LOOP_CALLERS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return counts["done"], counts["failed"], time.perf_counter() - started


# -- the server process ---------------------------------------------------------------


class Server:
    """``repro serve`` in its own process via ``serve_launcher.py``."""

    def __init__(self, directory: str, ledger: Optional[tuple] = None) -> None:
        launcher = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                "serve_launcher.py")
        command = [sys.executable, launcher]
        if ledger:
            command += ["--ledger", ledger[0], "--spans", ledger[1]]
        command += ["--", "serve", "--port", "0",
                    "--store", os.path.join(directory, "store.db")]
        self.process = subprocess.Popen(command, stderr=subprocess.PIPE,
                                        stdout=subprocess.DEVNULL, text=True)
        self.port = None
        for line in self.process.stderr:
            if "listening on http://" in line:
                self.port = int(line.split("listening on http://")[1]
                                .split()[0].rsplit(":", 1)[1])
                break
        if self.port is None:
            self.stop()
            raise RuntimeError("repro serve did not start")
        # Keep the pipe drained so the server never blocks on stderr.
        self._drain = threading.Thread(target=self.process.stderr.read,
                                       daemon=True)
        self._drain.start()
        self.wire = Wire(self.port)

    def signal(self, signum: int) -> None:
        self.process.send_signal(signum)

    def peak_rss_mb(self) -> float:
        return harness.pid_peak_rss_mb(self.process.pid)

    def stop(self) -> None:
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()


def run_job(wire: Wire, request: dict, timeout: float = 120.0) -> dict:
    """Submit one request and wait for its terminal document."""
    status, reply, _, _ = wire.call("POST", "/v1/submit",
                                    {"request": request, "tenant": "setup"})
    if status != 202:
        raise RuntimeError(f"set-up request refused: {reply}")
    deadline = time.perf_counter() + timeout
    while time.perf_counter() < deadline:
        _, job, _, _ = wire.call("GET", f"/v1/jobs/{reply['job_id']}")
        if job.get("state") in TERMINAL:
            if job["state"] != "done":
                raise RuntimeError(f"set-up job failed: {job}")
            return job
        time.sleep(0.01)
    raise RuntimeError("set-up job timed out")


def start_server(directory: str, ledger: Optional[tuple] = None) -> tuple:
    """Launch (under the ledger when ``ledger`` names its report and span
    files), pre-fill with a 16 Kb paper-budget campaign, and return the
    server with every stored design."""
    server = Server(directory, ledger)
    try:
        run_job(server.wire, {"kind": "campaign", "name": "prefill",
                              "array_size": 16 * 1024, "population": 80,
                              "generations": 40})
        job = run_job(server.wire, {"kind": "query", "pareto_only": False})
    except BaseException:
        server.stop()
        raise
    return server, job["result"]["payload"]["designs"]


def _objectives(designs: List[dict]):
    import numpy as np

    return np.array([
        (-d["snr_db"], -d["tops"], d["energy_per_mac_fJ"], d["area_f2_per_bit"])
        for d in designs
    ], dtype=float).reshape(-1, 4)


def estimate_geometries(stored: List[dict]) -> List[tuple]:
    """The geometries the ``estimate`` traffic draws from, uniformly.

    Every stored design (a hit in the server's evaluation cache) and every
    feasible geometry of :data:`COLD_SIZES_KB` that a stored design
    strictly dominates (a cold model evaluation; the server then stores
    its row).  A dominated row changes no pareto-only query page, so the
    served pages stay comparable with an in-process query of the final
    store whenever the cold estimates ran.
    """
    from repro.arch.batch import SpecBatch
    from repro.model.estimator import ACIMEstimator

    seen = {(d["H"], d["W"], d["L"], d["B_ADC"]) for d in stored}
    stored_points = _objectives(stored)
    geometries = sorted(seen)
    for kb in COLD_SIZES_KB:
        designs = [m.as_dict() for m in
                   ACIMEstimator().evaluate_batch(SpecBatch.enumerate(kb * 1024))]
        points = _objectives(designs)
        dominated = (
            (stored_points[None, :, :] <= points[:, None, :]).all(axis=2)
            & (stored_points[None, :, :] < points[:, None, :]).any(axis=2)
        ).any(axis=1)
        geometries += [
            (d["H"], d["W"], d["L"], d["B_ADC"])
            for d, covered in zip(designs, dominated)
            if covered and (d["H"], d["W"], d["L"], d["B_ADC"]) not in seen
        ]
    return geometries


# -- the workload -----------------------------------------------------------------------


def server_figures(server: Server) -> dict:
    """Cumulative counters of the server's ``/v1/metrics`` document."""
    _, document, _, _ = server.wire.call("GET", "/v1/metrics")
    metrics, engine = document["metrics"], document["engine_stats"]
    histogram = metrics.get("serve.job.seconds") or {}
    return {
        "job_s": histogram.get("sum", 0.0),
        "jobs": histogram.get("count", 0),
        "failed": metrics.get("serve.jobs.failed", 0),
        "rate_limited": metrics.get("serve.rate_limited", 0),
        "cache_hits": engine["cache_hits"],
        "evaluations": engine["evaluations"],
    }


def delta(after: dict, before: dict) -> dict:
    return {key: after[key] - before[key] for key in after}


class Workload:
    name = "serve"

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.server: Optional[Server] = None
        self.directory: Optional[str] = None
        self.stored: List[dict] = []
        self.pool: List[tuple] = []

    def setup(self) -> None:
        self.directory = harness.scratch("serve-")
        self.server, self.stored = start_server(self.directory)

    def teardown(self) -> None:
        if self.server is not None:
            self.server.stop()
            self.server = None
        harness.remove_tree(self.directory)
        self.directory = None

    def nominal_stream(self, seconds: float) -> tuple:
        rng = random.Random(self.seed)
        offsets = arrivals(rng, NOMINAL_RPS, seconds * NOMINAL_SHARE)
        return make_requests(rng, len(offsets), self.pool), offsets

    def measure(self, record: harness.RunRecord, seconds: float) -> dict:
        # Client-side work, so it is neither set-up nor measured time.
        self.pool = estimate_geometries(self.stored)
        requests, offsets = self.nominal_stream(seconds)
        overflows = listen_overflows()
        before = server_figures(self.server)
        outcomes = open_loop(self.server.wire, requests, offsets)
        server = delta(server_figures(self.server), before)
        overflows = listen_overflows() - overflows
        for outcome in outcomes:
            record.op(outcome.ok, f"request {outcome.index} "
                      f"({requests[outcome.index]['request']['kind']}) failed")
        latencies = [o.latency for o in outcomes if o.latency is not None]
        done, failed, wall = closed_loop(
            self.server.wire,
            make_requests(random.Random(CLOSED_LOOP_SEED), CLOSED_LOOP_MIX,
                          self.pool),
            seconds * (1.0 - NOMINAL_SHARE))
        for _ in range(done):
            record.op(True)
        for _ in range(failed):
            record.op(False, "closed-loop request failed")
        return {
            "requests": requests,
            "outcomes": outcomes,
            "server": server,
            "throughput_per_s": done / wall,
            # An estimate's latency depends on whether a query page (which
            # holds the interpreter lock for 45-90 ms) runs meanwhile.  At
            # the nominal rate pages run under 10% of the time and the
            # median estimate is in the fast mode (~6 ms); the mean follows
            # the seed's Poisson arrivals (its quartiles over ten seeds lay
            # 27% apart).  In the closed loop a quarter to a half of the
            # estimates queue behind a page, so their median jumped between
            # the modes (8 to 25 ms) with the host's speed.
            "latency_s": harness.median([
                o.latency for o in outcomes
                if o.latency is not None
                and requests[o.index]["request"]["kind"] == "estimate"]),
            "latencies": latencies,
            "samples": len(latencies),
            "overflows": overflows,
        }

    def peak_rss_mb(self) -> float:
        return self.server.peak_rss_mb()

    def check(self, record: harness.RunRecord, measured: dict) -> dict:
        """Sampled payloads equal an in-process ``Session.submit``."""
        from repro import Session, SessionConfig

        store = os.path.join(self.directory, "store.db")
        with Session() as plain, Session(SessionConfig(store=store)) as stored:
            for outcome in measured["outcomes"][::CHECK_EVERY]:
                if not outcome.ok:
                    continue
                request = measured["requests"][outcome.index]["request"]
                served = outcome.document["result"]["payload"]
                session = stored if request["kind"] == "query" else plain
                local = json.loads(json.dumps(session.submit(request).payload))
                if request["kind"] == "layout":
                    # The report minus its wall-clock field; reuse counters
                    # depend on what the session solved before.
                    served, local = (
                        {k: v for k, v in payload["report"].items()
                         if k != "runtime_s"}
                        for payload in (served, local)
                    )
                record.check(served == local,
                             f"served {request['kind']} payload differs "
                             f"from in-process: {request}")
        latencies = measured["latencies"]
        return {
            "serve_p50_s": harness.median(latencies),
            "serve_p90_s": harness.tail(latencies, 0.90),
        }

    # -- traced run ------------------------------------------------------------------

    def traced(self, record: harness.RunRecord, measured: dict,
               spans_path: str) -> dict:
        """Client- and server-side figures over the nominal stream plus the
        rate ladder (so the p99s have ten samples beyond them), then the
        nominal stream again against a ledger-wrapped server."""
        max_rps, ladder = self.ladder(record)
        sent = [o for o in measured["outcomes"] + ladder if o.connect_s]
        outcomes = [o for o in measured["outcomes"] + ladder if o.document]
        layers: Dict[str, float] = {
            "serve.connect_s_p99": harness.tail(
                [o.connect_s for o in sent], 0.99),
            "serve.submit_s_p50": harness.median([o.submit_s for o in sent]),
            "serve.submit_s_p99": harness.tail(
                [o.submit_s for o in sent], 0.99),
            "serve.poll.per_job": sum(o.polls for o in outcomes)
            / max(1, len(outcomes)),
            "serve.jobs.failed": measured["server"]["failed"],
            "serve.rate_limited": measured["server"]["rate_limited"],
            "engine.cache.hit_ratio": measured["server"]["cache_hits"] / max(
                1, measured["server"]["cache_hits"]
                + measured["server"]["evaluations"]),
            "serve.listen_overflows": measured["overflows"],
            "loadgen.late_s_p99": harness.tail(
                [o.late_s for o in measured["outcomes"] + ladder], 0.99),
            "e2e.serve_max_rps": max_rps,
        }
        waits = [d["started_at"] - d["created_at"] for d in
                 (o.document for o in outcomes) if d.get("started_at")]
        runs = [d["result"]["runtime_seconds"] for d in
                (o.document for o in outcomes) if d.get("result")]
        layers["serve.queue.wait_s_p50"] = harness.median(waits)
        layers["serve.queue.wait_s_p99"] = harness.tail(waits, 0.99)
        layers["serve.job.run_s_p50"] = harness.median(runs)

        # Replay the nominal stream against a ledger-wrapped server.
        ledger_path = os.path.join(self.directory, "ledger.json")
        server, _ = start_server(harness.scratch("serve-traced-"),
                                 (ledger_path, spans_path))
        try:
            before = server_figures(server)
            server.signal(signal.SIGUSR1)
            requests = measured["requests"]
            offsets = [o.due - measured["outcomes"][0].due
                       for o in measured["outcomes"]]
            for outcome in open_loop(server.wire, requests, offsets):
                record.op(outcome.ok, "traced request failed")
            server.signal(signal.SIGUSR2)
            jobs = delta(server_figures(server), before)
            deadline = time.perf_counter() + 30
            while not os.path.exists(ledger_path) and time.perf_counter() < deadline:
                time.sleep(0.05)
        finally:
            server.stop()
        with open(ledger_path) as handle:
            traced = json.load(handle)
        untraced = measured["server"]
        traced["trace.overhead_frac"] = (
            (jobs["job_s"] / max(1, jobs["jobs"]))
            / (untraced["job_s"] / max(1, untraced["jobs"])) - 1.0
        )
        traced.update(layers)
        return traced

    def ladder(self, record: harness.RunRecord) -> tuple:
        """Highest rung of :data:`LADDER_RPS` with p90 latency within
        :data:`LADDER_P_LIMIT_S` and no failed or timed-out job (a growing
        backlog times jobs out), and every rung's outcomes."""
        best, everything = 0.0, []
        for step, rate in enumerate(LADDER_RPS):
            rng = random.Random(self.seed * 100 + step)
            offsets = arrivals(rng, rate, LADDER_RUNG_S)
            requests = make_requests(rng, len(offsets), self.pool)
            outcomes = open_loop(self.server.wire, requests, offsets)
            everything += outcomes
            latencies = [o.latency for o in outcomes]
            for outcome in outcomes:
                record.op(outcome.ok, f"ladder {rate:g} req/s request failed")
            p90 = harness.tail(latencies, 0.90)
            record.notes[f"ladder_{rate:g}rps_p90_s"] = round(p90, 4)
            if all(o.ok for o in outcomes) and p90 <= LADDER_P_LIMIT_S:
                best = rate
            else:
                break
        return best, everything
