"""Worker-crash tests of the ``process`` backend's ``map`` pool.

A worker that dies mid-call (``kill -9``, segfault, OOM kill) must fail
the call with a typed :class:`~repro.errors.WorkerCrashError` naming the
items whose results never arrived, never hang, and leave the engine able
to serve the next call on a fresh pool.
"""

import os
import signal

import pytest

from repro.engine import EvaluationCache, EvaluationEngine
from repro.errors import EngineError, WorkerCrashError


def _fresh_process_engine(workers: int = 1) -> EvaluationEngine:
    """A process engine with a private cache (no shared-cache hits)."""
    return EvaluationEngine("process", workers=workers, cache=EvaluationCache())


class TestWorkerCrash:
    def test_crash_mid_submission_raises_typed_error_with_ranges(self):
        # One worker, one item per task: items 0 and 1 complete, item 2
        # SIGKILLs the worker, so item 2 onwards can never complete.  The
        # parent must raise (typed, with the unfinished item range)
        # instead of hanging.
        items = list(range(6))
        with _fresh_process_engine() as engine:
            with pytest.raises(WorkerCrashError) as excinfo:
                engine.map(_kill_own_worker_at_2, items, chunk_size=1)
            error = excinfo.value
            assert error.code == "worker-crash"
            assert isinstance(error, EngineError)
            ((lo, hi),) = error.failed_ranges
            assert 0 <= lo <= 2 and hi == len(items)
            assert error.as_dict()["failed_ranges"] == [[lo, hi]]

            # Every item kills its worker: nothing completes.
            with pytest.raises(WorkerCrashError) as excinfo:
                engine.map(_kill_own_worker, items, chunk_size=1)
            assert excinfo.value.failed_ranges == [(0, len(items))]

    def test_engine_replaces_a_crashed_pool(self):
        # The crash is not sticky: the broken pool is discarded and the
        # next map on the same engine runs on fresh workers.
        with _fresh_process_engine() as engine:
            old_pids = set(engine.map(_worker_pid, list(range(4))))
            old_executor = engine._executor
            with pytest.raises(WorkerCrashError):
                engine.map(_kill_own_worker, list(range(4)), chunk_size=1)
            assert engine._executor is None
            assert engine.map(_square, list(range(20))) == [
                i * i for i in range(20)
            ]
            assert engine._executor is not old_executor
            new_pids = set(engine.map(_worker_pid, list(range(4))))
            assert not new_pids & old_pids


def _square(value: int) -> int:
    return value * value


def _worker_pid(_value: int) -> int:
    return os.getpid()


def _kill_own_worker(value: int) -> int:
    """A map task that SIGKILLs the pool worker running it."""
    os.kill(os.getpid(), signal.SIGKILL)
    return value


def _kill_own_worker_at_2(value: int) -> int:
    """A map task that SIGKILLs its worker on item 2 only."""
    if value == 2:
        os.kill(os.getpid(), signal.SIGKILL)
    return value
