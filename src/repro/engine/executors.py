"""Executor backends of the evaluation engine.

Two backends decide how :meth:`~repro.engine.engine.EvaluationEngine.map`
runs its work items (spec evaluation is always computed inline):

* ``serial``  — no executor at all; zero overhead, the right choice for
  cheap work and for debugging.
* ``process`` — :class:`concurrent.futures.ProcessPoolExecutor`; true
  parallelism for CPU-bound work (Monte Carlo simulation, layout
  generation).  Work functions and their arguments must be picklable.

The pool is created lazily and reused across calls, so repeated fan-outs
amortize the spawn cost over the whole run.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from typing import Optional, Tuple

from repro.errors import EngineError

#: The recognised backend names, in increasing isolation order.
BACKENDS: Tuple[str, ...] = ("serial", "process")


def validate_backend(backend: str) -> str:
    """Return ``backend`` lower-cased, raising on unknown names."""
    name = str(backend).lower()
    if name not in BACKENDS:
        raise EngineError(
            f"unknown engine backend {backend!r}; choose from {BACKENDS}"
        )
    return name


def resolve_workers(workers: Optional[int]) -> int:
    """Number of pool workers: explicit value or the machine's CPU count."""
    if workers is None:
        return max(1, os.cpu_count() or 1)
    if workers < 1:
        raise EngineError("workers must be at least 1")
    return int(workers)


def create_executor(backend: str, workers: int) -> Optional[ProcessPoolExecutor]:
    """Create the executor for ``backend`` (``None`` for ``serial``).

    Args:
        backend: validated backend name.
        workers: pool size (ignored for ``serial``).
    """
    if backend == "serial":
        return None
    return ProcessPoolExecutor(max_workers=workers)
