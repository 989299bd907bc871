"""Shared fixtures and reporting helpers for the benchmark harness.

Every benchmark module regenerates one table or figure of the paper's
evaluation section (named in its module docstring) and prints the
reproduced rows/series, so running

    pytest benchmarks/ --benchmark-only -s

produces both the timing data and the paper-facing numbers.
"""

from __future__ import annotations

import pytest

from repro.cells.library import default_cell_library
from repro.model.estimator import ACIMEstimator
from repro.technology.tech import generic28


@pytest.fixture(scope="session")
def technology():
    """The synthetic generic 28 nm technology."""
    return generic28()


@pytest.fixture(scope="session")
def cell_library(technology):
    """The default cell library shared by the layout benchmarks."""
    return default_cell_library(technology)


@pytest.fixture(scope="session")
def estimator():
    """Default estimation model used by the model-level benchmarks."""
    return ACIMEstimator()
