"""Shared fixtures: deterministic config and RNG for every test module,
plus the engine backend x thread-count matrix of the equivalence suites."""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import ReproConfig
from repro.rc4 import _native


@pytest.fixture
def config() -> ReproConfig:
    """A fixed-seed configuration so tests are reproducible."""
    return ReproConfig(seed=1234)


@pytest.fixture
def rng() -> np.random.Generator:
    """A fixed-seed generator independent of the config streams."""
    return np.random.default_rng(987654321)


@pytest.fixture(
    params=[("numpy", 1), ("native", 1), ("native", 2), ("native", 3)],
    ids=["numpy", "native-1t", "native-2t", "native-3t"],
)
def engine_threads(request, monkeypatch) -> int:
    """Run under the numpy fallback and the native backend at 1-3
    threads; returns the thread count to pass to the engine."""
    backend, threads = request.param
    if backend == "native":
        if not _native.available():
            pytest.skip("native backend unavailable (no C compiler?)")
    else:
        monkeypatch.setattr(_native, "available", lambda: False)
    return threads
