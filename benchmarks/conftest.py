"""Shared benchmark fixtures.

Benchmarks are sized by ``REPRO_SCALE`` (default 1.0 keeps the whole
suite in minutes).  Expensive shared artefacts — the per-TSC keystream
distributions — are generated once per session and cached on disk under
``.repro-cache/`` so repeated benchmark runs are fast.
"""

from __future__ import annotations

import warnings
from pathlib import Path

import pytest

from repro.config import get_config
from repro.errors import DatasetError
from repro.tkip import PerTscDistributions, default_tsc_space, generate_per_tsc

CACHE_DIR = Path(__file__).resolve().parent.parent / ".repro-cache"


@pytest.fixture(scope="session")
def config():
    return get_config()


@pytest.fixture(scope="session")
def per_tsc_dists(config) -> PerTscDistributions:
    """Per-TSC keystream distributions for the TKIP benchmarks (§5.1).

    Paper: 65536 TSC pairs x 2^32 keys (10 CPU-years).  Here: a scaled
    TSC subspace, cached across benchmark runs; a cache file that fails
    to load is regenerated with a warning.
    """
    num_tsc = config.scaled(16, maximum=256)
    keys_per_tsc = config.scaled(1 << 13, maximum=1 << 18)
    length = 68
    cache = CACHE_DIR / f"per_tsc_{config.seed}_{num_tsc}_{keys_per_tsc}_{length}.npz"
    if cache.exists():
        try:
            return PerTscDistributions.load(cache)
        except DatasetError as exc:
            # A torn cache file (an interrupted run) is a miss: regenerate
            # and overwrite it rather than fail every TKIP benchmark.
            warnings.warn(f"regenerating {cache}: {exc}", RuntimeWarning)
    dists = generate_per_tsc(
        config, default_tsc_space(num_tsc), keys_per_tsc, length=length
    )
    CACHE_DIR.mkdir(exist_ok=True)
    dists.save(cache)
    return dists


def pytest_configure(config):
    config.addinivalue_line("markers", "figure: reproduces a paper figure")
    config.addinivalue_line("markers", "table: reproduces a paper table")
