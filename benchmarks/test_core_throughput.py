"""Core primitive throughput, including the eq 15 vs eq 13 ablation.

Paper §4.1 claims the sparse likelihood optimisation cuts the per-
position cost from ~2^32 to ~2^19 operations for the Fluhrer-McGrew
model; this benchmark measures the primitives that dominate every
experiment in the repository.
"""

import numpy as np
import pytest

from repro.biases import fm_digraph_distribution
from repro.biases.fluhrer_mcgrew import fm_biased_cells
from repro.core import (
    algorithm1,
    algorithm2,
    digraph_log_likelihoods,
    digraph_log_likelihoods_dense,
    single_byte_log_likelihoods,
)
from repro.rc4 import batch_keystream
from repro.tls import COOKIE_CHARSET


@pytest.fixture(scope="module")
def rng():
    return np.random.default_rng(2718)


def test_batch_rc4_throughput(benchmark, rng):
    """Keys/second for 64-byte keystreams (the statistics workhorse).

    Public API with default knobs: on the native backend this is the
    AVX2 PRGA (scalar without AVX2) fanned across all cores."""
    keys = rng.integers(0, 256, size=(1 << 13, 16), dtype=np.uint8)
    benchmark.extra_info["keys"] = 1 << 13
    result = benchmark(lambda: batch_keystream(keys, 64))
    assert result.shape == (1 << 13, 64)


def _native_or_skip():
    from repro.rc4 import _native

    if not _native.available():
        pytest.skip("native backend unavailable (no C compiler?)")
    return _native


def test_batch_rc4_prga_scalar_1t(benchmark, rng):
    """Ablation: one thread, scalar per-key PRGA (the PR-1 kernel)."""
    _native = _native_or_skip()
    keys = rng.integers(0, 256, size=(1 << 13, 16), dtype=np.uint8)
    benchmark.extra_info["keys"] = 1 << 13
    result = benchmark(
        lambda: _native.batch_keystream(keys, 64, threads=1, simd=False)
    )
    assert result.shape == (1 << 13, 64)


def test_batch_rc4_prga_simd_1t(benchmark, rng):
    """Ablation: one thread, AVX2 wide PRGA — 32 transposed lane-major
    states per loop with gathered S-box reads.  Together with the scalar
    ablation this isolates the full dispatch-tier chain on one core
    (skipped on non-AVX2 hardware)."""
    _native = _native_or_skip()
    if not _native.simd_available():
        pytest.skip("SIMD tier unavailable (no AVX2)")
    keys = rng.integers(0, 256, size=(1 << 13, 16), dtype=np.uint8)
    benchmark.extra_info["keys"] = 1 << 13
    result = benchmark(
        lambda: _native.batch_keystream(keys, 64, threads=1, simd=True)
    )
    assert result.shape == (1 << 13, 64)


def test_single_byte_likelihood_throughput(benchmark, rng):
    counts = rng.integers(0, 1000, 256).astype(np.float64)
    dist = np.full(256, 1 / 256)
    dist[0] *= 2
    dist /= dist.sum()
    out = benchmark(lambda: single_byte_log_likelihoods(counts, dist))
    assert out.shape == (256,)


def test_digraph_likelihood_sparse_eq15(benchmark, rng):
    """The optimised eq 15 path (~2^19 operations for FM)."""
    cells = fm_biased_cells(7)
    mass = sum(p for _, p in cells)
    uniform_p = (1.0 - mass) / (65536 - len(cells))
    counts = rng.integers(0, 100, size=(256, 256)).astype(np.float64)
    out = benchmark(
        lambda: digraph_log_likelihoods(counts, cells, uniform_p)
    )
    assert out.shape == (256, 256)


def test_digraph_likelihood_dense_eq13_subset(benchmark, rng):
    """The naive eq 13 path, restricted to 64 candidate pairs (the full
    2^16 x 2^16 sweep is the paper's 2^32-operation strawman)."""
    dist = fm_digraph_distribution(7)
    counts = rng.integers(0, 100, size=(256, 256)).astype(np.float64)
    candidates = [(a, b) for a in range(8) for b in range(8)]
    out = benchmark(
        lambda: digraph_log_likelihoods_dense(counts, dist, candidates=candidates)
    )
    assert len(out) == 64
    # The ablation: per-candidate, the dense path does 2^16 multiplies
    # where the sparse path does ~|Ic| lookups.
    assert len(fm_biased_cells(7)) <= 8


def test_algorithm1_throughput(benchmark, rng):
    lam = rng.normal(size=(12, 256))
    cands, scores = benchmark(lambda: algorithm1(lam, 1 << 10))
    assert len(cands) == 1 << 10


def test_algorithm2_throughput(benchmark, rng):
    lam = rng.normal(size=(17, 256, 256))
    result = benchmark.pedantic(
        lambda: algorithm2(lam, 0x3D, 0x3B, 1 << 10, charset=COOKIE_CHARSET),
        rounds=2,
        iterations=1,
    )
    assert len(result) == 1 << 10
