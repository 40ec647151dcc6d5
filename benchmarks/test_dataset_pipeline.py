"""Statistics-pipeline throughput: counting kernels and dataset wall-clock.

The paper's bias tables came from a cluster generating 2**44+ keystreams
(§3.2); on one machine the reproduction budget is set entirely by the
throughput of ``BatchRC4`` -> counting kernel -> shard merge.  These
benchmarks measure each stage plus the end-to-end ``generate_dataset``
wall-clock, and are the inputs to ``run_benchmarks.py`` /
``BENCH_<date>.json`` — the recorded perf trajectory of the repo.

Every benchmark stores its work size in ``benchmark.extra_info`` so the
runner can derive keys/sec and counts/sec rates.
"""

import pytest

from repro.datasets import DatasetSpec, generate_dataset
from repro.datasets.generate import (
    consec_digraph_counts,
    longterm_digraph_counts,
    single_byte_counts,
)
from repro.rc4.keygen import derive_keys

NUM_KEYS = 1 << 13
LONGTERM_STREAM = 128
LONGTERM_DROP = 1023


@pytest.fixture(scope="module")
def keys(config):
    return derive_keys(config, "pipeline-bench", NUM_KEYS)


def test_single_byte_kernel(benchmark, keys):
    """counts/sec for the single-byte kernel (Fig. 4/6 datasets)."""
    positions = 256
    benchmark.extra_info["keys"] = NUM_KEYS
    benchmark.extra_info["counts"] = NUM_KEYS * positions
    out = benchmark(lambda: single_byte_counts(keys, positions))
    assert out.sum() == NUM_KEYS * positions


def test_consec_kernel(benchmark, keys):
    """counts/sec for the consecutive-digraph kernel (Table 2 datasets)."""
    positions = 64
    benchmark.extra_info["keys"] = NUM_KEYS
    benchmark.extra_info["counts"] = NUM_KEYS * positions
    out = benchmark(lambda: consec_digraph_counts(keys, positions))
    assert out.sum() == NUM_KEYS * positions


def test_longterm_kernel(benchmark, keys):
    """counts/sec for the long-term kernel incl. the 1023-byte drop (§3.4)."""
    benchmark.extra_info["keys"] = NUM_KEYS
    benchmark.extra_info["counts"] = NUM_KEYS * LONGTERM_STREAM
    out = benchmark.pedantic(
        lambda: longterm_digraph_counts(
            keys, LONGTERM_STREAM, drop=LONGTERM_DROP, gap=0
        ),
        rounds=3,
        iterations=1,
    )
    assert out.sum() == NUM_KEYS * LONGTERM_STREAM


def test_longterm_dataset_wallclock(benchmark, config):
    """End-to-end ``generate_dataset`` wall-clock for a long-term job.

    This is the acceptance metric for the fused-engine PR: generation,
    counting, and shard reduction in one number.
    """
    spec = DatasetSpec(
        kind="longterm",
        num_keys=1 << 14,
        stream_len=LONGTERM_STREAM,
        drop=LONGTERM_DROP,
        gap=0,
        label="bench-longterm",
    )
    benchmark.extra_info["keys"] = spec.num_keys
    benchmark.extra_info["counts"] = spec.num_keys * spec.stream_len
    counts = benchmark.pedantic(
        lambda: generate_dataset(spec, config),
        rounds=2,
        iterations=1,
    )
    assert counts.sum() == spec.num_keys * spec.stream_len


def test_longterm_dataset_singlethread(benchmark, config):
    """The same long-term job pinned to one thread and the scalar kernels'
    defaults left alone — the PR-1 single-thread native path, i.e. the
    denominator of the threaded engine's speedup claim."""
    spec = DatasetSpec(
        kind="longterm",
        num_keys=1 << 14,
        stream_len=LONGTERM_STREAM,
        drop=LONGTERM_DROP,
        gap=0,
        label="bench-longterm",
    )
    benchmark.extra_info["keys"] = spec.num_keys
    benchmark.extra_info["counts"] = spec.num_keys * spec.stream_len
    counts = benchmark.pedantic(
        lambda: generate_dataset(spec, config, threads=1),
        rounds=2,
        iterations=1,
    )
    assert counts.sum() == spec.num_keys * spec.stream_len


def test_consec_dataset_wallclock(benchmark, config):
    """End-to-end ``generate_dataset`` wall-clock for a short-term job."""
    spec = DatasetSpec(
        kind="consec",
        num_keys=1 << 14,
        positions=64,
        label="bench-consec",
    )
    benchmark.extra_info["keys"] = spec.num_keys
    benchmark.extra_info["counts"] = spec.num_keys * spec.positions
    counts = benchmark.pedantic(
        lambda: generate_dataset(spec, config),
        rounds=2,
        iterations=1,
    )
    assert counts.sum() == spec.num_keys * spec.positions
