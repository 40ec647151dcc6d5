"""Shard orchestration for dataset generation (paper §3.2).

The paper used ~80 desktop machines plus three servers, each worker
generating at most 2**30 keystreams before its partial counters were
merged.  This module is the single-machine analogue: one process walks a
shard list inline and counts every shard into one counter block.

The shard list is deterministic for a given ``num_keys`` (one shard per
``worker_chunk`` keys), and every shard derives its keys from its own
label, so the counters depend on neither thread count nor backend.  With
the compiled backend (:mod:`repro.rc4._native`) each fused kernel call
fans the shard's keys across POSIX threads inside C (``threads``
parameter, default ``REPRO_NATIVE_THREADS`` or ``os.cpu_count()``) and
merges the per-thread private counter blocks in C; without it the numpy
kernels count on the calling thread.  ``tests/test_dataset_equivalence.py``
checks every dataset kind across thread counts, the SIMD tier and the
numpy fallback, bit for bit.

This module is the *generation* layer.  Consumers normally go through
:meth:`repro.api.Session.dataset`, which adds memoisation (in-memory,
plus the on-disk store keyed by spec + seed) and is the path the
experiment registry, the CLI, and the benchmarks share.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Literal

import numpy as np

from ..config import ReproConfig
from ..errors import DatasetError
from ..rc4.keygen import derive_keys
from . import generate as kernels

KindName = Literal["single", "consec", "pairs", "equality", "longterm"]

#: Most keys per shard, and so per kernel invocation; sized so the batch
#: RC4 state stays cache-resident.
WORKER_CHUNK = 1 << 14


@dataclass(frozen=True)
class DatasetSpec:
    """Declarative description of a counting job.

    Attributes:
        kind: which kernel to run.
        num_keys: total RC4 keys (for ``longterm``: number of keys, each
            contributing ``stream_len`` digraphs).
        positions: number of leading positions (single/consec kinds).
        pairs: position pairs (pairs/equality kinds).
        stream_len: digraphs per key (longterm kind).
        drop: initial bytes to drop (longterm kind; paper uses 1023).
        gap: digraph gap (longterm kind; 0 = FM digraphs, 1 = w*256 pairs).
        keylen: RC4 key length in bytes.
        label: seed label so distinct datasets use independent keys.
    """

    kind: KindName
    num_keys: int
    positions: int = 0
    pairs: tuple[tuple[int, int], ...] = field(default_factory=tuple)
    stream_len: int = 0
    drop: int = 1023
    gap: int = 0
    keylen: int = 16
    label: str = "dataset"

    def validate(self) -> None:
        if self.num_keys <= 0:
            raise DatasetError(f"num_keys must be positive, got {self.num_keys}")
        if self.kind in ("single", "consec") and self.positions <= 0:
            raise DatasetError(f"{self.kind} dataset needs positions > 0")
        if self.kind in ("pairs", "equality") and not self.pairs:
            raise DatasetError(f"{self.kind} dataset needs position pairs")
        if self.kind == "longterm" and self.stream_len <= 0:
            raise DatasetError("longterm dataset needs stream_len > 0")


def _counter_shape(spec: DatasetSpec) -> tuple[int, ...]:
    if spec.kind == "single":
        return (spec.positions, 256)
    if spec.kind == "consec":
        return (spec.positions, 256, 256)
    if spec.kind == "pairs":
        return (len(spec.pairs), 256, 256)
    if spec.kind == "equality":
        return (len(spec.pairs), 2)
    if spec.kind == "longterm":
        return (256, 256, 256)
    raise DatasetError(f"unknown dataset kind {spec.kind!r}")


def _accumulate(
    spec: DatasetSpec,
    keys: np.ndarray,
    out: np.ndarray,
    threads: int | None = 1,
    simd: bool | None = None,
) -> None:
    if spec.kind == "single":
        kernels.single_byte_counts(
            keys, spec.positions, out=out, threads=threads, simd=simd
        )
    elif spec.kind == "consec":
        kernels.consec_digraph_counts(
            keys, spec.positions, out=out, threads=threads, simd=simd
        )
    elif spec.kind == "pairs":
        kernels.pair_counts(
            keys, list(spec.pairs), out=out, threads=threads, simd=simd
        )
    elif spec.kind == "equality":
        kernels.equality_counts(
            keys, list(spec.pairs), out=out, threads=threads, simd=simd
        )
    elif spec.kind == "longterm":
        kernels.longterm_digraph_counts(
            keys,
            spec.stream_len,
            drop=spec.drop,
            gap=spec.gap,
            out=out,
            threads=threads,
            simd=simd,
        )
    else:
        raise DatasetError(f"unknown dataset kind {spec.kind!r}")


def generate_dataset(
    spec: DatasetSpec,
    config: ReproConfig,
    *,
    worker_chunk: int = WORKER_CHUNK,
    threads: int | None = None,
) -> np.ndarray:
    """Generate a dataset by counting its shards in turn.

    Args:
        spec: the counting job.
        config: run configuration (seeding + scale already applied by the
            caller to ``spec.num_keys``).
        worker_chunk: most keys per shard / kernel invocation.  The
            default keeps the batch RC4 state cache-resident; tests shrink
            it to exercise multi-shard accumulation cheaply.  The value
            participates in key derivation (shard labels), so two runs
            agree only when it matches.
        threads: native kernel thread count; ``None`` =
            ``REPRO_NATIVE_THREADS`` or ``os.cpu_count()``, 1 = fully
            serial.  Counters are bit-identical for every value.
    """
    spec.validate()
    if worker_chunk < 1:
        raise DatasetError(f"worker_chunk must be positive, got {worker_chunk}")
    # One shard per cache-sized chunk, each at most worker_chunk keys and
    # so one kernel call; the "part0" suffix is part of every shard's key
    # derivation.
    num_shards = -(-spec.num_keys // worker_chunk)
    base, extra = divmod(spec.num_keys, num_shards)
    total = np.zeros(_counter_shape(spec), dtype=np.int64)
    for index in range(num_shards):
        keys = derive_keys(
            config,
            f"{spec.label}/shard{index}/part0",
            base + (1 if index < extra else 0),
            keylen=spec.keylen,
        )
        _accumulate(spec, keys, total, threads=threads, simd=config.native_simd)
    return total
