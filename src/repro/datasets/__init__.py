"""Keystream-statistics datasets (paper §3.2) at configurable scale.

The paper generated three main datasets on a distributed cluster:

- ``first16``: Pr[Z_a = x & Z_b = y] for 1 <= a <= 16, 1 <= b <= 256
  (2**44 keys, ~9 CPU-years);
- ``consec512``: Pr[Z_r = x & Z_{r+1} = y] for 1 <= r <= 512
  (2**45 keys, ~16 CPU-years);
- a long-term variant estimating digraphs at positions 256w + a after
  dropping 1023 initial bytes (2**12 keys x 2**40 bytes, ~8 CPU-years).

This package reimplements the counting semantics exactly — per-shard
partial counts accumulated into one dataset — with fused
generate-and-count kernels (compiled C fanned across threads when
available, numpy otherwise), substituting for the paper's 80-machine
setup.  Sample counts scale with
:class:`repro.config.ReproConfig`; see ROADMAP.md "Performance
architecture" for the measured throughput of each layer.
"""

from .generate import (
    bytewise_row_counts,
    consec_digraph_counts,
    digraph_row_counts,
    equality_counts,
    longterm_digraph_counts,
    pair_counts,
    single_byte_counts,
)
from .manager import DatasetSpec, generate_dataset
from .store import (
    dataset_cache_path,
    load_dataset,
    load_statistics,
    save_dataset,
    save_statistics,
)

__all__ = [
    "DatasetSpec",
    "bytewise_row_counts",
    "consec_digraph_counts",
    "dataset_cache_path",
    "digraph_row_counts",
    "equality_counts",
    "generate_dataset",
    "load_dataset",
    "load_statistics",
    "longterm_digraph_counts",
    "pair_counts",
    "save_dataset",
    "save_statistics",
    "single_byte_counts",
]
