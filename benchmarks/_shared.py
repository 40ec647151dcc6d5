"""Shared helpers for the benchmark harness (not a test module).

Keystream statistics run through the library's Session facade
(:meth:`repro.api.Session.dataset` -> fused generate-and-count kernels
accumulated shard by shard) — the same orchestration path every
other consumer uses, so benchmark numbers measure what users get.  Each
call builds a fresh session (no disk cache), so repeated benchmark
rounds keep regenerating rather than timing a cache hit.  Only the
statistics post-processing (z-scores, pooled LLR) lives here.
"""

from __future__ import annotations

import numpy as np

from repro.api import Session
from repro.config import ReproConfig
from repro.datasets import DatasetSpec


def parallel_fm_matches(
    config: ReproConfig,
    label: str,
    total_keys: int,
    stream_len: int,
    drop: int,
    targets: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Count per-rule digraph matches over ``total_keys`` keystreams.

    ``targets`` is int32 of shape ``(num_rules, stream_len)``: per rule,
    the target digraph code ``(first << 8) | second`` for each stream row,
    with -1 marking rows where the rule does not apply.  Both the target
    cell and applicability of Fluhrer–McGrew rules depend only on the PRGA
    counter ``i = (drop + row + 1) mod 256``, so the counts are read off
    the engine's counter-binned long-term dataset: ``matches[rule] =
    sum_i counts[i, first_i, second_i]`` over the rule's applicable ``i``
    values.

    Returns per-rule (match counts, trials).
    """
    num_rules, target_len = targets.shape
    if target_len != stream_len:
        raise ValueError(
            f"targets cover {target_len} rows, expected stream_len={stream_len}"
        )
    spec = DatasetSpec(
        kind="longterm",
        num_keys=total_keys,
        stream_len=stream_len,
        drop=drop,
        gap=0,
        label=label,
    )
    counts = Session(config).dataset(spec)

    i_of_row = (drop + np.arange(stream_len) + 1) % 256
    matches = np.zeros(num_rules, dtype=np.int64)
    trials = np.zeros(num_rules, dtype=np.int64)
    for rule in range(num_rules):
        applicable = targets[rule] >= 0
        trials[rule] = int(applicable.sum()) * total_keys
        for i in np.unique(i_of_row[applicable]):
            rows_i = applicable & (i_of_row == i)
            if int(rows_i.sum()) != int((i_of_row == i).sum()):
                raise ValueError(
                    f"rule {rule} applies to only some rows with counter "
                    f"i={i}; per-counter aggregation needs i-determined rules"
                )
            codes = np.unique(targets[rule][rows_i])
            if codes.size != 1:
                raise ValueError(
                    f"rule {rule} has inconsistent targets for counter i={i}"
                )
            code = int(codes[0])
            # counts[i] aggregates every stream row with this counter
            # value, which is exactly the rule's applicable-row set.
            matches[rule] += int(counts[i, code >> 8, code & 0xFF])
    return matches, trials


def z_score(matches: int, trials: int, p_null: float) -> float:
    """Normal-approximation z of observing ``matches`` under ``p_null``."""
    if trials == 0:
        return 0.0
    expected = trials * p_null
    return float((matches - expected) / np.sqrt(expected * (1.0 - p_null)))


def pooled_llr_z(
    matches: np.ndarray,
    trials: np.ndarray,
    p_alt: np.ndarray,
    p_null: np.ndarray,
) -> float:
    """Pooled evidence that per-rule match counts follow p_alt over p_null.

    Sums per-rule binomial log-likelihood ratios and normalises by the
    null-model standard deviation — the scalar the Table 1 benchmark
    reports ("data prefers the FM model by k sigma").
    """
    matches = np.asarray(matches, dtype=np.float64)
    trials = np.asarray(trials, dtype=np.float64)
    p_alt = np.asarray(p_alt, dtype=np.float64)
    p_null = np.asarray(p_null, dtype=np.float64)
    log_ratio_hit = np.log(p_alt / p_null)
    log_ratio_miss = np.log((1 - p_alt) / (1 - p_null))
    llr = float(
        (matches * log_ratio_hit + (trials - matches) * log_ratio_miss).sum()
    )
    mean_null = float(
        (trials * (p_null * log_ratio_hit + (1 - p_null) * log_ratio_miss)).sum()
    )
    var_null = float(
        (
            trials
            * p_null
            * (1 - p_null)
            * (log_ratio_hit - log_ratio_miss) ** 2
        ).sum()
    )
    if var_null <= 0:
        return 0.0
    return (llr - mean_null) / np.sqrt(var_null)
