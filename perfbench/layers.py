"""The repository's layers as the benchmark sees them.

:data:`SHIMS` names, for each layer, the public functions the pipeline
calls and where the caller looks each one up.  :func:`rep_metrics`
turns the spans and counters of one traced repetition into the
per-layer metrics of ``BENCHMARK.json``.

A metric whose spans never opened reads 0 and its span is listed as
absent: either the workload bypasses that layer, or a later change
removed or renamed the entry point.  Byte counts derived from array
sizes rather than measured I/O are listed in :data:`COMPUTED`, which
the record repeats as ``computed_bytes``.
"""

from __future__ import annotations

from tracer import Shim, Span, median, self_times


def _keystream(args, kwargs, result):
    if result is None:
        return {}
    return {"rc4.keys": len(args[0]), "rc4.keystream_bytes": result.nbytes}


def _https_cells(args, kwargs, result):
    # ingest_keystream_columns(stats_list, columns, template, offset=...):
    # every request fills one cell per FM transition and per ABSAB row.
    stats_list, columns = args[0], args[1]
    stats = stats_list[0]
    per_request = stats.fm_counts.shape[0] + stats.absab_matrix.shape[0]
    return {"capture.cells_counted": columns.shape[1] * per_request}


def _tkip_cells(args, kwargs, result):
    # CaptureSet.ingest_rows(self, tsc, rows): one cell per row and position.
    capture, rows = args[0], args[2]
    return {"capture.cells_counted": rows.shape[0] * len(capture.positions)}


def _oracle(args, kwargs, result):
    oracle = args[0]
    pruner = kwargs.get("pruner")
    return {
        "oracle.attempts": oracle.attempts,
        "oracle.pruned": pruner.pruned if pruner is not None else 0,
    }


SHIMS: list[Shim] = [
    # rc4: keystream blocks for both capture sources.
    Shim("repro.capture.https", "batch_keystream", "rc4.batch_keystream",
         "rc4", counters=_keystream),
    Shim("repro.capture.tkip", "batch_keystream", "rc4.batch_keystream",
         "rc4", counters=_keystream),
    # datasets: the fused generate-and-count kernel behind per-TSC tables.
    Shim("repro.tkip.per_tsc", "single_byte_counts",
         "datasets.single_byte_counts", "datasets",
         counters=lambda a, k, r: {"datasets.keys_counted": len(a[0])}),
    # capture: batches and the counting kernels they call.
    Shim("repro.capture.https", "HttpsCaptureSource.capture_batch",
         "capture.batch", "capture"),
    Shim("repro.capture.tkip", "TkipCaptureSource.capture_batch",
         "capture.batch", "capture"),
    Shim("repro.capture.https", "ingest_keystream_columns", "capture.count",
         "capture", counters=_https_cells),
    Shim("repro.tkip.injection", "CaptureSet.ingest_rows", "capture.count",
         "capture", counters=_tkip_cells),
    # tls.attack: eq 22-25 likelihoods.
    Shim("repro.tls.attack", "transition_log_likelihoods", "tls.likelihoods",
         "tls.attack"),
    # core.candidates: Algorithm 2 (one span per step) and the lazy walk.
    Shim("repro.tls.attack", "algorithm2", "candidates.algorithm2",
         "core.candidates", observe="candidates", checks=True,
         counters=lambda a, k, r: {} if r is None else {
             "candidates.emitted": len(r)}),
    Shim("repro.core.candidates.viterbi", "_extend_topk",
         "candidates.algorithm2.step", "core.candidates"),
    Shim("repro.tkip.attack", "lazy_candidate_blocks", "candidates.lazy",
         "core.candidates", generator=True,
         counters=lambda a, k, r: {"candidates.lazy_yielded": len(r[0])}),
    # tls.bruteforce: the oracle walk down the candidate matrix.
    Shim("repro.tls.bruteforce", "BruteForceOracle.search_matrix",
         "oracle.search", "tls.bruteforce", counters=_oracle, checks=True),
    # tkip: likelihoods, CRC walk, Michael inversion.
    Shim("repro.tkip.attack", "position_log_likelihoods",
         "tkip.position_loglik", "tkip"),
    Shim("repro.tkip.attack", "decrypt_mic_icv", "tkip.crc_walk", "tkip"),
    Shim("repro.tkip.attack", "crc32_rows", "tkip.crc32_rows", "tkip",
         checks=True,
         counters=lambda a, k, r: {"tkip.crc_rows": len(a[1])}),
    Shim("repro.tkip.attack", "recover_key", "tkip.michael", "tkip"),
    Shim("repro.tkip.attack", "michael", "tkip.michael", "tkip"),
]

#: Per-layer time metrics: the summed self time of these span names.
SELF_TIME = {
    "rc4.keystream_s": ("rc4.batch_keystream",),
    "datasets.single_byte_counts_s": ("datasets.single_byte_counts",),
    "capture.count_s": ("capture.count",),
    "capture.checkpoint_s": ("capture.checkpoint",),
    "simulate.sampled_statistics_s": ("simulate.sampled_statistics",),
    "tls.likelihoods_s": ("tls.likelihoods",),
    "candidates.algorithm2_s": (
        "candidates.algorithm2", "candidates.algorithm2.step"),
    "candidates.lazy_s": ("candidates.lazy",),
    "oracle.search_s": ("oracle.search",),
    "tkip.per_tsc_s": ("tkip.per_tsc",),
    "tkip.position_loglik_s": ("tkip.position_loglik",),
    "tkip.crc_walk_s": ("tkip.crc_walk", "tkip.crc32_rows"),
    "tkip.michael_s": ("tkip.michael",),
}

#: Per-layer time metrics: the median duration of one call.
PER_CALL = {
    "capture.batch_s": "capture.batch",
    "candidates.algorithm2_step_s": "candidates.algorithm2.step",
}

#: Work counters reported as they were counted.
COUNTS = (
    "rc4.keys",
    "rc4.keystream_bytes",
    "datasets.keys_counted",
    "capture.cells_counted",
    "capture.counter_bytes",
    "capture.checkpoint_bytes_in",
    "capture.checkpoint_bytes_out",
    "simulate.cells_sampled",
    "candidates.emitted",
    "candidates.lazy_yielded",
    "oracle.attempts",
    "oracle.pruned",
    "tkip.crc_rows",
)

#: Byte counts derived from array sizes rather than measured I/O.
COMPUTED = (
    "rc4.keystream_bytes",
    "capture.counter_bytes",
    "capture.checkpoint_bytes_in",
)


def rep_layers(spans: list[Span]) -> dict[str, float]:
    """Self time per layer for one traced repetition."""
    totals: dict[str, float] = {}
    for span, own in zip(spans, self_times(spans)):
        totals[span.layer] = totals.get(span.layer, 0.0) + own
    return totals


def rep_metrics(spans: list[Span], counters: dict[str, int]) -> dict[str, float]:
    """Per-layer metrics of one traced repetition."""
    own = self_times(spans)
    by_name: dict[str, float] = {}
    durations: dict[str, list[float]] = {}
    for span, self_s in zip(spans, own):
        by_name[span.name] = by_name.get(span.name, 0.0) + self_s
        durations.setdefault(span.name, []).append(span.duration)
    out: dict[str, float] = {
        metric: sum(by_name.get(name, 0.0) for name in names)
        for metric, names in SELF_TIME.items()
    }
    for metric, name in PER_CALL.items():
        out[metric] = median(durations.get(name, []))
    for name in COUNTS:
        out[name] = float(counters.get(name, 0))
    likelihood = [s.rss_hwm_mib for s in spans if s.name == "tls.likelihoods"]
    out["tls.likelihoods_rss_mib"] = max(likelihood, default=0.0)
    out["rc4.keys_per_s"] = _rate(out["rc4.keys"], out["rc4.keystream_s"])
    out["capture.cells_per_s"] = _rate(
        out["capture.cells_counted"], out["capture.count_s"]
    )
    return out


def absent_spans(spans: list[Span]) -> list[str]:
    """Span names no traced call opened in this repetition."""
    seen = {s.name for s in spans}
    names = {n for names in SELF_TIME.values() for n in names}
    names.update(PER_CALL.values())
    return sorted(names - seen)


def _rate(work: float, seconds: float) -> float:
    return work / seconds if seconds > 0 else 0.0
