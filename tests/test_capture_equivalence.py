"""Bit-exactness of the batched capture engine (repro.capture).

The per-request reference paths — ``CookieStatistics.ingest_fragment``
for §6 and ``CaptureSet.add_frame`` for §5 — stay in the tree as
oracles: every test here rebuilds the engine's ciphertexts with the
:mod:`repro.rc4.reference` Python loops, feeds them through the
reference path one request/frame at a time, and asserts cell-for-cell
equality with the vectorized engine.  Checkpoint/resume and shard/merge
must reproduce uninterrupted counters exactly, and the
``SufficientStatistics`` algebra (associative/commutative merge,
bit-identical JSON/NPZ round-trips) is pinned with hypothesis.
"""

import dataclasses
import doctest
import json
import struct
import tempfile
import tracemalloc
import zipfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.capture import (
    HttpsCaptureSource,
    TkipCaptureSource,
    VictimSet,
    ingest_keystream_columns,
    merge_shards,
    run_capture,
    shard_batches,
)
from repro.capture.https import keystream_window
from repro.config import ReproConfig
from repro.datasets.generate import templated_digraph_counts
from repro.errors import (
    AttackError,
    CaptureError,
    DatasetError,
    ExperimentParamError,
)
from repro.rc4 import _native
from repro.rc4.keygen import derive_keys
from repro.rc4.reference import rc4_keystream
from repro.simulate import HttpsAttackSimulation
from repro.tkip.frames import TkipFrame
from repro.tkip.injection import CaptureSet
from repro.tkip.keymix import simplified_key_batch
from repro.tls.attack import CookieLayout, CookieStatistics
from repro.utils.serialization import canonical_json


@pytest.fixture(params=["numpy", "native"])
def backend(request, monkeypatch):
    """Run the test body under each engine backend."""
    if request.param == "native":
        if not _native.available():
            pytest.skip("native backend unavailable (no C compiler?)")
    else:
        monkeypatch.setattr(_native, "available", lambda: False)
    return request.param


@pytest.fixture
def https_sim(config):
    return HttpsAttackSimulation(config, cookie_len=2, max_gap=8)


def _https_source(sim, config, **overrides):
    kwargs = dict(
        config=config,
        layout=sim.layout,
        plaintext=sim.campaign.request_plaintext(),
        num_requests=202,
        batch_size=64,
        reconnect_every=1,
        max_gap=8,
        label="eq-https",
    )
    kwargs.update(overrides)
    return HttpsCaptureSource(**kwargs)


def _https_reference(source):
    """Per-request oracle: reference RC4 + ingest_fragment, same keys."""
    stats = CookieStatistics.empty(source.layout, max_gap=source.max_gap)
    plaintext = source.plaintext
    stride = source.layout.request_len + source.record_overhead
    per_conn = source.reconnect_every
    for index in range(source.num_batches):
        first = index * source.batch_size
        count = min(source.batch_size, source.num_requests - first)
        connections = -(-count // per_conn)
        keys = derive_keys(
            source.config, f"{source.label}/batch{index}", connections
        )
        length = (per_conn - 1) * stride + source.layout.request_len
        for c in range(connections):
            stream = rc4_keystream(bytes(keys[c]), length)
            for q in range(per_conn):
                if c * per_conn + q >= count:
                    break
                window = stream[q * stride : q * stride + len(plaintext)]
                fragment = bytes(s ^ p for s, p in zip(window, plaintext))
                stats.ingest_fragment(fragment, offset=1 + q * stride)
    return stats


def _assert_cookie_stats_equal(a, b):
    assert a.num_requests == b.num_requests
    assert np.array_equal(a.fm_counts, b.fm_counts)
    assert list(a.absab_counts) == list(b.absab_counts)
    for key in a.absab_counts:
        assert np.array_equal(a.absab_counts[key], b.absab_counts[key]), key


class TestHttpsCaptureEquivalence:
    """Batched §6 capture == per-request ingest_fragment, cell for cell."""

    def test_fresh_connections(self, config, https_sim, backend):
        source = _https_source(https_sim, config)
        _assert_cookie_stats_equal(run_capture(source), _https_reference(source))

    def test_record_churn_with_partial_batches(self, config, https_sim, backend):
        # 202 requests, 4 per connection, batch 64: the final batch holds
        # 10 requests and its last connection only 2 — every edge at once.
        source = _https_source(https_sim, config, reconnect_every=4)
        _assert_cookie_stats_equal(run_capture(source), _https_reference(source))

    def test_absab_matrix_views_stay_coherent(self, config, https_sim):
        """Dict vectors are views of the backing matrix: per-request and
        batched ingestion update the same memory."""
        stats = CookieStatistics.empty(https_sim.layout, max_gap=4)
        key = next(iter(stats.absab_counts))
        stats.absab_counts[key][7] += 3
        row = list(stats.absab_counts).index(key)
        assert stats.absab_matrix[row, 7] == 3

    def test_rejects_misaligned_stride(self, config, https_sim):
        with pytest.raises(CaptureError):
            _https_source(
                https_sim, config, reconnect_every=4, record_overhead=19,
                batch_size=64,
            )

    def test_rejects_batch_not_multiple_of_reconnect(self, config, https_sim):
        with pytest.raises(CaptureError):
            _https_source(https_sim, config, reconnect_every=3, batch_size=64)


def _wide_gap_source(config, *, max_gap, reconnect_every, threads):
    """A compact request whose suffix reaches ABSAB gaps up to 128.

    134 request bytes plus 122 record-overhead bytes make a 256-byte
    stride, so multi-request connections stay record-aligned (§6.3).
    """
    rng = np.random.default_rng(max_gap)
    layout = CookieLayout(
        prefix=b"id=", suffix=bytes(rng.integers(1, 256, 130, np.uint8)),
        cookie_len=1,
    )
    return HttpsCaptureSource(
        config=dataclasses.replace(config, native_threads=threads),
        layout=layout,
        plaintext=layout.prefix + b"Q" + layout.suffix,
        num_requests=37,
        batch_size=12,
        reconnect_every=reconnect_every,
        max_gap=max_gap,
        record_overhead=122,
        label="kernel-https",
    )


class TestHttpsKernelMatrix:
    """Native kernel (1-3 threads) and numpy fallback == per-request
    reference across ABSAB gap caps and record churn.  37 requests in
    batches of 12 leave a partial final batch and connection."""

    @pytest.mark.parametrize("reconnect_every", [1, 2])
    @pytest.mark.parametrize("max_gap", [8, 32, 128])
    def test_batched_matches_per_request(
        self, config, engine_threads, max_gap, reconnect_every
    ):
        source = _wide_gap_source(
            config, max_gap=max_gap, reconnect_every=reconnect_every,
            threads=engine_threads,
        )
        stats = run_capture(source)
        assert max(gap for _, gap, _ in stats.absab_counts) == max_gap
        _assert_cookie_stats_equal(stats, _https_reference(source))


_REFERENCES: dict[str, CookieStatistics] = {}


def _cached_reference(source):
    """The per-request reference, once per campaign (threads excluded)."""
    key = source.fingerprint()
    if key not in _REFERENCES:
        _REFERENCES[key] = _https_reference(source)
    return _REFERENCES[key]


def _per_batch(source):
    """Every batch counted on its own, as the perfbench self-test does."""
    stats = source.empty()
    for index in range(source.num_batches):
        source.capture_batch(stats, index)
    return stats


class TestGroupedCapture:
    """A run of batches counted in one kernel call, over only the
    keystream rows the counters read, == the per-batch and per-request
    references, wherever the runs and shards end.  37 requests in
    batches of 12 end on a one-request batch."""

    @pytest.mark.parametrize("checkpoint_every", [1, 3, 16])
    @pytest.mark.parametrize("reconnect_every", [1, 2])
    @pytest.mark.parametrize("max_gap", [8, 32, 128])
    def test_runs_match_references(
        self, config, engine_threads, max_gap, reconnect_every,
        checkpoint_every, tmp_path,
    ):
        source = _wide_gap_source(
            config, max_gap=max_gap, reconnect_every=reconnect_every,
            threads=engine_threads,
        )
        stats = run_capture(
            source, checkpoint_path=tmp_path / "run.npz",
            checkpoint_every=checkpoint_every,
        )
        assert stats.fm_counts.dtype == stats.absab_matrix.dtype == np.uint32
        _assert_cookie_stats_equal(stats, _cached_reference(source))
        _assert_cookie_stats_equal(stats, _per_batch(source))

    def test_column_budget_splits_a_run(self, config, engine_threads, monkeypatch):
        """A run past the column budget is counted in several calls."""
        from repro.capture import https

        source = _wide_gap_source(
            config, max_gap=128, reconnect_every=2, threads=engine_threads
        )
        calls = []
        ingest = https.ingest_keystream_columns

        def counting(stats_list, columns, *args, **kwargs):
            calls.append(columns.shape[1])
            return ingest(stats_list, columns, *args, **kwargs)

        height = source._window.stop - source._window.start
        monkeypatch.setattr(https, "COLUMN_BUDGET", 20 * height)
        monkeypatch.setattr(https, "ingest_keystream_columns", counting)
        stats = run_capture(source)
        assert calls == [12, 12, 13]
        _assert_cookie_stats_equal(stats, _cached_reference(source))

    @pytest.mark.parametrize("checkpoint_every", [1, 3])
    def test_shards_merge_to_references(
        self, config, engine_threads, checkpoint_every
    ):
        source = _wide_gap_source(
            config, max_gap=32, reconnect_every=2, threads=engine_threads
        )
        shards = [
            run_capture(source, batches=r, checkpoint_every=checkpoint_every)
            for r in shard_batches(source.num_batches, 3)
        ]
        _assert_cookie_stats_equal(
            merge_shards(shards), _cached_reference(source)
        )
        # Out-of-order batch lists count the same cells too.
        reordered = run_capture(source, batches=[3, 1, 0, 2])
        _assert_cookie_stats_equal(reordered, _cached_reference(source))

    def test_resume_from_a_mid_run_checkpoint(self, config, tmp_path):
        """A checkpoint after batch 2 resumed at a cadence of 3: the first
        resumed run is batch 2 alone, then the rest."""
        source = _wide_gap_source(
            config, max_gap=128, reconnect_every=2, threads=2
        )
        path = tmp_path / "mid.npz"
        with pytest.raises(RuntimeError):
            run_capture(
                _FailAfter(source, 3), checkpoint_path=path, checkpoint_every=2
            )
        events = []
        resumed = run_capture(
            source, checkpoint_path=path, checkpoint_every=3,
            progress=events.append,
        )
        _assert_cookie_stats_equal(resumed, _cached_reference(source))
        assert [
            (e.batches_done, e.requests_done, e.checkpointed) for e in events
        ] == [(3, 36, True), (4, 37, True)]

    def test_progress_fires_per_batch_in_order(self, config, tmp_path):
        source = _wide_gap_source(
            config, max_gap=8, reconnect_every=1, threads=1
        )
        events = []
        run_capture(
            source, checkpoint_path=tmp_path / "p.npz", checkpoint_every=3,
            progress=events.append,
        )
        assert [
            (e.batches_done, e.requests_done, e.checkpointed) for e in events
        ] == [(1, 12, False), (2, 24, False), (3, 36, True), (4, 37, True)]

    def test_batch_digest_is_computed_once_per_run(
        self, config, tmp_path, monkeypatch
    ):
        from repro.capture import engine

        calls = []
        digest = engine.batch_digest

        def counting(batch_list):
            calls.append(len(batch_list))
            return digest(batch_list)

        monkeypatch.setattr(engine, "batch_digest", counting)
        source = _wide_gap_source(
            config, max_gap=8, reconnect_every=1, threads=1
        )
        path = tmp_path / "digest.npz"
        with pytest.raises(RuntimeError):
            run_capture(
                _FailAfter(source, 3), checkpoint_path=path, checkpoint_every=1
            )
        assert calls == [4]
        run_capture(source, checkpoint_path=path, checkpoint_every=1)
        assert calls == [4, 4]


def _cell_reference(columns, templates, first, partner, counts):
    """Per-cell oracle for templated_digraph_counts (np.add.at)."""
    for template, rows in zip(templates, counts):
        cipher = (columns ^ template[:, None]).astype(np.int64)
        for row, f, p in zip(rows, first, partner):
            hi, lo = cipher[f], cipher[f + 1]
            if p >= 0:
                hi, lo = hi ^ cipher[p], lo ^ cipher[p + 1]
            np.add.at(row, (hi << 8) | lo, 1)


class TestTemplatedDigraphKernel:
    """templated_digraph_counts == a per-cell reference: plain digraph and
    differential rows mixed, partners more than 128 rows away, fewer
    rows than threads, 37 columns (no multiple of any thread count),
    a strided column window, and counters that already hold counts."""

    @pytest.mark.parametrize("rows", [2, 7])
    @pytest.mark.parametrize("victims", [1, 3])
    def test_matches_cell_reference(self, engine_threads, victims, rows):
        rng = np.random.default_rng(10 * rows + victims)
        length, n = 300, 37
        block = rng.integers(0, 256, (length, n + 8), dtype=np.uint8)
        columns = block[:, 3 : 3 + n]
        templates = rng.integers(1, 256, (victims, length), dtype=np.uint8)
        first = rng.integers(0, length - 1, rows)
        partner = rng.integers(0, length - 1, rows)
        partner[::3] = -1
        first[1], partner[1] = 2, 200
        start = rng.integers(0, 5, (victims, rows, 65536), dtype=np.uint32)
        got, expected = start.copy(), start.copy()
        split = rows // 2
        templated_digraph_counts(
            columns, templates, first, partner,
            [(g[:split], g[split:]) for g in got], threads=engine_threads,
        )
        _cell_reference(columns, templates, first, partner, expected)
        assert np.array_equal(got, expected)

    def test_shared_counters_count_twice(self, engine_threads):
        """One statistics object listed twice: every row is counted twice,
        never raced (the native wrapper runs shared rows serially).  A
        constant block sends every increment of a row to one cell, so
        two threads on the same row would lose updates; repeated calls
        make an overlap of the threads all but certain."""
        rng = np.random.default_rng(3)
        rows = np.full((_LAYOUT.request_len, 1 << 17), 7, np.uint8)
        columns = rows[keystream_window(_LAYOUT, 3)]
        templates = rng.integers(0, 256, (2, _LAYOUT.request_len), np.uint8)
        templates[1] = templates[0]
        twice = CookieStatistics.empty(_LAYOUT, max_gap=3)
        once = CookieStatistics.empty(_LAYOUT, max_gap=3)
        for _ in range(8):
            ingest_keystream_columns(
                [twice, twice], columns, templates, threads=engine_threads
            )
            ingest_keystream_columns([once], columns, templates[:1])
        assert np.array_equal(twice.fm_counts, 2 * once.fm_counts)
        assert np.array_equal(twice.absab_matrix, 2 * once.absab_matrix)
        assert twice.num_requests == 2 * once.num_requests

    def test_rejects_rows_outside_the_block(self):
        columns = np.zeros((10, 4), np.uint8)
        templates = np.zeros((1, 10), np.uint8)
        out = [(np.zeros((1, 65536), np.uint32),)]
        for first, partner in [(-1, -1), (9, -1), (0, 9)]:
            with pytest.raises(ValueError, match="outside"):
                templated_digraph_counts(
                    columns, templates, [first], [partner], out
                )

    def test_rejects_strided_counters(self):
        stats = CookieStatistics.empty(_LAYOUT, max_gap=3)
        stats.absab_matrix = np.zeros(
            (stats.absab_matrix.shape[0], 2 * 65536), np.uint32
        )[:, ::2]
        columns = np.zeros((_LAYOUT.request_len, 4), np.uint8)
        columns = columns[keystream_window(_LAYOUT, 3)]
        with pytest.raises(AttackError, match="C-contiguous"):
            ingest_keystream_columns(
                [stats], columns, np.zeros((1, _LAYOUT.request_len), np.uint8)
            )


class TestTkipCaptureEquivalence:
    """Batched §5 capture == per-frame add_frame, cell for cell."""

    def _source(self, config, **overrides):
        rng = np.random.default_rng(5)
        kwargs = dict(
            config=config,
            plaintext=bytes(rng.integers(0, 256, 60, dtype=np.uint8)),
            tsc_values=(5, 1000),
            packets_per_tsc=150,
            batch_size=64,
            label="eq-tkip",
        )
        kwargs.update(overrides)
        return TkipCaptureSource(**kwargs)

    def _reference(self, source):
        capture = CaptureSet(
            positions=source.positions, plaintext_len=len(source.plaintext)
        )
        counter = 0
        for tsc in source.tsc_values:
            for part in range(source._batches_per_tsc):
                first = part * source.batch_size
                count = min(source.batch_size, source.packets_per_tsc - first)
                rng = source.config.rng(source.label, "keys", tsc, part)
                keys = simplified_key_batch(tsc, count, rng)
                for key in keys:
                    stream = rc4_keystream(bytes(key), len(source.plaintext))
                    cipher = bytes(
                        s ^ p for s, p in zip(stream, source.plaintext)
                    )
                    counter += 1
                    # Same low 16 TSC bits, distinct high bits: the
                    # per-frame dedup sees fresh TSCs, the statistics
                    # land in the same per-TSC table.
                    frame = TkipFrame(
                        ta=b"\x00" * 6, da=b"\x01" * 6, sa=b"\x02" * 6,
                        tsc=(counter << 16) | tsc, ciphertext=cipher,
                    )
                    assert capture.add_frame(frame)
        return capture

    @staticmethod
    def _assert_equal(a, b):
        assert a.num_captured == b.num_captured
        assert sorted(a.counts) == sorted(b.counts)
        for tsc in a.counts:
            assert np.array_equal(a.counts[tsc], b.counts[tsc]), tsc

    def test_full_span(self, config, backend):
        source = self._source(config)
        self._assert_equal(run_capture(source), self._reference(source))

    def test_position_subrange(self, config, backend):
        source = self._source(config, positions=range(5, 23))
        self._assert_equal(run_capture(source), self._reference(source))

    @pytest.mark.parametrize(
        "positions", [range(5, 23), range(2, 60, 7)], ids=["subrange", "stepped"]
    )
    def test_victim_set(self, config, backend, positions):
        """Three victims share one keystream histogram per batch; each
        victim's permutation of it equals that victim's own per-frame
        capture and its own bare batched capture.  150 packets per TSC
        in batches of 64 end on a short batch of 22."""
        rng = np.random.default_rng(9)
        plaintexts = tuple(
            bytes(rng.integers(0, 256, 60, dtype=np.uint8)) for _ in range(3)
        )
        ids = ("v0", "v1", "v2")
        group = self._source(
            config, plaintext=None, plaintexts=plaintexts, victim_ids=ids,
            positions=positions,
        )
        assert group.packets_per_tsc % group.batch_size == 22
        stats = run_capture(group)
        for victim_id, plaintext in zip(ids, plaintexts):
            bare = self._source(config, plaintext=plaintext, positions=positions)
            victim = stats.victim(victim_id)
            self._assert_equal(victim, self._reference(bare))
            self._assert_equal(victim, run_capture(bare))

    def test_rejects_positions_outside_plaintext(self, config):
        with pytest.raises(CaptureError):
            self._source(config, positions=range(1, 100))


class TestCaptureForcedDispatchMatrix:
    """Both capture sources under every forced dispatch combination
    (``native_simd`` x thread count) produce counters identical to the
    serial scalar leg — the capture engine must be immune to how the
    keystream generator is dispatched.
    """

    @pytest.fixture(autouse=True)
    def _require_native(self):
        if not _native.available():
            pytest.skip("native backend unavailable (no C compiler?)")

    @staticmethod
    def _dispatch_config(config, *, simd, threads):
        return dataclasses.replace(
            config, native_simd=simd, native_threads=threads
        )

    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("simd", [False, True], ids=["simd0", "simd1"])
    def test_https_dispatch_matrix(self, config, https_sim, threads, simd):
        baseline = run_capture(
            _https_source(
                https_sim, self._dispatch_config(config, simd=False, threads=1)
            )
        )
        forced = run_capture(
            _https_source(
                https_sim,
                self._dispatch_config(config, simd=simd, threads=threads),
            )
        )
        _assert_cookie_stats_equal(forced, baseline)

    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("simd", [False, True], ids=["simd0", "simd1"])
    def test_tkip_dispatch_matrix(self, config, threads, simd):
        def source(dispatch_config):
            rng = np.random.default_rng(5)
            return TkipCaptureSource(
                config=dispatch_config,
                plaintext=bytes(rng.integers(0, 256, 60, dtype=np.uint8)),
                tsc_values=(5, 1000),
                packets_per_tsc=150,
                batch_size=64,
                label="disp-tkip",
            )

        baseline = run_capture(
            source(self._dispatch_config(config, simd=False, threads=1))
        )
        forced = run_capture(
            source(self._dispatch_config(config, simd=simd, threads=threads))
        )
        TestTkipCaptureEquivalence._assert_equal(forced, baseline)


class _FailAfter:
    """Source wrapper that dies after N successful batches."""

    def __init__(self, inner, fail_after):
        self._inner = inner
        self._fail_after = fail_after

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def capture_batches(self, stats, indices):
        added = []
        for index in indices:
            if index >= self._fail_after:
                raise RuntimeError("simulated crash")
            added += self._inner.capture_batches(stats, [index])
        return added


class TestCheckpointResume:
    """Interrupted + resumed captures == uninterrupted, bit for bit."""

    def _source(self, config):
        rng = np.random.default_rng(11)
        return TkipCaptureSource(
            config=config,
            plaintext=bytes(rng.integers(0, 256, 40, dtype=np.uint8)),
            tsc_values=(3, 77, 4000),
            packets_per_tsc=100,
            batch_size=32,
            label="cp-tkip",
        )

    def test_resume_reproduces_uninterrupted_counts(self, config, tmp_path):
        source = self._source(config)
        uninterrupted = run_capture(source)
        path = tmp_path / "capture.npz"
        with pytest.raises(RuntimeError):
            run_capture(
                _FailAfter(source, 5), checkpoint_path=path, checkpoint_every=2
            )
        assert path.exists()
        resumed = run_capture(source, checkpoint_path=path, checkpoint_every=2)
        TestTkipCaptureEquivalence._assert_equal(resumed, uninterrupted)

    def test_completed_checkpoint_resumes_as_noop(self, config, tmp_path):
        source = self._source(config)
        path = tmp_path / "capture.npz"
        done = run_capture(source, checkpoint_path=path)
        again = run_capture(_FailAfter(source, 0), checkpoint_path=path)
        TestTkipCaptureEquivalence._assert_equal(done, again)

    def test_https_checkpoint_roundtrip(self, config, https_sim, tmp_path):
        source = _https_source(https_sim, config, num_requests=96, batch_size=32)
        uninterrupted = run_capture(source)
        path = tmp_path / "https.npz"
        with pytest.raises(RuntimeError):
            run_capture(
                _FailAfter(source, 1), checkpoint_path=path, checkpoint_every=1
            )
        resumed = run_capture(source, checkpoint_path=path, checkpoint_every=1)
        _assert_cookie_stats_equal(resumed, uninterrupted)

    def _interrupted_https(self, config, https_sim, path):
        """An HTTPS checkpoint after one batch, plus the uninterrupted run."""
        source = _https_source(https_sim, config, num_requests=96, batch_size=32)
        with pytest.raises(RuntimeError):
            run_capture(
                _FailAfter(source, 1), checkpoint_path=path, checkpoint_every=1
            )
        return source, run_capture(source)

    def test_checkpoint_members_are_stored_uncompressed(
        self, config, https_sim, tmp_path
    ):
        path = tmp_path / "https.npz"
        self._interrupted_https(config, https_sim, path)
        with zipfile.ZipFile(path) as archive:
            kinds = {i.filename: i.compress_type for i in archive.infolist()}
        assert set(kinds) == {
            "__meta__.npy", "fm_counts.npy", "absab_matrix.npy"
        }
        assert set(kinds.values()) == {zipfile.ZIP_STORED}

    def test_compressed_checkpoint_still_resumes(
        self, config, https_sim, tmp_path
    ):
        """A checkpoint in the older compressed-NPZ form resumes bit-exactly."""
        path = tmp_path / "https.npz"
        source, uninterrupted = self._interrupted_https(config, https_sim, path)
        with np.load(path) as archive:
            members = {name: archive[name] for name in archive.files}
        np.savez_compressed(path, **members)
        with zipfile.ZipFile(path) as archive:
            assert {i.compress_type for i in archive.infolist()} == {
                zipfile.ZIP_DEFLATED
            }
        resumed = run_capture(source, checkpoint_path=path, checkpoint_every=1)
        _assert_cookie_stats_equal(resumed, uninterrupted)

    def test_flipped_counter_byte_fails_crc_and_restarts(
        self, config, https_sim, tmp_path
    ):
        """Uncompressed members still carry a CRC-32: a flipped counter
        byte restarts the capture instead of resuming wrong counts."""
        path = tmp_path / "https.npz"
        source, uninterrupted = self._interrupted_https(config, https_sim, path)
        with zipfile.ZipFile(path) as archive:
            info = archive.getinfo("absab_matrix.npy")
        raw = bytearray(path.read_bytes())
        # Local file header: 30 fixed bytes, then the name and extra field.
        name_len, extra_len = struct.unpack_from("<HH", raw, info.header_offset + 26)
        data = info.header_offset + 30 + name_len + extra_len
        raw[data + info.file_size // 2] ^= 0x40
        path.write_bytes(bytes(raw))
        with pytest.warns(RuntimeWarning, match="Bad CRC-32"):
            restarted = run_capture(
                source, checkpoint_path=path, checkpoint_every=1
            )
        _assert_cookie_stats_equal(restarted, uninterrupted)

    def test_rejects_foreign_checkpoint(self, config, tmp_path):
        source = self._source(config)
        path = tmp_path / "capture.npz"
        run_capture(source, checkpoint_path=path)
        other = self._source(ReproConfig(seed=4242))
        with pytest.raises(CaptureError, match="fingerprint"):
            run_capture(other, checkpoint_path=path)

    def test_rejects_mismatched_batch_range(self, config, tmp_path):
        source = self._source(config)
        path = tmp_path / "capture.npz"
        run_capture(source, batches=range(0, 4), checkpoint_path=path)
        with pytest.raises(CaptureError, match="batch range"):
            run_capture(source, batches=range(4, 8), checkpoint_path=path)

    def test_resume_false_starts_over(self, config, tmp_path):
        source = self._source(config)
        path = tmp_path / "capture.npz"
        run_capture(source, batches=range(0, 2), checkpoint_path=path)
        fresh = run_capture(source, checkpoint_path=path, resume=False)
        TestTkipCaptureEquivalence._assert_equal(fresh, run_capture(source))

    def test_docstring_example_runs(self, tmp_path, monkeypatch):
        """The usage example in run_capture's docstring runs as written."""
        monkeypatch.chdir(tmp_path)
        runner = doctest.DocTestRunner()
        for test in doctest.DocTestFinder().find(run_capture, globs={}):
            runner.run(test)
        failed, attempted = runner.summarize(verbose=False)
        assert attempted > 0 and failed == 0
        assert (tmp_path / "cap.npz").exists()

    def test_rejects_bad_engine_arguments(self, config):
        source = self._source(config)
        with pytest.raises(CaptureError):
            run_capture(source, checkpoint_every=0)
        with pytest.raises(CaptureError):
            run_capture(source, batches=[source.num_batches])
        with pytest.raises(CaptureError, match="duplicate"):
            run_capture(source, batches=[0, 0])


class TestCaptureBounds:
    """uint32 counters: an object holds at most 2^32 - 1 requests, and
    older int64 checkpoints still resume."""

    def test_sources_reject_requests_past_uint32(self, config, https_sim):
        plaintext = https_sim.campaign.request_plaintext()
        _https_source(https_sim, config, num_requests=2**32 - 1)
        with pytest.raises(CaptureError, match="uint32"):
            _https_source(https_sim, config, num_requests=2**32)
        with pytest.raises(CaptureError, match="uint32"):
            HttpsCaptureSource(
                config=config, layout=https_sim.layout,
                plaintexts=(plaintext,), victim_ids=("v",),
                num_requests=2**32,
            )

    def test_ingest_past_the_bound_changes_nothing(self):
        stats = CookieStatistics.empty(_LAYOUT, max_gap=3)
        stats.num_requests = 2**32 - 4
        window = keystream_window(_LAYOUT, 3)
        columns = np.ones((window.stop - window.start, 3), np.uint8)
        template = np.zeros((1, _LAYOUT.request_len), np.uint8)
        ingest_keystream_columns([stats], columns, template)
        assert stats.num_requests == 2**32 - 1
        before = stats.snapshot()
        with pytest.raises(AttackError, match="4294967295"):
            ingest_keystream_columns([stats], columns[:, :1], template)
        _assert_cookie_stats_equal(stats, before)
        with pytest.raises(AttackError):
            stats.ingest_fragment(bytes(_LAYOUT.request_len))
        _assert_cookie_stats_equal(stats, before)

    def test_merge_past_the_bound_changes_nothing(self):
        big, small = _random_cookie_stats(1), _random_cookie_stats(2)
        big.num_requests, small.num_requests = 2**32 - 10, 10
        before = big.snapshot()
        with pytest.raises(AttackError, match="exceed"):
            big.merge(small)
        _assert_cookie_stats_equal(big, before)
        small.num_requests = 9
        big.merge(small)
        assert big.num_requests == 2**32 - 1
        assert big.fm_counts.dtype == np.uint32

        # Victim b's bound fails, so victim a is not merged either.
        multi = _cookie_victim_set(["a", "b"])
        other = multi.snapshot()
        other.members = [_random_cookie_stats(3), _random_cookie_stats(4)]
        multi.victim("b").num_requests = 2**32 - 1
        with pytest.raises(AttackError):
            multi.merge(other)
        assert not multi.victim("a").fm_counts.any()
        assert multi.victim("a").num_requests == 0

    def test_snapshot_and_merge_keep_the_dtype(self):
        capture = _random_cookie_stats(5)
        wide = CookieStatistics.from_counters(
            _LAYOUT, capture.fm_counts.astype(np.int64),
            capture.absab_matrix.astype(np.int64), max_gap=3,
            num_requests=capture.num_requests,
        )
        assert wide.fm_counts.dtype == np.int64
        assert capture.snapshot().absab_matrix.dtype == np.uint32
        assert wide.snapshot().absab_matrix.dtype == np.int64
        merged = capture.snapshot().merge(wide)
        assert merged.fm_counts.dtype == np.uint32
        _assert_cookie_stats_equal(merged, wide.snapshot().merge(capture))

    def test_int64_checkpoint_resumes_bit_exactly(
        self, config, https_sim, tmp_path
    ):
        """A checkpoint in the older int64 format resumes into uint32
        counters with the same cells."""
        path = tmp_path / "https.npz"
        source = _https_source(
            https_sim, config, num_requests=96, batch_size=32
        )
        with pytest.raises(RuntimeError):
            run_capture(
                _FailAfter(source, 1), checkpoint_path=path, checkpoint_every=1
            )
        with np.load(path) as archive:
            members = {name: archive[name] for name in archive.files}
        for name in ("fm_counts", "absab_matrix"):
            members[name] = members[name].astype(np.int64)
        np.savez(path, **members)
        loaded, _ = CookieStatistics.load(path)
        assert loaded.fm_counts.dtype == loaded.absab_matrix.dtype == np.uint32
        resumed = run_capture(source, checkpoint_path=path, checkpoint_every=1)
        _assert_cookie_stats_equal(resumed, run_capture(source))

    def test_int64_multi_template_archive_loads_narrowed(self, tmp_path):
        stats = VictimSet(
            ("a", "b"), [_random_cookie_stats(6), _random_cookie_stats(7)]
        )
        path = stats.save(tmp_path / "multi.npz")
        with np.load(path) as archive:
            members = {name: archive[name] for name in archive.files}
        for v in range(2):
            for name in ("fm_counts", "absab_matrix"):
                key = f"{v}/{name}"
                members[key] = members[key].astype(np.int64)
        np.savez(path, **members)
        loaded, _ = VictimSet.load(path, CookieStatistics)
        for mine, theirs in zip(loaded.members, stats.members):
            assert mine.fm_counts.dtype == np.uint32
            _assert_cookie_stats_equal(mine, theirs)

    def test_int64_archive_past_the_bound_stays_int64(self, tmp_path):
        capture = _random_cookie_stats(8)
        wide = CookieStatistics.from_counters(
            _LAYOUT, capture.fm_counts.astype(np.int64),
            capture.absab_matrix.astype(np.int64), max_gap=3,
            num_requests=2**32,
        )
        loaded, _ = CookieStatistics.load(wide.save(tmp_path / "wide.npz"))
        assert loaded.fm_counts.dtype == np.int64
        _assert_cookie_stats_equal(loaded, wide)


class TestSharding:
    """Disjoint batch ranges merged == one uninterrupted capture."""

    def test_tkip_shards_merge_exactly(self, config):
        rng = np.random.default_rng(13)
        source = TkipCaptureSource(
            config=config,
            plaintext=bytes(rng.integers(0, 256, 30, dtype=np.uint8)),
            tsc_values=(1, 2, 600),
            packets_per_tsc=120,
            batch_size=32,
            label="shard-tkip",
        )
        full = run_capture(source)
        shards = [
            run_capture(source, batches=r)
            for r in shard_batches(source.num_batches, 4)
        ]
        TestTkipCaptureEquivalence._assert_equal(merge_shards(shards), full)

    def test_https_shards_merge_exactly(self, config, https_sim):
        source = _https_source(https_sim, config, num_requests=160, batch_size=32)
        full = run_capture(source)
        shards = [
            run_capture(source, batches=r)
            for r in shard_batches(source.num_batches, 3)
        ]
        _assert_cookie_stats_equal(merge_shards(shards), full)

    def test_shard_batches_partitions(self):
        ranges = shard_batches(11, 3)
        flat = [index for r in ranges for index in r]
        assert flat == list(range(11))
        assert {len(r) for r in ranges} <= {3, 4}

    def test_merge_rejects_mismatched_layouts(self, config, https_sim):
        a = CookieStatistics.empty(https_sim.layout, max_gap=4)
        b = CookieStatistics.empty(https_sim.layout, max_gap=8)
        with pytest.raises(AttackError):
            a.merge(b)


# --- SufficientStatistics algebra (hypothesis) ----------------------------

_LAYOUT = CookieLayout(prefix=b"known-ab", suffix=b"cd-known", cookie_len=2)


def _random_cookie_stats(seed: int) -> CookieStatistics:
    stats = CookieStatistics.empty(_LAYOUT, max_gap=3)
    rng = np.random.default_rng(seed)
    stats.fm_counts += rng.integers(0, 50, stats.fm_counts.shape, np.uint32)
    stats.absab_matrix += rng.integers(
        0, 50, stats.absab_matrix.shape, np.uint32
    )
    stats.num_requests = int(rng.integers(0, 1000))
    return stats


def _random_capture_set(seed: int) -> CaptureSet:
    rng = np.random.default_rng(seed)
    capture = CaptureSet(positions=range(1, 7), plaintext_len=9)
    for tsc in rng.choice(100, size=rng.integers(1, 4), replace=False):
        capture.counts[int(tsc)] = rng.integers(
            0, 50, (6, 256), dtype=np.int64
        )
    capture.num_captured = int(rng.integers(0, 500))
    return capture


def _cookie_victim_set(victim_ids, *, max_gap: int = 3) -> VictimSet:
    return VictimSet(
        tuple(victim_ids),
        [CookieStatistics.empty(_LAYOUT, max_gap=max_gap) for _ in victim_ids],
    )


@pytest.mark.parametrize(
    "make,equal",
    [
        (_random_cookie_stats, _assert_cookie_stats_equal),
        (_random_capture_set, TestTkipCaptureEquivalence._assert_equal),
    ],
    ids=["cookie", "tkip"],
)
class TestStatisticsAlgebra:
    @settings(max_examples=15, deadline=None)
    @given(seeds=st.tuples(*[st.integers(0, 2**31)] * 3))
    def test_merge_associative_and_commutative(self, make, equal, seeds):
        sa, sb, sc = seeds
        a, b, c = make(sa), make(sb), make(sc)
        left = a.snapshot().merge(b).merge(c)
        right = a.snapshot().merge(b.snapshot().merge(c))
        equal(left, right)
        equal(a.snapshot().merge(b), b.snapshot().merge(a))

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 2**31))
    def test_json_summary_round_trips_bit_identically(self, make, equal, seed):
        stats = make(seed)
        text = canonical_json(stats.to_jsonable())
        assert canonical_json(json.loads(text)) == text

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 2**31))
    def test_npz_round_trips_bit_identically(self, make, equal, seed):
        stats = make(seed)
        with tempfile.TemporaryDirectory() as tmp:
            path = stats.save(
                Path(tmp) / "stats.npz", extra={"note": "round-trip"}
            )
            loaded, extra = type(stats).load(path)
        assert extra == {"note": "round-trip"}
        equal(stats, loaded)
        # Saving the loaded copy is byte-stable at the summary level too.
        assert canonical_json(loaded.to_jsonable()) == canonical_json(
            stats.to_jsonable()
        )


@pytest.mark.parametrize(
    "make,equal,member_type",
    [
        (_random_cookie_stats, _assert_cookie_stats_equal, CookieStatistics),
        (
            _random_capture_set,
            TestTkipCaptureEquivalence._assert_equal,
            CaptureSet,
        ),
    ],
    ids=["cookie", "tkip"],
)
class TestVictimSetArchive:
    """A victim set saves each member's arrays as entries of their own
    and loads them back bit for bit, as its member type only."""

    def test_npz_round_trips_bit_identically(
        self, make, equal, member_type, tmp_path
    ):
        stats = VictimSet(("a", "b", "c"), [make(seed) for seed in (1, 2, 3)])
        path = stats.save(tmp_path / "set.npz", extra={"note": "round-trip"})
        loaded, extra = VictimSet.load(path, member_type)
        assert extra == {"note": "round-trip"}
        assert loaded.victim_ids == stats.victim_ids
        for mine, theirs in zip(loaded.members, stats.members, strict=True):
            assert type(mine) is member_type
            equal(mine, theirs)
            mine_arrays, mine_meta = mine.archive()
            theirs_arrays, theirs_meta = theirs.archive()
            assert mine_meta == theirs_meta
            for name, array in theirs_arrays.items():
                assert mine_arrays[name].dtype == array.dtype, name
        assert canonical_json(loaded.to_jsonable()) == canonical_json(
            stats.to_jsonable()
        )

    def test_loading_as_the_other_member_type_raises(
        self, make, equal, member_type, tmp_path
    ):
        path = VictimSet(("a",), [make(4)]).save(tmp_path / "set.npz")
        other = CaptureSet if member_type is CookieStatistics else CookieStatistics
        with pytest.raises(DatasetError, match=f"victim-set/{member_type.KIND}"):
            VictimSet.load(path, other)
        with pytest.raises(DatasetError, match=f"'{member_type.KIND}'"):
            member_type.load(path)


def test_victim_set_merge_checks_every_member_first():
    """Victim b's shapes differ, so victim a is not merged either."""
    equal = TestTkipCaptureEquivalence._assert_equal
    stats = VictimSet(("a", "b"), [_random_capture_set(1), _random_capture_set(2)])
    before = stats.snapshot()
    other = VictimSet(
        ("a", "b"),
        [_random_capture_set(3), CaptureSet(positions=range(1, 6), plaintext_len=9)],
    )
    with pytest.raises(AttackError, match="different shapes"):
        stats.merge(other)
    with pytest.raises(AttackError, match="different victim sets"):
        stats.merge(VictimSet(("a", "c"), before.snapshot().members))
    for mine, theirs in zip(stats.members, before.members, strict=True):
        equal(mine, theirs)
    other.members[1] = _random_capture_set(4)
    stats.merge(other)
    equal(stats.victim("a"), before.victim("a").merge(other.victim("a")))


class TestResumeMemory:
    """Loading a checkpoint keeps the loaded arrays as the counters: the
    load peaks at about 1x the counter bytes, not 2x."""

    @staticmethod
    def _load_peak(load, path):
        tracemalloc.start()
        try:
            loaded, _ = load(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return loaded, peak

    def test_cookie_statistics_load_peak(self, tmp_path):
        stats = CookieStatistics.empty(_LAYOUT, max_gap=32)
        stats.absab_matrix[:, ::97] = 5
        path = stats.save(tmp_path / "stats.npz")
        loaded, peak = self._load_peak(CookieStatistics.load, path)
        counter_bytes = stats.fm_counts.nbytes + stats.absab_matrix.nbytes
        assert counter_bytes <= peak <= 1.2 * counter_bytes
        _assert_cookie_stats_equal(loaded, stats)
        key = next(iter(loaded.absab_counts))
        assert np.shares_memory(loaded.absab_counts[key], loaded.absab_matrix)

    def test_victim_set_load_peak(self, tmp_path):
        stats = _cookie_victim_set(["a", "b"], max_gap=16)
        stats.victim("b").absab_matrix[:, ::89] = 3
        path = stats.save(tmp_path / "multi.npz")
        loaded, peak = self._load_peak(
            lambda path: VictimSet.load(path, CookieStatistics), path
        )
        counter_bytes = sum(
            s.fm_counts.nbytes + s.absab_matrix.nbytes for s in stats.members
        )
        assert counter_bytes <= peak <= 1.2 * counter_bytes
        for mine, theirs in zip(loaded.members, stats.members):
            _assert_cookie_stats_equal(mine, theirs)

    def test_victim_set_save_peak(self, tmp_path):
        """Each member's counters are written as entries of their own,
        so saving four victims peaks below one victim's counter bytes; a
        save that stacked them would copy all four."""
        stats = _cookie_victim_set(["a", "b", "c", "d"], max_gap=16)
        for v, member in enumerate(stats.members):
            member.absab_matrix[:, v::97] = v + 1
        victim_bytes = (
            stats.members[0].fm_counts.nbytes
            + stats.members[0].absab_matrix.nbytes
        )
        tracemalloc.start()
        try:
            path = stats.save(tmp_path / "four.npz")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= victim_bytes
        loaded, _ = VictimSet.load(path, CookieStatistics)
        for mine, theirs in zip(loaded.members, stats.members, strict=True):
            _assert_cookie_stats_equal(mine, theirs)


def test_only_capture_statistics_are_stored_uncompressed(tmp_path, config):
    """Capture statistics skip deflate; dataset-cache, per-TSC and
    warehouse-blob files stay compressed."""
    from repro.api import ExperimentResult
    from repro.datasets import DatasetSpec
    from repro.datasets.store import save_dataset
    from repro.tkip.per_tsc import PerTscDistributions
    from repro.warehouse import RunStore

    def kinds(path):
        with zipfile.ZipFile(path) as archive:
            return {i.compress_type for i in archive.infolist()}

    stored = [
        _random_cookie_stats(1).save(tmp_path / "cookie.npz"),
        _random_capture_set(2).save(tmp_path / "tkip.npz"),
    ]
    for path in stored:
        assert kinds(path) == {zipfile.ZIP_STORED}, path
    counts = np.ones((4, 256), np.int64)
    store = RunStore(tmp_path / "warehouse")
    run = store.append(
        ExperimentResult(
            experiment="dataset-single", params={}, metrics={},
            timings={}, provenance={"seed": 1},
        ),
        blobs={"counters": ({"counts": counts}, {})},
    )
    deflated = [
        save_dataset(
            tmp_path / "dataset.npz", counts,
            DatasetSpec(kind="single", num_keys=1, positions=4),
        ),
        PerTscDistributions([7], np.full((1, 4, 256), 1 / 256)).save(
            tmp_path / "per-tsc.npz"
        ),
        store.blob_path(run.fingerprint, "counters"),
    ]
    for path in deflated:
        assert kinds(path) == {zipfile.ZIP_DEFLATED}, path


# --- registry integration -------------------------------------------------


class TestRegistryIntegration:
    """The capture engine through the experiment registry surface."""

    @pytest.fixture(scope="class")
    def session(self):
        from repro.api import Session

        return Session(ReproConfig(scale=0.25, seed=4321))

    def test_attack_https_batched_recovers(self, session):
        # num_candidates covers the full 2-char RFC 6265 space, so the
        # run must recover; this exercises the whole batched pipeline
        # (engine capture -> likelihoods -> Algorithm 2 -> oracle).
        result = session.run(
            "attack-https", cookie_len=2, num_candidates=1 << 13, max_gap=16,
            capture="batched", num_requests=1 << 14, batch_size=4096,
        )
        assert result.metrics["capture"] == "batched"
        assert result.metrics["num_requests"] == 1 << 14
        assert len(result.metrics["cookie"]) == 2

    def test_attack_https_record_churn_scenario(self, session):
        result = session.run(
            "attack-https", cookie_len=2, num_candidates=1 << 13, max_gap=16,
            capture="batched", num_requests=1 << 14, batch_size=4096,
            reconnect_every=8,
        )
        assert result.metrics["reconnect_every"] == 8

    def test_attack_https_rejects_churn_without_batched(self, session):
        with pytest.raises(ExperimentParamError):
            session.run("attack-https", reconnect_every=8)

    def test_attack_tkip_batched_capture_stage(self, session, tmp_path):
        """Batched TKIP capture flows through the experiment (recovery
        needs paper-scale packet counts — see the capture docstring —
        so only the capture stage is asserted here, via a checkpoint)."""
        path = tmp_path / "tkip-capture.npz"
        with pytest.raises(Exception):
            session.run(
                "attack-tkip", num_tsc=2, keys_per_tsc=256,
                packets_per_tsc=1 << 10, max_candidates=64,
                capture="batched", checkpoint=str(path),
            )
        capture, extra = CaptureSet.load(path)
        assert capture.num_captured == 2 * (1 << 10)
        assert extra["capture_checkpoint"]["batches_done"] > 0

    def test_bias_sweep_pertsc_reports_per_tsc_profiles(self, session):
        result = session.run(
            "bias-sweep-pertsc", num_tsc=2, packets_per_tsc=2048, end=8,
        )
        metrics = result.metrics
        assert len(metrics["profile"]) == 2
        assert metrics["positions"] == [1, 8]
        assert len(metrics["tsc_spread_per_position"]) == 8
        assert metrics["total_counts"] == 2 * 2048 * 8

    def test_capture_progress_events_emitted(self, session):
        events = []
        session.add_progress(events.append)
        try:
            session.run(
                "bias-sweep-pertsc", num_tsc=2, packets_per_tsc=512, end=4,
                batch_size=256,
            )
        finally:
            session._callbacks.remove(events.append)
        capture_events = [e for e in events if e.stage == "capture"]
        assert any("captured" in e.message for e in capture_events)
        final = [e for e in capture_events if e.data.get("requests_done")]
        assert final[-1].data["requests_done"] == 2 * 512
