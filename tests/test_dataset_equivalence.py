"""Bit-exactness of the fused statistics engine.

The engine has five layers that must all be byte-identical to the naive
reference: the fused counting kernels (numpy grouped-bincount path), the
optional compiled backend (``repro.rc4._native``) with its scalar PRGA
kernels, the runtime-dispatched AVX2 wide kernels
(``REPRO_NATIVE_SIMD``), the POSIX-threaded native fan-out (the
calling thread counting into the caller's counters, each helper into a
private block added in C), and the shard accumulation in
``generate_dataset``.  Every test here counts the same keystreams
with :func:`repro.rc4.reference.rc4_keystream` Python loops (or the
single-threaded kernel output) and asserts cell-for-cell equality.
"""

import dataclasses
import functools
import os

import numpy as np
import pytest

from repro.datasets import (
    DatasetSpec,
    consec_digraph_counts,
    equality_counts,
    generate_dataset,
    longterm_digraph_counts,
    pair_counts,
    single_byte_counts,
)
from repro.datasets.manager import _accumulate
from repro.rc4 import _native
from repro.rc4.batch import BatchRC4, batch_keystream
from repro.rc4.keygen import derive_keys
from repro.rc4.reference import rc4_keystream


@pytest.fixture(params=["numpy", "native"])
def backend(request, monkeypatch):
    """Run the test body under each engine backend.

    ``numpy`` forces the pure-numpy fallback by patching
    ``_native.available``; ``native`` requires the compiled backend (and
    skips where no C compiler exists).
    """
    if request.param == "native":
        if not _native.available():
            pytest.skip("native backend unavailable (no C compiler?)")
    else:
        monkeypatch.setattr(_native, "available", lambda: False)
    return request.param


def _keys(rng, n=16):
    return rng.integers(0, 256, size=(n, 16), dtype=np.uint8)


class TestKernelEquivalence:
    """Fused kernels vs. per-key Python reference counting."""

    def test_single_byte(self, rng, backend):
        # 70 positions crosses the fused SINGLE_GROUP window boundary.
        keys = _keys(rng)
        positions = 70
        counts = single_byte_counts(keys, positions)
        expected = np.zeros((positions, 256), dtype=np.int64)
        for key in keys:
            stream = rc4_keystream(bytes(key), positions)
            for r, z in enumerate(stream):
                expected[r, z] += 1
        assert np.array_equal(counts, expected)

    def test_consec_digraphs(self, rng, backend):
        # 19 positions crosses the fused DIGRAPH_GROUP window boundary.
        keys = _keys(rng)
        positions = 19
        counts = consec_digraph_counts(keys, positions)
        expected = np.zeros((positions, 256, 256), dtype=np.int64)
        for key in keys:
            stream = rc4_keystream(bytes(key), positions + 1)
            for r in range(positions):
                expected[r, stream[r], stream[r + 1]] += 1
        assert np.array_equal(counts, expected)

    def test_pairs(self, rng, backend):
        keys = _keys(rng)
        pairs = [(1, 3), (2, 16), (5, 2)]
        counts = pair_counts(keys, pairs)
        expected = np.zeros((len(pairs), 256, 256), dtype=np.int64)
        for key in keys:
            stream = rc4_keystream(bytes(key), 16)
            for idx, (a, b) in enumerate(pairs):
                expected[idx, stream[a - 1], stream[b - 1]] += 1
        assert np.array_equal(counts, expected)

    def test_equality(self, rng, backend):
        keys = _keys(rng, 24)
        pairs = [(1, 2), (2, 4)]
        counts = equality_counts(keys, pairs)
        for idx, (a, b) in enumerate(pairs):
            manual = sum(
                1
                for key in keys
                if rc4_keystream(bytes(key), 4)[a - 1]
                == rc4_keystream(bytes(key), 4)[b - 1]
            )
            assert counts[idx, 0] == manual
            assert counts[idx, 1] == len(keys)

    @pytest.mark.parametrize(
        "drop,gap", [(1023, 0), (1023, 1), (100, 1), (0, 3), (255, 0), (64, 11)]
    )
    def test_longterm_variants(self, rng, backend, drop, gap):
        keys = _keys(rng, 4)
        stream_len = 40
        counts = longterm_digraph_counts(keys, stream_len, drop=drop, gap=gap)
        expected = np.zeros((256, 256, 256), dtype=np.int64)
        for key in keys:
            stream = rc4_keystream(bytes(key), drop + stream_len + 1 + gap)[drop:]
            for r in range(stream_len):
                i = (drop + r + 1) % 256
                expected[i, stream[r], stream[r + 1 + gap]] += 1
        assert np.array_equal(counts, expected)

    def test_accumulates_into_out(self, rng, backend):
        keys = _keys(rng, 8)
        out = consec_digraph_counts(keys, 3)
        consec_digraph_counts(keys, 3, out=out)
        assert out.sum() == 2 * 8 * 3

    def test_accumulates_into_noncontiguous_out(self, rng, backend):
        """Counts must land in the caller's buffer even when it is a
        strided view (a flat reshape would silently count into a copy)."""
        keys = _keys(rng, 8)
        positions = 4
        big = np.zeros((positions, 512), dtype=np.int64)
        view = big[:, :256]
        assert not view.flags.c_contiguous
        single_byte_counts(keys, positions, out=view)
        assert view.sum() == 8 * positions
        assert np.array_equal(view, single_byte_counts(keys, positions))

    def test_batch_keystream_rejects_negative_drop(self, rng, backend):
        keys = _keys(rng, 2)
        with pytest.raises(ValueError):
            batch_keystream(keys, 8, drop=-1)


class TestBackendParity:
    """Native and numpy paths agree exactly on larger batches."""

    @pytest.fixture(autouse=True)
    def _require_native(self):
        if not _native.available():
            pytest.skip("native backend unavailable (no C compiler?)")

    def test_batch_keystream_parity(self, rng, monkeypatch):
        keys = rng.integers(0, 256, size=(300, 16), dtype=np.uint8)
        native = batch_keystream(keys, 80, drop=1023)
        monkeypatch.setattr(_native, "available", lambda: False)
        fallback = batch_keystream(keys, 80, drop=1023)
        assert np.array_equal(native, fallback)

    @pytest.mark.parametrize(
        "kernel",
        [
            lambda keys: single_byte_counts(keys, 130),
            lambda keys: consec_digraph_counts(keys, 17),
            lambda keys: longterm_digraph_counts(keys, 64, drop=1023, gap=1),
        ],
        ids=["single", "consec", "longterm"],
    )
    def test_counting_parity(self, rng, monkeypatch, kernel):
        keys = rng.integers(0, 256, size=(512, 16), dtype=np.uint8)
        native = kernel(keys)
        monkeypatch.setattr(_native, "available", lambda: False)
        fallback = kernel(keys)
        assert np.array_equal(native, fallback)


#: Long-term gaps covering the window widths 1..256: 0 and 1 (the only
#: gaps the 600- and 1200-key dataset specs take to the wide tier), a
#: few in between, and the two largest.
LONGTERM_GAPS = [0, 1, 2, 7, 31, 254, 255]


@functools.lru_cache(maxsize=None)
def _longterm_reference(gap, *, num_keys=65, stream_len=300, drop=3):
    """Keys plus the nonzero cells (flat indices, counts) of their
    counter-binned long-term digraphs, counted from the reference RC4."""
    keys = np.random.default_rng(gap).integers(
        0, 256, size=(num_keys, 16), dtype=np.uint8
    )
    cells = []
    for key in keys:
        stream = rc4_keystream(bytes(key), drop + stream_len + 1 + gap)[drop:]
        for r in range(stream_len):
            i = (drop + r + 1) % 256
            cells.append(i * 65536 + stream[r] * 256 + stream[r + 1 + gap])
    flat, counts = np.unique(np.array(cells, dtype=np.int64), return_counts=True)
    return keys, flat, counts


class TestLongtermWindow:
    """The long-term kernels' rolling window wraps its slot at every
    width.  65 keys put two 32-key groups on the wide tier and one key
    on the scalar one; 300 positions wrap even the 256-byte window."""

    @pytest.fixture(autouse=True)
    def _require_native(self):
        if not _native.available():
            pytest.skip("native backend unavailable (no C compiler?)")

    @pytest.mark.parametrize("simd", [False, True], ids=["scalar", "wide"])
    @pytest.mark.parametrize("gap", LONGTERM_GAPS)
    def test_count_longterm_matches_reference(self, gap, simd):
        keys, flat, counts = _longterm_reference(gap)
        out = np.zeros((256, 256, 256), dtype=np.int64)
        _native.count_longterm(keys, 300, 3, gap, out, threads=1, simd=simd)
        cells = out.ravel()
        assert np.array_equal(np.flatnonzero(cells), flat)
        assert np.array_equal(cells[flat], counts)


#: Thread counts every dataset kind is checked under: serial, the
#: smallest genuinely-parallel count, and whatever this machine defaults
#: to.  Deduplicated so single-core CI still runs {1, 2}.
THREAD_COUNTS = sorted({1, 2, os.cpu_count() or 1})

#: Every dataset kind with a small spec, shared by the thread and
#: dispatch sweeps below.
ALL_KIND_SPECS = [
    DatasetSpec(kind="single", num_keys=900, positions=6, label="mt-s"),
    DatasetSpec(kind="consec", num_keys=900, positions=4, label="mt-c"),
    DatasetSpec(kind="pairs", num_keys=900, pairs=((1, 3), (2, 5)), label="mt-p"),
    DatasetSpec(kind="equality", num_keys=900, pairs=((1, 2),), label="mt-e"),
    DatasetSpec(
        kind="longterm",
        num_keys=600,
        stream_len=16,
        drop=77,
        gap=1,
        label="mt-lt",
    ),
]
ALL_KIND_IDS = [spec.kind for spec in ALL_KIND_SPECS]


#: The native RC4 kernels that dispatch across the SIMD and scalar tiers.
NATIVE_KERNELS = ["keystream", "single", "digraph", "longterm"]


def _run_native(kernel, keys, *, threads, simd, out=None):
    """One native RC4 kernel call on small fixed shapes; a counting
    kernel adds into ``out`` when one is given."""
    if kernel == "keystream":
        return _native.batch_keystream(
            keys, 40, drop=13, threads=threads, simd=simd
        )
    count, shape, args = {
        "single": (_native.count_single, (7, 256), (7,)),
        "digraph": (_native.count_digraph, (5, 256, 256), (5,)),
        "longterm": (_native.count_longterm, (256, 256, 256), (24, 100, 1)),
    }[kernel]
    if out is None:
        out = np.zeros(shape, dtype=np.int64)
    count(keys, *args, out, threads=threads, simd=simd)
    return out


class TestThreadedNativeEquivalence:
    """Threaded and SIMD native kernels == serial scalar kernels.

    This is the acceptance gate for the multi-core native engine: for
    every dataset kind the counters must be cell-for-cell identical
    across ``threads in {1, 2, cpu_count()}`` and across the SIMD vs
    scalar PRGA kernels.
    """

    @pytest.fixture(autouse=True)
    def _require_native(self):
        if not _native.available():
            pytest.skip("native backend unavailable (no C compiler?)")

    @pytest.mark.parametrize("spec", ALL_KIND_SPECS, ids=ALL_KIND_IDS)
    @pytest.mark.parametrize("threads", THREAD_COUNTS)
    def test_dataset_identical_across_thread_counts(
        self, config, spec, threads
    ):
        reference = generate_dataset(spec, config, worker_chunk=128, threads=1)
        threaded = generate_dataset(
            spec, config, worker_chunk=128, threads=threads
        )
        assert np.array_equal(reference, threaded)

    @pytest.mark.parametrize("threads", THREAD_COUNTS)
    @pytest.mark.parametrize("simd", [False, True], ids=["nosimd", "simd"])
    def test_kernel_level_matrix(self, rng, threads, simd):
        """Direct kernel calls: every (threads, simd) cell agrees with the
        serial scalar baseline, including key counts that are not
        multiples of the 32-lane SIMD group width or the thread count, so
        one call runs SIMD groups plus a scalar remainder."""
        keys = rng.integers(0, 256, size=(103, 16), dtype=np.uint8)
        for kernel in NATIVE_KERNELS:
            base = _run_native(kernel, keys, threads=1, simd=False)
            got = _run_native(kernel, keys, threads=threads, simd=simd)
            assert np.array_equal(base, got), kernel

    @pytest.mark.parametrize("kernel", NATIVE_KERNELS)
    @pytest.mark.parametrize("num_keys", [1, 31, 32, 33, 64, 65])
    def test_simd_group_boundaries(self, rng, num_keys, kernel):
        """Key counts around the 32-lane SIMD group width, on 1-3 threads:
        the call's single work unit runs its whole groups on the wide
        kernels and hands the rest (or, below 32 keys, everything)
        straight to the scalar ones.  Every split matches the serial
        scalar tier, whose keystream rows match the reference RC4."""
        keys = rng.integers(0, 256, size=(num_keys, 16), dtype=np.uint8)
        base = _run_native(kernel, keys, threads=1, simd=False)
        if kernel == "keystream":
            for key, row in zip(keys, base):
                assert row.tobytes() == rc4_keystream(key.tobytes(), 40, drop=13)
        for threads in (1, 2, 3):
            got = _run_native(kernel, keys, threads=threads, simd=True)
            assert np.array_equal(base, got), f"threads={threads}"

    def test_threads_env_default_used_by_kernels(self, rng, monkeypatch):
        """REPRO_NATIVE_THREADS steers the default without changing counts."""
        keys = rng.integers(0, 256, size=(64, 16), dtype=np.uint8)
        base = single_byte_counts(keys, 4, threads=1)
        monkeypatch.setenv("REPRO_NATIVE_THREADS", "2")
        env_default = single_byte_counts(keys, 4)
        assert np.array_equal(base, env_default)

    @pytest.mark.parametrize("spec", ALL_KIND_SPECS, ids=ALL_KIND_IDS)
    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("simd", [False, True], ids=["simd0", "simd1"])
    def test_dataset_forced_dispatch_matrix(self, config, spec, threads, simd):
        """Full datasets under every forced dispatch combination
        (simd x threads) match the serial scalar baseline cell-for-cell
        for all dataset kinds."""
        baseline_config = dataclasses.replace(config, native_simd=False)
        reference = generate_dataset(
            spec, baseline_config, worker_chunk=128, threads=1
        )
        forced_config = dataclasses.replace(config, native_simd=simd)
        forced = generate_dataset(
            spec, forced_config, worker_chunk=128, threads=threads
        )
        assert np.array_equal(reference, forced)

    @pytest.mark.parametrize("kernel", NATIVE_KERNELS)
    def test_simd_env_default_used_by_kernels(self, rng, monkeypatch, kernel):
        """REPRO_NATIVE_SIMD steers each RC4 kernel's per-call default
        (simd=None) without changing a single bit."""
        keys = rng.integers(0, 256, size=(200, 16), dtype=np.uint8)
        base = _run_native(kernel, keys, threads=1, simd=False)
        for env_value in ("0", "1"):
            monkeypatch.setenv("REPRO_NATIVE_SIMD", env_value)
            got = _run_native(kernel, keys, threads=1, simd=None)
            assert np.array_equal(base, got), f"REPRO_NATIVE_SIMD={env_value}"


#: Key counts around the native fan-out's 128-key work-sharing unit
#: (RC4_UNIT in _native.c): a unit short by one, one unit, a unit and a
#: key, a unit and a SIMD group and a key, and two units either side.
UNIT_KEY_COUNTS = [127, 128, 129, 161, 255, 257]


class TestWorkSharing:
    """The native fan-out: the calling thread and its helpers take
    128-key units from a shared cursor in whatever order the scheduler
    allows, the caller counting straight into ``out`` and each helper
    into a private block added in after the join.  Every schedule must
    give the serial scalar tier's bits, whose keystream rows are the
    reference RC4's."""

    @pytest.fixture(autouse=True)
    def _require_native(self):
        if not _native.available():
            pytest.skip("native backend unavailable (no C compiler?)")

    @pytest.mark.parametrize("kernel", NATIVE_KERNELS)
    @pytest.mark.parametrize("num_keys", UNIT_KEY_COUNTS)
    def test_unit_boundaries(self, rng, num_keys, kernel):
        keys = rng.integers(0, 256, size=(num_keys, 16), dtype=np.uint8)
        base = _run_native(kernel, keys, threads=1, simd=False)
        if kernel == "keystream":
            for key, row in zip(keys, base):
                assert row.tobytes() == rc4_keystream(key.tobytes(), 40, drop=13)
        for threads in (1, 2, 3):
            for simd in (False, True):
                got = _run_native(kernel, keys, threads=threads, simd=simd)
                assert np.array_equal(base, got), (threads, simd)

    @pytest.mark.parametrize("kernel", NATIVE_KERNELS)
    def test_more_threads_than_units(self, rng, kernel):
        """129 keys are two units; the fan-out starts no more helpers than
        that, and the counters still add up."""
        keys = rng.integers(0, 256, size=(129, 16), dtype=np.uint8)
        base = _run_native(kernel, keys, threads=1, simd=False)
        for simd in (False, True):
            got = _run_native(kernel, keys, threads=8, simd=simd)
            assert np.array_equal(base, got), simd

    @pytest.mark.parametrize("keylen", [1, 5, 13, 17, 40, 256])
    def test_key_lengths(self, rng, keylen):
        """Key lengths that do not divide 256, and the widest key: the KSA
        steps its key index with a wrap on both tiers.  70 keys are two
        SIMD groups and a scalar remainder."""
        keys = rng.integers(0, 256, size=(70, keylen), dtype=np.uint8)
        for simd in (False, True):
            rows = _native.batch_keystream(
                keys, 40, drop=13, threads=2, simd=simd
            )
            for key, row in zip(keys, rows):
                assert row.tobytes() == rc4_keystream(key.tobytes(), 40, drop=13)
        for kernel in NATIVE_KERNELS[1:]:
            base = _run_native(kernel, keys, threads=1, simd=False)
            got = _run_native(kernel, keys, threads=2, simd=True)
            assert np.array_equal(base, got), kernel
        expected = np.zeros((7, 256), dtype=np.int64)
        for key in keys:
            for r, z in enumerate(rc4_keystream(key.tobytes(), 7)):
                expected[r, z] += 1
        assert np.array_equal(
            _run_native("single", keys, threads=1, simd=False), expected
        )

    @pytest.mark.parametrize("kernel", NATIVE_KERNELS[1:])
    @pytest.mark.parametrize("threads", [1, 2, 3])
    def test_counts_add_to_what_out_holds(self, rng, kernel, threads):
        """The calling thread adds straight into the caller's counters, so
        what they already hold must survive, counted once."""
        keys = rng.integers(0, 256, size=(300, 16), dtype=np.uint8)
        other = rng.integers(0, 256, size=(200, 16), dtype=np.uint8)
        base = _run_native(kernel, keys, threads=1, simd=False)
        start = _run_native(kernel, other, threads=1, simd=False)
        got = _run_native(
            kernel, keys, threads=threads, simd=True, out=start.copy()
        )
        got -= start
        assert np.array_equal(base, got)

    @pytest.mark.parametrize("rows", [0, 1, 3])
    def test_digraph_rows_with_more_threads_than_rows(self, rng, rows):
        """The capture's row kernel shares its rows over the same fan-out:
        8 threads on at most 3 rows, into counters that already hold
        counts, match one thread and a per-cell reference."""
        columns = rng.integers(0, 256, size=(12, 500), dtype=np.uint8)
        first = rng.integers(0, 11, rows)
        partner = np.where(np.arange(rows) % 2, rng.integers(0, 11, rows), -1)
        xor = rng.integers(0, 1 << 16, rows).astype(np.uint16)
        start = rng.integers(0, 5, (rows, 65536), dtype=np.uint32)
        expected = start.copy()
        for r in range(rows):
            hi, lo = columns[first[r]], columns[first[r] + 1]
            if partner[r] >= 0:
                hi, lo = hi ^ columns[partner[r]], lo ^ columns[partner[r] + 1]
            codes = ((hi.astype(np.int64) << 8) | lo) ^ xor[r]
            np.add.at(expected[r], codes, 1)
        for threads in (1, 8):
            got = start.copy()
            _native.count_digraph_rows(
                columns, first, partner, xor, [got], threads=threads
            )
            assert np.array_equal(got, expected), threads


#: Multi-shard specs (worker_chunk=256) covering every dataset kind.
SHARDED_SPECS = [
    DatasetSpec(kind="single", num_keys=1500, positions=6, label="shard-s"),
    DatasetSpec(kind="consec", num_keys=1500, positions=4, label="shard-c"),
    DatasetSpec(
        kind="pairs", num_keys=1500, pairs=((1, 3), (2, 5)), label="shard-p"
    ),
    DatasetSpec(kind="equality", num_keys=1500, pairs=((1, 2),), label="shard-e"),
    DatasetSpec(
        kind="longterm", num_keys=1200, stream_len=16, drop=77, gap=0,
        label="shard-lt",
    ),
    DatasetSpec(
        kind="longterm", num_keys=1200, stream_len=16, drop=100, gap=1,
        label="shard-lt-gap",
    ),
]


class TestShardAccumulation:
    """generate_dataset counts its shards in turn into one block."""

    @pytest.mark.parametrize(
        "spec",
        SHARDED_SPECS,
        ids=["single", "consec", "pairs", "equality", "longterm", "longterm-gap"],
    )
    def test_dataset_counts_every_shards_derived_keys(
        self, config, spec, backend
    ):
        """On either backend a multi-shard dataset equals one kernel pass
        over all its shards' keys: shard i holds at most worker_chunk keys,
        derived from the label ``<label>/shard<i>/part0``.  The labels
        decide every dataset's counters (and every cache entry's)."""
        counts = generate_dataset(spec, config, worker_chunk=256)
        num_shards = -(-spec.num_keys // 256)
        base, extra = divmod(spec.num_keys, num_shards)
        keys = np.concatenate([
            derive_keys(
                config, f"{spec.label}/shard{index}/part0",
                base + (1 if index < extra else 0), keylen=spec.keylen,
            )
            for index in range(num_shards)
        ])
        expected = np.zeros_like(counts)
        _accumulate(spec, keys, expected, threads=1)
        assert np.array_equal(counts, expected)

    def test_worker_chunk_participates_in_derivation(self, config):
        # Same num_keys, different chunking => different shard labels =>
        # statistically independent (but internally consistent) datasets.
        spec = DatasetSpec(kind="single", num_keys=600, positions=2, label="wc")
        a = generate_dataset(spec, config, worker_chunk=200)
        b = generate_dataset(spec, config, worker_chunk=300)
        assert a.sum() == b.sum() == 600 * 2
        assert not np.array_equal(a, b)

    def test_rejects_bad_worker_chunk(self, config):
        from repro.errors import DatasetError

        spec = DatasetSpec(kind="single", num_keys=10, positions=1)
        with pytest.raises(DatasetError):
            generate_dataset(spec, config, worker_chunk=0)


class TestStreamBlocks:
    """The reused-buffer window generator behind the numpy kernels."""

    def test_windows_reassemble_stream(self, rng):
        keys = _keys(rng, 8)
        ref = BatchRC4(keys).keystream_rows(100)
        got = np.zeros_like(ref)
        seen = np.zeros(100, dtype=np.int64)
        for start, view in BatchRC4(keys).stream_blocks(100, block=7, overlap=2):
            got[start : start + view.shape[0]] = view
            seen[start : start + view.shape[0]] += 1
        assert np.array_equal(ref, got)
        # every row produced, interior rows covered twice at window seams
        assert seen.min() >= 1

    def test_no_window_when_rows_within_overlap(self, rng):
        keys = _keys(rng, 2)
        assert list(BatchRC4(keys).stream_blocks(2, block=8, overlap=2)) == []

    def test_rejects_block_smaller_than_overlap(self, rng):
        keys = _keys(rng, 2)
        with pytest.raises(ValueError):
            list(BatchRC4(keys).stream_blocks(10, block=2, overlap=3))
