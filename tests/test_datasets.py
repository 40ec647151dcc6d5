"""Counting kernels, worker-pool generation, and the on-disk store."""

import numpy as np
import pytest

from repro.datasets import (
    DatasetSpec,
    consec_digraph_counts,
    equality_counts,
    generate_dataset,
    load_dataset,
    longterm_digraph_counts,
    pair_counts,
    save_dataset,
    single_byte_counts,
)
from repro.errors import DatasetError
from repro.rc4 import rc4_keystream


def _keys(rng, n=32):
    return rng.integers(0, 256, size=(n, 16), dtype=np.uint8)


class TestKernelsAgainstReference:
    def test_single_byte_counts_match_reference(self, rng):
        keys = _keys(rng, 16)
        counts = single_byte_counts(keys, 8)
        expected = np.zeros((8, 256), dtype=np.int64)
        for key in keys:
            stream = rc4_keystream(bytes(key), 8)
            for r, z in enumerate(stream):
                expected[r, z] += 1
        assert np.array_equal(counts, expected)

    def test_consec_digraph_counts_match_reference(self, rng):
        keys = _keys(rng, 12)
        counts = consec_digraph_counts(keys, 5)
        expected = np.zeros((5, 256, 256), dtype=np.int64)
        for key in keys:
            stream = rc4_keystream(bytes(key), 6)
            for r in range(5):
                expected[r, stream[r], stream[r + 1]] += 1
        assert np.array_equal(counts, expected)

    def test_pair_counts_match_reference(self, rng):
        keys = _keys(rng, 12)
        pairs = [(1, 3), (2, 16)]
        counts = pair_counts(keys, pairs)
        expected = np.zeros((2, 256, 256), dtype=np.int64)
        for key in keys:
            stream = rc4_keystream(bytes(key), 16)
            for idx, (a, b) in enumerate(pairs):
                expected[idx, stream[a - 1], stream[b - 1]] += 1
        assert np.array_equal(counts, expected)

    def test_equality_counts_match_reference(self, rng):
        keys = _keys(rng, 40)
        pairs = [(1, 2), (1, 3), (2, 4)]
        counts = equality_counts(keys, pairs)
        for idx, (a, b) in enumerate(pairs):
            manual = sum(
                1
                for key in keys
                if rc4_keystream(bytes(key), max(a, b))[a - 1]
                == rc4_keystream(bytes(key), max(a, b))[b - 1]
            )
            assert counts[idx, 0] == manual
            assert counts[idx, 1] == len(keys)

    def test_longterm_counts_binned_by_counter(self, rng):
        keys = _keys(rng, 4)
        counts = longterm_digraph_counts(keys, 64, drop=100, gap=0)
        expected = np.zeros((256, 256, 256), dtype=np.int64)
        for key in keys:
            stream = rc4_keystream(bytes(key), 100 + 65)[100:]
            for r in range(64):
                i = (100 + r + 1) % 256
                expected[i, stream[r], stream[r + 1]] += 1
        assert np.array_equal(counts, expected)

    def test_longterm_gap_one(self, rng):
        keys = _keys(rng, 2)
        counts = longterm_digraph_counts(keys, 16, drop=50, gap=1)
        expected = np.zeros((256, 256, 256), dtype=np.int64)
        for key in keys:
            stream = rc4_keystream(bytes(key), 50 + 18)[50:]
            for r in range(16):
                i = (50 + r + 1) % 256
                expected[i, stream[r], stream[r + 2]] += 1
        assert np.array_equal(counts, expected)

    def test_accumulation_into_out(self, rng):
        keys = _keys(rng, 8)
        out = single_byte_counts(keys, 4)
        single_byte_counts(keys, 4, out=out)
        assert out.sum() == 2 * 8 * 4

    def test_pair_validation(self, rng):
        with pytest.raises(ValueError):
            pair_counts(_keys(rng, 2), [])
        with pytest.raises(ValueError):
            pair_counts(_keys(rng, 2), [(1, 1)])

    def test_equality_pair_validation(self, rng):
        """equality_counts validates pairs the same way pair_counts does."""
        with pytest.raises(ValueError):
            equality_counts(_keys(rng, 2), [])
        with pytest.raises(ValueError):
            equality_counts(_keys(rng, 2), [(2, 2)])
        with pytest.raises(ValueError):
            equality_counts(_keys(rng, 2), [(0, 3)])
        with pytest.raises(ValueError):
            equality_counts(_keys(rng, 2), [(3, 0)])


class TestGenerateDataset:
    def test_inline_matches_kernel(self, config):
        spec = DatasetSpec(kind="single", num_keys=2048, positions=4, label="gd")
        counts = generate_dataset(spec, config)
        assert counts.shape == (4, 256)
        assert counts.sum() == 2048 * 4

    def test_spec_validation(self, config):
        with pytest.raises(DatasetError):
            generate_dataset(
                DatasetSpec(kind="single", num_keys=0, positions=4), config
            )
        with pytest.raises(DatasetError):
            generate_dataset(DatasetSpec(kind="pairs", num_keys=10), config)
        with pytest.raises(DatasetError):
            generate_dataset(DatasetSpec(kind="longterm", num_keys=10), config)


class TestStore:
    def test_roundtrip(self, tmp_path, config):
        spec = DatasetSpec(kind="single", num_keys=512, positions=2, label="st")
        counts = generate_dataset(spec, config)
        path = tmp_path / "ds.npz"
        save_dataset(path, counts, spec)
        loaded, loaded_spec = load_dataset(path)
        assert np.array_equal(loaded, counts)
        assert loaded_spec == spec

    def test_spec_mismatch_detected(self, tmp_path, config):
        spec = DatasetSpec(kind="single", num_keys=512, positions=2, label="st")
        counts = generate_dataset(spec, config)
        path = tmp_path / "ds.npz"
        save_dataset(path, counts, spec)
        other = DatasetSpec(kind="single", num_keys=1024, positions=2, label="st")
        with pytest.raises(DatasetError):
            load_dataset(path, expected_spec=other)

    def test_missing_file(self, tmp_path):
        with pytest.raises(DatasetError):
            load_dataset(tmp_path / "nope.npz")
