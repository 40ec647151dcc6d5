"""The ctypes boundary of the compiled backend (``repro.rc4._native``).

Two properties of the wrappers rather than of the kernels behind them:

- key widths outside 1..256 bytes are refused with the same
  :class:`~repro.errors.KeyLengthError` as the numpy engine, before any
  kernel runs (the AVX2 KSA transposes at most 256 key bytes per SIMD
  group).  The native checks run in a subprocess, so a regression that
  reaches the kernel fails the test instead of killing pytest;
- every binding hands its arrays to C as plain addresses, so a call
  leaves nothing for the cyclic garbage collector (``data_as()``
  pointers leave reference cycles behind on every call).
"""

import gc
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.datasets import (
    DatasetSpec,
    consec_digraph_counts,
    generate_dataset,
    longterm_digraph_counts,
    single_byte_counts,
)
from repro.errors import KeyLengthError
from repro.rc4 import _native
from repro.rc4.batch import batch_keystream

REPO_SRC = str(Path(__file__).resolve().parent.parent / "src")

#: Key widths the RC4 key schedule cannot take.
BAD_WIDTHS = [0, 257, 300]

#: Calls every native RC4 entry point, and a dataset through them, on
#: 32-key blocks of each bad width with the SIMD tier on (a whole SIMD
#: group, where a 300-byte key used to overflow the KSA's key
#: transpose), and prints which exception each raised.
_KEY_WIDTH_PROBE = """
import json
import sys

import numpy as np

from repro.datasets import DatasetSpec, generate_dataset
from repro.config import ReproConfig
from repro.rc4 import _native

assert _native.available(), _native.status()
calls = {
    "batch_keystream": lambda keys: _native.batch_keystream(
        keys, 8, threads=1, simd=True),
    "count_single": lambda keys: _native.count_single(
        keys, 4, np.zeros((4, 256), np.int64), threads=1, simd=True),
    "count_digraph": lambda keys: _native.count_digraph(
        keys, 2, np.zeros((2, 256, 256), np.int64), threads=1, simd=True),
    "count_longterm": lambda keys: _native.count_longterm(
        keys, 4, 0, 1, np.zeros((256, 256, 256), np.int64), threads=1,
        simd=True),
}
raised = {}
for width in json.loads(sys.argv[1]):
    keys = np.ones((32, width), dtype=np.uint8)
    for name, call in calls.items():
        try:
            call(keys)
            raised[f"{name}/{width}"] = None
        except Exception as exc:
            raised[f"{name}/{width}"] = type(exc).__name__
    spec = DatasetSpec(kind="single", num_keys=64, positions=4, keylen=width)
    try:
        generate_dataset(spec, ReproConfig(seed=1), threads=1)
        raised[f"generate_dataset/{width}"] = None
    except Exception as exc:
        raised[f"generate_dataset/{width}"] = type(exc).__name__
print(json.dumps(raised))
"""


@pytest.fixture
def native():
    if not _native.available():
        pytest.skip("native backend unavailable (no C compiler?)")


class TestKeyWidth:
    def test_native_entry_points_refuse_bad_widths(self, native):
        env = dict(os.environ, PYTHONPATH=REPO_SRC, REPRO_NATIVE_SIMD="1")
        proc = subprocess.run(
            [sys.executable, "-c", _KEY_WIDTH_PROBE, json.dumps(BAD_WIDTHS)],
            capture_output=True,
            text=True,
            env=env,
            timeout=300,
        )
        assert proc.returncode == 0, (proc.returncode, proc.stderr[-2000:])
        raised = json.loads(proc.stdout.strip().splitlines()[-1])
        assert len(raised) == 5 * len(BAD_WIDTHS)
        assert set(raised.values()) == {"KeyLengthError"}, raised

    @pytest.mark.parametrize("width", BAD_WIDTHS)
    def test_numpy_engine_raises_the_same_error(
        self, monkeypatch, config, width
    ):
        monkeypatch.setattr(_native, "available", lambda: False)
        keys = np.ones((32, width), dtype=np.uint8)
        for call in (
            lambda: batch_keystream(keys, 8),
            lambda: single_byte_counts(keys, 4),
            lambda: consec_digraph_counts(keys, 2),
            lambda: longterm_digraph_counts(keys, 4, drop=0, gap=1),
            lambda: generate_dataset(
                DatasetSpec(kind="single", num_keys=64, positions=4,
                            keylen=width),
                config,
            ),
        ):
            with pytest.raises(KeyLengthError):
                call()


def _binding_calls(rng):
    """One small call per binding, on inputs built once."""
    keys = rng.integers(0, 256, (4, 16), dtype=np.uint8)
    single = np.zeros((4, 256), np.int64)
    digraph = np.zeros((2, 256, 256), np.int64)
    longterm = np.zeros((256, 256, 256), np.int64)
    columns = rng.integers(0, 256, (8, 16), dtype=np.uint8)
    rows = np.zeros((2, 65536), np.uint32)
    sorted_lam = np.sort(rng.random((3, 256)))[:, ::-1].copy()
    heap = np.zeros(64, dtype=_native.lazy_walk_dtype(3))
    ranks = np.zeros((2, 3), np.uint8)
    scores = np.zeros(2)
    counts = rng.random((2, 256))
    log_p = np.log(np.full((2, 256), 1 / 256))
    fm_rows = [np.ones(65536, np.uint32)]
    cells = [([0x0001], [-16.0], -16.1)]
    terms = [[(np.ones(65536, np.uint32), 0x4142, 0.5, -3.0)]]
    lam = rng.random((3, 256, 256))
    alphabet = np.array([0x61, 0x62], np.uint8)
    best = rng.random((3, 2))
    arg = np.zeros((3, 2), np.uint8)
    calls = {
        "batch_keystream": lambda: _native.batch_keystream(
            keys, 4, threads=1),
        "count_single": lambda: _native.count_single(
            keys, 4, single, threads=1),
        "count_digraph": lambda: _native.count_digraph(
            keys, 2, digraph, threads=1),
        "count_longterm": lambda: _native.count_longterm(
            keys, 2, 0, 1, longterm, threads=1),
        "count_digraph_rows": lambda: _native.count_digraph_rows(
            columns, [0, 2], [-1, 4], [0, 7], [rows], threads=1),
        "lazy_walk": lambda: _native.lazy_walk(
            sorted_lam, heap, 1, ranks, scores),
        "xor_loglik": lambda: _native.xor_loglik(counts, log_p),
        "transition_loglik": lambda: _native.transition_loglik(
            fm_rows, cells, 1.0, terms),
        "lazy_lists": lambda: list(_native.lazy_lists(
            lam, alphabet, 0x3B, best, arg, 4)),
    }
    if _native.numpy_multinomial() is not None:
        probs, gens = [np.full(8, 1 / 8)], [np.random.PCG64(1)]
        out = [np.zeros(8, np.int64)]
        calls["multinomial_rows"] = lambda: _native.multinomial_rows(
            10, probs, gens, out, threads=1)
    return calls


class TestNoCyclicGarbage:
    def test_bindings_leave_nothing_for_the_collector(self, native, rng):
        leaks = {}
        for name, call in _binding_calls(rng).items():
            call()
            gc.collect()
            gc.disable()
            try:
                for _ in range(1000):
                    call()
                leaks[name] = gc.collect()
            finally:
                gc.enable()
        assert leaks == dict.fromkeys(leaks, 0), leaks
