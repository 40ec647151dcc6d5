"""The candidate-recovery engine against its scalar references.

Five equivalence layers:

1. **Golden ordering** — Algorithm 2 (lazy list Viterbi, vectorized
   backtrack) against a pinned copy of the seed per-row argpartition
   decoder, bit-identical scores *and* plaintexts on continuous inputs
   (where the seed's tie handling is immaterial), charset-restricted and
   full-alphabet.
2. **Canonical order** — Algorithm 2 against a stable-argsort reference
   in the same arithmetic, rows and score bits, on inputs full of exact
   ties: integer scores, signed zeros, ``-inf`` transitions and partial
   scores, lists cut at N = 1, at the sequence space or past it, one
   unknown byte, first-step lists of one, known bytes in or out of the
   charset, the full alphabet, L = 1100 and random tie-heavy inputs
   (hypothesis).  Besides: all-tied inputs come out colexicographic,
   shorter lists are prefixes of longer ones, concurrent calls share no
   state, memory follows the outputs, and lists that cannot be
   allocated raise a typed error.
3. **Ground truth** — hypothesis property tests against
   :meth:`PlaintextHmm.brute_force` on tiny alphabets, including
   integer-valued likelihoods that force exact score ties.
4. **Streams** — ``lazy_candidate_blocks`` against ``lazy_candidates``
   against ``algorithm1``, and the native walk against the ``heapq``
   fallback: the same rows, score bits and block sizes.
5. **Accounting** — the batched oracle/pruner walk
   (:meth:`BruteForceOracle.search_matrix`) against the scalar
   generator pipeline ``search(pruner.filter(...))``: same attempts,
   same pruned counts, same errors, for hits, budgets and exhaustion.

Layers 1 to 4 run under the numpy fallback and the native backend at 1-3
threads: Algorithm 2's lazy lists on the Python engine and the C engine,
the walk on ``heapq`` and the C kernel.
"""

from __future__ import annotations

import functools
import json
import os
import subprocess
import sys
import threading
import time
import tracemalloc
from itertools import islice, product
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import get_config
from repro.core import (
    CandidateMatrix,
    PlaintextHmm,
    algorithm1,
    algorithm2,
    lazy_candidate_blocks,
    lazy_candidates,
)
from repro.errors import AttackError, CandidateError
from repro.rc4 import _native
from repro.tls.bruteforce import BruteForceOracle, CandidatePruner


@pytest.fixture
def backend(engine_threads, monkeypatch):
    """The suites under the numpy fallback and the native backend at 1-3
    threads (the kernels take their thread count from the environment).
    Algorithm 2 runs its lazy lists on the Python engine under the
    fallback and on the single-threaded C engine otherwise, so the
    thread count must change nothing."""
    monkeypatch.setenv("REPRO_NATIVE_THREADS", str(engine_threads))

# --------------------------------------------------------------------------
# Seed reference: the pre-vectorization Algorithm 2 (per-row argpartition
# over the full A*K extension, per-candidate Python backtrack), pinned
# here as the golden ordering oracle.
# --------------------------------------------------------------------------

_SEED_CHUNK = 16


def _seed_top_k_desc(values: np.ndarray, k: int) -> np.ndarray:
    n = values.shape[1]
    if k >= n:
        return np.argsort(-values, axis=1, kind="stable")
    part = np.argpartition(-values, k - 1, axis=1)[:, :k]
    part_vals = np.take_along_axis(values, part, axis=1)
    order = np.lexsort((part, -part_vals), axis=1)
    return np.take_along_axis(part, order, axis=1)


def seed_algorithm2(
    log_likelihoods: np.ndarray,
    first_byte: int,
    last_byte: int,
    num_candidates: int,
    *,
    charset: bytes | None = None,
) -> tuple[list[bytes], np.ndarray]:
    lam = np.asarray(log_likelihoods, dtype=np.float64)
    num_steps = lam.shape[0]
    if charset is None:
        alphabet = np.arange(256, dtype=np.intp)
    else:
        alphabet = np.asarray(sorted(set(charset)), dtype=np.intp)
    a_size = alphabet.size

    scores = lam[0, first_byte, alphabet][:, None]
    back: list[np.ndarray | None] = [None]
    for step in range(1, num_steps - 1):
        k_prev = scores.shape[1]
        trans = lam[step][np.ix_(alphabet, alphabet)]
        k_new = min(num_candidates, a_size * k_prev)
        new_scores = np.empty((a_size, k_new), dtype=np.float64)
        new_back = np.empty((a_size, k_new, 2), dtype=np.int32)
        flat_prev = scores.reshape(-1)
        for start in range(0, a_size, _SEED_CHUNK):
            stop = min(start + _SEED_CHUNK, a_size)
            ext = flat_prev[None, :] + np.repeat(
                trans[:, start:stop].T, k_prev, axis=1
            )
            top = _seed_top_k_desc(ext, k_new)
            new_scores[start:stop] = np.take_along_axis(ext, top, axis=1)
            new_back[start:stop, :, 0], new_back[start:stop, :, 1] = np.divmod(
                top, k_prev
            )
        scores = new_scores
        back.append(new_back)

    k_prev = scores.shape[1]
    trans_last = lam[num_steps - 1][alphabet, last_byte]
    ext = (scores + trans_last[:, None]).reshape(-1)
    k_final = min(num_candidates, ext.size)
    top = _seed_top_k_desc(ext[None, :], k_final)[0]
    final_scores = ext[top]
    from_idx, rank = np.divmod(top, k_prev)

    plaintexts: list[bytes] = []
    alphabet_bytes = alphabet.astype(np.uint8)
    for f_idx, f_rank in zip(from_idx, rank):
        chars = bytearray()
        idx, rnk = int(f_idx), int(f_rank)
        for step in range(num_steps - 2, 0, -1):
            chars.append(alphabet_bytes[idx])
            pointer = back[step]
            idx, rnk = int(pointer[idx, rnk, 0]), int(pointer[idx, rnk, 1])
        chars.append(alphabet_bytes[idx])
        plaintexts.append(bytes(reversed(chars)))
    return plaintexts, final_scores


_COOKIE_CHARSET = bytes(
    sorted(
        set(range(0x21, 0x7F)) - {0x22, 0x2C, 0x3B, 0x5C}
    )
)


def _assert_matches_seed(lam, first, last, n, charset):
    ref_p, ref_s = seed_algorithm2(lam, first, last, n, charset=charset)
    got = algorithm2(lam, first, last, n, charset=charset)
    assert isinstance(got, CandidateMatrix)
    np.testing.assert_array_equal(got.log_likelihoods, ref_s)
    assert list(got.plaintexts) == ref_p


@pytest.mark.usefixtures("backend")
class TestGoldenOrdering:
    """Bit-identical to the seed decoder on continuous (tie-free) data."""

    def test_charset_restricted_n4096(self, rng):
        lam = rng.normal(size=(5, 256, 256))
        _assert_matches_seed(lam, 0x41, 0x3B, 1 << 12, _COOKIE_CHARSET)

    def test_full_alphabet_n1024(self, rng):
        lam = rng.normal(size=(4, 256, 256))
        _assert_matches_seed(lam, 7, 201, 1 << 10, None)

    def test_single_unknown_byte(self, rng):
        lam = rng.normal(size=(2, 256, 256))
        _assert_matches_seed(lam, 1, 2, 100, _COOKIE_CHARSET)

    def test_list_larger_than_space(self, rng):
        lam = rng.normal(size=(4, 256, 256))
        _assert_matches_seed(lam, 0, 255, 10_000, b"abcde")

    def test_stale_candidate_mem_is_ignored(self, rng, monkeypatch):
        """Algorithm 2 has no memory knob: a ``REPRO_CANDIDATE_MEM`` left
        in the environment, even a value the removed parser rejected,
        raises nothing and changes no output bit."""
        lam = rng.normal(size=(4, 256, 256))
        for raw in ("40000", "12Q", "-1", ""):
            monkeypatch.setenv("REPRO_CANDIDATE_MEM", raw)
            get_config()
            _assert_matches_seed(lam, 3, 9, 256, _COOKIE_CHARSET)


# --------------------------------------------------------------------------
# Canonical reference: every whole pooled row stably argsorted, in the
# engine's arithmetic, so exact ties anywhere come out in flat-index order.
# --------------------------------------------------------------------------


def canonical_algorithm2(lam, first, last, n, charset=None):
    """Rows and scores of the N best plaintexts, each step's list the
    first N of a stable argsort of its whole pooled row ``neg_trans[v, b]
    - score[b, i]`` (flat index ``b * K_prev + i``), scores kept as
    ``-pooled``."""
    lam = np.asarray(lam, dtype=np.float64)
    if charset is None:
        alphabet = np.arange(256)
    else:
        alphabet = np.array(sorted(set(charset)))
    last_step = lam.shape[0] - 1
    scores = lam[0, first, alphabet][:, None]  # (ending value, rank)
    paths = alphabet.astype(np.uint8)[:, None, None]  # (value, rank, byte)
    for step in range(1, last_step + 1):
        ends = alphabet if step < last_step else np.array([last])
        neg_trans = -lam[step][np.ix_(alphabet, ends)].T  # (to, from)
        pooled = neg_trans[:, :, None] - scores[None, :, :]
        pooled = pooled.reshape(ends.size, -1)
        order = np.argsort(pooled, axis=1, kind="stable")[:, :n]
        pred, rank = np.divmod(order, scores.shape[1])
        scores = -np.take_along_axis(pooled, order, axis=1)
        paths = paths[pred, rank]
        if step < last_step:
            ending = np.broadcast_to(
                ends.astype(np.uint8)[:, None, None], paths.shape[:2] + (1,)
            )
            paths = np.concatenate([paths, ending], axis=2)
    return paths[0], scores[0]


#: Tie-heavy value kinds for whole likelihood arrays.
_VALUE_KINDS = {
    "normal": lambda rng, shape: rng.normal(size=shape),
    "integers": lambda rng, shape: rng.integers(0, 3, size=shape).astype(
        np.float64
    ),
    "signed-zeros": lambda rng, shape: rng.choice([-1.0, -0.0, 0.0, 1.0], size=shape),
    "minus-inf": lambda rng, shape: np.where(
        rng.random(size=shape) < 0.3, -np.inf, rng.normal(size=shape)
    ),
}


def _assert_matches_reference(lam, first, last, n, charset):
    rows, scores = canonical_algorithm2(lam, first, last, n, charset)
    got = algorithm2(lam, first, last, n, charset=charset)
    np.testing.assert_array_equal(got.matrix, rows)
    np.testing.assert_array_equal(
        got.log_likelihoods.view(np.uint64), scores.view(np.uint64)
    )
    return got


@pytest.mark.usefixtures("backend")
class TestCanonicalReference:
    """Rows and score bits equal the reference wherever scores tie, on
    both Algorithm 2 engines."""

    @pytest.mark.parametrize("n", [1, 7, 40, 97, 200])
    def test_integer_ties_across_the_nth_boundary(self, rng, n):
        # Scores in {0, 1, 2}: the N-th value is shared by extensions
        # from many predecessors, so the cut falls inside a tie group.
        lam = rng.integers(0, 3, size=(4, 256, 256)).astype(np.float64)
        _assert_matches_reference(lam, 0x41, 0x3B, n, b"abcdefghi")

    @pytest.mark.parametrize(
        "values", [(-0.0, 0.0), (-1.0, -0.0, 0.0, 1.0)], ids=["zeros", "cancel"]
    )
    def test_signed_zeros(self, rng, values):
        # -0.0 and +0.0 tie and fall to the flat index; each keeps the sign
        # bit of -(neg_trans - score), which score + trans would flip for
        # zero sums of opposite signs.
        lam = rng.choice(values, size=(4, 256, 256))
        for n in (1, 25, 300):
            _assert_matches_reference(lam, 0x41, 0x3B, n, b"abcdef")

    def test_minus_inf_transitions_and_partial_scores(self, rng):
        lam = rng.normal(size=(4, 256, 256))
        lam[rng.random(size=lam.shape) < 0.3] = -np.inf
        lam[0, 0x41, [0x61, 0x62]] = -np.inf  # -inf partial scores
        lam[2][:, 0x63] = -np.inf  # no way into 'c' at the last unknown
        for n in (5, 40, 216, 300):
            _assert_matches_reference(lam, 0x41, 0x3B, n, b"abcdef")

    @pytest.mark.parametrize("n", [1, 6**4, 6**4 + 5])
    def test_n_one_and_beyond_the_sequence_space(self, rng, n):
        lam = rng.integers(0, 3, size=(5, 256, 256)).astype(np.float64)
        got = _assert_matches_reference(lam, 1, 2, n, b"uvwxyz")
        assert len(got) == min(n, 6**4)

    def test_one_unknown_byte(self, rng):
        lam = rng.integers(0, 2, size=(2, 256, 256)).astype(np.float64)
        for n in (1, 50, len(_COOKIE_CHARSET) + 3):
            _assert_matches_reference(lam, 7, 9, n, _COOKIE_CHARSET)

    def test_full_alphabet(self, rng):
        lam = rng.integers(0, 3, size=(3, 256, 256)).astype(np.float64)
        for n in (1, 97, 1000):
            _assert_matches_reference(lam, 7, 201, n, None)

    def test_first_step_lists_of_one(self, rng):
        # Two unknown bytes: the inner step extends the step-0 nodes,
        # each a list of one, and the last step draws on those lists.
        lam = rng.integers(0, 3, size=(3, 256, 256)).astype(np.float64)
        charset = bytes(range(0x21, 0x21 + 90))
        for n in (1, 30, 90, 91, 2000):
            _assert_matches_reference(lam, 0x3D, 0x3B, n, charset)

    def test_whole_pool(self, rng):
        """N equal to the sequence space: every node runs out of
        extensions just as the last row is taken."""
        lam = rng.normal(size=(4, 256, 256))
        got = _assert_matches_reference(lam, 3, 4, 5**3, b"vwxyz")
        assert len(set(got.plaintexts)) == 5**3

    def test_single_final_row(self, rng):
        """The one node of the last step (ending on mL) is asked for more
        rows than any of its predecessors holds."""
        lam = rng.normal(size=(3, 256, 256))
        charset = bytes(range(0x21, 0x21 + 90))
        got = _assert_matches_reference(lam, 0x3D, 0x3B, 1000, charset)
        assert len(got) == 1000

    @pytest.mark.parametrize(
        ("first", "last"),
        [(0, 255), (255, 0), (0x61, 0x66)],
        ids=["low-high", "high-low", "in-charset"],
    )
    def test_known_bytes_in_or_out_of_the_charset(self, rng, first, last):
        lam = rng.integers(0, 3, size=(4, 256, 256)).astype(np.float64)
        for n in (1, 50, 216):
            _assert_matches_reference(lam, first, last, n, b"abcdef")

    @pytest.mark.parametrize(
        "charset", [b"fedcba", b"aabbccddeeffcab"], ids=["reversed", "repeated"]
    )
    def test_charset_is_a_set(self, rng, charset):
        lam = rng.integers(0, 3, size=(4, 256, 256)).astype(np.float64)
        ref = algorithm2(lam, 1, 2, 150, charset=b"abcdef")
        got = algorithm2(lam, 1, 2, 150, charset=charset)
        np.testing.assert_array_equal(got.matrix, ref.matrix)
        np.testing.assert_array_equal(
            got.log_likelihoods.view(np.uint64), ref.log_likelihoods.view(np.uint64)
        )

    @pytest.mark.parametrize(
        "value", [0.0, -0.0, -np.inf], ids=["zero", "minus-zero", "minus-inf"]
    )
    def test_all_tied_comes_out_colexicographic(self, value):
        """When every plaintext scores the same, each node lists its
        extensions by predecessor, then by the predecessor's rank: the
        plaintexts in colexicographic order (last byte most significant)."""
        lam = np.full((4, 256, 256), value)
        charset = b"zyx!"
        got = _assert_matches_reference(lam, 0x41, 0x3B, 4**3 + 5, charset)
        expected = [
            bytes(reversed(p)) for p in product(sorted(charset), repeat=3)
        ]
        assert list(got.plaintexts) == expected

    @pytest.mark.parametrize("kind", list(_VALUE_KINDS))
    def test_shorter_lists_are_prefixes(self, kind):
        """The N best are the first N of any longer list, bit for bit: a
        walk stopped early leaves no trace in the rows it did produce."""
        lam = _VALUE_KINDS[kind](np.random.default_rng(11), (5, 256, 256))
        full = algorithm2(lam, 0x41, 0x3B, 700, charset=b"abcdefg")
        for n in (1, 2, 7, 49, 300, 699):
            got = algorithm2(lam, 0x41, 0x3B, n, charset=b"abcdefg")
            np.testing.assert_array_equal(got.matrix, full.matrix[:n])
            np.testing.assert_array_equal(
                got.log_likelihoods.view(np.uint64),
                full.log_likelihoods[:n].view(np.uint64),
            )

    @pytest.mark.parametrize("kind", list(_VALUE_KINDS))
    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_random_inputs(self, kind, data):
        """Random charsets of 2-30 bytes, 1-5 unknown bytes and N from 1
        to past the sequence space."""
        a_size = data.draw(st.sampled_from([2, 3, 5, 9, 30]), label="a_size")
        unknown = data.draw(
            st.integers(1, 5 if a_size < 30 else 3), label="unknown"
        )
        space = a_size**unknown
        n = data.draw(st.integers(1, min(space + 3, 400)), label="n")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        charset = rng.choice(256, size=a_size, replace=False).astype(np.uint8)
        first, last = (int(b) for b in rng.integers(0, 256, size=2))
        lam = _VALUE_KINDS[kind](rng, (unknown + 1, 256, 256))
        got = _assert_matches_reference(lam, first, last, n, charset.tobytes())
        assert len(got) == min(n, space)

    def test_concurrent_calls_keep_their_own_state(self):
        """Calls from several threads interleave inside the walk (the
        interpreter switches between them, here every few microseconds)
        but share no state.  A walk corrupted by shared state can spin
        forever, so the threads are daemons given a minute in all."""
        inputs = [
            np.random.default_rng(seed)
            .integers(0, 3, size=(5, 256, 256))
            .astype(np.float64)
            for seed in range(3)
        ] * 2

        def decode(lam):
            return algorithm2(lam, 1, 2, 2000, charset=b"abcdefgh")

        serial = [decode(lam) for lam in inputs[:3]]
        results = {}
        workers = [
            threading.Thread(
                target=lambda i=i, lam=lam: results.update({i: decode(lam)}),
                daemon=True,
            )
            for i, lam in enumerate(inputs)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for worker in workers:
                worker.start()
            deadline = time.monotonic() + 60
            for worker in workers:
                worker.join(max(0.0, deadline - time.monotonic()))
        finally:
            sys.setswitchinterval(interval)
        assert not any(worker.is_alive() for worker in workers)
        assert sorted(results) == list(range(len(inputs)))
        for i, got in results.items():
            ref = serial[i % 3]
            np.testing.assert_array_equal(got.matrix, ref.matrix)
            np.testing.assert_array_equal(
                got.log_likelihoods.view(np.uint64),
                ref.log_likelihoods.view(np.uint64),
            )

    def test_long_plaintext(self, rng):
        """L = 1100: requests walk back over a thousand steps without
        Python recursion."""
        lam = np.broadcast_to(rng.normal(size=(256, 256)), (1100, 256, 256))
        _assert_matches_reference(lam, 7, 9, 64, b"abc")

    def test_memory_follows_the_outputs(self):
        """N = 2^16 for a 16-byte cookie: the lazy lists keep a few
        extensions per output (about 21 MiB on the Python engine, half
        that on the C engine), where N of them per node and step would
        take about 500 MiB.  The C engine's lists are invisible to
        tracemalloc, so a child process measures the peak resident
        growth of the call."""
        growth = _run_probe(_MEMORY_PROBE)
        assert growth < 64 << 20, growth

    def test_failed_allocation_raises_a_typed_error(self):
        """A child process caps its address space 32 MiB above what it
        uses, then asks for N = 2^22: the lists run out of memory, which
        must surface as a CandidateError (the process survives it and
        decodes again once the cap is lifted)."""
        if not sys.platform.startswith("linux"):
            pytest.skip("reads the address-space size from /proc")
        message = _run_probe(_ALLOCATION_PROBE)
        assert message.startswith("Algorithm 2 ran out of memory"), message


REPO_SRC = str(Path(__file__).resolve().parent.parent / "src")

#: Prints the peak resident growth, in bytes, of one N = 2^16 decode.
_MEMORY_PROBE = """
import json
import resource

import numpy as np

from repro.core import algorithm2
from repro.tls.cookies import COOKIE_CHARSET

lam = np.random.default_rng(7).normal(size=(17, 256, 256))
algorithm2(lam, 0x3D, 0x3B, 2, charset=COOKIE_CHARSET)
before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
got = algorithm2(lam, 0x3D, 0x3B, 1 << 16, charset=COOKIE_CHARSET)
assert len(got) == 1 << 16
after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
print(json.dumps((after - before) * 1024))
"""

#: Prints the message of the error a decode raises when its lists cannot
#: be allocated, after checking that a decode works again without a cap.
_ALLOCATION_PROBE = """
import json
import resource

import numpy as np

from repro.core import algorithm2
from repro.errors import CandidateError

lam = np.random.default_rng(7).normal(size=(17, 256, 256))
charset = bytes(range(0x21, 0x21 + 90))
small = algorithm2(lam, 0x3D, 0x3B, 1000, charset=charset)
with open("/proc/self/status") as status:
    size = next(int(line.split()[1]) << 10
                for line in status if line.startswith("VmSize:"))
unlimited = resource.RLIM_INFINITY
resource.setrlimit(resource.RLIMIT_AS, (size + (32 << 20), unlimited))
try:
    algorithm2(lam, 0x3D, 0x3B, 1 << 22, charset=charset)
    message = None
except CandidateError as exc:
    message = str(exc)
resource.setrlimit(resource.RLIMIT_AS, (unlimited, unlimited))
again = algorithm2(lam, 0x3D, 0x3B, 1000, charset=charset)
assert np.array_equal(again.matrix, small.matrix)
print(json.dumps(message))
"""


def _run_probe(script: str):
    """Run ``script`` in a child process on the engine this test selects
    (the numpy fallback is passed on as ``REPRO_NATIVE=0``) and return
    the JSON value it prints last."""
    env = dict(os.environ, PYTHONPATH=REPO_SRC)
    if not _native.available():
        env["REPRO_NATIVE"] = "0"
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True,
        env=env, timeout=300,
    )
    assert proc.returncode == 0, (proc.returncode, proc.stderr[-2000:])
    return json.loads(proc.stdout.strip().splitlines()[-1])


# --------------------------------------------------------------------------
# Ground truth on tiny alphabets, including exact ties.
# --------------------------------------------------------------------------


def _assert_matches_brute_force(hmm: PlaintextHmm, n: int) -> None:
    ref = hmm.brute_force()
    got = hmm.n_best(n)
    k = min(n, len(ref))
    assert len(got) == k
    ref_scores = np.asarray(ref.log_likelihoods)[:k]
    np.testing.assert_array_equal(np.asarray(got.log_likelihoods), ref_scores)
    # Ordering within an exactly-tied score group is implementation
    # defined, so compare group-wise: every group entirely inside the
    # truncated list must match as a set; the group cut by the
    # truncation boundary must be a subset of the reference group.
    ref_all = list(zip(ref.plaintexts, np.asarray(ref.log_likelihoods)))
    got_all = list(zip(got.plaintexts, np.asarray(got.log_likelihoods)))
    i = 0
    while i < k:
        score = got_all[i][1]
        group = {p for p, s in got_all if s == score}
        ref_group = {p for p, s in ref_all if s == score}
        assert group <= ref_group
        i += len(group)
    for plaintext, score in got_all:
        assert hmm.sequence_log_likelihood(plaintext) == pytest.approx(score)


@st.composite
def _tiny_hmm(draw, *, integer_scores: bool):
    length = draw(st.integers(min_value=1, max_value=4))
    a_size = draw(st.integers(min_value=2, max_value=5))
    charset = bytes(range(65, 65 + a_size))
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    rng = np.random.default_rng(seed)
    if integer_scores:
        lam = rng.integers(0, 3, size=(length + 1, 256, 256)).astype(np.float64)
    else:
        lam = rng.normal(size=(length + 1, 256, 256))
    first = draw(st.integers(min_value=0, max_value=255))
    last = draw(st.integers(min_value=0, max_value=255))
    n = draw(st.integers(min_value=1, max_value=50))
    return PlaintextHmm(lam, first, last, charset=charset), n


@pytest.mark.usefixtures("backend")
class TestBruteForceGroundTruth:
    @settings(max_examples=25, deadline=None)
    @given(_tiny_hmm(integer_scores=False))
    def test_continuous_scores(self, case):
        hmm, n = case
        _assert_matches_brute_force(hmm, n)

    @settings(max_examples=25, deadline=None)
    @given(_tiny_hmm(integer_scores=True))
    def test_exact_ties(self, case):
        hmm, n = case
        _assert_matches_brute_force(hmm, n)


@pytest.mark.usefixtures("backend")
class TestNonFiniteLikelihoods:
    """The canonical order needs comparable scores: NaN and +inf are
    rejected; -inf (an impossible pair) is allowed."""

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejected(self, rng, bad):
        lam = rng.normal(size=(4, 256, 256))
        lam[2, 0x41, 0x42] = bad
        with pytest.raises(CandidateError, match="NaN or \\+inf"):
            algorithm2(lam, 1, 2, 64, charset=_COOKIE_CHARSET)

    def test_minus_inf_allowed(self, rng):
        lam = rng.normal(size=(4, 256, 256))
        lam[1][:, ::3] = -np.inf
        _assert_matches_seed(lam, 0x41, 0x3B, 512, _COOKIE_CHARSET)


# --------------------------------------------------------------------------
# Streaming equivalence.
# --------------------------------------------------------------------------


def _lazy_input(case: str) -> tuple[np.ndarray, int | None]:
    """A named input of the walk comparisons and its row limit (None:
    walk to exhaustion)."""
    rng = np.random.default_rng(sum(case.encode()))
    if case == "normal":
        return rng.normal(size=(6, 256)), 1 << 12
    if case == "integer-ties":
        return rng.integers(0, 3, size=(6, 256)).astype(np.float64), 1 << 12
    if case == "signed-zeros":
        return np.where(rng.random(size=(5, 256)) < 0.5, -0.0, 0.0), 1 << 12
    if case == "L1-exhausted":
        return rng.normal(size=(1, 256)), None
    if case == "L12-2^15":
        return rng.normal(size=(12, 256)), 1 << 15
    if case == "L300":
        return rng.normal(size=(300, 256)), 1 << 10
    if case == "minus-inf-rows":
        # Rows with several -inf entries and only 3 * 128 * 4 finite
        # candidates, so the walk runs on into -inf ones, whose children
        # would score -inf - -inf = NaN.
        lam = rng.normal(size=(3, 256))
        lam[0, 3:] = -np.inf
        lam[1, ::2] = -np.inf
        lam[2, rng.permutation(256)[4:]] = -np.inf
        return lam, 1 << 12
    raise AssertionError(case)


_LAZY_CASES = (
    "normal", "integer-ties", "signed-zeros", "L1-exhausted", "L12-2^15",
    "L300", "minus-inf-rows",
)


def _walk(lam, block_size, limit=None):
    """Concatenated rows, scores and block sizes of a walk, stopping at the
    first block that reaches ``limit`` rows."""
    rows, scores, sizes = [], [], []
    seen = 0
    for block, block_scores in lazy_candidate_blocks(lam, block_size=block_size):
        rows.append(block)
        scores.append(block_scores)
        sizes.append(block_scores.shape[0])
        seen += block_scores.shape[0]
        if limit is not None and seen >= limit:
            break
    return np.concatenate(rows), np.concatenate(scores), sizes


@functools.cache
def _fallback_walk(case, block_size):
    """The ``heapq`` fallback's walk of a named input, computed once."""
    lam, limit = _lazy_input(case)
    with pytest.MonkeyPatch.context() as m:
        m.setattr(_native, "available", lambda: False)
        return _walk(lam, block_size, limit)


def _assert_same_walk(got, ref):
    np.testing.assert_array_equal(got[0], ref[0])
    np.testing.assert_array_equal(got[1].view(np.int64), ref[1].view(np.int64))
    assert got[2] == ref[2]


@pytest.mark.usefixtures("engine_threads")
class TestLazyBlocks:
    """The walk under the ``heapq`` fallback and the native kernel (which
    is single-threaded, so the thread counts only repeat it)."""

    def test_blocks_concat_equals_per_item(self, rng):
        lam = rng.normal(size=(5, 256))
        items = list(islice(lazy_candidates(lam), 500))
        rows = []
        scores = []
        for block, block_scores in lazy_candidate_blocks(lam, block_size=17):
            rows.extend(r.tobytes() for r in block)
            scores.extend(block_scores.tolist())
            if len(rows) >= 500:
                break
        assert rows[:500] == [p for p, _ in items]
        assert scores[:500] == [s for _, s in items]

    def test_matches_algorithm1(self, rng):
        lam = rng.normal(size=(4, 256))
        cands, scores = algorithm1(lam, 300)
        lazy = list(islice(lazy_candidates(lam), 300))
        assert [p for p, _ in lazy] == list(cands)
        np.testing.assert_allclose([s for _, s in lazy], scores, rtol=0, atol=1e-9)

    def test_exhausts_tiny_space(self):
        lam = np.zeros((1, 256))
        lam[0, :3] = [5.0, 4.0, 3.0]
        total = sum(
            block.shape[0] for block, _ in lazy_candidate_blocks(lam, block_size=100)
        )
        assert total == 256

    def test_block_size_validated(self, rng):
        with pytest.raises(CandidateError):
            next(lazy_candidate_blocks(rng.normal(size=(2, 256)), block_size=0))

    @pytest.mark.parametrize("block_size", [1, 17, 256])
    @pytest.mark.parametrize("case", _LAZY_CASES)
    def test_matches_fallback_bit_for_bit(self, case, block_size):
        lam, limit = _lazy_input(case)
        got = _walk(lam, block_size, limit)
        _assert_same_walk(got, _fallback_walk(case, block_size))
        if limit is None:
            assert got[0].shape[0] == 256 ** lam.shape[0]

    def test_minus_inf_children_stay_minus_inf(self):
        lam, limit = _lazy_input("minus-inf-rows")
        _, scores, _ = _walk(lam, 256, limit)
        finite = 3 * 128 * 4
        assert np.all(np.diff(scores[:finite]) <= 0)
        assert np.isfinite(scores[:finite]).all()
        assert np.isneginf(scores[finite:]).all()

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_nan_and_plus_inf_rejected(self, rng, bad):
        lam = rng.normal(size=(12, 256))
        lam[7, 0x41] = bad
        with pytest.raises(CandidateError, match="NaN or \\+inf"):
            next(lazy_candidate_blocks(lam))
        with pytest.raises(CandidateError, match="NaN or \\+inf"):
            next(lazy_candidate_blocks(np.full((3, 256), bad)))

    def test_heap_grows_through_doublings(self, monkeypatch, rng):
        if not _native.available():
            pytest.skip("checks the native kernel's heap buffer")
        capacities = []
        kernel = _native.lazy_walk

        def spy(sorted_lam, heap, size, ranks, scores):
            capacities.append(heap.shape[0])
            return kernel(sorted_lam, heap, size, ranks, scores)

        monkeypatch.setattr(_native, "lazy_walk", spy)
        lam, limit = _lazy_input("normal")
        got = _walk(lam, 1, limit)
        grown = sorted(set(capacities))
        assert len(grown) >= 5
        assert all(b >= 2 * a for a, b in zip(grown, grown[1:]))
        _assert_same_walk(got, _fallback_walk("normal", 1))

    def test_abandoned_walk_then_fresh_one(self):
        lam, limit = _lazy_input("normal")
        abandoned = lazy_candidate_blocks(lam, block_size=17)
        head_rows, head_scores = next(abandoned)
        abandoned.close()
        got = _walk(lam, 17, limit)
        np.testing.assert_array_equal(got[0][:17], head_rows)
        np.testing.assert_array_equal(got[1][:17], head_scores)
        _assert_same_walk(got, _fallback_walk("normal", 17))

    def test_blocks_own_their_arrays(self):
        lam, _ = _lazy_input("integer-ties")
        walk = lazy_candidate_blocks(lam, block_size=64)
        rows, scores = next(walk)
        kept_rows, kept_scores = rows.copy(), scores.copy()
        for later_rows, later_scores in islice(walk, 8):
            assert not np.shares_memory(rows, later_rows)
            assert not np.shares_memory(scores, later_scores)
        np.testing.assert_array_equal(rows, kept_rows)
        np.testing.assert_array_equal(scores.view(np.int64), kept_scores.view(np.int64))

    def test_native_walk_memory_bound(self):
        """A 2^15-deep walk at L = 12 leaves about 70k entries on the
        frontier.  The native heap holds them as 24-byte entries and
        peaks under 5 MiB, growth copy included; the fallback's tuples
        take about 9.5 MiB."""
        if not _native.available():
            pytest.skip("bounds the native kernel's heap buffer")
        lam, limit = _lazy_input("L12-2^15")
        tracemalloc.start()
        try:
            seen = 0
            for _, scores in lazy_candidate_blocks(lam):
                seen += scores.shape[0]
                if seen >= limit:
                    break
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 5 << 20


# --------------------------------------------------------------------------
# Batched oracle/pruner accounting parity.
# --------------------------------------------------------------------------


def _matrix_from(rows: list[bytes]) -> np.ndarray:
    return np.frombuffer(b"".join(rows), dtype=np.uint8).reshape(
        len(rows), len(rows[0]) if rows else 0
    )


def _run_scalar(rows, secret, charset, cookie_len, budget):
    oracle = BruteForceOracle(secret=secret)
    pruner = CandidatePruner(cookie_len=cookie_len, charset=charset)
    try:
        cookie, attempts = oracle.search(
            pruner.filter(r for r in rows), budget=budget
        )
        return ("hit", cookie, attempts, oracle.attempts, pruner.pruned)
    except AttackError as exc:
        return ("fail", str(exc), oracle.attempts, pruner.pruned)


def _run_batched(rows, secret, charset, cookie_len, budget, block_size):
    oracle = BruteForceOracle(secret=secret)
    pruner = CandidatePruner(cookie_len=cookie_len, charset=charset)
    matrix = _matrix_from(rows)
    try:
        cookie, attempts, rank = oracle.search_matrix(
            matrix, pruner=pruner, budget=budget, block_size=block_size
        )
        assert rows[rank] == cookie
        return ("hit", cookie, attempts, oracle.attempts, pruner.pruned)
    except AttackError as exc:
        return ("fail", str(exc), oracle.attempts, pruner.pruned)


class TestBatchedOracleParity:
    CHARSET = b"abcdef"

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_accounting_matches_scalar(self, data):
        rng = np.random.default_rng(
            data.draw(st.integers(min_value=0, max_value=2**31 - 1))
        )
        n = data.draw(st.integers(min_value=0, max_value=40))
        cookie_len = 3
        # ~half the rows inadmissible ('z' outside the pruner charset).
        rows = [
            bytes(
                rng.choice(np.frombuffer(self.CHARSET + b"z", dtype=np.uint8), 3)
            )
            for _ in range(n)
        ]
        secret = (
            rows[data.draw(st.integers(min_value=0, max_value=n - 1))]
            if n and data.draw(st.booleans())
            else b"xyz"
        )
        budget = data.draw(
            st.one_of(st.none(), st.integers(min_value=0, max_value=12))
        )
        block_size = data.draw(st.integers(min_value=1, max_value=16))
        scalar = _run_scalar(rows, secret, self.CHARSET, cookie_len, budget)
        batched = _run_batched(
            rows, secret, self.CHARSET, cookie_len, budget, block_size
        )
        assert batched == scalar

    def test_budget_zero(self):
        rows = [b"zzz", b"aaa"]
        scalar = _run_scalar(rows, b"aaa", self.CHARSET, 3, 0)
        batched = _run_batched(rows, b"aaa", self.CHARSET, 3, 0, 1)
        assert batched == scalar
        assert scalar[0] == "fail" and "after 0 attempts" in scalar[1]
        # The scalar stream consumed the drop in front of the first
        # admitted candidate before breaking; so must the batched walk.
        assert scalar[3] == 1 and batched[3] == 1

    def test_length_mismatch_never_hits(self):
        rows = [b"ab", b"cd"]
        oracle = BruteForceOracle(secret=b"abc")
        with pytest.raises(AttackError, match="after 2 attempts"):
            oracle.search_matrix(_matrix_from(rows))
        assert oracle.attempts == 2

    def test_admit_mask_matches_admits(self, rng):
        pruner = CandidatePruner(cookie_len=4, charset=self.CHARSET)
        rows = rng.integers(0, 256, size=(64, 4)).astype(np.uint8)
        rows[:8] = rng.choice(np.frombuffer(self.CHARSET, dtype=np.uint8), (8, 4))
        mask = pruner.admit_mask(rows)
        assert pruner.pruned == 0
        expected = [pruner.admits(r.tobytes()) for r in rows]
        assert mask.tolist() == expected

    def test_admit_mask_wrong_width(self):
        pruner = CandidatePruner(cookie_len=4, charset=self.CHARSET)
        assert not pruner.admit_mask(np.zeros((3, 5), dtype=np.uint8)).any()

    def test_pruner_drops_true_cookie(self):
        """Regression: when the pruner rejects the real cookie, the
        batched walk must fail exactly like the scalar stream did —
        not report a bogus hit or a rank from a second list walk."""
        rows = [b"abcd", b"ZZZZ", b"fedc"]
        secret = b"ZZZZ"  # outside the pruner charset
        scalar = _run_scalar(rows, secret, self.CHARSET, 4, None)
        batched = _run_batched(rows, secret, self.CHARSET, 4, None, 2)
        assert batched == scalar
        assert scalar[0] == "fail" and "after 2 attempts" in scalar[1]
        assert scalar[3] == 1  # the dropped true cookie was counted
