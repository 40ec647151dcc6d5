"""Exact sampling of attack sufficient statistics (documented substitution).

All likelihood estimators in :mod:`repro.core` consume *count vectors*:

- single-byte: N_c = #ciphertexts with byte value c at a position;
- digraph: N_{c1,c2} over consecutive ciphertext pairs;
- ABSAB: counts of ciphertext differentials.

Under the keystream model p and a fixed plaintext, those counts are
multinomial with cell probabilities equal to p shifted (XOR) by the
plaintext.  Sampling the multinomial directly is therefore *exactly*
equivalent to generating N ciphertexts and counting — but costs O(cells)
instead of O(N).  A Poisson approximation is offered for the very largest
N (cell counts are huge and independent-Poisson converges); benchmarks
default to the exact multinomial.

The single-row helpers draw from the caller's generator.
:func:`sample_multinomial_rows` draws many rows at once, each on its own
PCG64 stream, on native threads when the compiled backend is loaded
(numpy's own C multinomial, so the bits do not depend on the backend or
the thread count); the §6 statistic sampler
(:meth:`repro.simulate.https.HttpsAttackSimulation.sampled_statistics`)
runs on it.
"""

from __future__ import annotations

import operator
from itertools import islice
from typing import Iterable, Literal

import numpy as np

from ..errors import DistributionError
from ..rc4 import _native

Method = Literal["multinomial", "poisson"]

#: Probability rows built per native thread before each dispatch of
#: :func:`sample_multinomial_rows`: enough to keep the threads busy
#: between the Python-side builds, few enough that the rows in flight
#: stay a few MiB (all §6 rows at once would be 186 MB at 16 characters
#: and ``max_gap=16``, 2.2 GB at ``max_gap=128``).
ROWS_PER_THREAD = 8


def _rng_from(seed: int | np.random.Generator | None) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def _draw(
    probs: np.ndarray, n: int, rng: np.random.Generator, method: Method
) -> np.ndarray:
    if method == "multinomial":
        return rng.multinomial(n, probs)
    if method == "poisson":
        return rng.poisson(n * probs)
    raise DistributionError(f"unknown sampling method {method!r}")


def sample_single_byte_counts(
    keystream_dist: np.ndarray,
    n: int,
    plaintext: int,
    *,
    seed: int | np.random.Generator | None = None,
    method: Method = "multinomial",
) -> np.ndarray:
    """Ciphertext byte counts for n encryptions of one plaintext byte.

    Cell c of the result counts ciphertexts with value c; its probability
    is ``keystream_dist[c ^ plaintext]``.
    """
    dist = np.asarray(keystream_dist, dtype=np.float64)
    if dist.shape != (256,):
        raise DistributionError(f"keystream_dist must be length 256, got {dist.shape}")
    if not 0 <= plaintext < 256:
        raise DistributionError(f"plaintext byte out of range: {plaintext}")
    rng = _rng_from(seed)
    cipher_probs = dist[np.arange(256) ^ plaintext]
    return _draw(cipher_probs, n, rng, method)


def sample_digraph_counts(
    keystream_dist: np.ndarray,
    n: int,
    plaintext_pair: tuple[int, int],
    *,
    seed: int | np.random.Generator | None = None,
    method: Method = "multinomial",
) -> np.ndarray:
    """Ciphertext digraph counts for n encryptions of a plaintext pair.

    Args:
        keystream_dist: (256, 256) keystream digraph distribution.
        n: number of ciphertexts.
        plaintext_pair: the fixed plaintext bytes (mu1, mu2).

    Returns:
        int64 (256, 256); cell (c1, c2) counts that ciphertext pair.
    """
    cipher_probs = digraph_cipher_probs(keystream_dist, plaintext_pair)
    return _draw(cipher_probs, n, _rng_from(seed), method).reshape(256, 256)


def digraph_cipher_probs(
    keystream_dist: np.ndarray, plaintext_pair: tuple[int, int]
) -> np.ndarray:
    """Cell probabilities of :func:`sample_digraph_counts`, flattened.

    Cell ``(c1 << 8) | c2`` has probability
    ``keystream_dist[c1 ^ mu1, c2 ^ mu2]``.
    """
    dist = np.asarray(keystream_dist, dtype=np.float64)
    if dist.shape != (256, 256):
        raise DistributionError(f"keystream_dist must be (256, 256), got {dist.shape}")
    mu1, mu2 = plaintext_pair
    if not (0 <= mu1 < 256 and 0 <= mu2 < 256):
        raise DistributionError(f"plaintext pair out of range: {plaintext_pair}")
    idx = np.arange(256)
    return dist[np.ix_(idx ^ mu1, idx ^ mu2)].reshape(-1)


def sample_absab_differential_counts(
    gap: int,
    n: int,
    plaintext_differential: tuple[int, int],
    *,
    seed: int | np.random.Generator | None = None,
    method: Method = "multinomial",
) -> np.ndarray:
    """Ciphertext differential counts under the ABSAB model (paper eq 19).

    The keystream differential is (0,0) with probability alpha(g) and
    uniform otherwise; the ciphertext differential equals the keystream
    differential XOR the plaintext differential.

    Args:
        gap: ABSAB gap g.
        n: number of ciphertexts.
        plaintext_differential: the true plaintext differential
            (unknown XOR known bytes), which is where the biased cell
            lands in ciphertext space.

    Returns:
        int64 length-65536 vector of differential counts.
    """
    probs = absab_cipher_probs(gap, plaintext_differential)
    return _draw(probs, n, _rng_from(seed), method)


def absab_cipher_probs(
    gap: int, plaintext_differential: tuple[int, int]
) -> np.ndarray:
    """Cell probabilities of :func:`sample_absab_differential_counts`.

    alpha(g) on the plaintext differential's cell, the rest uniform.
    """
    from ..biases.mantin_absab import absab_alpha

    d1, d2 = plaintext_differential
    if not (0 <= d1 < 256 and 0 <= d2 < 256):
        raise DistributionError(
            f"plaintext differential out of range: {plaintext_differential}"
        )
    alpha = absab_alpha(gap)
    probs = np.full(65536, (1.0 - alpha) / 65535, dtype=np.float64)
    probs[(d1 << 8) | d2] = alpha
    return probs


def check_trials(n: object) -> int:
    """``n`` as a multinomial trial count, which must lie in [0, 2^63).

    Raises:
        DistributionError: for a non-integer or out-of-range ``n``.
    """
    try:
        trials = operator.index(n)
    except TypeError:
        raise DistributionError(
            f"trial count must be an integer, got {n!r}"
        ) from None
    if not 0 <= trials < 1 << 63:
        raise DistributionError(
            f"trial count must lie in [0, 2^63), got {trials}"
        )
    return trials


def _check_probs(probs: np.ndarray) -> None:
    """Reject what numpy's ``multinomial`` rejects, as a typed error.

    Every cell finite and within [0, 1], the cells before the last
    summing to at most 1 + 1e-12 (numpy's own tolerance).  The native
    path calls numpy's C routine, which checks nothing, so both backends
    run this before any draw.
    """
    if probs.ndim != 1 or probs.shape[0] == 0:
        raise DistributionError(
            f"probabilities must be one non-empty row, got shape {probs.shape}"
        )
    if not (probs.min() >= 0.0 and probs.max() <= 1.0):  # False on NaN
        raise DistributionError(
            "probabilities must be finite and within [0, 1]"
        )
    if probs[:-1].sum() > 1.0 + 1e-12:
        raise DistributionError("probabilities before the last sum past 1")


def sample_multinomial_rows(
    n: int, rows: Iterable[tuple[int, np.ndarray, np.ndarray]]
) -> None:
    """Draw rows of multinomial counts, one PCG64 stream per row.

    Each row is ``(seed, probs, out)``: ``out``, an int64 view written in
    place, receives
    ``np.random.Generator(np.random.PCG64(seed)).multinomial(n, probs)``
    bit for bit, whatever the backend or thread count.  With the native
    backend loaded the rows are drawn by numpy's own C
    ``random_multinomial`` on native threads
    (:func:`repro.rc4._native.multinomial_rows`); otherwise, or when
    numpy does not export that routine, by ``Generator.multinomial``
    row by row.  ``rows`` is consumed lazily, ``ROWS_PER_THREAD``
    rows per thread at a time, so a generator that builds each
    probability row on demand keeps only those in memory.

    Raises:
        DistributionError: for an ``n`` that is not an integer in
            [0, 2^63) (before any row is drawn) or a probability row
            numpy's ``multinomial`` would reject (before its batch is
            drawn).
    """
    n = check_trials(n)
    native = _native.available() and _native.numpy_multinomial() is not None
    batch_size = ROWS_PER_THREAD * (
        _native.resolve_threads(None) if native else 1
    )
    rows = iter(rows)
    while batch := list(islice(rows, batch_size)):
        probs, outs = [], []
        for _, p, out in batch:
            p = np.ascontiguousarray(p, dtype=np.float64)
            _check_probs(p)
            if not (
                out.dtype == np.int64 and out.flags.c_contiguous
                and out.shape == p.shape
            ):
                raise DistributionError(
                    f"output row ({out.dtype}, {out.shape}) is not a "
                    f"C-contiguous int64 row of {p.shape[0]} cells"
                )
            probs.append(p)
            outs.append(out)
        bitgens = [np.random.PCG64(seed) for seed, _, _ in batch]
        if native:
            _native.multinomial_rows(n, probs, bitgens, outs)
        else:
            for bitgen, p, out in zip(bitgens, probs, outs):
                out[...] = np.random.Generator(bitgen).multinomial(n, p)
        # The next batch is built before these names are rebound: drop
        # this batch's probability rows first.
        del batch, probs
