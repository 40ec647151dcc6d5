"""Single-byte plaintext likelihoods (paper §4.1, eqs 10-12).

Given ciphertext byte counts at one keystream position and the keystream
distribution p_k at that position, the log-likelihood of plaintext value
mu is (up to a constant independent of mu)

    log lambda_mu = sum_k N^mu_k log p_k
                  = sum_c N_c log p_{c xor mu}

Every entry point here goes through :func:`xor_log_likelihoods`, which
sums those 256 terms in one fixed order on every backend.
"""

from __future__ import annotations

import numpy as np

from ...errors import LikelihoodError
from ...rc4 import _native

#: Rows per pass of the numpy fallback, which bounds its scratch to one
#: (rows, 256) float64 block (512 KiB).
_FALLBACK_ROWS = 256

#: _XOR_INDEX[c, mu] = mu ^ c, the fallback's gather order for term c.
_XOR_INDEX = np.bitwise_xor.outer(
    np.arange(256, dtype=np.intp), np.arange(256, dtype=np.intp)
)


def xor_log_likelihoods(counts: np.ndarray, log_p: np.ndarray) -> np.ndarray:
    """``out[r, mu] = sum_c counts[r, c] * log_p[r, mu ^ c]`` for each row.

    Every cell adds its 256 terms in increasing ``c``, starting from 0.0,
    each product rounded before its add (no fused multiply-add).  The
    native kernel (:func:`repro.rc4._native.xor_loglik`) and the numpy
    loop below both run that order, so the result has the same bits on
    every platform, backend and thread count.

    Args:
        counts: ``(n, 256)`` ciphertext counts per row (any real values).
        log_p: ``(n, 256)`` log keystream probabilities per row.

    Returns:
        float64 ``(n, 256)`` log-likelihoods.
    """
    counts = np.ascontiguousarray(counts, dtype=np.float64)
    log_p = np.ascontiguousarray(log_p, dtype=np.float64)
    if counts.ndim != 2 or counts.shape[1] != 256 or counts.shape != log_p.shape:
        raise LikelihoodError(
            f"expected matching (n, 256) arrays, got {counts.shape} "
            f"and {log_p.shape}"
        )
    if _native.available():
        return _native.xor_loglik(counts, log_p)
    out = np.zeros(counts.shape, dtype=np.float64)
    term = np.empty((min(_FALLBACK_ROWS, len(counts)), 256))
    for start in range(0, len(counts), _FALLBACK_ROWS):
        rows = slice(start, start + _FALLBACK_ROWS)
        acc, n, lp = out[rows], counts[rows], log_p[rows]
        step = term[: len(acc)]
        for c in range(256):
            np.take(lp, _XOR_INDEX[c], axis=1, out=step, mode="wrap")
            np.multiply(n[:, c, None], step, out=step)
            np.add(acc, step, out=acc)
    return out


def single_byte_log_likelihoods(
    ciphertext_counts: np.ndarray, keystream_dist: np.ndarray
) -> np.ndarray:
    """Log-likelihood of each plaintext value at one position.

    Args:
        ciphertext_counts: length-256 counts of ciphertext byte values.
        keystream_dist: length-256 keystream distribution p_k (strictly
            positive; use Laplace-smoothed empirical distributions).

    Returns:
        float64 length-256 vector: entry mu is ``log Pr[C | P = mu]``.
    """
    counts = np.asarray(ciphertext_counts, dtype=np.float64)
    dist = np.asarray(keystream_dist, dtype=np.float64)
    if counts.shape != (256,) or dist.shape != (256,):
        raise LikelihoodError(
            f"expected length-256 vectors, got {counts.shape} and {dist.shape}"
        )
    if np.any(dist <= 0.0):
        raise LikelihoodError("keystream distribution must be strictly positive")
    return xor_log_likelihoods(counts[None], np.log(dist)[None])[0]


def single_byte_log_likelihoods_many(
    ciphertext_counts: np.ndarray, keystream_dists: np.ndarray
) -> np.ndarray:
    """Vectorised :func:`single_byte_log_likelihoods` over many positions.

    Args:
        ciphertext_counts: array (L, 256) of counts per position.
        keystream_dists: array (L, 256) of keystream distributions.

    Returns:
        float64 array (L, 256) of log-likelihoods.
    """
    counts = np.asarray(ciphertext_counts, dtype=np.float64)
    dists = np.asarray(keystream_dists, dtype=np.float64)
    if counts.ndim != 2 or counts.shape[1] != 256 or counts.shape != dists.shape:
        raise LikelihoodError(
            f"expected matching (L, 256) arrays, got {counts.shape} and {dists.shape}"
        )
    if np.any(dists <= 0.0):
        raise LikelihoodError("keystream distributions must be strictly positive")
    return xor_log_likelihoods(counts, np.log(dists))
