"""The paper's HMM formalisation of double-byte likelihoods (§4.4).

The paper frames candidate generation as N-best decoding of a first-order
time-inhomogeneous hidden Markov model: the state space is the 256 byte
values, "time" is the plaintext position, the transition weight from
state mu1 at time t to mu2 is lambda_{t, mu1, mu2}, and every state emits
the same null observation (plaintext values leak no side channel).

:class:`PlaintextHmm` makes that construction explicit.  It is the
specification object: `viterbi` (1-best) and `n_best` delegate to the
production implementation (:func:`repro.core.candidates.viterbi
.algorithm2`, a lazy list Viterbi), while `brute_force` enumerates the
whole sequence space into the same :class:`CandidateMatrix` form —
feasible only for tiny alphabets, which is exactly what the property
tests use to verify the decoder.  As in ``algorithm2``, only a ``None``
charset means every byte value; an empty one is an error.
"""

from __future__ import annotations

from itertools import product

import numpy as np

from ...errors import CandidateError
from .matrix import CandidateMatrix
from .viterbi import algorithm2


class PlaintextHmm:
    """Time-inhomogeneous HMM over plaintext byte sequences.

    Args:
        transition_log_probs: array (L-1, 256, 256) of per-step transition
            log-weights (need not be normalised — eq 26 holds up to a
            proportionality constant).
        first_byte: known initial state m1.
        last_byte: known final state mL.
        charset: allowed values for the interior states (default: all).

    Raises:
        CandidateError: on a malformed likelihood array or an empty
            charset.
    """

    def __init__(
        self,
        transition_log_probs: np.ndarray,
        first_byte: int,
        last_byte: int,
        *,
        charset: bytes | None = None,
    ) -> None:
        lam = np.asarray(transition_log_probs, dtype=np.float64)
        if lam.ndim != 3 or lam.shape[1:] != (256, 256):
            raise CandidateError(
                f"transition_log_probs must be (L-1, 256, 256), got {lam.shape}"
            )
        self._lam = lam
        self._first = first_byte
        self._last = last_byte
        if charset is None:
            charset = range(256)
        elif not charset:
            raise CandidateError("charset must be non-empty")
        self._charset = bytes(sorted(set(charset)))

    @property
    def num_unknown(self) -> int:
        """Number of interior (unknown) positions."""
        return self._lam.shape[0] - 1

    def sequence_log_likelihood(self, interior: bytes) -> float:
        """Log-likelihood of a full state path m1 + interior + mL."""
        if len(interior) != self.num_unknown:
            raise CandidateError(
                f"expected {self.num_unknown} interior bytes, got {len(interior)}"
            )
        path = bytes((self._first,)) + bytes(interior) + bytes((self._last,))
        return float(
            sum(self._lam[t, path[t], path[t + 1]] for t in range(len(path) - 1))
        )

    def viterbi(self) -> tuple[bytes, float]:
        """Most likely interior byte sequence (1-best decoding)."""
        best = self.n_best(1)
        return best.plaintexts[0], float(best.log_likelihoods[0])

    def n_best(self, n: int) -> CandidateMatrix:
        """N most likely interior sequences (list-Viterbi decoding)."""
        return algorithm2(
            self._lam, self._first, self._last, n, charset=self._charset
        )

    def brute_force(self, n: int | None = None) -> CandidateMatrix:
        """Exhaustively rank the whole interior space (tiny alphabets only).

        Guarded at 2**20 sequences; used by tests as ground truth.
        """
        space = len(self._charset) ** self.num_unknown
        if space > 1 << 20:
            raise CandidateError(
                f"brute force over {space} sequences refused (> 2^20)"
            )
        scored = [
            (self.sequence_log_likelihood(bytes(seq)), bytes(seq))
            for seq in product(self._charset, repeat=self.num_unknown)
        ]
        # Sort by decreasing likelihood, ties by byte string for determinism.
        scored.sort(key=lambda item: (-item[0], item[1]))
        if n is not None:
            scored = scored[:n]
        return CandidateMatrix(
            matrix=np.array(
                [list(seq) for _, seq in scored], dtype=np.uint8
            ).reshape(len(scored), self.num_unknown),
            log_likelihoods=np.array([score for score, _ in scored]),
        )
