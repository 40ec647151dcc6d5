"""Array-major candidate lists (the N=2^23 representation).

At the paper's full Fig 10 scale a candidate list holds 2^23 plaintexts.
Materialising those as Python ``bytes`` objects costs ~60 bytes of
object overhead per 16-byte cookie and forces every consumer — rank
lookups, the layout pruner, the brute-force oracle — into per-candidate
Python loops.  :class:`CandidateMatrix` keeps the list as one ``(N, L)``
``uint8`` array plus a score vector, so consumers reduce over the matrix
with numpy, while :class:`PlaintextView` provides the lazy
``list[bytes]``-compatible view legacy callers index and iterate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class PlaintextView:
    """Lazy ``list[bytes]``-compatible view over candidate matrix rows.

    Supports ``len``, integer and slice indexing, iteration, ``in`` and
    ``index`` — the ``list[bytes]`` operations candidate consumers use —
    materialising ``bytes`` only for the rows actually touched.
    """

    __slots__ = ("_matrix",)

    def __init__(self, matrix: np.ndarray) -> None:
        self._matrix = matrix

    def __len__(self) -> int:
        return self._matrix.shape[0]

    def __getitem__(self, item):
        if isinstance(item, slice):
            return [row.tobytes() for row in self._matrix[item]]
        return self._matrix[item].tobytes()

    def __iter__(self):
        for row in self._matrix:
            yield row.tobytes()

    def __contains__(self, plaintext) -> bool:
        return _row_index(self._matrix, plaintext) is not None

    def __eq__(self, other) -> bool:
        if isinstance(other, PlaintextView):
            return np.array_equal(self._matrix, other._matrix)
        if isinstance(other, (list, tuple)):
            return len(other) == len(self) and all(
                a == b for a, b in zip(self, other)
            )
        return NotImplemented

    def __repr__(self) -> str:
        n, length = self._matrix.shape
        return f"PlaintextView({n} x {length} bytes)"

    def index(self, plaintext) -> int:
        """First row equal to ``plaintext`` (list.index semantics)."""
        row = _row_index(self._matrix, plaintext)
        if row is None:
            raise ValueError(f"{plaintext!r} is not in the candidate list")
        return row


def _row_index(matrix: np.ndarray, plaintext) -> int | None:
    """First row of ``matrix`` equal to ``plaintext``, via one vectorized
    equality reduction (no per-candidate memcmp loop)."""
    needle = bytes(plaintext)
    if len(needle) != matrix.shape[1]:
        return None
    row = np.frombuffer(needle, dtype=np.uint8)
    hits = np.nonzero((matrix == row).all(axis=1))[0]
    return int(hits[0]) if hits.size else None


@dataclass(frozen=True)
class CandidateMatrix:
    """Ranked plaintext candidates as one contiguous array.

    Supports ``len``, iteration over ``(plaintext, score)`` pairs and
    :meth:`rank_of`; ``plaintexts`` is a lazy ``list[bytes]``-compatible
    view, and the batched consumers — pruner masks, oracle blocks —
    operate on :attr:`matrix` directly.

    Attributes:
        matrix: uint8 (N, L); row i is the i-th best candidate.
        log_likelihoods: float64 (N,) matching scores, non-increasing.
    """

    matrix: np.ndarray
    log_likelihoods: np.ndarray

    def __len__(self) -> int:
        return self.matrix.shape[0]

    def __iter__(self):
        return zip(self.plaintexts, self.log_likelihoods)

    @property
    def plaintexts(self) -> PlaintextView:
        """Lazy best-first ``bytes`` view of the rows."""
        return PlaintextView(self.matrix)

    def rank_of(self, plaintext: bytes) -> int | None:
        """0-based rank of ``plaintext``, or None if absent from the list."""
        return _row_index(self.matrix, plaintext)
