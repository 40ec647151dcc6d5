"""Plaintext candidate enumeration in decreasing likelihood (paper §4.4)."""

from .hmm import PlaintextHmm
from .lazy import lazy_candidate_blocks, lazy_candidates
from .matrix import CandidateMatrix, PlaintextView
from .single_list import algorithm1
from .viterbi import algorithm2

__all__ = [
    "CandidateMatrix",
    "PlaintextHmm",
    "PlaintextView",
    "algorithm1",
    "algorithm2",
    "lazy_candidate_blocks",
    "lazy_candidates",
]
