"""The paper's primary contribution: Bayesian plaintext recovery (§4).

Pipeline:

1. **Likelihoods** — convert ciphertext statistics into per-position
   log-likelihoods over plaintext values, using keystream bias models:
   single-byte (eq 10-12), digraph with the sparse optimisation of eq 15,
   and Mantin-ABSAB differential likelihoods (eq 17-24).
2. **Combination** — multiply (add, in log domain) likelihoods derived
   from different bias families (eq 25).
3. **Candidates** — enumerate plaintexts in decreasing likelihood:
   Algorithm 1 for single-byte estimates, Algorithm 2 (a list-Viterbi /
   N-best HMM decoding) for double-byte estimates, plus a lazy best-first
   enumerator as a memory-light extension.
"""

from .likelihood.absab import absab_log_likelihoods, differential_log_likelihoods
from .likelihood.combine import combine_likelihoods
from .likelihood.digraph import (
    digraph_log_likelihoods,
    digraph_log_likelihoods_dense,
)
from .likelihood.single import single_byte_log_likelihoods
from .candidates.single_list import algorithm1
from .candidates.lazy import lazy_candidate_blocks, lazy_candidates
from .candidates.matrix import CandidateMatrix, PlaintextView
from .candidates.viterbi import algorithm2
from .candidates.hmm import PlaintextHmm
from .recovery import PlaintextRecovery

__all__ = [
    "CandidateMatrix",
    "PlaintextHmm",
    "PlaintextView",
    "PlaintextRecovery",
    "absab_log_likelihoods",
    "algorithm1",
    "algorithm2",
    "combine_likelihoods",
    "differential_log_likelihoods",
    "digraph_log_likelihoods",
    "digraph_log_likelihoods_dense",
    "lazy_candidate_blocks",
    "lazy_candidates",
    "single_byte_log_likelihoods",
]
