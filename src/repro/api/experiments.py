"""The registered experiment catalogue.

One decorated function per reproducible unit, mirroring the paper's
result matrix:

- ``dataset-*`` — the five keystream-statistics dataset kinds (§3.2);
- ``bias-hunt`` — hypothesis-test bias detection plus power analysis (§3.1);
- ``recovery-broadcast`` — broadcast plaintext recovery via the
  Mantin-Shamir bias and Algorithm 1 candidates (§4.1);
- ``absab-gap`` — Mantin's ABSAB bias vs gap length against the
  alpha(g) model (§4.2);
- ``attack-tkip`` / ``attack-https`` — the two end-to-end attacks
  (§5 / §6), statistic-level sampling, real recovery machinery;
- ``attack-michael`` — Michael key recovery from a decrypted packet plus
  Beck's fragmentation-based keystream-reuse forgery (§2.2, §5.3;
  *Enhanced TKIP Michael Attacks*, 2010);
- ``bias-sweep`` — per-position single-byte bias profiles over a
  configurable position range via the fused counting kernels (§3.3.1);
- ``bias-sweep-pertsc`` — per-TSC keystream sweeps riding the batched
  capture engine (§5.1), exposing the TSC-dependent Paterson biases;
- ``campaign-https`` / ``campaign-tkip`` — the two attacks against a
  heterogeneous victim population captured in shared-keystream groups
  via the multi-template kernel, reduced to per-cell success-rate and
  time-to-first-recovery surfaces.

Implementations receive a :class:`~repro.api.session.RunContext` and
return a JSON-able metrics dict; parameters are declared on the spec so
the CLI, the examples, and the tests share one schema.  Keep metrics
small — counters belong in the dataset cache, not in result records.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from ..biases import absab_alpha, single_byte_model
from ..campaign.population import (
    DEFAULT_BROWSERS,
    DEFAULT_BUDGETS,
    DEFAULT_CHARSETS,
    DEFAULT_RECONNECT_REGIMES,
)
from ..core import PlaintextRecovery
from ..datasets.manager import DatasetSpec
from ..errors import ExperimentParamError
from ..rc4.batch import batch_keystream
from ..rc4.keygen import derive_keys
from ..stats import BiasDetector, detectable_relative_bias, required_samples
from .registry import Param, experiment

UNIFORM_BYTE = 1.0 / 256.0


# --------------------------------------------------------------------------
# §3.2 — the five dataset kinds
# --------------------------------------------------------------------------


def _top_cells_2d(counts: np.ndarray, limit: int = 5) -> list[dict[str, Any]]:
    """Strongest single-byte cells of a ``(positions, 256)`` counter."""
    totals = counts.sum(axis=1, keepdims=True)
    with np.errstate(invalid="ignore", divide="ignore"):
        rel = np.where(totals > 0, counts / totals * 256.0 - 1.0, 0.0)
    flat = np.argsort(-np.abs(rel), axis=None)[:limit]
    cells = []
    for index in flat:
        r, v = divmod(int(index), 256)
        total = int(totals[r, 0])
        cells.append(
            {
                "position": r + 1,
                "value": v,
                "probability": float(counts[r, v] / total) if total else 0.0,
                "relative_bias": float(rel[r, v]),
            }
        )
    return cells


def _top_digraph_cells(
    counts: np.ndarray, rows: list[Any], limit: int = 5
) -> list[dict[str, Any]]:
    """Strongest digraph cells of an ``(rows, 256, 256)`` counter."""
    candidates = []
    for index, row_label in enumerate(rows):
        table = counts[index]
        total = int(table.sum())
        if total == 0:
            continue
        rel = table / total * 65536.0 - 1.0
        for flat in np.argsort(-np.abs(rel), axis=None)[:limit]:
            a, b = divmod(int(flat), 256)
            candidates.append(
                {
                    "row": row_label,
                    "values": (a, b),
                    "probability": float(table[a, b] / total),
                    "relative_bias": float(rel[a, b]),
                }
            )
    candidates.sort(key=lambda cell: -abs(cell["relative_bias"]))
    return candidates[:limit]


def _run_dataset(ctx, spec: DatasetSpec) -> np.ndarray:
    ctx.emit(
        "generate",
        f"generating {spec.kind} dataset over {spec.num_keys} keys",
        num_keys=spec.num_keys,
    )
    with ctx.timer("generate"):
        return ctx.dataset(spec)


@experiment(
    "dataset-single",
    description="Single-byte keystream distributions Pr[Z_r = k]",
    section="§3.2",
    params=(
        Param("num_keys", scaled=1 << 17, maximum=1 << 26,
              help="independent RC4 keys to count"),
        Param("positions", default=32, help="leading keystream positions"),
    ),
)
def _dataset_single(ctx) -> dict[str, Any]:
    p = ctx.params
    spec = DatasetSpec(
        kind="single", num_keys=p["num_keys"], positions=p["positions"],
        label="api-single",
    )
    counts = _run_dataset(ctx, spec)
    return {
        "kind": "single",
        "shape": counts.shape,
        "total_counts": int(counts.sum()),
        "strongest_cells": _top_cells_2d(counts),
    }


@experiment(
    "dataset-consec",
    description="Consecutive digraph distributions Pr[(Z_r, Z_r+1)]",
    section="§3.2",
    params=(
        Param("num_keys", scaled=1 << 15, maximum=1 << 24),
        Param("positions", default=16, help="leading digraph positions"),
    ),
)
def _dataset_consec(ctx) -> dict[str, Any]:
    p = ctx.params
    spec = DatasetSpec(
        kind="consec", num_keys=p["num_keys"], positions=p["positions"],
        label="api-consec",
    )
    counts = _run_dataset(ctx, spec)
    return {
        "kind": "consec",
        "shape": counts.shape,
        "total_counts": int(counts.sum()),
        "strongest_cells": _top_digraph_cells(
            counts, [r + 1 for r in range(counts.shape[0])]
        ),
    }


@experiment(
    "dataset-pairs",
    description="Joint distributions of selected position pairs (Z_a, Z_b)",
    section="§3.2",
    params=(
        Param("num_keys", scaled=1 << 17, maximum=1 << 24),
        Param("pairs", kind="pairs", default=((1, 2), (15, 16), (31, 32)),
              help="position pairs a:b, comma-separated"),
    ),
)
def _dataset_pairs(ctx) -> dict[str, Any]:
    p = ctx.params
    spec = DatasetSpec(
        kind="pairs", num_keys=p["num_keys"], pairs=tuple(p["pairs"]),
        label="api-pairs",
    )
    counts = _run_dataset(ctx, spec)
    return {
        "kind": "pairs",
        "shape": counts.shape,
        "total_counts": int(counts.sum()),
        "strongest_cells": _top_digraph_cells(counts, list(p["pairs"])),
    }


@experiment(
    "dataset-equality",
    description="Equality events Pr[Z_a = Z_b] for selected pairs",
    section="§3.2",
    params=(
        Param("num_keys", scaled=1 << 17, maximum=1 << 24),
        Param("pairs", kind="pairs", default=((1, 2), (15, 16)),
              help="position pairs a:b, comma-separated"),
    ),
)
def _dataset_equality(ctx) -> dict[str, Any]:
    p = ctx.params
    spec = DatasetSpec(
        kind="equality", num_keys=p["num_keys"], pairs=tuple(p["pairs"]),
        label="api-equality",
    )
    counts = _run_dataset(ctx, spec)
    rows = []
    for (a, b), (equal, trials) in zip(p["pairs"], counts):
        probability = float(equal / trials) if trials else 0.0
        rows.append(
            {
                "positions": (a, b),
                "probability": probability,
                "relative_bias": probability / UNIFORM_BYTE - 1.0,
            }
        )
    return {
        "kind": "equality",
        "shape": counts.shape,
        "total_counts": int(counts.sum()),
        "pairs": rows,
    }


@experiment(
    "dataset-longterm",
    description="Counter-binned long-term digraph distributions (drop 1023)",
    section="§3.2",
    params=(
        Param("num_keys", scaled=64, maximum=1 << 12),
        Param("stream_len", scaled=1 << 12, maximum=1 << 16,
              help="digraphs contributed per key"),
        Param("drop", default=1023, help="initial keystream bytes to drop"),
        Param("gap", default=0, help="digraph gap (0 = FM, 1 = w*256 pairs)"),
    ),
)
def _dataset_longterm(ctx) -> dict[str, Any]:
    p = ctx.params
    spec = DatasetSpec(
        kind="longterm", num_keys=p["num_keys"], stream_len=p["stream_len"],
        drop=p["drop"], gap=p["gap"], label="api-longterm",
    )
    counts = _run_dataset(ctx, spec)
    return {
        "kind": "longterm",
        "shape": counts.shape,
        "total_counts": int(counts.sum()),
        "strongest_cells": _top_digraph_cells(
            counts, [f"i={i}" for i in range(counts.shape[0])], limit=5
        ),
    }


# --------------------------------------------------------------------------
# §3.1 — bias detection
# --------------------------------------------------------------------------

#: Reference biases for the power analysis: (label, cell probability p,
#: relative bias q) exactly as the paper states them.
POWER_ROWS = (
    ("Mantin-Shamir Z2=0 (q=1, p=2^-8)", 2.0 ** -8, 1.0),
    ("key-length Z16=240 (q~2^-4.8)", 2.0 ** -8, 2.0 ** -4.8),
    ("Table 2 w=1 pair (q~2^-4.9, p~2^-16)", 2.0 ** -15.95, -(2.0 ** -4.894)),
    ("Fluhrer-McGrew cell (q=2^-8, p=2^-16)", 2.0 ** -16, 2.0 ** -8),
)


@experiment(
    "bias-hunt",
    description="Hypothesis-test bias detection with Holm correction + power",
    section="§3.1",
    params=(
        Param("num_keys", scaled=1 << 20, maximum=1 << 26),
        Param("positions", default=32, help="single-byte scan width"),
        Param("pairs", kind="pairs", default=((15, 16), (31, 32), (1, 2)),
              help="pairs for the dependence scan"),
        Param("alpha", kind="float", default=1e-4,
              help="rejection threshold (paper: 1e-4)"),
    ),
)
def _bias_hunt(ctx) -> dict[str, Any]:
    p = ctx.params
    detector = BiasDetector(alpha=p["alpha"])

    ctx.emit("single-scan", "single-byte uniformity scan "
             f"(positions 1..{p['positions']})")
    with ctx.timer("single-scan"):
        counts = ctx.dataset(DatasetSpec(
            kind="single", num_keys=p["num_keys"], positions=p["positions"],
            label="hunt-single",
        ))
        report = detector.scan_single_bytes(counts)
    strongest = []
    for pos in report.biased_positions[:8]:
        row = counts[pos - 1]
        top = int(row.argmax())
        strongest.append(
            {
                "position": pos,
                "value": top,
                "probability": float(row[top] / row.sum()),
            }
        )

    ctx.emit("pair-scan", "pairwise dependence scan "
             f"({', '.join(f'Z_{a}/Z_{b}' for a, b in p['pairs'])})")
    with ctx.timer("pair-scan"):
        tables = ctx.dataset(DatasetSpec(
            kind="pairs", num_keys=p["num_keys"], pairs=tuple(p["pairs"]),
            label="hunt-pairs",
        ))
        pair_report = detector.scan_pairs(tables, list(p["pairs"]))
    cells = [
        {
            "positions": cell.positions,
            "values": cell.values,
            "relative_bias": float(cell.relative_bias),
        }
        for cell in pair_report.cells[:10]
    ]

    ctx.emit("power", "power analysis at this sample count")
    power = []
    for label, cell_p, cell_q in POWER_ROWS:
        needed = required_samples(cell_p, cell_q)
        power.append(
            {
                "bias": label,
                "needed_samples": int(needed),
                "detectable": bool(needed <= p["num_keys"]),
            }
        )
    return {
        "num_keys": p["num_keys"],
        "biased_positions": list(report.biased_positions),
        "strongest": strongest,
        "dependent_pairs": list(pair_report.dependent_pairs),
        "cells": cells,
        "power": power,
        "min_detectable_relative_bias": float(
            detectable_relative_bias(2.0 ** -8, p["num_keys"])
        ),
    }


# --------------------------------------------------------------------------
# §4.1 — broadcast plaintext recovery
# --------------------------------------------------------------------------


@experiment(
    "recovery-broadcast",
    description="Broadcast recovery: Mantin-Shamir bias + Algorithm 1 list",
    section="§4.1",
    params=(
        Param("num_ciphertexts", scaled=1 << 16, maximum=1 << 24,
              help="independent encryptions of the same plaintext"),
        Param("positions", default=4, help="plaintext length in bytes"),
        Param("secret_byte", default=0x42,
              help="plaintext byte hidden at position 2 (Z_2)"),
        Param("list_size", default=64, help="Algorithm 1 candidate list size"),
        Param("lazy_limit", default=4096,
              help="cap for the lazy best-first enumeration"),
    ),
)
def _recovery_broadcast(ctx) -> dict[str, Any]:
    p = ctx.params
    positions = p["positions"]
    if not 2 <= positions <= 256:
        raise ExperimentParamError(f"positions must be 2..256, got {positions}")
    if not 0 <= p["secret_byte"] <= 255:
        raise ExperimentParamError(
            f"secret_byte must be 0..255, got {p['secret_byte']}"
        )
    plaintext = bytearray(positions)
    plaintext[1] = p["secret_byte"]
    plaintext = bytes(plaintext)

    ctx.emit("encrypt", f"encrypting under {p['num_ciphertexts']} random keys")
    with ctx.timer("encrypt"):
        keys = derive_keys(ctx.config, "api-broadcast", p["num_ciphertexts"])
        stream = batch_keystream(
            keys, positions, threads=ctx.config.native_threads,
            simd=ctx.config.native_simd,
        )
        cipher = stream ^ np.frombuffer(plaintext, dtype=np.uint8)
        counts = np.zeros((positions, 256), dtype=np.int64)
        for r in range(positions):
            counts[r] = np.bincount(cipher[:, r], minlength=256)

    ctx.emit("recover", "argmax recovery + Algorithm 1 candidate list")
    with ctx.timer("recover"):
        dists = np.stack(
            [single_byte_model(r) for r in range(1, positions + 1)]
        )
        recovery = PlaintextRecovery(dists)
        guess = recovery.most_likely(counts)
        candidates, _scores = recovery.candidates(counts, p["list_size"])
        rank = candidates.index(plaintext) if plaintext in candidates else None
        lazy_rank = None
        for i, (cand, _score) in enumerate(recovery.iter_candidates(counts)):
            if cand == plaintext:
                lazy_rank = i
                break
            if i + 1 >= p["lazy_limit"]:
                break
    return {
        "secret_byte": p["secret_byte"],
        "recovered": [int(b) for b in guess],
        "recovered_byte": int(guess[1]),
        "byte_correct": bool(int(guess[1]) == p["secret_byte"]),
        "candidate_rank": rank,
        "lazy_rank": lazy_rank,
        "top_candidates": [c.hex() for c in candidates[:3]],
    }


# --------------------------------------------------------------------------
# §4.2 — ABSAB gap study
# --------------------------------------------------------------------------


@experiment(
    "absab-gap",
    description="Mantin ABSAB digraph repetition vs the alpha(g) model",
    section="§4.2",
    params=(
        Param("num_keys", scaled=48, maximum=2048),
        Param("stream_len", scaled=1 << 13, maximum=1 << 17,
              help="keystream bytes per key"),
        Param("gaps", kind="ints", default=(0, 2, 8, 32, 128),
              help="gap lengths g to measure"),
        Param("drop", default=1024, help="initial bytes dropped per key"),
    ),
)
def _absab_gap(ctx) -> dict[str, Any]:
    p = ctx.params
    # Each gap g needs at least one digraph pair (2*(stream_len-1) - ...):
    # the A column slice is empty once g > stream_len - 4.
    bad = [g for g in p["gaps"] if not 0 <= g <= p["stream_len"] - 4]
    if bad:
        raise ExperimentParamError(
            f"gaps must be within 0..stream_len-4 "
            f"(= {p['stream_len'] - 4}), got {bad}"
        )
    ctx.emit(
        "generate",
        f"generating {p['num_keys']} keystreams x {p['stream_len']} bytes",
    )
    with ctx.timer("generate"):
        keys = derive_keys(ctx.config, "absab-study", p["num_keys"])
        stream = batch_keystream(
            keys, p["stream_len"], drop=p["drop"],
            threads=ctx.config.native_threads,
            simd=ctx.config.native_simd,
        ).astype(np.int32)
        digraphs = (stream[:, :-1] << 8) | stream[:, 1:]

    with ctx.timer("measure"):
        gaps = []
        for gap in p["gaps"]:
            a = digraphs[:, : -(gap + 2)]
            b = digraphs[:, gap + 2:]
            matches = int((a == b).sum())
            trials = a.size
            p_hat = matches / trials
            alpha = absab_alpha(gap)
            z = (matches - trials * alpha) / np.sqrt(trials * alpha)
            gaps.append(
                {
                    "gap": gap,
                    "measured_scaled": p_hat * 65536.0,
                    "model_scaled": float(alpha * 65536.0),
                    "z": float(z),
                    "trials": trials,
                }
            )
    return {"num_keys": p["num_keys"], "stream_len": p["stream_len"], "gaps": gaps}


# --------------------------------------------------------------------------
# §5 — WPA-TKIP end-to-end attack
# --------------------------------------------------------------------------


@experiment(
    "attack-tkip",
    description="End-to-end WPA-TKIP MIC key recovery + packet forgery",
    section="§5",
    params=(
        Param("num_tsc", scaled=8, maximum=256,
              help="TSC values in the per-TSC distribution map"),
        Param("keys_per_tsc", scaled=1 << 12, maximum=1 << 18,
              help="keys measured per TSC value"),
        Param("packets_per_tsc", scaled=1 << 12, minimum=1 << 10,
              maximum=1 << 20, help="captured packets per TSC value"),
        Param("max_candidates", default=1 << 20,
              help="candidate list cap for the CRC-pruned search"),
        Param("forge", kind="bool", default=True,
              help="forge a packet with the recovered MIC key"),
        Param("capture", kind="str", default="sampled",
              help="capture fidelity: sampled (statistic-level "
                   "multinomials) or batched (keystream-level engine)"),
        Param("batch_size", default=4096,
              help="packets per engine batch (capture=batched)"),
        Param("checkpoint", kind="str", default="",
              help="resumable-capture checkpoint path (capture=batched)"),
    ),
)
def _attack_tkip(ctx) -> dict[str, Any]:
    from ..simulate import WifiAttackSimulation, sampled_capture, tkip_timeline
    from ..tkip import (
        TkipSession,
        default_tsc_space,
        generate_per_tsc,
        parse_msdu_data,
    )

    p = ctx.params
    if p["capture"] not in ("sampled", "batched"):
        raise ExperimentParamError(
            f"capture must be 'sampled' or 'batched', got {p['capture']!r}"
        )
    if p["capture"] != "batched" and p["checkpoint"]:
        raise ExperimentParamError("checkpoint requires capture=batched")
    sim = WifiAttackSimulation(ctx.config)
    plaintext = sim.true_plaintext

    ctx.emit(
        "per-tsc",
        f"measuring per-TSC keystream distributions ({p['num_tsc']} TSC "
        f"values x {p['keys_per_tsc']} keys)",
    )
    with ctx.timer("per-tsc"):
        per_tsc = generate_per_tsc(
            ctx.config,
            default_tsc_space(p["num_tsc"]),
            p["keys_per_tsc"],
            length=len(plaintext),
        )

    total_packets = p["num_tsc"] * p["packets_per_tsc"]
    timeline = tkip_timeline(total_packets)
    ctx.emit(
        "capture",
        f"capturing {total_packets} identical-packet encryptions "
        f"via {p['capture']} capture "
        f"(~{timeline.capture_hours:.2f} h on-air at 2500 pkts/s)",
        total_packets=total_packets,
    )
    with ctx.timer("capture"):
        if p["capture"] == "batched":
            capture = sim.batched_capture(
                default_tsc_space(p["num_tsc"]),
                p["packets_per_tsc"],
                batch_size=p["batch_size"],
                checkpoint_path=p["checkpoint"] or None,
                progress=ctx.capture_progress("capture"),
            )
        else:
            capture = sampled_capture(
                per_tsc,
                plaintext,
                range(1, len(plaintext) + 1),
                packets_per_tsc=p["packets_per_tsc"],
                seed=ctx.rng("capture"),
            )

    ctx.emit("recover", "decrypting MIC+ICV via candidate list + CRC pruning")
    with ctx.timer("recover"):
        result = sim.attack(
            capture, per_tsc, max_candidates=p["max_candidates"]
        )

    forged = None
    if p["forge"] and result.correct:
        ctx.emit("forge", "forging a packet with the recovered MIC key")
        with ctx.timer("forge"):
            frame = sim.forge_frame(result.mic_key, b"0wned by rc4biases")
            receiver = TkipSession(
                tk=sim.victim.tk, mic_key=sim.victim.mic_key, ta=sim.victim.ta
            )
            receiver.replay_window = frame.tsc - 1
            data = receiver.decapsulate(frame)
            _, ip, tcp, payload = parse_msdu_data(data)
            forged = {
                "source": f"{ip.source}:{tcp.source_port}",
                "destination": f"{ip.destination}:{tcp.dest_port}",
                "payload": payload,
                "accepted": True,
            }
    return {
        "captures": capture.num_captured,
        "capture": p["capture"],
        "candidate_rank": result.candidates_tried,
        "correct": bool(result.correct),
        "mic": result.mic.hex(),
        "mic_key": result.mic_key.hex(),
        "plaintext_len": len(plaintext),
        "capture_hours_equivalent": timeline.capture_hours,
        "forged": forged,
    }


# --------------------------------------------------------------------------
# §2.2 / §5.3 — Michael key recovery and Beck's fragmentation forgery
# --------------------------------------------------------------------------


@experiment(
    "attack-michael",
    description="Michael key recovery + Beck fragmentation keystream reuse",
    section="§2.2/§5.3",
    params=(
        Param("num_harvest", scaled=8, minimum=2, maximum=256,
              help="known-plaintext captures to bank keystreams from"),
        Param("forge_payload_len", scaled=160, minimum=8, maximum=896,
              help="TCP payload length of the long forged packet (capped "
                   "so 16 fragments of the harvested keystream cover it)"),
        Param("max_fragments", default=16,
              help="fragment budget for the forgery (802.11 allows 16)"),
        Param("priority", default=0, help="QoS priority / TID of the forgery"),
    ),
)
def _attack_michael(ctx) -> dict[str, Any]:
    from ..tkip import (
        KeystreamPool,
        TcpPacketSpec,
        TkipSession,
        build_protected_msdu,
        fragment_msdu,
        michael,
        michael_header,
        reassemble_fragments,
        recover_key,
        split_protected_msdu,
    )

    p = ctx.params
    victim_mac = bytes.fromhex("0013d4fe0a11")
    ap_mac = bytes.fromhex("00254b7e33c0")
    victim = TkipSession.random(ctx.rng("victim"), victim_mac)
    spec = TcpPacketSpec(
        source_ip="192.168.1.101", dest_ip="203.0.113.7",
        source_port=51324, dest_port=80, payload=b"ATTACK!",
    )
    plaintext = build_protected_msdu(spec, victim.mic_key, ap_mac, victim_mac)

    ctx.emit(
        "harvest",
        f"banking keystreams from {p['num_harvest']} known-plaintext "
        "captures (retransmissions of the decrypted packet)",
    )
    with ctx.timer("harvest"):
        pool = KeystreamPool()
        for _ in range(p["num_harvest"]):
            frame = victim.encapsulate(spec.msdu_data(), ap_mac, victim_mac)
            pool.add(frame, plaintext)

    ctx.emit("invert", "running Michael backwards over the decrypted packet")
    with ctx.timer("invert"):
        data, mic, _icv = split_protected_msdu(plaintext)
        mic_key = recover_key(michael_header(ap_mac, victim_mac) + data, mic)
    key_correct = mic_key == victim.mic_key

    forge_spec = TcpPacketSpec(
        source_ip="203.0.113.7", dest_ip="192.168.1.101",
        source_port=80, dest_port=51324,
        payload=b"B" * p["forge_payload_len"],
    )
    forged_msdu = forge_spec.msdu_data()
    budget_capacity = pool.capacity(max_fragments=p["max_fragments"])
    ctx.emit(
        "forge",
        f"fragmenting a {len(forged_msdu)}-byte MSDU over reused "
        f"keystreams (pool capacity {budget_capacity} bytes across "
        f"{p['max_fragments']} fragments)",
    )
    with ctx.timer("forge"):
        fragments = fragment_msdu(
            forged_msdu, mic_key, ap_mac, victim_mac, pool,
            priority=p["priority"], max_fragments=p["max_fragments"],
        )
        protected = reassemble_fragments(victim.tk, fragments)
        received_data, received_mic = protected[:-8], protected[-8:]
        expected = michael(
            victim.mic_key,
            michael_header(ap_mac, victim_mac, p["priority"]) + received_data,
        )
        accepted = received_mic == expected and received_data == forged_msdu

    single_capacity = len(plaintext) - 4
    return {
        "mic_key": mic_key.hex(),
        "key_correct": bool(key_correct),
        "correct": bool(key_correct and accepted),
        "harvested_keystreams": len(pool),
        "pool_capacity_bytes": budget_capacity,
        "forged_msdu_len": len(forged_msdu),
        "fragments_used": len(fragments),
        "single_keystream_capacity": single_capacity,
        "amplification": round(len(forged_msdu) / single_capacity, 3),
        "accepted": bool(accepted),
    }


# --------------------------------------------------------------------------
# §3.3.1 — per-position bias sweep
# --------------------------------------------------------------------------

#: Headline single-byte cells a sweep reports when its range covers them:
#: (position, value, catalog probability or None for qualitative entries).
def _sweep_headline_cells() -> list[tuple[int, int, float]]:
    from ..biases import KEYLEN_BIAS_16, MANTIN_SHAMIR, Z1_129, zero_bias

    cells = [
        (Z1_129.position, Z1_129.value, Z1_129.probability),
        (MANTIN_SHAMIR.position, MANTIN_SHAMIR.value, MANTIN_SHAMIR.probability),
        (KEYLEN_BIAS_16.position, KEYLEN_BIAS_16.value, KEYLEN_BIAS_16.probability),
        (3, 0, zero_bias(3).probability),
    ]
    return cells


@experiment(
    "bias-sweep",
    description="Per-position single-byte bias profile over a position range",
    section="§3.3.1",
    params=(
        Param("num_keys", scaled=1 << 17, maximum=1 << 26,
              help="independent RC4 keys to count"),
        Param("start", default=1, help="first 1-indexed position (inclusive)"),
        Param("end", default=64, help="last 1-indexed position (inclusive)"),
        Param("top", default=3, help="strongest cells reported per position"),
    ),
)
def _bias_sweep(ctx) -> dict[str, Any]:
    p = ctx.params
    start, end = p["start"], p["end"]
    if not 1 <= start <= end <= 4096:
        raise ExperimentParamError(
            f"need 1 <= start <= end <= 4096, got start={start} end={end}"
        )
    if p["top"] < 1:
        raise ExperimentParamError(f"top must be >= 1, got {p['top']}")
    spec = DatasetSpec(
        kind="single", num_keys=p["num_keys"], positions=end,
        label="api-bias-sweep",
    )
    counts = _run_dataset(ctx, spec)[start - 1 : end]

    ctx.emit("profile", f"profiling positions {start}..{end}")
    with ctx.timer("profile"):
        totals = counts.sum(axis=1, keepdims=True).astype(np.float64)
        rel = counts / totals * 256.0 - 1.0
        sigma = np.sqrt(255.0 / float(p["num_keys"]))
        profile = []
        for row in range(counts.shape[0]):
            order = np.argsort(-np.abs(rel[row]))[: p["top"]]
            profile.append(
                {
                    "position": start + row,
                    "cells": [
                        {
                            "value": int(v),
                            "probability": float(counts[row, v] / totals[row, 0]),
                            "relative_bias": float(rel[row, v]),
                            "z": float(rel[row, v] / sigma),
                        }
                        for v in order
                    ],
                }
            )
        headline = []
        for position, value, probability in _sweep_headline_cells():
            if not start <= position <= end:
                continue
            row = position - start
            headline.append(
                {
                    "position": position,
                    "value": value,
                    "measured_probability": float(
                        counts[row, value] / totals[row, 0]
                    ),
                    "model_probability": probability,
                    "measured_relative_bias": float(rel[row, value]),
                    "model_relative_bias": probability * 256.0 - 1.0,
                    "z_vs_uniform": float(rel[row, value] / sigma),
                }
            )
        # Sen Gupta et al.: value 0 is positively biased for 3 <= r <= 255.
        zero_lo, zero_hi = max(start, 3), min(end, 255)
        if zero_lo <= zero_hi:
            zero_rel = rel[zero_lo - start : zero_hi - start + 1, 0]
            zero_fraction = float((zero_rel > 0).mean())
        else:
            zero_fraction = None
    return {
        "num_keys": p["num_keys"],
        "positions": [start, end],
        "sigma_relative": float(sigma),
        "profile": profile,
        "headline_cells": headline,
        "zero_bias_positive_fraction": zero_fraction,
    }


@experiment(
    "bias-sweep-digraph",
    description="Per-position consecutive-digraph profile vs the FM model",
    section="§3.3.1",
    params=(
        Param("num_keys", scaled=1 << 15, maximum=1 << 24,
              help="independent RC4 keys to count"),
        Param("start", default=1, help="first digraph start position"),
        Param("end", default=16, help="last digraph start position"),
        Param("top", default=2, help="strongest cells reported per position"),
    ),
)
def _bias_sweep_digraph(ctx) -> dict[str, Any]:
    from ..biases import fm_biased_cells, position_to_counter

    p = ctx.params
    start, end = p["start"], p["end"]
    if not 1 <= start <= end <= 512:
        raise ExperimentParamError(
            f"need 1 <= start <= end <= 512, got start={start} end={end}"
        )
    if p["top"] < 1:
        raise ExperimentParamError(f"top must be >= 1, got {p['top']}")
    spec = DatasetSpec(
        kind="consec", num_keys=p["num_keys"], positions=end,
        label="api-bias-sweep-digraph",
    )
    counts = _run_dataset(ctx, spec)[start - 1 : end]

    ctx.emit("profile", f"profiling digraphs at positions {start}..{end}")
    with ctx.timer("profile"):
        total = float(p["num_keys"])
        sigma = np.sqrt(65535.0 / total)  # std of the relative bias at p ~ 2^-16
        profile = []
        for row in range(counts.shape[0]):
            r = start + row
            table = counts[row]
            rel = table / total * 65536.0 - 1.0
            cells = []
            for flat in np.argsort(-np.abs(rel), axis=None)[: p["top"]]:
                a, b = divmod(int(flat), 256)
                cells.append(
                    {
                        "values": (a, b),
                        "probability": float(table[a, b] / total),
                        "relative_bias": float(rel[a, b]),
                        "z": float(rel[a, b] / sigma),
                    }
                )
            fm = []
            for (a, b), probability in fm_biased_cells(position_to_counter(r), r):
                fm.append(
                    {
                        "values": (a, b),
                        "measured_probability": float(table[a, b] / total),
                        "model_probability": probability,
                        "measured_relative_bias": float(rel[a, b]),
                        "model_relative_bias": probability * 65536.0 - 1.0,
                    }
                )
            profile.append({"position": r, "cells": cells, "fm_cells": fm})
    return {
        "num_keys": p["num_keys"],
        "positions": [start, end],
        "sigma_relative": float(sigma),
        "profile": profile,
    }


@experiment(
    "bias-sweep-pertsc",
    description="Per-TSC single-byte keystream sweeps on the capture engine",
    section="§5.1",
    params=(
        Param("num_tsc", scaled=4, maximum=256,
              help="TSC values swept (evenly spread over the 2^16 space)"),
        Param("packets_per_tsc", scaled=1 << 12, maximum=1 << 18,
              help="keystreams measured per TSC value"),
        Param("start", default=1, help="first 1-indexed position (inclusive)"),
        Param("end", default=16, help="last 1-indexed position (inclusive)"),
        Param("top", default=2, help="strongest cells reported per TSC"),
        Param("batch_size", default=4096,
              help="keystreams per capture-engine batch"),
    ),
)
def _bias_sweep_pertsc(ctx) -> dict[str, Any]:
    """TSC-dependent keystream biases (Paterson et al., paper §5.1).

    Rides the batched capture engine with an all-zero plaintext, so the
    counted ciphertext *is* the keystream: one
    :class:`~repro.capture.TkipCaptureSource` campaign per run, sharded
    into deterministic batches, measures Pr[Z_r = k | TSC] for every
    swept TSC value.
    """
    from ..capture import TkipCaptureSource, run_capture
    from ..tkip import default_tsc_space

    p = ctx.params
    start, end = p["start"], p["end"]
    if not 1 <= start <= end <= 512:
        raise ExperimentParamError(
            f"need 1 <= start <= end <= 512, got start={start} end={end}"
        )
    if p["top"] < 1:
        raise ExperimentParamError(f"top must be >= 1, got {p['top']}")
    if not 1 <= p["num_tsc"] <= 65536:
        raise ExperimentParamError(
            f"num_tsc must be 1..65536, got {p['num_tsc']}"
        )
    tsc_values = default_tsc_space(p["num_tsc"])
    total = p["num_tsc"] * p["packets_per_tsc"]
    ctx.emit(
        "capture",
        f"measuring {p['num_tsc']} TSC values x {p['packets_per_tsc']} "
        f"keystreams ({total} total) on the capture engine",
        total=total,
    )
    with ctx.timer("capture"):
        source = TkipCaptureSource(
            config=ctx.config,
            plaintext=bytes(end),  # zeros: ciphertext == keystream
            tsc_values=tuple(tsc_values),
            packets_per_tsc=p["packets_per_tsc"],
            positions=range(start, end + 1),
            batch_size=p["batch_size"],
            label="api-pertsc-sweep",
        )
        capture = run_capture(
            source, progress=ctx.capture_progress("capture")
        )

    ctx.emit("profile", f"profiling positions {start}..{end} per TSC")
    with ctx.timer("profile"):
        stacked = np.stack(
            [capture.counts[tsc & 0xFFFF] for tsc in tsc_values]
        ).astype(np.float64)
        totals = stacked.sum(axis=2, keepdims=True)
        rel = stacked / totals * 256.0 - 1.0
        sigma = float(np.sqrt(255.0 / p["packets_per_tsc"]))
        profile = []
        for t, tsc in enumerate(tsc_values):
            cells = _top_cells_2d(capture.counts[tsc & 0xFFFF], p["top"])
            for cell in cells:
                cell["position"] += start - 1
            profile.append({"tsc": tsc, "cells": cells})
        # TSC dependence: how much the strongest per-position bias moves
        # across TSC values — flat for TSC-independent positions, wide
        # where the public key bytes bite (the §5.1 effect).
        strongest = np.abs(rel).max(axis=2)
        spread = strongest.max(axis=0) - strongest.min(axis=0)
        dependent = [
            start + int(r) for r in np.nonzero(spread > 4.0 * sigma)[0]
        ]
    return {
        "num_tsc": p["num_tsc"],
        "packets_per_tsc": p["packets_per_tsc"],
        "positions": [start, end],
        "sigma_relative": sigma,
        "profile": profile,
        "tsc_spread_per_position": [float(s) for s in spread],
        "tsc_dependent_positions": dependent,
        "total_counts": int(stacked.sum()),
    }


# --------------------------------------------------------------------------
# §6 — TLS/HTTPS cookie attack
# --------------------------------------------------------------------------


@experiment(
    "attack-https",
    description="End-to-end HTTPS secure-cookie recovery + brute force",
    section="§6",
    params=(
        Param("cookie_len", default=0,
              help="secret cookie length; 0 = auto (3, or 16 at scale >= 4)"),
        Param("num_requests", scaled=1 << 29, minimum=1 << 29,
              maximum=9 * 2 ** 27, help="encrypted requests to sample"),
        Param("num_candidates", scaled=1 << 16, minimum=1 << 12,
              maximum=1 << 23, help="Algorithm 2 candidate list size"),
        Param("max_gap", default=128, help="ABSAB gap cap (paper: 128)"),
        Param("browser", kind="str", default="generic",
              help="victim client layout: generic/chrome/firefox/safari/curl"),
        Param("capture", kind="str", default="sampled",
              help="capture fidelity: sampled (statistic-level "
                   "multinomials) or batched (keystream-level engine)"),
        Param("batch_size", default=4096,
              help="requests per engine batch (capture=batched)"),
        Param("reconnect_every", default=1,
              help="requests per connection before the victim rekeys "
                   "(capture=batched; 1 = fresh connection per request, "
                   "the Fig 10 record-churn regime)"),
        Param("checkpoint", kind="str", default="",
              help="resumable-capture checkpoint path (capture=batched)"),
    ),
)
def _attack_https(ctx) -> dict[str, Any]:
    from ..simulate import HttpsAttackSimulation, tls_timeline
    from ..tls.bruteforce import PAPER_TEST_RATE
    from ..tls.http import BROWSER_PROFILES

    p = ctx.params
    if p["browser"] not in BROWSER_PROFILES:
        raise ExperimentParamError(
            f"browser must be one of {', '.join(sorted(BROWSER_PROFILES))}; "
            f"got {p['browser']!r}"
        )
    if p["capture"] not in ("sampled", "batched"):
        raise ExperimentParamError(
            f"capture must be 'sampled' or 'batched', got {p['capture']!r}"
        )
    if p["capture"] != "batched" and (p["reconnect_every"] != 1 or p["checkpoint"]):
        raise ExperimentParamError(
            "reconnect_every/checkpoint require capture=batched"
        )
    cookie_len = p["cookie_len"]
    if cookie_len <= 0:
        cookie_len = 3 if ctx.config.scale < 4 else 16
    sim = HttpsAttackSimulation(
        ctx.config, cookie_len=cookie_len, max_gap=p["max_gap"],
        browser=p["browser"],
    )
    timeline = tls_timeline(p["num_requests"], candidates=p["num_candidates"])

    ctx.emit(
        "collect",
        f"collecting statistics from {p['num_requests']} requests "
        f"via {p['capture']} capture "
        f"(~{timeline.capture_hours:.1f} victim-hours at paper rate)",
        num_requests=p["num_requests"],
    )
    with ctx.timer("collect"):
        if p["capture"] == "batched":
            stats = sim.batched_statistics(
                p["num_requests"],
                batch_size=p["batch_size"],
                reconnect_every=p["reconnect_every"],
                checkpoint_path=p["checkpoint"] or None,
                progress=ctx.capture_progress("collect"),
            )
        else:
            stats = sim.sampled_statistics(p["num_requests"])

    ctx.emit(
        "candidates",
        f"generating {p['num_candidates']} candidates "
        "(Algorithm 2, RFC 6265 alphabet)",
    )
    with ctx.timer("recover"):
        result = sim.attack(stats, num_candidates=p["num_candidates"])

    return {
        "browser": p["browser"],
        "capture": p["capture"],
        "reconnect_every": p["reconnect_every"],
        "cookie_charset": sim.profile.cookie_charset_name,
        "cookie_len": cookie_len,
        "num_requests": result.num_requests,
        "rank": result.rank,
        "attempts": result.attempts,
        "pruned": result.pruned,
        "cookie": result.cookie.decode("latin-1"),
        "request_len": sim.layout.request_len,
        "cookie_span": sim.layout.cookie_span,
        "absab_alignments": len(stats.absab_counts),
        "fm_transitions": int(stats.fm_counts.shape[0]),
        "capture_hours_equivalent": timeline.capture_hours,
        "bruteforce_seconds_equivalent": result.attempts / PAPER_TEST_RATE,
    }


# --------------------------------------------------------------------------
# §5/§6 against victim populations — campaigns
# --------------------------------------------------------------------------


def _parse_names(p, name: str) -> tuple[str, ...]:
    values = tuple(v.strip() for v in p[name].split(",") if v.strip())
    if not values:
        raise ExperimentParamError(f"{name} must name at least one value")
    return values


def _surface_metrics(result) -> list[dict[str, Any]]:
    """The success surface flattened to JSON-able cell records."""
    cells = []
    for key, cell in result.success_surface().items():
        record = dict(zip(result.axes, key))
        record.update(cell)
        cells.append(record)
    return cells


def _emit_surface(ctx, result, stage: str) -> None:
    from ..analysis import surface_table

    cells = result.heat_cells("rate")
    if not cells:
        return
    axes = "/".join(result.axes[:-1]) or result.axes[0]
    ctx.emit(
        stage,
        "success-rate surface:\n"
        + surface_table(
            cells, row_label=axes, col_label=result.axes[-1], fmt="{:.2f}"
        ),
    )


@experiment(
    "campaign-https",
    description="§6 campaign: cookie-recovery success surface over "
                "a heterogeneous victim population",
    section="§6",
    params=(
        Param("population", scaled=64, maximum=4096,
              help="victims to sample (0 = empty campaign, a no-op)"),
        Param("num_requests", scaled=1 << 13, maximum=1 << 24,
              help="encrypted requests captured per victim group"),
        Param("cookie_len", default=2,
              help="secret cookie length per victim"),
        Param("num_candidates", scaled=1 << 10, maximum=1 << 23,
              help="Algorithm 2 candidate list size per victim"),
        Param("max_gap", default=4, help="ABSAB gap cap"),
        Param("batch_size", default=4096,
              help="requests per engine batch (must divide by the "
                   "largest reconnect regime)"),
        Param("group_size", default=8,
              help="max victims sharing one keystream capture group"),
        Param("browsers", kind="str", default=",".join(DEFAULT_BROWSERS),
              help="comma-separated client-layout axis"),
        Param("charsets", kind="str", default=",".join(DEFAULT_CHARSETS),
              help="comma-separated cookie-alphabet axis"),
        Param("reconnect_regimes", kind="ints",
              default=DEFAULT_RECONNECT_REGIMES,
              help="comma-separated requests-per-connection axis"),
        Param("checkpoint", kind="str", default="",
              help="campaign checkpoint directory: per-group capture "
                   "NPZs plus finished-group outcome records; rerunning "
                   "with the same directory resumes mid-campaign"),
    ),
)
def _campaign_https(ctx) -> dict[str, Any]:
    from ..campaign import Population, run_https_campaign
    from ..simulate import tls_timeline

    p = ctx.params
    if p["population"] < 0:
        raise ExperimentParamError(
            f"population must be >= 0, got {p['population']}"
        )
    population = Population.sample(
        ctx.config,
        p["population"],
        browsers=_parse_names(p, "browsers"),
        charsets=_parse_names(p, "charsets"),
        reconnect_regimes=p["reconnect_regimes"],
        label="campaign-https",
    )
    timeline = tls_timeline(p["num_requests"], candidates=p["num_candidates"])
    ctx.emit(
        "campaign",
        f"campaigning against {len(population)} victims "
        f"({p['num_requests']} requests each, shared-keystream groups "
        f"of <= {p['group_size']}; ~{timeline.capture_hours:.2f} "
        "victim-hours at paper rate)",
        population=len(population),
    )
    with ctx.timer("campaign"):
        result = run_https_campaign(
            ctx.config,
            population,
            num_requests=p["num_requests"],
            cookie_len=p["cookie_len"],
            num_candidates=p["num_candidates"],
            max_gap=p["max_gap"],
            batch_size=p["batch_size"],
            group_size=p["group_size"],
            checkpoint_dir=p["checkpoint"] or None,
            on_group=lambda i, n, tag: ctx.emit(
                "capture", f"group {i + 1}/{n}: {tag}"
            ),
        )
    _emit_surface(ctx, result, "surface")
    fit = result.surface_fit()
    return {
        "population": result.trials,
        "num_groups": result.num_groups,
        "successes": result.successes,
        "success_rate": (
            result.successes / result.trials if result.trials else None
        ),
        "surface": _surface_metrics(result),
        "surface_fit": {
            "ok": fit.ok,
            "worst_label": fit.worst_label,
            "worst_deviation": fit.worst_deviation,
        },
        "capture_hours_equivalent": timeline.capture_hours,
    }


@experiment(
    "campaign-tkip",
    description="§5 campaign: TKIP decryption campaign over a "
                "population of per-TSC injection budgets",
    section="§5",
    params=(
        Param("population", scaled=8, maximum=1024,
              help="victims to sample (0 = empty campaign, a no-op)"),
        Param("num_tsc", scaled=4, maximum=256,
              help="TSC values spanning the 16-bit space"),
        Param("keys_per_tsc", scaled=1 << 10, maximum=1 << 16,
              help="keys per TSC for the reference distribution map"),
        Param("budgets", kind="ints", default=DEFAULT_BUDGETS,
              help="comma-separated packets-per-TSC axis (batched "
                   "recovery needs paper-scale budgets — see "
                   "docs/experiment-atlas.md)"),
        Param("max_candidates", default=1 << 14,
              help="candidate cap per victim before giving up"),
        Param("batch_size", default=4096,
              help="packets per engine batch"),
        Param("group_size", default=4,
              help="max victims sharing one keystream capture group"),
        Param("checkpoint", kind="str", default="",
              help="campaign checkpoint directory (as campaign-https)"),
    ),
)
def _campaign_tkip(ctx) -> dict[str, Any]:
    from ..campaign import Population, run_tkip_campaign
    from ..simulate import tkip_timeline

    p = ctx.params
    if p["population"] < 0:
        raise ExperimentParamError(
            f"population must be >= 0, got {p['population']}"
        )
    if not 1 <= p["num_tsc"] <= 65536:
        raise ExperimentParamError(
            f"num_tsc must be 1..65536, got {p['num_tsc']}"
        )
    population = Population.sample(
        ctx.config,
        p["population"],
        budgets=p["budgets"],
        label="campaign-tkip",
    )
    max_budget = max(p["budgets"])
    timeline = tkip_timeline(p["num_tsc"] * max_budget)
    ctx.emit(
        "campaign",
        f"campaigning against {len(population)} victims "
        f"({p['num_tsc']} TSC values, budgets {list(p['budgets'])}; "
        f"worst cell ~{timeline.capture_hours:.2f} h on-air)",
        population=len(population),
    )
    with ctx.timer("campaign"):
        result = run_tkip_campaign(
            ctx.config,
            population,
            num_tsc=p["num_tsc"],
            keys_per_tsc=p["keys_per_tsc"],
            max_candidates=p["max_candidates"],
            batch_size=p["batch_size"],
            group_size=p["group_size"],
            checkpoint_dir=p["checkpoint"] or None,
            on_group=lambda i, n, tag: ctx.emit(
                "capture", f"group {i + 1}/{n}: {tag}"
            ),
        )
    _emit_surface(ctx, result, "surface")
    fit = result.surface_fit()
    return {
        "population": result.trials,
        "num_groups": result.num_groups,
        "successes": result.successes,
        "success_rate": (
            result.successes / result.trials if result.trials else None
        ),
        "surface": _surface_metrics(result),
        "surface_fit": {
            "ok": fit.ok,
            "worst_label": fit.worst_label,
            "worst_deviation": fit.worst_deviation,
        },
        "capture_hours_equivalent": timeline.capture_hours,
    }
