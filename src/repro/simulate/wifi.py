"""Packet-level Wi-Fi attack simulation: the full §5 pipeline, small N.

Glues the substrates together exactly as the paper's field test ran:
a victim client with a TKIP session, an attacker-controlled TCP server
whose retransmissions the client keeps re-encrypting, a passive sniffer
building per-TSC ciphertext statistics, and the recovery pipeline
(likelihoods -> candidates -> CRC prune -> Michael inversion).

Real RC4, real key mixing, real Michael/CRC — every byte on the
simulated air is produced by the actual protocol stack.  Use the
statistic-level samplers (Fig 8/9 benchmarks) for paper-scale N.
"""

from __future__ import annotations

from dataclasses import dataclass


from ..config import ReproConfig
from ..errors import AttackError
from ..tkip.attack import TkipAttackResult, run_attack
from ..tkip.injection import CaptureSet, InjectionCampaign
from ..tkip.packets import TcpPacketSpec, build_protected_msdu
from ..tkip.per_tsc import PerTscDistributions
from ..tkip.session import TkipSession

VICTIM_MAC = bytes.fromhex("0013d4fe0a11")
AP_MAC = bytes.fromhex("00254b7e33c0")
SERVER_IP = "203.0.113.7"


@dataclass
class WifiAttackSimulation:
    """A complete simulated WPA-TKIP network under attack.

    Args:
        config: run configuration (seeding).
        payload: TCP payload of the injected packet (paper §5.2 uses a
            7-byte payload so the MIC/ICV land on stronger positions and
            the packet length is unique on the air).
    """

    config: ReproConfig
    payload: bytes = b"ATTACK!"

    def __post_init__(self) -> None:
        rng = self.config.rng("wifi-sim")
        self.victim = TkipSession.random(rng, VICTIM_MAC)
        self.spec = TcpPacketSpec(
            source_ip="192.168.1.101",
            dest_ip=SERVER_IP,
            source_port=51324,
            dest_port=80,
            payload=self.payload,
        )
        self.campaign = InjectionCampaign(
            session=self.victim, spec=self.spec, da=AP_MAC, sa=VICTIM_MAC
        )

    @property
    def true_plaintext(self) -> bytes:
        """Ground truth (data || MIC || ICV) for success accounting."""
        return build_protected_msdu(
            self.spec, self.victim.mic_key, AP_MAC, VICTIM_MAC
        )

    def capture(self, num_packets: int) -> CaptureSet:
        """Run the injection campaign and sniff every transmission."""
        return self.campaign.run(num_packets)

    def capture_source(
        self,
        tsc_values: list[int],
        packets_per_tsc: int,
        *,
        batch_size: int = 4096,
    ):
        """The deterministic batched source behind :meth:`batched_capture`.

        Exposed separately so a caller can checkpoint, shard or merge the
        capture itself through :func:`repro.capture.run_capture`.
        """
        from ..capture import TkipCaptureSource

        return TkipCaptureSource(
            config=self.config,
            plaintext=self.true_plaintext,
            tsc_values=tuple(tsc_values),
            packets_per_tsc=packets_per_tsc,
            batch_size=batch_size,
            label="tkip-capture",
        )

    def batched_capture(
        self,
        tsc_values: list[int],
        packets_per_tsc: int,
        *,
        batch_size: int = 4096,
        checkpoint_path=None,
        checkpoint_every: int = 16,
        progress=None,
    ) -> CaptureSet:
        """Keystream-level capture on the batched engine.

        Real RC4 keystreams under the §2.2 key model (public TSC bytes +
        uniform tail) XOR the true plaintext, counted by the vectorized
        kernels — the statistic-level equivalent of running the
        injection campaign for ``packets_per_tsc`` packets at each TSC,
        without the per-frame Python loop.  Checkpoints make long
        captures resumable (see :func:`repro.capture.run_capture`).
        """
        from ..capture import run_capture

        return run_capture(
            self.capture_source(
                tsc_values, packets_per_tsc, batch_size=batch_size
            ),
            checkpoint_path=checkpoint_path,
            checkpoint_every=checkpoint_every,
            progress=progress,
        )

    def attack(
        self,
        capture: CaptureSet,
        per_tsc: PerTscDistributions,
        *,
        max_candidates: int = 1 << 20,
    ) -> TkipAttackResult:
        """Recover MIC+ICV and derive the MIC key; verifies against truth."""
        known = self.spec.msdu_data()
        truth = self.true_plaintext
        true_mic = truth[len(known) : len(known) + 8]
        result = run_attack(
            capture,
            per_tsc,
            known,
            AP_MAC,
            VICTIM_MAC,
            max_candidates=max_candidates,
            true_mic=true_mic,
        )
        if result.correct and result.mic_key != self.victim.mic_key:
            raise AttackError("recovered MIC key differs despite correct MIC")
        return result

    def forge_frame(self, mic_key: bytes, payload: bytes):
        """Demonstrate the §2.2 consequence: with the MIC key an attacker
        injects a packet the victim's stack accepts."""
        spec = TcpPacketSpec(
            source_ip=SERVER_IP,
            dest_ip="192.168.1.101",
            source_port=80,
            dest_port=51324,
            payload=payload,
        )
        attacker = TkipSession(
            tk=self.victim.tk,  # for the demo frame we reuse the session key;
            mic_key=mic_key,  # the forged MIC is what the attack recovered
            ta=VICTIM_MAC,
            tsc=self.victim.tsc,
        )
        return attacker.encapsulate(spec.msdu_data(), AP_MAC, VICTIM_MAC)
