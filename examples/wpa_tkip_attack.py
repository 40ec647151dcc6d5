#!/usr/bin/env python3
"""The full WPA-TKIP attack of paper §5, simulated end to end.

Pipeline (inside the registered ``attack-tkip`` experiment): build a
TKIP network (real key mixing, Michael, CRC, RC4) -> inject identical
TCP packets -> capture per-TSC ciphertext statistics -> single-byte
likelihoods -> candidate list with CRC pruning -> invert Michael ->
forge a packet with the recovered MIC key.

The per-TSC keystream maps use a scaled TSC subspace (the paper burned
10 CPU-years on the full map; the substitution is documented in the
ROADMAP).  Captures are drawn with the exact sufficient-statistic
sampler so the example finishes in seconds.  This script is a narrated
subscriber to the Session's progress events — the orchestration itself
lives in the registry, shared with ``python -m repro run attack-tkip``.

Run:  python examples/wpa_tkip_attack.py          (REPRO_SCALE to enlarge)
"""

from repro.api import Session


def main() -> None:
    stages = {"per-tsc": "1/4", "capture": "2/4", "recover": "3/4",
              "forge": "4/4"}
    session = Session(progress=lambda event: print(
        f"\n[{stages.get(event.stage, '?')}] {event.message}..."
    ))
    print("== WPA-TKIP attack (paper §5) ==")
    result = session.run("attack-tkip")
    m = result.metrics

    print(f"\nper-TSC measurement took {result.timings['per-tsc']:.1f}s; "
          f"equivalent on-air time at 2500 pkts/s: "
          f"{m['capture_hours_equivalent']:.2f} hours "
          f"(paper: ~1 hour for 9.5*2^20 packets)")
    print(f"first CRC-valid candidate at rank {m['candidate_rank']} "
          f"({result.timings['recover']:.1f}s)")
    print(f"recovered MIC: {m['mic']}  correct: {m['correct']}")
    print(f"recovered MIC key: {m['mic_key']}")

    if m["forged"] is not None:
        forged = m["forged"]
        print(f"victim accepted forged TCP packet: "
              f"{forged['source']} -> {forged['destination']} "
              f"payload={forged['payload']!r}")
    else:
        print("no forgery attempted (MIC key not recovered) — "
              "raise REPRO_SCALE")


if __name__ == "__main__":
    main()
