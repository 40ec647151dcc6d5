#!/usr/bin/env python3
"""The full HTTPS cookie attack of paper §6, simulated end to end.

Pipeline (inside the registered ``attack-https`` experiment): cookie-jar
manipulation over plain HTTP (isolate the secure cookie, inject known
cookies, pad to 512-byte records) -> JavaScript-driven request
generation -> Fluhrer-McGrew + ABSAB likelihoods -> Algorithm 2 over the
RFC 6265 alphabet -> brute force against the server.

Ciphertext statistics come from the exact sufficient-statistic sampler
(the paper's 9*2^27 requests took 75 hours on real hardware; the sampler
is distribution-exact).  A short cookie keeps the default run in
seconds; scale up with REPRO_SCALE / ``--param cookie_len=16``.  Like
the other examples, this narrates the shared ``attack-https`` registry
entry — the same one ``python -m repro run attack-https`` runs.

Run:  python examples/https_cookie_attack.py
"""

from repro.api import Session
from repro.tls import PAPER_REQUEST_RATE, PAPER_TEST_RATE


def main() -> None:
    stages = {"collect": "1/3", "candidates": "2/3"}
    session = Session(progress=lambda event: print(
        f"\n[{stages.get(event.stage, '?')}] {event.message}..."
    ))
    print("== HTTPS secure-cookie attack (paper §6) ==")
    result = session.run("attack-https")
    m = result.metrics

    print(f"\nrequest layout: {m['request_len']} bytes "
          f"(+20 MAC = {m['request_len'] + 20}, multiple of 256), "
          f"cookie at positions {tuple(m['cookie_span'])}")
    print(f"collected {m['absab_alignments']} ABSAB alignments + "
          f"{m['fm_transitions']} FM transitions in "
          f"{result.timings['collect']:.1f}s "
          f"(equivalent victim time at {PAPER_REQUEST_RATE:.0f} req/s: "
          f"{m['capture_hours_equivalent']:.1f} hours; paper: 75 h)")
    print(f"candidate generation took {result.timings['recover']:.1f}s")

    print("\n[3/3] brute force against the server oracle...")
    print(f"      cookie found at rank {m['rank']} "
          f"after {m['attempts']} attempts")
    print(f"      brute-force wall clock at {PAPER_TEST_RATE:.0f} tests/s: "
          f"{m['bruteforce_seconds_equivalent']:.2f}s "
          f"(paper: <7 min for all 2^23)")
    print(f"      recovered cookie: {m['cookie']}")


if __name__ == "__main__":
    main()
