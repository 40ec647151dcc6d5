"""Packet-level HTTPS attack simulation: the full §6 pipeline, small N.

A victim browser holds a secure cookie for the target site; the attacker
(a) manipulates the cookie jar over plain HTTP, (b) drives background
HTTPS requests via injected JavaScript, (c) sniffs the encrypted records,
and (d) runs the combined-bias recovery plus brute force.  Every byte is
produced by the real record layer (PRF-derived keys, HMAC-SHA1, RC4).

The statistic-level path (:meth:`HttpsAttackSimulation.sampled_statistics`)
produces the identical sufficient statistics at paper scale by sampling
the model-induced multinomials, one PCG64 stream per counter row, on
native threads; benchmarks use it for Figure 10.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..biases.fluhrer_mcgrew import fm_digraph_distribution, position_to_counter
from ..config import ReproConfig, child_seed
from ..errors import AttackError
from ..tls.attack import (
    CookieAttackResult,
    CookieLayout,
    CookieStatistics,
    run_attack,
)
from ..tls.bruteforce import BruteForceOracle, CandidatePruner
from ..tls.cookies import charset as charset_by_name
from ..tls.cookies import random_cookie
from ..tls.http import CookieJar, browser_profile
from ..tls.mitm import MitmCampaign
from .sampling import (
    absab_cipher_probs,
    check_trials,
    digraph_cipher_probs,
    sample_multinomial_rows,
)

TARGET_HOST = "site.com"
TARGET_COOKIE = "auth"


@dataclass
class HttpsAttackSimulation:
    """A complete simulated HTTPS victim under the §6 attack.

    Args:
        config: run configuration (seeding).
        cookie_len: length of the secret cookie (paper attacks 16 chars).
        max_gap: ABSAB gap cap (paper uses 128).
        browser: victim client profile (see
            :data:`repro.tls.http.BROWSER_PROFILES`); picks the sniffed
            header block — hence the cookie's keystream offset — and the
            cookie alphabet the simulated site issues to that client.
            ``generic`` is the paper's Listing-3 layout and keeps every
            byte identical to earlier releases.
        charset: named cookie alphabet override (see
            :data:`repro.tls.cookies.CHARSETS`); ``None`` keeps the
            browser profile's default.  Campaign populations vary this
            axis independently of the browser layout.
    """

    config: ReproConfig
    cookie_len: int = 16
    max_gap: int = 128
    browser: str = "generic"
    charset: str | None = None

    def __post_init__(self) -> None:
        self.profile = browser_profile(self.browser)
        if self.charset is None:
            self.cookie_charset = self.profile.cookie_charset
        else:
            self.cookie_charset = charset_by_name(self.charset)
        rng = self.config.rng("https-sim", "cookie")
        secret = random_cookie(
            rng, self.cookie_len, charset=self.cookie_charset
        )
        jar = CookieJar()
        jar.set_cookie("tracking", b"abcdef0123")
        jar.set_cookie(TARGET_COOKIE, secret, secure=True)
        jar.set_cookie("prefs", b"lang-en")
        self.campaign = MitmCampaign.prepare(
            jar, TARGET_COOKIE, TARGET_HOST, headers=self.profile.headers
        )
        self.secret = secret
        self.layout = CookieLayout.from_template(
            self.campaign.template, self.cookie_len
        )

    def capture_statistics(self, num_requests: int) -> CookieStatistics:
        """Packet-level capture: real TLS traffic, sniffed and counted."""
        rng = self.config.rng("https-sim", "traffic")
        sniffer = self.campaign.run(num_requests, rng)
        stats = CookieStatistics.empty(self.layout, max_gap=self.max_gap)
        stats.ingest_sniffer(sniffer)
        return stats

    def batched_statistics(
        self,
        num_requests: int,
        *,
        batch_size: int = 4096,
        reconnect_every: int = 1,
        checkpoint_path=None,
        checkpoint_every: int = 16,
        progress=None,
    ) -> CookieStatistics:
        """Keystream-level capture on the batched engine.

        Statistically faithful middle fidelity: real RC4 keystreams XOR
        the real plaintext template, counted by the vectorized kernels
        (bit-identical to per-request :meth:`CookieStatistics
        .ingest_fragment` over the same ciphertexts — the capture
        equivalence suite holds the two paths together).
        ``reconnect_every`` requests share each connection's keystream
        (1 = fresh connection per request, the Fig 10 record-churn
        regime); checkpoints make long captures resumable (see
        :func:`repro.capture.run_capture`).
        """
        from ..capture import run_capture

        return run_capture(
            self.capture_source(
                num_requests,
                batch_size=batch_size,
                reconnect_every=reconnect_every,
            ),
            checkpoint_path=checkpoint_path,
            checkpoint_every=checkpoint_every,
            progress=progress,
        )

    def capture_source(
        self,
        num_requests: int,
        *,
        batch_size: int = 4096,
        reconnect_every: int = 1,
    ):
        """The deterministic batched source behind :meth:`batched_statistics`.

        Exposed separately so a caller can checkpoint, shard or merge the
        capture itself through :func:`repro.capture.run_capture`.
        """
        from ..capture import HttpsCaptureSource

        return HttpsCaptureSource(
            config=self.config,
            layout=self.layout,
            plaintext=self.campaign.request_plaintext(),
            num_requests=num_requests,
            batch_size=batch_size,
            reconnect_every=reconnect_every,
            max_gap=self.max_gap,
            label=f"https-capture/{self.browser}",
        )

    def sampled_statistics(self, num_requests: int) -> CookieStatistics:
        """Statistic-level capture (exact distributional equivalent).

        For every transition digraph, draw the ciphertext digraph counts
        from the Fluhrer–McGrew model; for every ABSAB alignment, draw
        differential counts from the alpha(g) model.  The likelihood
        estimators consume only these count vectors, so sampling them
        from the model-induced multinomials is distribution-exact — it
        matches a real capture of ``num_requests`` requests (see the
        :mod:`repro.simulate` package docstring).

        Every counter row draws on its own PCG64 stream, keyed by the
        row's identity: labels ``("https-sim", "sampled", num_requests,
        "fm", t)`` for transition t and ``(..., "absab", t, gap, side)``
        for an alignment.  So a row's counts do not depend on which
        other rows are drawn (``max_gap=8`` and ``16`` share their common
        alignments), and :func:`repro.simulate.sampling
        .sample_multinomial_rows` draws the rows on native threads with
        the same bits as numpy for any backend or thread count.  This
        replaced one stream for the whole run, so the counts a given
        seed produces changed once, in distribution not at all:
        ``capture=sampled`` runs stored before then are still valid
        samples but do not re-run bit for bit.

        Raises:
            DistributionError: ``num_requests`` is not an integer in
                [0, 2^63).
        """
        num_requests = check_trials(num_requests)
        layout = self.layout
        plaintext = self.campaign.request_plaintext()
        transitions = layout.transitions()
        alignments = CookieStatistics.alignment_keys(
            layout, max_gap=self.max_gap
        )
        # int64, not the capture's uint32: up to 2^63 - 1 sampled requests.
        stats = CookieStatistics.from_counters(
            layout,
            np.zeros((len(transitions), 256, 256), dtype=np.int64),
            np.zeros((len(alignments), 65536), dtype=np.int64),
            max_gap=self.max_gap,
            num_requests=num_requests,
        )
        labels = ("https-sim", "sampled", num_requests)

        def pbyte(position: int) -> int:
            return plaintext[position - layout.base_offset]

        def rows():
            for t, r in enumerate(transitions):
                dist = fm_digraph_distribution(position_to_counter(r))
                yield (
                    child_seed(self.config.seed, *labels, "fm", t),
                    digraph_cipher_probs(dist, (pbyte(r), pbyte(r + 1))),
                    stats.fm_counts[t].reshape(-1),
                )
            for (t, gap, side), counts in stats.absab_counts.items():
                r = transitions[t]
                if side == "after":
                    partner = (pbyte(r + 2 + gap), pbyte(r + 3 + gap))
                else:
                    partner = (pbyte(r - 2 - gap), pbyte(r - 1 - gap))
                diff = (pbyte(r) ^ partner[0], pbyte(r + 1) ^ partner[1])
                yield (
                    child_seed(self.config.seed, *labels, "absab", t, gap, side),
                    absab_cipher_probs(gap, diff),
                    counts,
                )

        sample_multinomial_rows(num_requests, rows())
        return stats

    def attack(
        self, stats: CookieStatistics, *, num_candidates: int = 1 << 13
    ) -> CookieAttackResult:
        """Candidate generation + brute force; verifies against truth.

        Algorithm 2 enumerates over the alphabet the layout metadata
        declares (the §6.2 RFC 6265 restriction, tightened further for
        framework-token scenarios), and the layout-aware pruner guards
        the oracle against candidates a broader pipeline could emit —
        a no-op when generation already honours the layout.
        """
        oracle = BruteForceOracle(self.secret)
        pruner = CandidatePruner.for_layout(
            self.layout, self.cookie_charset
        )
        result = run_attack(
            stats,
            oracle,
            num_candidates=num_candidates,
            charset=self.cookie_charset,
            pruner=pruner,
        )
        if result.cookie != self.secret:
            raise AttackError("oracle accepted a wrong cookie (impossible)")
        return result
