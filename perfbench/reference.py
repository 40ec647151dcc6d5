"""A fixed reference loop that measures how fast the machine is right now.

The benchmark shares a few cores and the last-level cache of a busy
host.  Over minutes the same code runs up to 2.5x slower or faster,
because of the other jobs on the host, not because of the program.
Timing this loop between the repetitions of a workload, in the same
process, gives the machine's current speed; the workload's time divided
by the loop's time is what ``*_ref`` metrics report.  A slow spell
stretches both alike, so it cancels out, and a change to the program
moves only the numerator.

The loop uses only the standard library and numpy, never the program,
so no change to the program can speed it up.  It mixes the kinds of work
the pipeline does: interpreted Python with heap and dict traffic (the
lazy walk, the per-TSC loops), byte-wise counting passes over a few MiB
(keystream counting), float64 array passes (likelihoods), random
sampling (the sampled statistics) and zlib compression of counters
(checkpoints).  Its working set, with numpy's temporaries, is a few tens
of MiB, like the workloads', so it feels the same contention for the
host's shared cache and memory.  A loop that fitted in the per-core
cache did not: in one slow spell a workload ran 2-2.5x slower while that
loop ran 1.5x slower.
"""

from __future__ import annotations

import hashlib
import heapq
import time
import zlib

import numpy as np

#: Sizes chosen so that one pass takes about 0.25 s on a 2-CPU Xeon.
HEAP_ITEMS = 32_000
ARRAY_BYTES = 1 << 22
FLOAT_SHAPE = (256, 4096)
FLOAT_PASSES = 8
COUNTERS = 1 << 18
SAMPLES = 1 << 20


class Reference:
    """Inputs drawn once from a fixed seed; :meth:`time` times one pass."""

    def __init__(self) -> None:
        rng = np.random.default_rng(20160810)
        self.keys = [bytes(row) for row in
                     rng.integers(0, 256, size=(HEAP_ITEMS, 16), dtype=np.uint8)]
        self.scores = rng.standard_normal(HEAP_ITEMS).tolist()
        self.data = rng.integers(0, 256, size=ARRAY_BYTES, dtype=np.uint8)
        self.floats = rng.random(FLOAT_SHAPE)
        self.counters = rng.poisson(3.0, size=COUNTERS).astype(np.int64)
        self.expected: int | None = None

    def _run(self) -> int:
        heap: list[tuple[float, bytes]] = []
        seen: dict[bytes, int] = {}
        for score, key in zip(self.scores, self.keys):
            heapq.heappush(heap, (score, key))
            seen[key[:4]] = seen.get(key[:4], 0) + 1
        while len(heap) > 1:
            heapq.heappop(heap)
        digest = hashlib.sha1(self.data).digest()
        counts = np.bincount(self.data, minlength=256)
        pairs = np.bincount(
            (self.data[:-1].astype(np.uint16) << 8) | self.data[1:],
            minlength=65536,
        )
        acc = self.floats
        for _ in range(FLOAT_PASSES):
            acc = np.log1p(acc) + acc.mean(axis=1, keepdims=True)
        order = np.argsort(self.data[: 1 << 20], kind="stable")
        packed = zlib.compress(self.counters.tobytes(), 6)
        draws = np.random.default_rng(7).binomial(1 << 20, 1 / 256, size=SAMPLES)
        return (len(seen) + int(counts[7]) + int(pairs.argmax())
                + digest[0] + int(order[0]) + int(acc.argmax())
                + len(packed) + int(draws.sum()))

    def time(self) -> float:
        """Seconds one pass took; raises if the pass computed otherwise."""
        start = time.perf_counter()
        result = self._run()
        elapsed = time.perf_counter() - start
        if self.expected is None:
            self.expected = result
        elif result != self.expected:
            raise RuntimeError("reference loop gave a different result")
        return elapsed
