"""Counting kernels over batches of RC4 keystreams (paper §3.2).

Each kernel derives counts straight from a key batch and updates int64
counters.  Like the paper's workers we accumulate into per-chunk counters
and merge afterwards; unlike the paper we can afford int64 here (their
16-bit counters were a cache optimisation at 2**30 keystreams per
worker).  The §6 capture's row kernel, :func:`templated_digraph_counts`,
counts into uint32 instead: its statistics hold fewer than 2**32
requests, so no cell can wrap, and the narrower counters halve the
memory each counting pass streams at paper gaps.

Two implementations sit behind every kernel:

- When the compiled backend (:mod:`repro.rc4._native`) is available, the
  kernels are *fused generate-and-count*: each key's keystream is
  produced and counted in one C loop with the 256-byte state in L1 —
  no keystream block is ever materialised.  Every kernel takes a
  ``threads`` knob (default ``REPRO_NATIVE_THREADS`` or
  ``os.cpu_count()``): the C side splits keys across POSIX threads with
  private counter blocks merged at the end, bit-exact for any thread
  count.
- The pure-numpy fallback streams overlapping windows out of
  :meth:`repro.rc4.batch.BatchRC4.stream_blocks` (one reused buffer, so
  long-term jobs never hold a ``(stream_len, n)`` block) and replaces the
  old per-position ``np.bincount`` loops with grouped flat bincounts over
  combined ``position * width + code`` values — O(positions / group)
  numpy dispatches instead of O(positions), with group sizes chosen so
  codes + bins stay cache-resident.

Both paths are bit-exact with :mod:`repro.rc4.reference`; see
tests/test_dataset_equivalence.py.

The grouped flat-bincount cores are exposed at array level
(:func:`bytewise_row_counts`, :func:`digraph_row_counts`) for callers
that already hold byte rows.  The §6 capture's FM and ABSAB rows go
through :func:`templated_digraph_counts`, which dispatches to a threaded
native row kernel and keeps those bincounts as its fallback.  The §5
capture needs no row kernel: XOR with its constant plaintext permutes a
position's 256 bins, so it counts keystream with
:func:`single_byte_counts`, exactly like the per-TSC tables.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..rc4 import _native
from ..rc4.batch import BatchRC4

#: Keystream rows per fused single-byte bincount group (bins = 64 * 256).
SINGLE_GROUP = 64

#: Digraph positions per fused bincount group (bins = 8 * 65536 int64
#: = 4 MiB, still cache-friendly next to the (group, n) int32 codes).
DIGRAPH_GROUP = 8

#: Rows per shared keystream-differential block in the numpy fallback of
#: :func:`templated_digraph_counts` (computed once, reused by every
#: template).
DIFFERENTIAL_CHUNK = 64


def _code_scratch(
    scratch: np.ndarray | None, width: int, n: int
) -> np.ndarray:
    """Reuse a caller-hoisted int32 code buffer when it is big enough."""
    if (
        scratch is None
        or scratch.dtype != np.int32
        or scratch.ndim != 2
        or scratch.shape[0] < width
        or scratch.shape[1] != n
    ):
        return np.empty((width, n), dtype=np.int32)
    return scratch


def bytewise_row_counts(
    rows: np.ndarray,
    out: np.ndarray,
    *,
    group: int = SINGLE_GROUP,
    scratch: np.ndarray | None = None,
) -> np.ndarray:
    """Accumulate per-row byte histograms: ``out[r, v] += #{c: rows[r, c] == v}``.

    The array-level form of the single-byte kernel, and the numpy
    fallback of :func:`single_byte_counts`.  ``rows`` is uint8
    ``(m, n)``; ``out`` must be a C-contiguous int64 ``(m, 256)``
    accumulator.  One flat bincount over combined ``row * 256 + value``
    codes per ``group`` rows.  Streaming
    callers pass a hoisted ``(group, n)`` int32 ``scratch`` so per-block
    calls stay allocation-free.
    """
    if not out.flags.c_contiguous:
        raise ValueError("out must be C-contiguous (see _contiguous_target)")
    m, n = rows.shape
    flat = out.reshape(-1)
    width = min(group, m)
    codes = _code_scratch(scratch, width, n)
    offsets = (np.arange(width, dtype=np.int32) * 256)[:, None]
    for start in range(0, m, group):
        g = min(group, m - start)
        np.add(rows[start : start + g], offsets[:g], out=codes[:g], casting="unsafe")
        flat[start * 256 : (start + g) * 256] += np.bincount(
            codes[:g].reshape(-1), minlength=g * 256
        )
    return out


def digraph_row_counts(
    first: np.ndarray,
    second: np.ndarray,
    flat_out: np.ndarray,
    row_offsets: np.ndarray,
    *,
    group: int = DIGRAPH_GROUP,
    scratch: np.ndarray | None = None,
) -> None:
    """Accumulate per-row 2-byte-code histograms into a flat counter.

    For every row r and column c this performs
    ``flat_out[row_offsets[r] + 256 * first[r, c] + second[r, c]] += 1``
    via grouped flat bincounts — the array-level core of every digraph
    kernel, shared by the streamed numpy fallback, :func:`pair_counts`,
    and the capture engine (FM digraph and ABSAB differential cells over
    ciphertext rows).  ``first``/``second`` are uint8 ``(m, n)``;
    ``row_offsets[r]`` is the flat offset of row r's 65536-bin block
    (non-contiguous offsets are fine — the long-term kernel bins by PRGA
    counter).  ``flat_out`` is int64, or uint32 for the capture counters,
    whose callers keep every cell below 2^32.  Streaming callers pass a
    hoisted ``(group, n)`` int32 ``scratch`` so per-window calls stay
    allocation-free.
    """
    m, n = first.shape
    width = min(group, m)
    codes = _code_scratch(scratch, width, n)
    for start in range(0, m, group):
        g = min(group, m - start)
        np.multiply(
            first[start : start + g], 256, out=codes[:g],
            dtype=np.int32, casting="unsafe",
        )
        codes[:g] |= second[start : start + g]
        codes[:g] += (np.arange(g, dtype=np.int32) * 65536)[:, None]
        counts = np.bincount(codes[:g].reshape(-1), minlength=g * 65536)
        counts = counts.reshape(g, 65536)
        for idx in range(g):
            offset = row_offsets[start + idx]
            cells = flat_out[offset : offset + 65536]
            np.add(cells, counts[idx], out=cells, casting="unsafe")


def templated_digraph_counts(
    columns: np.ndarray,
    templates: np.ndarray,
    first: np.ndarray,
    partner: np.ndarray,
    out: Sequence[Sequence[np.ndarray]],
    *,
    threads: int | None = None,
) -> None:
    """Count digraph and differential rows of ``columns ^ template`` per template.

    Template v sees the ciphertext block ``C = columns ^ templates[v][:,
    None]``.  Row r, with ``f = first[r]`` and ``p = partner[r]``, counts
    for every column the code ``(C[f] ^ C[p]) << 8 | (C[f+1] ^ C[p+1])``
    — an ABSAB differential (§4.2) — or, when ``p < 0``, the plain
    digraph ``C[f] << 8 | C[f+1]`` (Fluhrer–McGrew), into row r of
    template v's counters.  This is the multi-victim §6 capture kernel.

    ``columns`` is uint8 ``(L, n)`` keystream with unit column stride;
    ``templates`` is uint8 ``(V, L)``; ``first``/``partner`` are ``(R,)``
    row indices.  ``out[v]`` lists template v's C-contiguous uint32
    ``(rows, 65536)`` counter blocks, whose rows in order are rows
    0..R-1 (e.g. the FM block, then the ABSAB block); every template
    uses the same block split.  No cell may reach 2^32: the capture
    statistics bound their requests below that.

    With the native backend one threaded C kernel counts all V·R rows,
    each template folded into a per-row 16-bit XOR constant, straight
    into the counters.  The numpy fallback computes the keystream
    differentials once per :data:`DIFFERENTIAL_CHUNK` rows, XORs in each
    template's scalars and runs the grouped bincounts of
    :func:`digraph_row_counts`; a single template is folded into the
    columns up front instead.  Both are bit-identical for any thread
    count.
    """
    if columns.dtype != np.uint8 or templates.dtype != np.uint8:
        raise ValueError("columns and templates must be uint8")
    num_templates, length = templates.shape
    first = np.asarray(first, dtype=np.intp)
    partner = np.asarray(partner, dtype=np.intp)
    if first.ndim != 1 or partner.shape != first.shape:
        raise ValueError("first and partner must be 1-D of one length")
    if columns.ndim != 2 or columns.shape[0] != length:
        raise ValueError(
            f"templates cover {length} rows, columns is {columns.shape}"
        )
    if first.size and (
        first.min() < 0 or max(first.max(), partner.max()) >= length - 1
    ):
        raise ValueError(f"row pair indices outside 0..{length - 2}")
    if len(out) != num_templates:
        raise ValueError(
            f"{len(out)} counter sets for {num_templates} templates"
        )
    splits = [block.shape[0] for block in out[0]] if out else []
    for blocks in out:
        if [block.shape[0] for block in blocks] != splits:
            raise ValueError("every template needs the same block split")
        for block in blocks:
            # A reshape of a strided block would count into a copy.
            if (
                block.dtype != np.uint32
                or block.shape[1:] != (65536,)
                or not block.flags.c_contiguous
            ):
                raise ValueError(
                    "counter blocks must be C-contiguous uint32 (rows, 65536)"
                )
    if sum(splits) != first.shape[0]:
        raise ValueError(
            f"{first.shape[0]} row pairs for {sum(splits)} counter rows"
        )
    has = partner >= 0
    pair = np.where(has, partner, 0)
    wide = templates.astype(np.uint16)
    hi = wide[:, first] ^ np.where(has, wide[:, pair], 0)
    lo = wide[:, first + 1] ^ np.where(has, wide[:, pair + 1], 0)
    if _native.available():
        if columns.shape[1] > 1 and columns.strides[1] != 1:
            columns = np.ascontiguousarray(columns)
        _native.count_digraph_rows(
            columns,
            np.tile(first, num_templates),
            np.tile(partner, num_templates),
            ((hi << 8) | lo).reshape(-1),
            [block for blocks in out for block in blocks],
            threads=threads,
        )
        return
    if num_templates == 1 and templates.any():
        # One template: fold it into the columns (one XOR of the block)
        # so every row below counts with a zero template constant.
        columns = columns ^ templates[0][:, None]
        hi, lo = np.zeros_like(hi), np.zeros_like(lo)
    hi, lo = hi.astype(np.uint8), lo.astype(np.uint8)
    scratch = np.empty((DIGRAPH_GROUP, columns.shape[1]), dtype=np.int32)
    row0 = 0
    for b, rows in enumerate(splits):
        for start in range(0, rows, DIFFERENTIAL_CHUNK):
            stop = min(rows, start + DIFFERENTIAL_CHUNK)
            chunk = slice(row0 + start, row0 + stop)
            f, p = first[chunk], partner[chunk]
            d1, d2 = columns[f], columns[f + 1]
            mask = p >= 0
            if mask.any():
                d1[mask] ^= columns[p[mask]]
                d2[mask] ^= columns[p[mask] + 1]
            offsets = np.arange(start, stop, dtype=np.int64) * 65536
            for v in range(num_templates):
                v1, v2 = hi[v, chunk], lo[v, chunk]
                if v1.any() or v2.any():
                    c1, c2 = d1 ^ v1[:, None], d2 ^ v2[:, None]
                else:
                    c1, c2 = d1, d2
                digraph_row_counts(
                    c1, c2, out[v][b].reshape(-1), offsets, scratch=scratch
                )
        row0 += rows


def _contiguous_target(out: np.ndarray) -> np.ndarray:
    """Staging counter for caller-provided ``out`` buffers.

    Every counting path accumulates through a flat C-contiguous view (or
    hands the buffer to C); on a non-contiguous ``out`` a plain
    ``reshape`` would silently count into a copy.  Callers add the
    staging array back into ``out`` when it differs.
    """
    if out.flags.c_contiguous:
        return out
    return np.zeros(out.shape, dtype=out.dtype)


def _keystream_block(
    keys: np.ndarray,
    length: int,
    *,
    drop: int = 0,
    threads: int | None = None,
    simd: bool | None = None,
) -> np.ndarray:
    """Full ``(length, n)`` keystream block (pair/equality kernels only)."""
    if _native.available():
        return np.ascontiguousarray(
            _native.batch_keystream(
                keys, length, drop=drop, threads=threads, simd=simd
            ).T
        )
    batch = BatchRC4(keys)
    if drop:
        batch.skip(drop)
    return batch.keystream_rows(length)


def single_byte_counts(
    keys: np.ndarray,
    positions: int,
    *,
    out: np.ndarray | None = None,
    threads: int | None = None,
    simd: bool | None = None,
) -> np.ndarray:
    """Count Z_r = k occurrences for r = 1..positions.

    Returns (or accumulates into ``out``) an int64 array of shape
    ``(positions, 256)``.  ``threads`` and ``simd`` select the native
    backend's thread count and AVX2 tier (the numpy fallback ignores
    both).
    """
    keys = np.ascontiguousarray(keys, dtype=np.uint8)
    if out is None:
        out = np.zeros((positions, 256), dtype=np.int64)
    target = _contiguous_target(out)
    if _native.available():
        _native.count_single(keys, positions, target, threads=threads, simd=simd)
    else:
        scratch = np.empty(
            (min(SINGLE_GROUP, positions), keys.shape[0]), dtype=np.int32
        )
        for start, view in BatchRC4(keys).stream_blocks(
            positions, block=SINGLE_GROUP
        ):
            bytewise_row_counts(
                view, target[start : start + view.shape[0]], scratch=scratch
            )
    if target is not out:
        out += target
    return out


def _streamed_digraph_counts(
    keys: np.ndarray,
    positions: int,
    *,
    drop: int,
    gap: int,
    flat_out: np.ndarray,
    row_offset_codes: np.ndarray,
) -> None:
    """Numpy fallback shared by the consec and long-term kernels.

    Streams windows from one reused buffer and performs one flat bincount
    per group of digraph positions, with ``row_offset_codes[r]`` giving
    the counter-row offset (``row * 65536`` for consec, ``i_of_row *
    65536`` for long-term) added to each digraph code.  For long-term the
    offsets are non-contiguous, so groups accumulate via a 65536-aligned
    scatter-add into ``flat_out``.
    """
    span = 1 + gap
    batch = BatchRC4(keys)
    if drop:
        batch.skip(drop)
    # Wide gaps need windows at least span rows deep to carry the pairs.
    group = max(DIGRAPH_GROUP, span)
    scratch = np.empty(
        (min(DIGRAPH_GROUP, positions), keys.shape[0]), dtype=np.int32
    )
    for start, view in batch.stream_blocks(
        positions + span, block=group, overlap=span
    ):
        g = view.shape[0] - span
        digraph_row_counts(
            view[:g],
            view[span : span + g],
            flat_out,
            row_offset_codes[start : start + g],
            scratch=scratch,
        )


def consec_digraph_counts(
    keys: np.ndarray,
    positions: int,
    *,
    out: np.ndarray | None = None,
    threads: int | None = None,
    simd: bool | None = None,
) -> np.ndarray:
    """Count consecutive digraphs (Z_r, Z_{r+1}) for r = 1..positions.

    This is the paper's ``consec512`` dataset shape: an int64 array of
    shape ``(positions, 256, 256)``.  Note the memory cost: 512 positions
    need 512*65536*8 = 256 MiB; callers choose smaller ranges by default
    (and the native layer clamps ``threads`` so its private per-thread
    counter blocks stay within a 4 GiB scratch budget).
    """
    keys = np.ascontiguousarray(keys, dtype=np.uint8)
    if out is None:
        out = np.zeros((positions, 256, 256), dtype=np.int64)
    target = _contiguous_target(out)
    if _native.available():
        _native.count_digraph(keys, positions, target, threads=threads, simd=simd)
    else:
        row_offsets = np.arange(positions, dtype=np.int64) * 65536
        _streamed_digraph_counts(
            keys,
            positions,
            drop=0,
            gap=0,
            flat_out=target.reshape(-1),
            row_offset_codes=row_offsets,
        )
    if target is not out:
        out += target
    return out


def pair_counts(
    keys: np.ndarray,
    pairs: list[tuple[int, int]],
    *,
    out: np.ndarray | None = None,
    threads: int | None = None,
    simd: bool | None = None,
) -> np.ndarray:
    """Count joint values of arbitrary position pairs (a, b) with a != b.

    This is the ``first16`` dataset shape restricted to requested pairs:
    an int64 array of shape ``(len(pairs), 256, 256)``.
    """
    if not pairs:
        raise ValueError("pairs must be non-empty")
    for a, b in pairs:
        if a < 1 or b < 1 or a == b:
            raise ValueError(f"invalid position pair ({a}, {b})")
    length = max(max(a, b) for a, b in pairs)
    rows = _keystream_block(keys, length, threads=threads, simd=simd)
    if out is None:
        out = np.zeros((len(pairs), 256, 256), dtype=np.int64)
    target = _contiguous_target(out)
    first = rows[np.asarray([a - 1 for a, _ in pairs], dtype=np.intp)]
    second = rows[np.asarray([b - 1 for _, b in pairs], dtype=np.intp)]
    digraph_row_counts(
        first,
        second,
        target.reshape(-1),
        np.arange(len(pairs), dtype=np.int64) * 65536,
    )
    if target is not out:
        out += target
    return out


def equality_counts(
    keys: np.ndarray,
    pairs: list[tuple[int, int]],
    *,
    out: np.ndarray | None = None,
    threads: int | None = None,
    simd: bool | None = None,
) -> np.ndarray:
    """Count the events Z_a == Z_b for the requested pairs (paper eqs 3-5).

    Returns an int64 array of shape ``(len(pairs), 2)``: column 0 is the
    number of equal observations, column 1 the number of trials.
    """
    if not pairs:
        raise ValueError("pairs must be non-empty")
    for a, b in pairs:
        if a < 1 or b < 1 or a == b:
            raise ValueError(f"invalid position pair ({a}, {b})")
    length = max(max(a, b) for a, b in pairs)
    rows = _keystream_block(keys, length, threads=threads, simd=simd)
    n = keys.shape[0]
    if out is None:
        out = np.zeros((len(pairs), 2), dtype=np.int64)
    for idx, (a, b) in enumerate(pairs):
        out[idx, 0] += int(np.count_nonzero(rows[a - 1] == rows[b - 1]))
        out[idx, 1] += n
    return out


def longterm_digraph_counts(
    keys: np.ndarray,
    stream_len: int,
    *,
    drop: int = 1023,
    gap: int = 0,
    out: np.ndarray | None = None,
    threads: int | None = None,
    simd: bool | None = None,
) -> np.ndarray:
    """Count digraphs (Z_r, Z_{r+1+gap}) aggregated by i = r mod 256.

    This is the long-term dataset of §3.4: initial bytes are dropped, and
    digraph counts are binned by the PRGA counter so biases whose
    periodicity divides 256 (all Fluhrer–McGrew biases, the w*256
    biases) show up.

    Args:
        keys: key batch; every key contributes ``stream_len`` digraphs.
        stream_len: digraph observations per key.
        drop: initial keystream bytes to discard (paper drops 1023).
        gap: 0 for consecutive digraphs (FM), 1 for the w*256 pairs.
        out: optional ``(256, 256, 256)`` int64 accumulator indexed
            ``[i, first, second]``.
        threads: native-backend thread count (numpy fallback ignores it).
        simd: allow the native AVX2 wide kernels (numpy fallback
            ignores it).

    Returns:
        int64 array of shape ``(256, 256, 256)``.
    """
    if drop < 0:
        raise ValueError(f"drop must be non-negative, got {drop}")
    if not 0 <= gap <= 255:
        raise ValueError(f"gap must be 0..255, got {gap}")
    keys = np.ascontiguousarray(keys, dtype=np.uint8)
    if out is None:
        out = np.zeros((256, 256, 256), dtype=np.int64)
    target = _contiguous_target(out)
    if _native.available():
        _native.count_longterm(
            keys, stream_len, drop, gap, target, threads=threads, simd=simd
        )
    else:
        # Position r (1-indexed within this block) sits at absolute
        # position drop + r, so the PRGA counter for its output is
        # (drop + r) mod 256.
        i_of_row = (drop + np.arange(stream_len, dtype=np.int64) + 1) % 256
        _streamed_digraph_counts(
            keys,
            stream_len,
            drop=drop,
            gap=gap,
            flat_out=target.reshape(-1),
            row_offset_codes=i_of_row * 65536,
        )
    if target is not out:
        out += target
    return out
