/* Native RC4 statistics kernels (compiled on demand by _native.py).
 *
 * The numpy batch generator in batch.py pays ~10 array dispatches per
 * PRGA round; at 256 KSA rounds + 1023 drop rounds per long-term chunk
 * that overhead dominates the whole statistics pipeline.  Here each key
 * is run start-to-finish with its 256-byte state in L1, which is the
 * same layout the paper's C workers used (§3.2).
 *
 * Two levels of parallelism sit on top of the scalar per-key loops:
 *
 * - AVX2 SIMD (runtime-dispatched): the wide kernels advance RC4_WIDE
 *   (32) independent states per loop iteration in a lane-major
 *   transposed layout ST[value][lane].  Because every instance shares
 *   the public counter i, the row ST[i] is one aligned 32-byte vector
 *   load and the per-lane j update is a single vpaddb — the adds and the
 *   S[i] row traffic vanish into vector ops.  The per-lane S[j] reads
 *   and the output reads S[S[i]+S[j]] run as vpgatherdd dword gathers
 *   (4 x 8 lanes, masked to the low byte, repacked with packus/vpshufb);
 *   measured against scalar byte loads staged through a store-forwarded
 *   buffer, the gathers won on every fused kernel — the staging variant
 *   stalls each round on 32 narrow reloads of a just-stored vector.
 *   Only the swap scatter S[j] = old S[i] stays scalar, because AVX2 has
 *   no byte scatter.  (A vpshufb-binned counting pass for the fused
 *   kernels was rejected at the design stage: 256-bin histograms need 16
 *   shuffle/compare rounds per 32-byte vector, so the counter increments
 *   stay scalar and the SIMD win comes from generation.)  Selection is
 *   strictly runtime: the wide
 *   kernels compile behind __attribute__((target("avx2"))) and only run
 *   when __builtin_cpu_supports("avx2") says the CPU has them, so one
 *   artefact serves every x86-64 machine and non-x86 builds skip the
 *   tier entirely at preprocessing time.
 * - POSIX threads, through one work-sharing fan-out (share_units): the
 *   calling thread starts at once, threads - 1 helpers join it, and each
 *   takes the next unit of RC4_UNIT keys (four SIMD groups) from a
 *   mutex-guarded cursor until none is left, so a helper that starts
 *   late takes fewer units instead of holding up the call.  Keystream
 *   units write disjoint output rows; counting units of the calling
 *   thread add straight into the caller's counters, and those of each
 *   helper into a private zero-initialised block added in after the
 *   join.  int64 addition is exact and commutative, so the counters are
 *   bit-identical to a single-threaded run for any thread count and any
 *   schedule.
 *
 * Every tier processes whole keys independently, so any dispatch choice
 * (SIMD groups of 32 with a scalar remainder, or no SIMD at all) yields
 * bit-identical keystreams and counters.  The Python side cross-checks
 * this in tests/test_dataset_equivalence.py across thread counts and
 * the SIMD tier.
 *
 * Besides the RC4 kernels, the file holds two row kernels that hand
 * their output rows, one at a time, to the same fan-out: the §6
 * capture's digraph rows (digraph_row, into uint32 counters) and the §6
 * statistic sampler's multinomial rows (multinomial_row, which calls
 * numpy's own C sampler on one bit generator per row).  Each row owns
 * its output, so they are bit-identical for any thread count too.  The
 * last four kernels are single-threaded, and each repeats its Python
 * fallback's arithmetic in the same order, so they give its bits.  The
 * §5 CRC search's best-first walk (rc4_lazy_walk) pops candidates from a
 * binary heap that lives in a buffer the caller owns and grows, so it
 * allocates nothing.  The single-byte likelihoods of §4.1 and §5.1
 * (rc4_xor_loglik) sum each output cell's 256 terms in one fixed order.
 * The §6 likelihoods (rc4_transition_loglik) fuse eq 15 and eq 22-25
 * into one pass over the uint32 or int64 counters, read in place.
 * Algorithm 2's lazy lists (rc4_lazy_lists) walk the same per-node
 * frontiers as the Python engine, sifted as heapq sifts them; they
 * allocate their lists and return NULL, leaving nothing allocated, if
 * an allocation fails.
 *
 * Build contract (see _native.py): plain C99, no dependencies beyond
 * libc + pthreads, compiled with
 * `cc -O3 -shared -fPIC -pthread -ffp-contract=off` (no fused
 * multiply-add, so every product is rounded before it is added).  The
 * AVX2 tier uses GCC/Clang target attributes, available since GCC 4.9;
 * other compilers or architectures fall back to the scalar kernels.
 */

#include <math.h>
#include <pthread.h>
#include <stddef.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#if defined(__GNUC__) && defined(__x86_64__) && !defined(RC4_NO_SIMD)
#define RC4_HAVE_SIMD 1
#include <immintrin.h>
#else
#define RC4_HAVE_SIMD 0
#endif

/* Independent RC4 states per SIMD group (one AVX2 register of lanes).
 * 32 x 256 B of transposed state is 8 KiB — still L1-resident next to
 * the per-group scratch. */
#define RC4_WIDE 32

/* Keys are 1..256 bytes (_native.py checks).  The key index wraps by
 * compare-and-reset: `k % keylen` with a run-time keylen is a 64-bit
 * division in each of the 256 rounds. */
static void rc4_init(uint8_t *S, const uint8_t *key, ptrdiff_t keylen)
{
    int k;
    ptrdiff_t m = 0;
    uint8_t j = 0, tmp;
    for (k = 0; k < 256; k++)
        S[k] = (uint8_t)k;
    for (k = 0; k < 256; k++) {
        j = (uint8_t)(j + S[k] + key[m]);
        tmp = S[k];
        S[k] = S[j];
        S[j] = tmp;
        if (++m == keylen)
            m = 0;
    }
}

#define RC4_STEP(S, i, j, tmp)                                               \
    do {                                                                     \
        (i) = (uint8_t)((i) + 1);                                            \
        (j) = (uint8_t)((j) + (S)[(i)]);                                     \
        (tmp) = (S)[(i)];                                                    \
        (S)[(i)] = (S)[(j)];                                                 \
        (S)[(j)] = (tmp);                                                    \
    } while (0)

#define RC4_OUT(S, i, j) ((S)[(uint8_t)((S)[(i)] + (S)[(j)])])

/* ---- keystream ---------------------------------------------------------- */

static void keystream_scalar(const uint8_t *keys, ptrdiff_t n,
                             ptrdiff_t keylen, long drop, long length,
                             uint8_t *out)
{
    ptrdiff_t k;
    long r;
    for (k = 0; k < n; k++) {
        uint8_t S[256];
        uint8_t i = 0, j = 0, tmp;
        uint8_t *dst = out + k * length;
        rc4_init(S, keys + k * keylen, keylen);
        for (r = 0; r < drop; r++)
            RC4_STEP(S, i, j, tmp);
        for (r = 0; r < length; r++) {
            RC4_STEP(S, i, j, tmp);
            dst[r] = RC4_OUT(S, i, j);
        }
    }
}

/* ---- single-byte counts ------------------------------------------------- */

static void single_scalar(const uint8_t *keys, ptrdiff_t n, ptrdiff_t keylen,
                          long positions, int64_t *out)
{
    ptrdiff_t k;
    long r;
    for (k = 0; k < n; k++) {
        uint8_t S[256];
        uint8_t i = 0, j = 0, tmp;
        rc4_init(S, keys + k * keylen, keylen);
        for (r = 0; r < positions; r++) {
            RC4_STEP(S, i, j, tmp);
            out[r * 256 + RC4_OUT(S, i, j)] += 1;
        }
    }
}

/* ---- consecutive digraph counts ----------------------------------------- */

static void digraph_scalar(const uint8_t *keys, ptrdiff_t n, ptrdiff_t keylen,
                           long positions, int64_t *out)
{
    ptrdiff_t k;
    long r;
    for (k = 0; k < n; k++) {
        uint8_t S[256];
        uint8_t i = 0, j = 0, tmp, prev, z;
        rc4_init(S, keys + k * keylen, keylen);
        RC4_STEP(S, i, j, tmp);
        prev = RC4_OUT(S, i, j);
        for (r = 0; r < positions; r++) {
            RC4_STEP(S, i, j, tmp);
            z = RC4_OUT(S, i, j);
            out[r * 65536 + (ptrdiff_t)prev * 256 + z] += 1;
            prev = z;
        }
    }
}

/* ---- long-term digraph counts ------------------------------------------- */

/* Long-term digraphs binned by the PRGA counter (§3.4):
 * out[i*65536 + Z_r*256 + Z_{r+1+gap}] += 1 where i = (drop+r+1) mod 256
 * and r = 1..stream_len (1-indexed past the dropped prefix).  A rolling
 * window of gap+1 bytes supplies the first element of each pair; its
 * slot wraps by compare-and-reset, like the KSA's key index, since
 * `r % width` with a run-time width is a division in every round. */
static void longterm_scalar(const uint8_t *keys, ptrdiff_t n,
                            ptrdiff_t keylen, long stream_len, long drop,
                            long gap, int64_t *out)
{
    ptrdiff_t k;
    long r;
    long width = gap + 1;
    for (k = 0; k < n; k++) {
        uint8_t S[256];
        uint8_t window[256]; /* gap is validated <= 255 on the Python side */
        uint8_t i = 0, j = 0, tmp, z, first;
        uint8_t bin = (uint8_t)(drop & 0xFF);
        long slot = 0;
        rc4_init(S, keys + k * keylen, keylen);
        for (r = 0; r < drop; r++)
            RC4_STEP(S, i, j, tmp);
        for (r = 0; r < width; r++) {
            RC4_STEP(S, i, j, tmp);
            window[r] = RC4_OUT(S, i, j);
        }
        for (r = 0; r < stream_len; r++) {
            RC4_STEP(S, i, j, tmp);
            z = RC4_OUT(S, i, j);
            first = window[slot];
            window[slot] = z;
            if (++slot == width)
                slot = 0;
            bin = (uint8_t)(bin + 1); /* (drop + r + 1) mod 256 */
            out[(ptrdiff_t)bin * 65536 + (ptrdiff_t)first * 256 + z] += 1;
        }
    }
}

/* ---- AVX2 wide kernels (runtime-dispatched) ------------------------------ */

/* Is the SIMD tier usable on this machine?  Compile-time support AND a
 * runtime CPU check — callers (Python and run_job below) treat a zero as
 * "fall through to the scalar tier". */
int rc4_simd_available(void)
{
#if RC4_HAVE_SIMD
    return __builtin_cpu_supports("avx2") ? 1 : 0;
#else
    return 0;
#endif
}

/* States per SIMD group, 0 when the tier is compiled out.  The Python
 * side uses this for scratch accounting (resolve_threads lane_bytes). */
int rc4_simd_lanes(void)
{
#if RC4_HAVE_SIMD
    return RC4_WIDE;
#else
    return 0;
#endif
}

#if RC4_HAVE_SIMD

/* Transposed working set for one SIMD group: ST[v * RC4_WIDE + k] is
 * S_k[v] (byte v of lane k's permutation), so the row for the shared
 * public counter i is contiguous and 32-byte aligned.  zb hands the
 * round's output bytes to the scalar consumers (row writes / counter
 * increments).  The 4-byte tail pad keeps the dword gathers below
 * in-bounds when they touch the last state byte of the last lane. */
typedef struct {
    uint8_t zb[RC4_WIDE];
    uint8_t ST[256 * RC4_WIDE];
    uint8_t pad[4];
} __attribute__((aligned(32))) rc4_wide;

/* Gather one byte per lane from the transposed state: 4x vpgatherdd over
 * dword indices j*RC4_WIDE + lane (built straight from the packed j
 * bytes in `jq`, an array of 4 qwords = 32 lanes), masked to the low
 * byte.  Each lane keeps only the byte of its own column, so the 3
 * bytes over-read per element (covered by rc4_wide.pad at the very end)
 * never leak across lanes.  Measured against 32 scalar byte loads
 * staged through a store-forwarded buffer this is the faster S-box read
 * on the AVX2 cores this targets.  acc[q] receives 8 dwords, each the
 * gathered byte for lane 8q+0..8q+7. */
#define WIDE_GATHER(V, jq, acc)                                              \
    do {                                                                     \
        const __m256i lanes_ = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);    \
        const __m256i mask_ = _mm256_set1_epi32(0xFF);                       \
        int q_;                                                              \
        for (q_ = 0; q_ < 4; q_++) {                                         \
            __m256i idx_ = _mm256_cvtepu8_epi32(                             \
                _mm_cvtsi64_si128((long long)(jq)[q_]));                     \
            idx_ = _mm256_add_epi32(                                         \
                _mm256_slli_epi32(idx_, 5),                                  \
                _mm256_add_epi32(lanes_, _mm256_set1_epi32(8 * q_)));        \
            (acc)[q_] = _mm256_and_si256(                                    \
                _mm256_i32gather_epi32((const int *)(V)->ST, idx_, 1),       \
                mask_);                                                      \
        }                                                                    \
    } while (0)

/* Repack 4x8 gathered dwords into one 32-byte vector (lane order).  The
 * packus pair interleaves the 128-bit halves, which the final
 * permutevar8x32 undoes. */
#define WIDE_PACK(acc)                                                       \
    _mm256_permutevar8x32_epi32(                                             \
        _mm256_packus_epi16(_mm256_packus_epi32((acc)[0], (acc)[1]),         \
                            _mm256_packus_epi32((acc)[2], (acc)[3])),        \
        _mm256_setr_epi32(0, 4, 1, 5, 2, 6, 3, 7))

/* Unpack a j/t byte vector into 4 qwords for scalar address arithmetic.
 * Register extracts, not a staged store: 32 dependent byte reloads of a
 * just-stored vector stall on store-forwarding. */
#define WIDE_QWORDS(v, q)                                                    \
    do {                                                                     \
        __m128i lo_ = _mm256_castsi256_si128(v);                             \
        __m128i hi_ = _mm256_extracti128_si256(v, 1);                        \
        (q)[0] = (uint64_t)_mm_cvtsi128_si64(lo_);                           \
        (q)[1] = (uint64_t)_mm_cvtsi128_si64(_mm_srli_si128(lo_, 8));        \
        (q)[2] = (uint64_t)_mm_cvtsi128_si64(hi_);                           \
        (q)[3] = (uint64_t)_mm_cvtsi128_si64(_mm_srli_si128(hi_, 8));        \
    } while (0)

/* The swap for one round, after vj has been fully updated: gather the
 * old S[j] bytes (pre-scatter), scatter old S[i] into row j with scalar
 * byte stores (AVX2 has no byte scatter), then store the gathered bytes
 * as the new row S[i] in one vector store.  Lane k only ever touches
 * column k, so the scalar scatter and the row store cannot interfere
 * across lanes (and a j == i lane rewrites its byte with the same
 * value).  vsj_out receives the packed old-S[j] vector. */
#define WIDE_SWAP(V, i, vj, vsj_out)                                         \
    do {                                                                     \
        __m256i acc_[4];                                                     \
        uint64_t jq_[4];                                                     \
        int k_, b_;                                                          \
        WIDE_QWORDS(vj, jq_);                                                \
        WIDE_GATHER(V, jq_, acc_);                                           \
        for (k_ = 0; k_ < 4; k_++) {                                         \
            uint64_t q_ = jq_[k_];                                           \
            for (b_ = 0; b_ < 8; b_++) {                                     \
                int lane_ = k_ * 8 + b_;                                     \
                (V)->ST[(size_t)((q_ >> (8 * b_)) & 0xFF) * RC4_WIDE         \
                        + (size_t)lane_] =                                   \
                    (V)->ST[(size_t)(i) * RC4_WIDE + (size_t)lane_];         \
            }                                                                \
        }                                                                    \
        (vsj_out) = WIDE_PACK(acc_);                                         \
        _mm256_store_si256(                                                  \
            (__m256i *)((V)->ST + (size_t)(i) * RC4_WIDE), (vsj_out));       \
    } while (0)

/* One PRGA round for all RC4_WIDE lanes.  i is the shared public counter
 * (already advanced), vj the per-lane j vector (updated in place: one
 * vpaddb against the contiguous row S[i]).  When emit is nonzero the
 * output bytes S[S[i] + S[j]] (gathered post-swap) land in V->zb. */
#define WIDE_STEP(V, i, vj, emit)                                            \
    do {                                                                     \
        __m256i vsi_ = _mm256_load_si256(                                    \
            (const __m256i *)((V)->ST + (size_t)(i) * RC4_WIDE));            \
        __m256i vsj_;                                                        \
        (vj) = _mm256_add_epi8((vj), vsi_);                                  \
        WIDE_SWAP(V, i, vj, vsj_);                                           \
        if (emit) {                                                          \
            __m256i vt_ = _mm256_add_epi8(vsi_, vsj_);                       \
            __m256i zacc_[4];                                                \
            uint64_t tq_[4];                                                 \
            int q_;                                                          \
            WIDE_QWORDS(vt_, tq_);                                           \
            WIDE_GATHER(V, tq_, zacc_);                                      \
            for (q_ = 0; q_ < 4; q_++) {                                     \
                uint32_t lo32_ = (uint32_t)_mm256_extract_epi32(             \
                    _mm256_shuffle_epi8(                                     \
                        zacc_[q_],                                           \
                        _mm256_setr_epi8(0, 4, 8, 12, -1, -1, -1, -1, -1,    \
                                         -1, -1, -1, -1, -1, -1, -1, 0, 4,   \
                                         8, 12, -1, -1, -1, -1, -1, -1, -1,  \
                                         -1, -1, -1, -1, -1)),               \
                    0);                                                      \
                uint32_t hi32_ = (uint32_t)_mm256_extract_epi32(             \
                    _mm256_shuffle_epi8(                                     \
                        zacc_[q_],                                           \
                        _mm256_setr_epi8(0, 4, 8, 12, -1, -1, -1, -1, -1,    \
                                         -1, -1, -1, -1, -1, -1, -1, 0, 4,   \
                                         8, 12, -1, -1, -1, -1, -1, -1, -1,  \
                                         -1, -1, -1, -1, -1)),               \
                    4);                                                      \
                memcpy((V)->zb + 8 * q_, &lo32_, 4);                         \
                memcpy((V)->zb + 8 * q_ + 4, &hi32_, 4);                     \
            }                                                                \
        }                                                                    \
    } while (0)

/* KSA for all lanes: key bytes are transposed once into KT so the
 * per-round key addend is one aligned vector load; the swap is the same
 * gather/scatter/row-store as the PRGA rounds.  KT holds a row per key
 * byte, so keylen must be 1..256 (_native.py checks); the row index
 * wraps as in rc4_init. */
__attribute__((target("avx2")))
static void wide_ksa(rc4_wide *V, const uint8_t *keys, ptrdiff_t keylen)
{
    uint8_t KT[256 * RC4_WIDE] __attribute__((aligned(32)));
    __m256i vj;
    ptrdiff_t m = 0;
    int i, k;
    for (i = 0; i < (int)keylen; i++)
        for (k = 0; k < RC4_WIDE; k++)
            KT[(size_t)i * RC4_WIDE + k] = keys[(size_t)k * keylen + i];
    for (i = 0; i < 256; i++)
        _mm256_store_si256((__m256i *)(V->ST + (size_t)i * RC4_WIDE),
                           _mm256_set1_epi8((char)i));
    vj = _mm256_setzero_si256();
    for (i = 0; i < 256; i++) {
        __m256i vsi = _mm256_load_si256(
            (const __m256i *)(V->ST + (size_t)i * RC4_WIDE));
        __m256i vsj;
        vj = _mm256_add_epi8(vj, vsi);
        vj = _mm256_add_epi8(
            vj, _mm256_load_si256(
                    (const __m256i *)(KT + (size_t)m * RC4_WIDE)));
        WIDE_SWAP(V, i, vj, vsj);
        (void)vsj;
        if (++m == keylen)
            m = 0;
    }
}

/* Keystream for one full SIMD group; lane k writes out[k*length + r]. */
__attribute__((target("avx2")))
static void keystream_wide(const uint8_t *keys, ptrdiff_t keylen, long drop,
                           long length, uint8_t *out)
{
    rc4_wide V;
    __m256i vj = _mm256_setzero_si256();
    unsigned i = 0;
    long r;
    int k;
    wide_ksa(&V, keys, keylen);
    for (r = 0; r < drop; r++) {
        i = (i + 1) & 0xFF;
        WIDE_STEP(&V, i, vj, 0);
    }
    for (r = 0; r < length; r++) {
        i = (i + 1) & 0xFF;
        WIDE_STEP(&V, i, vj, 1);
        for (k = 0; k < RC4_WIDE; k++)
            out[(ptrdiff_t)k * length + r] = V.zb[k];
    }
}

__attribute__((target("avx2")))
static void single_wide(const uint8_t *keys, ptrdiff_t keylen, long positions,
                        int64_t *out)
{
    rc4_wide V;
    __m256i vj = _mm256_setzero_si256();
    unsigned i = 0;
    long r;
    int k;
    wide_ksa(&V, keys, keylen);
    for (r = 0; r < positions; r++) {
        int64_t *row = out + r * 256;
        i = (i + 1) & 0xFF;
        WIDE_STEP(&V, i, vj, 1);
        for (k = 0; k < RC4_WIDE; k++)
            row[V.zb[k]] += 1;
    }
}

__attribute__((target("avx2")))
static void digraph_wide(const uint8_t *keys, ptrdiff_t keylen,
                         long positions, int64_t *out)
{
    rc4_wide V;
    uint8_t prev[RC4_WIDE];
    __m256i vj = _mm256_setzero_si256();
    unsigned i = 0;
    long r;
    int k;
    wide_ksa(&V, keys, keylen);
    i = (i + 1) & 0xFF;
    WIDE_STEP(&V, i, vj, 1);
    memcpy(prev, V.zb, RC4_WIDE);
    for (r = 0; r < positions; r++) {
        int64_t *row = out + r * 65536;
        i = (i + 1) & 0xFF;
        WIDE_STEP(&V, i, vj, 1);
        for (k = 0; k < RC4_WIDE; k++) {
            row[(ptrdiff_t)prev[k] * 256 + V.zb[k]] += 1;
            prev[k] = V.zb[k];
        }
    }
}

/* Long-term digraphs, same binning as longterm_scalar; the rolling
 * window is transposed (slot-major) so each slot's lane row is a plain
 * memcpy against V.zb. */
__attribute__((target("avx2")))
static void longterm_wide(const uint8_t *keys, ptrdiff_t keylen,
                          long stream_len, long drop, long gap, int64_t *out)
{
    long width = gap + 1;
    rc4_wide V;
    uint8_t WT[256 * RC4_WIDE]; /* gap validated <= 255 on the Python side */
    __m256i vj = _mm256_setzero_si256();
    unsigned i = 0;
    uint8_t bin = (uint8_t)(drop & 0xFF);
    long r, next = 0;
    int k;
    wide_ksa(&V, keys, keylen);
    for (r = 0; r < drop; r++) {
        i = (i + 1) & 0xFF;
        WIDE_STEP(&V, i, vj, 0);
    }
    for (r = 0; r < width; r++) {
        i = (i + 1) & 0xFF;
        WIDE_STEP(&V, i, vj, 1);
        memcpy(WT + (size_t)r * RC4_WIDE, V.zb, RC4_WIDE);
    }
    for (r = 0; r < stream_len; r++) {
        uint8_t *slot = WT + (size_t)next * RC4_WIDE;
        int64_t *row;
        if (++next == width)
            next = 0;
        i = (i + 1) & 0xFF;
        WIDE_STEP(&V, i, vj, 1);
        bin = (uint8_t)(bin + 1); /* (drop + r + 1) mod 256 */
        row = out + (ptrdiff_t)bin * 65536;
        for (k = 0; k < RC4_WIDE; k++) {
            row[(ptrdiff_t)slot[k] * 256 + V.zb[k]] += 1;
            slot[k] = V.zb[k];
        }
    }
}

#endif /* RC4_HAVE_SIMD */

/* ---- thread fan-out ----------------------------------------------------- */

enum job_kind { JOB_KEYSTREAM, JOB_SINGLE, JOB_DIGRAPH, JOB_LONGTERM };

typedef struct {
    enum job_kind kind;
    int simd;            /* request the AVX2 tier (still runtime-gated) */
    const uint8_t *keys; /* this range's first key */
    ptrdiff_t n;         /* keys in this range */
    ptrdiff_t keylen;
    long length; /* keystream length / positions / stream_len */
    long drop;
    long gap;
    uint8_t *out_u8;   /* keystream rows for this range (disjoint) */
    int64_t *out_i64;  /* counter block for this range */
} rc4_job;

/* Dispatch one key range across the tiers: full groups of RC4_WIDE keys
 * through the AVX2 kernels when requested AND supported by this CPU,
 * the remainder (or everything otherwise) through the scalar kernels.
 * Keys are independent, so the split is invisible in the results. */
static void run_job(const rc4_job *job)
{
    ptrdiff_t done = 0;
    const uint8_t *keys;
    ptrdiff_t rest;
#if RC4_HAVE_SIMD
    if (job->simd && rc4_simd_available()) {
        ptrdiff_t g;
        for (g = 0; g + RC4_WIDE <= job->n; g += RC4_WIDE) {
            keys = job->keys + g * job->keylen;
            switch (job->kind) {
            case JOB_KEYSTREAM:
                keystream_wide(keys, job->keylen, job->drop, job->length,
                               job->out_u8 + g * job->length);
                break;
            case JOB_SINGLE:
                single_wide(keys, job->keylen, job->length, job->out_i64);
                break;
            case JOB_DIGRAPH:
                digraph_wide(keys, job->keylen, job->length, job->out_i64);
                break;
            case JOB_LONGTERM:
                longterm_wide(keys, job->keylen, job->length, job->drop,
                              job->gap, job->out_i64);
                break;
            }
        }
        done = g;
    }
#endif
    keys = job->keys + done * job->keylen;
    rest = job->n - done;
    switch (job->kind) {
    case JOB_KEYSTREAM:
        keystream_scalar(keys, rest, job->keylen, job->drop, job->length,
                         job->out_u8 + done * job->length);
        break;
    case JOB_SINGLE:
        single_scalar(keys, rest, job->keylen, job->length, job->out_i64);
        break;
    case JOB_DIGRAPH:
        digraph_scalar(keys, rest, job->keylen, job->length, job->out_i64);
        break;
    case JOB_LONGTERM:
        longterm_scalar(keys, rest, job->keylen, job->length, job->drop,
                        job->gap, job->out_i64);
        break;
    }
}

/* The file's one thread fan-out.  A call's work is cut into `units`
 * independent units, run as run(ctx, worker, unit) by the calling thread
 * (worker 0) and up to `threads` - 1 helper POSIX threads (workers 1..).
 * The calling thread starts on the units at once, and every thread takes
 * the next untaken unit under `lock` until none is left, so a helper
 * whose CPU is busy elsewhere, or that the scheduler starts late, takes
 * fewer units instead of holding up the call with a fixed share.  Which
 * worker runs a unit is up to the scheduler; every kernel makes its
 * result independent of that. */
typedef void (*unit_fn)(void *ctx, int worker, ptrdiff_t unit);

typedef struct {
    unit_fn run;
    void *ctx;
    ptrdiff_t units;
    pthread_mutex_t lock;
    ptrdiff_t next; /* first unit not yet taken; guarded by lock */
} share;

typedef struct {
    share *sh;
    int worker;
} share_helper;

static void share_loop(share *sh, int worker)
{
    for (;;) {
        ptrdiff_t unit;
        pthread_mutex_lock(&sh->lock);
        unit = sh->next++;
        pthread_mutex_unlock(&sh->lock);
        if (unit >= sh->units)
            return;
        sh->run(sh->ctx, worker, unit);
    }
}

static void *share_main(void *arg)
{
    const share_helper *h = arg;
    share_loop(h->sh, h->worker);
    return NULL;
}

/* Run all units and join.  At most units - 1 helpers are started, and a
 * helper that fails to spawn (or whose bookkeeping fails to allocate)
 * only leaves more units to the others.  Returns the number of helpers
 * that ran: they were workers 1..returned. */
static int share_units(unit_fn run, void *ctx, ptrdiff_t units, int threads)
{
    share sh;
    pthread_t *tids = NULL;
    share_helper *helpers = NULL;
    int spawned = 0, t;

    sh.run = run;
    sh.ctx = ctx;
    sh.units = units;
    sh.next = 0;
    pthread_mutex_init(&sh.lock, NULL);
    if (threads > units)
        threads = (int)units;
    if (threads > 1) {
        tids = malloc((size_t)(threads - 1) * sizeof(pthread_t));
        helpers = malloc((size_t)(threads - 1) * sizeof(share_helper));
    }
    if (tids && helpers)
        for (t = 1; t < threads; t++) {
            helpers[spawned].sh = &sh;
            helpers[spawned].worker = spawned + 1;
            spawned += pthread_create(&tids[spawned], NULL, share_main,
                                      &helpers[spawned]) == 0;
        }
    share_loop(&sh, 0);
    for (t = 0; t < spawned; t++)
        pthread_join(tids[t], NULL);
    free(tids);
    free(helpers);
    pthread_mutex_destroy(&sh.lock);
    return spawned;
}

/* Keys per work-sharing unit: four SIMD groups, tens of microseconds of
 * work per take of the lock, and still 16 units in a 2048-key call for
 * a late helper to share.  On a 2-CPU AVX2 Xeon, units of 32 to 256
 * keys timed within noise of one another on 2048- and 8192-key calls. */
#define RC4_UNIT (4 * RC4_WIDE)

/* One call's keys and the helpers' private counter blocks. */
typedef struct {
    rc4_job whole;       /* all n keys, counting into the caller's block */
    int64_t *blocks;     /* helper w counts into blocks[(w-1) * cells] */
    ptrdiff_t cells;
} rc4_call;

/* Unit u is keys u*RC4_UNIT.. of the call.  Only the last unit can be
 * short, so the SIMD groups and the scalar remainder fall on the same
 * keys as in one serial run_job over the whole call. */
static void rc4_unit(void *ctx, int worker, ptrdiff_t unit)
{
    const rc4_call *call = ctx;
    rc4_job job = call->whole;
    ptrdiff_t start = unit * RC4_UNIT;
    job.keys += start * job.keylen;
    job.n = job.n - start < RC4_UNIT ? job.n - start : RC4_UNIT;
    if (job.kind == JOB_KEYSTREAM)
        job.out_u8 += start * job.length;
    else if (worker > 0)
        job.out_i64 = call->blocks + (ptrdiff_t)(worker - 1) * call->cells;
    run_job(&job);
}

/* Run `whole` (all n keys) over share_units.  Keystream units write
 * disjoint rows.  For counting kinds the calling thread counts straight
 * into whole->out_i64, which may already hold counts, and each helper
 * into a private zeroed block of `counter_cells` int64 cells, added in
 * after the join; if the blocks cannot be allocated the call runs on the
 * calling thread alone.  The result is identical either way. */
static void run_threaded(const rc4_job *whole, int threads,
                         ptrdiff_t counter_cells)
{
    rc4_call call;
    ptrdiff_t units = (whole->n + RC4_UNIT - 1) / RC4_UNIT;
    int helpers, t;

    call.whole = *whole;
    call.blocks = NULL;
    call.cells = counter_cells;
    if (threads > units)
        threads = (int)(units > 0 ? units : 1);
    if (whole->kind != JOB_KEYSTREAM && threads > 1) {
        call.blocks = calloc((size_t)(threads - 1) * (size_t)counter_cells,
                             sizeof(int64_t));
        if (!call.blocks)
            threads = 1;
    }
    helpers = share_units(rc4_unit, &call, units, threads);
    if (call.blocks) {
        int64_t *out = whole->out_i64;
        for (t = 0; t < helpers; t++) {
            const int64_t *block = call.blocks + (ptrdiff_t)t * counter_cells;
            ptrdiff_t c;
            for (c = 0; c < counter_cells; c++)
                out[c] += block[c];
        }
        free(call.blocks);
    }
}

/* ---- digraph rows over keystream columns (§6 capture) ------------------- */

/* Columns whose codes are staged before their counter increments.  The
 * code pass vectorises, and the increment pass is then a tight loop of
 * independent read-modify-writes that keeps many cache misses in flight
 * (an output row is 512 KiB, so at paper gaps most increments miss).
 * Measured on a 2-CPU AVX2 Xeon against computing each code inside the
 * increment loop: 1.5x faster at both max_gap=8 and max_gap=128; a
 * software prefetch of the counter lines on top bought nothing. */
#define ROW_BLOCK 256

/* One output row per (first, partner, tmpl) triple over the transposed
 * block `cols` (row stride `ld`, `n` columns used).  Column k of row r
 * contributes code
 *     (cols[f][k] ^ P1) << 8 | (cols[f+1][k] ^ P2)   XOR  tmpl[r]
 * with f = first[r] and (P1, P2) the partner columns partner[r] and
 * partner[r]+1 — an ABSAB differential — or zero when partner[r] < 0, a
 * plain Fluhrer-McGrew digraph.  tmpl[r] is the row's plaintext template
 * constant folded into one 16-bit code.  Every row writes only its own
 * 65536 uint32 cells out[r], so each row is an independent unit.
 * A cell never exceeds the requests its statistics object holds, which
 * the caller keeps below 2^32, so the increments never wrap; the 256 KiB
 * row is half the int64 row's cache and memory traffic. */
typedef struct {
    const uint8_t *cols;
    ptrdiff_t ld;
    ptrdiff_t n;
    const ptrdiff_t *first;
    const ptrdiff_t *partner;
    const uint16_t *tmpl;
    uint32_t *const *out;
} rows_job;

static void digraph_row(void *ctx, int worker, ptrdiff_t r)
{
    const rows_job *job = ctx;
    uint16_t codes[ROW_BLOCK];
    const uint8_t *a = job->cols + job->first[r] * job->ld;
    const uint8_t *b = a + job->ld;
    const uint8_t *p = NULL, *q = NULL;
    uint32_t *row = job->out[r];
    unsigned x = job->tmpl[r];
    ptrdiff_t k0, k;
    (void)worker;
    if (job->partner[r] >= 0) {
        p = job->cols + job->partner[r] * job->ld;
        q = p + job->ld;
    }
    for (k0 = 0; k0 < job->n; k0 += ROW_BLOCK) {
        ptrdiff_t m = job->n - k0 < ROW_BLOCK ? job->n - k0 : ROW_BLOCK;
        if (p)
            for (k = 0; k < m; k++)
                codes[k] = (uint16_t)((((unsigned)(a[k0 + k] ^ p[k0 + k])
                                        << 8) |
                                       (b[k0 + k] ^ q[k0 + k])) ^ x);
        else
            for (k = 0; k < m; k++)
                codes[k] = (uint16_t)((((unsigned)a[k0 + k] << 8) |
                                       b[k0 + k]) ^ x);
        for (k = 0; k < m; k++)
            row[codes[k]] += 1;
    }
}

/* ---- multinomial rows through numpy's own sampler (§6 statistics) -------- */

/* numpy's binomial_t, laid out as numpy/random/distributions.h declares
 * it (RAND_INT_TYPE is int64_t outside numpy's legacy RandomState).
 * random_binomial caches its set-up here keyed on (n, p); a zeroed struct
 * is the cache of a fresh Generator, and the cached values are a pure
 * function of (n, p), so they change the speed, never the draws. */
typedef struct {
    int has_binomial;
    double psave;
    int64_t nsave;
    double r, q, fm;
    int64_t m;
    double p1, xm, xl, xr, c, laml, lamr, p2, p3, p4;
} np_binomial;

/* numpy's exported random_multinomial(bitgen_t *, RAND_INT_TYPE n,
 * RAND_INT_TYPE *mnix, double *pix, npy_intp d, binomial_t *).  The
 * bitgen_t (a numpy bit generator's C interface) stays opaque here. */
typedef void (*np_multinomial_fn)(void *bitgen, int64_t n, int64_t *out,
                                  double *probs, ptrdiff_t d,
                                  np_binomial *binomial);

typedef struct {
    np_multinomial_fn draw;
    int64_t n;
    ptrdiff_t d;
    double *const *probs;
    void *const *bitgens;
    int64_t *const *out;
} multinomial_job;

/* Row r draws multinomial(n, probs[r]) into out[r] on bitgens[r], exactly
 * as Generator.multinomial does: into a zeroed row (the routine stops
 * writing once the trials run out) with the generator's binomial cache,
 * here a fresh one per row.  Which thread draws a row does not matter. */
static void multinomial_row(void *ctx, int worker, ptrdiff_t r)
{
    const multinomial_job *job = ctx;
    np_binomial binomial;
    (void)worker;
    memset(&binomial, 0, sizeof binomial);
    memset(job->out[r], 0, (size_t)job->d * sizeof(int64_t));
    job->draw(job->bitgens[r], job->n, job->out[r], job->probs[r], job->d,
              &binomial);
}

/* ---- lazy best-first walk over rank vectors (§5.3 CRC search) ---------- */

/* One frontier entry, `stride` bytes apart in a heap buffer the caller
 * owns (stride >= 12 + len, a multiple of 8; lazy_walk_dtype in
 * _native.py is the same layout as a numpy structured dtype): the
 * candidate's score, the first position its children may increment (the
 * canonical-parent rule, wider than a byte so any len works) and its len
 * per-position ranks. */
typedef struct {
    double score;
    uint32_t min_pos;
    uint8_t ranks[];
} walk_entry;

#define WALK_ENTRY(heap, stride, i) ((walk_entry *)((heap) + (i) * (stride)))

/* The walk's total order: higher score first, ties by rank vector
 * bytewise ascending.  Rank vectors are unique, so no two entries tie and
 * the pop order does not depend on the heap layout.  Scores are never
 * NaN (the caller rejects NaN and +inf inputs, and a -inf candidate's
 * children score -inf), and -0.0 == +0.0 falls to the ranks. */
static inline int walk_before(const walk_entry *x, const walk_entry *y,
                              size_t len)
{
    if (x->score != y->score)
        return x->score > y->score;
    return memcmp(x->ranks, y->ranks, len) < 0;
}

/* ---- exported entry points ---------------------------------------------- */

/* Generate `length` keystream bytes per key into `out` (n x length,
 * row-major: out[k*length + r] = Z_{r+1} of key k), after discarding
 * `drop` initial bytes. */
void rc4_batch_keystream(const uint8_t *keys, ptrdiff_t n, ptrdiff_t keylen,
                         long drop, long length, uint8_t *out, int threads,
                         int simd)
{
    rc4_job job = {JOB_KEYSTREAM, simd, keys, n,   keylen,
                   length,        drop, 0,    out, NULL};
    run_threaded(&job, threads, 0);
}

/* Single-byte counts: out[r*256 + Z_{r+1}] += 1 for r = 0..positions-1. */
void rc4_count_single(const uint8_t *keys, ptrdiff_t n, ptrdiff_t keylen,
                      long positions, int64_t *out, int threads, int simd)
{
    rc4_job job = {JOB_SINGLE, simd, keys, n,    keylen,
                   positions,  0,    0,    NULL, out};
    run_threaded(&job, threads, (ptrdiff_t)positions * 256);
}

/* Consecutive digraphs: out[r*65536 + Z_{r+1}*256 + Z_{r+2}] += 1 for
 * r = 0..positions-1 (needs positions+1 keystream bytes per key). */
void rc4_count_digraph(const uint8_t *keys, ptrdiff_t n, ptrdiff_t keylen,
                       long positions, int64_t *out, int threads, int simd)
{
    rc4_job job = {JOB_DIGRAPH, simd, keys, n,    keylen,
                   positions,   0,    0,    NULL, out};
    run_threaded(&job, threads, (ptrdiff_t)positions * 65536);
}

/* Long-term digraphs (see longterm_scalar above for the binning). */
void rc4_count_longterm(const uint8_t *keys, ptrdiff_t n, ptrdiff_t keylen,
                        long stream_len, long drop, long gap, int64_t *out,
                        int threads, int simd)
{
    rc4_job job = {JOB_LONGTERM, simd, keys, n,    keylen,
                   stream_len,   drop, gap,  NULL, out};
    run_threaded(&job, threads, (ptrdiff_t)256 * 65536);
}

/* Digraph rows (see digraph_row above), one unit each on share_units.
 * Rows own disjoint counters, so no private blocks or merge are needed
 * and the counters are bit-identical for any thread count; the caller
 * guarantees the out[] rows are distinct. */
void rc4_count_digraph_rows(const uint8_t *cols, ptrdiff_t ld, ptrdiff_t n,
                            ptrdiff_t rows, const ptrdiff_t *first,
                            const ptrdiff_t *partner, const uint16_t *tmpl,
                            uint32_t *const *out, int threads)
{
    rows_job job = {cols, ld, n, first, partner, tmpl, out};
    share_units(digraph_row, &job, rows, threads);
}

/* Multinomial rows (see multinomial_row above), one unit each on
 * share_units.  Every row has its own bit generator, binomial cache and
 * output, so each row's draw is bit-identical to numpy's for any thread
 * count and any order the rows are taken in; the caller guarantees
 * distinct rows and generators, n >= 0 and rows numpy would accept. */
void rc4_multinomial_rows(np_multinomial_fn draw, int64_t n, ptrdiff_t d,
                          ptrdiff_t rows, double *const *probs,
                          void *const *bitgens, int64_t *const *out,
                          int threads)
{
    multinomial_job job = {draw, n, d, probs, bitgens, out};
    share_units(multinomial_row, &job, rows, threads);
}

/* Pop up to `block` entries, best first, from the binary heap of *size
 * entries: entry k's ranks go to out_ranks[k*len..] and its score to
 * out_scores[k].  Each pop pushes its children before the next one, since
 * a candidate's successor may be its own child: one per position
 * p >= min_pos whose rank is below 255, scoring
 *     (score - sorted[p][rank]) + sorted[p][rank + 1]
 * in that order, in plain IEEE double, or -inf when the parent is -inf
 * (where -inf - -inf would be NaN).  `sorted` is (len, 256), each row in
 * decreasing order.  The heap never grows here: the caller leaves room
 * for *size + block * len entries, which covers the net len - 1 entries
 * a pop can add plus the one scratch slot past the end that a push
 * builds its child in.  Returns the number popped; *size is updated. */
ptrdiff_t rc4_lazy_walk(const double *sorted, ptrdiff_t len, uint8_t *heap,
                        ptrdiff_t stride, ptrdiff_t *size, ptrdiff_t block,
                        uint8_t *out_ranks, double *out_scores)
{
    const size_t ulen = (size_t)len, ustride = (size_t)stride;
    ptrdiff_t n = *size, k, p, i, c;
    for (k = 0; k < block && n > 0; k++) {
        uint8_t *ranks = out_ranks + k * len;
        const walk_entry *top = WALK_ENTRY(heap, stride, 0);
        const walk_entry *last;
        double score = top->score;
        ptrdiff_t first = (ptrdiff_t)top->min_pos;
        memcpy(ranks, top->ranks, ulen);
        out_scores[k] = score;
        /* Pop: sift the hole left at the root down, then fill it with the
         * last entry, which stays intact past the new end meanwhile. */
        last = WALK_ENTRY(heap, stride, --n);
        for (i = 0; (c = 2 * i + 1) < n; i = c) {
            if (c + 1 < n && walk_before(WALK_ENTRY(heap, stride, c + 1),
                                         WALK_ENTRY(heap, stride, c), ulen))
                c++;
            if (!walk_before(WALK_ENTRY(heap, stride, c), last, ulen))
                break;
            memcpy(WALK_ENTRY(heap, stride, i), WALK_ENTRY(heap, stride, c),
                   ustride);
        }
        if (i < n)
            memcpy(WALK_ENTRY(heap, stride, i), last, ustride);
        /* Push the children: each is built in the slot past the hole at
         * the end, and the hole sifts up to its place. */
        for (p = first; p < len; p++) {
            walk_entry *child = WALK_ENTRY(heap, stride, n + 1);
            const double *row = sorted + p * 256;
            if (ranks[p] == 255)
                continue;
            child->score = score == -INFINITY
                               ? score
                               : (score - row[ranks[p]]) + row[ranks[p] + 1];
            child->min_pos = (uint32_t)p;
            memcpy(child->ranks, ranks, ulen);
            child->ranks[p]++;
            for (i = n; i > 0; i = c) {
                c = (i - 1) / 2;
                if (!walk_before(child, WALK_ENTRY(heap, stride, c), ulen))
                    break;
                memcpy(WALK_ENTRY(heap, stride, i),
                       WALK_ENTRY(heap, stride, c), ustride);
            }
            memcpy(WALK_ENTRY(heap, stride, i), child, ustride);
            n++;
        }
    }
    *size = n;
    return k;
}

/* Single-byte log-likelihoods (§4.1 eq 12, summed per TSC in §5.1): for
 * each of `rows` rows of 256 doubles,
 *     out[mu] = sum over c = 0..255 of counts[c] * log_p[mu ^ c],
 * with the terms added one at a time in increasing c, each product
 * rounded before its add (the build forbids contraction into FMA).  The
 * numpy fallback in core/likelihood/single.py runs the same order, so
 * both give the same bits on every platform.  Blocks of XOR_BLOCK output
 * cells keep their sums in registers: within an aligned block, mu ^ c
 * reads the block at (mu0 ^ c_high) in the order j ^ c_low, and the
 * unrolled inner loops make that order a compile-time constant. */
#define XOR_BLOCK 4

void rc4_xor_loglik(const double *counts, const double *log_p,
                    ptrdiff_t rows, double *out)
{
    ptrdiff_t r;
    int mu0, ch, cl, j;
    for (r = 0; r < rows; r++) {
        const double *n = counts + r * 256, *lp = log_p + r * 256;
        for (mu0 = 0; mu0 < 256; mu0 += XOR_BLOCK) {
            double acc[XOR_BLOCK];
            for (j = 0; j < XOR_BLOCK; j++)
                acc[j] = 0.0;
            for (ch = 0; ch < 256; ch += XOR_BLOCK) {
                const double *v = lp + (mu0 ^ ch);
                for (cl = 0; cl < XOR_BLOCK; cl++) {
                    const double k = n[ch + cl];
                    for (j = 0; j < XOR_BLOCK; j++)
                        acc[j] = acc[j] + k * v[j ^ cl];
                }
            }
            for (j = 0; j < XOR_BLOCK; j++)
                out[r * 256 + mu0 + j] = acc[j];
        }
    }
}

/* ---- eq 22-25 likelihoods of the §6 transitions ------------------------ */

/* Output cells are summed in tiles of LOGLIK_BLOCKS aligned 256-cell
 * blocks, one block per plaintext first byte mu1.  Within a block the
 * counter of cell mu2 is read at (mu1 ^ k1, mu2 ^ k2) (the XOR identity
 * of eq 24's gather), so a tile reads one aligned run of LOGLIK_BLOCKS
 * blocks of each of its counter rows, front to back, and a transition
 * reads each counter once. */
#define LOGLIK_BLOCKS 16
#define LOGLIK_TILE (LOGLIK_BLOCKS * 256)

/* acc[l] = acc[l] + v[l ^ k2] for the 256 cells of a block, k2 = kh << 2
 * | KL: four cells at a time, whose sources are four consecutive cells
 * in the compile-time order j ^ KL, so the compiler can use vector
 * adds. */
#define LOGLIK_PERMUTED_ADD(acc, v, kh, KL)                                  \
    do {                                                                     \
        unsigned g_;                                                         \
        for (g_ = 0; g_ < 64; g_++) {                                        \
            const double *s_ = (v) + ((g_ ^ (kh)) << 2);                     \
            double *d_ = (acc) + (g_ << 2);                                  \
            d_[0] = d_[0] + s_[0 ^ (KL)];                                    \
            d_[1] = d_[1] + s_[1 ^ (KL)];                                    \
            d_[2] = d_[2] + s_[2 ^ (KL)];                                    \
            d_[3] = d_[3] + s_[3 ^ (KL)];                                    \
        }                                                                    \
    } while (0)

/* One tile of transition_loglik, blocks m0.. of the output row, for
 * counters of type T converted to double as numpy's astype does (exact
 * for uint32, round to nearest for int64).  Eq 15's biased counts bn
 * are summed first; once they are added in, one block of their storage
 * holds each alignment block's eq 22 values in counter order, lam_hat,
 * before the permuted add. */
#define LOGLIK_TILE_FN(name, T)                                              \
    static void name(double *acc, const void *fm, const void *const *rows,  \
                     unsigned m0, ptrdiff_t c0, ptrdiff_t c1,                \
                     const uint16_t *cell_key, const double *cell_logp,      \
                     double log_u, double total, ptrdiff_t a0, ptrdiff_t a1, \
                     const uint16_t *row_key, const double *coef,            \
                     const double *offset)                                   \
    {                                                                        \
        const unsigned mask = LOGLIK_BLOCKS - 1;                             \
        double bn[LOGLIK_TILE], *const lam_hat = bn;                         \
        ptrdiff_t c, a;                                                      \
        unsigned l, sb;                                                      \
        for (l = 0; l < LOGLIK_TILE; l++)                                    \
            acc[l] = bn[l] = 0.0;                                            \
        for (c = c0; c < c1; c++) {                                          \
            const unsigned k1 = cell_key[c] >> 8u, k2 = cell_key[c] & 0xFFu; \
            const T *src = (const T *)fm + (((m0 ^ k1) & ~mask) << 8);       \
            const double lp = cell_logp[c];                                  \
            for (sb = 0; sb < LOGLIK_BLOCKS; sb++, src += 256) {             \
                double *ab = acc + ((sb ^ (k1 & mask)) << 8);                \
                double *nb = bn + ((sb ^ (k1 & mask)) << 8);                 \
                for (l = 0; l < 256; l++) {                                  \
                    const double n = (double)src[l ^ k2];                    \
                    ab[l] = ab[l] + n * lp;                                  \
                    nb[l] = nb[l] + n;                                       \
                }                                                            \
            }                                                                \
        }                                                                    \
        for (l = 0; l < LOGLIK_TILE; l++)                                    \
            acc[l] = acc[l] + (total - bn[l]) * log_u;                       \
        for (a = a0; a < a1; a++) {                                          \
            const unsigned k1 = row_key[a] >> 8u, k2 = row_key[a] & 0xFFu;   \
            const T *src = (const T *)rows[a] + (((m0 ^ k1) & ~mask) << 8);  \
            const double w = coef[a], b = offset[a];                         \
            for (sb = 0; sb < LOGLIK_BLOCKS; sb++, src += 256) {             \
                double *ab = acc + ((sb ^ (k1 & mask)) << 8);                \
                for (l = 0; l < 256; l++)                                    \
                    lam_hat[l] = (double)src[l] * w + b;                     \
                switch (k2 & 3u) {                                           \
                case 0: LOGLIK_PERMUTED_ADD(ab, lam_hat, k2 >> 2, 0); break; \
                case 1: LOGLIK_PERMUTED_ADD(ab, lam_hat, k2 >> 2, 1); break; \
                case 2: LOGLIK_PERMUTED_ADD(ab, lam_hat, k2 >> 2, 2); break; \
                default: LOGLIK_PERMUTED_ADD(ab, lam_hat, k2 >> 2, 3);       \
                }                                                            \
            }                                                                \
        }                                                                    \
    }

LOGLIK_TILE_FN(loglik_tile_u32, uint32_t)
LOGLIK_TILE_FN(loglik_tile_i64, int64_t)

/* Log-likelihoods of every (mu1, mu2) for `transitions` transitions
 * (tls/attack.py transition_log_likelihoods), into out[t*65536 + mu].
 * Transition t's sparse Fluhrer-McGrew estimate (eq 15) reads the 65536
 * counters fm[t] at its cells cell_start[t]..cell_start[t+1]-1, each a
 * known keystream pair key and its log p:
 *     acc = 0;  bn = 0
 *     per cell:  n = fm[t][mu ^ key];  acc = acc + n * log p;  bn = bn + n
 *     acc = acc + (total - bn) * log_u[t]
 * and then each of its ABSAB alignments row_start[t]..row_start[t+1]-1
 * (eq 22-24, combined by eq 25) adds
 *     acc = acc + (rows[a][mu ^ key[a]] * coef[a] + offset[a])
 * in that order.  These are numpy's operations per cell in numpy's
 * order (digraph_log_likelihoods, then one reused eq-22 row per
 * alignment), each product rounded before its add, so the bits match
 * the fallback.  Counters are uint32 (wide = 0) or int64 (wide = 1),
 * read where they lie.  Every weight comes in computed; nothing here
 * takes a log. */
void rc4_transition_loglik(const void *const *fm, const void *const *rows,
                           int wide, ptrdiff_t transitions,
                           const ptrdiff_t *cell_start,
                           const uint16_t *cell_key, const double *cell_logp,
                           const double *log_u, double total,
                           const ptrdiff_t *row_start, const uint16_t *row_key,
                           const double *coef, const double *offset,
                           double *out)
{
    ptrdiff_t t;
    unsigned m0;
    for (t = 0; t < transitions; t++)
        for (m0 = 0; m0 < 256; m0 += LOGLIK_BLOCKS)
            (wide ? loglik_tile_i64 : loglik_tile_u32)(
                out + t * 65536 + m0 * 256, fm[t], rows, m0,
                cell_start[t], cell_start[t + 1], cell_key, cell_logp,
                log_u[t], total, row_start[t], row_start[t + 1], row_key,
                coef, offset);
}

/* ---- Algorithm 2's lazy lists (§4.4; core/candidates/viterbi.py) ------- */

/* The lazy list Viterbi of Huang and Chiang (IWPT 2005, Algorithm 3) as
 * viterbi.py's _lazy_lists runs it, step for step.  A node (step, v)
 * ends on value ends[step][v]: alphabet[v] below the top step, `last` at
 * the top step's one node.  Its extensions come out in the total order
 * of the tuples (pooled, pred, rank), pooled = neg_trans[pred] -
 * score of the predecessor's rank, as Python compares them: pooled first
 * (-0.0 == +0.0 falls through), then pred, then rank.  Each score is
 * stored as -pooled and never recomputed, so signed zeros survive.  The
 * frontier is a binary heap run by the same sift steps as CPython's
 * heapq (heapify, heappop, heappushpop), so even the pop order within a
 * frontier matches the fallback's.  The caller rejects NaN and +inf
 * likelihoods; -inf is allowed. */
typedef struct {
    double pooled;
    uint32_t pred;
    uint32_t rank;
} vit_entry;

typedef struct {
    double *scores;       /* extension scores, by rank */
    uint32_t *ranks;      /* each extension's predecessor rank */
    uint8_t *preds;       /* each extension's predecessor index */
    ptrdiff_t len, cap;   /* cap 0: never asked past rank 0 */
    vit_entry *frontier;  /* k - 1 slots; neg_trans follows it */
    double *neg_trans;    /* -lam[step][alphabet[b]][end], per b */
    ptrdiff_t nfront;
    int done;             /* no extension left */
} vit_node;

typedef struct {
    const double *lam;    /* lam[s][a][e] at lam[s * stride + a * 256 + e] */
    ptrdiff_t stride, steps, k;
    const uint8_t *alphabet;
    int last;
    const double *best;   /* (steps, k): rank 0 of each node */
    const uint8_t *arg;   /* (steps, k): the predecessor of rank 0 */
    vit_node *nodes;      /* (steps, k); step 0 is never expanded */
    vit_node **stack;     /* `steps` slots: one node per step at most */
    size_t held;          /* bytes allocated, for the failure message */
} vit_lists;

static inline int vit_lt(const vit_entry *x, const vit_entry *y)
{
    if (x->pooled != y->pooled)
        return x->pooled < y->pooled;
    if (x->pred != y->pred)
        return x->pred < y->pred;
    return x->rank < y->rank;
}

/* heapq's _siftdown: move h[pos] up towards start while it is smaller
 * than its parent. */
static void vit_siftdown(vit_entry *h, ptrdiff_t start, ptrdiff_t pos)
{
    vit_entry item = h[pos];
    while (pos > start) {
        ptrdiff_t parent = (pos - 1) >> 1;
        if (!vit_lt(&item, &h[parent]))
            break;
        h[pos] = h[parent];
        pos = parent;
    }
    h[pos] = item;
}

/* heapq's _siftup: walk h[pos] down to a leaf along the smaller children
 * (the right one unless left < right), then sift it back up. */
static void vit_siftup(vit_entry *h, ptrdiff_t end, ptrdiff_t pos)
{
    const ptrdiff_t start = pos, limit = end >> 1;
    vit_entry item = h[pos];
    while (pos < limit) {
        ptrdiff_t child = 2 * pos + 1;
        if (child + 1 < end && !vit_lt(&h[child], &h[child + 1]))
            child++;
        h[pos] = h[child];
        pos = child;
    }
    h[pos] = item;
    vit_siftdown(h, start, pos);
}

/* Room for one more extension; 0 if it cannot be allocated. */
static int vit_grow(vit_lists *L, vit_node *node)
{
    ptrdiff_t cap = node->cap + node->cap / 4 + 4;
    double *scores;
    uint32_t *ranks;
    uint8_t *preds;
    if (node->len < node->cap)
        return 1;
    scores = realloc(node->scores, (size_t)cap * sizeof *scores);
    if (!scores)
        return 0;
    node->scores = scores;
    ranks = realloc(node->ranks, (size_t)cap * sizeof *ranks);
    if (!ranks)
        return 0;
    node->ranks = ranks;
    preds = realloc(node->preds, (size_t)cap);
    if (!preds)
        return 0;
    node->preds = preds;
    L->held += (size_t)(cap - node->cap) * 13;
    node->cap = cap;
    return 1;
}

/* The first ask past rank 0 (viterbi.py's expand): the frontier holds
 * every other predecessor's rank 0, heapified in predecessor order, and
 * rank 0 becomes the node's first stored extension. */
static int vit_expand(vit_lists *L, ptrdiff_t step, ptrdiff_t v)
{
    vit_node *node = &L->nodes[step * L->k + v];
    const ptrdiff_t k = L->k;
    const int end = step == L->steps - 1 ? L->last : L->alphabet[v];
    const double *col = L->lam + step * L->stride + end;
    const double *prev = L->best + (step - 1) * k;
    const int first = L->arg[step * k + v];
    ptrdiff_t b, i;
    node->frontier = malloc((size_t)(k - 1) * sizeof(vit_entry) +
                            (size_t)k * sizeof(double));
    if (!node->frontier || !vit_grow(L, node))
        return 0;
    L->held += (size_t)(k - 1) * sizeof(vit_entry) + (size_t)k * sizeof(double);
    node->neg_trans = (double *)(node->frontier + (k - 1));
    for (b = 0; b < k; b++) {
        node->neg_trans[b] = -col[L->alphabet[b] * 256];
        if (b != first) {
            vit_entry *e = &node->frontier[node->nfront++];
            e->pooled = node->neg_trans[b] - prev[b];
            e->pred = (uint32_t)b;
            e->rank = 0;
        }
    }
    for (i = (node->nfront >> 1) - 1; i >= 0; i--)
        vit_siftup(node->frontier, node->nfront, i);
    node->scores[0] = L->best[step * k + v];
    node->preds[0] = (uint8_t)first;
    node->ranks[0] = 0;
    node->len = 1;
    return 1;
}

/* Free the lists and everything they hold (NULL is a no-op). */
void rc4_lazy_lists_free(vit_lists *L)
{
    ptrdiff_t i;
    if (!L)
        return;
    if (L->nodes)
        for (i = 0; i < L->steps * L->k; i++) {
            free(L->nodes[i].scores);
            free(L->nodes[i].ranks);
            free(L->nodes[i].preds);
            free(L->nodes[i].frontier);
        }
    free(L->nodes);
    free(L->stack);
    free(L);
}

/* Ask the top node for up to n extensions.  Returns 0 once it has them
 * (or ran out), -1 if an allocation failed. */
static int vit_walk(vit_lists *L, int64_t n)
{
    const ptrdiff_t k = L->k, top = L->steps - 1;
    vit_node *const root = &L->nodes[top * k];
    int64_t asked;
    if (n > 1 && !vit_expand(L, top, 0))
        return -1;
    for (asked = 1; asked < n && !root->done; asked++) {
        ptrdiff_t depth = 0;
        L->stack[depth++] = root;
        while (depth) {
            vit_node *node = L->stack[depth - 1];
            const ptrdiff_t step = (node - L->nodes) / k;
            const uint32_t b = node->preds[node->len - 1];
            const uint32_t r = node->ranks[node->len - 1] + 1;
            vit_node *pred = step > 1 ? &L->nodes[(step - 1) * k + b] : NULL;
            vit_entry entry;
            if (pred && pred->cap == 0) {
                if (!vit_expand(L, step - 1, b))
                    return -1;
                L->stack[depth++] = pred;
                continue;
            }
            if (pred && pred->len > (ptrdiff_t)r) {
                /* heappushpop */
                entry.pooled = node->neg_trans[b] - pred->scores[r];
                entry.pred = b;
                entry.rank = r;
                if (node->nfront && vit_lt(&node->frontier[0], &entry)) {
                    vit_entry popped = node->frontier[0];
                    node->frontier[0] = entry;
                    vit_siftup(node->frontier, node->nfront, 0);
                    entry = popped;
                }
            } else if (pred && !pred->done) {
                L->stack[depth++] = pred;
                continue;
            } else if (node->nfront) {
                /* heappop */
                entry = node->frontier[0];
                node->frontier[0] = node->frontier[--node->nfront];
                if (node->nfront)
                    vit_siftup(node->frontier, node->nfront, 0);
            } else {
                node->done = 1;
                depth--;
                continue;
            }
            if (!vit_grow(L, node))
                return -1;
            node->scores[node->len] = -entry.pooled;
            node->preds[node->len] = (uint8_t)entry.pred;
            node->ranks[node->len] = entry.rank;
            node->len++;
            depth--;
        }
    }
    return 0;
}

/* Run Algorithm 2's lazy lists for N = n (1 <= n < 2^32) over `steps`
 * steps (L - 1 >= 2) of likelihoods lam (inner (256, 256) contiguous,
 * `stride` doubles between steps, 0 for a broadcast) restricted to the
 * k-value alphabet, with each node's rank 0 in best/arg ((steps, k),
 * row-major; the top row's first entry only).  On success returns the
 * lists and writes each node's extension count to counts ((steps, k),
 * 1 for a node never asked past rank 0); rc4_lazy_lists_take then copies
 * them out step by step.  Returns NULL if an allocation failed, with
 * *held set to the bytes the lists held when it did and nothing left
 * allocated. */
vit_lists *rc4_lazy_lists(const double *lam, ptrdiff_t stride,
                          ptrdiff_t steps, const uint8_t *alphabet,
                          ptrdiff_t k, int last, const double *best,
                          const uint8_t *arg, int64_t n, int64_t *counts,
                          ptrdiff_t *held)
{
    vit_lists *L = calloc(1, sizeof *L);
    ptrdiff_t s, v;
    *held = 0;
    if (!L)
        return NULL;
    L->lam = lam;
    L->stride = stride;
    L->steps = steps;
    L->k = k;
    L->alphabet = alphabet;
    L->last = last;
    L->best = best;
    L->arg = arg;
    L->nodes = calloc((size_t)(steps * k), sizeof(vit_node));
    L->stack = malloc((size_t)steps * sizeof(vit_node *));
    if (!L->nodes || !L->stack || vit_walk(L, n) < 0) {
        *held = (ptrdiff_t)L->held;
        rc4_lazy_lists_free(L);
        return NULL;
    }
    for (s = 0; s < steps; s++)
        for (v = 0; v < k; v++) {
            const vit_node *node = &L->nodes[s * k + v];
            counts[s * k + v] = node->cap ? node->len : 1;
        }
    return L;
}

/* Copy one step's extensions out, node after node: the predecessor
 * index and rank of each (arg and rank 0 for a node never asked past
 * rank 0), and their scores too when `scores` is not NULL (the top
 * step's one node).  The step's nodes are freed; the backtrack takes
 * each step once, top first. */
void rc4_lazy_lists_take(vit_lists *L, ptrdiff_t step, uint8_t *preds,
                         uint32_t *ranks, double *scores)
{
    const ptrdiff_t nodes = step == L->steps - 1 ? 1 : L->k;
    ptrdiff_t v;
    for (v = 0; v < nodes; v++) {
        vit_node *node = &L->nodes[step * L->k + v];
        if (node->cap == 0) {
            *preds++ = L->arg[step * L->k + v];
            *ranks++ = 0;
            if (scores)
                *scores++ = L->best[step * L->k + v];
            continue;
        }
        memcpy(preds, node->preds, (size_t)node->len);
        memcpy(ranks, node->ranks, (size_t)node->len * sizeof *ranks);
        if (scores)
            memcpy(scores, node->scores, (size_t)node->len * sizeof *scores);
        preds += node->len;
        ranks += node->len;
        if (scores)
            scores += node->len;
        free(node->scores);
        free(node->ranks);
        free(node->preds);
        free(node->frontier);
        memset(node, 0, sizeof *node);
    }
}
