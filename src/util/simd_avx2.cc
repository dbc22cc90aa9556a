// AVX2 kernel table (util/simd.h). Compiled with -mavx2 only for this
// translation unit; referenced by the dispatcher when the host CPU reports
// avx2 support. Same block-intersection scheme as the SSE4.2 TU but 8x8:
// compare an 8-lane block of `a` against all 7 rotations of an 8-lane
// block of `b`, compact matches through a 256-entry permutation LUT, and
// advance whichever block's maximum is smaller. Mask probes use vpgatherdd
// on the dword view of the packed mask plus a per-lane variable shift.

#include "util/simd.h"

#if defined(__AVX2__)

#include <immintrin.h>

#include <bit>

#include "util/simd_scalar.h"

namespace mbe::simd::internal {

namespace {

// Permutation control for _mm256_permutevar8x32_epi32: entry m moves the
// dword lanes set in the 8-bit mask m to the front. Trailing lanes repeat
// lane 0; the popcount of m bounds how many stores are meaningful and the
// caller only advances the cursor by that many.
struct AvxCompactLut {
  alignas(32) uint32_t idx[256][8];
};

AvxCompactLut MakeAvxCompactLut() {
  AvxCompactLut lut{};
  for (int m = 0; m < 256; ++m) {
    int k = 0;
    for (int lane = 0; lane < 8; ++lane) {
      if ((m >> lane) & 1) lut.idx[m][k++] = static_cast<uint32_t>(lane);
    }
    for (; k < 8; ++k) lut.idx[m][k] = 0;
  }
  return lut;
}

const AvxCompactLut kCompact = MakeAvxCompactLut();

// Bitmask of lanes of `va` equal to ANY lane of `vb` (all-pairs compare
// via the seven non-identity cyclic rotations of vb).
inline unsigned PairwiseEqMask(__m256i va, __m256i vb) {
  static const __m256i kRot1 = _mm256_setr_epi32(1, 2, 3, 4, 5, 6, 7, 0);
  __m256i cmp = _mm256_cmpeq_epi32(va, vb);
  __m256i rot = vb;
  for (int r = 1; r < 8; ++r) {
    rot = _mm256_permutevar8x32_epi32(rot, kRot1);
    cmp = _mm256_or_si256(cmp, _mm256_cmpeq_epi32(va, rot));
  }
  return static_cast<unsigned>(_mm256_movemask_ps(_mm256_castsi256_ps(cmp)));
}

inline void StoreCompact(VertexId* dst, __m256i va, unsigned mask) {
  const __m256i perm =
      _mm256_load_si256(reinterpret_cast<const __m256i*>(kCompact.idx[mask]));
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst),
                      _mm256_permutevar8x32_epi32(va, perm));
}

size_t AvxIntersect(const VertexId* a, size_t na, const VertexId* b, size_t nb,
                    VertexId* out) {
  size_t i = 0, j = 0, count = 0;
  if (na >= 8 && nb >= 8) {
    __m256i va = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a));
    __m256i vb = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b));
    for (;;) {
      const unsigned mask = PairwiseEqMask(va, vb);
      StoreCompact(out + count, va, mask);
      count += static_cast<size_t>(std::popcount(mask));
      const VertexId amax = a[i + 7], bmax = b[j + 7];
      const bool adv_a = amax <= bmax, adv_b = bmax <= amax;
      if (adv_a) {
        i += 8;
        if (i + 8 > na) {
          if (adv_b) j += 8;
          break;
        }
        va = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + i));
      }
      if (adv_b) {
        j += 8;
        if (j + 8 > nb) break;
        vb = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + j));
      }
    }
  }
  if (i < na && j < nb) {
    count += ScalarIntersect(a + i, na - i, b + j, nb - j, out + count);
  }
  return count;
}

size_t AvxIntersectSize(const VertexId* a, size_t na, const VertexId* b,
                        size_t nb) {
  size_t i = 0, j = 0, count = 0;
  if (na >= 8 && nb >= 8) {
    __m256i va = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a));
    __m256i vb = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b));
    for (;;) {
      count += static_cast<size_t>(std::popcount(PairwiseEqMask(va, vb)));
      const VertexId amax = a[i + 7], bmax = b[j + 7];
      const bool adv_a = amax <= bmax, adv_b = bmax <= amax;
      if (adv_a) {
        i += 8;
        if (i + 8 > na) {
          if (adv_b) j += 8;
          break;
        }
        va = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + i));
      }
      if (adv_b) {
        j += 8;
        if (j + 8 > nb) break;
        vb = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + j));
      }
    }
  }
  if (i < na && j < nb) {
    count += ScalarIntersectSize(a + i, na - i, b + j, nb - j);
  }
  return count;
}

size_t AvxIntersectSizeCapped(const VertexId* a, size_t na, const VertexId* b,
                              size_t nb, size_t cap) {
  size_t i = 0, j = 0, count = 0;
  if (na >= 8 && nb >= 8) {
    __m256i va = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a));
    __m256i vb = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b));
    for (;;) {
      count += static_cast<size_t>(std::popcount(PairwiseEqMask(va, vb)));
      if (count >= cap) return cap;
      const VertexId amax = a[i + 7], bmax = b[j + 7];
      const bool adv_a = amax <= bmax, adv_b = bmax <= amax;
      if (adv_a) {
        i += 8;
        if (i + 8 > na) {
          if (adv_b) j += 8;
          break;
        }
        va = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + i));
      }
      if (adv_b) {
        j += 8;
        if (j + 8 > nb) break;
        vb = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + j));
      }
    }
  }
  if (count < cap && i < na && j < nb) {
    count += ScalarIntersectSizeCapped(a + i, na - i, b + j, nb - j,
                                       cap - count);
  }
  return count < cap ? count : cap;
}

size_t AvxDifference(const VertexId* a, size_t na, const VertexId* b,
                     size_t nb, VertexId* out) {
  size_t i = 0, j = 0, count = 0;
  unsigned found = 0;
  if (na >= 8 && nb >= 8) {
    __m256i va = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a));
    __m256i vb = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b));
    for (;;) {
      found |= PairwiseEqMask(va, vb);
      const VertexId amax = a[i + 7], bmax = b[j + 7];
      const bool adv_a = amax <= bmax, adv_b = bmax <= amax;
      if (adv_a) {
        const unsigned keep = ~found & 0xFFu;
        StoreCompact(out + count, va, keep);
        count += static_cast<size_t>(std::popcount(keep));
        found = 0;
        i += 8;
        if (i + 8 > na) {
          if (adv_b) j += 8;
          break;
        }
        va = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + i));
      }
      if (adv_b) {
        j += 8;
        if (j + 8 > nb) break;
        vb = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + j));
      }
    }
  }
  if (found != 0) {
    // b ran out of full blocks mid-way through this a block: emit its
    // unmatched lanes, still checking them against the b remainder.
    for (size_t k = 0; k < 8; ++k) {
      if ((found >> k) & 1) continue;
      const VertexId x = a[i + k];
      const VertexId* lo = BranchlessLowerBound(b + j, nb - j, x);
      if (lo == b + nb || *lo != x) out[count++] = x;
    }
    i += 8;
  }
  if (i < na) {
    count += ScalarDifference(a + i, na - i, b + j, nb - j, out + count);
  }
  return count;
}

bool AvxIsSubset(const VertexId* a, size_t na, const VertexId* b, size_t nb) {
  if (na > nb) return false;
  size_t i = 0, j = 0;
  unsigned found = 0;
  if (na >= 8 && nb >= 8) {
    __m256i va = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a));
    __m256i vb = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b));
    for (;;) {
      found |= PairwiseEqMask(va, vb);
      const VertexId amax = a[i + 7], bmax = b[j + 7];
      const bool adv_a = amax <= bmax, adv_b = bmax <= amax;
      if (adv_a) {
        if (found != 0xFFu) return false;
        found = 0;
        i += 8;
        if (i + 8 > na) {
          if (adv_b) j += 8;
          break;
        }
        va = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + i));
      }
      if (adv_b) {
        j += 8;
        if (j + 8 > nb) break;
        vb = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + j));
      }
    }
  }
  if (found != 0) {
    for (size_t k = 0; k < 8; ++k) {
      if ((found >> k) & 1) continue;
      const VertexId x = a[i + k];
      const VertexId* lo = BranchlessLowerBound(b + j, nb - j, x);
      if (lo == b + nb || *lo != x) return false;
    }
    i += 8;
  }
  if (i < na) return ScalarIsSubset(a + i, na - i, b + j, nb - j);
  return true;
}

// Gathers the mask dword holding each lane's bit, shifts that bit to
// position 0 per lane, ANDs with 1. Bit x of the packed mask is bit x%64
// of words[x/64]; on a little-endian dword view that is bit x%32 of
// dword x/32, which is what the gather indexes.
inline __m256i GatherMaskBits(__m256i xs, const uint64_t* words) {
  const int* dwords = reinterpret_cast<const int*>(words);
  const __m256i dword_idx = _mm256_srli_epi32(xs, 5);
  const __m256i bit_idx = _mm256_and_si256(xs, _mm256_set1_epi32(31));
  const __m256i gathered = _mm256_i32gather_epi32(dwords, dword_idx, 4);
  return _mm256_and_si256(_mm256_srlv_epi32(gathered, bit_idx),
                          _mm256_set1_epi32(1));
}

size_t AvxMaskCount(const VertexId* xs, size_t n, const uint64_t* words) {
  size_t i = 0, count = 0;
  __m256i acc = _mm256_setzero_si256();
  for (; i + 8 <= n; i += 8) {
    const __m256i vx =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(xs + i));
    acc = _mm256_add_epi32(acc, GatherMaskBits(vx, words));
    // Each lane accumulates at most 2^32 hits; list lengths are far below
    // that, so no widening pass is needed.
  }
  alignas(32) uint32_t lanes[8];
  _mm256_store_si256(reinterpret_cast<__m256i*>(lanes), acc);
  for (int k = 0; k < 8; ++k) count += lanes[k];
  if (i < n) count += ScalarMaskCount(xs + i, n - i, words);
  return count;
}

size_t AvxMaskFilter(const VertexId* xs, size_t n, const uint64_t* words,
                     VertexId* out) {
  size_t i = 0, count = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256i vx =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(xs + i));
    const __m256i bits = GatherMaskBits(vx, words);
    const unsigned mask = static_cast<unsigned>(_mm256_movemask_ps(
        _mm256_castsi256_ps(_mm256_cmpeq_epi32(bits, _mm256_set1_epi32(1)))));
    StoreCompact(out + count, vx, mask);
    count += static_cast<size_t>(std::popcount(mask));
  }
  if (i < n) count += ScalarMaskFilter(xs + i, n - i, words, out + count);
  return count;
}

void AvxAndWords(const uint64_t* a, const uint64_t* b, uint64_t* out,
                 size_t n) {
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256i va =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + i));
    const __m256i vb =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + i));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + i),
                        _mm256_and_si256(va, vb));
  }
  for (; i < n; ++i) out[i] = a[i] & b[i];
}

size_t AvxAndCount(const uint64_t* a, const uint64_t* b, size_t n) {
  // AND vectorized, popcount scalar: without AVX-512 VPOPCNTDQ the
  // in-register popcount schemes only pay off past sizes these masks
  // reach, and scalar popcnt on the AND result keeps the sum exact.
  size_t i = 0, count = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256i va =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + i));
    const __m256i vb =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + i));
    alignas(32) uint64_t w[4];
    _mm256_store_si256(reinterpret_cast<__m256i*>(w), _mm256_and_si256(va, vb));
    count += static_cast<size_t>(std::popcount(w[0])) +
             static_cast<size_t>(std::popcount(w[1])) +
             static_cast<size_t>(std::popcount(w[2])) +
             static_cast<size_t>(std::popcount(w[3]));
  }
  for (; i < n; ++i) {
    count += static_cast<size_t>(std::popcount(a[i] & b[i]));
  }
  return count;
}

}  // namespace

const KernelTable& Avx2KernelTable() {
  static const KernelTable table = {
      AvxIntersect,  AvxIntersectSize, AvxIntersectSizeCapped,
      AvxIsSubset,   AvxDifference,    AvxMaskCount,
      AvxMaskFilter, AvxAndWords,      AvxAndCount,
  };
  return table;
}

}  // namespace mbe::simd::internal

#endif  // defined(__AVX2__)
