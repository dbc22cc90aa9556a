#ifndef PMBE_UTIL_SIMD_H_
#define PMBE_UTIL_SIMD_H_

#include <atomic>
#include <cstddef>
#include <cstdint>

#include "util/common.h"

/// \file
/// Runtime-dispatched vectorized kernels (docs/SET_REPRESENTATION.md,
/// "The vectorized kernel layer").
///
/// Every sorted-list, membership-mask, and bitmap-word kernel underneath
/// the enumerators routes through one function-pointer table selected once
/// per process: AVX2 when the CPU and the build provide it, SSE4.2 next,
/// scalar always. The SIMD translation units are compiled with per-file
/// `-mavx2` / `-msse4.2` flags (CMake options `PMBE_ENABLE_AVX2` /
/// `PMBE_ENABLE_SSE42`), so the rest of the build stays portable to the
/// baseline x86-64 ISA and to non-x86 targets, where only the scalar table
/// exists.
///
/// Pinning for CI and benchmarking:
///  * `PMBE_FORCE_SCALAR=1` in the environment pins the scalar table at
///    first use (the `scripts/check.sh` scalar leg);
///  * `-DPMBE_FORCE_SCALAR=ON` at configure time compiles the pin in;
///  * `ForceLevel()` re-points the table at runtime (benchmarks and the
///    differential fuzzer; not thread-safe, single-threaded use only).

namespace mbe::simd {

/// Instruction-set level of the active kernel table, in increasing order
/// of capability. Numeric values are stable: they are stored in
/// `EnumStats::kernel_dispatch` and printed by `pmbe --stats`.
enum class DispatchLevel : uint8_t { kScalar = 0, kSSE42 = 1, kAVX2 = 2 };

/// Human-readable name ("scalar", "sse4.2", "avx2").
const char* DispatchLevelName(DispatchLevel level);

/// Materializing kernels may store one full vector past the last written
/// element; output buffers must have room for `result size + kStorePad`
/// elements. core/set_ops.cc sizes its vectors accordingly.
inline constexpr size_t kStorePad = 8;

/// The kernel function-pointer table. All list inputs are sorted and
/// duplicate-free; `out` buffers must not alias the inputs and must carry
/// `kStorePad` elements of slack. Every kernel tolerates empty operands.
struct KernelTable {
  /// out = a ∩ b; returns |out|.
  size_t (*intersect)(const VertexId* a, size_t na, const VertexId* b,
                      size_t nb, VertexId* out);
  /// Returns |a ∩ b|.
  size_t (*intersect_size)(const VertexId* a, size_t na, const VertexId* b,
                           size_t nb);
  /// Returns min(|a ∩ b|, cap), allowed to stop counting at cap.
  size_t (*intersect_size_capped)(const VertexId* a, size_t na,
                                  const VertexId* b, size_t nb, size_t cap);
  /// True iff a ⊆ b.
  bool (*is_subset)(const VertexId* a, size_t na, const VertexId* b,
                    size_t nb);
  /// out = a \ b; returns |out|.
  size_t (*difference)(const VertexId* a, size_t na, const VertexId* b,
                       size_t nb, VertexId* out);
  /// Returns |{x in xs : bit x set in words}| (word-packed membership
  /// mask probe; bit x of the mask is bit x%64 of words[x/64]).
  size_t (*mask_count)(const VertexId* xs, size_t n, const uint64_t* words);
  /// out = {x in xs : bit x set in words}, order preserved; returns |out|.
  size_t (*mask_filter)(const VertexId* xs, size_t n, const uint64_t* words,
                        VertexId* out);
  /// out[i] = a[i] & b[i] for i < n. `out` may alias `a` or `b`.
  void (*and_words)(const uint64_t* a, const uint64_t* b, uint64_t* out,
                    size_t n);
  /// Returns popcount(a & b) over n words.
  size_t (*and_count)(const uint64_t* a, const uint64_t* b, size_t n);
};

/// The active kernel table. Resolved once (cpuid + PMBE_FORCE_SCALAR) on
/// first use; subsequent calls are two loads.
const KernelTable& Kernels();

/// Level of the active table.
DispatchLevel ActiveLevel();

/// Highest level the build + CPU support, ignoring the scalar pins.
DispatchLevel MaxSupportedLevel();

/// Re-points the dispatch at `want`, clamped to MaxSupportedLevel();
/// returns the level actually installed. Overrides the environment pin
/// (explicit API beats ambient configuration). NOT thread-safe: call only
/// from single-threaded benchmark/test setup code.
DispatchLevel ForceLevel(DispatchLevel want);

// --- Per-kernel call counters ------------------------------------------
// Process-wide accounting of dispatched kernel calls, cheap enough for the
// hot path: each thread owns a block of relaxed single-writer atomics
// (plain adds on x86), and SnapshotKernelCalls() sums live blocks plus the
// folded totals of exited threads. The API facade diffs two snapshots
// around a run to fill EnumStats::simd_*_calls.

/// Kernel families the counters distinguish.
enum class KernelOp : uint8_t {
  kIntersect = 0,   // intersect / intersect_size / intersect_size_capped
  kDifference = 1,  // difference / is_subset
  kMask = 2,        // mask_count / mask_filter
  kWord = 3,        // and_words / and_count
};
inline constexpr size_t kNumKernelOps = 4;

/// Totals per kernel family at one point in time.
struct KernelCallCounters {
  uint64_t intersect = 0;
  uint64_t difference = 0;
  uint64_t mask = 0;
  uint64_t word = 0;
};

namespace internal {

void RegisterTlsCounters(std::atomic<uint64_t>* block);
void RetireTlsCounters(std::atomic<uint64_t>* block);

/// One per thread; registers with the process registry on first use and
/// folds its totals into the retired accumulator on thread exit.
struct TlsCounterBlock {
  std::atomic<uint64_t> calls[kNumKernelOps] = {};
  TlsCounterBlock() { RegisterTlsCounters(calls); }
  ~TlsCounterBlock() { RetireTlsCounters(calls); }
};

inline thread_local TlsCounterBlock g_tls_counters;

}  // namespace internal

/// Counts one dispatched call of family `op` on the calling thread.
/// Single-writer relaxed atomics: compiles to a plain increment.
inline void CountKernelCall(KernelOp op) {
  std::atomic<uint64_t>& c =
      internal::g_tls_counters.calls[static_cast<size_t>(op)];
  c.store(c.load(std::memory_order_relaxed) + 1, std::memory_order_relaxed);
}

/// Sums the counters of all live threads plus exited ones. Monotone
/// between calls; diff two snapshots to attribute calls to a run.
KernelCallCounters SnapshotKernelCalls();

}  // namespace mbe::simd

#endif  // PMBE_UTIL_SIMD_H_
