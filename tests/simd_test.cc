// Differential tests for the vectorized kernel layer (util/simd.h): every
// kernel table the build carries must byte-match the scalar bodies on
// randomized inputs spanning densities, overlaps, lopsided size ratios,
// and word-boundary shapes, and whole-engine enumeration must be
// digest-identical at every dispatch level. Run under ASan/UBSan by
// scripts/check.sh, this doubles as the fuzzer for the out-of-bounds
// hazards SIMD tails and overrunning stores invite.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "api/mbe.h"
#include "core/set_ops.h"
#include "core/sink.h"
#include "gen/generators.h"
#include "util/random.h"
#include "util/simd.h"
#include "util/simd_scalar.h"

namespace mbe {
namespace {

using simd::DispatchLevel;

// Forces a dispatch level for one scope, restoring the previous level on
// exit so test order cannot leak a pin into unrelated tests.
class ScopedDispatch {
 public:
  explicit ScopedDispatch(DispatchLevel want)
      : previous_(simd::ActiveLevel()),
        installed_(simd::ForceLevel(want) == want) {}
  ~ScopedDispatch() { simd::ForceLevel(previous_); }
  ScopedDispatch(const ScopedDispatch&) = delete;
  ScopedDispatch& operator=(const ScopedDispatch&) = delete;

  /// False when the build or CPU lacks the level (the force clamped).
  bool installed() const { return installed_; }

 private:
  DispatchLevel previous_;
  bool installed_;
};

std::vector<DispatchLevel> AvailableLevels() {
  std::vector<DispatchLevel> levels = {DispatchLevel::kScalar};
  for (DispatchLevel lvl : {DispatchLevel::kSSE42, DispatchLevel::kAVX2}) {
    ScopedDispatch forced(lvl);
    if (forced.installed()) levels.push_back(lvl);
  }
  return levels;
}

std::vector<VertexId> RandomSorted(size_t max_len, size_t universe,
                                   util::Rng& rng) {
  std::set<VertexId> s;
  const size_t len = rng.Below(max_len + 1);
  for (size_t i = 0; i < len; ++i) {
    s.insert(static_cast<VertexId>(rng.Below(universe)));
  }
  return {s.begin(), s.end()};
}

// A pair whose shape cycles through the regimes the kernels special-case:
// balanced dense, balanced sparse, lopsided (gallop territory), shared
// prefixes (high overlap), and near-boundary lengths around the 4/8-lane
// block sizes and the 16-element small-operand cutoff.
struct Pair {
  std::vector<VertexId> a, b;
};

Pair RandomPair(uint64_t shape, util::Rng& rng) {
  Pair p;
  switch (shape % 5) {
    case 0:  // balanced, dense universe -> high overlap
      p.a = RandomSorted(300, 400, rng);
      p.b = RandomSorted(300, 400, rng);
      break;
    case 1:  // balanced, sparse universe -> low overlap
      p.a = RandomSorted(200, 100000, rng);
      p.b = RandomSorted(200, 100000, rng);
      break;
    case 2:  // lopsided: tiny vs large
      p.a = RandomSorted(8, 5000, rng);
      p.b = RandomSorted(2000, 5000, rng);
      break;
    case 3: {  // b = superset of a (subset/difference edge cases)
      p.b = RandomSorted(500, 2000, rng);
      for (VertexId x : p.b) {
        if (rng.Below(3) != 0) p.a.push_back(x);
      }
      break;
    }
    default:  // lengths straddling the lane/block boundaries
      p.a = RandomSorted(1 + rng.Below(20), 64, rng);
      p.b = RandomSorted(1 + rng.Below(20), 64, rng);
      break;
  }
  return p;
}

std::vector<VertexId> PadCopy(const std::vector<VertexId>& src) {
  std::vector<VertexId> out(src.size() + simd::kStorePad, 0);
  return out;
}

// --- Kernel-table equivalence -------------------------------------------

TEST(SimdKernelTest, AllLevelsMatchScalarOnRandomPairs) {
  using namespace simd::internal;
  util::Rng rng(20240806);
  const std::vector<DispatchLevel> levels = AvailableLevels();
  ASSERT_FALSE(levels.empty());
  for (uint64_t round = 0; round < 400; ++round) {
    const Pair p = RandomPair(round, rng);
    const VertexId* a = p.a.data();
    const VertexId* b = p.b.data();
    const size_t na = p.a.size(), nb = p.b.size();

    std::vector<VertexId> ref_out = PadCopy(p.a);
    const size_t ref_inter = ScalarIntersect(a, na, b, nb, ref_out.data());
    std::vector<VertexId> ref_diff_out = PadCopy(p.a);
    const size_t ref_diff =
        ScalarDifference(a, na, b, nb, ref_diff_out.data());
    const bool ref_subset = ScalarIsSubset(a, na, b, nb);
    const size_t caps[] = {0, 1, ref_inter, ref_inter + 1, na + nb};

    for (DispatchLevel lvl : levels) {
      ScopedDispatch forced(lvl);
      ASSERT_TRUE(forced.installed());
      const simd::KernelTable& k = simd::Kernels();
      const char* name = simd::DispatchLevelName(lvl);

      std::vector<VertexId> out = PadCopy(p.a);
      const size_t n_inter = k.intersect(a, na, b, nb, out.data());
      ASSERT_EQ(n_inter, ref_inter) << name << " round " << round;
      ASSERT_TRUE(std::equal(out.begin(),
                             out.begin() + static_cast<ptrdiff_t>(n_inter),
                             ref_out.begin()))
          << name << " round " << round;

      ASSERT_EQ(k.intersect_size(a, na, b, nb), ref_inter)
          << name << " round " << round;
      for (size_t cap : caps) {
        ASSERT_EQ(k.intersect_size_capped(a, na, b, nb, cap),
                  std::min(ref_inter, cap))
            << name << " round " << round << " cap " << cap;
      }

      std::vector<VertexId> diff = PadCopy(p.a);
      const size_t n_diff = k.difference(a, na, b, nb, diff.data());
      ASSERT_EQ(n_diff, ref_diff) << name << " round " << round;
      ASSERT_TRUE(std::equal(diff.begin(),
                             diff.begin() + static_cast<ptrdiff_t>(n_diff),
                             ref_diff_out.begin()))
          << name << " round " << round;

      ASSERT_EQ(k.is_subset(a, na, b, nb), ref_subset)
          << name << " round " << round;
    }
  }
}

TEST(SimdKernelTest, MaskAndWordKernelsMatchScalar) {
  using namespace simd::internal;
  util::Rng rng(99173);
  const std::vector<DispatchLevel> levels = AvailableLevels();
  for (uint64_t round = 0; round < 300; ++round) {
    // Universe sized to land mask bits on and around word boundaries.
    const size_t universe = 1 + rng.Below(400);
    const std::vector<VertexId> marked = RandomSorted(universe, universe, rng);
    const std::vector<VertexId> probes = RandomSorted(300, universe, rng);
    std::vector<uint64_t> words((universe + 63) / 64, 0);
    for (VertexId x : marked) words[x >> 6] |= uint64_t{1} << (x & 63);
    std::vector<uint64_t> other(words.size());
    for (uint64_t& w : other) w = rng.Next();

    const size_t ref_count =
        ScalarMaskCount(probes.data(), probes.size(), words.data());
    std::vector<VertexId> ref_out = PadCopy(probes);
    const size_t ref_filtered = ScalarMaskFilter(
        probes.data(), probes.size(), words.data(), ref_out.data());
    const size_t ref_and =
        ScalarAndCount(words.data(), other.data(), words.size());

    for (DispatchLevel lvl : levels) {
      ScopedDispatch forced(lvl);
      ASSERT_TRUE(forced.installed());
      const simd::KernelTable& k = simd::Kernels();
      const char* name = simd::DispatchLevelName(lvl);

      ASSERT_EQ(k.mask_count(probes.data(), probes.size(), words.data()),
                ref_count)
          << name << " round " << round;
      std::vector<VertexId> out = PadCopy(probes);
      const size_t filtered = k.mask_filter(probes.data(), probes.size(),
                                            words.data(), out.data());
      ASSERT_EQ(filtered, ref_filtered) << name << " round " << round;
      ASSERT_TRUE(std::equal(out.begin(),
                             out.begin() + static_cast<ptrdiff_t>(filtered),
                             ref_out.begin()))
          << name << " round " << round;

      ASSERT_EQ(k.and_count(words.data(), other.data(), words.size()),
                ref_and)
          << name << " round " << round;
      std::vector<uint64_t> anded(words.size());
      k.and_words(words.data(), other.data(), anded.data(), words.size());
      for (size_t i = 0; i < words.size(); ++i) {
        ASSERT_EQ(anded[i], words[i] & other[i])
            << name << " round " << round << " word " << i;
      }
    }
  }
}

// --- set_ops routing equivalence ----------------------------------------

TEST(SimdKernelTest, SetOpsIdenticalAcrossStrategiesAndLevels) {
  util::Rng rng(5511);
  const std::vector<DispatchLevel> levels = AvailableLevels();
  for (uint64_t round = 0; round < 200; ++round) {
    const Pair p = RandomPair(round, rng);
    std::vector<VertexId> expect;
    std::set_intersection(p.a.begin(), p.a.end(), p.b.begin(), p.b.end(),
                          std::back_inserter(expect));
    for (DispatchLevel lvl : levels) {
      ScopedDispatch forced(lvl);
      for (IntersectStrategy strategy :
           {IntersectStrategy::kAuto, IntersectStrategy::kMerge,
            IntersectStrategy::kGallop}) {
        std::vector<VertexId> out;
        IntersectInto(p.a, p.b, &out, strategy);
        ASSERT_EQ(out, expect)
            << simd::DispatchLevelName(lvl) << " strategy "
            << static_cast<int>(strategy) << " round " << round;
      }
      ASSERT_EQ(IntersectSize(p.a, p.b), expect.size());
      std::vector<VertexId> diff, ref_diff;
      std::set_difference(p.a.begin(), p.a.end(), p.b.begin(), p.b.end(),
                          std::back_inserter(ref_diff));
      Difference(p.a, p.b, &diff);
      ASSERT_EQ(diff, ref_diff);
      ASSERT_EQ(IsSubset(p.a, p.b),
                std::includes(p.b.begin(), p.b.end(), p.a.begin(), p.a.end()));
    }
  }
}

// --- Dispatch control ----------------------------------------------------

TEST(SimdDispatchTest, ForceLevelClampsAndRestores) {
  const DispatchLevel ambient = simd::ActiveLevel();
  const DispatchLevel max = simd::MaxSupportedLevel();
  {
    ScopedDispatch forced(DispatchLevel::kScalar);
    ASSERT_TRUE(forced.installed());
    EXPECT_EQ(simd::ActiveLevel(), DispatchLevel::kScalar);
    // Asking for more than the platform has clamps to the platform max.
    EXPECT_EQ(simd::ForceLevel(DispatchLevel::kAVX2), max);
    simd::ForceLevel(DispatchLevel::kScalar);
  }
  EXPECT_EQ(simd::ActiveLevel(), ambient);
}

TEST(SimdDispatchTest, KernelCallCountersAdvance) {
  const simd::KernelCallCounters before = simd::SnapshotKernelCalls();
  // Operands above the small-operand cutoff so the calls dispatch.
  std::vector<VertexId> a(64), b(64);
  for (size_t i = 0; i < 64; ++i) {
    a[i] = static_cast<VertexId>(2 * i);
    b[i] = static_cast<VertexId>(3 * i);
  }
  (void)IntersectSize(a, b);
  const simd::KernelCallCounters after = simd::SnapshotKernelCalls();
  EXPECT_GT(after.intersect, before.intersect);
}

// --- Whole-engine digest identity across levels --------------------------

// Every engine, dispatch level and thread count must enumerate the same
// set: one reference digest per graph across the whole matrix.
TEST(SimdDispatchTest, EnginesDigestIdenticalAcrossLevels) {
  util::Rng rng(777);
  const std::vector<DispatchLevel> levels = AvailableLevels();
  for (int g = 0; g < 4; ++g) {
    const BipartiteGraph graph =
        gen::ErdosRenyi(30 + g * 10, 25 + g * 5, 0.15, rng.Next());
    uint64_t ref_digest = 0;
    uint64_t ref_count = 0;
    bool have_ref = false;
    for (Algorithm algorithm : {Algorithm::kMbet, Algorithm::kBbk,
                                Algorithm::kImbea, Algorithm::kMineLmbc}) {
      for (DispatchLevel lvl : levels) {
        ScopedDispatch forced(lvl);
        for (unsigned threads : {1u, 8u}) {
          if (threads > 1 && !SupportsParallel(algorithm)) continue;
          FingerprintSink sink;
          Options options;
          options.algorithm = algorithm;
          options.threads = threads;
          RunResult run;
          ASSERT_TRUE(Enumerate(graph, options, &sink, &run).ok());
          ASSERT_TRUE(run.complete());
          EXPECT_EQ(static_cast<DispatchLevel>(run.stats.kernel_dispatch),
                    lvl);
          if (!have_ref) {
            ref_digest = sink.Digest();
            ref_count = sink.count();
            have_ref = true;
          } else {
            EXPECT_EQ(sink.Digest(), ref_digest)
                << AlgorithmName(algorithm) << " level "
                << simd::DispatchLevelName(lvl) << " threads " << threads;
            EXPECT_EQ(sink.count(), ref_count);
          }
        }
      }
    }
  }
}

}  // namespace
}  // namespace mbe
