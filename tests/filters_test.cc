// Size-constrained enumeration and maximum-biclique search, validated
// against the filtered brute-force oracle on random graphs.

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "api/mbe.h"
#include "core/verify.h"
#include "gen/generators.h"

namespace mbe {
namespace {

std::vector<Biclique> OracleFiltered(const BipartiteGraph& graph,
                                     size_t min_left, size_t min_right) {
  std::vector<Biclique> all = BruteForceMbe(graph);
  std::erase_if(all, [&](const Biclique& b) {
    return b.left.size() < min_left || b.right.size() < min_right;
  });
  return all;
}

struct FilterCase {
  uint32_t min_left;
  uint32_t min_right;
};

class SizeFilterTest : public ::testing::TestWithParam<FilterCase> {};

TEST_P(SizeFilterTest, MatchesFilteredOracle) {
  const FilterCase& c = GetParam();
  for (uint64_t seed : {21u, 22u, 23u, 24u}) {
    BipartiteGraph graph = gen::ErdosRenyi(14, 12, 0.4, seed);
    const std::vector<Biclique> expected =
        OracleFiltered(graph, c.min_left, c.min_right);

    for (Algorithm algorithm : {Algorithm::kMbet, Algorithm::kMbetM}) {
      Options options;
      options.algorithm = algorithm;
      options.mbet.min_left = c.min_left;
      options.mbet.min_right = c.min_right;
      CollectSink sink;
      ASSERT_TRUE(Enumerate(graph, options, &sink, nullptr).ok());
      EXPECT_EQ(DiffResultSets(expected, sink.TakeSorted()), "")
          << AlgorithmName(algorithm) << " min_left=" << c.min_left
          << " min_right=" << c.min_right << " seed=" << seed;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Thresholds, SizeFilterTest,
                         ::testing::Values(FilterCase{1, 1}, FilterCase{2, 1},
                                           FilterCase{1, 2}, FilterCase{2, 2},
                                           FilterCase{3, 3}, FilterCase{4, 2},
                                           FilterCase{2, 4},
                                           FilterCase{6, 6}));

TEST(SizeFilterTest, ConstraintsFollowCallerOrientationUnderAutoSwap) {
  // Tall graph: |V| > |U| triggers the internal side swap; min_left must
  // still constrain the caller's left side.
  BipartiteGraph graph = gen::ErdosRenyi(6, 14, 0.45, 77);
  ASSERT_GT(graph.num_right(), graph.num_left());
  const std::vector<Biclique> expected = OracleFiltered(graph, 3, 2);

  Options options;
  options.mbet.min_left = 3;
  options.mbet.min_right = 2;
  ASSERT_TRUE(options.auto_swap_sides);
  CollectSink sink;
  ASSERT_TRUE(Enumerate(graph, options, &sink, nullptr).ok());
  EXPECT_EQ(DiffResultSets(expected, sink.TakeSorted()), "");
}

TEST(SizeFilterTest, FilterPrunesWork) {
  BipartiteGraph graph = gen::PowerLaw(400, 250, 2500, 0.85, 0.8, 5);
  Options unfiltered;
  RunResult full;
  {
    CountSink sink;
    ASSERT_TRUE(Enumerate(graph, unfiltered, &sink, &full).ok());
  }
  Options filtered;
  filtered.mbet.min_left = 4;
  filtered.mbet.min_right = 4;
  RunResult pruned;
  {
    CountSink sink;
    ASSERT_TRUE(Enumerate(graph, filtered, &sink, &pruned).ok());
  }
  // The thresholds must actually prune the search tree, not post-filter.
  EXPECT_LT(pruned.stats.nodes_expanded, full.stats.nodes_expanded);
}

// --- Maximum biclique -------------------------------------------------------

uint64_t OracleMaxEdges(const BipartiteGraph& graph, size_t min_left,
                        size_t min_right) {
  uint64_t best = 0;
  for (const Biclique& b : BruteForceMbe(graph)) {
    if (b.left.size() >= min_left && b.right.size() >= min_right) {
      best = std::max<uint64_t>(best, b.num_edges());
    }
  }
  return best;
}

TEST(MaximumBicliqueTest, MatchesOracleOnRandomGraphs) {
  for (uint64_t seed = 100; seed < 130; ++seed) {
    BipartiteGraph graph = gen::ErdosRenyi(13, 13, 0.35, seed);
    const uint64_t expected = OracleMaxEdges(graph, 1, 1);
    Biclique best;
    ASSERT_TRUE(FindMaximumBiclique(graph, Options(), &best).ok());
    if (expected == 0) {
      EXPECT_TRUE(best.left.empty()) << "seed=" << seed;
      continue;
    }
    EXPECT_EQ(best.num_edges(), expected) << "seed=" << seed;
    EXPECT_TRUE(IsMaximalBiclique(graph, best)) << "seed=" << seed;
  }
}

TEST(MaximumBicliqueTest, RespectsSizeConstraints) {
  for (uint64_t seed = 200; seed < 215; ++seed) {
    BipartiteGraph graph = gen::ErdosRenyi(14, 12, 0.45, seed);
    Options options;
    options.mbet.min_left = 3;
    options.mbet.min_right = 3;
    Biclique best;
    ASSERT_TRUE(FindMaximumBiclique(graph, options, &best).ok());
    const uint64_t expected = OracleMaxEdges(graph, 3, 3);
    if (expected == 0) {
      EXPECT_TRUE(best.left.empty()) << "seed=" << seed;
      continue;
    }
    EXPECT_GE(best.left.size(), 3u);
    EXPECT_GE(best.right.size(), 3u);
    EXPECT_EQ(best.num_edges(), expected) << "seed=" << seed;
  }
}

TEST(MaximumBicliqueTest, FindsPlantedBlock) {
  BipartiteGraph base = gen::ErdosRenyi(200, 150, 0.01, 9);
  std::vector<gen::PlantedBiclique> planted;
  BipartiteGraph graph = gen::PlantBicliques(base, 1, 12, 10, 10, &planted);
  Biclique best;
  ASSERT_TRUE(FindMaximumBiclique(graph, Options(), &best).ok());
  // The planted 12x10 block dwarfs anything the sparse background forms;
  // the maximum must contain it.
  EXPECT_GE(best.num_edges(), 120u);
  EXPECT_TRUE(std::includes(best.left.begin(), best.left.end(),
                            planted[0].left.begin(), planted[0].left.end()));
  EXPECT_TRUE(std::includes(best.right.begin(), best.right.end(),
                            planted[0].right.begin(),
                            planted[0].right.end()));
}

TEST(MaximumBicliqueTest, AgreesWithFullEnumerationOnMediumGraph) {
  BipartiteGraph graph = gen::PowerLaw(500, 300, 3000, 0.85, 0.8, 12);
  uint64_t expected = 0;
  CallbackSink max_tracker(
      [&](std::span<const VertexId> l, std::span<const VertexId> r) {
        expected = std::max<uint64_t>(expected, l.size() * r.size());
      });
  ASSERT_TRUE(Enumerate(graph, Options(), &max_tracker, nullptr).ok());
  ASSERT_GT(expected, 0u);


  Biclique best;
  ASSERT_TRUE(FindMaximumBiclique(graph, Options(), &best).ok());
  EXPECT_EQ(best.num_edges(), expected);
  EXPECT_TRUE(IsMaximalBiclique(graph, best));
}

}  // namespace
}  // namespace mbe
