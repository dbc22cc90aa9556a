// Tests of the facade: id translation under relabeling/swapping, algorithm
// name round trips, and the verification oracle's own validators.

#include <gtest/gtest.h>

#include <algorithm>
#include <utility>

#include "api/mbe.h"
#include "core/verify.h"
#include "gen/generators.h"

namespace mbe {
namespace {

TEST(ApiTest, AlgorithmNamesRoundTrip) {
  // Display names differ from flag names; check parse of flag forms.
  const std::pair<const char*, Algorithm> flag_forms[] = {
      {"mbet", Algorithm::kMbet},   {"mbetm", Algorithm::kMbetM},
      {"minelmbc", Algorithm::kMineLmbc},
      {"mbea", Algorithm::kMbea},   {"imbea", Algorithm::kImbea},
      {"oombea", Algorithm::kOombeaLite},
      {"bbk", Algorithm::kBbk}};
  for (const auto& [name, expected] : flag_forms) {
    Algorithm parsed = Algorithm::kMbet;
    ASSERT_TRUE(ParseAlgorithm(name, &parsed).ok()) << name;
    EXPECT_EQ(parsed, expected) << name;
  }
}

TEST(ApiTest, EmittedIdsAreOriginalUnderEveryPreprocessing) {
  // The emitted bicliques must be valid in the *input* graph regardless of
  // internal relabeling, hub-first ordering, or side swapping.
  BipartiteGraph graph = gen::PowerLaw(30, 50, 250, 0.8, 0.8, 61);
  ASSERT_GT(graph.num_right(), graph.num_left());  // triggers auto swap
  for (bool hub_first : {false, true}) {
    for (VertexOrder order :
         {VertexOrder::kNone, VertexOrder::kDegreeAsc, VertexOrder::kRandom}) {
      Options options;
      options.hub_first_left = hub_first;
      options.order = order;
      options.seed = 3;
      CollectSink sink;
      ASSERT_TRUE(Enumerate(graph, options, &sink, nullptr).ok());
      const auto results = sink.TakeSorted();
      EXPECT_EQ(ValidateResultSet(graph, results), "")
          << "hub_first=" << hub_first << " order=" << VertexOrderName(order);
    }
  }
}

TEST(ApiTest, AutoSwapOffKeepsOrientationToo) {
  BipartiteGraph graph = gen::ErdosRenyi(8, 20, 0.3, 62);
  Options no_swap;
  no_swap.auto_swap_sides = false;
  Options swap;
  swap.auto_swap_sides = true;
  CollectSink a, b;
  ASSERT_TRUE(Enumerate(graph, no_swap, &a, nullptr).ok());
  ASSERT_TRUE(Enumerate(graph, swap, &b, nullptr).ok());
  EXPECT_EQ(DiffResultSets(a.TakeSorted(), b.TakeSorted()), "");
}

TEST(ApiTest, RunResultReportsTimeAndStats) {
  BipartiteGraph graph = gen::PowerLaw(100, 80, 500, 0.8, 0.8, 63);
  CountSink sink;
  RunResult run;
  ASSERT_TRUE(Enumerate(graph, Options(), &sink, &run).ok());
  EXPECT_GE(run.seconds, 0.0);
  EXPECT_GE(run.preprocess_seconds, 0.0);
  EXPECT_EQ(run.stats.maximal, sink.count());
}

TEST(ApiTest, CountHelperAgreesWithCollect) {
  BipartiteGraph graph = gen::ErdosRenyi(20, 15, 0.25, 64);
  CollectSink sink;
  ASSERT_TRUE(Enumerate(graph, Options(), &sink, nullptr).ok());
  EXPECT_EQ(CountMaximalBicliques(graph, Options()),
            sink.TakeSorted().size());
}

// --- Verification oracle self-tests ------------------------------------------

TEST(VerifyTest, IsBicliqueChecksEdgesAndShape) {
  BipartiteGraph g = BipartiteGraph::FromEdges(3, 3, {{0, 0}, {0, 1}, {1, 0}});
  EXPECT_TRUE(IsBiclique(g, Biclique{{0}, {0, 1}}));
  EXPECT_TRUE(IsBiclique(g, Biclique{{0, 1}, {0}}));
  EXPECT_FALSE(IsBiclique(g, Biclique{{0, 1}, {0, 1}}));  // (1,1) missing
  EXPECT_FALSE(IsBiclique(g, Biclique{{}, {0}}));         // empty side
  EXPECT_FALSE(IsBiclique(g, Biclique{{0, 0}, {1}}));     // duplicate
  EXPECT_FALSE(IsBiclique(g, Biclique{{1, 0}, {0}}));     // unsorted
  EXPECT_FALSE(IsBiclique(g, Biclique{{7}, {0}}));        // out of range
}

TEST(VerifyTest, IsMaximalBicliqueRejectsExtensible) {
  BipartiteGraph g = BipartiteGraph::FromEdges(3, 3, {{0, 0}, {0, 1}, {1, 0}});
  EXPECT_TRUE(IsMaximalBiclique(g, Biclique{{0}, {0, 1}}));
  EXPECT_TRUE(IsMaximalBiclique(g, Biclique{{0, 1}, {0}}));
  // ({0}, {0}) extends to ({0}, {0,1}).
  EXPECT_FALSE(IsMaximalBiclique(g, Biclique{{0}, {0}}));
}

TEST(VerifyTest, ValidateResultSetFindsProblems) {
  BipartiteGraph g = BipartiteGraph::FromEdges(3, 3, {{0, 0}, {0, 1}, {1, 0}});
  const Biclique good{{0}, {0, 1}};
  EXPECT_EQ(ValidateResultSet(g, {good}), "");
  EXPECT_NE(ValidateResultSet(g, {good, good}), "");  // duplicate
  EXPECT_NE(ValidateResultSet(g, {Biclique{{0}, {0}}}), "");  // non-maximal
}

TEST(VerifyTest, DiffResultSetsPinpointsFirstDifference) {
  const Biclique a{{0}, {1}};
  const Biclique b{{1}, {2}};
  EXPECT_EQ(DiffResultSets({a, b}, {b, a}), "");  // order-insensitive
  EXPECT_NE(DiffResultSets({a, b}, {a}), "");
  EXPECT_NE(DiffResultSets({a}, {a, b}), "");
  const std::string missing = DiffResultSets({a, b}, {a});
  EXPECT_NE(missing.find("missing"), std::string::npos);
}

TEST(VerifyTest, BruteForceOnKnownGraph) {
  // Path u0-v0, u0-v1, u1-v1: maximal bicliques ({0},{0,1}), ({0,1},{1}).
  BipartiteGraph g = BipartiteGraph::FromEdges(2, 2, {{0, 0}, {0, 1}, {1, 1}});
  const auto results = BruteForceMbe(g);
  ASSERT_EQ(results.size(), 2u);
  EXPECT_EQ(results[0], (Biclique{{0}, {0, 1}}));
  EXPECT_EQ(results[1], (Biclique{{0, 1}, {1}}));
}

TEST(VerifyDeathTest, BruteForceRefusesHugeRightSide) {
  BipartiteGraph g = BipartiteGraph::FromEdges(2, 30, {{0, 0}});
  EXPECT_DEATH(BruteForceMbe(g), "brute force limited");
}

}  // namespace
}  // namespace mbe
