// Structural tests of MBET's counters and resource accounting: the
// ablation switches must move the counters in the documented direction,
// and the memory tracker must balance to zero.

#include <gtest/gtest.h>

#include <vector>

#include "api/mbe.h"
#include "core/mbet.h"
#include "core/verify.h"
#include "gen/generators.h"
#include "util/memory.h"

namespace mbe {
namespace {

BipartiteGraph Workload(uint64_t seed = 50) {
  return gen::PowerLaw(300, 200, 1700, 0.85, 0.8, seed);
}

TEST(MbetStatsTest, MaximalCounterMatchesEmissions) {
  BipartiteGraph graph = Workload();
  CountSink sink;
  MbetEnumerator engine(graph, MbetOptions{});
  engine.EnumerateAll(&sink);
  EXPECT_EQ(engine.stats().maximal, sink.count());
  EXPECT_GT(engine.stats().nodes_expanded, 0u);
}

TEST(MbetStatsTest, AggregationOffMeansNoMerges) {
  BipartiteGraph graph = Workload();
  MbetOptions options;
  options.use_aggregation = false;
  CountSink sink;
  MbetEnumerator engine(graph, options);
  engine.EnumerateAll(&sink);
  EXPECT_EQ(engine.stats().vertices_aggregated, 0u);
}

TEST(MbetStatsTest, AggregationReducesNodeCount) {
  BipartiteGraph graph = Workload();
  MbetOptions with_agg;
  MbetOptions without_agg;
  without_agg.use_aggregation = false;

  CountSink s1, s2;
  MbetEnumerator a(graph, with_agg);
  a.EnumerateAll(&s1);
  MbetEnumerator b(graph, without_agg);
  b.EnumerateAll(&s2);

  EXPECT_EQ(s1.count(), s2.count());
  EXPECT_GT(a.stats().vertices_aggregated, 0u);
  // Merged groups are traversed once instead of once per member.
  EXPECT_LT(a.stats().nodes_expanded + a.stats().non_maximal,
            b.stats().nodes_expanded + b.stats().non_maximal);
}

TEST(MbetStatsTest, TrieReducesProbesOnWideNodes) {
  BipartiteGraph graph = Workload();
  MbetOptions with_trie;
  with_trie.trie_min_groups = 1;  // force the trie everywhere
  MbetOptions without_trie;
  without_trie.use_trie = false;

  CountSink s1, s2;
  MbetEnumerator a(graph, with_trie);
  a.EnumerateAll(&s1);
  MbetEnumerator b(graph, without_trie);
  b.EnumerateAll(&s2);

  EXPECT_EQ(s1.count(), s2.count());
  // Identical logical scans, fewer physical probes via shared prefixes.
  EXPECT_EQ(a.stats().local_scan_size, b.stats().local_scan_size);
  EXPECT_LT(a.stats().trie_probes, b.stats().trie_probes);
}

TEST(MbetStatsTest, TrieThresholdDoesNotChangeResults) {
  BipartiteGraph graph = Workload(51);
  uint64_t reference = 0;
  for (uint32_t threshold : {1u, 2u, 4u, 16u, 1000000u}) {
    MbetOptions options;
    options.trie_min_groups = threshold;
    FingerprintSink sink;
    MbetEnumerator engine(graph, options);
    engine.EnumerateAll(&sink);
    if (threshold == 1) {
      reference = sink.Digest();
    } else {
      EXPECT_EQ(sink.Digest(), reference) << "threshold=" << threshold;
    }
  }
}

TEST(MbetStatsTest, QPruningOnlyAffectsWork) {
  BipartiteGraph graph = Workload(52);
  MbetOptions keep_q;
  keep_q.prune_q = false;
  MbetOptions drop_q;

  FingerprintSink s1, s2;
  MbetEnumerator a(graph, keep_q);
  a.EnumerateAll(&s1);
  MbetEnumerator b(graph, drop_q);
  b.EnumerateAll(&s2);
  EXPECT_EQ(s1.Digest(), s2.Digest());
  // Keeping dead Q groups means strictly more scanning.
  EXPECT_GE(a.stats().local_scan_size, b.stats().local_scan_size);
}

TEST(MbetStatsTest, MemoryTrackerBalancesToZero) {
  BipartiteGraph graph = Workload(53);
  util::MemoryTracker tracker;
  MbetOptions options;
  options.memory = &tracker;
  CountSink sink;
  MbetEnumerator engine(graph, options);
  engine.EnumerateAll(&sink);
  EXPECT_EQ(tracker.current(), 0u) << "level accounting leaked";
  EXPECT_GT(tracker.peak(), 0u);
}

TEST(MbetStatsTest, MbetmPeakBelowMbetPeak) {
  BipartiteGraph graph = Workload(54);
  util::MemoryTracker full_tracker, slim_tracker;

  MbetOptions full;
  full.memory = &full_tracker;
  CountSink s1;
  MbetEnumerator a(graph, full);
  a.EnumerateAll(&s1);

  MbetOptions slim;
  slim.recompute_locals = true;
  slim.memory = &slim_tracker;
  CountSink s2;
  MbetEnumerator b(graph, slim);
  b.EnumerateAll(&s2);

  EXPECT_EQ(s1.count(), s2.count());
  EXPECT_LT(slim_tracker.peak(), full_tracker.peak());
}

TEST(MbetStatsTest, ResetStatsClears) {
  BipartiteGraph graph = Workload(55);
  CountSink sink;
  MbetEnumerator engine(graph, MbetOptions{});
  engine.EnumerateAll(&sink);
  ASSERT_GT(engine.stats().maximal, 0u);
  engine.ResetStats();
  EXPECT_EQ(engine.stats().maximal, 0u);
  EXPECT_EQ(engine.stats().nodes_expanded, 0u);
}

TEST(MbetStatsTest, SubtreePrunesAppearOnTwinHeavyGraphs) {
  // Many duplicate neighborhoods -> later twins prune their subtrees.
  std::vector<Edge> edges;
  for (VertexId v = 0; v < 10; ++v) {
    edges.push_back({0, v});
    edges.push_back({1, v});
  }
  BipartiteGraph graph = BipartiteGraph::FromEdges(2, 10, edges);
  CountSink sink;
  MbetEnumerator engine(graph, MbetOptions{});
  engine.EnumerateAll(&sink);
  EXPECT_EQ(sink.count(), 1u);  // one maximal biclique: ({0,1}, all V)
  EXPECT_EQ(engine.stats().subtrees_pruned, 9u);
}

TEST(MbetStatsTest, CandidatesClassifiedPerCandidateOnly) {
  // MBET classifies every candidate with the one per-candidate trie pass;
  // the two batch counters that perfbench still reads must stay 0 on every
  // entry point, serial and parallel.
  BipartiteGraph graph = Workload();
  MbetOptions options;
  options.trie_min_groups = 1;  // force the trie everywhere
  CountSink sink;
  MbetEnumerator engine(graph, options);
  engine.EnumerateAll(&sink);
  EXPECT_GT(engine.stats().trie_probes, 0u);
  EXPECT_EQ(engine.stats().batch_candidates_classified, 0u);

  for (unsigned threads : {1u, 4u}) {
    Options o;
    o.threads = threads;
    CountSink api_sink;
    RunResult run;
    ASSERT_TRUE(Enumerate(graph, o, &api_sink, &run).ok());
    EXPECT_EQ(api_sink.count(), sink.count());
    EXPECT_EQ(run.stats.batch_candidates_classified, 0u)
        << "threads=" << threads;
    EXPECT_EQ(run.stats.simd_batch_calls, 0u) << "threads=" << threads;
  }
}

/// Folds the emission stream in arrival order: unlike FingerprintSink's
/// commutative digest, a reordering of the same bicliques changes it.
class OrderHashSink : public ResultSink {
 public:
  void Emit(std::span<const VertexId> left,
            std::span<const VertexId> right) override {
    for (VertexId x : left) Mix(x);
    Mix(0xFFFFFFFFu);
    for (VertexId x : right) Mix(x);
    Mix(0xFFFFFFFEu);
    ++count_;
  }
  uint64_t hash() const { return hash_; }
  uint64_t count() const { return count_; }

 private:
  void Mix(uint64_t x) { hash_ = (hash_ ^ (x + 1)) * 1099511628211ULL; }
  uint64_t hash_ = 1469598103934665603ULL;
  uint64_t count_ = 0;
};

/// `graph` with every right vertex copied `k` times (right id v becomes
/// the twins v*k .. v*k + k - 1, all with N(v)).
BipartiteGraph WithRightTwins(const BipartiteGraph& graph, VertexId k) {
  std::vector<Edge> edges;
  for (VertexId v = 0; v < graph.num_right(); ++v) {
    for (VertexId u : graph.RightNeighbors(v)) {
      for (VertexId t = 0; t < k; ++t) edges.push_back({u, v * k + t});
    }
  }
  return BipartiteGraph::FromEdges(graph.num_left(), graph.num_right() * k,
                                   edges);
}

TEST(MbetStatsTest, SingleThreadEmissionOrderIsPinned) {
  // The single-threaded emission order follows the candidate traversal
  // order (ascending |loc|, ties by smallest member). A digest cannot see
  // a drifting tie-break; this order-sensitive hash can. The twin graph
  // makes most groups multi-member, so the tie-break has to find the
  // smallest member of a merged group.
  struct Case {
    const char* name;
    BipartiteGraph graph;
    uint64_t count;
    uint64_t hash;
  };
  const Case cases[] = {
      {"powerlaw", Workload(), 1574u, 0x7e31f9aa7f35fec5ULL},
      {"hub-twins",
       WithRightTwins(gen::HubBlock(30, 20, 30, 40, 0.4, 0.05, 7), 2), 504u,
       0x97ca3d0f23e6145fULL},
  };
  for (const Case& c : cases) {
    for (bool recompute : {false, true}) {
      MbetOptions options;
      options.recompute_locals = recompute;
      OrderHashSink sink;
      MbetEnumerator engine(c.graph, options);
      engine.EnumerateAll(&sink);
      EXPECT_GT(engine.stats().vertices_aggregated, 0u) << c.name;
      EXPECT_EQ(sink.count(), c.count) << c.name << " mbetm=" << recompute;
      EXPECT_EQ(sink.hash(), c.hash)
          << c.name << " mbetm=" << recompute << std::hex << " got 0x"
          << sink.hash();
    }
  }
}

TEST(MbetStatsTest, EnumStatsMergeAddsFields) {
  EnumStats a, b;
  a.maximal = 3;
  a.nodes_expanded = 10;
  b.maximal = 4;
  b.trie_probes = 7;
  a.MergeFrom(b);
  EXPECT_EQ(a.maximal, 7u);
  EXPECT_EQ(a.nodes_expanded, 10u);
  EXPECT_EQ(a.trie_probes, 7u);
}

}  // namespace
}  // namespace mbe
