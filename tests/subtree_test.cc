// Unit tests for the subtree-root builder: the per-vertex decomposition
// every enumerator and the parallel driver rely on, and the root an
// engine keeps from a split hint for the task that follows it.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "baselines/mbea.h"
#include "core/mbet.h"
#include "core/sink.h"
#include "core/subtree.h"
#include "engines/bbk.h"
#include "gen/generators.h"

namespace mbe {
namespace {

// The running-example graph of the MBE literature (5 x 4).
BipartiteGraph LiteratureGraph() {
  return BipartiteGraph::FromEdges(
      5, 4,
      {{0, 0}, {0, 1}, {0, 2}, {1, 0}, {1, 1}, {1, 2}, {1, 3}, {2, 1},
       {3, 1}, {3, 2}, {3, 3}, {4, 3}});
}

TEST(SubtreeBuilderTest, RootOfFirstVertex) {
  BipartiteGraph g = LiteratureGraph();
  SubtreeBuilder builder(g);
  SubtreeRoot root;
  std::vector<VertexId> absorbed;
  bool pruned = false;
  ASSERT_TRUE(builder.Build(0, &root, &absorbed, &pruned));
  EXPECT_FALSE(pruned);
  EXPECT_EQ(root.seed, 0u);
  // L0 = N(v0) = {u0, u1}.
  EXPECT_EQ(root.l0, (std::vector<VertexId>{0, 1}));
  // No other vertex is adjacent to both u0 and u1 except v1, v2 — check
  // absorbed: N(v1) = {u0,u1,u2,u3} ⊇ L0, N(v2) = {u0,u1,u3} ⊇ L0.
  EXPECT_EQ(absorbed, (std::vector<VertexId>{1, 2}));
  // v3 has loc {u1}: stays a candidate entry, not forbidden (3 > 0).
  ASSERT_EQ(root.entries.size(), 1u);
  EXPECT_EQ(root.entries[0].w, 3u);
  EXPECT_FALSE(root.entries[0].forbidden);
  auto loc = root.LocOf(root.entries[0]);
  EXPECT_EQ(std::vector<VertexId>(loc.begin(), loc.end()),
            (std::vector<VertexId>{1}));
}

TEST(SubtreeBuilderTest, LaterVertexSeesForbiddenPredecessors) {
  BipartiteGraph g = LiteratureGraph();
  SubtreeBuilder builder(g);
  SubtreeRoot root;
  std::vector<VertexId> absorbed;
  bool pruned = false;
  // v2: L0 = N(v2) = {u0, u1, u3}; v1 (earlier, N={u0,u1,u2,u3} ⊇ L0)
  // dominates -> the subtree is pruned.
  EXPECT_FALSE(builder.Build(2, &root, &absorbed, &pruned));
  EXPECT_TRUE(pruned);
}

TEST(SubtreeBuilderTest, ZeroDegreeVertexYieldsNoSubtree) {
  BipartiteGraph g = BipartiteGraph::FromEdges(3, 3, {{0, 0}});
  SubtreeBuilder builder(g);
  SubtreeRoot root;
  std::vector<VertexId> absorbed;
  bool pruned = false;
  EXPECT_FALSE(builder.Build(1, &root, &absorbed, &pruned));
  EXPECT_FALSE(pruned);
}

TEST(SubtreeBuilderTest, TwinVerticesAbsorbForward) {
  // v0 and v1 are twins (same neighborhood). subtree(v0) absorbs v1;
  // subtree(v1) is pruned.
  BipartiteGraph g =
      BipartiteGraph::FromEdges(2, 2, {{0, 0}, {1, 0}, {0, 1}, {1, 1}});
  SubtreeBuilder builder(g);
  SubtreeRoot root;
  std::vector<VertexId> absorbed;
  bool pruned = false;
  ASSERT_TRUE(builder.Build(0, &root, &absorbed, &pruned));
  EXPECT_EQ(absorbed, (std::vector<VertexId>{1}));
  EXPECT_TRUE(root.entries.empty());

  EXPECT_FALSE(builder.Build(1, &root, &absorbed, &pruned));
  EXPECT_TRUE(pruned);
}

TEST(SubtreeBuilderTest, EntriesCoverExactlyUsefulTwoHops) {
  BipartiteGraph g = gen::PowerLaw(60, 40, 300, 0.8, 0.8, 3);
  SubtreeBuilder builder(g);
  SubtreeRoot root;
  std::vector<VertexId> absorbed;
  bool pruned = false;
  for (VertexId v = 0; v < g.num_right(); ++v) {
    if (!builder.Build(v, &root, &absorbed, &pruned)) continue;
    // Every entry has a nonempty local that is a strict subset of L0,
    // sorted, and consistent with the adjacency.
    for (const RootEntry& entry : root.entries) {
      auto loc = root.LocOf(entry);
      EXPECT_FALSE(loc.empty());
      EXPECT_LT(loc.size(), root.l0.size());
      EXPECT_TRUE(std::is_sorted(loc.begin(), loc.end()));
      EXPECT_EQ(entry.forbidden, entry.w < v);
      for (VertexId u : loc) {
        EXPECT_TRUE(g.HasEdge(u, entry.w));
        EXPECT_TRUE(g.HasEdge(u, v));
      }
    }
    // Absorbed vertices dominate L0 entirely.
    for (VertexId w : absorbed) {
      EXPECT_GT(w, v);
      for (VertexId u : root.l0) EXPECT_TRUE(g.HasEdge(u, w));
    }
  }
}

TEST(SubtreeWorkTest, EstimateScalesWithRootSize) {
  SubtreeRoot small;
  small.l0 = {0, 1};
  small.entries.resize(3);
  SubtreeRoot large;
  large.l0 = {0, 1, 2, 3, 4, 5};
  large.entries.resize(50);
  EXPECT_LT(EstimateSubtreeWork(small), EstimateSubtreeWork(large));

  SubtreeRoot empty;
  EXPECT_EQ(EstimateSubtreeWork(empty), 0u);
}

// A root of `candidates` candidates and `forbidden` forbidden entries over
// an L0 of `l0` vertices; every entry's local covers `loc_len` of L0.
SubtreeRoot SyntheticRoot(uint32_t l0, uint32_t candidates,
                          uint32_t forbidden, uint32_t loc_len) {
  SubtreeRoot root;
  root.seed = forbidden;
  for (uint32_t x = 0; x < l0; ++x) root.l0.push_back(x);
  for (uint32_t i = 0; i < candidates + forbidden; ++i) {
    root.entries.push_back({.w = i + (i < forbidden ? 0 : 1),
                            .forbidden = i < forbidden,
                            .loc_off = 0,
                            .loc_len = loc_len});
  }
  return root;
}

TEST(SubtreeWorkTest, ForbiddenEntriesScanButDoNotBranch) {
  // Thousands of forbidden entries and no candidate: one root scan, no
  // branching (milliseconds). 60 dense candidates: exponential branching
  // (seconds). The estimate must rank them that way round.
  const SubtreeRoot forbidden_only = SyntheticRoot(100, 0, 6286, 5);
  const SubtreeRoot dense = SyntheticRoot(100, 60, 0, 40);
  EXPECT_LT(EstimateSubtreeWork(forbidden_only), EstimateSubtreeWork(dense));

  // Forbidden entries still cost: the maximality scan visits them.
  EXPECT_LT(EstimateSubtreeWork(SyntheticRoot(100, 60, 0, 40)),
            EstimateSubtreeWork(SyntheticRoot(100, 60, 3000, 40)));
  // Denser candidate locals branch more.
  EXPECT_LT(EstimateSubtreeWork(SyntheticRoot(100, 60, 0, 10)),
            EstimateSubtreeWork(SyntheticRoot(100, 60, 0, 40)));
}

TEST(SubtreeWorkTest, EstimateSaturatesInsteadOfOverflowing) {
  const uint64_t huge = EstimateSubtreeWork(SyntheticRoot(5000, 5000, 0, 5000));
  EXPECT_GT(huge, uint64_t{1} << 60);
  EXPECT_LT(huge, ~uint64_t{0});
}

TEST(SubtreeWorkTest, SplitShardsSizesShardsToTheBar) {
  const SubtreeRoot dense = SyntheticRoot(100, 60, 0, 40);
  const uint64_t work = EstimateSubtreeWork(dense);
  ASSERT_GT(work, 0u);
  EXPECT_EQ(SplitShards(dense, 64, work / 3), 3u);
  EXPECT_EQ(SplitShards(dense, 2, work / 3), 2u);   // shard cap
  EXPECT_EQ(SplitShards(dense, 64, 1), 60u);        // candidate cap
  EXPECT_EQ(SplitShards(dense, 1, 1), 1u);          // splitting disabled
  EXPECT_EQ(SplitShards(dense, 64, work + 1), 1u);  // below the bar

  // Shallow-wide roots never split, whatever their estimate: every shard
  // would re-pay the depth-0 pass that dominates them.
  EXPECT_EQ(SplitShards(SyntheticRoot(100, 15, 6000, 40), 64, 1), 1u);
  EXPECT_EQ(SplitShards(SyntheticRoot(15, 200, 0, 10), 64, 1), 1u);
}

// --- Root reuse: SplitHint(v) keeps its root for EnumerateShard(v) ---------

// Digest and emission count of what one call sequence emitted.
struct Emitted {
  uint64_t digest = 0;
  uint64_t count = 0;
  bool operator==(const Emitted&) const = default;
};

Emitted Of(const FingerprintSink& sink) {
  return {sink.Digest(), sink.count()};
}

// Checks, on every subtree of a hub graph with a split bar low enough that
// the hub subtree splits:
//  * SplitHint(v) followed by EnumerateShard(v, s, k) on the same engine,
//    over every s, emits what a fresh engine's EnumerateSubtree(v) emits,
//    with the same subtrees_pruned count;
//  * after SplitHint(v1), EnumerateShard(v2, 0, 1) builds v2's own root,
//    and a later EnumerateShard(v1, 0, 1) does not reuse the root the hint
//    left behind (the engine's root scratch now holds v2's root).
template <typename Make>
void CheckRootReuse(const Make& make) {
  const BipartiteGraph graph = gen::HubBlock(30, 24, 30, 60, 0.4, 0.03, 7);
  constexpr uint32_t kMaxShards = 8;
  constexpr uint64_t kLowMinWork = 64;
  const VertexId n = static_cast<VertexId>(graph.num_right());

  std::vector<Emitted> reference(n);
  uint64_t reference_pruned = 0;
  for (VertexId v = 0; v < n; ++v) {
    auto fresh = make(graph);
    FingerprintSink sink;
    fresh->EnumerateSubtree(v, &sink);
    reference[v] = Of(sink);
    reference_pruned += fresh->stats().subtrees_pruned;
  }
  ASSERT_GT(reference[0].count, 0u);
  ASSERT_GT(reference_pruned, 0u);  // so the prune counts below bite

  // Every shard right after a hint of its own: every shard reuses a root.
  auto hinted = make(graph);
  // As the scheduler runs a task: the shard after the hint reuses its
  // root, the other shards (on other engines, in the scheduler) build.
  auto owner = make(graph);
  uint32_t split_subtrees = 0;
  for (VertexId v = 0; v < n; ++v) {
    const uint32_t k = hinted->SplitHint(v, kMaxShards, kLowMinWork);
    ASSERT_GE(k, 1u);
    if (k > 1) ++split_subtrees;
    FingerprintSink each;
    for (uint32_t s = 0; s < k; ++s) {
      if (s > 0) {
        ASSERT_EQ(hinted->SplitHint(v, kMaxShards, kLowMinWork), k);
      }
      hinted->EnumerateShard(v, s, k, &each);
    }
    EXPECT_EQ(Of(each), reference[v]) << "subtree " << v << " k=" << k;

    ASSERT_EQ(owner->SplitHint(v, kMaxShards, kLowMinWork), k);
    FingerprintSink first;
    for (uint32_t s = 0; s < k; ++s) owner->EnumerateShard(v, s, k, &first);
    EXPECT_EQ(Of(first), reference[v]) << "subtree " << v << " k=" << k;
  }
  EXPECT_GT(split_subtrees, 0u) << "the hub subtree should split";
  EXPECT_EQ(hinted->stats().subtrees_pruned, reference_pruned);
  EXPECT_EQ(owner->stats().subtrees_pruned, reference_pruned);

  const VertexId v1 = 0;  // the hub: its hint builds the largest root
  auto stale = make(graph);
  for (VertexId v2 = 1; v2 < n; ++v2) {
    stale->SplitHint(v1, kMaxShards, kLowMinWork);
    FingerprintSink other;
    stale->EnumerateShard(v2, 0, 1, &other);
    EXPECT_EQ(Of(other), reference[v2]) << "v2=" << v2;
    FingerprintSink again;
    stale->EnumerateShard(v1, 0, 1, &again);
    EXPECT_EQ(Of(again), reference[v1]) << "after v2=" << v2;
  }
  // Subtree v1 has no earlier vertex to be pruned by, so the count is each
  // v2's prune once; the hints themselves count nothing.
  EXPECT_EQ(stale->stats().subtrees_pruned, reference_pruned);
}

TEST(SubtreeRootReuseTest, Mbet) {
  CheckRootReuse([](const BipartiteGraph& g) {
    return std::make_unique<MbetEnumerator>(g, MbetOptions{});
  });
}

TEST(SubtreeRootReuseTest, Imbea) {
  CheckRootReuse([](const BipartiteGraph& g) {
    return std::make_unique<MbeaEnumerator>(g, MbeaOptions{.improved = true});
  });
}

TEST(SubtreeRootReuseTest, Bbk) {
  CheckRootReuse([](const BipartiteGraph& g) {
    return std::make_unique<BbkEnumerator>(g, BbkOptions{});
  });
}

}  // namespace
}  // namespace mbe
