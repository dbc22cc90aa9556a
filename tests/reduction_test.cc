// Unit and integration tests for (p, q)-core reduction: the peel must be a
// fixpoint, the id maps must be consistent, and size-constrained
// enumeration must produce identical results with and without it.

#include <gtest/gtest.h>

#include <numeric>

#include "api/mbe.h"
#include "core/verify.h"
#include "gen/generators.h"
#include "graph/reduction.h"

namespace mbe {
namespace {

TEST(PqCoreReduceTest, TrivialThresholdsAreIdentity) {
  BipartiteGraph g = gen::ErdosRenyi(10, 8, 0.3, 1);
  CoreReduction r = PqCoreReduce(g, 1, 1);
  EXPECT_EQ(r.graph, g);
  EXPECT_EQ(r.removed_left, 0u);
  EXPECT_EQ(r.removed_right, 0u);
  std::vector<VertexId> identity(g.num_left());
  std::iota(identity.begin(), identity.end(), 0);
  EXPECT_EQ(r.left_old, identity);
}

TEST(PqCoreReduceTest, ResultIsAFixpoint) {
  for (uint64_t seed : {1u, 2u, 3u}) {
    BipartiteGraph g = gen::PowerLaw(200, 150, 900, 0.85, 0.8, seed);
    for (size_t p : {2u, 3u}) {
      for (size_t q : {2u, 4u}) {
        CoreReduction r = PqCoreReduce(g, p, q);
        for (VertexId u = 0; u < r.graph.num_left(); ++u) {
          EXPECT_GE(r.graph.LeftDegree(u), q) << "p=" << p << " q=" << q;
        }
        for (VertexId v = 0; v < r.graph.num_right(); ++v) {
          EXPECT_GE(r.graph.RightDegree(v), p);
        }
      }
    }
  }
}

TEST(PqCoreReduceTest, MapsPointAtRealEdges) {
  BipartiteGraph g = gen::PowerLaw(100, 80, 400, 0.8, 0.8, 4);
  CoreReduction r = PqCoreReduce(g, 2, 2);
  for (VertexId u = 0; u < r.graph.num_left(); ++u) {
    for (VertexId v : r.graph.LeftNeighbors(u)) {
      EXPECT_TRUE(g.HasEdge(r.left_old[u], r.right_old[v]));
    }
  }
}

TEST(PqCoreReduceTest, CascadingPeel) {
  // Chain: u0-v0, u0-v1, u1-v1. (2,2)-core is empty; removing v0 (deg 1 <
  // 2) drops u0 below 2, which drops v1, which drops u1.
  BipartiteGraph g = BipartiteGraph::FromEdges(2, 2, {{0, 0}, {0, 1}, {1, 1}});
  CoreReduction r = PqCoreReduce(g, 2, 2);
  EXPECT_EQ(r.graph.num_left(), 0u);
  EXPECT_EQ(r.graph.num_right(), 0u);
  EXPECT_EQ(r.removed_left, 2u);
  EXPECT_EQ(r.removed_right, 2u);
}

TEST(PqCoreReduceTest, DenseBlockSurvives) {
  std::vector<Edge> edges;
  for (VertexId u = 0; u < 4; ++u) {
    for (VertexId v = 0; v < 4; ++v) edges.push_back({u, v});
  }
  edges.push_back({4, 0});  // pendant left vertex
  BipartiteGraph g = BipartiteGraph::FromEdges(5, 4, edges);
  CoreReduction r = PqCoreReduce(g, 3, 3);
  EXPECT_EQ(r.graph.num_left(), 4u);
  EXPECT_EQ(r.graph.num_right(), 4u);
  EXPECT_EQ(r.removed_left, 1u);
}

TEST(PqCoreReduceTest, PreservesQualifyingBicliquesEndToEnd) {
  // Size-constrained enumeration with and without core reduction must
  // agree exactly — on graphs where the reduction removes a lot.
  for (uint64_t seed : {31u, 32u, 33u, 34u}) {
    BipartiteGraph g = gen::PowerLaw(300, 200, 1200, 0.9, 0.85, seed);
    Options with;
    with.mbet.min_left = 3;
    with.mbet.min_right = 3;
    with.core_reduce = true;
    Options without = with;
    without.core_reduce = false;

    CollectSink a, b;
    ASSERT_TRUE(Enumerate(g, with, &a, nullptr).ok());
    ASSERT_TRUE(Enumerate(g, without, &b, nullptr).ok());
    EXPECT_EQ(DiffResultSets(b.TakeSorted(), a.TakeSorted()), "")
        << "seed=" << seed;
  }
}

TEST(PqCoreReduceTest, ReductionShrinksSkewedGraphs) {
  BipartiteGraph g = gen::PowerLaw(2000, 1500, 8000, 0.9, 0.85, 35);
  CoreReduction r = PqCoreReduce(g, 3, 3);
  // Power-law graphs are mostly degree-1/2 fringe at these densities: the
  // (3,3)-core keeps well under half the vertices.
  EXPECT_LT(r.graph.num_left() + r.graph.num_right(),
            (g.num_left() + g.num_right()) / 2);
  EXPECT_LT(r.graph.num_edges(), g.num_edges());
}

TEST(PqCoreReduceTest, EmptyCoreYieldsEmptyEnumeration) {
  BipartiteGraph g = gen::ErdosRenyi(40, 40, 0.03, 36);
  Options options;
  options.mbet.min_left = 20;
  options.mbet.min_right = 20;
  EXPECT_EQ(CountMaximalBicliques(g, options), 0u);
}

}  // namespace
}  // namespace mbe
