// Correctness on graph families with closed-form maximal-biclique counts.
// These go far beyond the brute-force oracle's reach (the crown family is
// exponential) and pin down exact combinatorial structure.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "api/mbe.h"
#include "core/verify.h"

namespace mbe {
namespace {

uint64_t Count(const BipartiteGraph& graph, Algorithm algorithm) {
  Options options;
  options.algorithm = algorithm;
  if (algorithm == Algorithm::kOombeaLite) {
    options.order = VertexOrder::kUnilateralAsc;
  }
  return CountMaximalBicliques(graph, options);
}

const Algorithm kAll[] = {Algorithm::kMbet,  Algorithm::kMbetM,
                          Algorithm::kMbea,  Algorithm::kImbea,
                          Algorithm::kOombeaLite};

/// Crown graph: K_{n,n} minus a perfect matching (u_i ~ v_j iff i != j).
/// Every proper nonempty S ⊆ U is the left side of exactly one maximal
/// biclique (S, {v_j : u_j ∉ S}), giving 2^n − 2 of them.
BipartiteGraph Crown(size_t n) {
  std::vector<Edge> edges;
  for (VertexId u = 0; u < n; ++u) {
    for (VertexId v = 0; v < n; ++v) {
      if (u != v) edges.push_back({u, v});
    }
  }
  return BipartiteGraph::FromEdges(n, n, edges);
}

class CrownTest : public ::testing::TestWithParam<size_t> {};

TEST_P(CrownTest, CountIsTwoToTheNMinusTwo) {
  const size_t n = GetParam();
  BipartiteGraph graph = Crown(n);
  const uint64_t expected = (1ull << n) - 2;
  for (Algorithm algorithm : kAll) {
    EXPECT_EQ(Count(graph, algorithm), expected)
        << AlgorithmName(algorithm) << " n=" << n;
  }
}

// MineLMBC recomputes C(L') per node and is hopeless beyond tiny crowns;
// run it only on the smallest sizes.
TEST(CrownTest, MineLmbcOnSmallCrowns) {
  for (size_t n : {2u, 3u, 4u, 6u}) {
    EXPECT_EQ(Count(Crown(n), Algorithm::kMineLmbc), (1ull << n) - 2);
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, CrownTest,
                         ::testing::Values(2, 3, 4, 6, 8, 10, 12, 14, 16));

/// Half graph: u_i ~ v_j iff i <= j. Maximal bicliques form a chain
/// ({u_0..u_i}, {v_i..v_{n-1}}) for each i — exactly n of them.
BipartiteGraph HalfGraph(size_t n) {
  std::vector<Edge> edges;
  for (VertexId u = 0; u < n; ++u) {
    for (VertexId v = u; v < n; ++v) edges.push_back({u, v});
  }
  return BipartiteGraph::FromEdges(n, n, edges);
}

class HalfGraphTest : public ::testing::TestWithParam<size_t> {};

TEST_P(HalfGraphTest, CountIsN) {
  const size_t n = GetParam();
  BipartiteGraph graph = HalfGraph(n);
  for (Algorithm algorithm : kAll) {
    EXPECT_EQ(Count(graph, algorithm), n) << AlgorithmName(algorithm);
  }
  // And the bicliques really are the chain.
  CollectSink sink;
  Enumerate(graph, Options(), &sink);
  for (const Biclique& b : sink.TakeSorted()) {
    ASSERT_FALSE(b.left.empty());
    const VertexId i = b.left.back();
    EXPECT_EQ(b.left.size(), static_cast<size_t>(i) + 1);
    EXPECT_EQ(b.right.size(), n - i);
    EXPECT_EQ(b.right.front(), i);
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, HalfGraphTest,
                         ::testing::Values(1, 2, 5, 10, 40, 100));

/// Complete bipartite K_{a,b}: exactly one maximal biclique.
TEST(CompleteTest, SingleBiclique) {
  for (size_t a : {1u, 3u, 7u}) {
    for (size_t b : {1u, 4u, 9u}) {
      std::vector<Edge> edges;
      for (VertexId u = 0; u < a; ++u) {
        for (VertexId v = 0; v < b; ++v) edges.push_back({u, v});
      }
      BipartiteGraph graph = BipartiteGraph::FromEdges(a, b, edges);
      for (Algorithm algorithm : kAll) {
        EXPECT_EQ(Count(graph, algorithm), 1u)
            << AlgorithmName(algorithm) << " K_" << a << "," << b;
      }
    }
  }
}

/// Disjoint union of complete blocks: one maximal biclique per block,
/// independent of block sizes.
TEST(BlockDiagonalTest, OneBicliquePerBlock) {
  const size_t blocks = 12, a = 3, b = 4;
  std::vector<Edge> edges;
  for (size_t k = 0; k < blocks; ++k) {
    for (VertexId u = 0; u < a; ++u) {
      for (VertexId v = 0; v < b; ++v) {
        edges.push_back({static_cast<VertexId>(k * a + u),
                         static_cast<VertexId>(k * b + v)});
      }
    }
  }
  BipartiteGraph graph = BipartiteGraph::FromEdges(blocks * a, blocks * b, edges);
  for (Algorithm algorithm : kAll) {
    EXPECT_EQ(Count(graph, algorithm), blocks) << AlgorithmName(algorithm);
  }
}

/// K_{n,n} minus one edge (u0, v0): the maximal bicliques are
/// (U \ {u0}, V), (U, V \ {v0}), — and nothing else.
TEST(AlmostCompleteTest, MinusOneEdgeGivesTwo) {
  const size_t n = 8;
  std::vector<Edge> edges;
  for (VertexId u = 0; u < n; ++u) {
    for (VertexId v = 0; v < n; ++v) {
      if (!(u == 0 && v == 0)) edges.push_back({u, v});
    }
  }
  BipartiteGraph graph = BipartiteGraph::FromEdges(n, n, edges);
  CollectSink sink;
  Enumerate(graph, Options(), &sink);
  const auto results = sink.TakeSorted();
  ASSERT_EQ(results.size(), 2u);
  EXPECT_EQ(results[0].left.size() + results[0].right.size(), 2 * n - 1);
  EXPECT_EQ(results[1].left.size() + results[1].right.size(), 2 * n - 1);
}

/// Crown counts also hold under every ablation configuration (exponential
/// stress of the prefix-tree machinery specifically).
TEST(CrownTest, AblationsSurviveExponentialFamily) {
  BipartiteGraph graph = Crown(12);
  const uint64_t expected = (1ull << 12) - 2;
  for (bool trie : {false, true}) {
    for (bool agg : {false, true}) {
      Options options;
      options.mbet.use_trie = trie;
      options.mbet.use_aggregation = agg;
      EXPECT_EQ(CountMaximalBicliques(graph, options), expected)
          << "trie=" << trie << " agg=" << agg;
    }
  }
}

/// Crown(n) with every right vertex copied k times (v_j becomes the twin
/// class {v_{jk}, .., v_{jk+k-1}}). Twins never split a maximal biclique,
/// so the count stays 2^n − 2 and every R is a union of whole classes:
/// exactly the classes of the j with u_j ∉ L. With the sides kept as
/// given, the twins are MBET's candidates, so each class is one
/// aggregated group — this catches members lost from a merged candidate
/// run and a wrong forbidden-group representative under MBETM.
TEST(CrownTest, RightTwinClassesStayWhole) {
  const VertexId n = 8, k = 3;
  std::vector<Edge> edges;
  for (VertexId u = 0; u < n; ++u) {
    for (VertexId v = 0; v < n; ++v) {
      if (u == v) continue;
      for (VertexId t = 0; t < k; ++t) edges.push_back({u, v * k + t});
    }
  }
  BipartiteGraph graph = BipartiteGraph::FromEdges(n, n * k, edges);

  std::vector<Options> configs;
  for (Algorithm algorithm : kAll) {
    Options options;
    options.algorithm = algorithm;
    if (algorithm == Algorithm::kOombeaLite) {
      options.order = VertexOrder::kUnilateralAsc;
    }
    configs.push_back(options);
  }
  Options no_aggregation;
  no_aggregation.mbet.use_aggregation = false;
  configs.push_back(no_aggregation);

  for (Options options : configs) {
    options.auto_swap_sides = false;  // keep the twins on the right side
    for (unsigned threads : {1u, 4u}) {
      options.threads = threads;
      CollectSink sink;
      RunResult run;
      ASSERT_TRUE(Enumerate(graph, options, &sink, &run).ok());
      const std::string label =
          std::string(AlgorithmName(options.algorithm)) +
          " agg=" + (options.mbet.use_aggregation ? "on" : "off") +
          " threads=" + std::to_string(threads);
      const std::vector<Biclique> results = sink.TakeSorted();
      EXPECT_EQ(results.size(), (1ull << n) - 2) << label;
      const bool mbet_family = options.algorithm == Algorithm::kMbet ||
                               options.algorithm == Algorithm::kMbetM;
      if (mbet_family && options.mbet.use_aggregation) {
        EXPECT_GT(run.stats.vertices_aggregated, 0u) << label;
      }
      for (const Biclique& b : results) {
        std::vector<VertexId> expected;
        for (VertexId j = 0; j < n; ++j) {
          if (std::binary_search(b.left.begin(), b.left.end(), j)) continue;
          for (VertexId t = 0; t < k; ++t) expected.push_back(j * k + t);
        }
        ASSERT_EQ(b.right, expected) << label;  // so |R| is a multiple of k
      }
    }
  }
}

/// Size filters on the crown have closed form too: bicliques with
/// |L| >= p and |R| >= q correspond to S with p <= |S| <= n - q, so the
/// count is sum of binomials.
TEST(CrownTest, SizeFiltersHaveClosedForm) {
  const size_t n = 10;
  BipartiteGraph graph = Crown(n);
  auto binom = [](uint64_t n_, uint64_t k_) {
    uint64_t r = 1;
    for (uint64_t i = 1; i <= k_; ++i) r = r * (n_ - k_ + i) / i;
    return r;
  };
  for (uint32_t p : {1u, 2u, 4u}) {
    for (uint32_t q : {1u, 3u}) {
      uint64_t expected = 0;
      for (uint64_t s = std::max<uint64_t>(p, 1); s + q <= n; ++s) {
        expected += binom(n, s);
      }
      Options options;
      options.mbet.min_left = p;
      options.mbet.min_right = q;
      EXPECT_EQ(CountMaximalBicliques(graph, options), expected)
          << "p=" << p << " q=" << q;
    }
  }
}

}  // namespace
}  // namespace mbe
