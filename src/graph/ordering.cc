#include "graph/ordering.h"

#include <algorithm>
#include <numeric>

#include "graph/two_hop.h"
#include "util/random.h"

namespace mbe {

util::Status ParseVertexOrder(const std::string& name, VertexOrder* order) {
  PMBE_CHECK(order != nullptr);
  for (VertexOrder candidate :
       {VertexOrder::kNone, VertexOrder::kDegreeAsc, VertexOrder::kDegreeDesc,
        VertexOrder::kTwoHopAsc, VertexOrder::kUnilateralAsc,
        VertexOrder::kRandom}) {
    if (name == VertexOrderName(candidate)) {
      *order = candidate;
      return util::Status::Ok();
    }
  }
  return util::Status::InvalidArgument(
      "unknown vertex order '" + name +
      "' (expected none | deg-asc | deg-desc | twohop | unilateral | random)");
}

const char* VertexOrderName(VertexOrder order) {
  switch (order) {
    case VertexOrder::kNone:
      return "none";
    case VertexOrder::kDegreeAsc:
      return "deg-asc";
    case VertexOrder::kDegreeDesc:
      return "deg-desc";
    case VertexOrder::kTwoHopAsc:
      return "twohop";
    case VertexOrder::kUnilateralAsc:
      return "unilateral";
    case VertexOrder::kRandom:
      return "random";
  }
  return "?";
}

namespace {

// Sorts right vertices by `key(v)` ascending, breaking ties by id for
// determinism.
template <typename KeyFn>
std::vector<VertexId> SortByKey(size_t n, KeyFn key) {
  std::vector<VertexId> perm(n);
  std::iota(perm.begin(), perm.end(), 0);
  std::stable_sort(perm.begin(), perm.end(), [&](VertexId a, VertexId b) {
    const auto ka = key(a);
    const auto kb = key(b);
    if (ka != kb) return ka < kb;
    return a < b;
  });
  return perm;
}

// Exact |N2(v)| for all right vertices.
std::vector<size_t> TwoHopSizes(const BipartiteGraph& graph) {
  TwoHopScratch scratch(graph.num_right());
  std::vector<VertexId> n2;
  std::vector<size_t> sizes(graph.num_right(), 0);
  for (VertexId v = 0; v < graph.num_right(); ++v) {
    scratch.RightTwoHop(graph, v, &n2);
    sizes[v] = n2.size();
  }
  return sizes;
}

}  // namespace

std::vector<VertexId> UnilateralOrder(const BipartiteGraph& graph) {
  const size_t n = graph.num_right();
  // Budget on the materialized two-hop adjacency. Beyond it we fall back to
  // the static two-hop order: peeling would not be laptop-feasible and the
  // static order is the standard approximation.
  constexpr size_t kAdjacencyBudget = 64u << 20;  // entries

  // Materialize the two-hop adjacency (right-to-right projection).
  std::vector<std::vector<VertexId>> adj(n);
  {
    TwoHopScratch scratch(n);
    size_t total = 0;
    for (VertexId v = 0; v < n; ++v) {
      scratch.RightTwoHop(graph, v, &adj[v]);
      total += adj[v].size();
      if (total > kAdjacencyBudget) {
        const auto sizes = TwoHopSizes(graph);
        return SortByKey(n, [&](VertexId x) { return sizes[x]; });
      }
    }
  }

  // Min-degree peeling with a bucket queue (degeneracy order of the
  // projection graph).
  std::vector<size_t> degree(n);
  size_t max_degree = 0;
  for (VertexId v = 0; v < n; ++v) {
    degree[v] = adj[v].size();
    max_degree = std::max(max_degree, degree[v]);
  }
  std::vector<std::vector<VertexId>> buckets(max_degree + 1);
  for (VertexId v = 0; v < n; ++v) buckets[degree[v]].push_back(v);

  std::vector<uint8_t> removed(n, 0);
  std::vector<VertexId> perm;
  perm.reserve(n);
  size_t cursor = 0;
  while (perm.size() < n) {
    while (cursor < buckets.size() && buckets[cursor].empty()) ++cursor;
    PMBE_CHECK(cursor < buckets.size());
    // Lazy deletion: entries may be stale (vertex removed or degree moved).
    VertexId v = buckets[cursor].back();
    buckets[cursor].pop_back();
    if (removed[v] || degree[v] != cursor) continue;
    removed[v] = 1;
    perm.push_back(v);
    for (VertexId w : adj[v]) {
      if (removed[w]) continue;
      const size_t d = degree[w];
      if (d > 0) {
        degree[w] = d - 1;
        buckets[d - 1].push_back(w);
        if (d - 1 < cursor) cursor = d - 1;
      }
    }
  }
  return perm;
}

std::vector<VertexId> MakeOrder(const BipartiteGraph& graph, VertexOrder order,
                                uint64_t seed) {
  const size_t n = graph.num_right();
  switch (order) {
    case VertexOrder::kNone: {
      std::vector<VertexId> perm(n);
      std::iota(perm.begin(), perm.end(), 0);
      return perm;
    }
    case VertexOrder::kDegreeAsc:
      return SortByKey(n, [&](VertexId v) { return graph.RightDegree(v); });
    case VertexOrder::kDegreeDesc:
      return SortByKey(n, [&](VertexId v) {
        return graph.num_left() - graph.RightDegree(v);
      });
    case VertexOrder::kTwoHopAsc: {
      const auto sizes = TwoHopSizes(graph);
      return SortByKey(n, [&](VertexId v) { return sizes[v]; });
    }
    case VertexOrder::kUnilateralAsc:
      return UnilateralOrder(graph);
    case VertexOrder::kRandom: {
      std::vector<VertexId> perm(n);
      std::iota(perm.begin(), perm.end(), 0);
      util::Rng rng(seed);
      for (size_t i = n; i > 1; --i) {
        const size_t j = rng.Below(i);
        std::swap(perm[i - 1], perm[j]);
      }
      return perm;
    }
  }
  PMBE_CHECK(false);
  return {};
}

BipartiteGraph ApplyOrder(const BipartiteGraph& graph, VertexOrder order,
                          uint64_t seed) {
  if (order == VertexOrder::kNone) return graph;
  return graph.RelabelRight(MakeOrder(graph, order, seed));
}

}  // namespace mbe
