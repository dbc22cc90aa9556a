#ifndef PMBE_GRAPH_ORDERING_H_
#define PMBE_GRAPH_ORDERING_H_

#include <string>
#include <vector>

#include "graph/bipartite_graph.h"
#include "util/common.h"
#include "util/status.h"

/// \file
/// Right-side vertex orderings. The enumeration traverses right-side
/// candidates in a fixed global order; the choice of order is one of the
/// classic levers of MBE performance (pruning happens earlier when
/// low-degree vertices come first), and is one of our ablation axes (F5).
///
/// An "ordering" is returned as a permutation `perm` where `perm[i]` is the
/// old id of the vertex placed at position `i`. Apply it with
/// `BipartiteGraph::RelabelRight(perm)` so that the enumerators can simply
/// traverse ids ascending.

namespace mbe {

/// Which right-side ordering to apply before enumeration.
enum class VertexOrder {
  kNone,           ///< keep input ids
  kDegreeAsc,      ///< ascending degree (the common default in MBE papers)
  kDegreeDesc,     ///< descending degree
  kTwoHopAsc,      ///< ascending two-hop degree |N2(v)|
  kUnilateralAsc,  ///< ascending unilateral (core-style) order, ooMBEA-like
  kRandom,         ///< random shuffle (baseline for ordering sensitivity)
};

/// Parses a flag value ("none", "deg-asc", "deg-desc", "twohop", "unilateral",
/// "random") into `*order`. Unknown names return InvalidArgument and leave
/// `*order` untouched.
util::Status ParseVertexOrder(const std::string& name, VertexOrder* order);

/// Stable display name for an order.
const char* VertexOrderName(VertexOrder order);

/// Computes the permutation realizing `order` on `graph`'s right side.
/// `seed` is only used by kRandom.
std::vector<VertexId> MakeOrder(const BipartiteGraph& graph, VertexOrder order,
                                uint64_t seed = 1);

/// Convenience: relabels the right side of `graph` by `order`.
BipartiteGraph ApplyOrder(const BipartiteGraph& graph, VertexOrder order,
                          uint64_t seed = 1);

/// The unilateral order used by kUnilateralAsc, exposed for testing:
/// a peeling order on right vertices where each round removes the vertex
/// with the smallest number of *remaining* two-hop neighbors, approximated
/// with lazy counters for scalability. This follows the spirit of the
/// unilateral coreness order of ooMBEA (Chen et al., VLDB 2022).
std::vector<VertexId> UnilateralOrder(const BipartiteGraph& graph);

}  // namespace mbe

#endif  // PMBE_GRAPH_ORDERING_H_
