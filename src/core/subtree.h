#ifndef PMBE_CORE_SUBTREE_H_
#define PMBE_CORE_SUBTREE_H_

#include <cstdint>
#include <span>
#include <vector>

#include "core/set_ops.h"
#include "graph/bipartite_graph.h"
#include "graph/two_hop.h"
#include "util/common.h"

/// \file
/// Root construction for the per-vertex subtree decomposition.
///
/// The enumeration space is partitioned by the first (smallest, under the
/// preprocessed right-side order) R-vertex of each maximal biclique:
/// subtree(v) enumerates exactly the maximal bicliques whose minimum
/// R-vertex is v. Its root has L0 = N(v); candidates are the two-hop
/// neighbors after v; two-hop neighbors before v act as forbidden (Q)
/// witnesses. This decomposition is what both the sequential drivers and
/// the parallel scheduler fan out over.

namespace mbe {

/// One root entry: a two-hop neighbor of the subtree's seed vertex. Its
/// local neighborhood lives in the shared `SubtreeRoot::locs` arena
/// (offset/length), so rebuilding a root reuses one flat buffer instead of
/// allocating a vector per entry.
struct RootEntry {
  VertexId w = kInvalidVertex;
  bool forbidden = false;           ///< true when w precedes the seed
  uint32_t loc_off = 0;             ///< offset into SubtreeRoot::locs
  uint32_t loc_len = 0;             ///< |N(w) ∩ L0|
};

/// Root state of subtree(v).
struct SubtreeRoot {
  VertexId seed = kInvalidVertex;
  std::vector<VertexId> l0;          ///< N(v)
  std::vector<RootEntry> entries;    ///< two-hop neighbors with locals
  std::vector<VertexId> locs;        ///< arena: all entry locals, sorted

  /// The local neighborhood N(entry.w) ∩ L0 of `entry`, sorted.
  std::span<const VertexId> LocOf(const RootEntry& entry) const {
    return {locs.data() + entry.loc_off, entry.loc_len};
  }
};

/// Reusable scratch for building subtree roots.
class SubtreeBuilder {
 public:
  explicit SubtreeBuilder(const BipartiteGraph& graph);

  /// Builds the root of subtree(v). Returns false when the subtree is
  /// trivially empty or pruned without any enumeration:
  ///  * deg(v) == 0 (no biclique has v with nonempty L), or
  ///  * some forbidden w dominates L0 (L0 ⊆ N(w)); then every biclique of
  ///    the subtree is enumerated in an earlier subtree. `*pruned` is set
  ///    to distinguish this case for the stats counters.
  ///
  /// On success, entries with empty locals are already dropped and entries
  /// whose local equals L0 are reported via `*absorbed` (they belong in R0)
  /// rather than in `root->entries`.
  bool Build(VertexId v, SubtreeRoot* root, std::vector<VertexId>* absorbed,
             bool* pruned);

  const BipartiteGraph& graph() const { return graph_; }

 private:
  const BipartiteGraph& graph_;
  TwoHopScratch two_hop_;
  std::vector<VertexId> n2_;
  MembershipMask l_mask_;
};

/// One engine's subtree root: a SubtreeBuilder, the root it last built, and
/// the split hint that MBET, BBK and the MBEA family share. The work-stealing
/// scheduler asks an engine for SplitHint(v) at task pickup and then runs
/// EnumerateShard(v, ...) on the same engine; the root the hint built is
/// kept for exactly that call, so a pickup builds subtree(v)'s root once.
class SubtreeRootCache {
 public:
  explicit SubtreeRootCache(const BipartiteGraph& graph);

  /// SplitShards over subtree(v)'s root; 1 without building when
  /// `max_shards` <= 1, and 1 when the subtree is empty or pruned. Keeps
  /// the built root, and Build's outcome, for the next Claim(v).
  uint32_t SplitHint(VertexId v, uint32_t max_shards, uint64_t min_work);

  /// Call at every EnumerateShard entry. Returns whether the kept root is
  /// subtree(v)'s, and forgets it either way: a kept root serves only the
  /// one task that follows its hint, and never another seed's task.
  bool Claim(VertexId v);

  /// Makes root()/absorbed() subtree(v)'s root, with SubtreeBuilder::Build's
  /// contract. `claimed` is Claim(v)'s result: when true, the root
  /// SplitHint(v) kept is reused instead of built again.
  bool Build(VertexId v, bool claimed, bool* pruned);

  const SubtreeRoot& root() const { return root_; }
  const std::vector<VertexId>& absorbed() const { return absorbed_; }

 private:
  SubtreeBuilder builder_;
  SubtreeRoot root_;
  std::vector<VertexId> absorbed_;
  VertexId kept_ = kInvalidVertex;  ///< seed whose hint root is kept
  bool kept_built_ = false;         ///< Build's result for kept_
  bool kept_pruned_ = false;        ///< Build's *pruned for kept_
};

/// Predicted single-thread enumeration time of the subtree rooted at
/// `root`, in nanoseconds; 0 for an empty root. A cost model fitted to
/// per-subtree timings (see subtree.cc for the fit):
///
///   t = e^-18.36 s · (|entries|+1)^1.04 · cand^0.25 · |L0|^0.60
///         · exp(0.47 · d · min(|L0|, cand))
///
/// where cand counts the non-forbidden entries and d is their mean local
/// density Σ loc_len / (cand · |L0|). Every node's maximality scan visits
/// all entries, forbidden ones included, so entries count linearly; only
/// candidates branch, so only they feed the exponential term. Cheap: one
/// pass over the entries of an already-built root.
uint64_t EstimateSubtreeWork(const SubtreeRoot& root);

/// The split policy MBET, BBK and MBEA share: how many shards the
/// subtree rooted at `root` is worth for the work-stealing scheduler.
/// Returns k > 1 only when EstimateSubtreeWork reaches `min_work` (same
/// units, ns) and min(|L0|, cand) >= 16, so every shard carries at least
/// `min_work` of predicted time; k is capped at `max_shards` and at the
/// candidate count.
uint32_t SplitShards(const SubtreeRoot& root, uint32_t max_shards,
                     uint64_t min_work);

}  // namespace mbe

#endif  // PMBE_CORE_SUBTREE_H_
