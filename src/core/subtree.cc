#include "core/subtree.h"

#include <algorithm>
#include <cmath>

namespace mbe {

SubtreeBuilder::SubtreeBuilder(const BipartiteGraph& graph)
    : graph_(graph),
      two_hop_(graph.num_right()),
      l_mask_(graph.num_left()) {}

bool SubtreeBuilder::Build(VertexId v, SubtreeRoot* root,
                           std::vector<VertexId>* absorbed, bool* pruned) {
  *pruned = false;
  root->seed = v;
  root->entries.clear();
  root->locs.clear();
  absorbed->clear();

  auto nbrs = graph_.RightNeighbors(v);
  if (nbrs.empty()) return false;
  root->l0.assign(nbrs.begin(), nbrs.end());

  two_hop_.RightTwoHop(graph_, v, &n2_);

  l_mask_.Set(root->l0);
  const size_t l0_size = root->l0.size();
  bool dominated = false;
  for (VertexId w : n2_) {
    RootEntry entry;
    entry.w = w;
    entry.forbidden = w < v;
    entry.loc_off = static_cast<uint32_t>(root->locs.size());
    for (VertexId x : graph_.RightNeighbors(w)) {
      if (l_mask_.Test(x)) root->locs.push_back(x);
    }
    entry.loc_len = static_cast<uint32_t>(root->locs.size() - entry.loc_off);
    if (entry.loc_len == 0) continue;  // unreachable from L0: N2 guarantees >0
    if (entry.loc_len == l0_size) {
      root->locs.resize(entry.loc_off);  // loc == L0: no need to keep it
      if (entry.forbidden) {
        // An earlier vertex dominates L0: the whole subtree is covered by
        // subtree(w). Prune.
        dominated = true;
        break;
      }
      absorbed->push_back(w);
      continue;
    }
    root->entries.push_back(entry);
  }
  l_mask_.Clear(root->l0);

  if (dominated) {
    *pruned = true;
    return false;
  }
  return true;
}

SubtreeRootCache::SubtreeRootCache(const BipartiteGraph& graph)
    : builder_(graph) {}

uint32_t SubtreeRootCache::SplitHint(VertexId v, uint32_t max_shards,
                                     uint64_t min_work) {
  kept_ = kInvalidVertex;
  if (max_shards <= 1) return 1;
  kept_built_ = builder_.Build(v, &root_, &absorbed_, &kept_pruned_);
  kept_ = v;
  if (!kept_built_) return 1;
  return SplitShards(root_, max_shards, min_work);
}

bool SubtreeRootCache::Claim(VertexId v) {
  const bool claimed = kept_ == v;
  kept_ = kInvalidVertex;
  return claimed;
}

bool SubtreeRootCache::Build(VertexId v, bool claimed, bool* pruned) {
  if (claimed) {
    PMBE_DCHECK(root_.seed == v);
    *pruned = kept_pruned_;
    return kept_built_;
  }
  return builder_.Build(v, &root_, &absorbed_, pruned);
}

namespace {

// Subtree cost model (EstimateSubtreeWork). A least-squares fit of log
// single-thread time over every subtree of the GH, WA and Pa registry
// stand-ins and gen::HubBlock(100, 60, 4000, 1600, 0.4, 0.0005) in input
// order that takes at least 100 µs (seed 1, Release, 4-core Xeon). The
// residual sd is 0.45 in log time: one sd is a factor of ~1.6.
constexpr double kLogSeconds = -18.36;
constexpr double kLogNsPerSecond = 20.7232658;  // ln 1e9
constexpr double kEntriesExponent = 1.04;
constexpr double kCandidatesExponent = 0.25;
constexpr double kLeftExponent = 0.60;
constexpr double kBranchRate = 0.47;
// e^43 ns is ~150 years: saturating there keeps the estimate finite and
// far below 2^64 however dense and deep the root.
constexpr double kMaxLogNs = 43.0;

// Smallest min(|L0|, cand) worth splitting (see SplitShards).
constexpr uint64_t kMinSplitSide = 16;

struct RootShape {
  uint64_t candidates = 0;      // non-forbidden entries
  uint64_t candidate_locs = 0;  // Σ loc_len over the candidates
};

RootShape ShapeOf(const SubtreeRoot& root) {
  RootShape shape;
  for (const RootEntry& entry : root.entries) {
    if (entry.forbidden) continue;
    ++shape.candidates;
    shape.candidate_locs += entry.loc_len;
  }
  return shape;
}

uint64_t Estimate(const SubtreeRoot& root, const RootShape& shape) {
  if (root.l0.empty()) return 0;
  const double l0 = static_cast<double>(root.l0.size());
  const double entries = static_cast<double>(root.entries.size());
  const double cand =
      static_cast<double>(std::max<uint64_t>(1, shape.candidates));
  const double density =
      static_cast<double>(shape.candidate_locs) / (cand * l0);
  const double depth = static_cast<double>(
      std::min<uint64_t>(root.l0.size(), shape.candidates));
  const double log_ns = kLogSeconds + kLogNsPerSecond +
                        kEntriesExponent * std::log(entries + 1) +
                        kCandidatesExponent * std::log(cand) +
                        kLeftExponent * std::log(l0) +
                        kBranchRate * density * depth;
  return static_cast<uint64_t>(std::exp(std::min(log_ns, kMaxLogNs)));
}

}  // namespace

uint64_t EstimateSubtreeWork(const SubtreeRoot& root) {
  return Estimate(root, ShapeOf(root));
}

uint32_t SplitShards(const SubtreeRoot& root, uint32_t max_shards,
                     uint64_t min_work) {
  const RootShape shape = ShapeOf(root);
  // Shallow-wide subtrees (small min side, long candidate list) are
  // dominated by the depth-0 classification pass, which every shard
  // re-pays in full: splitting them multiplies their dominant cost
  // instead of dividing it. Checked before the estimate: it rules out
  // most subtrees without the estimate's transcendental calls.
  if (std::min<uint64_t>(root.l0.size(), shape.candidates) < kMinSplitSide) {
    return 1;
  }
  const uint64_t work = Estimate(root, shape);
  if (work < min_work) return 1;
  // Every shard re-pays the root build, so shards must each carry at least
  // min_work of predicted time: k = work / min_work, capped by the shard
  // limit and by the candidate count (aggregation at depth 0 can merge
  // candidates, so the count is an upper bound; surplus shards just no-op).
  const uint64_t k = std::min({uint64_t{max_shards}, shape.candidates,
                               work / std::max<uint64_t>(1, min_work)});
  return static_cast<uint32_t>(std::max<uint64_t>(1, k));
}

}  // namespace mbe
