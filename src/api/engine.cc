#include "api/engine.h"

#include <algorithm>
#include <numeric>
#include <utility>

#include "graph/ordering.h"
#include "graph/reduction.h"
#include "util/timer.h"

namespace mbe {

namespace {

std::vector<VertexId> IdentityPerm(size_t n) {
  std::vector<VertexId> perm(n);
  std::iota(perm.begin(), perm.end(), 0);
  return perm;
}

// Hub-first (descending degree) permutation of the left side: new id i is
// old id perm[i].
std::vector<VertexId> HubFirstLeftPerm(const BipartiteGraph& graph) {
  std::vector<VertexId> perm = IdentityPerm(graph.num_left());
  std::stable_sort(perm.begin(), perm.end(), [&](VertexId a, VertexId b) {
    const size_t da = graph.LeftDegree(a);
    const size_t db = graph.LeftDegree(b);
    if (da != db) return da > db;
    return a < b;
  });
  return perm;
}

}  // namespace

util::StatusOr<std::shared_ptr<const Engine>> Engine::Build(
    const BipartiteGraph& graph, const GraphOptions& options) {
  PMBE_RETURN_IF_ERROR(options.Validate());
  util::WallTimer timer;
  // shared_ptr<Engine> first, const-qualified on return: Build is the only
  // writer, and it publishes a fully-constructed immutable object.
  std::shared_ptr<Engine> engine(new Engine());
  engine->options_ = options;
  engine->original_num_left_ = graph.num_left();
  engine->original_num_right_ = graph.num_right();

  BipartiteGraph work = graph;
  const bool swapped =
      options.auto_swap_sides && work.num_right() > work.num_left();
  // Thresholds are stated in the caller's orientation; the enumeration
  // runs in the (possibly swapped) preprocessed orientation.
  uint32_t min_left = options.min_left;
  uint32_t min_right = options.min_right;
  if (swapped) {
    work = work.Swapped();
    std::swap(min_left, min_right);
  }

  // Optional (p, q)-core reduction for size-constrained engines.
  std::vector<VertexId> left_base = IdentityPerm(work.num_left());
  std::vector<VertexId> right_base = IdentityPerm(work.num_right());
  if (options.core_reduce && (min_left > 1 || min_right > 1)) {
    CoreReduction reduced = PqCoreReduce(work, min_left, min_right);
    work = std::move(reduced.graph);
    left_base = std::move(reduced.left_old);
    right_base = std::move(reduced.right_old);
    engine->reduced_min_left_ = options.min_left;
    engine->reduced_min_right_ = options.min_right;
  }

  std::vector<VertexId> left_perm = IdentityPerm(work.num_left());
  if (options.hub_first_left && work.num_left() > 0) {
    left_perm = HubFirstLeftPerm(work);
    // Relabel left = swap, relabel right, swap back.
    work = work.Swapped().RelabelRight(left_perm).Swapped();
  }

  std::vector<VertexId> right_perm = IdentityPerm(work.num_right());
  if (options.order != VertexOrder::kNone && work.num_right() > 0) {
    right_perm = MakeOrder(work, options.order, options.seed);
    work = work.RelabelRight(right_perm);
  }

  // Compose the relabelings with the reduction maps (new -> old).
  engine->left_map_.resize(work.num_left());
  for (size_t i = 0; i < engine->left_map_.size(); ++i) {
    engine->left_map_[i] = left_base[left_perm[i]];
  }
  engine->right_map_.resize(work.num_right());
  for (size_t i = 0; i < engine->right_map_.size(); ++i) {
    engine->right_map_[i] = right_base[right_perm[i]];
  }

  engine->work_ = std::move(work);
  engine->swapped_ = swapped;
  engine->build_seconds_ = timer.Seconds();
  return std::shared_ptr<const Engine>(std::move(engine));
}

}  // namespace mbe
