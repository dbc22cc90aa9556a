#ifndef PMBE_API_ENGINE_H_
#define PMBE_API_ENGINE_H_

#include <memory>
#include <span>
#include <vector>

#include "api/options.h"
#include "graph/bipartite_graph.h"
#include "util/status.h"

/// \file
/// `mbe::Engine` — the load-once half of the session-oriented API
/// (docs/SERVICE.md).
///
/// An Engine is a bipartite graph with all per-graph preprocessing baked
/// in: side swap, optional (p, q)-core reduction, hub-first left
/// relabeling, right-side traversal order, and the id-translation maps
/// back to the caller's original vertex ids. Building one is the expensive
/// step a serving process pays once per graph; afterwards the Engine is
/// **immutable and thread-safe by construction** — any number of
/// concurrent `mbe::Session`s enumerate over the same instance without
/// synchronization (each session brings its own single-threaded enumerator
/// state; the engine is shared read-only).
///
/// Engines are handed around as `std::shared_ptr<const Engine>` so a
/// serving registry can drop a graph while in-flight sessions keep their
/// reference.

namespace mbe {

class Engine {
 public:
  /// Builds the preprocessed engine for `graph` under `options`. Returns
  /// InvalidArgument (without preprocessing) when the options fail
  /// Validate(). The input graph is copied — the caller's instance is not
  /// retained.
  static util::StatusOr<std::shared_ptr<const Engine>> Build(
      const BipartiteGraph& graph, const GraphOptions& options);

  /// The preprocessed graph enumerators run on (possibly swapped, reduced,
  /// and relabeled — see the translation accessors below).
  const BipartiteGraph& graph() const { return work_; }

  /// The options the engine was built with.
  const GraphOptions& options() const { return options_; }

  /// True when preprocessing swapped the sides (the preprocessed left side
  /// is the caller's right side).
  bool swapped() const { return swapped_; }

  /// Size thresholds baked in by core reduction, in the **caller's**
  /// orientation (1/1 = no reduction). A session's query must be at least
  /// this strict; Session::Run rejects looser ones.
  uint32_t reduced_min_left() const { return reduced_min_left_; }
  uint32_t reduced_min_right() const { return reduced_min_right_; }

  /// Original (pre-swap, pre-reduction) side cardinalities.
  size_t original_num_left() const { return original_num_left_; }
  size_t original_num_right() const { return original_num_right_; }

  /// Translation maps from preprocessed ids to the caller's original ids,
  /// in the *preprocessed* orientation (combine with swapped()).
  std::span<const VertexId> left_map() const { return left_map_; }
  std::span<const VertexId> right_map() const { return right_map_; }

  /// Wall time Build spent preprocessing.
  double build_seconds() const { return build_seconds_; }

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

 private:
  Engine() = default;

  GraphOptions options_;
  BipartiteGraph work_;
  std::vector<VertexId> left_map_;
  std::vector<VertexId> right_map_;
  bool swapped_ = false;
  uint32_t reduced_min_left_ = 1;
  uint32_t reduced_min_right_ = 1;
  size_t original_num_left_ = 0;
  size_t original_num_right_ = 0;
  double build_seconds_ = 0;
};

}  // namespace mbe

#endif  // PMBE_API_ENGINE_H_
