#include "api/mbe.h"

#include <memory>
#include <utility>

namespace mbe {

GraphOptions Options::graph_options() const {
  GraphOptions graph;
  graph.order = order;
  graph.hub_first_left = hub_first_left;
  graph.auto_swap_sides = auto_swap_sides;
  // Core reduction is only exact for the size-filtering MBET family: the
  // other algorithms enumerate everything, and bicliques below the
  // thresholds are gone from the reduced graph.
  const bool mbet_family =
      algorithm == Algorithm::kMbet || algorithm == Algorithm::kMbetM;
  graph.core_reduce = core_reduce && mbet_family;
  graph.min_left = mbet.min_left;
  graph.min_right = mbet.min_right;
  graph.seed = seed;
  return graph;
}

RunOptions Options::run_options() const {
  RunOptions run;
  run.algorithm = algorithm;
  run.threads = threads;
  run.max_split = max_split;
  run.mbet = mbet;
  run.control = control;
  run.max_memory_bytes = max_memory_bytes;
  run.watchdog_stall_seconds = watchdog_stall_seconds;
  run.checkpoint = checkpoint;
  return run;
}

util::Status Options::Validate() const {
  // RunOptions::Validate subsumes the graph half's checks (the size
  // thresholds are shared fields), so the error messages stay stable.
  return run_options().Validate();
}

util::Status Enumerate(const BipartiteGraph& graph, const Options& options,
                       ResultSink* sink, RunResult* out_result) {
  if (sink == nullptr) {
    return util::Status::InvalidArgument("sink must not be null");
  }
  PMBE_RETURN_IF_ERROR(options.Validate());
  util::StatusOr<std::shared_ptr<const Engine>> engine =
      Engine::Build(graph, options.graph_options());
  PMBE_RETURN_IF_ERROR(engine.status());
  Session session(engine.value(), options.run_options());
  RunResult result;
  PMBE_RETURN_IF_ERROR(session.Run(sink, &result));
  result.preprocess_seconds = engine.value()->build_seconds();
  if (out_result != nullptr) *out_result = std::move(result);
  return util::Status::Ok();
}

uint64_t CountMaximalBicliques(const BipartiteGraph& graph,
                               const Options& options) {
  CountSink sink;
  const util::Status status = Enumerate(graph, options, &sink, nullptr);
  PMBE_CHECK_MSG(status.ok(), "%s", status.ToString().c_str());
  return sink.count();
}

namespace {

/// Tracks the best-so-far biclique by edge count and raises the
/// branch-and-bound watermark the enumerator prunes against.
class BestEdgeSink : public ResultSink {
 public:
  explicit BestEdgeSink(uint64_t* watermark) : watermark_(watermark) {}

  void Emit(std::span<const VertexId> left,
            std::span<const VertexId> right) override {
    const uint64_t edges =
        static_cast<uint64_t>(left.size()) * right.size();
    if (edges > *watermark_) {
      *watermark_ = edges;
      best_.left.assign(left.begin(), left.end());
      best_.right.assign(right.begin(), right.end());
    }
  }

  Biclique Take() { return std::move(best_); }

 private:
  uint64_t* watermark_;
  Biclique best_;
};

}  // namespace

util::Status FindMaximumBiclique(const BipartiteGraph& graph,
                                 const Options& options, Biclique* best,
                                 RunResult* result) {
  if (best == nullptr) {
    return util::Status::InvalidArgument("best must not be null");
  }
  uint64_t watermark = 0;
  Options search = options;
  search.algorithm = Algorithm::kMbet;
  search.threads = 1;  // the watermark is unsynchronized mutable state
  search.mbet.best_edges = &watermark;
  BestEdgeSink sink(&watermark);
  // Under run control this is an anytime search: a deadline/budget stop
  // leaves the best incumbent seen so far in the sink.
  PMBE_RETURN_IF_ERROR(Enumerate(graph, search, &sink, result));
  *best = sink.Take();
  return util::Status::Ok();
}

}  // namespace mbe
