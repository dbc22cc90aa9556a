#ifndef PMBE_API_MBE_H_
#define PMBE_API_MBE_H_

#include <string>

#include "api/engine.h"
#include "api/options.h"
#include "api/session.h"
#include "core/enum_stats.h"
#include "core/mbet.h"
#include "core/run_control.h"
#include "core/sink.h"
#include "graph/bipartite_graph.h"
#include "graph/ordering.h"
#include "util/status.h"

/// \file
/// The one-shot library facade: a single call that takes an input
/// bipartite graph, an options struct, and a sink, and runs the full
/// pipeline — preprocessing (side swap, left hub-first relabeling,
/// right-side ordering), algorithm selection, optional parallel fan-out —
/// while translating emitted bicliques back to the caller's original
/// vertex ids.
///
/// Quickstart (recoverable-error form):
/// ```
///   mbe::CollectSink sink;
///   mbe::Options options;                      // defaults: MBET, deg-asc
///   options.control.deadline_seconds = 10;     // optional run control
///   mbe::RunResult run;
///   mbe::util::Status s = mbe::Enumerate(graph, options, &sink, &run);
///   if (!s.ok()) { /* bad options, not a crash */ }
///   if (run.termination != mbe::Termination::kComplete) { /* truncated */ }
///   for (const mbe::Biclique& b : sink.TakeSorted()) { ... }
/// ```
///
/// The facade is a thin wrapper over the session-oriented API
/// (docs/SERVICE.md): each call builds an `mbe::Engine` (the preprocessed
/// graph) and runs one `mbe::Session` over it. Callers that enumerate the
/// *same graph* more than once — different thresholds, budgets, or
/// algorithms, or many concurrent queries — should hold the Engine and
/// create Sessions directly; the facade re-pays preprocessing on every
/// call.
///
/// Interrupted runs — cancellation, deadline, budget — are *not* errors:
/// they return OK with `RunResult::termination` describing why the run
/// stopped, and the sink holds the valid prefix of results emitted before
/// the stop.
///
/// The abort-on-error shims of the pre-session API remain available behind
/// `PMBE_ENABLE_DEPRECATED` (default on; configure with
/// `-DPMBE_ENABLE_DEPRECATED=OFF` to hard-remove them). They are marked
/// `[[deprecated]]` — prefer the `util::Status` overloads, which report
/// invalid input as a recoverable error.

/// Compile-time gate for the abort-on-error legacy shims. The build
/// defines it to 0 when the CMake option PMBE_ENABLE_DEPRECATED is OFF.
#ifndef PMBE_ENABLE_DEPRECATED
#define PMBE_ENABLE_DEPRECATED 1
#endif

namespace mbe {

/// Full configuration of a one-shot enumeration run: the flat union of
/// `GraphOptions` (preprocessing, baked into the Engine) and `RunOptions`
/// (per-query control), kept field-compatible with the pre-session API.
/// `graph_options()` / `run_options()` split it into the two halves the
/// session API consumes.
struct Options {
  Algorithm algorithm = Algorithm::kMbet;

  /// Right-side traversal order. kUnilateralAsc is the natural pairing for
  /// kOombeaLite; everything else defaults to degree-ascending.
  VertexOrder order = VertexOrder::kDegreeAsc;

  /// Relabel the left side hub-first (descending degree) so that local
  /// neighborhoods share prefixes in the trie. No effect on correctness.
  bool hub_first_left = true;

  /// Swap the sides when the right side is larger (the standard
  /// preprocessing in the MBE literature). Emitted bicliques are swapped
  /// back, so callers always see their original orientation.
  bool auto_swap_sides = true;

  /// Worker threads. >1 uses the per-vertex subtree decomposition, which
  /// is supported by every algorithm except kMineLmbc.
  unsigned threads = 1;

  /// Maximum shards a heavy subtree is split into (1 disables subtree
  /// splitting). See docs/PARALLELISM.md.
  uint32_t max_split = 8;

  /// Ablation switches forwarded to MBET (trie / aggregation / Q pruning),
  /// plus the size thresholds min_left/min_right.
  MbetOptions mbet;

  /// Workload-adaptive auto-tuning (core/tuner.h, docs/TUNING.md): pick
  /// `mbet.bitmap_density` and `max_split` from the engine's sampled
  /// graph profile instead of the fields above. Results are
  /// byte-identical either way; the decision is recorded in
  /// `RunResult::stats` (auto_tuned / tuned_*).
  bool auto_tune = false;

  /// When size thresholds are set (mbet.min_left/min_right > 1) and the
  /// algorithm is MBET/MBETM, peel the graph to its (min_left, min_right)-
  /// core before enumerating (graph/reduction.h). Exact: no qualifying
  /// maximal biclique is lost.
  bool core_reduce = true;

  /// Seed for randomized orders (VertexOrder::kRandom).
  uint64_t seed = 1;

  /// Run control: cooperative cancellation, wall-clock deadline, result /
  /// node budgets, and periodic progress reporting (core/run_control.h).
  /// Default-constructed control is inert and costs nothing.
  RunControl control;

  /// Hard cap, in bytes, on the enumeration memory this run accounts
  /// (scratch arenas, per-node level/trie/bitmap state, sink buffers) —
  /// docs/ROBUSTNESS.md. 0 = unlimited. Past 75% of the cap consumers
  /// degrade gracefully (sorted lists instead of bitmaps, no tries,
  /// smaller sink batches, no subtree splits) — slower, identical
  /// results; past the cap the run stops with
  /// Termination::kMemoryLimit and the sink holds a valid prefix.
  /// `RunResult::stats.peak_charged_bytes` never exceeds the cap. The
  /// budget is **per run** (each call charges its own
  /// `util::MemoryBudget`): concurrent capped runs do not interfere.
  uint64_t max_memory_bytes = 0;

  /// Worker watchdog stall bound in seconds (parallel runs only; 0 =
  /// off). A worker silent for this long — no task pickup, no steal
  /// round — stops the run with Termination::kInternal instead of
  /// hanging it. The bound is on the longest single task, so leave it
  /// off unless task durations are known (see docs/ROBUSTNESS.md).
  double watchdog_stall_seconds = 0;

  /// Durable checkpointing (docs/CHECKPOINT.md): a non-empty
  /// `checkpoint.path` persists the task frontier there periodically and
  /// at drain, `checkpoint.resume` picks a previous snapshot back up, and
  /// the shard fields restrict the process to one hash shard of the seed
  /// space. Requires a parallel-capable algorithm.
  snapshot::CheckpointOptions checkpoint;

  /// The preprocessing half: what `Engine::Build` consumes. Core
  /// reduction is enabled only for the size-filtering MBET family, exactly
  /// as the one-shot pipeline always behaved.
  GraphOptions graph_options() const;

  /// The per-query half: what `Session` consumes.
  RunOptions run_options() const;

  /// Checks the options for internal consistency: thread count, parallel
  /// support of the chosen algorithm, size-threshold sanity, run-control
  /// sanity. OK options never make Enumerate abort.
  util::Status Validate() const;
};

/// Runs the configured enumeration of `graph` into `sink`, filling
/// `*result` (which may be null). Emitted bicliques use the caller's
/// original vertex ids and side orientation. Returns InvalidArgument —
/// without starting the run — when `sink` is null or `options.Validate()`
/// fails. Interrupted runs (see Options::control) return OK with
/// `result->termination` set.
///
/// Equivalent to `Engine::Build(graph, options.graph_options())` plus one
/// `Session(engine, options.run_options()).Run(sink, result)`.
util::Status Enumerate(const BipartiteGraph& graph, const Options& options,
                       ResultSink* sink, RunResult* result);

/// Convenience: counts the maximal bicliques of `graph` under `options`.
/// Aborts on invalid options (counting has no error channel).
uint64_t CountMaximalBicliques(const BipartiteGraph& graph,
                               const Options& options);

/// Finds a biclique of `graph` maximizing |L| * |R| (the maximum edge
/// biclique) subject to `options.mbet.min_left` / `min_right`, using MBET
/// with branch-and-bound pruning (subtrees whose |L| * |R| upper bound
/// cannot beat the incumbent are skipped). Runs single-threaded — the
/// pruning watermark is shared mutable state. Yields an empty biclique
/// when no biclique satisfies the constraints. `options.algorithm` is
/// ignored (always MBET).
///
/// This is an **anytime** search under run control: if the run is
/// cancelled or hits a deadline/budget, `*best` is the best incumbent
/// found so far (`result->termination` says the search was truncated, so
/// the incumbent is a lower bound rather than a proven optimum).
util::Status FindMaximumBiclique(const BipartiteGraph& graph,
                                 const Options& options, Biclique* best,
                                 RunResult* result = nullptr);

#if PMBE_ENABLE_DEPRECATED

/// Legacy shim: parses like the Status overload but aborts on unknown
/// names.
[[deprecated(
    "aborts on unknown names; use ParseAlgorithm(name, &algorithm), which "
    "returns util::Status")]]
Algorithm ParseAlgorithm(const std::string& name);

/// Legacy shim: like the Status overload but aborts on invalid options or
/// a null sink.
[[deprecated(
    "aborts on invalid options; use Enumerate(graph, options, sink, "
    "&result), which returns util::Status")]]
RunResult Enumerate(const BipartiteGraph& graph, const Options& options,
                    ResultSink* sink);

/// Legacy shim: aborts on invalid options.
[[deprecated(
    "aborts on invalid options; use FindMaximumBiclique(graph, options, "
    "&best, &result), which returns util::Status")]]
Biclique FindMaximumBiclique(const BipartiteGraph& graph,
                             const Options& options);

#endif  // PMBE_ENABLE_DEPRECATED

}  // namespace mbe

#endif  // PMBE_API_MBE_H_
