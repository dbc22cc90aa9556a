#ifndef PMBE_API_OPTIONS_H_
#define PMBE_API_OPTIONS_H_

#include <cstdint>
#include <string>

#include "core/mbet.h"
#include "core/run_control.h"
#include "graph/ordering.h"
#include "snapshot/checkpoint.h"
#include "util/status.h"

/// \file
/// Configuration types of the session-oriented API (docs/SERVICE.md).
///
/// The old monolithic `Options` struct mixed two unrelated lifetimes:
/// *graph preprocessing* decisions (ordering, relabeling, side swap, core
/// reduction) that are made once when a graph is loaded, and *run control*
/// decisions (algorithm, threads, budgets, deadlines) that differ per
/// query. The split mirrors the two API objects:
///
///  * `GraphOptions` — owned by `mbe::Engine`: everything baked into the
///    immutable preprocessed graph, shared read-only by all sessions.
///  * `RunOptions` — owned by `mbe::Session`: everything a single
///    enumeration query controls.
///
/// The legacy flat `Options` aggregate (api/mbe.h) remains for one-shot
/// callers and converts into both halves.

namespace mbe {

/// Which enumeration algorithm to run.
enum class Algorithm {
  kMbet,        ///< prefix-tree enumerator (the paper's contribution)
  kMbetM,       ///< space-optimized MBET (no stored locals)
  kMineLmbc,    ///< textbook recursive baseline
  kMbea,        ///< MBEA (Q-set check, unsorted candidates)
  kImbea,       ///< iMBEA (Q-set check + candidate ordering)
  kOombeaLite,  ///< unilateral order + subtree-local iMBEA
  kBbk,         ///< pivot-free left extension, degree-ordered candidates
                ///< (Baudin et al. 2024) — the large-sparse-graph engine
};

/// The last Algorithm enumerator. Algorithm ids that arrive as integers
/// (the serving wire protocol) are valid up to this one, and
/// RunOptions::Validate rejects the rest.
inline constexpr Algorithm kLastAlgorithm = Algorithm::kBbk;

/// Parses "mbet", "mbetm", "minelmbc", "mbea", "imbea", "oombea", "bbk"
/// into `*algorithm`; returns InvalidArgument (leaving `*algorithm`
/// untouched) on unknown names.
util::Status ParseAlgorithm(const std::string& name, Algorithm* algorithm);

/// Stable display name of an algorithm.
const char* AlgorithmName(Algorithm algorithm);

/// True for the algorithms the per-vertex subtree decomposition (and hence
/// any parallel or pooled execution) supports.
bool SupportsParallel(Algorithm algorithm);

/// Upper bound on RunOptions::threads. A standalone parallel run starts
/// one OS thread per worker (up to the number of seed tasks), so a larger
/// value is a typed error rather than thousands of threads.
inline constexpr unsigned kMaxThreads = 256;

/// Graph preprocessing configuration, fixed at `Engine::Build` time. All
/// vertex-size thresholds are stated in the *caller's* orientation; the
/// engine accounts for side swapping internally.
struct GraphOptions {
  /// Right-side traversal order. kUnilateralAsc is the natural pairing for
  /// Algorithm::kOombeaLite; everything else defaults to degree-ascending.
  VertexOrder order = VertexOrder::kDegreeAsc;

  /// Relabel the left side hub-first (descending degree) so that local
  /// neighborhoods share prefixes in the trie. No effect on correctness.
  bool hub_first_left = true;

  /// Swap the sides when the right side is larger (the standard
  /// preprocessing in the MBE literature). Emitted bicliques are swapped
  /// back, so callers always see their original orientation.
  bool auto_swap_sides = true;

  /// When min_left/min_right > 1, peel the graph to its
  /// (min_left, min_right)-core before any enumeration (graph/reduction.h).
  /// Exact for queries whose size thresholds are at least as strict:
  /// a session running on a reduced engine must have
  /// `mbet.min_left >= min_left && mbet.min_right >= min_right`
  /// (Session::Run rejects looser queries — bicliques below the baked
  /// thresholds are gone from the reduced graph).
  bool core_reduce = true;
  uint32_t min_left = 1;
  uint32_t min_right = 1;

  /// Seed for randomized orders (VertexOrder::kRandom).
  uint64_t seed = 1;

  /// Sanity checks (threshold >= 1). OK options never make Build abort.
  util::Status Validate() const;
};

/// How a standalone parallel run distributes subtrees over workers. The
/// work-stealing runtime (parallel/parallel_mbe.h) is the only one; this
/// type and RunOptions::scheduling stay only because the benchmark
/// (perfbench/workloads.cc) still sets them.
enum class Scheduling { kStealing };

/// Per-query run configuration, owned by `mbe::Session`.
struct RunOptions {
  Algorithm algorithm = Algorithm::kMbet;

  /// Worker threads for a standalone `Session::Run`, in [1, kMaxThreads].
  /// >1 uses the per-vertex subtree decomposition, which requires
  /// SupportsParallel(algorithm). Ignored when the session is submitted
  /// to a shared TaskRuntime (Session::Submit) — the runtime brings the
  /// threads.
  unsigned threads = 1;
  Scheduling scheduling = Scheduling::kStealing;

  /// Maximum shards a heavy subtree is split into (1 disables subtree
  /// splitting). See docs/PARALLELISM.md.
  uint32_t max_split = 8;

  /// Ablation switches forwarded to MBET (trie / aggregation / Q pruning),
  /// plus the size thresholds min_left/min_right — stated in the caller's
  /// orientation; the session swaps them when the engine swapped sides.
  /// Only MBET and MBETM apply the thresholds, so Validate rejects a
  /// threshold > 1 for every other algorithm.
  MbetOptions mbet;

  /// Run control: cooperative cancellation, wall-clock deadline, result /
  /// node budgets, and periodic progress reporting (core/run_control.h).
  /// Default-constructed control is inert and costs nothing.
  RunControl control;

  /// Hard cap, in bytes, on the enumeration memory this run accounts
  /// (scratch arenas, per-node level/trie/bitmap state, sink buffers) —
  /// docs/ROBUSTNESS.md. 0 = unlimited. Past 75% of the cap consumers
  /// degrade gracefully — slower, identical results; past the cap the run
  /// stops with Termination::kMemoryLimit and the sink holds a valid
  /// prefix. The budget is **per session**: each Session charges its own
  /// `util::MemoryBudget` instance, so one session exhausting its cap
  /// never degrades or stops a concurrent neighbor.
  uint64_t max_memory_bytes = 0;

  /// Worker watchdog stall bound in seconds (standalone parallel runs
  /// only; 0 = off). See docs/ROBUSTNESS.md.
  double watchdog_stall_seconds = 0;

  /// Durable checkpointing (docs/CHECKPOINT.md). A non-empty
  /// `checkpoint.path` makes the run frontier-driven: the task frontier is
  /// persisted there periodically and at drain, `checkpoint.resume` picks
  /// a previous snapshot back up (completed subtrees are never re-run),
  /// and `checkpoint.shard_index / shard_count` restrict this process to
  /// its hash shard of the seed space for multi-process runs. Requires a
  /// parallel-capable algorithm (threads may still be 1 — durability and
  /// parallelism are orthogonal).
  snapshot::CheckpointOptions checkpoint;

  /// Checks the options for internal consistency: thread count, parallel
  /// support of the chosen algorithm, size-threshold sanity, run-control
  /// sanity, checkpoint coherence. OK options never make Session::Run
  /// abort.
  util::Status Validate() const;
};

}  // namespace mbe

#endif  // PMBE_API_OPTIONS_H_
