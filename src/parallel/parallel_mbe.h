#ifndef PMBE_PARALLEL_PARALLEL_MBE_H_
#define PMBE_PARALLEL_PARALLEL_MBE_H_

#include <functional>
#include <memory>

#include "core/enum_stats.h"
#include "core/run_control.h"
#include "core/sink.h"
#include "graph/bipartite_graph.h"
#include "parallel/work_stealing.h"
#include "snapshot/checkpoint.h"
#include "snapshot/frontier.h"

/// \file
/// The shared-memory parallel MBE driver. It fans the per-vertex subtree
/// decomposition (core/subtree.h) out over worker threads; each worker
/// owns a private enumerator instance (enumerators are single-threaded
/// state) and a private BufferedSink over the shared thread-safe
/// ResultSink (emissions are batched; see core/sink.h).
///
/// One scheduler runs every standalone parallel and durable run: per-worker
/// Chase–Lev deques seeded heaviest-subtree-first, randomized stealing,
/// and heavy-subtree *splitting*: when a subtree's estimated work is large
/// (always) or a thief is starving (lower bar), its top-level candidate
/// loop is sharded into up to `max_split` independently executable tasks,
/// so a single hub subtree no longer serializes the run. With
/// `max_split` = 1 it degenerates to whole-subtree tasks, the per-vertex
/// loop with stealing in place of a shared counter.
///
/// This plays two roles in the evaluation:
///  * "ParMBE": parallel iMBEA workers, the CPU-parallel comparison point;
///  * "MBET xN": parallel prefix-tree workers, for the scalability figure.

namespace mbe {

/// Per-worker enumeration engine: anything that can enumerate one subtree.
///
/// Engines that can *split* a subtree additionally implement SplitHint /
/// EnumerateShard. The contract: for any v and any k returned by
/// SplitHint(v, ...), the multiset union of EnumerateShard(v, s, k, sink)
/// over s in [0, k) equals EnumerateSubtree(v, sink)'s emissions. Shards
/// must share no mutable state — each shard re-derives its frame from the
/// engine's own scratch (different shards of one subtree generally run on
/// different workers' engines).
class SubtreeWorker {
 public:
  virtual ~SubtreeWorker() = default;

  /// Enumerates the maximal bicliques whose minimum right vertex is `v`.
  virtual void EnumerateSubtree(VertexId v, ResultSink* sink) = 0;

  /// Returns how many shards subtree(v)'s top-level candidate loop should
  /// be split into: in [2, max_shards] when the subtree's estimated work
  /// is at least `min_work` and it has enough top-level candidates,
  /// otherwise 1 (don't split). Engines that cannot split return 1 (the
  /// default), and the scheduler then runs the subtree whole. The
  /// scheduler calls EnumerateShard(v, ...) on the same engine right after,
  /// so an engine may keep the root the hint built for that one call
  /// (SubtreeRootCache, core/subtree.h).
  virtual uint32_t SplitHint(VertexId /*v*/, uint32_t /*max_shards*/,
                             uint64_t /*min_work*/) {
    return 1;
  }

  /// Enumerates shard `shard` of `num_shards` of subtree(v). Only called
  /// with a num_shards previously returned by SplitHint for the same v
  /// (on some engine; shards migrate across workers). The default handles
  /// the degenerate unsplit case only.
  virtual void EnumerateShard(VertexId v, uint32_t shard,
                              uint32_t /*num_shards*/, ResultSink* sink) {
    if (shard == 0) EnumerateSubtree(v, sink);
  }

  /// Counters accumulated by this worker so far.
  virtual EnumStats stats() const = 0;
};

/// Factory producing one fresh worker per thread.
using WorkerFactory = std::function<std::unique_ptr<SubtreeWorker>()>;

/// Configuration of a parallel run.
struct ParallelOptions {
  unsigned threads = 1;

  /// Shared run controller (may be null). The driver skips unclaimed
  /// subtrees once its stop flag trips, so the first worker to hit a
  /// deadline or budget halts the whole fleet; the factory is responsible
  /// for attaching the same controller to each worker engine it builds.
  RunController* controller = nullptr;

  /// The run's memory budget. Workers bind it to their thread
  /// (util::ScopedBudgetBinding) so every charging site inside the
  /// enumeration attributes to this run — not to whatever another
  /// concurrent session bound elsewhere. nullptr binds the process
  /// default.
  util::MemoryBudget* budget = nullptr;

  /// Maximum shards a heavy subtree is split into (1 disables splitting).
  /// Bounded by kMaxTaskShards.
  uint32_t max_split = 8;

  /// Predicted-time bar, in nanoseconds (EstimateSubtreeWork units): a
  /// subtree predicted to take at least this long is split at pickup into
  /// k = estimate / bar shards (capped by max_split), so each shard
  /// carries at least the bar's worth of predicted time. When a thief is
  /// starving the bar drops to a quarter of this, so stragglers also break
  /// up mid-sized subtrees. The default (64 ms) is deliberately high:
  /// every shard re-pays the subtree's root build and depth-0 scan, so
  /// splitting only pays off for the monster subtrees that would otherwise
  /// serialize a run's tail — mid-sized subtrees balance fine as
  /// whole-subtree steals.
  uint64_t split_min_work = 64'000'000;

  /// Per-worker BufferedSink flush thresholds: flush after this many
  /// buffered bicliques or this many buffered arena bytes, whichever
  /// trips first.
  size_t sink_buffer_results = 64;
  size_t sink_buffer_bytes = 1 << 16;

  /// Worker watchdog (needs a controller to report to).
  /// When > 0, a monitor thread sweeps per-worker heartbeats — stamped at
  /// every task pickup and steal-loop round — and a worker silent for this
  /// many seconds stops the run with Termination::kInternal. The bound is
  /// therefore on the *longest single task*, so it is opt-in (0 = off): a
  /// legitimately giant subtree between heartbeats is indistinguishable
  /// from a stuck one. See docs/ROBUSTNESS.md.
  double watchdog_stall_seconds = 0;

  /// Durable task frontier (snapshot/frontier.h); null runs volatile, as
  /// before. When set, the scheduler takes its seed tasks from the
  /// frontier's pending set instead of the whole right side, records every
  /// split and completion (with a per-task result digest) in it, and never
  /// re-runs a task the frontier already logged as completed — the
  /// substrate of checkpoint/resume and multi-process sharding
  /// (docs/CHECKPOINT.md). The caller owns the frontier and seeds it
  /// (fresh, restored from a snapshot, or one process shard of the seed
  /// space).
  snapshot::TaskFrontier* frontier = nullptr;

  /// Checkpoint persistence over `frontier` (ignored when frontier is
  /// null): `checkpoint.path` receives periodic snapshots every
  /// `checkpoint.every_s` seconds plus one final snapshot at drain, all
  /// written crash-safely (tmp+rename). `checkpoint.checkpoint_stop`
  /// turning true stops the run with Termination::kCheckpointed (needs a
  /// controller). The resume/shard fields are consumed by the caller when
  /// seeding the frontier, not by the driver.
  snapshot::CheckpointOptions checkpoint;
};

/// Runs the full enumeration of `graph` with `factory`-produced workers.
/// Returns the merged counters of all workers (including scheduler
/// counters: steals, split_tasks, sink_flushes, busy/idle time).
EnumStats ParallelEnumerate(const BipartiteGraph& graph,
                            const WorkerFactory& factory,
                            const ParallelOptions& options, ResultSink* sink);

}  // namespace mbe

#endif  // PMBE_PARALLEL_PARALLEL_MBE_H_
