#ifndef PMBE_PARALLEL_PARALLEL_MBE_H_
#define PMBE_PARALLEL_PARALLEL_MBE_H_

#include <atomic>
#include <condition_variable>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "core/enum_stats.h"
#include "core/run_control.h"
#include "core/sink.h"
#include "graph/bipartite_graph.h"
#include "parallel/work_stealing.h"
#include "snapshot/checkpoint.h"
#include "snapshot/frontier.h"

/// \file
/// The shared-memory parallel MBE runtime. It fans the per-vertex subtree
/// decomposition (core/subtree.h) out over worker threads; each worker
/// owns a private enumerator instance per job (enumerators are
/// single-threaded state) and a private BufferedSink over the job's
/// thread-safe ResultSink (emissions are batched; see core/sink.h).
///
/// One runtime runs every parallel, durable and served run: a fixed fleet
/// of workers executing *jobs* (TaskRuntime). Each job keeps per-worker
/// Chase–Lev deques seeded heaviest-subtree-first, randomized stealing,
/// and heavy-subtree *splitting*: when a subtree's estimated work is large
/// (always) or a thief is starving (lower bar), its top-level candidate
/// loop is sharded into up to `max_split` independently executable tasks,
/// so a single hub subtree no longer serializes the run. With
/// `max_split` = 1 it degenerates to whole-subtree tasks, the per-vertex
/// loop with stealing in place of a shared counter. A standalone run is
/// one job on a runtime of its own (ParallelEnumerate); the serving daemon
/// holds one runtime and submits every session to it.
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
  /// Workers of ParallelEnumerate's runtime. A job submitted to a shared
  /// TaskRuntime runs on that runtime's workers and ignores this.
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
  /// every task pickup, cleared when the task ends — and a task running
  /// for more than this many seconds stops the run with
  /// Termination::kInternal. The bound is
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

/// One run on a TaskRuntime: which tasks, with which workers, into which
/// sink, under which controller, budget and frontier.
struct ParallelJob {
  WorkerFactory factory;
  ParallelOptions options;
  ResultSink* sink = nullptr;

  /// Seed tasks (EncodeTask words; a durable job's are its frontier's live
  /// tasks), dealt round-robin over the workers' deques in this order.
  /// Each owner pops the seed dealt to it last first; thieves take the
  /// first.
  std::vector<uint64_t> seeds;

  /// Fired exactly once, after the job's last task retired and every
  /// worker sink was flushed, with the merged counters and the job's
  /// first contained failure (null when none). Runs on a runtime worker,
  /// or inside Submit for a job with no task or a runtime already shut
  /// down.
  std::function<void(const EnumStats&, std::exception_ptr)> done;
};

/// A fixed fleet of workers executing any number of concurrent jobs.
///
/// Each job has its own per-worker deques (worker w owns deque w of every
/// job), its own failure latch and monitor thread (watchdog,
/// checkpointer), and counts its outstanding tasks; the worker that
/// retires the last one finishes the job. Fairness: at every pickup a
/// worker rotates to the next job with claimable work — it pops its own
/// deque of that job, then steals from the job's other deques — so a
/// giant job cannot starve a small one.
/// Workers that find no work anywhere block on a condition variable until
/// a job is submitted or finished, a split pushes shards, or Shutdown.
///
/// Isolation per task: the worker binds the job's MemoryBudget to its
/// thread, polls the job's controller (a stopped job's remaining tasks
/// retire as no-ops), and contains exceptions in the job's latch — a
/// failure becomes Termination::kInternal on the job's controller and
/// never touches another job.
class TaskRuntime {
 public:
  /// Starts `threads` workers (at least 1).
  explicit TaskRuntime(unsigned threads);

  /// Shutdown()s.
  ~TaskRuntime();

  TaskRuntime(const TaskRuntime&) = delete;
  TaskRuntime& operator=(const TaskRuntime&) = delete;

  unsigned threads() const { return num_workers_; }

  /// Seeds and starts `job`. Submitting to a runtime already shut down
  /// cancels the job (Termination::kCancelled on its controller) and
  /// finishes it on the calling thread, as does a job with no task.
  void Submit(ParallelJob job);

  /// Finishes every submitted job, then stops and joins the workers.
  /// Idempotent.
  void Shutdown();

 private:
  struct Job;

  void WorkerLoop(unsigned w);
  void RunTask(Job& job, unsigned w, uint64_t word, bool stolen);
  /// Flushes, snapshots and merges a job whose tasks all retired, removes
  /// it from the runtime, and fires its `done`.
  void FinishJob(Job& job);
  /// Bumps the epoch and wakes blocked workers: jobs_ changed, a split
  /// pushed shards, or Shutdown.
  void Wake();

  std::mutex mu_;
  std::condition_variable cv_;
  std::vector<std::shared_ptr<Job>> jobs_;  ///< guarded by mu_
  bool stop_ = false;                       ///< guarded by mu_
  /// Bumped under mu_ by Wake. Workers re-copy jobs_ when it moves (so
  /// claiming takes no lock) and block only while it still equals the
  /// value read before their last failed claim.
  std::atomic<uint64_t> epoch_{0};
  /// Workers currently without a task. Any starving worker lowers the
  /// split bar for everyone.
  std::atomic<unsigned> idle_workers_{0};

  /// Set before any worker starts (workers read it; workers_ is still
  /// growing while they do).
  const unsigned num_workers_;
  std::vector<std::thread> workers_;
};

/// The seed tasks of a run, in ascending order: the frontier's live tasks,
/// or (frontier null) the whole subtrees of right vertices [0, num_seeds).
std::vector<uint64_t> SeedTasks(uint64_t num_seeds,
                                const snapshot::TaskFrontier* frontier);

/// Runs the full enumeration of `graph` with `factory`-produced workers as
/// one job on a runtime of `options.threads` workers (fewer when there are
/// fewer seed tasks), seeded heaviest-subtree-first. Returns the merged
/// counters of all workers (including scheduler counters: steals,
/// split_tasks, sink_flushes, busy/idle time). A contained failure is
/// rethrown when there is no controller to report it to.
EnumStats ParallelEnumerate(const BipartiteGraph& graph,
                            const WorkerFactory& factory,
                            const ParallelOptions& options, ResultSink* sink);

}  // namespace mbe

#endif  // PMBE_PARALLEL_PARALLEL_MBE_H_
