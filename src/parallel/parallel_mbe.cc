#include "parallel/parallel_mbe.h"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <exception>
#include <mutex>
#include <span>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/biclique.h"
#include "util/common.h"
#include "util/fault.h"
#include "util/memory.h"
#include "util/random.h"

namespace mbe {

namespace {

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// First-failure containment of a job. An exception escaping a worker
/// task, a sink flush or a snapshot write lands here: with a controller it
/// becomes Termination::kInternal (message preserved, the job's tasks
/// drain cooperatively); the first exception is handed to the job's
/// `done` either way (ParallelEnumerate rethrows it when there is no
/// controller).
struct FailureLatch {
  explicit FailureLatch(RunController* run_controller)
      : controller(run_controller) {}

  RunController* controller;
  std::atomic<bool> failed{false};
  std::mutex mu;
  std::exception_ptr first;

  /// `error` defaults to the exception being handled (call from a catch
  /// block).
  void Record(const std::string& what,
              std::exception_ptr error = std::current_exception()) {
    {
      std::lock_guard<std::mutex> lock(mu);
      if (!first) first = error;
    }
    failed.store(true, std::memory_order_release);
    if (controller != nullptr) controller->ReportInternal(what);
  }
};

/// Worker-local digest capture for frontier mode: accumulates the
/// commutative (sum, xor, count) digest of one task's emissions on their
/// way into the worker's BufferedSink, before batching erases task
/// boundaries. Reset at task pickup, committed to the frontier at task
/// completion. Not thread-safe — strictly worker-local, like the buffer
/// it wraps.
class TaskDigestSink : public ResultSink {
 public:
  explicit TaskDigestSink(ResultSink* inner) : inner_(inner) {}

  void Reset() { digest_ = snapshot::TaskDigest{}; }
  const snapshot::TaskDigest& digest() const { return digest_; }

  void Emit(std::span<const VertexId> left,
            std::span<const VertexId> right) override {
    const uint64_t h = HashBiclique(left, right);
    digest_.sum += h;
    digest_.xr ^= h;
    ++digest_.count;
    inner_->Emit(left, right);
  }

  // EmitBatch: the default per-entry fallback keeps the digest exact for
  // any engine that batches (the current engines emit singly).

  bool ShouldStop() const override { return inner_->ShouldStop(); }

 private:
  ResultSink* inner_;
  snapshot::TaskDigest digest_;
};

}  // namespace

/// One job's runtime state. Slot w belongs to runtime worker w: only that
/// worker pushes to or pops from its deque and touches its engine, buffer
/// and counters while tasks are in flight; the worker that retires the
/// last task reads every slot after the `remaining` handoff.
struct TaskRuntime::Job {
  Job(ParallelJob job_spec, unsigned workers, size_t seeds_per_worker)
      : spec(std::move(job_spec)),
        max_split(std::min<uint32_t>(
            std::max<uint32_t>(1, spec.options.max_split), kMaxTaskShards)),
        failure(spec.options.controller),
        slots(workers) {
    for (Slot& slot : slots) {
      slot.deque = std::make_unique<TaskDeque>(seeds_per_worker);
    }
  }

  /// One cache line or more per slot: each worker writes its own slot's
  /// counters and heartbeat at every task.
  struct alignas(64) Slot {
    std::unique_ptr<TaskDeque> deque;
    /// Built at this worker's first task of the job, under its budget.
    std::unique_ptr<SubtreeWorker> engine;
    std::unique_ptr<BufferedSink> buffer;
    std::unique_ptr<TaskDigestSink> digest;  ///< frontier jobs only
    uint64_t steals = 0;
    uint64_t split_tasks = 0;
    uint64_t busy_ns = 0;
    /// Watchdog heartbeat: pickup time of the running task, 0 when idle.
    std::atomic<uint64_t> task_start_ns{0};
  };

  bool stopped() const {
    const RunController* controller = spec.options.controller;
    return (controller != nullptr && controller->stop_requested()) ||
           failure.failed.load(std::memory_order_acquire) ||
           spec.sink->ShouldStop();
  }

  /// Persists the frontier to the checkpoint path. A failed write breaks
  /// the durability contract, so it is a contained failure.
  bool WriteSnapshot() {
    const util::Status written = snapshot::WriteSnapshotFile(
        spec.options.checkpoint.path, spec.options.frontier->BuildSnapshot());
    if (!written.ok()) {
      failure.Record(written.ToString(), std::make_exception_ptr(
                                             std::runtime_error(
                                                 written.ToString())));
      return false;
    }
    checkpoints_written.fetch_add(1, std::memory_order_relaxed);
    return true;
  }

  void StartMonitor();

  void StopMonitor() {
    {
      std::lock_guard<std::mutex> lock(monitor_mu);
      monitor_stop = true;
    }
    monitor_cv.notify_all();
    if (monitor.joinable()) monitor.join();
  }

  ParallelJob spec;
  const uint32_t max_split;
  FailureLatch failure;
  std::vector<Slot> slots;

  /// Seeded or split tasks not yet retired. The last decrement (acq_rel)
  /// orders every slot's writes before the finishing worker's reads.
  std::atomic<uint64_t> remaining{0};
  uint64_t submit_ns = 0;
  std::atomic<uint64_t> first_pickup_ns{0};

  std::thread monitor;
  std::mutex monitor_mu;
  std::condition_variable monitor_cv;
  bool monitor_stop = false;  ///< guarded by monitor_mu
  std::atomic<uint64_t> watchdog_checks{0};
  std::atomic<uint64_t> checkpoints_written{0};
};

// The job's monitor thread, started only when it has a duty:
//  * watchdog — sweeps the heartbeats and turns a task silent for longer
//    than the stall bound into a typed internal failure instead of an
//    indistinguishable hang (needs a controller to report to);
//  * checkpointer (frontier jobs) — persists the frontier every
//    `checkpoint.every_s` (quiescent-point snapshots: every frontier
//    transition is atomic, so a snapshot at any instant is consistent) and
//    polls the checkpoint-stop token into a typed kCheckpointed stop.
void TaskRuntime::Job::StartMonitor() {
  const ParallelOptions& options = spec.options;
  RunController* controller = options.controller;
  uint64_t stall_ns =
      controller != nullptr && options.watchdog_stall_seconds > 0
          ? static_cast<uint64_t>(options.watchdog_stall_seconds * 1e9)
          : 0;
  const bool persisting =
      options.frontier != nullptr && options.checkpoint.enabled();
  const std::atomic<bool>* stop_token =
      options.frontier != nullptr && controller != nullptr
          ? options.checkpoint.checkpoint_stop
          : nullptr;
  if (stall_ns == 0 && !persisting && stop_token == nullptr) return;
  uint64_t every_ns =
      persisting && options.checkpoint.every_s > 0
          ? static_cast<uint64_t>(options.checkpoint.every_s * 1e9)
          : 0;
  uint64_t period_ns =
      stall_ns != 0 ? std::min<uint64_t>(stall_ns / 4 + 1, 100'000'000)
                    : 100'000'000;
  if (persisting || stop_token != nullptr) {
    period_ns = std::min<uint64_t>(period_ns, 20'000'000);
  }
  monitor = std::thread([=, this]() mutable {
    uint64_t last_write = NowNs();
    std::unique_lock<std::mutex> lock(monitor_mu);
    while (!monitor_cv.wait_for(lock, std::chrono::nanoseconds(period_ns),
                                [&] { return monitor_stop; })) {
      const uint64_t now = NowNs();
      if (stall_ns != 0) {
        watchdog_checks.fetch_add(1, std::memory_order_relaxed);
        for (size_t w = 0; w < slots.size(); ++w) {
          const uint64_t beat =
              slots[w].task_start_ns.load(std::memory_order_relaxed);
          if (beat != 0 && now > beat && now - beat > stall_ns) {
            controller->ReportInternal(
                "watchdog: worker " + std::to_string(w) +
                " missed its heartbeat for over " +
                std::to_string(spec.options.watchdog_stall_seconds) + "s");
            stall_ns = 0;  // one report stops the job; its tasks drain
            break;
          }
        }
      }
      if (stop_token != nullptr && stop_token->load()) {
        controller->RequestStop(Termination::kCheckpointed);
        stop_token = nullptr;
      }
      if (every_ns != 0 && now - last_write >= every_ns) {
        last_write = now;
        if (!WriteSnapshot()) every_ns = 0;
      }
    }
  });
}

TaskRuntime::TaskRuntime(unsigned threads)
    : num_workers_(std::max(1u, threads)) {
  workers_.reserve(num_workers_);
  for (unsigned w = 0; w < num_workers_; ++w) {
    workers_.emplace_back([this, w] { WorkerLoop(w); });
  }
}

TaskRuntime::~TaskRuntime() { Shutdown(); }

void TaskRuntime::Submit(ParallelJob spec) {
  PMBE_CHECK(spec.sink != nullptr);
  const std::vector<uint64_t> seeds = std::move(spec.seeds);
  const unsigned workers = threads();
  auto job = std::make_shared<Job>(std::move(spec), workers,
                                   (seeds.size() + workers - 1) / workers);
  // Pushed by this thread before the job is published: the mutex below
  // orders the pushes before any worker's first pop or steal.
  for (uint64_t rank = 0; rank < seeds.size(); ++rank) {
    job->slots[rank % workers].deque->Push(seeds[rank]);
  }
  job->remaining.store(seeds.size(), std::memory_order_relaxed);
  job->submit_ns = NowNs();

  // Started before publication: once published, the job may finish (and
  // join its monitor) on a worker at any moment.
  job->StartMonitor();
  bool runtime_stopped = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    runtime_stopped = stop_;
    if (!runtime_stopped && !seeds.empty()) jobs_.push_back(job);
  }
  if (runtime_stopped || seeds.empty()) {
    // No worker will ever claim this job: finish it here. Its seeds stay
    // live in a frontier, so a cancelled durable job remains resumable.
    if (runtime_stopped && job->spec.options.controller != nullptr) {
      job->spec.options.controller->RequestStop(Termination::kCancelled);
    }
    FinishJob(*job);
    return;
  }
  Wake();
}

void TaskRuntime::Shutdown() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stop_) return;
    stop_ = true;
  }
  Wake();
  for (std::thread& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
}

void TaskRuntime::Wake() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    epoch_.fetch_add(1, std::memory_order_release);
  }
  cv_.notify_all();
}

void TaskRuntime::WorkerLoop(unsigned w) {
  // A private copy of jobs_, refreshed when the epoch moves, so claiming
  // takes no lock.
  std::vector<std::shared_ptr<Job>> jobs;
  uint64_t seen_epoch = ~uint64_t{0};
  size_t cursor = 0;
  util::Rng rng(0x5eedULL * (w + 1) + 0x9e3779b97f4a7c15ULL);
  bool idle = false;
  const unsigned workers = threads();

  // Rotation: starting at the job after the one that supplied the last
  // task, pop this worker's own deque of each job, then steal from that
  // job's other deques (random victims).
  auto claim = [&](uint64_t* word, bool* stolen) -> Job* {
    const size_t n = jobs.size();
    for (size_t i = 0; i < n; ++i) {
      const size_t at = (cursor + i) % n;
      Job& job = *jobs[at];
      *stolen = false;
      bool got = job.slots[w].deque->Pop(word);
      for (unsigned attempt = 0; attempt < workers && !got; ++attempt) {
        const unsigned victim = static_cast<unsigned>(rng.Below(workers));
        if (victim == w) continue;
        got = *stolen = job.slots[victim].deque->Steal(word);
      }
      if (got) {
        cursor = at + 1;
        return &job;
      }
    }
    return nullptr;
  };
  auto any_queued = [&] {
    for (const std::shared_ptr<Job>& job : jobs) {
      for (const Job::Slot& slot : job->slots) {
        if (slot.deque->SizeEstimate() > 0) return true;
      }
    }
    return false;
  };

  for (;;) {
    // Read before the claim: any push after this read bumps the epoch, so
    // a worker that then blocks is woken for it.
    const uint64_t epoch = epoch_.load(std::memory_order_acquire);
    if (epoch != seen_epoch) {
      std::lock_guard<std::mutex> lock(mu_);
      jobs = jobs_;
      seen_epoch = epoch;
    }
    uint64_t word = 0;
    bool stolen = false;
    if (Job* job = claim(&word, &stolen)) {
      if (idle) {
        idle_workers_.fetch_sub(1, std::memory_order_relaxed);
        idle = false;
      }
      RunTask(*job, w, word, stolen);
      continue;
    }
    if (!idle) {
      idle_workers_.fetch_add(1, std::memory_order_relaxed);
      idle = true;
    }
    // Block until something changes — unless lost steal races left work
    // queued. Spinning instead would take CPU from the threads that
    // produce and consume the results.
    if (any_queued()) {
      std::this_thread::yield();
      continue;
    }
    std::unique_lock<std::mutex> lock(mu_);
    if (stop_ && jobs_.empty()) break;
    cv_.wait(lock, [&] {
      return epoch_.load(std::memory_order_relaxed) != epoch;
    });
  }
  if (idle) idle_workers_.fetch_sub(1, std::memory_order_relaxed);
}

void TaskRuntime::RunTask(Job& job, unsigned w, uint64_t word, bool stolen) {
  const ParallelOptions& options = job.spec.options;
  snapshot::TaskFrontier* frontier = options.frontier;
  Job::Slot& slot = job.slots[w];
  StealTask task = DecodeTask(word);
  const uint64_t pickup_ns = NowNs();
  if (job.first_pickup_ns.load(std::memory_order_relaxed) == 0) {
    uint64_t unset = 0;
    job.first_pickup_ns.compare_exchange_strong(unset, pickup_ns,
                                                std::memory_order_relaxed);
  }
  if (stolen) ++slot.steals;
  // Attribute everything this task allocates — including the lazy engine
  // build — to the job's budget, not to whichever job this thread ran
  // before.
  util::ScopedBudgetBinding budget_binding(options.budget);
  slot.task_start_ns.store(pickup_ns, std::memory_order_relaxed);
  if (!job.stopped()) {
    try {
      // "worker.task" models a worker failing at pickup; "worker.stall"
      // pauses long enough for an armed watchdog (any stall bound below
      // ~200ms) to notice a transient hang.
      if (PMBE_FAULT("worker.task")) {
        throw util::FaultError("injected fault: worker.task");
      }
      if (PMBE_FAULT("worker.stall")) {
        std::this_thread::sleep_for(std::chrono::milliseconds(200));
      }
      if (slot.engine == nullptr) {
        slot.engine = job.spec.factory();
        slot.buffer = std::make_unique<BufferedSink>(
            job.spec.sink, options.sink_buffer_results,
            options.sink_buffer_bytes);
        // Frontier jobs interpose the per-task digest capture between the
        // engine and the buffer; volatile jobs keep the direct path.
        if (frontier != nullptr) {
          slot.digest = std::make_unique<TaskDigestSink>(slot.buffer.get());
        }
      }
      ResultSink* const task_sink =
          slot.digest ? static_cast<ResultSink*>(slot.digest.get())
                      : slot.buffer.get();
      if (slot.digest) slot.digest->Reset();
      if (task.num_shards == 1 && job.max_split > 1) {
        if (util::CurrentMemoryBudget().UnderPressure()) {
          // Degrade: decline the split — every shard re-pays the
          // subtree's root build, multiplying live state.
          util::CurrentMemoryBudget().NoteDegradation();
        } else {
          // Split at pickup: unconditionally above the configured work
          // bar, and at a quarter of it while any worker is starving.
          const uint64_t bar =
              idle_workers_.load(std::memory_order_relaxed) > 0
                  ? std::max<uint64_t>(1, options.split_min_work / 4)
                  : options.split_min_work;
          const uint32_t k = slot.engine->SplitHint(task.v, job.max_split, bar);
          if (k > 1) {
            PMBE_DCHECK(k <= job.max_split);
            // Record the split before any shard is visible to a thief:
            // the shard words must be live in the frontier before a thief
            // can steal and complete one.
            if (frontier != nullptr) frontier->RecordSplit(word, k);
            job.remaining.fetch_add(k - 1, std::memory_order_relaxed);
            for (uint32_t s = k; s-- > 1;) {
              // Push high shards first so the owner resumes on shard 1
              // and thieves take the later shards.
              slot.deque->Push(
                  EncodeTask({.v = task.v, .shard = s, .num_shards = k}));
            }
            ++slot.split_tasks;
            task.num_shards = k;
            Wake();
          }
        }
      }
      const uint64_t t0 = NowNs();
      slot.engine->EnumerateShard(task.v, task.shard, task.num_shards,
                                  task_sink);
      slot.busy_ns += NowNs() - t0;
      if (frontier != nullptr && !job.stopped() && !task_sink->ShouldStop()) {
        // The shard ran to its end: commit its digest, exactly once. A
        // stopped or truncated task stays live and re-runs in full on
        // resume — its digest was never committed, so nothing counts
        // twice.
        //
        // Durability barrier: deliver the task's buffered results to the
        // downstream sink *before* the frontier records the task
        // complete. Committing first would let a periodic snapshot claim
        // a task whose bicliques still sit in this worker's volatile
        // buffer — a SIGKILL before the next flush would lose them
        // permanently, since resume never re-runs completed tasks. A
        // throwing flush lands in the catch below, so the task stays live
        // and re-runs in full on resume.
        slot.buffer->Flush();
        frontier->MarkCompleted(EncodeTask(task), slot.digest->digest());
      }
    } catch (const std::exception& e) {
      job.failure.Record(e.what());
    } catch (...) {
      job.failure.Record("unknown exception in worker task");
    }
  }
  slot.task_start_ns.store(0, std::memory_order_relaxed);
  // Count down even when the stop flag skipped the enumeration: the drain
  // invariant is "every seeded or split task is retired once".
  if (job.remaining.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    FinishJob(job);
  }
}

void TaskRuntime::FinishJob(Job& job) {
  const ParallelOptions& options = job.spec.options;
  EnumStats merged;
  {
    util::ScopedBudgetBinding budget_binding(options.budget);
    // Buffered bicliques are genuine maximal bicliques and are delivered
    // even on cancellation (the valid-prefix contract of run control). A
    // sink failing here is contained like one failing mid-run: the
    // already-delivered results stay a valid prefix.
    for (Job::Slot& slot : job.slots) {
      if (slot.buffer == nullptr) continue;
      try {
        slot.buffer->Flush();
      } catch (const std::exception& e) {
        job.failure.Record(e.what());
      } catch (...) {
        job.failure.Record("unknown exception flushing worker sink");
      }
    }
    job.StopMonitor();
    // Final snapshot at drain — written on every exit path (clean finish,
    // cancellation, checkpointed stop, contained worker failure): the
    // frontier is consistent in all of them, and a snapshot with pending
    // tasks is exactly what makes the run resumable.
    if (options.frontier != nullptr && options.checkpoint.enabled()) {
      job.WriteSnapshot();
    }
    for (Job::Slot& slot : job.slots) {
      if (slot.engine) merged.MergeFrom(slot.engine->stats());
      if (slot.buffer) merged.sink_flushes += slot.buffer->flushes();
      merged.steals += slot.steals;
      merged.split_tasks += slot.split_tasks;
      merged.busy_ns += slot.busy_ns;
      // Destroy under the job's budget binding so arena releases pair
      // with their charges.
      slot.digest.reset();
      slot.buffer.reset();
      slot.engine.reset();
    }
  }
  merged.watchdog_checks = job.watchdog_checks.load(std::memory_order_relaxed);
  merged.checkpoints_written =
      job.checkpoints_written.load(std::memory_order_relaxed);
  if (const uint64_t first = job.first_pickup_ns.load(
          std::memory_order_relaxed);
      first != 0) {
    // Idle: worker time over the job's span not spent in its tasks.
    const uint64_t span = NowNs() - first;
    const uint64_t capacity = span * job.slots.size();
    merged.idle_ns = capacity > merged.busy_ns ? capacity - merged.busy_ns : 0;
    merged.queue_wait_ns = first > job.submit_ns ? first - job.submit_ns : 0;
  }

  {
    std::lock_guard<std::mutex> lock(mu_);
    std::erase_if(jobs_, [&](const std::shared_ptr<Job>& j) {
      return j.get() == &job;
    });
  }
  // Wake blocked workers so they drop their copy of the finished job.
  Wake();

  // Release the caller's captures before reporting: workers may hold the
  // finished job (its deques) until their next refresh.
  job.spec.factory = nullptr;
  auto done = std::exchange(job.spec.done, nullptr);
  if (done) done(merged, job.failure.first);
}

std::vector<uint64_t> SeedTasks(uint64_t num_seeds,
                                const snapshot::TaskFrontier* frontier) {
  if (frontier != nullptr) return frontier->PendingTasks();
  std::vector<uint64_t> seeds(num_seeds);
  for (uint64_t v = 0; v < num_seeds; ++v) {
    seeds[v] = EncodeTask(
        {.v = static_cast<VertexId>(v), .shard = 0, .num_shards = 1});
  }
  return seeds;
}

EnumStats ParallelEnumerate(const BipartiteGraph& graph,
                            const WorkerFactory& factory,
                            const ParallelOptions& options, ResultSink* sink) {
  PMBE_CHECK(sink != nullptr);
  // Frontier-driven runs skip the empty-graph early return so even a
  // trivially complete run writes its final snapshot.
  if (options.frontier == nullptr && graph.num_right() == 0) {
    return EnumStats{};
  }
  // Seeds: the whole right side for a volatile run; the frontier's live
  // set for a durable one (fresh seeds, a process shard of them, or a
  // restored snapshot's pending + in-flight tasks — completed tasks are
  // simply absent, which is how "never re-run" is enforced). Dealt
  // right-degree ascending, so each owner starts on its heaviest subtree
  // while thieves take the light tail. Degree is the cheap seeding proxy;
  // the cost model (EstimateSubtreeWork) needs the built root and is what
  // SplitHint uses at pickup.
  std::vector<uint64_t> seeds = SeedTasks(graph.num_right(), options.frontier);
  std::stable_sort(seeds.begin(), seeds.end(), [&](uint64_t a, uint64_t b) {
    return graph.RightDegree(DecodeTask(a).v) <
           graph.RightDegree(DecodeTask(b).v);
  });
  // No point starting more workers than there are seed tasks (splits can
  // add tasks later, but a resumed tail is typically short-lived anyway).
  TaskRuntime runtime(static_cast<unsigned>(std::min<uint64_t>(
      std::max(1u, options.threads), std::max<size_t>(1, seeds.size()))));
  EnumStats stats;
  std::exception_ptr failure;
  runtime.Submit(ParallelJob{
      .factory = factory,
      .options = options,
      .sink = sink,
      .seeds = std::move(seeds),
      .done = [&](const EnumStats& merged, std::exception_ptr first) {
        stats = merged;
        failure = first;
      }});
  runtime.Shutdown();  // returns once the job finished
  // Without a controller the first contained failure is rethrown here, so
  // it is never swallowed and never crosses a thread boundary raw.
  if (failure && options.controller == nullptr) std::rethrow_exception(failure);
  return stats;
}

}  // namespace mbe
