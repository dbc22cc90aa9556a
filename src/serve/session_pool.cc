#include "serve/session_pool.h"

#include <algorithm>
#include <utility>

#include "util/fault.h"

namespace mbe::serve {

namespace {

uint64_t ElapsedNs(std::chrono::steady_clock::time_point since) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - since)
          .count());
}

}  // namespace

SessionPool::SessionPool(unsigned threads) {
  const unsigned n = std::max(1u, threads);
  workers_.reserve(n);
  for (unsigned i = 0; i < n; ++i) {
    workers_.emplace_back([this, i] { WorkerLoop(i); });
  }
}

SessionPool::~SessionPool() { Shutdown(); }

void SessionPool::Submit(std::shared_ptr<Session> session,
                         DoneCallback done) {
  auto active = std::make_shared<ActiveSession>();
  active->session = std::move(session);
  active->done = std::move(done);
  active->submit_time = std::chrono::steady_clock::now();
  const size_t tasks = active->session->task_count();
  active->remaining.store(tasks, std::memory_order_relaxed);
  active->per_worker.resize(workers_.size());

  // Read stop_ only under mu_: Shutdown writes it under the lock from
  // another thread.
  bool pool_stopped = false;
  bool inline_finish = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stop_) {
      // The pool's workers are gone; honor the done-exactly-once contract
      // on the calling thread, as a cancelled empty run.
      pool_stopped = true;
      inline_finish = true;
    } else if (tasks == 0) {
      // Nothing to claim (empty right side): never enters the ring, so
      // finish directly.
      inline_finish = true;
    } else {
      ring_.push_back(std::move(active));
    }
  }
  if (inline_finish) {
    if (pool_stopped) active->session->Cancel();
    util::ScopedBudgetBinding binding(&active->session->budget());
    RunResult result;
    active->session->Finish(&result);
    if (active->done) active->done(result);
    return;
  }
  cv_.notify_all();
}

void SessionPool::Shutdown() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stop_) return;
    stop_ = true;
  }
  cv_.notify_all();
  for (std::thread& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
}

void SessionPool::WorkerLoop(size_t worker_index) {
  for (;;) {
    std::shared_ptr<ActiveSession> active;
    size_t first = 0;
    size_t count = 0;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [&] { return stop_ || !ring_.empty(); });
      if (ring_.empty()) return;  // stop_ and fully drained
      if (cursor_ >= ring_.size()) cursor_ = 0;
      active = ring_[cursor_];
      const size_t total = active->session->task_count();
      first = active->next_task;
      // A stopped session's remaining tasks are pure bookkeeping: sweep
      // them in one claim instead of one lock round per subtree. Only the
      // cached flag is consulted here — see ActiveSession::stopped.
      count = active->stopped.load(std::memory_order_relaxed)
                  ? total - first
                  : 1;
      active->next_task += count;
      if (active->next_task >= total) {
        ring_.erase(ring_.begin() + cursor_);
      } else {
        ++cursor_;  // round-robin: next claim goes to the next session
      }
      if (cursor_ >= ring_.size()) cursor_ = 0;
    }
    if (count == 1) {
      RunTask(*active, worker_index, first);
    } else {
      RecordFirstClaim(*active);  // a session can stop before any task ran
    }
    Retire(active, count);
  }
}

void SessionPool::RecordFirstClaim(ActiveSession& active) {
  if (!active.first_claimed.exchange(true, std::memory_order_acq_rel)) {
    EnumStats wait_stats;
    wait_stats.queue_wait_ns = ElapsedNs(active.submit_time);
    active.session->AddWorkerStats(wait_stats);
  }
}

void SessionPool::RunTask(ActiveSession& active, size_t worker_index,
                          size_t task) {
  RecordFirstClaim(active);
  Session& session = *active.session;
  // Everything this task allocates — including lazy worker construction —
  // is charged to the owning session's budget, not to whichever session
  // the previous task on this thread belonged to.
  util::ScopedBudgetBinding binding(&session.budget());
  RunController* ctrl = session.controller();
  try {
    if (!session.run_sink()->ShouldStop()) {
      // Same fault point the standalone parallel driver guards its task
      // pickup with: the serve fault leg (scripts/check.sh) proves an
      // injected task failure is contained to this one session.
      if (PMBE_FAULT("worker.task")) {
        throw util::FaultError("injected fault: worker.task");
      }
      ActiveSession::WorkerState& slot = active.per_worker[worker_index];
      if (slot.worker == nullptr) {
        slot.worker = session.MakeWorker();
        slot.sink = std::make_unique<BufferedSink>(session.run_sink());
      }
      slot.worker->EnumerateSubtree(static_cast<VertexId>(task),
                                    slot.sink.get());
    }
  } catch (const std::exception& e) {
    // Containment: this session converts to Termination::kInternal (its
    // already-flushed results stay a valid prefix); every other session on
    // the pool is untouched.
    if (ctrl != nullptr) ctrl->ReportInternal(e.what());
  } catch (...) {
    if (ctrl != nullptr) ctrl->ReportInternal("unknown exception");
  }
  // Publish a newly tripped stop (cancel/deadline/budget/sink failure) so
  // the next claim sweeps the session's remaining tasks in one go.
  if (session.run_sink()->ShouldStop()) {
    active.stopped.store(true, std::memory_order_relaxed);
  }
}

void SessionPool::Retire(const std::shared_ptr<ActiveSession>& active,
                         size_t count) {
  if (active->remaining.fetch_sub(count, std::memory_order_acq_rel) !=
      count) {
    return;
  }
  // Last task retired: zero tasks are in flight, and the acq_rel handoff
  // above ordered every worker's slot writes before these reads.
  Session& session = *active->session;
  util::ScopedBudgetBinding binding(&session.budget());
  RunController* ctrl = session.controller();
  for (ActiveSession::WorkerState& slot : active->per_worker) {
    if (slot.sink == nullptr) continue;
    try {
      // Buffered bicliques are genuine maximal bicliques: flushing them on
      // cancelled/limited sessions preserves the valid-prefix guarantee.
      slot.sink->Flush();
    } catch (const std::exception& e) {
      if (ctrl != nullptr) ctrl->ReportInternal(e.what());
    } catch (...) {
      if (ctrl != nullptr) ctrl->ReportInternal("unknown exception");
    }
  }
  for (ActiveSession::WorkerState& slot : active->per_worker) {
    if (slot.worker != nullptr) {
      session.AddWorkerStats(slot.worker->stats());
    }
    // Destroy under the session's budget binding so arena releases pair
    // with their charges.
    slot.sink.reset();
    slot.worker.reset();
  }
  RunResult result;
  session.Finish(&result);
  if (active->done) active->done(result);
}

}  // namespace mbe::serve
