// Engine/Session API tests (api/engine.h, api/session.h) and sessions
// sharing one TaskRuntime (parallel/parallel_mbe.h): facade equivalence,
// run-once semantics, cancellation, per-session memory-budget isolation,
// multi-session digest identity, hub splitting and fairness on a shared
// runtime, and concurrent durable jobs.

#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "api/mbe.h"
#include "core/run_control.h"
#include "core/sink.h"
#include "gen/generators.h"
#include "parallel/parallel_mbe.h"

namespace mbe {
namespace {

std::shared_ptr<const Engine> BuildEngine(const BipartiteGraph& graph,
                                          const GraphOptions& options = {}) {
  auto engine = Engine::Build(graph, options);
  EXPECT_TRUE(engine.ok()) << engine.status().ToString();
  return std::move(engine).value();
}

/// Digest of one complete standalone run over `engine`.
uint64_t SoloDigest(const std::shared_ptr<const Engine>& engine,
                    const RunOptions& options, uint64_t* count = nullptr) {
  FingerprintSink sink;
  Session session(engine, options);
  RunResult result;
  EXPECT_TRUE(session.Run(&sink, &result).ok());
  EXPECT_TRUE(result.complete());
  if (count != nullptr) *count = sink.count();
  return sink.Digest();
}

/// Blocks until `n` done callbacks fired.
class Latch {
 public:
  explicit Latch(int n) : remaining_(n) {}
  void CountDown() {
    std::lock_guard<std::mutex> lock(mu_);
    if (--remaining_ == 0) cv_.notify_all();
  }
  void Wait() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] { return remaining_ == 0; });
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  int remaining_;
};

TEST(EngineSessionTest, MatchesFacadeForEveryAlgorithm) {
  const BipartiteGraph graph = gen::PowerLaw(30, 50, 250, 0.8, 0.8, 61);
  for (Algorithm algorithm :
       {Algorithm::kMbet, Algorithm::kMbetM, Algorithm::kMineLmbc,
        Algorithm::kMbea, Algorithm::kImbea, Algorithm::kOombeaLite}) {
    SCOPED_TRACE(AlgorithmName(algorithm));
    Options flat;
    flat.algorithm = algorithm;

    FingerprintSink facade_sink;
    RunResult facade_result;
    ASSERT_TRUE(Enumerate(graph, flat, &facade_sink, &facade_result).ok());
    ASSERT_TRUE(facade_result.complete());

    auto engine = BuildEngine(graph, flat.graph_options());
    FingerprintSink session_sink;
    Session session(engine, flat.run_options());
    RunResult session_result;
    ASSERT_TRUE(session.Run(&session_sink, &session_result).ok());
    EXPECT_TRUE(session_result.complete());
    EXPECT_EQ(session_sink.Digest(), facade_sink.Digest());
    EXPECT_EQ(session_sink.count(), facade_sink.count());
    EXPECT_EQ(session_result.stats.maximal, facade_result.stats.maximal);
  }
}

TEST(EngineSessionTest, EngineIsReusableAcrossSessions) {
  auto engine = BuildEngine(gen::ErdosRenyi(20, 20, 0.3, 5));
  const uint64_t first = SoloDigest(engine, RunOptions{});
  const uint64_t second = SoloDigest(engine, RunOptions{});
  EXPECT_EQ(first, second);
}

TEST(EngineSessionTest, SessionRunsOnlyOnce) {
  auto engine = BuildEngine(gen::ErdosRenyi(10, 10, 0.3, 5));
  Session session(engine, RunOptions{});
  FingerprintSink sink;
  ASSERT_TRUE(session.Run(&sink).ok());
  EXPECT_FALSE(session.Run(&sink).ok());
}

TEST(EngineSessionTest, NullSinkRejected) {
  auto engine = BuildEngine(gen::ErdosRenyi(5, 5, 0.5, 1));
  Session session(engine, RunOptions{});
  EXPECT_EQ(session.Run(nullptr).code(), util::StatusCode::kInvalidArgument);
}

TEST(EngineSessionTest, CancelBeforeRunStopsImmediately) {
  auto engine = BuildEngine(gen::PowerLaw(30, 50, 250, 0.8, 0.8, 61));
  Session session(engine, RunOptions{});
  session.Cancel();
  FingerprintSink sink;
  RunResult result;
  ASSERT_TRUE(session.Run(&sink, &result).ok());
  EXPECT_EQ(result.termination, Termination::kCancelled);
}

TEST(EngineSessionTest, QueryLooserThanBakedReductionRejected) {
  GraphOptions baked;
  baked.min_left = 2;
  baked.min_right = 2;
  auto engine = BuildEngine(gen::PowerLaw(30, 50, 250, 0.8, 0.8, 61), baked);
  ASSERT_EQ(engine->reduced_min_left(), 2u);
  ASSERT_EQ(engine->reduced_min_right(), 2u);

  RunOptions loose;  // min 1/1 would need bicliques the reduction removed
  Session session(engine, loose);
  FingerprintSink sink;
  EXPECT_EQ(session.Run(&sink).code(), util::StatusCode::kInvalidArgument);

  // An exactly-as-strict query runs and matches an unreduced engine
  // filtered to the same thresholds.
  RunOptions strict;
  strict.mbet.min_left = 2;
  strict.mbet.min_right = 2;
  const uint64_t reduced_digest = SoloDigest(engine, strict);
  auto unreduced =
      BuildEngine(gen::PowerLaw(30, 50, 250, 0.8, 0.8, 61), GraphOptions{});
  EXPECT_EQ(reduced_digest, SoloDigest(unreduced, strict));
}

TEST(EngineSessionTest, SessionIdTagsResult) {
  auto engine = BuildEngine(gen::ErdosRenyi(10, 10, 0.3, 5));
  Session session(engine, RunOptions{}, 42);
  FingerprintSink sink;
  RunResult result;
  ASSERT_TRUE(session.Run(&sink, &result).ok());
  EXPECT_EQ(result.session_id, 42u);
}

// The per-session budget satellite: one tenant exhausting its cap stops
// (and degrades) only its own run; a concurrent neighbor over the same
// engine completes bit-identically to a solo run.
TEST(EngineSessionTest, BudgetExhaustionIsContainedToOneSession) {
  const BipartiteGraph graph = gen::PowerLaw(60, 90, 700, 0.8, 0.8, 17);
  auto engine = BuildEngine(graph);
  uint64_t want_count = 0;
  const uint64_t want_digest = SoloDigest(engine, RunOptions{}, &want_count);
  ASSERT_GT(want_count, 0u);

  RunOptions capped;
  capped.max_memory_bytes = 1 << 12;  // 4 KiB: certain to be exceeded
  Session victim(engine, capped, 1);
  Session neighbor(engine, RunOptions{}, 2);

  FingerprintSink victim_sink, neighbor_sink;
  RunResult victim_result, neighbor_result;
  util::Status victim_status, neighbor_status;
  std::thread victim_thread([&] {
    victim_status = victim.Run(&victim_sink, &victim_result);
  });
  std::thread neighbor_thread([&] {
    neighbor_status = neighbor.Run(&neighbor_sink, &neighbor_result);
  });
  victim_thread.join();
  neighbor_thread.join();

  ASSERT_TRUE(victim_status.ok()) << victim_status.ToString();
  ASSERT_TRUE(neighbor_status.ok()) << neighbor_status.ToString();
  EXPECT_EQ(victim_result.termination, Termination::kMemoryLimit);
  EXPECT_LE(victim_result.stats.peak_charged_bytes, capped.max_memory_bytes);
  // The neighbor never saw the victim's exhaustion: complete, untouched
  // by degradation pressure, and bit-identical to the solo run.
  EXPECT_EQ(neighbor_result.termination, Termination::kComplete);
  EXPECT_EQ(neighbor_result.stats.degradations, 0u);
  EXPECT_EQ(neighbor_sink.Digest(), want_digest);
  EXPECT_EQ(neighbor_sink.count(), want_count);
}

// --- Sessions sharing one TaskRuntime ------------------------------------

/// Submits `session` to `runtime`, storing its result into `*out` and
/// counting `latch` down when it finishes.
void SubmitTo(TaskRuntime& runtime, Session& session, RunResult* out,
              Latch* latch) {
  session.Submit(runtime, [out, latch](const RunResult& r) {
    *out = r;
    latch->CountDown();
  });
}

TEST(SharedRuntimeTest, ManyConcurrentSessionsDigestIdentity) {
  const BipartiteGraph graph = gen::PowerLaw(40, 60, 400, 0.8, 0.8, 7);
  auto engine = BuildEngine(graph);
  const Algorithm algorithms[] = {Algorithm::kMbet, Algorithm::kImbea,
                                  Algorithm::kMineLmbc};
  uint64_t want_digest[3] = {};
  uint64_t want_count[3] = {};
  for (int a = 0; a < 3; ++a) {
    RunOptions options;
    options.algorithm = algorithms[a];
    want_digest[a] = SoloDigest(engine, options, &want_count[a]);
  }

  constexpr int kSessions = 9;
  TaskRuntime runtime(3);
  std::vector<std::shared_ptr<Session>> sessions;
  std::vector<std::unique_ptr<FingerprintSink>> sinks;
  std::vector<RunResult> results(kSessions);
  Latch latch(kSessions);
  for (int i = 0; i < kSessions; ++i) {
    RunOptions options;
    options.algorithm = algorithms[i % 3];
    sessions.push_back(std::make_shared<Session>(engine, options, i + 1));
    sinks.push_back(std::make_unique<FingerprintSink>());
    ASSERT_TRUE(sessions[i]->Prepare(sinks[i].get()).ok());
  }
  for (int i = 0; i < kSessions; ++i) {
    SubmitTo(runtime, *sessions[i], &results[i], &latch);
  }
  latch.Wait();
  runtime.Shutdown();

  for (int i = 0; i < kSessions; ++i) {
    SCOPED_TRACE(AlgorithmName(algorithms[i % 3]));
    EXPECT_EQ(results[i].termination, Termination::kComplete);
    EXPECT_EQ(results[i].session_id, static_cast<uint64_t>(i + 1));
    EXPECT_EQ(sinks[i]->Digest(), want_digest[i % 3]);
    EXPECT_EQ(sinks[i]->count(), want_count[i % 3]);
    EXPECT_EQ(results[i].results_emitted, want_count[i % 3]);
  }
}

TEST(SharedRuntimeTest, CancelStopsOnlyTheTargetedSession) {
  const BipartiteGraph graph = gen::PowerLaw(40, 60, 400, 0.8, 0.8, 7);
  auto engine = BuildEngine(graph);
  uint64_t want_count = 0;
  const uint64_t want_digest = SoloDigest(engine, RunOptions{}, &want_count);

  TaskRuntime runtime(2);
  Session cancelled(engine, RunOptions{}, 1);
  Session survivor(engine, RunOptions{}, 2);
  FingerprintSink cancelled_sink, survivor_sink;
  ASSERT_TRUE(cancelled.Prepare(&cancelled_sink).ok());
  ASSERT_TRUE(survivor.Prepare(&survivor_sink).ok());
  // Cancel lands before the runtime runs any task: deterministic outcome.
  cancelled.Cancel();

  RunResult cancelled_result, survivor_result;
  Latch latch(2);
  SubmitTo(runtime, cancelled, &cancelled_result, &latch);
  SubmitTo(runtime, survivor, &survivor_result, &latch);
  latch.Wait();
  runtime.Shutdown();

  EXPECT_EQ(cancelled_result.termination, Termination::kCancelled);
  EXPECT_EQ(cancelled_sink.count(), 0u);
  EXPECT_EQ(survivor_result.termination, Termination::kComplete);
  EXPECT_EQ(survivor_sink.Digest(), want_digest);
  EXPECT_EQ(survivor_sink.count(), want_count);
}

TEST(SharedRuntimeTest, PerSessionBudgetContainmentOnSharedWorkers) {
  // The shared-runtime variant of BudgetExhaustionIsContainedToOneSession:
  // both sessions' tasks interleave on the same runtime threads, so this
  // additionally proves the thread-local budget binding switches
  // correctly between tasks of different tenants.
  const BipartiteGraph graph = gen::PowerLaw(60, 90, 700, 0.8, 0.8, 17);
  auto engine = BuildEngine(graph);
  uint64_t want_count = 0;
  const uint64_t want_digest = SoloDigest(engine, RunOptions{}, &want_count);

  RunOptions capped;
  capped.max_memory_bytes = 1 << 12;
  TaskRuntime runtime(2);
  Session victim(engine, capped, 1);
  Session neighbor(engine, RunOptions{}, 2);
  FingerprintSink victim_sink, neighbor_sink;
  ASSERT_TRUE(victim.Prepare(&victim_sink).ok());
  ASSERT_TRUE(neighbor.Prepare(&neighbor_sink).ok());

  RunResult victim_result, neighbor_result;
  Latch latch(2);
  SubmitTo(runtime, victim, &victim_result, &latch);
  SubmitTo(runtime, neighbor, &neighbor_result, &latch);
  latch.Wait();
  runtime.Shutdown();

  EXPECT_EQ(victim_result.termination, Termination::kMemoryLimit);
  EXPECT_LE(victim_result.stats.peak_charged_bytes, capped.max_memory_bytes);
  EXPECT_EQ(neighbor_result.termination, Termination::kComplete);
  EXPECT_EQ(neighbor_result.stats.degradations, 0u);
  EXPECT_EQ(neighbor_sink.Digest(), want_digest);
  EXPECT_EQ(neighbor_sink.count(), want_count);
}

TEST(SharedRuntimeTest, SubmitAfterShutdownCancelsInline) {
  auto engine = BuildEngine(gen::ErdosRenyi(10, 10, 0.3, 5));
  TaskRuntime runtime(1);
  runtime.Shutdown();
  Session session(engine, RunOptions{}, 1);
  FingerprintSink sink;
  ASSERT_TRUE(session.Prepare(&sink).ok());
  bool done = false;
  RunResult result;
  session.Submit(runtime, [&](const RunResult& r) {
    result = r;
    done = true;
  });
  EXPECT_TRUE(done);
  EXPECT_EQ(result.termination, Termination::kCancelled);
  EXPECT_EQ(sink.count(), 0u);
}

/// The hub graph of the splitting tests: right vertex 0 is adjacent to the
/// whole dense block, so in input order its subtree holds nearly every
/// biclique and is predicted heavy enough to split under the default bar.
std::shared_ptr<const Engine> HubEngine() {
  GraphOptions input_order;
  input_order.order = VertexOrder::kNone;
  return BuildEngine(gen::HubBlock(80, 50, 120, 60, 0.4, 0.02, /*seed=*/3),
                     input_order);
}

TEST(SharedRuntimeTest, ServedHubSessionSplits) {
  auto engine = HubEngine();
  uint64_t want_count = 0;
  const uint64_t want_digest = SoloDigest(engine, RunOptions{}, &want_count);
  ASSERT_GT(want_count, 1000u);

  TaskRuntime runtime(4);
  Session hub(engine, RunOptions{}, 1);
  FingerprintSink sink;
  ASSERT_TRUE(hub.Prepare(&sink).ok());
  RunResult result;
  Latch latch(1);
  SubmitTo(runtime, hub, &result, &latch);
  latch.Wait();
  runtime.Shutdown();

  EXPECT_EQ(result.termination, Termination::kComplete);
  EXPECT_GT(result.stats.split_tasks, 0u) << "hub subtree was never split";
  EXPECT_EQ(sink.Digest(), want_digest);
  EXPECT_EQ(sink.count(), want_count);
}

/// Counts emissions into a FingerprintSink and signals the first one.
class FirstResultSink : public ResultSink {
 public:
  void Emit(std::span<const VertexId> left,
            std::span<const VertexId> right) override {
    inner_.Emit(left, right);
    if (!started_.exchange(true)) {
      std::lock_guard<std::mutex> lock(mu_);
      cv_.notify_all();
    }
  }
  void WaitForFirst() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] { return started_.load(); });
  }
  const FingerprintSink& inner() const { return inner_; }

 private:
  FingerprintSink inner_;
  std::atomic<bool> started_{false};
  std::mutex mu_;
  std::condition_variable cv_;
};

TEST(SharedRuntimeTest, SmallSessionOvertakesARunningHubSession) {
  // Workers rotate between jobs at every pickup, so a small session
  // submitted while the hub session holds every worker still runs at the
  // next pickups and finishes first.
  auto hub_engine = HubEngine();
  auto small_engine = BuildEngine(gen::ErdosRenyi(8, 3, 0.5, 5));
  uint64_t want_hub_count = 0;
  const uint64_t want_hub =
      SoloDigest(hub_engine, RunOptions{}, &want_hub_count);
  const uint64_t want_small = SoloDigest(small_engine, RunOptions{});

  TaskRuntime runtime(4);
  Session hub(hub_engine, RunOptions{}, 1);
  Session small(small_engine, RunOptions{}, 2);
  FirstResultSink hub_sink;
  FingerprintSink small_sink;
  ASSERT_TRUE(hub.Prepare(&hub_sink).ok());
  ASSERT_TRUE(small.Prepare(&small_sink).ok());

  std::mutex order_mu;
  std::vector<uint64_t> finish_order;
  Latch latch(2);
  auto record = [&](const RunResult& r) {
    {
      std::lock_guard<std::mutex> lock(order_mu);
      finish_order.push_back(r.session_id);
    }
    latch.CountDown();
  };
  hub.Submit(runtime, record);
  hub_sink.WaitForFirst();
  small.Submit(runtime, record);
  latch.Wait();
  runtime.Shutdown();

  ASSERT_EQ(finish_order.size(), 2u);
  EXPECT_EQ(finish_order[0], 2u) << "the small session waited for the hub";
  EXPECT_EQ(small_sink.Digest(), want_small);
  EXPECT_EQ(hub_sink.inner().Digest(), want_hub);
  EXPECT_EQ(hub_sink.inner().count(), want_hub_count);
}

/// Slows every emission, so a job cannot finish before its checkpointer
/// first polls the stop token.
class SlowSink : public ResultSink {
 public:
  void Emit(std::span<const VertexId> left,
            std::span<const VertexId> right) override {
    std::this_thread::sleep_for(std::chrono::microseconds(200));
    inner_.Emit(left, right);
  }

 private:
  FingerprintSink inner_;
};

std::string CheckpointPath(const char* tag) {
  return ::testing::TempDir() + "pmbe_shared_runtime_" +
         std::to_string(::getpid()) + "_" + tag + ".pmbf";
}

TEST(SharedRuntimeTest, ConcurrentDurableJobsStopAndResumeIndependently) {
  auto engine = HubEngine();
  auto durable = [](const std::string& path, bool resume,
                    const std::atomic<bool>* stop) {
    RunOptions options;
    options.checkpoint.path = path;
    options.checkpoint.every_s = 3600;
    options.checkpoint.resume = resume;
    options.checkpoint.checkpoint_stop = stop;
    return options;
  };
  const std::string ref_path = CheckpointPath("ref");
  const std::string stopped_path = CheckpointPath("stopped");
  const std::string other_path = CheckpointPath("other");
  for (const std::string& path : {ref_path, stopped_path, other_path}) {
    std::remove(path.c_str());
  }

  FingerprintSink ref_sink;
  Session reference(engine, durable(ref_path, false, nullptr));
  RunResult ref_result;
  ASSERT_TRUE(reference.Run(&ref_sink, &ref_result).ok());
  ASSERT_EQ(ref_result.termination, Termination::kComplete);
  ASSERT_NE(ref_result.frontier_digest, 0u);

  // Both jobs run on one runtime, each with its own frontier and
  // checkpoint path; only the first one's stop token is set.
  std::atomic<bool> stop_token{true};
  TaskRuntime runtime(4);
  Session stopped(engine, durable(stopped_path, false, &stop_token), 1);
  Session other(engine, durable(other_path, false, nullptr), 2);
  SlowSink stopped_sink;
  FingerprintSink other_sink;
  ASSERT_TRUE(stopped.Prepare(&stopped_sink).ok());
  ASSERT_TRUE(other.Prepare(&other_sink).ok());
  RunResult stopped_result, other_result;
  Latch latch(2);
  SubmitTo(runtime, stopped, &stopped_result, &latch);
  SubmitTo(runtime, other, &other_result, &latch);
  latch.Wait();
  runtime.Shutdown();

  EXPECT_EQ(stopped_result.termination, Termination::kCheckpointed);
  EXPECT_GT(stopped_result.frontier_pending, 0u);
  EXPECT_EQ(other_result.termination, Termination::kComplete);
  EXPECT_EQ(other_result.frontier_pending, 0u);
  EXPECT_EQ(other_result.frontier_digest, ref_result.frontier_digest);
  EXPECT_EQ(other_sink.Digest(), ref_sink.Digest());

  // The stopped job's final snapshot resumes to the reference digest.
  Session resumed(engine, durable(stopped_path, true, nullptr));
  FingerprintSink resumed_sink;
  RunResult resumed_result;
  ASSERT_TRUE(resumed.Run(&resumed_sink, &resumed_result).ok());
  EXPECT_EQ(resumed_result.termination, Termination::kComplete);
  EXPECT_EQ(resumed_result.frontier_pending, 0u);
  EXPECT_EQ(resumed_result.frontier_digest, ref_result.frontier_digest);

  for (const std::string& path : {ref_path, stopped_path, other_path}) {
    std::remove(path.c_str());
  }
}

}  // namespace
}  // namespace mbe
