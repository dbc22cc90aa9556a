// Unit tests for the parallel enumeration driver.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <tuple>
#include <vector>

#include "api/mbe.h"
#include "core/mbet.h"
#include "gen/generators.h"
#include "parallel/parallel_mbe.h"

namespace mbe {
namespace {

// --- ParallelEnumerate --------------------------------------------------------

class CountingWorker : public SubtreeWorker {
 public:
  explicit CountingWorker(const BipartiteGraph& graph,
                          std::atomic<int>* created = nullptr)
      : engine_(graph, MbetOptions{}) {
    if (created != nullptr) created->fetch_add(1);
  }
  void EnumerateSubtree(VertexId v, ResultSink* sink) override {
    engine_.EnumerateSubtree(v, sink);
  }
  EnumStats stats() const override { return engine_.stats(); }

 private:
  MbetEnumerator engine_;
};

TEST(ParallelEnumerateTest, MergesStatsAcrossWorkers) {
  BipartiteGraph graph = gen::PowerLaw(150, 100, 800, 0.8, 0.8, 44);

  // Serial reference.
  CountSink serial_sink;
  MbetEnumerator serial(graph, MbetOptions{});
  serial.EnumerateAll(&serial_sink);

  std::atomic<int> created{0};
  ParallelOptions options;
  options.threads = 4;
  CountSink parallel_sink;
  EnumStats merged = ParallelEnumerate(
      graph,
      [&graph, &created]() {
        return std::make_unique<CountingWorker>(graph, &created);
      },
      options, &parallel_sink);

  EXPECT_EQ(parallel_sink.count(), serial_sink.count());
  EXPECT_EQ(merged.maximal, serial.stats().maximal);
  EXPECT_EQ(merged.nodes_expanded, serial.stats().nodes_expanded);
  EXPECT_EQ(merged.non_maximal, serial.stats().non_maximal);
  EXPECT_GE(created.load(), 1);
  EXPECT_LE(created.load(), 4);
}

TEST(ParallelEnumerateTest, EmptyGraph) {
  BipartiteGraph graph;
  ParallelOptions options;
  options.threads = 4;
  CountSink sink;
  EnumStats stats = ParallelEnumerate(
      graph,
      [&graph]() {
        return std::make_unique<CountingWorker>(graph);
      },
      options, &sink);
  EXPECT_EQ(sink.count(), 0u);
  EXPECT_EQ(stats.maximal, 0u);
}

// Split-capable worker: forwards the full SubtreeWorker surface to an
// MbetEnumerator (mirrors the api-layer adapter).
class SplittingWorker : public SubtreeWorker {
 public:
  explicit SplittingWorker(const BipartiteGraph& graph)
      : engine_(graph, MbetOptions{}) {}
  void EnumerateSubtree(VertexId v, ResultSink* sink) override {
    engine_.EnumerateSubtree(v, sink);
  }
  uint32_t SplitHint(VertexId v, uint32_t max_shards,
                     uint64_t min_work) override {
    return engine_.SplitHint(v, max_shards, min_work);
  }
  void EnumerateShard(VertexId v, uint32_t shard, uint32_t num_shards,
                      ResultSink* sink) override {
    engine_.EnumerateShard(v, shard, num_shards, sink);
  }
  EnumStats stats() const override { return engine_.stats(); }

 private:
  MbetEnumerator engine_;
};

TEST(WorkStealingDriverTest, SplitsHeavySubtreeAndMatchesSerial) {
  // Hub graph: subtree(0) holds nearly all work, plus a light tail.
  BipartiteGraph graph = gen::HubBlock(/*block_left=*/60, /*block_right=*/40,
                                       /*tail_left=*/60, /*tail_right=*/120,
                                       /*p_in=*/0.4, /*p_tail=*/0.02, 7);
  CountSink serial_sink;
  MbetEnumerator serial(graph, MbetOptions{});
  serial.EnumerateAll(&serial_sink);
  ASSERT_GT(serial_sink.count(), 100u);

  ParallelOptions options;
  options.threads = 8;
  options.split_min_work = 64;  // low bar so the hub subtree surely splits
  CountSink sink;
  EnumStats merged = ParallelEnumerate(
      graph,
      [&graph]() { return std::make_unique<SplittingWorker>(graph); },
      options, &sink);

  EXPECT_EQ(sink.count(), serial_sink.count());
  EXPECT_EQ(merged.maximal, serial.stats().maximal);
  EXPECT_GT(merged.split_tasks, 0u) << "hub subtree was never split";
  EXPECT_GT(merged.sink_flushes, 0u);
  EXPECT_GT(merged.busy_ns, 0u);
}

TEST(WorkStealingDriverTest, DefaultBarSplitsHubSubtree) {
  // In input order the hub is right vertex 0 and every other block vertex
  // is one of its candidates: one subtree of ~0.25 s predicted time. The
  // default ParallelOptions bar (64 ms) must split it.
  const BipartiteGraph graph =
      gen::HubBlock(80, 50, 120, 60, 0.4, 0.02, /*seed=*/3);
  Options options;
  options.order = VertexOrder::kNone;
  FingerprintSink serial_sink;
  RunResult serial;
  ASSERT_TRUE(Enumerate(graph, options, &serial_sink, &serial).ok());
  ASSERT_GT(serial_sink.count(), 1000u);

  options.threads = 4;
  FingerprintSink sink;
  RunResult run;
  ASSERT_TRUE(Enumerate(graph, options, &sink, &run).ok());
  EXPECT_EQ(run.termination, Termination::kComplete);
  EXPECT_GT(run.stats.split_tasks, 0u) << "hub subtree was never split";
  EXPECT_EQ(sink.count(), serial_sink.count());
  EXPECT_EQ(sink.Digest(), serial_sink.Digest());
}

TEST(WorkStealingDriverTest, SplitDisabledStillMatchesSerial) {
  BipartiteGraph graph = gen::HubBlock(40, 30, 40, 60, 0.4, 0.03, 8);
  CountSink serial_sink;
  MbetEnumerator serial(graph, MbetOptions{});
  serial.EnumerateAll(&serial_sink);

  ParallelOptions options;
  options.threads = 4;
  options.max_split = 1;  // stealing without splitting
  CountSink sink;
  EnumStats merged = ParallelEnumerate(
      graph,
      [&graph]() { return std::make_unique<SplittingWorker>(graph); },
      options, &sink);
  EXPECT_EQ(sink.count(), serial_sink.count());
  EXPECT_EQ(merged.split_tasks, 0u);
}

TEST(WorkStealingDriverTest, DefaultWorkerWithoutSplitSupport) {
  // CountingWorker inherits the SplitHint=1 default: the scheduler must
  // run every subtree whole and still match the serial result.
  BipartiteGraph graph = gen::PowerLaw(150, 100, 900, 0.85, 0.8, 46);
  CountSink serial_sink;
  MbetEnumerator serial(graph, MbetOptions{});
  serial.EnumerateAll(&serial_sink);

  ParallelOptions options;
  options.threads = 8;
  options.split_min_work = 1;  // an eager bar, but the worker can't split
  CountSink sink;
  EnumStats merged = ParallelEnumerate(
      graph, [&graph]() { return std::make_unique<CountingWorker>(graph); },
      options, &sink);
  EXPECT_EQ(sink.count(), serial_sink.count());
  EXPECT_EQ(merged.split_tasks, 0u);
  EXPECT_EQ(merged.nodes_expanded, serial.stats().nodes_expanded);
}

TEST(WorkStealingDriverTest, SingleThreadStealingMatchesSerial) {
  BipartiteGraph graph = gen::HubBlock(30, 25, 20, 40, 0.4, 0.05, 9);
  CountSink serial_sink;
  MbetEnumerator serial(graph, MbetOptions{});
  serial.EnumerateAll(&serial_sink);

  ParallelOptions options;
  options.threads = 1;
  options.split_min_work = 32;
  CountSink sink;
  EnumStats merged = ParallelEnumerate(
      graph,
      [&graph]() { return std::make_unique<SplittingWorker>(graph); },
      options, &sink);
  EXPECT_EQ(sink.count(), serial_sink.count());
  EXPECT_EQ(merged.steals, 0u) << "one worker has nobody to steal from";
}

// --- Scheduler coverage ------------------------------------------------------

// What a run asked its workers to do, tallied across all of them.
struct TaskLedger {
  static constexpr uint32_t kShards = 8;

  explicit TaskLedger(size_t n) : hits(n * kShards), shards_of(n), hints(n) {}

  std::vector<std::atomic<int>> hits;            // per (v, shard)
  std::vector<std::atomic<uint32_t>> shards_of;  // num_shards seen for v
  std::vector<std::atomic<int>> hints;           // SplitHint calls for v
  std::atomic<int> created{0};
  std::atomic<int> unpaired_shards{0};  // a hint not followed by its task
};

// Runs no enumeration: splits subtree v into 1 + v % 5 shards (capped by
// max_shards) whatever the bar, and records every call in the ledger.
class ScriptedWorker : public SubtreeWorker {
 public:
  explicit ScriptedWorker(TaskLedger* ledger) : ledger_(ledger) {
    ledger_->created.fetch_add(1);
  }
  void EnumerateSubtree(VertexId v, ResultSink*) override {
    Record(v, 0, 1);
  }
  uint32_t SplitHint(VertexId v, uint32_t max_shards, uint64_t) override {
    ledger_->hints[v].fetch_add(1);
    hinted_ = v;
    return std::min<uint32_t>(max_shards, 1 + v % 5);
  }
  void EnumerateShard(VertexId v, uint32_t shard, uint32_t num_shards,
                      ResultSink*) override {
    Record(v, shard, num_shards);
  }
  EnumStats stats() const override { return EnumStats{}; }

 private:
  static constexpr VertexId kNoHint = ~VertexId{0};

  void Record(VertexId v, uint32_t shard, uint32_t num_shards) {
    // An engine may keep the root its hint built for the one task that
    // follows on the same engine: that task must be shard 0 of the same v.
    if (hinted_ != kNoHint && (hinted_ != v || shard != 0)) {
      ledger_->unpaired_shards.fetch_add(1);
    }
    hinted_ = kNoHint;
    ledger_->hits[v * TaskLedger::kShards + shard].fetch_add(1);
    ledger_->shards_of[v].store(num_shards);
  }

  TaskLedger* ledger_;
  VertexId hinted_ = kNoHint;
};

// Runs the scheduler with ScriptedWorkers and checks that every subtree of
// `graph` ran exactly once, whole or as each of its shards exactly once.
void ExpectEveryTaskOnce(const BipartiteGraph& graph, unsigned threads,
                         uint32_t max_split) {
  const size_t n = graph.num_right();
  TaskLedger ledger(n);
  ParallelOptions options;
  options.threads = threads;
  options.max_split = max_split;
  CountSink sink;
  EnumStats merged = ParallelEnumerate(
      graph, [&ledger]() { return std::make_unique<ScriptedWorker>(&ledger); },
      options, &sink);

  // No more workers than there are threads or seed tasks; a run with no
  // task builds none.
  EXPECT_EQ(ledger.created.load() > 0, n > 0);
  EXPECT_LE(ledger.created.load(),
            static_cast<int>(std::min<size_t>(std::max(1u, threads), n)));
  EXPECT_EQ(ledger.unpaired_shards.load(), 0);
  uint64_t split_subtrees = 0;
  for (size_t v = 0; v < n; ++v) {
    // Only whole-subtree pickups ask for a hint, and only when splitting
    // is enabled.
    EXPECT_EQ(ledger.hints[v].load(), max_split > 1 ? 1 : 0) << "v=" << v;
    const uint32_t k =
        max_split > 1 ? std::min<uint32_t>(max_split, 1 + v % 5) : 1;
    if (k > 1) ++split_subtrees;
    EXPECT_EQ(ledger.shards_of[v].load(), k) << "v=" << v;
    for (uint32_t s = 0; s < TaskLedger::kShards; ++s) {
      EXPECT_EQ(ledger.hits[v * TaskLedger::kShards + s].load(),
                s < k ? 1 : 0)
          << "v=" << v << " shard " << s;
    }
  }
  EXPECT_EQ(merged.split_tasks, split_subtrees);
}

class StealingCoverageTest
    : public ::testing::TestWithParam<std::tuple<unsigned, uint32_t>> {};

TEST_P(StealingCoverageTest, EveryTaskRunsExactlyOnce) {
  const auto [threads, max_split] = GetParam();
  ExpectEveryTaskOnce(gen::PowerLaw(200, 2000, 6000, 0.8, 0.8, 47), threads,
                      max_split);
}

INSTANTIATE_TEST_SUITE_P(Configs, StealingCoverageTest,
                         ::testing::Combine(::testing::Values(1u, 2u, 4u, 7u),
                                            ::testing::Values(1u, 8u)));

TEST(StealingCoverageBasicTest, NoRightVertexRunsNoTask) {
  ExpectEveryTaskOnce(BipartiteGraph::FromEdges(5, 0, {}), /*threads=*/4,
                      /*max_split=*/8);
}

TEST(StealingCoverageBasicTest, ZeroThreadsRunsOneWorker) {
  ExpectEveryTaskOnce(gen::PowerLaw(40, 60, 200, 0.8, 0.8, 48),
                      /*threads=*/0, /*max_split=*/8);
}

TEST(StealingCoverageBasicTest, MoreThreadsThanTasks) {
  ExpectEveryTaskOnce(
      BipartiteGraph::FromEdges(4, 3, {{0, 0}, {1, 1}, {2, 2}, {3, 0}}),
      /*threads=*/16, /*max_split=*/8);
}

TEST(ParallelEnumerateTest, StopRequestHaltsWorkers) {
  BipartiteGraph graph = gen::PowerLaw(300, 200, 2000, 0.85, 0.8, 45);
  CountSink inner;
  BudgetSink budget(&inner, /*max_results=*/100, /*deadline_seconds=*/0);
  ParallelOptions options;
  options.threads = 4;
  ParallelEnumerate(
      graph,
      [&graph]() {
        return std::make_unique<CountingWorker>(graph);
      },
      options, &budget);
  // Workers poll ShouldStop between nodes; some overshoot is expected but
  // the run must terminate far short of the full result set.
  const uint64_t full = CountMaximalBicliques(graph, Options());
  EXPECT_GE(budget.emitted(), 100u);
  EXPECT_LT(budget.emitted(), full);
}

}  // namespace
}  // namespace mbe
