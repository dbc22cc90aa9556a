// The batch workloads, `dense` and `skew-durable`: standalone
// Session::Run over generated graphs, 4 threads, work-stealing scheduler.

#include <unistd.h>

#include <algorithm>
#include <cinttypes>
#include <filesystem>
#include <fstream>
#include <functional>
#include <numeric>
#include <sstream>

#include "bench.h"
#include "gen/generators.h"
#include "gen/registry.h"
#include "util/memory.h"

namespace perfbench {

// --- Oracle -------------------------------------------------------------------

void TimedFingerprintSink::MarkFirst() {
  if (!seen_.exchange(true, std::memory_order_acq_rel)) {
    first_.store(Now() - start_, std::memory_order_release);
  }
}

void TimedFingerprintSink::Emit(std::span<const mbe::VertexId> left,
                                std::span<const mbe::VertexId> right) {
  MarkFirst();
  fingerprint_.Emit(left, right);
}

void TimedFingerprintSink::EmitBatch(const mbe::BicliqueBatch& batch) {
  if (batch.size() == 0) return;
  MarkFirst();
  fingerprint_.EmitBatch(batch);
}

double TimedFingerprintSink::first_result_seconds() const {
  return first_.load(std::memory_order_acquire);
}

bool References::Load(const std::string& path) {
  std::ifstream in(path);
  if (!in) return true;  // no recorded table: every reference is computed
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::string seed, graph, query, digest;
    Reference ref;
    if (!(fields >> seed >> graph >> query >> ref.count >> digest)) {
      return false;
    }
    ref.digest = std::stoull(digest, nullptr, 16);
    table_[seed + "/" + graph + "/" + query] = ref;
  }
  return true;
}

const Reference* References::Find(const std::string& key) const {
  auto it = table_.find(key);
  return it == table_.end() ? nullptr : &it->second;
}

std::string References::Format() const {
  std::string out;
  char buf[64];
  for (const auto& [key, ref] : table_) {
    std::string line = key;
    std::replace(line.begin(), line.end(), '/', ' ');
    std::snprintf(buf, sizeof(buf), " %" PRIu64 " %016" PRIx64 "\n", ref.count,
                  ref.digest);
    out += line + buf;
  }
  return out;
}

QueryOutcome RunQuery(const std::shared_ptr<const mbe::Engine>& engine,
                      const mbe::RunOptions& options, const Reference* ref) {
  QueryOutcome out;
  mbe::Session session(engine, options);
  const double start = Now();
  TimedFingerprintSink sink(start);
  const mbe::util::Status status = session.Run(&sink, &out.result);
  const double end = Now();
  out.count = sink.count();
  out.digest = sink.digest();
  out.ttfr_seconds = sink.first_result_seconds();
  if (!status.ok()) {
    out.failure = "run refused: " + status.ToString();
  } else if (!out.result.complete()) {
    out.failure = std::string("run stopped early: ") +
                  mbe::TerminationName(out.result.termination);
  } else if (ref != nullptr &&
             (out.count != ref->count || out.digest != ref->digest)) {
    out.failure = "result stream differs from the reference (count " +
                  std::to_string(out.count) + " vs " +
                  std::to_string(ref->count) + ")";
  } else if (options.checkpoint.enabled() && out.result.frontier_pending != 0) {
    out.failure = "durable run left " +
                  std::to_string(out.result.frontier_pending) +
                  " pending tasks";
  } else {
    out.ok = true;
    out.seconds = end - start;
  }
  return out;
}

bool Book(const QueryOutcome& out, const std::string& what, Report* report,
          std::vector<double>* seconds) {
  ++report->attempted;
  if (!out.ok) {
    report->Fail(what + ": " + out.failure);
    return false;
  }
  seconds->push_back(out.seconds);
  return true;
}

void AddCompletion(Report* report, size_t completed) {
  const double attempted = static_cast<double>(report->attempted);
  report->Add("completed_frac", attempted > 0 ? completed / attempted : 0,
              "frac", report->attempted);
  report->Add("failed_frac",
              attempted > 0 ? static_cast<double>(report->failed) / attempted : 0,
              "frac", report->attempted);
}

namespace {

// --- Workload definitions ---------------------------------------------------

constexpr unsigned kThreads = 4;
constexpr int kSetupReps = 5;
constexpr int kMinRounds = 3;
constexpr int kMaxRounds = 200;
// Periodic snapshots several times per graph on skew-durable.
constexpr double kCheckpointEverySeconds = 0.1;
// A timed run past this is stopped by its deadline and counts as failed.
constexpr double kRunDeadlineSeconds = 60;

struct BatchGraph {
  std::string label;
  bool hub = false;  // one subtree holds nearly every biclique
  std::string gen_span;
  std::function<mbe::BipartiteGraph(uint64_t seed)> make;
  mbe::GraphOptions options;
};

mbe::BipartiteGraph MaterializeSeeded(const std::string& name, uint64_t seed,
                                      double scale) {
  mbe::gen::DatasetSpec spec = mbe::gen::FindDataset(name);
  spec.seed = seed;
  return mbe::gen::Materialize(spec, scale);
}

BatchGraph Registry(const std::string& name) {
  return BatchGraph{name, false, "gen::Materialize",
                    [name](uint64_t seed) {
                      return MaterializeSeeded(name, seed, 1.0);
                    },
                    mbe::GraphOptions{}};
}

std::vector<BatchGraph> GraphsFor(const std::string& workload) {
  if (workload == "dense") return {Registry("GH")};
  // skew-durable. The hub graph keeps input ids (VertexOrder::kNone), so
  // the hub is right vertex 0 and its subtree holds nearly every biclique.
  BatchGraph hub{"hub100", true, "gen::HubBlock",
                 [](uint64_t seed) {
                   return mbe::gen::HubBlock(100, 60, 4000, 1600, 0.4, 0.0005,
                                             seed);
                 },
                 mbe::GraphOptions{}};
  hub.options.order = mbe::VertexOrder::kNone;
  return {Registry("WA"), Registry("Pa"), hub};
}

mbe::RunOptions BaseOptions(unsigned threads) {
  mbe::RunOptions options;
  options.algorithm = mbe::Algorithm::kMbet;
  options.threads = threads;
  options.scheduling = mbe::Scheduling::kStealing;
  options.control.deadline_seconds = kRunDeadlineSeconds;
  return options;
}

// One single-threaded cooperative pass (the SessionPool execution path,
// driven from here): Prepare, one worker, every subtree task timed around
// EnumerateSubtree under the session's budget binding. Fills `ref` from
// the folded stream and `task_seconds` with per-task times.
std::string CooperativePass(const std::shared_ptr<const mbe::Engine>& engine,
                            const std::string& label, Tracer* tracer,
                            Reference* ref, std::vector<double>* task_seconds) {
  mbe::Session session(engine, BaseOptions(1));
  TimedFingerprintSink sink(Now());
  ScopedSpan root(tracer, "cooperative " + label, "api");
  {
    ScopedSpan span(tracer, "Session::Prepare", "api", root.id());
    if (auto status = session.Prepare(&sink); !status.ok()) {
      return "prepare refused: " + status.ToString();
    }
  }
  std::unique_ptr<mbe::SubtreeWorker> worker;
  {
    mbe::util::ScopedBudgetBinding binding(&session.budget());
    ScopedSpan span(tracer, "Session::MakeWorker", "core", root.id());
    worker = session.MakeWorker();
  }
  const size_t tasks = session.task_count();
  task_seconds->reserve(tasks);
  for (size_t v = 0; v < tasks; ++v) {
    if (session.run_sink()->ShouldStop()) break;
    mbe::util::ScopedBudgetBinding binding(&session.budget());
    const double start = Now();
    worker->EnumerateSubtree(static_cast<mbe::VertexId>(v),
                             session.run_sink());
    const double end = Now();
    tracer->Add("EnumerateSubtree", "core", start, end, root.id(), v);
    task_seconds->push_back(end - start);
  }
  mbe::RunResult result;
  {
    mbe::util::ScopedBudgetBinding binding(&session.budget());
    session.AddWorkerStats(worker->stats());
    worker.reset();
    ScopedSpan span(tracer, "Session::Finish", "api", root.id());
    session.Finish(&result);
  }
  if (!result.complete()) {
    return std::string("cooperative pass stopped early: ") +
           mbe::TerminationName(result.termination);
  }
  ref->count = sink.count();
  ref->digest = sink.digest();
  return "";
}

struct GraphRun {
  std::vector<double> seconds;       // completed timed runs only
  std::vector<double> traced;        // trace mode: the traced subset
  std::vector<double> untraced;      // trace mode: the untraced subset
  uint64_t count = 0;
  uint64_t frontier_digest = 0;
  bool frontier_digest_set = false;
  mbe::RunResult last;               // stats of the last completed run
  uint64_t snapshot_bytes = 0;
  std::vector<double> task_seconds;  // trace mode: the cooperative pass
};

}  // namespace

Report RunBatchWorkload(const Config& config, References* refs) {
  const std::vector<BatchGraph> graphs = GraphsFor(config.workload);
  const bool durable = config.workload == "skew-durable";
  Tracer tracer(config.trace);
  Report report;

  // 1. Set-up, repeated: generate every graph and build its engine.
  std::vector<double> setup_seconds, gen_seconds, build_seconds;
  std::vector<std::shared_ptr<const mbe::Engine>> engines(graphs.size());
  for (int rep = 0; rep < kSetupReps; ++rep) {
    double gen = 0, build = 0;
    const double start = Now();
    for (size_t g = 0; g < graphs.size(); ++g) {
      double t0 = Now();
      mbe::BipartiteGraph graph;
      {
        ScopedSpan span(&tracer, graphs[g].gen_span, "gen");
        graph = graphs[g].make(config.seed);
      }
      double t1 = Now();
      ScopedSpan span(&tracer, "Engine::Build", "api");
      auto engine = mbe::Engine::Build(graph, graphs[g].options);
      if (!engine.ok()) {
        report.Fail("Engine::Build " + graphs[g].label + ": " +
                    engine.status().ToString());
        return report;
      }
      engines[g] = std::move(engine).value();
      gen += t1 - t0;
      build += Now() - t1;
    }
    setup_seconds.push_back(Now() - start);
    gen_seconds.push_back(gen);
    build_seconds.push_back(build);
  }

  // 2. References: one single-threaded run per graph. In trace mode it is
  // the cooperative pass, which also yields the per-task profile.
  std::vector<GraphRun> runs(graphs.size());
  std::vector<Reference> expected(graphs.size());
  for (size_t g = 0; g < graphs.size(); ++g) {
    const std::string key =
        std::to_string(config.seed) + "/" + graphs[g].label + "/all";
    Reference computed;
    if (config.trace) {
      std::string why = CooperativePass(engines[g], graphs[g].label, &tracer,
                                        &computed, &runs[g].task_seconds);
      if (!why.empty()) {
        report.Fail(graphs[g].label + " reference: " + why);
        return report;
      }
    } else {
      QueryOutcome ref = RunQuery(engines[g], BaseOptions(1), nullptr);
      if (!ref.ok) {
        report.Fail(graphs[g].label + " reference: " + ref.failure);
        return report;
      }
      computed = Reference{ref.count, ref.digest};
    }
    if (const Reference* recorded = refs->Find(key);
        recorded != nullptr && (recorded->count != computed.count ||
                                recorded->digest != computed.digest)) {
      report.Fail(graphs[g].label +
                  ": single-threaded stream differs from the recorded "
                  "reference");
      return report;
    }
    refs->Put(key, computed);
    expected[g] = computed;
  }
  if (config.record_references) return report;

  // 3. Timed rounds: every graph once per round, until the measuring
  // window is used up. Completion is judged from each run's termination;
  // failed runs never contribute a time.
  std::vector<double> all_ttfr;
  const std::string ckpt_base = config.work_dir + "/checkpoint-";
  const double window_start = Now();
  int rounds = 0;
  double peak_rss = 0;
  while (rounds < kMaxRounds &&
         (rounds < kMinRounds || Now() - window_start < config.seconds)) {
    const bool traced = config.trace && rounds % 2 == 0;
    for (size_t g = 0; g < graphs.size(); ++g) {
      mbe::RunOptions options = BaseOptions(kThreads);
      const std::string ckpt = ckpt_base + graphs[g].label + ".pmbf";
      if (durable) {
        std::filesystem::remove(ckpt);
        options.checkpoint.path = ckpt;
        options.checkpoint.every_s = kCheckpointEverySeconds;
      }
      const int64_t span =
          traced ? tracer.Begin("Session::Run", "parallel", -1, rounds) : -1;
      QueryOutcome out = RunQuery(engines[g], options, &expected[g]);
      tracer.End(span);
      GraphRun& run = runs[g];
      if (out.ok && durable) {
        // Every repetition must end with the same frontier digest.
        if (run.frontier_digest_set &&
            run.frontier_digest != out.result.frontier_digest) {
          out.ok = false;
          out.failure = "frontier digest changed between repetitions";
        }
        run.frontier_digest = out.result.frontier_digest;
        run.frontier_digest_set = true;
        std::error_code ec;
        const auto bytes = std::filesystem::file_size(ckpt, ec);
        run.snapshot_bytes = ec ? 0 : bytes;
      }
      if (!Book(out, graphs[g].label + " round " + std::to_string(rounds),
                &report, &run.seconds)) {
        continue;
      }
      (traced ? run.traced : run.untraced).push_back(out.seconds);
      run.count = out.count;
      run.last = out.result;
      all_ttfr.push_back(out.ttfr_seconds * 1e3);
    }
    // Peak memory after a fixed number of rounds, so a faster program
    // (more rounds in the window) is not charged for allocator drift.
    if (++rounds == kMinRounds) peak_rss = PeakRssMb(getpid());
  }

  // 4. Metrics a user sees.
  double enum_s = 0;
  uint64_t results = 0;
  size_t completed = 0;
  for (size_t g = 0; g < graphs.size(); ++g) {
    const GraphRun& run = runs[g];
    std::printf("graph %-7s median %.4f s over %zu runs, %llu bicliques, "
                "%llu checkpoints in the last\n",
                graphs[g].label.c_str(), Median(run.seconds),
                run.seconds.size(), static_cast<unsigned long long>(run.count),
                static_cast<unsigned long long>(
                    run.last.stats.checkpoints_written));
    enum_s += Median(run.seconds);
    results += run.count;
    completed += run.seconds.size();
  }
  report.Add("setup_s", Median(setup_seconds), "s", setup_seconds.size());
  // MBE is output-sensitive: time per maximal biclique stays comparable
  // across seeds, whose graphs differ in how many bicliques they hold.
  report.Add("us_per_result", results > 0 ? enum_s * 1e6 / results : 0, "us",
             static_cast<size_t>(rounds));
  report.Add("ttfr_p50_ms", Median(all_ttfr), "ms", all_ttfr.size());
  report.Add("peak_rss_mb", peak_rss, "MB", 1);
  report.Add("enum_s", enum_s, "s", static_cast<size_t>(rounds));
  AddCompletion(&report, completed);
  if (!config.trace) return report;

  // 5. Traced run only: one volatile rerun per durable graph, then the
  // per-layer figures.
  double durable_overhead = 0;
  if (durable) {
    for (size_t g = 0; g < graphs.size(); ++g) {
      ScopedSpan span(&tracer, "Session::Run(volatile)", "parallel");
      QueryOutcome out =
          RunQuery(engines[g], BaseOptions(kThreads), &expected[g]);
      if (!out.ok) {
        report.Fail(graphs[g].label + " volatile rerun: " + out.failure);
        continue;
      }
      durable_overhead += Median(runs[g].seconds) - out.seconds;
    }
  }

  mbe::EnumStats total;
  double busy_wall = 0;
  uint64_t hub_splits = 0, snapshot_bytes = 0, frontier_completed = 0;
  double trace_overhead = 0;
  std::vector<double> task_seconds;
  double task_total = 0, task_max = 0, hub_task_share = 0;
  for (size_t g = 0; g < graphs.size(); ++g) {
    const GraphRun& run = runs[g];
    total.MergeFrom(run.last.stats);
    busy_wall += run.last.seconds;
    if (graphs[g].hub) hub_splits += run.last.stats.split_tasks;
    snapshot_bytes += run.snapshot_bytes;
    frontier_completed += run.last.frontier_completed;
    if (!run.traced.empty() && !run.untraced.empty()) {
      trace_overhead += Median(run.traced) - Median(run.untraced);
    }
    const std::vector<double>& t = run.task_seconds;
    task_seconds.insert(task_seconds.end(), t.begin(), t.end());
    const double graph_total = std::accumulate(t.begin(), t.end(), 0.0);
    const double graph_max = t.empty() ? 0 : *std::max_element(t.begin(), t.end());
    task_total += graph_total;
    task_max = std::max(task_max, graph_max);
    if (graphs[g].hub && graph_total > 0) hub_task_share = graph_max / graph_total;
  }
  auto ratio = [](double a, double b) { return b > 0 ? a / b : 0; };
  report.Add("gen.materialize_s", Median(gen_seconds), "s", setup_seconds.size());
  report.Add("api.engine_build_s", Median(build_seconds), "s",
             setup_seconds.size());
  report.Add("core.nodes_expanded", total.nodes_expanded, "count", 1);
  report.Add("core.maximal_ratio",
             ratio(total.maximal, total.maximal + total.non_maximal), "ratio", 1);
  report.Add("core.trie_probe_ratio",
             ratio(total.trie_probes, total.local_scan_size), "ratio", 1);
  report.Add("core.vertices_aggregated", total.vertices_aggregated, "count", 1);
  report.Add("core.bitmap_kernel_calls", total.bitmap_kernel_calls, "count", 1);
  report.Add("core.batch_candidates_classified",
             total.batch_candidates_classified, "count", 1);
  report.Add("core.sink_flushes", total.sink_flushes, "count", 1);
  report.Add("util.simd_intersect_calls", total.simd_intersect_calls, "count", 1);
  report.Add("util.simd_difference_calls", total.simd_difference_calls, "count",
             1);
  report.Add("util.simd_mask_calls", total.simd_mask_calls, "count", 1);
  report.Add("util.simd_word_calls", total.simd_word_calls, "count", 1);
  report.Add("util.simd_batch_calls", total.simd_batch_calls, "count", 1);
  report.Add("util.kernel_dispatch", total.kernel_dispatch, "level", 1);
  report.Add("parallel.busy_s", total.busy_ns * 1e-9, "s", 1);
  report.Add("parallel.idle_s", total.idle_ns * 1e-9, "s", 1);
  report.Add("parallel.busy_share",
             ratio(total.busy_ns * 1e-9, kThreads * busy_wall), "ratio", 1);
  report.Add("parallel.steals", total.steals, "count", 1);
  report.Add("parallel.split_tasks", total.split_tasks, "count", 1);
  report.Add("parallel.hub_split_tasks", hub_splits, "count", 1);
  report.Add("core.task_count", task_seconds.size(), "count", 1);
  report.Add("core.task_p50_ms", Median(task_seconds) * 1e3, "ms",
             task_seconds.size());
  report.Add("core.task_max_s", task_max, "s", task_seconds.size());
  report.Add("core.task_top1_share", ratio(task_max, task_total), "ratio",
             task_seconds.size());
  report.Add("core.hub_task_top1_share", hub_task_share, "ratio", 1);
  report.Add("snapshot.checkpoints_written", total.checkpoints_written, "count",
             1);
  report.Add("snapshot.file_bytes", snapshot_bytes, "bytes", 1);
  report.Add("snapshot.frontier_completed", frontier_completed, "count", 1);
  report.Add("snapshot.durable_overhead_s", durable_overhead, "s", 1);
  report.Add("core.arena_peak_bytes", total.arena_peak_bytes, "bytes", 1);
  report.Add("core.peak_charged_bytes", total.peak_charged_bytes, "bytes", 1);
  report.Add("trace.overhead_enum_s", trace_overhead, "s", 1);
  FinishTrace(tracer, config.trace_path, &report);
  return report;
}

}  // namespace perfbench
