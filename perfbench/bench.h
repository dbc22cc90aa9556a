#ifndef PMBE_PERFBENCH_BENCH_H_
#define PMBE_PERFBENCH_BENCH_H_

#include <sys/types.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "api/engine.h"
#include "api/session.h"
#include "core/sink.h"

/// \file
/// The whole-system benchmark (perfbench/README.md): three workloads run
/// through the library's and the pmbe_serve daemon's public APIs, every
/// result stream checked against a digest oracle, end-to-end metrics from
/// untraced runs and per-layer metrics from a separate traced run.

namespace perfbench {

// --- Statistics and host facts (metrics.cc) -------------------------------

/// Median of `values` (mean of the two middle values for even sizes);
/// 0 for an empty vector.
double Median(std::vector<double> values);

/// Nearest-rank percentile, `p` in (0, 100]; 0 for an empty vector.
double Percentile(std::vector<double> values, double p);

/// VmHWM (peak resident set) of process `pid` in MiB, from
/// /proc/<pid>/status; 0 when unreadable.
double PeakRssMb(pid_t pid);

/// One line naming the host and build: nproc, CPU model, SIMD dispatch
/// level, build type.
std::string HostStamp();

/// True when this binary (and so the library it links, built by the same
/// CMake project) was compiled with NDEBUG.
bool ReleaseBuild();

/// Seconds on the monotonic clock since an arbitrary process-wide epoch.
double Now();

// --- Results ----------------------------------------------------------------

/// One named figure a run reports.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  size_t samples = 0;  ///< how many measurements the figure summarizes
};

/// Everything one benchmark run prints.
struct Report {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;
  /// Why each failed attempt failed (printed, never silently dropped).
  std::vector<std::string> failures;

  void Add(const std::string& name, double value, const std::string& unit,
           size_t samples) {
    metrics.push_back(Metric{name, value, unit, samples});
  }
  /// Records why one attempted run or session failed (the caller counts
  /// the attempt); a failure never contributes a sample.
  void Fail(const std::string& why) {
    ++failed;
    correct = false;
    failures.push_back(why);
  }
  /// Human-readable metric lines followed by the full JSON record, which
  /// run.py turns into the result line.
  void Print(std::FILE* out) const;
};

// --- Tracing (trace.cc) -----------------------------------------------------

/// In-memory span recorder. Spans are recorded from the benchmark's own
/// code around calls into each layer's public API; nothing inside the
/// library is instrumented. Thread-safe. A disabled tracer records
/// nothing and every call is a no-op.
class Tracer {
 public:
  struct Span {
    std::string name;
    std::string layer;
    double start = 0;
    double end = -1;  ///< < start while the span is open; == start for events
    int64_t parent = -1;
    uint64_t request = 0;
  };

  explicit Tracer(bool enabled) : enabled_(enabled) {}

  /// Opens a span starting now; returns its id (-1 when disabled).
  int64_t Begin(const std::string& name, const std::string& layer,
                int64_t parent = -1, uint64_t request = 0);
  /// Closes span `id` now.
  void End(int64_t id);
  /// Records a complete span with known bounds (spans rebuilt from
  /// durations the server reports).
  int64_t Add(const std::string& name, const std::string& layer, double start,
              double end, int64_t parent, uint64_t request);
  /// A zero-length marker (e.g. the first result of a session).
  void Event(const std::string& name, const std::string& layer, double at,
             int64_t parent, uint64_t request);

  size_t size() const;
  /// Self time per layer: each closed span's duration minus the part of
  /// its interval covered by its children, summed by layer.
  std::map<std::string, double> SelfSecondsByLayer() const;
  /// Writes every span as JSON lines, preceded by a header line carrying
  /// `stamp`. Returns false on I/O failure.
  bool Write(const std::string& path, const std::string& stamp) const;

 private:
  const bool enabled_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;  // guarded by mu_; id == index
};

/// RAII span.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const std::string& name, const std::string& layer,
             int64_t parent = -1, uint64_t request = 0)
      : tracer_(tracer), id_(tracer->Begin(name, layer, parent, request)) {}
  ~ScopedSpan() { tracer_->End(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  int64_t id() const { return id_; }

 private:
  Tracer* tracer_;
  int64_t id_;
};

// --- Oracle and single queries (workloads.cc) ------------------------------

/// Folds a result stream into the order-independent FingerprintSink digest
/// and remembers when the first biclique arrived.
class TimedFingerprintSink : public mbe::ResultSink {
 public:
  explicit TimedFingerprintSink(double start) : start_(start) {}
  void Emit(std::span<const mbe::VertexId> left,
            std::span<const mbe::VertexId> right) override;
  void EmitBatch(const mbe::BicliqueBatch& batch) override;
  uint64_t count() const { return fingerprint_.count(); }
  uint64_t digest() const { return fingerprint_.Digest(); }
  /// Seconds from construction-time `start` to the first biclique; < 0
  /// when nothing arrived.
  double first_result_seconds() const;

 private:
  void MarkFirst();
  const double start_;
  std::atomic<bool> seen_{false};
  std::atomic<double> first_{-1};
  mbe::FingerprintSink fingerprint_;
};

/// Expected count and digest of one (seed, graph, query) stream.
struct Reference {
  uint64_t count = 0;
  uint64_t digest = 0;
};

/// Reference table keyed by "seed/graph/query". Loaded from the recorded
/// file for the default seed; filled by single-threaded runs otherwise.
class References {
 public:
  /// Reads `path` (lines "seed graph query count digest-hex"); a missing
  /// file is an empty table.
  bool Load(const std::string& path);
  const Reference* Find(const std::string& key) const;
  void Put(const std::string& key, Reference ref) { table_[key] = ref; }
  /// Lines in the Load format, for recording.
  std::string Format() const;

 private:
  std::map<std::string, Reference> table_;
};

/// Outcome of one standalone Session::Run.
struct QueryOutcome {
  /// True only when Run returned OK with Termination::kComplete and, when
  /// a reference was given, count and digest match it. Completion is read
  /// from the termination, never inferred from elapsed time.
  bool ok = false;
  std::string failure;   ///< why !ok
  double seconds = 0;    ///< wall time of Run; meaningful only when ok
  double ttfr_seconds = -1;
  uint64_t count = 0;
  uint64_t digest = 0;
  mbe::RunResult result;
};

/// Runs one standalone session over `engine` and checks it against `ref`
/// (may be null: no oracle, e.g. while computing a reference).
QueryOutcome RunQuery(const std::shared_ptr<const mbe::Engine>& engine,
                      const mbe::RunOptions& options, const Reference* ref);

/// Books one attempted run into `report`: a completed, verified run adds
/// its time to `*seconds` and returns true; anything else counts as failed
/// (with `what` and the reason) and adds no time.
bool Book(const QueryOutcome& out, const std::string& what, Report* report,
          std::vector<double>* seconds);

/// Adds completed_frac and failed_frac for `completed` of
/// report->attempted runs.
void AddCompletion(Report* report, size_t completed);

/// Adds the traced run's own figures (self time per layer, span count)
/// and writes the spans to `path`.
void FinishTrace(const Tracer& tracer, const std::string& path,
                 Report* report);

// --- Workloads --------------------------------------------------------------

struct Config {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string work_dir;         ///< fresh temp dir (sockets, checkpoints)
  std::string serve_bin;        ///< pmbe_serve executable
  std::string references_path;  ///< recorded default-seed references
  std::string trace_path;       ///< where the traced run writes its spans
  bool record_references = false;
};

/// The seed the recorded references belong to.
inline constexpr uint64_t kDefaultSeed = 1;

/// dense and skew-durable (workloads.cc).
Report RunBatchWorkload(const Config& config, References* refs);
/// serve-mix (serve_mix.cc).
Report RunServeMix(const Config& config, References* refs);

}  // namespace perfbench

#endif  // PMBE_PERFBENCH_BENCH_H_
