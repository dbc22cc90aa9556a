// Tests of the benchmark's own measurement code. Run with
// `python3 perfbench/run.py --selftest` (or the built perfbench_selftest).
// Exits non-zero on the first failed check.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "bench.h"
#include "gen/registry.h"

namespace {

int failures = 0;

void Check(bool ok, const char* what) {
  std::printf("%s: %s\n", ok ? "ok  " : "FAIL", what);
  if (!ok) ++failures;
}

std::shared_ptr<const mbe::Engine> BuildEngine(const std::string& dataset,
                                               double scale) {
  auto engine = mbe::Engine::Build(
      mbe::gen::Materialize(mbe::gen::FindDataset(dataset), scale),
      mbe::GraphOptions{});
  if (!engine.ok()) {
    std::fprintf(stderr, "build failed: %s\n",
                 engine.status().ToString().c_str());
    std::exit(1);
  }
  return std::move(engine).value();
}

// A run stopped by its deadline is a failed attempt: it adds no time, it
// counts toward failed_frac, and its short wall time is never reported.
void DeadlineStoppedRunIsAFailureNotATime() {
  auto engine = BuildEngine("GH", 1.0);  // seconds of work at any thread count
  mbe::RunOptions options;
  options.threads = 4;
  options.control.deadline_seconds = 0.05;
  const perfbench::QueryOutcome out =
      perfbench::RunQuery(engine, options, nullptr);
  Check(!out.ok, "deadline-stopped run is not ok");
  Check(out.result.termination == mbe::Termination::kDeadline,
        "termination is kDeadline");
  Check(out.failure.find("deadline") != std::string::npos,
        "failure names the deadline");

  perfbench::Report report;
  std::vector<double> seconds;
  Check(!perfbench::Book(out, "GH", &report, &seconds), "Book refuses it");
  Check(seconds.empty(), "no time sample recorded");
  Check(report.attempted == 1 && report.failed == 1 && !report.correct,
        "counted as attempted and failed");
  perfbench::AddCompletion(&report, seconds.size());
  bool failed_frac_is_one = false;
  for (const perfbench::Metric& m : report.metrics) {
    if (m.name == "failed_frac") failed_frac_is_one = m.value == 1.0;
  }
  Check(failed_frac_is_one, "failed_frac = 1 for the one stopped run");
}

void CompletedRunIsVerifiedAgainstItsReference() {
  auto engine = BuildEngine("Mti", 0.3);
  mbe::RunOptions single;
  const perfbench::QueryOutcome ref =
      perfbench::RunQuery(engine, single, nullptr);
  Check(ref.ok && ref.count > 0, "single-threaded reference completes");

  mbe::RunOptions parallel;
  parallel.threads = 4;
  perfbench::Reference good{ref.count, ref.digest};
  const perfbench::QueryOutcome match =
      perfbench::RunQuery(engine, parallel, &good);
  Check(match.ok && match.seconds > 0, "4-thread run matches the reference");

  perfbench::Reference wrong{ref.count, ref.digest ^ 1};
  const perfbench::QueryOutcome mismatch =
      perfbench::RunQuery(engine, parallel, &wrong);
  Check(!mismatch.ok, "a digest mismatch is a failure");

  perfbench::Report report;
  std::vector<double> seconds;
  perfbench::Book(match, "Mti", &report, &seconds);
  perfbench::Book(mismatch, "Mti", &report, &seconds);
  Check(seconds.size() == 1 && report.attempted == 2 && report.failed == 1,
        "only the verified run contributes a time");
}

void PercentilesAreNearestRank() {
  std::vector<double> v;
  for (int i = 100; i >= 1; --i) v.push_back(i);
  Check(perfbench::Percentile(v, 95) == 95, "p95 of 1..100 is 95");
  Check(perfbench::Percentile(v, 50) == 50, "p50 of 1..100 is 50");
  Check(perfbench::Median(v) == 50.5, "median of 1..100 is 50.5");
  Check(perfbench::Percentile({7}, 95) == 7, "p95 of one sample is it");
  Check(perfbench::Median({}) == 0, "median of nothing is 0");
}

void SelfTimeSubtractsTheUnionOfChildren() {
  perfbench::Tracer tracer(true);
  const int64_t parent = tracer.Add("parent", "client", 0, 10, -1, 1);
  tracer.Add("a", "serve", 1, 3, parent, 1);
  tracer.Add("b", "serve", 2, 5, parent, 1);   // overlaps a
  tracer.Add("c", "serve", 8, 12, parent, 1);  // runs past the parent
  tracer.Event("first result", "client", 4, parent, 1);
  const auto self = tracer.SelfSecondsByLayer();
  Check(std::abs(self.at("client") - 4) < 1e-12,
        "parent self time = 10 - |[1,5] u [8,10]|");
  Check(std::abs(self.at("serve") - 9) < 1e-12, "children keep their own time");

  perfbench::Tracer off(false);
  Check(off.Begin("x", "api") == -1 && off.size() == 0,
        "a disabled tracer records nothing");
}

void ReferencesRoundTrip() {
  perfbench::References refs;
  refs.Put("1/GH/all", perfbench::Reference{150372, 0x549a847b9c243d46ULL});
  const std::string path = "selftest-references.txt";
  if (std::FILE* f = std::fopen(path.c_str(), "w")) {
    std::fputs(refs.Format().c_str(), f);
    std::fclose(f);
  }
  perfbench::References loaded;
  Check(loaded.Load(path), "reference file parses");
  const perfbench::Reference* r = loaded.Find("1/GH/all");
  Check(r != nullptr && r->count == 150372 && r->digest == 0x549a847b9c243d46ULL,
        "reference survives Format/Load");
  std::remove(path.c_str());
}

}  // namespace

int main() {
  DeadlineStoppedRunIsAFailureNotATime();
  CompletedRunIsVerifiedAgainstItsReference();
  PercentilesAreNearestRank();
  SelfTimeSubtractsTheUnionOfChildren();
  ReferencesRoundTrip();
  std::printf("%s\n", failures == 0 ? "selftest passed" : "selftest FAILED");
  return failures == 0 ? 0 : 1;
}
