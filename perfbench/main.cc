// perfbench — one run of one workload of the whole-system benchmark.
// perfbench/run.py builds this binary and drives it; see README.md there.
//
//   perfbench --workload=dense --seed=1 --seconds=15 --trace=0
//       --serve_bin=.bench_build/pmbe_serve --work_root=.bench_build
//       --references=perfbench/references.txt
//
// Prints one "metric" line per figure and, last, a "perfbench-record"
// JSON line with every figure, its unit and its sample count.
// --record_references prints the default seed's reference table instead.

#include <stdlib.h>

#include <cstdio>
#include <filesystem>
#include <string>

#include "bench.h"
#include "util/flags.h"

int main(int argc, char** argv) {
  mbe::util::FlagParser flags;
  flags.AddString("workload", "", "dense | skew-durable | serve-mix");
  flags.AddInt("seed", static_cast<int64_t>(perfbench::kDefaultSeed),
               "workload seed: graph generation and session order");
  flags.AddDouble("seconds", 10, "length of the measuring window");
  flags.AddInt("trace", 0, "1 = the traced run (per-layer figures)");
  flags.AddString("serve_bin", "", "pmbe_serve executable (serve-mix)");
  flags.AddString("work_root", ".", "directory for the run's temp dir");
  flags.AddString("references", "", "recorded default-seed references");
  flags.AddString("trace_path", "trace.jsonl", "where the traced run writes");
  flags.AddBool("record_references", false,
                "print the default seed's reference table and exit");
  flags.Parse(argc, argv);

  if (!perfbench::ReleaseBuild()) {
    std::fprintf(stderr,
                 "perfbench: refusing to measure a non-Release build; its "
                 "numbers are not comparable\n");
    return 2;
  }

  perfbench::Config config;
  config.workload = flags.GetString("workload");
  config.seed = static_cast<uint64_t>(flags.GetInt("seed"));
  config.seconds = flags.GetDouble("seconds");
  config.trace = flags.GetInt("trace") != 0;
  config.serve_bin = flags.GetString("serve_bin");
  config.trace_path = flags.GetString("trace_path");
  config.record_references = flags.GetBool("record_references");

  // Recording starts from an empty table, so a changed generator can be
  // re-recorded.
  perfbench::References refs;
  if (!config.record_references && !flags.GetString("references").empty() &&
      !refs.Load(flags.GetString("references"))) {
    std::fprintf(stderr, "perfbench: malformed reference file %s\n",
                 flags.GetString("references").c_str());
    return 2;
  }

  // Sockets and checkpoint files live in a fresh temp dir, removed at exit.
  std::string work = flags.GetString("work_root") + "/run-XXXXXX";
  if (mkdtemp(work.data()) == nullptr) {
    std::perror("perfbench: mkdtemp");
    return 2;
  }
  config.work_dir = work;

  std::vector<std::string> workloads = {config.workload};
  if (config.record_references) {
    config.seed = perfbench::kDefaultSeed;
    workloads = {"dense", "skew-durable", "serve-mix"};
  }
  std::printf("stamp: %s\n", perfbench::HostStamp().c_str());
  int exit_code = 0;
  for (const std::string& workload : workloads) {
    config.workload = workload;
    std::printf("workload: %s seed=%llu seconds=%g trace=%d\n",
                workload.c_str(), static_cast<unsigned long long>(config.seed),
                config.seconds, config.trace ? 1 : 0);
    std::fflush(stdout);
    perfbench::Report report;
    if (workload == "dense" || workload == "skew-durable") {
      report = perfbench::RunBatchWorkload(config, &refs);
    } else if (workload == "serve-mix") {
      report = perfbench::RunServeMix(config, &refs);
    } else {
      std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                   workload.c_str());
      exit_code = 2;
      break;
    }
    if (config.record_references) {
      for (const std::string& why : report.failures) {
        std::fprintf(stderr, "failed: %s\n", why.c_str());
      }
      if (!report.correct) exit_code = 1;
    } else {
      report.Print(stdout);
    }
  }
  if (config.record_references && exit_code == 0) {
    std::printf("%s", refs.Format().c_str());
  }
  std::error_code ec;
  std::filesystem::remove_all(work, ec);
  return exit_code;
}
