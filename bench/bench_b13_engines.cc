// B13 — engine head-to-head: MBET (prefix tree) vs iMBEA (baseline) vs BBK
// (pivot-free left extension) across the dataset registry. Every run
// asserts count identity across the three engines; the timings show where
// BBK's pivot-free traversal does or does not beat MBET's prefix tree
// (docs/ALGORITHM.md, "BBK").
//
// The JSON artifact (bench/BENCH_engines.json) records per dataset: wall
// time and node counts per engine, and how many datasets BBK at least ties
// MBET on (within 10%; the registry re-materializes per run, so sub-10%
// gaps are noise).

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/harness.h"
#include "util/stats.h"

namespace {

struct JsonRow {
  std::vector<std::pair<std::string, std::string>> fields;
};

void WriteRows(std::FILE* out, const char* key,
               const std::vector<JsonRow>& rows) {
  std::fprintf(out, "  \"%s\": [", key);
  for (size_t i = 0; i < rows.size(); ++i) {
    std::fprintf(out, "%s\n    {", i ? "," : "");
    for (size_t f = 0; f < rows[i].fields.size(); ++f) {
      std::fprintf(out, "%s\n      \"%s\": %s", f ? "," : "",
                   rows[i].fields[f].first.c_str(),
                   mbe::bench::JsonQuote(rows[i].fields[f].second).c_str());
    }
    std::fprintf(out, "\n    }");
  }
  std::fprintf(out, "\n  ]");
}

std::string Fmt(const char* fmt, double v) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), fmt, v);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace mbe;
  util::FlagParser flags;
  bench::AddCommonFlags(&flags);
  flags.AddInt("repeats", 3,
               "timing repeats per cell (the minimum is reported)");
  flags.Parse(argc, argv);
  const double scale = flags.GetDouble("scale");
  const double budget = flags.GetDouble("budget");
  const int repeats = std::max<int64_t>(1, flags.GetInt("repeats"));
  const unsigned threads = static_cast<unsigned>(flags.GetInt("threads"));

  bench::PrintBanner(
      "B13", "engine head-to-head: MBET vs iMBEA vs BBK");

  struct EngineCol {
    const char* label;
    Algorithm algorithm;
  };
  const EngineCol engines[] = {
      {"mbet", Algorithm::kMbet},
      {"imbea", Algorithm::kImbea},
      {"bbk", Algorithm::kBbk},
  };

  bench::Table table({"dataset", "bicliques", "mbet", "imbea", "bbk",
                      "bbk/mbet"});
  std::vector<JsonRow> rows;
  size_t bbk_ties = 0;
  bool counts_identical = true;

  for (const std::string& name :
       bench::ResolveSuite(flags.GetString("suite"))) {
    const gen::DatasetSpec& spec = gen::FindDataset(name);
    const BipartiteGraph graph = gen::Materialize(spec, scale);

    auto best_of = [&](const Options& options) {
      bench::RunOutcome best;
      for (int r = 0; r < repeats; ++r) {
        bench::RunOutcome run = bench::TimedRun(graph, options, budget);
        if (r == 0 || run.seconds < best.seconds) best = run;
      }
      return best;
    };

    std::vector<std::string> row = {spec.name, ""};
    double seconds[3] = {0, 0, 0};
    uint64_t nodes[3] = {0, 0, 0};
    uint64_t counts[3] = {0, 0, 0};
    bool all_completed = true;
    for (size_t e = 0; e < 3; ++e) {
      Options options;
      options.algorithm = engines[e].algorithm;
      options.threads = threads;
      const bench::RunOutcome run = best_of(options);
      seconds[e] = run.seconds;
      nodes[e] = run.stats.nodes_expanded;
      counts[e] = run.bicliques;
      all_completed = all_completed && run.completed;
      row[1] = std::to_string(run.bicliques);
      row.push_back(bench::TimeCell(run, budget));
    }
    // A budget-truncated run holds a valid prefix, not the full count;
    // identity is only checkable when all three engines finished.
    if (all_completed && (counts[0] != counts[1] || counts[0] != counts[2])) {
      counts_identical = false;
      std::fprintf(stderr,
                   "COUNT MISMATCH on %s: mbet=%llu imbea=%llu bbk=%llu\n",
                   spec.name.c_str(),
                   static_cast<unsigned long long>(counts[0]),
                   static_cast<unsigned long long>(counts[1]),
                   static_cast<unsigned long long>(counts[2]));
    }
    const double bbk_vs_mbet =
        seconds[2] > 0 ? seconds[0] / seconds[2] : 0.0;
    row.push_back(Fmt("%.2fx", bbk_vs_mbet));
    bbk_ties += seconds[2] <= seconds[0] * 1.10 ? 1 : 0;
    table.AddRow(std::move(row));

    rows.push_back(
        {{{"dataset", spec.name},
          {"bicliques", std::to_string(counts[0])},
          {"mbet_seconds", Fmt("%.6f", seconds[0])},
          {"imbea_seconds", Fmt("%.6f", seconds[1])},
          {"bbk_seconds", Fmt("%.6f", seconds[2])},
          {"mbet_nodes", std::to_string(nodes[0])},
          {"imbea_nodes", std::to_string(nodes[1])},
          {"bbk_nodes", std::to_string(nodes[2])},
          {"bbk_speedup_vs_mbet", Fmt("%.3f", bbk_vs_mbet)}}});
  }
  bench::EmitTable(table, flags);

  std::printf("\ncounts identical across engines: %s\n",
              counts_identical ? "yes" : "NO");
  std::printf("BBK at least ties MBET (within 10%%) on %zu/%zu datasets\n",
              bbk_ties, rows.size());

  if (!bench::JsonRecordingAllowed(flags)) return 1;
  if (const std::string json = flags.GetString("json"); !json.empty()) {
    std::FILE* out = std::fopen(json.c_str(), "w");
    if (out == nullptr) {
      std::fprintf(stderr, "cannot write JSON to %s\n", json.c_str());
      return 1;
    }
    char flag_summary[96];
    std::snprintf(flag_summary, sizeof(flag_summary),
                  "--suite %s --scale %g --budget %g --repeats %d",
                  flags.GetString("suite").c_str(), scale, budget, repeats);
    std::fprintf(out, "{\n");
    bench::WriteJsonContext(
        out, argv[0], flag_summary,
        "per-dataset wall time (minimum over the repeats) and node counts "
        "for the three engines (count-identity asserted at run time). "
        "bbk_ties counts the datasets where BBK's time is within 10% of "
        "MBET's or better. Engines differ in traversal, not output: the "
        "digest matrix (work_stealing_test, pmbe_selfcheck) proves the "
        "sets identical.");
    std::fprintf(out, ",\n  \"counts_identical\": %s,\n",
                 counts_identical ? "true" : "false");
    std::fprintf(out, "  \"bbk_ties\": %zu,\n", bbk_ties);
    std::fprintf(out, "  \"datasets_total\": %zu,\n", rows.size());
    WriteRows(out, "datasets", rows);
    std::fprintf(out, "\n}\n");
    std::fclose(out);
    std::printf("\n(json written to %s)\n", json.c_str());
  }
  return counts_identical ? 0 : 1;
}
