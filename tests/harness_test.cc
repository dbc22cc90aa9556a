// Tests of the experiment harness (bench/harness.h): a run cut short by
// its time or result budget must never be reported as a completed time.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "bench/harness.h"
#include "gen/generators.h"

namespace mbe {
namespace {

// Dense uniform bipartite graphs have an exponential number of maximal
// bicliques: full enumeration is far beyond any test budget.
BipartiteGraph WorstCaseGraph() { return gen::ErdosRenyi(90, 90, 0.5, 11); }

TEST(TimedRunTest, DeadlineStoppedRunIsNotCompleted) {
  const BipartiteGraph graph = WorstCaseGraph();
  for (unsigned threads : {1u, 4u}) {
    Options options;
    options.threads = threads;
    const double budget = 0.05;
    const bench::RunOutcome run = bench::TimedRun(graph, options, budget);
    EXPECT_FALSE(run.completed) << "threads=" << threads;
    EXPECT_EQ(bench::TimeCell(run, budget).front(), '>');
  }
}

TEST(TimedRunTest, ResultBudgetStoppedRunIsNotCompleted) {
  Options options;
  const bench::RunOutcome run =
      bench::TimedRun(WorstCaseGraph(), options, /*budget_seconds=*/0,
                      /*max_results=*/10);
  EXPECT_FALSE(run.completed);
  EXPECT_EQ(run.bicliques, 10u);
}

TEST(TimedRunTest, RunWithinBudgetIsCompleted) {
  const BipartiteGraph graph = gen::ErdosRenyi(20, 20, 0.35, 9);
  Options options;
  const bench::RunOutcome run = bench::TimedRun(graph, options, 60);
  EXPECT_TRUE(run.completed);
  EXPECT_EQ(run.bicliques, CountMaximalBicliques(graph, options));
  EXPECT_NE(bench::TimeCell(run, 60).front(), '>');
}

TEST(ResolveSuiteTest, NamedSuitesAndListsResolve) {
  const auto named = bench::ResolveSuite("default");
  ASSERT_TRUE(named.ok()) << named.status().ToString();
  EXPECT_EQ(named.value(), gen::DefaultSuite());
  const auto list = bench::ResolveSuite("WA,GH");
  ASSERT_TRUE(list.ok()) << list.status().ToString();
  EXPECT_EQ(list.value(), (std::vector<std::string>{"WA", "GH"}));
}

TEST(ResolveSuiteTest, UnknownNameIsInvalidArgument) {
  // Used to abort in gen::FindDataset; now a typed error the bench
  // binaries print before exiting 2.
  for (const char* suite : {"NOPE", "WA,NOPE", ","}) {
    const auto resolved = bench::ResolveSuite(suite);
    EXPECT_EQ(resolved.status().code(), util::StatusCode::kInvalidArgument)
        << suite;
  }
  EXPECT_NE(bench::ResolveSuite("WA,NOPE").status().message().find("'NOPE'"),
            std::string::npos);
}

}  // namespace
}  // namespace mbe
