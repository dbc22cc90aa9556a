// End-to-end tests of the `pmbe` command line (tools/pmbe_cli.cc): every
// bad flag value is a typed error — exit code 2 and `INVALID_ARGUMENT` (or
// "unknown flag") on stderr — reported before any graph is generated or
// loaded, never an abort; and well-formed runs still exit 0.

#include <gtest/gtest.h>
#include <sys/wait.h>

#include <cstdio>
#include <fstream>
#include <ostream>
#include <string>
#include <vector>

namespace mbe {
namespace {

struct CliRun {
  int exit_code = -1;   // -1 unless the process exited normally
  std::string output;   // stdout and stderr, interleaved
};

CliRun RunCli(const std::string& args) {
  const std::string command =
      std::string(PMBE_CLI_PATH) + " " + args + " 2>&1";
  CliRun run;
  FILE* pipe = popen(command.c_str(), "r");
  if (pipe == nullptr) return run;
  char buffer[4096];
  size_t n;
  while ((n = std::fread(buffer, 1, sizeof(buffer), pipe)) > 0) {
    run.output.append(buffer, n);
  }
  const int status = pclose(pipe);
  if (status != -1 && WIFEXITED(status)) run.exit_code = WEXITSTATUS(status);
  return run;
}

// The CLI prints a `graph:` line as soon as the graph exists.
bool LoadedAGraph(const std::string& output) {
  return output.rfind("graph:", 0) == 0 ||
         output.find("\ngraph:") != std::string::npos;
}

std::string TempPath(const std::string& name) {
  return testing::TempDir() + "/" + name;
}

// Writes a one-edge edge list, so that --input runs read a real file.
std::string WriteTinyEdgeList(const std::string& name) {
  const std::string path = TempPath(name);
  std::ofstream(path) << "0 1\n";
  return path;
}

struct RejectCase {
  const char* name;
  std::string args;
  const char* expected;  // substring of the error message
};

// Names the case in test output (and so in the ctest test name) instead of
// dumping the struct's bytes, which hold pointers.
void PrintTo(const RejectCase& c, std::ostream* os) { *os << c.name; }

class CliRejectTest : public testing::TestWithParam<RejectCase> {};

TEST_P(CliRejectTest, ExitsTwoBeforeLoading) {
  const RejectCase& c = GetParam();
  WriteTinyEdgeList("cli_reject_tiny.txt");
  const CliRun run = RunCli(c.args);
  EXPECT_EQ(run.exit_code, 2) << c.args << "\n" << run.output;
  EXPECT_NE(run.output.find(c.expected), std::string::npos)
      << c.args << "\n" << run.output;
  EXPECT_FALSE(LoadedAGraph(run.output)) << c.args << "\n" << run.output;
}

std::vector<RejectCase> RejectCases() {
  const std::string tiny = TempPath("cli_reject_tiny.txt");
  return {
      {"UnknownDataset", "--dataset NOPE",
       "INVALID_ARGUMENT: unknown dataset 'NOPE'"},
      {"ScaleZero", "--dataset WA --scale 0", "INVALID_ARGUMENT: --scale"},
      {"ScaleAboveOne", "--dataset WA --scale 2", "INVALID_ARGUMENT: --scale"},
      {"ScaleNan", "--dataset WA --scale nan", "INVALID_ARGUMENT: --scale"},
      {"UnknownOrder", "--dataset WA --order bogus",
       "INVALID_ARGUMENT: unknown vertex order 'bogus'"},
      {"UnknownFormat", "--format bogus --input " + tiny,
       "INVALID_ARGUMENT: unknown --format 'bogus'"},
      {"UnknownAlgorithm", "--dataset WA --algorithm quantum",
       "INVALID_ARGUMENT: unknown algorithm 'quantum'"},
      {"NegativeThreads", "--dataset WA --threads -1",
       "INVALID_ARGUMENT: --threads must not be negative"},
      {"NegativeMaxSplit", "--dataset WA --max_split -1",
       "INVALID_ARGUMENT: --max_split must not be negative"},
      {"NegativeMinLeft", "--dataset WA --min-left -1",
       "INVALID_ARGUMENT: --min-left must not be negative"},
      {"TuneIsUnknownFlag", "--dataset WA --tune", "unknown flag --tune"},
      {"SizeThresholdNeedsMbet", "--dataset WA --algorithm imbea --min-left 2",
       "INVALID_ARGUMENT: size thresholds"},
      {"ThreadsAboveCap", "--dataset WA --threads 100000",
       "INVALID_ARGUMENT: threads must be in [1, 256] (got 100000)"},
      {"ThreadsWrapTo32Bits", "--dataset WA --threads 4294967297",
       "INVALID_ARGUMENT: --threads must be below 2^32"},
  };
}

INSTANTIATE_TEST_SUITE_P(
    BadFlags, CliRejectTest, testing::ValuesIn(RejectCases()),
    [](const testing::TestParamInfo<RejectCase>& info) {
      return std::string(info.param.name);
    });

TEST(CliTest, RegistryDatasetRunExitsZero) {
  const CliRun run =
      RunCli("--dataset Mti --scale 0.05 --threads 1 --stats=false");
  EXPECT_EQ(run.exit_code, 0) << run.output;
  EXPECT_TRUE(LoadedAGraph(run.output)) << run.output;
  EXPECT_NE(run.output.find("maximal bicliques"), std::string::npos)
      << run.output;
}

TEST(CliTest, EdgeListInputRunExitsZero) {
  const CliRun run = RunCli("--format edgelist --input " +
                            WriteTinyEdgeList("cli_accept_tiny.txt") +
                            " --stats=false");
  EXPECT_EQ(run.exit_code, 0) << run.output;
  EXPECT_NE(run.output.find("graph: |U|=1 |V|=2 |E|=1"), std::string::npos)
      << run.output;
  EXPECT_NE(run.output.find("1 maximal bicliques"), std::string::npos)
      << run.output;
}

TEST(CliTest, MissingInputFileIsNotFound) {
  const CliRun run =
      RunCli("--input " + TempPath("cli_no_such_file.txt") + " --stats=false");
  EXPECT_EQ(run.exit_code, 1) << run.output;
  EXPECT_NE(run.output.find("NOT_FOUND"), std::string::npos) << run.output;
  EXPECT_FALSE(LoadedAGraph(run.output)) << run.output;
}

}  // namespace
}  // namespace mbe
