/// \file cli_batch_test.cc
/// Regression tests for dynfo_cli's --batch-size auto-grouping, pinned at
/// the binary level: a script whose length is not a multiple of the batch
/// size must flush its trailing partial group at end-of-script (and before
/// `quit`, a read, or an explicit `batch` block) — and a failed trailing
/// flush must still set the process exit code. Also pins that malformed
/// script lines (over-long tuples, reads missing their parameters) are
/// reported, not fatal, that a spec repeating a symbol is a load error,
/// and that a deadline past the clock's range never expires. Drives the
/// real dynfo_cli executable (DYNFO_CLI_PATH) against specs/parity.dynfo or
/// a spec the test writes.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>

#include <sys/wait.h>

namespace {

constexpr char kCliPath[] = DYNFO_CLI_PATH;
constexpr char kParitySpec[] = DYNFO_SPEC_DIR "/parity.dynfo";

struct RunResult {
  int exit_code = -1;
  std::string output;
};

/// A temp file path named after the running test: ctest runs these tests as
/// parallel processes, which must not overwrite each other's files.
std::string TestFilePath(const std::string& suffix) {
  return ::testing::TempDir() + "/cli_batch_" +
         ::testing::UnitTest::GetInstance()->current_test_info()->name() + suffix;
}

/// Writes `script` to a temp file and replays it through the real binary.
RunResult RunCli(const std::string& flags, const std::string& script,
                 const std::string& spec = kParitySpec) {
  const std::string script_path = TestFilePath("_script.txt");
  {
    std::ofstream out(script_path);
    out << script;
  }
  const std::string command = std::string(kCliPath) + " " + flags + " " +
                              spec + " 8 " + script_path + " 2>&1";
  RunResult result;
  FILE* pipe = popen(command.c_str(), "r");
  EXPECT_NE(pipe, nullptr) << command;
  if (pipe == nullptr) return result;
  char buffer[512];
  while (fgets(buffer, sizeof(buffer), pipe) != nullptr) {
    result.output += buffer;
  }
  const int status = pclose(pipe);
  result.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  std::remove(script_path.c_str());
  return result;
}

size_t CountOf(const std::string& haystack, const std::string& needle) {
  size_t count = 0;
  for (size_t at = haystack.find(needle); at != std::string::npos;
       at = haystack.find(needle, at + needle.size())) {
    ++count;
  }
  return count;
}

TEST(CliBatchTest, TrailingPartialGroupFlushesAtEndOfScript) {
  // 6 mutations at --batch-size=4: one full group, then a partial group of
  // 2 that only end-of-script can flush.
  const RunResult run = RunCli(
      "--batch-size=4",
      "ins M 0\nins M 1\nins M 2\nins M 3\nins M 4\nins M 5\n");
  EXPECT_EQ(run.exit_code, 0) << run.output;
  EXPECT_NE(run.output.find("ok: batch applied 4 request(s)"),
            std::string::npos)
      << run.output;
  EXPECT_NE(run.output.find("ok: batch applied 2 request(s)"),
            std::string::npos)
      << run.output;
  EXPECT_EQ(CountOf(run.output, "ok: batch applied"), 2u) << run.output;
}

TEST(CliBatchTest, QuitFlushesThePendingGroupFirst) {
  const RunResult run = RunCli(
      "--batch-size=4",
      "ins M 0\nins M 1\nins M 2\nins M 3\nins M 4\nins M 5\nquit\n");
  EXPECT_EQ(run.exit_code, 0) << run.output;
  EXPECT_NE(run.output.find("ok: batch applied 2 request(s)"),
            std::string::npos)
      << run.output;
  EXPECT_EQ(CountOf(run.output, "ok: batch applied"), 2u) << run.output;
}

TEST(CliBatchTest, ReadsObserveThePendingGroup) {
  // A read flushes first, so `query` sees all 3 pending inserts (|M| = 3,
  // odd -> true) even though the group never filled.
  const RunResult run =
      RunCli("--batch-size=8", "ins M 0\nins M 1\nins M 2\nquery\n");
  EXPECT_EQ(run.exit_code, 0) << run.output;
  const size_t flushed = run.output.find("ok: batch applied 3 request(s)");
  const size_t answered = run.output.find("true");
  ASSERT_NE(flushed, std::string::npos) << run.output;
  ASSERT_NE(answered, std::string::npos) << run.output;
  EXPECT_LT(flushed, answered) << run.output;
}

TEST(CliBatchTest, ExplicitBatchBlockFlushesPendingThenCommitsAlone) {
  // Auto-grouped mutations pending when an explicit `batch ... end` block
  // starts must flush first; the block then commits as its own group, and
  // the trailing auto-group after it still flushes at end-of-script.
  const RunResult run = RunCli("--batch-size=4",
                               "ins M 0\n"
                               "ins M 1\n"
                               "batch\nins M 2\nins M 3\nins M 4\nend\n"
                               "ins M 5\n"
                               "query\n");
  EXPECT_EQ(run.exit_code, 0) << run.output;
  EXPECT_NE(run.output.find("ok: batch applied 2 request(s)"),
            std::string::npos)
      << run.output;
  EXPECT_NE(run.output.find("ok: batch applied 3 request(s)"),
            std::string::npos)
      << run.output;
  EXPECT_NE(run.output.find("ok: batch applied 1 request(s)"),
            std::string::npos)
      << run.output;
  // |M| = 6, even -> false.
  EXPECT_NE(run.output.find("false"), std::string::npos) << run.output;
}

TEST(CliBatchTest, FailedTrailingFlushSetsTheExitCode) {
  // The trailing partial group holds an out-of-universe insert: validation
  // rejects the whole group (nothing applied) and the end-of-script flush
  // must propagate the error exit code, not silently succeed.
  const RunResult run = RunCli(
      "--batch-size=4",
      "ins M 0\nins M 1\nins M 2\nins M 3\nins M 4\nins M 99\n");
  EXPECT_EQ(run.exit_code, 1) << run.output;
  EXPECT_NE(run.output.find("ok: batch applied 4 request(s)"),
            std::string::npos)
      << run.output;
  EXPECT_NE(run.output.find("batch applied 0 of 2"), std::string::npos)
      << run.output;
}

TEST(CliBatchTest, BatchSizeOneMatchesUnbatchedSemantics) {
  // Degenerate grouping: every mutation is its own group; nothing is ever
  // left pending, and the query answer matches plain replay.
  const RunResult run =
      RunCli("--batch-size=1", "ins M 0\nins M 1\nins M 2\nquery\n");
  EXPECT_EQ(run.exit_code, 0) << run.output;
  EXPECT_EQ(CountOf(run.output, "ok: batch applied 1 request(s)"), 3u)
      << run.output;
  EXPECT_NE(run.output.find("true"), std::string::npos) << run.output;
}

TEST(CliInputTest, OverlongTupleIsReportedNotFatal) {
  const RunResult run = RunCli("", "ins M 1 2 3 4 5\nins M 1\nquery\n");
  EXPECT_EQ(run.exit_code, 0) << run.output;
  EXPECT_NE(run.output.find("error: ins takes at most 4 elements, got 5"),
            std::string::npos)
      << run.output;
  EXPECT_NE(run.output.find("true"), std::string::npos) << run.output;
}

TEST(CliInputTest, ReadsMissingTheirParametersAreReportedNotFatal) {
  // The boolean query needs two elements and the named query one; `query`
  // passes its elements on, as the server's does.
  const std::string spec = TestFilePath(".dynfo");
  {
    std::ofstream out(spec);
    out << "program params\n"
           "input {\n  relation E/2\n}\n"
           "data {\n  relation E/2\n}\n"
           "query := E($0, $1)\n"
           "query adj(y) := E($0, y)\n";
  }
  for (const char* backend : {"--backend=hash", "--backend=dense"}) {
    const RunResult run = RunCli(backend,
                                 "ins E 1 2\n"
                                 "query\n"
                                 "query 1\n"
                                 "query 100 2\n"
                                 "show adj\n"
                                 "eval E($0, 2)\n"
                                 "query 1 2\n"
                                 "show adj 1\n",
                                 spec);
    EXPECT_EQ(run.exit_code, 0) << backend << "\n" << run.output;
    EXPECT_EQ(CountOf(run.output, "error: "), 5u) << backend << "\n" << run.output;
    EXPECT_NE(run.output.find("\ntrue\n"), std::string::npos) << run.output;
    EXPECT_NE(run.output.find("adj = {(2)}"), std::string::npos) << run.output;
  }
  std::remove(spec.c_str());
}

TEST(CliInputTest, RepeatedSymbolIsALoadError) {
  const std::string spec = TestFilePath(".dynfo");
  {
    std::ofstream out(spec);
    out << "program twice\n"
           "input {\n  relation M/1\n  relation M/1\n}\n"
           "data {\n  relation M/1\n}\n";
  }
  const RunResult run = RunCli("", "ins M 0\n", spec);
  EXPECT_EQ(run.exit_code, 2) << run.output;
  EXPECT_NE(run.output.find("line 4: duplicate symbol name: M"), std::string::npos)
      << run.output;
  std::remove(spec.c_str());
}

TEST(CliInputTest, DeadlinePastTheClockNeverExpires) {
  // Past the clock's range (about 9.2e12 ms) the deadline saturates.
  const RunResult run =
      RunCli("--deadline-ms=9300000000000", "ins M 0\nins M 1\nins M 2\nquery\n");
  EXPECT_EQ(run.exit_code, 0) << run.output;
  EXPECT_NE(run.output.find("true"), std::string::npos) << run.output;
  // Past int64 it would wrap to "already expired": a usage error instead.
  const RunResult wrapped = RunCli("--deadline-ms=18446744073709551615", "ins M 0\n");
  EXPECT_EQ(wrapped.exit_code, 2) << wrapped.output;
  EXPECT_NE(wrapped.output.find("bad --deadline-ms value"), std::string::npos)
      << wrapped.output;
}

}  // namespace
