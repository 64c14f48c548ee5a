/// \file cli_batch_test.cc
/// dynfo_cli pinned at the binary level. --batch-size auto-grouping: a
/// script whose length is not a multiple of the batch size must flush its
/// trailing partial group at end-of-script (and before `quit`, a read, or
/// an explicit `batch` block) — and a failed trailing flush must still set
/// the process exit code. Malformed script lines (over-long tuples, reads
/// missing their parameters) are usage errors that stop the script with
/// code 2, never a crash; a spec repeating a symbol is a load error, and a
/// deadline past the clock's range never expires. The CLI and dynfo_client
/// share one interpreter and one script runner, so one script prints the
/// same answers through both, and a durable session resumes across runs.
/// Drives the real dynfo_cli and dynfo_client executables (DYNFO_CLI_PATH,
/// DYNFO_CLIENT_PATH) against specs/parity.dynfo or a spec the test
/// writes.

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <utility>

#include <sys/wait.h>

#include "dynfo/loader.h"
#include "dynfo/service.h"
#include "dynfo/wire.h"

namespace {

constexpr char kCliPath[] = DYNFO_CLI_PATH;
constexpr char kClientPath[] = DYNFO_CLIENT_PATH;
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

/// Writes `script` to a temp file and runs `binary args script-file`.
RunResult RunScript(const std::string& binary, const std::string& args,
                    const std::string& script) {
  const std::string script_path = TestFilePath("_script.txt");
  {
    std::ofstream out(script_path);
    out << script;
  }
  const std::string command = binary + " " + args + " " + script_path + " 2>&1";
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

/// Replays `script` through dynfo_cli at universe size 8.
RunResult RunCli(const std::string& flags, const std::string& script,
                 const std::string& spec = kParitySpec) {
  return RunScript(kCliPath, flags + " " + spec + " 8", script);
}

size_t CountOf(const std::string& haystack, const std::string& needle) {
  size_t count = 0;
  for (size_t at = haystack.find(needle); at != std::string::npos;
       at = haystack.find(needle, at + needle.size())) {
    ++count;
  }
  return count;
}

/// The CLI's output after its banner line.
std::string AfterBanner(const std::string& output) {
  return output.substr(output.find('\n') + 1);
}

TEST(CliBatchTest, TrailingPartialGroupFlushesAtEndOfScript) {
  // 6 mutations at --batch-size=4: one full group, then a partial group of
  // 2 that only end-of-script can flush.
  const RunResult run = RunCli(
      "--batch-size=4",
      "ins M 0\nins M 1\nins M 2\nins M 3\nins M 4\nins M 5\n");
  EXPECT_EQ(run.exit_code, 0) << run.output;
  EXPECT_NE(run.output.find("ok applied=4\n"), std::string::npos) << run.output;
  EXPECT_NE(run.output.find("ok applied=2\n"), std::string::npos) << run.output;
  EXPECT_EQ(CountOf(run.output, "ok applied="), 2u) << run.output;
}

TEST(CliBatchTest, QuitFlushesThePendingGroupFirst) {
  const RunResult run = RunCli(
      "--batch-size=4",
      "ins M 0\nins M 1\nins M 2\nins M 3\nins M 4\nins M 5\nquit\n");
  EXPECT_EQ(run.exit_code, 0) << run.output;
  EXPECT_NE(run.output.find("ok applied=2\nbye\n"), std::string::npos)
      << run.output;
  EXPECT_EQ(CountOf(run.output, "ok applied="), 2u) << run.output;
}

TEST(CliBatchTest, ReadsObserveThePendingGroup) {
  // A read flushes first, so `query` sees all 3 pending inserts (|M| = 3,
  // odd -> true) even though the group never filled.
  const RunResult run =
      RunCli("--batch-size=8", "ins M 0\nins M 1\nins M 2\nquery\n");
  EXPECT_EQ(run.exit_code, 0) << run.output;
  const size_t flushed = run.output.find("ok applied=3\n");
  const size_t answered = run.output.find("true v=3 ");
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
  EXPECT_NE(run.output.find("ok applied=2\nok applied=3\nok applied=1\n"),
            std::string::npos)
      << run.output;
  // |M| = 6, even -> false.
  EXPECT_NE(run.output.find("false v=6 "), std::string::npos) << run.output;
}

TEST(CliBatchTest, FailedTrailingFlushSetsTheExitCode) {
  // The trailing partial group holds an out-of-universe insert: validation
  // rejects the whole group (nothing applied) and the end-of-script flush
  // must propagate the error exit code, not silently succeed.
  const RunResult run = RunCli(
      "--batch-size=4",
      "ins M 0\nins M 1\nins M 2\nins M 3\nins M 4\nins M 99\n");
  EXPECT_EQ(run.exit_code, 1) << run.output;
  EXPECT_NE(run.output.find("ok applied=4\n"), std::string::npos) << run.output;
  EXPECT_NE(run.output.find("batch applied 0 of 2"), std::string::npos)
      << run.output;
}

TEST(CliBatchTest, UnparsableMutationFlushesThenStopsWherePlainReplayStops) {
  // The malformed line flushes the pending run and is sent alone, so the
  // batched script stops on the same line as plain replay, after the same
  // two inserts, and never reaches the query.
  const std::string script =
      "ins M 0\nins M 1\nins M 1 2 3 4 5\nins M 2\nquery\n";
  const std::string error = "error[2]: ins takes at most 4 elements, got 5\n";
  const RunResult batched = RunCli("--batch-size=4", script);
  EXPECT_EQ(batched.exit_code, 2) << batched.output;
  EXPECT_EQ(AfterBanner(batched.output), "ok applied=2\n" + error);
  const RunResult plain = RunCli("", script);
  EXPECT_EQ(plain.exit_code, 2) << plain.output;
  EXPECT_EQ(AfterBanner(plain.output), "ok\nok\n" + error);
}

TEST(CliBatchTest, BatchSizeOneMatchesUnbatchedSemantics) {
  // Degenerate grouping: every mutation is its own group; nothing is ever
  // left pending, and the query answer matches plain replay.
  const RunResult run =
      RunCli("--batch-size=1", "ins M 0\nins M 1\nins M 2\nquery\n");
  EXPECT_EQ(run.exit_code, 0) << run.output;
  EXPECT_EQ(CountOf(run.output, "ok applied=1\n"), 3u) << run.output;
  EXPECT_NE(run.output.find("true v=3 "), std::string::npos) << run.output;
}

TEST(CliInputTest, OverlongTupleIsReportedNotFatal) {
  for (const char* backend : {"--backend=hash", "--backend=dense"}) {
    const RunResult bad = RunCli(backend, "ins M 1 2 3 4 5\n");
    EXPECT_EQ(bad.exit_code, 2) << backend << "\n" << bad.output;
    EXPECT_NE(bad.output.find("error[2]: ins takes at most 4 elements, got 5"),
              std::string::npos)
        << backend << "\n" << bad.output;
    const RunResult good = RunCli(backend, "ins M 1\nquery\n");
    EXPECT_EQ(good.exit_code, 0) << backend << "\n" << good.output;
    EXPECT_NE(good.output.find("\ntrue v=1 "), std::string::npos)
        << backend << "\n" << good.output;
  }
}

TEST(CliInputTest, ReadsMissingTheirParametersAreReportedNotFatal) {
  // The boolean query needs two elements and the named query one; `query`
  // passes its elements on. Each malformed read is a usage error that
  // stops its script.
  const std::string spec = TestFilePath(".dynfo");
  {
    std::ofstream out(spec);
    out << "program params\n"
           "input {\n  relation E/2\n}\n"
           "data {\n  relation E/2\n}\n"
           "query := E($0, $1)\n"
           "query adj(y) := E($0, y)\n";
  }
  const std::pair<const char*, const char*> kMalformed[] = {
      {"query", "the query uses $1 but 0 element(s) were given"},
      {"query 1", "the query uses $1 but 1 element(s) were given"},
      {"query 100 2", "element 100 is outside the universe 0..7"},
      {"show adj", "the query uses $0 but 0 element(s) were given"},
      {"eval E($0, 2)", "the query uses $0 but 0 element(s) were given"},
  };
  for (const char* backend : {"--backend=hash", "--backend=dense"}) {
    for (const auto& [read, error] : kMalformed) {
      const RunResult run =
          RunCli(backend, std::string("ins E 1 2\n") + read + "\nquery 1 2\n", spec);
      EXPECT_EQ(run.exit_code, 2) << backend << " " << read << "\n" << run.output;
      EXPECT_EQ(run.output.find("true"), std::string::npos) << run.output;
      EXPECT_NE(run.output.find(std::string("error[2]: ") + error), std::string::npos)
          << backend << " " << read << "\n" << run.output;
    }
    const RunResult run = RunCli(backend, "ins E 1 2\nquery 1 2\nshow adj 1\n", spec);
    EXPECT_EQ(run.exit_code, 0) << backend << "\n" << run.output;
    EXPECT_NE(run.output.find("\ntrue v=1 "), std::string::npos) << run.output;
    EXPECT_NE(run.output.find("\nv=1\n{(2)}\n"), std::string::npos) << run.output;
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
  EXPECT_NE(run.output.find("true v=3 "), std::string::npos) << run.output;
  // Past int64 it would wrap to "already expired": a usage error instead.
  const RunResult wrapped = RunCli("--deadline-ms=18446744073709551615", "ins M 0\n");
  EXPECT_EQ(wrapped.exit_code, 2) << wrapped.output;
  EXPECT_NE(wrapped.output.find("bad --deadline-ms value"), std::string::npos)
      << wrapped.output;
}

TEST(CliServerParityTest, OneScriptPrintsTheSameThroughBothFrontEnds) {
  const std::string spec = TestFilePath(".dynfo");
  {
    std::ofstream out(spec);
    out << "program cli_parity\n"
           "input {\n  relation E/2\n  constant s\n}\n"
           "data {\n  relation E/2\n  constant s\n}\n"
           "query := E($0, $1)\n"
           "query from(y) := E(s, y)\n";
  }
  const std::string script =
      "ins E 0 1\nins E 1 2\nins E 2 3\ndel E 1 2\nset s 2\n"
      "batch\nins E 4 5\ndel E 0 1  # inside the block\nset s 4\nend\n"
      "query 4 5\nquery 0 1\nshow from\nshow E\n"
      "eval exists x. E(x, 5)\ndump\nfrobnicate\n";

  auto program = dynfo::dyn::LoadProgramFile(spec);
  ASSERT_TRUE(program.ok()) << program.status().ToString();
  dynfo::dyn::EngineService service(program.value(), 8,
                                    dynfo::dyn::ToolServiceOptions());
  dynfo::dyn::wire::Address address;
  address.path = TestFilePath(".sock");
  dynfo::dyn::ServiceServer server(&service, address);
  ASSERT_TRUE(server.Start().ok());
  const RunResult client =
      RunScript(kClientPath, "--connect=unix:" + address.path, script);
  server.Stop();
  const RunResult cli = RunCli("", script, spec);

  EXPECT_EQ(cli.exit_code, 2) << cli.output;
  EXPECT_EQ(client.exit_code, cli.exit_code) << client.output;
  EXPECT_EQ(AfterBanner(cli.output), client.output);
  EXPECT_NE(client.output.find("ok applied=3\ntrue v=8 "), std::string::npos)
      << client.output;
  EXPECT_NE(client.output.find("\nerror[2]: unknown command 'frobnicate'\n"),
            std::string::npos)
      << client.output;
  std::remove(spec.c_str());
}

TEST(CliDurableTest, SecondRunRevivesTheSession) {
  const std::string dir = TestFilePath("_store");
  const std::string snapshot = TestFilePath(".snap");
  std::filesystem::remove_all(dir);
  const std::string flags = "--durable-dir=" + dir;
  const RunResult first =
      RunCli(flags, "ins M 0\nins M 1\nins M 2\nsnapshot " + snapshot + "\n");
  ASSERT_EQ(first.exit_code, 0) << first.output;
  EXPECT_NE(first.output.find("durable store " + dir + ": initialized"),
            std::string::npos)
      << first.output;

  const RunResult second = RunCli(
      flags, "query\nins M 3\nquery\ncompact\nstats\nrestore " + snapshot +
                 "\nquery\n");
  EXPECT_EQ(second.exit_code, 1) << second.output;
  EXPECT_NE(second.output.find("revived at step 3"), std::string::npos)
      << second.output;
  // The session continues where the first run left it: |M| = 3, then 4.
  EXPECT_NE(second.output.find("\ntrue v=3 "), std::string::npos) << second.output;
  EXPECT_NE(second.output.find("\nfalse v=4 "), std::string::npos) << second.output;
  EXPECT_NE(second.output.find("\nok\nsessions="), std::string::npos)
      << second.output;  // compact answers code 0
  EXPECT_NE(second.output.find("\ndurable: appends=1 "), std::string::npos)
      << second.output;
  EXPECT_NE(second.output.find("error[1]: Error: restore would desynchronize"),
            std::string::npos)
      << second.output;
  // The refused restore stopped the script before its last query.
  EXPECT_EQ(CountOf(second.output, " v="), 2u) << second.output;
  std::filesystem::remove_all(dir);
  std::remove(snapshot.c_str());
}

}  // namespace
