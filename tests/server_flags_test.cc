/// \file server_flags_test.cc
/// dynfo_server's flag parsing, pinned at the binary level: a malformed
/// load factor for --shed-naive-at — not a number, trailing junk,
/// non-finite, or outside [0, 1] — exits with the documented usage code 2
/// and names the flag, instead of aborting on an uncaught exception; so
/// does a flag the server does not know. Drives the real dynfo_server
/// executable (DYNFO_SERVER_PATH); every case exits during argument
/// parsing, before any socket is bound.

#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include <sys/wait.h>

namespace {

constexpr char kServerPath[] = DYNFO_SERVER_PATH;
constexpr char kParitySpec[] = DYNFO_SPEC_DIR "/parity.dynfo";

struct RunResult {
  int exit_code = -1;
  std::string output;
};

RunResult RunServer(const std::string& args) {
  const std::string command = std::string(kServerPath) + " " + args + " 2>&1";
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
  return result;
}

TEST(ServerFlagsTest, MalformedShedFactorsExitWithUsageCode) {
  const std::string flag = "--shed-naive-at";
  for (const std::string value :
       {"abc", "", "0.5x", "nan", "inf", "-0.1", "1.5", "1e9"}) {
    const RunResult run = RunServer(flag + "=" + value + " " + kParitySpec + " 8");
    EXPECT_EQ(run.exit_code, 2) << flag << "=" << value << ": " << run.output;
    EXPECT_NE(run.output.find("bad " + flag + " value"), std::string::npos)
        << flag << "=" << value << ": " << run.output;
  }
}

TEST(ServerFlagsTest, WellFormedShedFactorsParse) {
  // Valid factors pass argument parsing; the missing spec file is what
  // stops the run (usage code 2 with its own message), so no socket opens.
  for (const std::string value : {"0", "0.25", "1", "1.0"}) {
    const RunResult run =
        RunServer("--shed-naive-at=" + value + " /nonexistent.dynfo 8");
    EXPECT_EQ(run.exit_code, 2) << value << ": " << run.output;
    EXPECT_EQ(run.output.find("bad --shed"), std::string::npos)
        << value << ": " << run.output;
    EXPECT_NE(run.output.find("cannot open"), std::string::npos)
        << value << ": " << run.output;
  }
}

TEST(ServerFlagsTest, UsageLineListsShedFlags) {
  const RunResult run = RunServer("");
  EXPECT_EQ(run.exit_code, 2) << run.output;
  EXPECT_NE(run.output.find("--shed-naive-at=F"), std::string::npos) << run.output;
}

TEST(ServerFlagsTest, RetiredCompiledShedFlagIsUnknown) {
  // There is no compiled read tier to shed to any more. (The missing spec
  // keeps a server that accepted the flag from binding a socket.)
  const RunResult run = RunServer("--shed-compiled-at=0.5 /nonexistent.dynfo 8");
  EXPECT_EQ(run.exit_code, 2) << run.output;
  EXPECT_NE(run.output.find("unknown flag --shed-compiled-at=0.5"), std::string::npos)
      << run.output;
}

TEST(ServerFlagsTest, DeadlinesBeyondInt64AreUsageErrors) {
  // 2^63 and 2^64-1 would wrap to the negative "already expired" deadline.
  for (const std::string value : {"9223372036854775808", "18446744073709551615"}) {
    const RunResult run = RunServer("--deadline-ms=" + value + " /nonexistent.dynfo 8");
    EXPECT_EQ(run.exit_code, 2) << value << ": " << run.output;
    EXPECT_NE(run.output.find("bad --deadline-ms value"), std::string::npos)
        << value << ": " << run.output;
  }
}

}  // namespace
