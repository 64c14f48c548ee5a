/// \file dynfo_client.cc
/// Command-line client for dynfo_server: sends script-grammar commands over
/// the framed wire protocol (dynfo/wire.h) with retry/backoff on admission
/// rejections and reconnect on transport failures.
///
/// Usage:
///   dynfo_client [--connect=ADDR] [--retries=N] [--backoff-ms=N]
///                [--max-backoff-ms=N] [--jitter-seed=N] [script-file]
///
/// The script runner is dynfo_cli's (wire::RunScript), so a script prints
/// the same answers through either front end: with a script file, commands
/// replay in order and the first non-zero code stops the run and becomes
/// the exit code (0 ok, 1 error, 2 usage, 3 cancelled, 4 deadline,
/// 5 resource, 6 corruption). Without one, commands come from stdin
/// interactively. A `batch ... end` block travels as ONE frame, so the
/// server applies it as one group commit.

#include <cstdio>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "core/text.h"
#include "dynfo/wire.h"

namespace wire = dynfo::dyn::wire;

int main(int argc, char** argv) {
  std::string connect_spec = "unix:/tmp/dynfo.sock";
  wire::RetryPolicy policy;
  std::vector<std::string> positional;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    uint64_t parsed = 0;
    if (arg.rfind("--connect=", 0) == 0) {
      connect_spec = arg.substr(10);
    } else if (arg.rfind("--retries=", 0) == 0) {
      if (!dynfo::core::ParseU64(arg.substr(10), &parsed) || parsed == 0) {
        std::fprintf(stderr, "error: bad --retries value\n");
        return 2;
      }
      policy.max_attempts = static_cast<int>(parsed);
    } else if (arg.rfind("--backoff-ms=", 0) == 0) {
      if (!dynfo::core::ParseU64(arg.substr(13), &parsed) || parsed == 0) {
        std::fprintf(stderr, "error: bad --backoff-ms value\n");
        return 2;
      }
      policy.initial_backoff_ms = static_cast<int>(parsed);
    } else if (arg.rfind("--max-backoff-ms=", 0) == 0) {
      if (!dynfo::core::ParseU64(arg.substr(17), &parsed) || parsed == 0) {
        std::fprintf(stderr, "error: bad --max-backoff-ms value\n");
        return 2;
      }
      policy.max_backoff_ms = static_cast<int>(parsed);
    } else if (arg.rfind("--jitter-seed=", 0) == 0) {
      if (!dynfo::core::ParseU64(arg.substr(14), &parsed)) {
        std::fprintf(stderr, "error: bad --jitter-seed value\n");
        return 2;
      }
      policy.jitter_seed = parsed;
    } else if (arg.rfind("--", 0) == 0) {
      std::fprintf(stderr, "error: unknown flag %s\n", arg.c_str());
      return 2;
    } else {
      positional.push_back(arg);
    }
  }
  if (positional.size() > 1) {
    std::fprintf(stderr,
                 "usage: %s [--connect=unix:/path|tcp:[host:]port] "
                 "[--retries=N] [--backoff-ms=N] [--max-backoff-ms=N] "
                 "[--jitter-seed=N] [script]\n",
                 argv[0]);
    return 2;
  }

  wire::Address address;
  std::string error;
  if (!wire::ParseAddress(connect_spec, &address, &error)) {
    std::fprintf(stderr, "error: %s\n", error.c_str());
    return 2;
  }
  wire::Client client(address, policy);
  dynfo::core::Status connected = client.Connect();
  if (!connected.ok()) {
    std::fprintf(stderr, "error connecting to %s: %s\n", connect_spec.c_str(),
                 connected.message().c_str());
    return 1;
  }

  // A failed call prints the server's answer, or why the transport failed.
  const auto call = [&client](const std::string& frame) {
    wire::Response response;
    const dynfo::core::Status status = client.Call(frame, &response);
    if (!status.ok()) {
      if (response.code == 0) response.code = wire::ExitCodeFor(status.code());
      response.body = status.message();
    }
    return response;
  };
  if (positional.size() == 1) {
    std::ifstream script(positional[0]);
    if (!script) {
      std::fprintf(stderr, "error: cannot open %s\n", positional[0].c_str());
      return 2;
    }
    return wire::RunScript(script, std::cout, /*interactive=*/false, 0, call);
  }
  return wire::RunScript(std::cin, std::cout, /*interactive=*/true, 0, call);
}
