/// \file dynfo_server.cc
/// The Dyn-FO engine as a long-running service (DESIGN.md §15): one engine,
/// many concurrent sessions over a Unix or TCP socket, speaking the
/// dynfo_cli script grammar in length-prefixed frames (see dynfo/wire.h).
/// Each frame runs through ServiceServer::Dispatch, the interpreter
/// dynfo_cli runs in process, so both answer every command alike.
///
/// Usage:
///   dynfo_server [--listen=ADDR] [--backend=MODE] [--deadline-ms=N]
///                [--max-memory-mb=N] [--max-sessions=N]
///                [--admission-limit=N] <program.dynfo> <universe-size>
///
/// Flags:
///   --listen=ADDR        unix:/path/to.sock (default unix:/tmp/dynfo.sock)
///                        or tcp:[host:]port (tcp:0 = kernel-assigned; the
///                        bound port is printed on startup)
///   --backend=MODE       auto|hash|dense, as in dynfo_cli
///   --deadline-ms=N      default per-request deadline for writes and reads
///                        (sessions may lower or clear their own with the
///                        `deadline` command). The deadline also bounds the
///                        wait in the admission queue.
///   --max-memory-mb=N    default per-write materialization budget
///   --max-sessions=N     sessions beyond this are rejected (wire code 5)
///   --admission-limit=N  writers allowed to wait for the writer lock; one
///                        more is rejected with wire code 5 (the client's
///                        retry-with-backoff signal). 0 = unbounded.
///
/// A malformed flag value exits with the usage code 2.
///
/// Writers serialize through the guarded engine; readers run against
/// copy-on-write snapshots and are never refused, each through the
/// evaluator its formula calls for (EngineService's ReadTierFor), whatever
/// the writer load. The server runs until SIGINT/SIGTERM.

#include <csignal>
#include <cstdio>
#include <semaphore>
#include <string>
#include <vector>

#include "core/text.h"
#include "dynfo/loader.h"
#include "dynfo/service.h"
#include "dynfo/wire.h"

namespace {

std::binary_semaphore g_shutdown(0);

void HandleSignal(int) { g_shutdown.release(); }

}  // namespace

int main(int argc, char** argv) {
  std::string listen_spec = "unix:/tmp/dynfo.sock";
  dynfo::dyn::ServiceOptions options = dynfo::dyn::ToolServiceOptions();
  std::vector<std::string> positional;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    std::string error;
    uint64_t parsed = 0;
    if (dynfo::dyn::ParseEngineFlag(arg, &options, &error)) {
      if (!error.empty()) {
        std::fprintf(stderr, "error: %s\n", error.c_str());
        return 2;
      }
    } else if (arg.rfind("--listen=", 0) == 0) {
      listen_spec = arg.substr(9);
    } else if (arg.rfind("--max-sessions=", 0) == 0) {
      if (!dynfo::core::ParseU64(arg.substr(15), &parsed) || parsed == 0) {
        std::fprintf(stderr, "error: bad --max-sessions value\n");
        return 2;
      }
      options.max_sessions = static_cast<size_t>(parsed);
    } else if (arg.rfind("--admission-limit=", 0) == 0) {
      if (!dynfo::core::ParseU64(arg.substr(18), &parsed)) {
        std::fprintf(stderr, "error: bad --admission-limit value\n");
        return 2;
      }
      options.admission_queue_limit = static_cast<size_t>(parsed);
    } else if (arg.rfind("--", 0) == 0) {
      std::fprintf(stderr, "error: unknown flag %s\n", arg.c_str());
      return 2;
    } else {
      positional.push_back(arg);
    }
  }
  if (positional.size() != 2) {
    std::fprintf(stderr,
                 "usage: %s [--listen=unix:/path|tcp:[host:]port] "
                 "[--backend=auto|hash|dense] [--deadline-ms=N] "
                 "[--max-memory-mb=N] [--max-sessions=N] "
                 "[--admission-limit=N] <program.dynfo> <universe-size>\n",
                 argv[0]);
    return 2;
  }

  dynfo::dyn::wire::Address address;
  std::string address_error;
  if (!dynfo::dyn::wire::ParseAddress(listen_spec, &address, &address_error)) {
    std::fprintf(stderr, "error: %s\n", address_error.c_str());
    return 2;
  }

  auto program = dynfo::dyn::LoadProgramFile(positional[0]);
  if (!program.ok()) {
    std::fprintf(stderr, "error: %s\n", program.status().message().c_str());
    return 2;
  }
  uint64_t parsed_n = 0;
  if (!dynfo::core::ParseU64(positional[1], &parsed_n) || parsed_n == 0) {
    std::fprintf(stderr, "error: bad universe size '%s'\n",
                 positional[1].c_str());
    return 2;
  }

  dynfo::dyn::EngineService service(program.value(),
                                    static_cast<size_t>(parsed_n), options);
  dynfo::dyn::ServiceServer server(&service, address);
  dynfo::core::Status started = server.Start();
  if (!started.ok()) {
    std::fprintf(stderr, "error: %s\n", started.ToString().c_str());
    return 1;
  }
  if (server.address().kind == dynfo::dyn::wire::Address::Kind::kTcp) {
    std::printf("dynfo_server: program '%s' (universe %llu) on tcp:%s:%d\n",
                program.value()->name().c_str(),
                static_cast<unsigned long long>(parsed_n),
                server.address().host.c_str(), server.address().port);
  } else {
    std::printf("dynfo_server: program '%s' (universe %llu) on unix:%s\n",
                program.value()->name().c_str(),
                static_cast<unsigned long long>(parsed_n),
                server.address().path.c_str());
  }
  std::fflush(stdout);

  std::signal(SIGINT, HandleSignal);
  std::signal(SIGTERM, HandleSignal);
  g_shutdown.acquire();
  std::printf("dynfo_server: shutting down\n");
  server.Stop();
  const dynfo::dyn::ServiceStats stats = service.stats();
  std::printf(
      "dynfo_server: served %llu write(s), %llu read(s), "
      "%llu admission rejection(s) over %llu connection(s)\n",
      static_cast<unsigned long long>(stats.writes_applied),
      static_cast<unsigned long long>(stats.reads_served),
      static_cast<unsigned long long>(stats.admission_rejections),
      static_cast<unsigned long long>(server.connections_accepted()));
  return 0;
}
