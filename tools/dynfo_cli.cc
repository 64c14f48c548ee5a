/// \file dynfo_cli.cc
/// A command-line driver for Dyn-FO programs: load a text spec, feed it
/// requests, ask first-order questions — the relational calculus as a
/// dynamic query shell.
///
/// The shell is dynfo_server without the socket: it builds one
/// EngineService from its flags, as dynfo_server does, and runs every
/// command through ServiceServer::Dispatch in process, printing the
/// answers with the runner dynfo_client uses (wire::RunScript). Commands,
/// answers and exit codes are therefore the server's; only `snapshot` and
/// `restore`, which touch the local filesystem, run here.
///
/// Usage:
///   dynfo_cli [--backend=MODE] [--durable-dir=DIR] [--checkpoint-interval=N]
///             [--deadline-ms=N] [--max-memory-mb=N] [--batch-size=N]
///             <program.dynfo> <universe-size> [script-file]
///
/// Flags:
///   --backend=MODE     relation storage backend: `auto` (default; the
///                      density cost model picks hash or packed-bitmap per
///                      relation), `hash` (hash sets only), or `dense` (pin
///                      every arity<=2 relation to bit planes). See
///                      DESIGN.md §13; `stats` reports the live choice.
///   --durable-dir=DIR  run against the segmented durable store in DIR:
///                      every applied request is fsynced into the active
///                      segment and every filled segment triggers a
///                      checkpoint, a full snapshot of the session. If DIR
///                      already holds a store the session is revived from
///                      it (the snapshot + at most one segment of replay),
///                      so restarting with the same DIR resumes the
///                      session. `restore` is refused in this mode.
///   --checkpoint-interval=N
///                      records per segment (= checkpoint interval and the
///                      recovery replay bound) for --durable-dir; default 64
///   --deadline-ms=N    per-request wall-clock budget; a request that blows
///                      it is abandoned at the next governor poll with the
///                      engine left untouched
///   --max-memory-mb=N  per-request budget for materialized intermediates.
///                      With either budget, a request that fails as
///                      configured descends the degradation ladder (naive,
///                      then start-over) before it is refused.
///   --batch-size=N     script (replay) mode only: send each run of
///                      consecutive mutations (ins/del/set) as batch frames
///                      of up to N requests — one group commit and one
///                      fsync per batch. Any other command, `quit` and the
///                      end of the script flush the pending run.
///
/// Exit codes map the error taxonomy (core/status.h) so scripts can branch
/// on what went wrong:
///   0 success      1 generic error        2 usage / load error
///   3 cancelled    4 deadline exceeded    5 resource budget exhausted
///   6 corruption detected
/// In script mode the first non-zero answer stops the run with its code;
/// interactively, errors are printed and the shell keeps going.
///
/// Commands (one per line, from the script or stdin; '#' comments):
///   ins <relation> <e1> <e2> ...     insert a tuple
///   del <relation> <e1> <e2> ...     delete a tuple
///   set <constant> <value>           assign a constant
///   batch ... end                    group the enclosed ins/del/set lines
///                                    into ONE batch (one group commit,
///                                    one fsync); a malformed block applies
///                                    nothing and answers code 2
///   query [params...]                evaluate the boolean query
///   show <name> [params...]          print a named query / data relation
///                                    (params bind the query's $0, $1, ...)
///   eval <formula>                   evaluate an ad-hoc FO sentence
///   dump                             the whole data structure
///   stats                            service, engine, backend and durable
///                                    counters
///   deadline <ms>                    this session's deadline (0 clears)
///   compact                          (--durable-dir only) checkpoint now:
///                                    one snapshot, one empty segment
///   ping
///   snapshot <file>                  write a checksummed engine snapshot
///                                    (state + step counter)
///   restore <file>                   restore a snapshot written by snapshot
///   quit
///
/// Reads answer `<true|false> v=<version> tier=<read tier>`; `show` and
/// `dump` answer `v=<version>` and then the relation or structure.

#include <cstdio>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "core/durable_io.h"
#include "core/text.h"
#include "dynfo/loader.h"
#include "dynfo/service.h"
#include "dynfo/wire.h"

namespace {

namespace wire = dynfo::dyn::wire;

using dynfo::dyn::EngineService;

/// `snapshot <file>` and `restore <file>`: the commands that touch the
/// local filesystem, so they run here instead of through Dispatch.
wire::Response FileCommand(EngineService* service,
                           const std::vector<std::string>& words) {
  if (words.size() != 2) return {2, "usage: " + words[0] + " <file>"};
  const std::string& path = words[1];
  if (words[0] == "snapshot") {
    dynfo::core::Status written =
        dynfo::core::AtomicWriteFile(path, service->Snapshot());
    if (!written.ok()) return {wire::ExitCodeFor(written.code()), written.ToString()};
    return {0, "snapshot written to " + path};
  }
  dynfo::core::Result<std::string> blob = dynfo::core::ReadFileToString(path);
  dynfo::core::Status restored =
      blob.ok() ? service->Restore(blob.value()) : blob.status();
  if (!restored.ok()) return {wire::ExitCodeFor(restored.code()), restored.ToString()};
  return {0, "restored " + path};
}

}  // namespace

int main(int argc, char** argv) {
  dynfo::dyn::ServiceOptions options = dynfo::dyn::ToolServiceOptions();
  std::string durable_dir;
  dynfo::dyn::DurableStoreOptions durability;
  bool checkpoint_interval_set = false;
  size_t batch_size = 0;  // 0 = one frame per command
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
    } else if (arg.rfind("--durable-dir=", 0) == 0) {
      durable_dir = arg.substr(14);
    } else if (arg.rfind("--checkpoint-interval=", 0) == 0) {
      if (!dynfo::core::ParseU64(arg.substr(22), &parsed) || parsed == 0) {
        std::fprintf(stderr, "error: bad --checkpoint-interval value '%s'\n",
                     arg.substr(22).c_str());
        return 2;
      }
      durability.records_per_segment = parsed;
      checkpoint_interval_set = true;
    } else if (arg.rfind("--batch-size=", 0) == 0) {
      if (!dynfo::core::ParseU64(arg.substr(13), &parsed) || parsed == 0) {
        std::fprintf(stderr, "error: bad --batch-size value '%s'\n",
                     arg.substr(13).c_str());
        return 2;
      }
      batch_size = static_cast<size_t>(parsed);
    } else if (arg.rfind("--", 0) == 0) {
      std::fprintf(stderr, "error: unknown flag %s\n", arg.c_str());
      return 2;
    } else {
      positional.push_back(arg);
    }
  }
  if (positional.size() < 2 || positional.size() > 3) {
    std::fprintf(stderr,
                 "usage: %s [--backend=auto|hash|dense] [--durable-dir=DIR] "
                 "[--checkpoint-interval=N] [--deadline-ms=N] "
                 "[--max-memory-mb=N] [--batch-size=N] "
                 "<program.dynfo> <universe-size> [script]\n",
                 argv[0]);
    return 2;
  }
  if (checkpoint_interval_set && durable_dir.empty()) {
    std::fprintf(stderr, "error: --checkpoint-interval needs --durable-dir\n");
    return 2;
  }
  if (batch_size != 0 && positional.size() != 3) {
    std::fprintf(stderr,
                 "error: --batch-size is a script (replay) mode flag; use a "
                 "`batch ... end` block interactively\n");
    return 2;
  }
  auto program = dynfo::dyn::LoadProgramFile(positional[0]);
  if (!program.ok()) {
    std::fprintf(stderr, "error: %s\n", program.status().message().c_str());
    return 2;
  }
  uint64_t n = 0;
  if (!dynfo::core::ParseU64(positional[1], &n) || n == 0) {
    std::fprintf(stderr, "error: bad universe size '%s'\n", positional[1].c_str());
    return 2;
  }
  std::ifstream script;
  if (positional.size() == 3) {
    script.open(positional[2]);
    if (!script) {
      std::fprintf(stderr, "error: cannot open %s\n", positional[2].c_str());
      return 2;
    }
  }

  EngineService service(program.value(), static_cast<size_t>(n), options);
  std::printf("loaded program '%s' (universe %llu)\n",
              program.value()->name().c_str(), static_cast<unsigned long long>(n));
  if (!durable_dir.empty()) {
    const bool revived = dynfo::dyn::DurableStore::Exists(durable_dir);
    dynfo::core::Status attached = service.AttachDurability(durable_dir, durability);
    if (!attached.ok()) {
      std::fprintf(stderr, "error attaching durable store %s: %s\n",
                   durable_dir.c_str(), attached.ToString().c_str());
      return wire::ExitCodeFor(attached.code());
    }
    if (revived) {
      std::printf(
          "durable store %s: revived at step %llu (%llu record(s) replayed)\n",
          durable_dir.c_str(),
          static_cast<unsigned long long>(service.recovery_stats().requests),
          static_cast<unsigned long long>(
              service.recovery_stats().replayed_on_recovery));
    } else {
      std::printf("durable store %s: initialized\n", durable_dir.c_str());
    }
  }

  dynfo::dyn::ServiceServer server(&service, wire::Address{});
  const EngineService::SessionId session = service.OpenSession().value();
  const auto call = [&](const std::string& frame) {
    const std::vector<std::string> words =
        wire::SplitWords(frame.substr(0, frame.find('\n')));
    if (words[0] == "snapshot" || words[0] == "restore") {
      return FileCommand(&service, words);
    }
    wire::Response response;
    wire::DecodeResponse(server.Dispatch(session, frame), &response.code,
                         &response.body);
    return response;
  };
  if (script.is_open()) {
    return wire::RunScript(script, std::cout, /*interactive=*/false, batch_size, call);
  }
  return wire::RunScript(std::cin, std::cout, /*interactive=*/true, 0, call);
}
