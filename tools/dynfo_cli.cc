/// \file dynfo_cli.cc
/// A command-line driver for Dyn-FO programs: load a text spec, feed it
/// requests, ask first-order questions — the relational calculus as a
/// dynamic query shell.
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
///                      segment and every filled segment triggers an
///                      incremental checkpoint. If DIR already holds a
///                      store the session is revived from it (full snapshot
///                      + delta + at most one segment of replay), so
///                      restarting with the same DIR resumes the session.
///                      `restore` and `load` are disabled in this mode.
///   --checkpoint-interval=N
///                      records per segment (= checkpoint interval and the
///                      recovery replay bound) for --durable-dir; default 64
///   --deadline-ms=N    per-request wall-clock budget; a request that blows
///                      it is abandoned at the next governor poll with the
///                      engine left untouched
///   --max-memory-mb=N  per-request budget for materialized intermediates;
///                      a breach aborts the request instead of OOM-ing
///   --batch-size=N     script (replay) mode only: auto-group consecutive
///                      mutation commands (ins/del/set) into ApplyBatch
///                      calls of up to N requests — one group commit and one
///                      fsync per batch. A non-mutation command, a full
///                      batch, or end-of-script flushes the pending group.
///
/// Exit codes map the error taxonomy (core/status.h) so scripts can branch
/// on what went wrong:
///   0 success      1 generic error        2 usage / load error
///   3 cancelled    4 deadline exceeded    5 resource budget exhausted
///   6 corruption detected
/// In script mode the first failed request stops the run with its mapped
/// code; interactively, errors are printed and the shell keeps going.
///
/// Commands (one per line, from the script or stdin; '#' comments):
///   ins <relation> <e1> <e2> ...     insert a tuple
///   del <relation> <e1> <e2> ...     delete a tuple
///   set <constant> <value>           assign a constant
///   batch ... end                    group the enclosed ins/del/set lines
///                                    into ONE ApplyBatch (one group commit,
///                                    one fsync). Only mutations may appear
///                                    inside; a malformed block (unknown
///                                    command, nested batch, EOF before end)
///                                    applies nothing and exits 2 in script
///                                    mode
///   query [params...]                evaluate the boolean query
///   show <name> [params...]          print a named query / data relation
///                                    (params bind the query's $0, $1, ...)
///   eval <formula>                   evaluate an ad-hoc FO sentence
///   stats                            engine counters
///   dump                             the whole data structure
///   save <file>                      serialize the data structure
///   load <file>                      restore a previously saved structure
///   snapshot <file>                  write a checksummed engine snapshot
///                                    (state + step counter)
///   restore <file>                   restore a snapshot written by snapshot
///   compact                          (--durable-dir only) force a full-
///                                    snapshot consolidation now
///   quit

#include <cstdio>
#include <fstream>
#include <iostream>
#include <optional>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "core/durable_io.h"
#include "core/text.h"
#include "dynfo/engine.h"
#include "dynfo/loader.h"
#include "dynfo/recovery.h"
#include "dynfo/wire.h"
#include "fo/parser.h"
#include "relational/request.h"
#include "relational/serialize.h"

namespace {

namespace wire = dynfo::dyn::wire;

using dynfo::dyn::Engine;
using dynfo::dyn::GuardedEngine;
using dynfo::relational::Element;
using dynfo::relational::Request;

/// Maps the status taxonomy to the CLI's documented exit codes (shared with
/// the wire protocol, dynfo/wire.h). 2 is reserved for usage/load errors
/// (set directly in main).
int ExitCodeFor(dynfo::core::StatusCode code) {
  return wire::ExitCodeFor(code);
}

std::vector<std::string> Split(const std::string& line) {
  return wire::SplitWords(line);
}

bool ParseElements(const std::vector<std::string>& words, size_t start,
                   std::vector<Element>* out) {
  std::string error;
  if (!wire::ParseElements(words, start, out, &error)) {
    std::printf("error: %s\n", error.c_str());
    return false;
  }
  return true;
}

/// The same check the server makes before a read (wire::CheckReadArguments);
/// prints the reason and returns false when the read cannot be evaluated.
bool CheckReadArguments(const dynfo::fo::FormulaPtr& formula,
                        const std::vector<Element>& params, const Engine& engine) {
  std::string error;
  if (wire::CheckReadArguments(formula, params, engine.universe_size(), &error)) {
    return true;
  }
  std::printf("error: %s\n", error.c_str());
  return false;
}

/// Parses one mutation command (`ins`, `del`, or `set`) into a Request via
/// the shared wire grammar. Prints the reason and returns false when the
/// words don't form one; the caller decides whether that aborts (batch
/// block) or skips the line (single-command mode, matching the historical
/// behavior).
bool ParseMutation(const std::vector<std::string>& words, Request* out) {
  std::string error;
  if (wire::ParseMutation(words, out, &error)) return true;
  if (!error.empty()) std::printf("error: %s\n", error.c_str());
  return false;
}

/// The shell's mutable state: either a bare Engine or a GuardedEngine
/// owning the durable store. `engine` always points at the live engine
/// either way.
struct Session {
  Engine* engine = nullptr;
  GuardedEngine* guarded = nullptr;  ///< non-null in --durable-dir mode
  dynfo::dyn::ApplyGovernance governance;
  size_t batch_size = 0;  ///< --batch-size=N auto-grouping; 0 = off

  bool durable() const { return guarded != nullptr; }
};

/// The engine's ungoverned path trusts its caller, so the bare-engine shell
/// checks every request against the program before applying anything.
dynfo::core::Status ValidateAll(const Engine& engine,
                                std::span<const Request> requests) {
  for (const Request& request : requests) {
    dynfo::core::Status valid =
        engine.program().ValidateRequest(request, engine.universe_size());
    if (!valid.ok()) return valid;
  }
  return dynfo::core::Status();
}

/// Applies one request under the session's governance (deadline / memory
/// budget flags). In durable mode the GuardedEngine does all of it itself
/// (validate, governed apply, fsynced append, checkpoint-on-rotation). A
/// refused or governed-out request is reported via Status instead of
/// CHECK-crashing the shell, and leaves the engine untouched.
dynfo::core::Status ApplyOne(Session* session, const Request& request) {
  if (session->durable()) return session->guarded->Apply(request);
  dynfo::core::Status valid =
      ValidateAll(*session->engine, std::span<const Request>(&request, 1));
  if (!valid.ok()) return valid;
  return session->engine->TryApply(request, session->governance);
}

/// Batched counterpart of ApplyOne: one governor for the whole group, and
/// in durable mode one group commit and one fsync (GuardedEngine::ApplyBatch,
/// prefix-atomic abort). A group with any refused member applies nothing.
dynfo::core::Status ApplyGroup(Session* session, std::span<const Request> requests,
                               dynfo::dyn::BatchReport* report) {
  if (session->durable()) return session->guarded->ApplyBatch(requests, report);
  dynfo::core::Status valid = ValidateAll(*session->engine, requests);
  if (!valid.ok()) return valid;
  return session->engine->TryApplyBatch(requests, session->governance, report);
}

int Run(Session* session, std::istream& in, bool interactive) {
  Engine* engine = session->engine;
  auto program = engine->program().data_vocabulary();
  dynfo::fo::ParserEnvironment formulas(program);

  // --batch-size replay mode: consecutive mutations accumulate here and go
  // through one group-committed ApplyBatch per full group. Any non-mutation
  // command (and end-of-script) flushes first so reads still observe every
  // preceding write, exactly as in unbatched replay.
  std::vector<Request> pending;
  auto flush_pending = [&]() -> int {
    if (pending.empty()) return 0;
    dynfo::dyn::BatchReport report;
    dynfo::core::Status applied = ApplyGroup(session, pending, &report);
    const size_t size = pending.size();
    pending.clear();
    if (applied.ok()) {
      std::printf("ok: batch applied %zu request(s)\n", size);
      return 0;
    }
    std::printf("error: %s (batch applied %zu of %zu)\n",
                applied.ToString().c_str(), report.applied, size);
    return ExitCodeFor(applied.code());
  };

  std::string line;
  if (interactive) std::printf("dynfo> ");
  while (std::getline(in, line)) {
    size_t hash = line.find('#');
    if (hash != std::string::npos) line.erase(hash);
    std::vector<std::string> words = Split(line);
    if (words.empty()) {
      if (interactive) std::printf("dynfo> ");
      continue;
    }
    const std::string& command = words[0];
    const bool mutation =
        command == "ins" || command == "del" || command == "set";
    if (!mutation && command != "batch") {
      int flushed = flush_pending();
      if (flushed != 0 && !interactive) return flushed;
    }
    if (command == "quit" || command == "exit") break;

    if (mutation) {
      Request request;
      if (ParseMutation(words, &request)) {
        if (session->batch_size > 0) {
          pending.push_back(request);
          if (pending.size() >= session->batch_size) {
            int flushed = flush_pending();
            if (flushed != 0 && !interactive) return flushed;
          }
        } else {
          dynfo::core::Status applied = ApplyOne(session, request);
          if (applied.ok()) {
            std::printf("ok: %s\n", request.ToString().c_str());
          } else {
            std::printf("error: %s\n", applied.ToString().c_str());
            if (!interactive) return ExitCodeFor(applied.code());
          }
        }
      }
    } else if (command == "batch") {
      // An explicit group-commit block: collect mutations until `end`, then
      // apply them as ONE batch. A malformed block (anything that is not a
      // well-formed mutation inside it, a nested `batch`, arguments after
      // `batch`, or EOF before `end`) applies nothing — exit 2 in script
      // mode, per the documented usage-error code.
      int flushed = flush_pending();
      if (flushed != 0 && !interactive) return flushed;
      bool malformed = false;
      bool closed = false;
      std::vector<Request> group;
      if (words.size() != 1) {
        std::printf("error: batch takes no arguments (batch ... end)\n");
        malformed = true;
        closed = true;  // do not consume the rest of the block
      }
      std::string inner;
      while (!closed && std::getline(in, inner)) {
        size_t inner_hash = inner.find('#');
        if (inner_hash != std::string::npos) inner.erase(inner_hash);
        std::vector<std::string> body = Split(inner);
        if (body.empty()) continue;
        if (body[0] == "end") {
          closed = true;
          break;
        }
        if (body[0] != "ins" && body[0] != "del" && body[0] != "set") {
          std::printf("error: '%s' is not allowed inside a batch block\n",
                      body[0].c_str());
          malformed = true;
          break;
        }
        Request request;
        if (!ParseMutation(body, &request)) {
          malformed = true;
          break;
        }
        group.push_back(request);
      }
      if (!malformed && !closed) {
        std::printf("error: batch block not closed with 'end'\n");
        malformed = true;
      }
      if (malformed) {
        std::printf("error: malformed batch block; nothing applied\n");
        if (!interactive) return 2;
      } else {
        dynfo::dyn::BatchReport report;
        dynfo::core::Status applied = ApplyGroup(session, group, &report);
        if (applied.ok()) {
          std::printf("ok: batch applied %zu request(s)\n", group.size());
        } else {
          std::printf("error: %s (batch applied %zu of %zu)\n",
                      applied.ToString().c_str(), report.applied, group.size());
          if (!interactive) return ExitCodeFor(applied.code());
        }
      }
    } else if (command == "query") {
      std::vector<Element> params;
      if (ParseElements(words, 1, &params) &&
          CheckReadArguments(engine->program().bool_query(), params, *engine)) {
        std::printf("%s\n", engine->QueryBool(params) ? "true" : "false");
      }
    } else if (command == "show") {
      if (words.size() < 2) {
        std::printf("error: show needs a name\n");
      } else if (const dynfo::dyn::NamedQuery* query =
                     engine->program().FindNamedQuery(words[1])) {
        std::vector<Element> params;
        if (ParseElements(words, 2, &params) &&
            CheckReadArguments(query->formula, params, *engine)) {
          std::printf("%s = %s\n", words[1].c_str(),
                      engine->QueryRelation(words[1], params).ToString().c_str());
        }
      } else if (program->RelationIndex(words[1]) >= 0) {
        std::printf("%s = %s\n", words[1].c_str(),
                    engine->data().relation(words[1]).ToString().c_str());
      } else {
        std::printf("error: no query or relation named %s\n", words[1].c_str());
      }
    } else if (command == "eval") {
      std::string text = line.substr(line.find("eval") + 4);
      auto parsed = formulas.Parse(text);
      if (!parsed.ok()) {
        std::printf("error: %s\n", parsed.status().message().c_str());
      } else if (!parsed.value()->FreeVariables().empty()) {
        std::printf("error: eval needs a sentence (no free variables)\n");
      } else if (CheckReadArguments(parsed.value(), {}, *engine)) {
        std::printf("%s\n", engine->QuerySentence(parsed.value()) ? "true" : "false");
      }
    } else if (command == "stats") {
      const Engine::Stats& stats = engine->stats();
      std::printf(
          "requests=%llu recomputed=%llu delta=%llu +%llu/-%llu tuples "
          "batches=%llu batch_requests=%llu\n",
          static_cast<unsigned long long>(stats.requests),
          static_cast<unsigned long long>(stats.relations_recomputed),
          static_cast<unsigned long long>(stats.delta_applications),
          static_cast<unsigned long long>(stats.tuples_inserted),
          static_cast<unsigned long long>(stats.tuples_erased),
          static_cast<unsigned long long>(stats.batches),
          static_cast<unsigned long long>(stats.batch_requests));
      const dynfo::fo::EvalStats eval = engine->eval_stats();
      std::printf("backend:");
      for (int i = 0; i < program->num_relations(); ++i) {
        const bool dense = engine->data().relation(i).backend() ==
                           dynfo::relational::RelationBackend::kDense;
        std::printf(" %s=%s", program->relation(i).name.c_str(),
                    dense ? "dense" : "hash");
      }
      std::printf(
          " conversions=%llu dense_applies=%llu kernels=%llu words=%llu\n",
          static_cast<unsigned long long>(eval.backend_conversions),
          static_cast<unsigned long long>(stats.dense_applies),
          static_cast<unsigned long long>(eval.dense_kernel_launches),
          static_cast<unsigned long long>(eval.words_scanned));
      if (session->durable()) {
        const dynfo::dyn::DurableStore::Counters& c =
            session->guarded->durable_store()->counters();
        std::printf(
            "durable: appends=%llu batch_appends=%llu bytes=%llu fsyncs=%llu "
            "checkpoints=%llu full=%llu rotated=%llu collected=%llu\n",
            static_cast<unsigned long long>(c.appends),
            static_cast<unsigned long long>(c.batch_appends),
            static_cast<unsigned long long>(c.bytes_appended),
            static_cast<unsigned long long>(c.fsyncs),
            static_cast<unsigned long long>(c.checkpoints),
            static_cast<unsigned long long>(c.full_snapshots),
            static_cast<unsigned long long>(c.segments_rotated),
            static_cast<unsigned long long>(c.files_collected));
      }
    } else if (command == "dump") {
      std::printf("%s", engine->data().ToString().c_str());
    } else if (command == "save" && words.size() == 2) {
      dynfo::core::Status written = dynfo::core::AtomicWriteFile(
          words[1], dynfo::relational::WriteStructure(engine->data()));
      if (!written.ok()) {
        std::printf("error: %s\n", written.ToString().c_str());
      } else {
        std::printf("saved to %s\n", words[1].c_str());
      }
    } else if (command == "load" && words.size() == 2) {
      std::ifstream file(words[1]);
      if (session->durable()) {
        std::printf(
            "error: load would desynchronize the durable store; use a fresh "
            "--durable-dir instead\n");
      } else if (!file) {
        std::printf("error: cannot read %s\n", words[1].c_str());
      } else {
        std::stringstream buffer;
        buffer << file.rdbuf();
        auto restored =
            dynfo::relational::ReadStructure(buffer.str(), program);
        if (!restored.ok()) {
          std::printf("error: %s\n", restored.status().message().c_str());
        } else if (restored.value().universe_size() !=
                   engine->data().universe_size()) {
          std::printf("error: saved universe size %zu != engine's %zu\n",
                      restored.value().universe_size(),
                      engine->data().universe_size());
        } else {
          *engine->mutable_data() = std::move(restored).value();
          std::printf("loaded %s\n", words[1].c_str());
        }
      }
    } else if (command == "snapshot" && words.size() == 2) {
      dynfo::core::Status written =
          dynfo::core::AtomicWriteFile(words[1], engine->Snapshot());
      if (!written.ok()) {
        std::printf("error: %s\n", written.ToString().c_str());
      } else {
        std::printf("snapshot written to %s (step %llu)\n", words[1].c_str(),
                    static_cast<unsigned long long>(engine->stats().requests));
      }
    } else if (command == "restore" && words.size() == 2) {
      std::ifstream file(words[1], std::ios::binary);
      if (session->durable()) {
        std::printf(
            "error: restore would desynchronize the durable store; use a "
            "fresh --durable-dir instead\n");
      } else if (!file) {
        std::printf("error: cannot read %s\n", words[1].c_str());
      } else {
        std::stringstream buffer;
        buffer << file.rdbuf();
        dynfo::core::Status status = engine->Restore(buffer.str());
        if (!status.ok()) {
          std::printf("error: %s\n", status.message().c_str());
        } else {
          std::printf("restored %s (step %llu)\n", words[1].c_str(),
                      static_cast<unsigned long long>(engine->stats().requests));
        }
      }
    } else if (command == "compact") {
      if (!session->durable()) {
        std::printf("error: compact needs --durable-dir\n");
      } else {
        dynfo::core::Status compacted = session->guarded->Compact();
        if (!compacted.ok()) {
          std::printf("error: %s\n", compacted.ToString().c_str());
          if (!interactive) return ExitCodeFor(compacted.code());
        } else {
          std::printf("compacted at step %llu\n",
                      static_cast<unsigned long long>(engine->stats().requests));
        }
      }
    } else {
      std::printf("error: unknown command '%s'\n", command.c_str());
    }
    if (interactive) std::printf("dynfo> ");
  }
  return flush_pending();
}

}  // namespace

int main(int argc, char** argv) {
  std::string durable_dir;
  uint64_t checkpoint_interval = 0;  // 0 = DurableStoreOptions default
  size_t batch_size = 0;             // 0 = unbatched replay
  dynfo::dyn::ApplyGovernance governance;
  dynfo::dyn::EngineOptions engine_options;
  engine_options.use_dense_relations = true;  // --backend=auto
  std::vector<std::string> positional;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--backend=", 0) == 0) {
      const std::string mode = arg.substr(10);
      if (mode == "auto") {
        engine_options.use_dense_relations = true;
        engine_options.force_dense_backend = false;
      } else if (mode == "hash") {
        engine_options.use_dense_relations = false;
        engine_options.force_dense_backend = false;
      } else if (mode == "dense") {
        engine_options.use_dense_relations = true;
        engine_options.force_dense_backend = true;
      } else {
        std::fprintf(stderr,
                     "error: bad --backend value '%s' (want auto|hash|dense)\n",
                     mode.c_str());
        return 2;
      }
    } else if (arg.rfind("--durable-dir=", 0) == 0) {
      durable_dir = arg.substr(14);
    } else if (arg.rfind("--checkpoint-interval=", 0) == 0) {
      if (!dynfo::core::ParseU64(arg.substr(22), &checkpoint_interval) ||
          checkpoint_interval == 0) {
        std::fprintf(stderr, "error: bad --checkpoint-interval value '%s'\n",
                     arg.substr(22).c_str());
        return 2;
      }
    } else if (arg.rfind("--deadline-ms=", 0) == 0) {
      uint64_t millis = 0;
      // deadline_ms is signed: larger values would wrap to "already expired".
      if (!dynfo::core::ParseU64(arg.substr(14), &millis) || millis == 0 ||
          millis > INT64_MAX) {
        std::fprintf(stderr, "error: bad --deadline-ms value '%s'\n",
                     arg.substr(14).c_str());
        return 2;
      }
      governance.deadline_ms = static_cast<int64_t>(millis);
    } else if (arg.rfind("--max-memory-mb=", 0) == 0) {
      uint64_t megabytes = 0;
      if (!dynfo::core::ParseU64(arg.substr(16), &megabytes) || megabytes == 0) {
        std::fprintf(stderr, "error: bad --max-memory-mb value '%s'\n",
                     arg.substr(16).c_str());
        return 2;
      }
      governance.limits.max_bytes = megabytes * 1024 * 1024;
    } else if (arg.rfind("--batch-size=", 0) == 0) {
      uint64_t size = 0;
      if (!dynfo::core::ParseU64(arg.substr(13), &size) || size == 0) {
        std::fprintf(stderr, "error: bad --batch-size value '%s'\n",
                     arg.substr(13).c_str());
        return 2;
      }
      batch_size = static_cast<size_t>(size);
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
  if (checkpoint_interval != 0 && durable_dir.empty()) {
    std::fprintf(stderr, "error: --checkpoint-interval needs --durable-dir\n");
    return 2;
  }
  if (batch_size != 0 && positional.size() != 3) {
    std::fprintf(stderr,
                 "error: --batch-size is a script (replay) mode flag; use a "
                 "`batch ... end` block interactively\n");
    return 2;
  }
  std::ifstream spec(positional[0]);
  if (!spec) {
    std::fprintf(stderr, "error: cannot open %s\n", positional[0].c_str());
    return 2;
  }
  std::stringstream buffer;
  buffer << spec.rdbuf();
  auto program = dynfo::dyn::LoadProgramFromText(buffer.str());
  if (!program.ok()) {
    std::fprintf(stderr, "error loading %s: %s\n", positional[0].c_str(),
                 program.status().message().c_str());
    return 2;
  }
  uint64_t parsed_n = 0;
  if (!dynfo::core::ParseU64(positional[1], &parsed_n) || parsed_n == 0) {
    std::fprintf(stderr, "error: bad universe size '%s'\n", positional[1].c_str());
    return 2;
  }
  size_t n = static_cast<size_t>(parsed_n);
  std::optional<Engine> engine;
  std::optional<GuardedEngine> guarded;
  Session session;
  session.governance = governance;
  session.batch_size = batch_size;

  if (!durable_dir.empty()) {
    dynfo::dyn::GuardedEngineOptions options;
    options.engine_options = engine_options;
    options.check_every = 0;  // no oracle/invariant: the wrapper only persists
    options.governance.governance = governance;
    guarded.emplace(program.value(), n, /*oracle=*/nullptr,
                    /*invariant=*/nullptr, options);
    dynfo::dyn::DurabilityOptions durability;
    if (checkpoint_interval != 0) {
      durability.store.records_per_segment = checkpoint_interval;
    }
    const bool revived = dynfo::dyn::DurableStore::Exists(durable_dir);
    dynfo::core::Status attached =
        guarded->AttachDurability(durable_dir, durability);
    if (!attached.ok()) {
      std::fprintf(stderr, "error attaching durable store %s: %s\n",
                   durable_dir.c_str(), attached.ToString().c_str());
      int code = ExitCodeFor(attached.code());
      return code == 0 ? 2 : code;
    }
    session.guarded = &*guarded;
    session.engine = guarded->mutable_engine();
    std::printf("loaded program '%s' (universe %zu)\n",
                program.value()->name().c_str(), n);
    if (revived) {
      std::printf(
          "durable store %s: revived at step %llu (%llu record(s) replayed)\n",
          durable_dir.c_str(),
          static_cast<unsigned long long>(session.engine->stats().requests),
          static_cast<unsigned long long>(
              guarded->recovery_stats().replayed_on_recovery));
    } else {
      std::printf("durable store %s: initialized\n", durable_dir.c_str());
    }
  } else {
    engine.emplace(program.value(), n, engine_options);
    session.engine = &*engine;
    std::printf("loaded program '%s' (universe %zu)\n",
                program.value()->name().c_str(), n);
  }

  if (positional.size() == 3) {
    std::ifstream script(positional[2]);
    if (!script) {
      std::fprintf(stderr, "error: cannot open %s\n", positional[2].c_str());
      return 2;
    }
    return Run(&session, script, /*interactive=*/false);
  }
  return Run(&session, std::cin, /*interactive=*/true);
}
