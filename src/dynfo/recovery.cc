#include "dynfo/recovery.h"

#include <chrono>
#include <utility>

#include "core/text.h"
#include "relational/serialize.h"

namespace dynfo::dyn {

namespace {

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
      .count();
}

/// Parsed form of a "session" checkpoint blob: the step counter plus the
/// two length-prefixed sections — the engine's own (checksummed) snapshot
/// blob and the shadowed input structure text.
struct SessionParse {
  uint64_t steps = 0;
  std::string engine_blob;
  std::string input_text;
};

core::Result<SessionParse> ParseSession(const std::string& blob) {
  core::Result<std::string> payload = relational::UnwrapChecksummed("session", blob);
  if (!payload.ok()) return payload.status();
  const std::string& text = payload.value();
  size_t pos = 0;

  auto parse_kv = [&text, &pos](const char* key, uint64_t* out) {
    const size_t nl = text.find('\n', pos);
    if (nl == std::string::npos) return false;
    const std::string line = text.substr(pos, nl - pos);
    const std::string prefix = std::string(key) + " ";
    if (line.rfind(prefix, 0) != 0 ||
        !core::ParseU64(line.substr(prefix.size()), out)) {
      return false;
    }
    pos = nl + 1;
    return true;
  };
  auto read_section = [&text, &pos, &parse_kv](const char* key,
                                               std::string* dest) {
    uint64_t bytes = 0;
    if (!parse_kv(key, &bytes)) return false;
    if (text.size() - pos < bytes) return false;
    *dest = text.substr(pos, bytes);
    pos += bytes;
    return true;
  };
  auto err = [](const std::string& message) {
    return core::Status::Error("session blob: " + message);
  };

  SessionParse out;
  if (!parse_kv("steps", &out.steps)) return err("missing 'steps' line");
  if (!read_section("engine", &out.engine_blob)) {
    return err("missing engine section");
  }
  if (!read_section("input", &out.input_text)) {
    return err("missing input section");
  }
  if (pos != text.size()) return err("trailing bytes");
  return out;
}

/// What start-over and the corruption checks answer once Restore has left
/// the wrapper without a trusted input structure.
core::Status NoTrustedInput(const std::string& what) {
  return core::Status::Error(
      what + " needs the input structure, and the engine snapshot restored "
             "into this wrapper does not carry it");
}

}  // namespace

GuardedEngine::GuardedEngine(std::shared_ptr<const DynProgram> program,
                             size_t universe_size, Oracle oracle,
                             InvariantCheck invariant, GuardedEngineOptions options)
    : program_(std::move(program)),
      options_(std::move(options)),
      oracle_(std::move(oracle)),
      invariant_(std::move(invariant)),
      engine_(std::make_unique<Engine>(program_, universe_size,
                                       options_.engine_options)),
      input_(program_->input_vocabulary(), universe_size) {
  if (options_.post_init) options_.post_init(engine_.get());
}

std::string GuardedEngine::Violation() const {
  if (oracle_ && program_->bool_query() != nullptr) {
    const bool expected = oracle_(input_);
    const bool actual = engine_->QueryBool();
    if (expected != actual) {
      return std::string("query mismatch (oracle ") + (expected ? "true" : "false") +
             ", engine " + (actual ? "true" : "false") + ")";
    }
  }
  if (invariant_) {
    std::string violation = invariant_(input_, *engine_);
    if (!violation.empty()) return violation;
  }
  return "";
}

core::Status GuardedEngine::Apply(const relational::Request& request) {
  core::Status valid = program_->ValidateRequest(request, input_.universe_size());
  if (!valid.ok()) return valid;
  if (options_.governance.active()) {
    // A cancelled/timed-out request leaves the engine untouched and must
    // not reach the store as history.
    core::Status applied = GovernedApply(request);
    if (!applied.ok()) return applied;
  } else {
    engine_->Apply(request);
  }
  return CommitApplied(std::span<const relational::Request>(&request, 1),
                       core::Status());
}

core::Status GuardedEngine::ApplyBatch(std::span<const relational::Request> requests,
                                       BatchReport* report) {
  if (report != nullptr) *report = BatchReport{};
  if (requests.empty()) return core::Status();

  // One validation sweep before anything applies: the group commit must
  // never record a batch the wrapper would have rejected piecewise.
  for (const relational::Request& request : requests) {
    core::Status valid = program_->ValidateRequest(request, input_.universe_size());
    if (!valid.ok()) return valid;
  }

  // Engine first, then the store: the applied prefix is only known after
  // the batch runs, and a crash between apply and append is safe — the
  // caller never got an OK, and recovery serves the pre-batch state.
  BatchReport local;
  core::Status status =
      engine_->TryApplyBatch(requests, options_.governance.governance, &local);
  if (report != nullptr) *report = local;
  switch (local.code) {
    case core::StatusCode::kCancelled:
      ++stats_.cancellations;
      break;
    case core::StatusCode::kDeadlineExceeded:
      ++stats_.deadlines_exceeded;
      break;
    case core::StatusCode::kResourceExhausted:
      ++stats_.budget_breaches;
      break;
    default:
      break;
  }
  if (local.applied == 0) return status;
  ++stats_.batches;
  stats_.batch_requests += local.applied;
  // Group-commit exactly the applied prefix — one record, one fsync —
  // whether the batch finished or aborted partway: the store must match
  // the engine, and on abort the engine holds the prefix.
  return CommitApplied(requests.first(local.applied), status);
}

core::Status GuardedEngine::CommitApplied(std::span<const relational::Request> applied,
                                          core::Status status) {
  if (store_.has_value()) {
    // An append failure means the caller never gets an OK and recovery
    // serves the pre-request state.
    core::Status appended = store_->Append(applied);
    if (!appended.ok()) return appended;
  }
  for (const relational::Request& request : applied) {
    relational::ApplyRequest(&input_, request);
  }
  const uint64_t before = stats_.requests;
  stats_.requests += applied.size();
  if (store_.has_value() && store_->checkpoint_due()) {
    core::Status checkpointed = store_->Checkpoint(MakeSessionBlob());
    if (!checkpointed.ok()) return checkpointed;
  }
  if (!status.ok()) return status;
  // Cadence: at most one check per call, when it crossed a check_every
  // boundary (a batch trades the in-between checks per-request Apply would
  // have run for throughput, see DESIGN.md §14).
  if (options_.check_every > 0 &&
      before / options_.check_every != stats_.requests / options_.check_every) {
    return CheckNow();
  }
  return core::Status();
}

core::Status GuardedEngine::GovernedApply(const relational::Request& request) {
  const GovernancePolicy& policy = options_.governance;
  ExecTier tier = ExecTier::kCompiledIndexed;  // rung 0: the engine as configured
  bool repaired = false;
  core::Status last;
  while (true) {
    ++stats_.tier_activations[static_cast<int>(tier)];
    if (tier == ExecTier::kStartOver) {
      // Last rung: rebuild auxiliary state from the trusted input, then
      // muddle through ungoverned at the reference tier — correctness over
      // latency once every governed tier has failed.
      core::Status rebuilt =
          Recover("degradation ladder exhausted: " + last.ToString());
      if (!rebuilt.ok()) return rebuilt;
      ++stats_.start_over_applies;
      return engine_->TryApply(request, ApplyGovernance{}, /*naive=*/true);
    }

    core::Status status =
        policy.inject_for_test ? policy.inject_for_test(tier) : core::Status();
    if (status.ok()) {
      status = engine_->TryApply(request, policy.governance,
                                 /*naive=*/tier == ExecTier::kNaive);
    }
    if (status.ok()) return status;
    last = status;

    switch (status.code()) {
      case core::StatusCode::kCancelled:
        // The caller stopped waiting; retrying on a slower tier is waste.
        ++stats_.cancellations;
        return status;
      case core::StatusCode::kDeadlineExceeded:
        ++stats_.deadlines_exceeded;
        return status;
      case core::StatusCode::kResourceExhausted:
        ++stats_.budget_breaches;
        break;  // descend: lower tiers hold smaller intermediates
      case core::StatusCode::kCorruption:
        if (!repaired) {
          // Derived state (indexes, plans) is suspect but the tuples are
          // not: rebuild in place and retry the same rung once.
          engine_->RebuildCompiledState();
          ++stats_.index_rebuilds;
          repaired = true;
          continue;
        }
        break;
      default:
        break;
    }

    ++stats_.ladder_fallbacks;
    tier = tier == ExecTier::kCompiledIndexed ? ExecTier::kNaive : ExecTier::kStartOver;
  }
}

core::Status GuardedEngine::CheckNow() {
  if (!input_trusted_) return NoTrustedInput("the corruption check");
  ++stats_.checks_run;
  // Index (derived-state) corruption is repairable in place: the tuples
  // are intact, so this is not a start-over event and does not count as a
  // detected corruption of the auxiliary state.
  core::Status indexes = engine_->ValidateIndexes();
  if (!indexes.ok()) {
    engine_->RebuildCompiledState();
    ++stats_.index_rebuilds;
  }
  const std::string violation = Violation();
  if (violation.empty()) return core::Status();

  ++stats_.corruptions_detected;
  stats_.last_detection_step = stats_.requests;
  // Quarantine before any rebuild touches the engine: the corrupt state is
  // evidence, not garbage.
  last_quarantine_ = "corruption detected at step " + std::to_string(stats_.requests) +
                     ": " + violation + "\n" +
                     DescribeAuxDivergence(*engine_, input_, options_.post_init) +
                     "\n" + relational::WriteStructure(engine_->data());
  return Recover(violation);
}

core::Status GuardedEngine::Recover(const std::string& reason) {
  if (!input_trusted_) return NoTrustedInput("start-over (" + reason + ")");
  const auto start = std::chrono::steady_clock::now();
  auto fresh = std::make_unique<Engine>(program_, input_.universe_size(),
                                        options_.engine_options);
  if (options_.post_init) options_.post_init(fresh.get());
  const relational::RequestSequence replay =
      relational::StructureAsRequests(input_);
  for (const relational::Request& request : replay) {
    fresh->Apply(request);
  }
  fresh->set_request_counter(stats_.requests);
  stats_.rebuild_requests_replayed += replay.size();
  engine_ = std::move(fresh);
  const double elapsed = SecondsSince(start);
  stats_.last_recovery_seconds = elapsed;
  stats_.recovery_seconds += elapsed;

  const std::string still_bad = Violation();
  if (!still_bad.empty()) {
    return core::Status::Error(
        "start-over recovery failed: the rebuilt state still violates checks (" +
        still_bad + "); original trigger: " + reason);
  }
  ++stats_.recoveries;
  return core::Status();
}

std::string GuardedEngine::MakeSessionBlob() const {
  const std::string engine_blob = engine_->Snapshot();
  const std::string input_text = relational::WriteStructure(input_);
  std::string payload = "steps " + std::to_string(stats_.requests) + "\nengine " +
                        std::to_string(engine_blob.size()) + "\n";
  payload.reserve(payload.size() + engine_blob.size() + input_text.size() + 32);
  payload.append(engine_blob);
  payload.append("input ").append(std::to_string(input_text.size())).push_back('\n');
  payload.append(input_text);
  return relational::WrapChecksummed("session", payload);
}

core::Status GuardedEngine::Compact() {
  if (!store_.has_value()) {
    return core::Status::Error("compact needs a durable store");
  }
  return store_->Checkpoint(MakeSessionBlob());
}

core::Status GuardedEngine::Restore(const std::string& snapshot) {
  if (store_.has_value()) {
    return core::Status::Error(
        "restore would desynchronize the durable store; use a fresh store "
        "directory instead");
  }
  core::Status restored = engine_->Restore(snapshot);
  if (!restored.ok()) return restored;
  stats_.requests = engine_->stats().requests;
  input_trusted_ = false;
  return core::Status();
}

core::Status GuardedEngine::AttachDurability(const std::string& dir,
                                             DurableStoreOptions options) {
  if (stats_.requests != 0 || store_.has_value() || !input_trusted_) {
    return core::Status::Error(
        "AttachDurability must be called on a fresh GuardedEngine");
  }

  if (!DurableStore::Exists(dir)) {
    // Fresh directory: seed it with the current session (which includes any
    // post_init precomputation) as the first full snapshot.
    core::Result<DurableStore> created = DurableStore::Create(
        dir, program_->name(), input_.universe_size(), MakeSessionBlob(),
        stats_.requests, options);
    if (!created.ok()) return created.status();
    store_.emplace(std::move(created).value());
    return core::Status();
  }

  // Revive: the snapshot, then at most one segment of journal replay. On
  // any error the wrapper is partially restored — rebuild it before
  // retrying.
  core::Result<DurableStore> opened = DurableStore::Open(
      dir, *program_->input_vocabulary(), input_.universe_size(), options);
  if (!opened.ok()) return opened.status();
  DurableStore store = std::move(opened).value();
  if (store.manifest().program != program_->name()) {
    return core::Status::Error("durable store " + dir + " is for program '" +
                               store.manifest().program + "', wrapper runs '" +
                               program_->name() + "'");
  }

  core::Result<SessionParse> full = ParseSession(store.recovered().full_blob);
  if (!full.ok()) {
    return core::Status::Corruption("durable store " + dir + ": " +
                                    full.status().message());
  }
  core::Status restored = engine_->Restore(full.value().engine_blob);
  if (!restored.ok()) return restored;
  core::Result<relational::Structure> input_restored = relational::ReadStructure(
      full.value().input_text, program_->input_vocabulary());
  if (!input_restored.ok()) {
    return core::Status::Corruption("durable store " + dir + ": session input: " +
                                    input_restored.status().message());
  }
  if (input_restored.value().universe_size() != input_.universe_size()) {
    return core::Status::Error("durable store " + dir +
                               ": session input universe size mismatch");
  }
  input_ = std::move(input_restored).value();
  if (engine_->stats().requests != full.value().steps) {
    return core::Status::Corruption(
        "durable store " + dir + ": session step counters disagree");
  }
  stats_.requests = engine_->stats().requests;
  if (stats_.requests != store.manifest().full_steps) {
    return core::Status::Corruption(
        "durable store " + dir +
        ": snapshot step counter disagrees with the manifest");
  }

  for (const relational::Request& request : store.recovered().replay) {
    core::Status valid = program_->ValidateRequest(request, input_.universe_size());
    if (!valid.ok()) {
      return core::Status::Error("durable store " + dir + " replays a request " +
                                 program_->name() + " refuses: " + valid.message());
    }
    engine_->Apply(request);
    relational::ApplyRequest(&input_, request);
    ++stats_.requests;
    ++stats_.replayed_on_recovery;
  }
  if (stats_.requests != store.next_seq()) {
    return core::Status::Corruption(
        "durable store " + dir + ": replay ends at step " +
        std::to_string(stats_.requests) + ", store expects " +
        std::to_string(store.next_seq()));
  }

  store_.emplace(std::move(store));
  // Self-heal: if the previous run died in its checkpoint loop, the active
  // segment may already be full — checkpoint now so the replay bound holds
  // for the next recovery too.
  if (store_->checkpoint_due()) return store_->Checkpoint(MakeSessionBlob());
  return core::Status();
}

}  // namespace dynfo::dyn
