/// \file recovery.h
/// Corruption detection and start-over recovery: the fault-tolerant
/// execution wrapper.
///
/// Datta et al.'s "start over and muddle through" observation is the
/// theory-sanctioned recovery move for dynamic programs: when auxiliary
/// state is suspect, discard it, rebuild from the (trusted) input
/// structure via the program's own initialization, and catch up. The
/// GuardedEngine turns that into engineering:
///
///   * it shadows the input structure (the ground truth the auxiliary
///     relations are *about*);
///   * on a configurable cadence it runs the same oracle/invariant hooks
///     the verifier uses; a violation means the auxiliary state has
///     diverged — bit rot, a bad restore, or a genuine program bug;
///   * on detection it quarantines the corrupt state (serialized, with
///     forensics) and performs start-over recovery: a fresh engine,
///     post-init, and a replay of the input as its canonical request
///     history. If the rebuilt state still fails the checks, the defect is
///     in the program, not the state, and an error Status is returned;
///   * under governance, a request that fails as configured descends the
///     degradation ladder: the naive reference, then that same start-over
///     rebuild (GovernancePolicy);
///   * optionally every applied request goes to a durable store (journal.h,
///     AttachDurability), making the whole session reconstructible after a
///     kill from the latest full snapshot plus at most one journal segment.
///
/// All failure paths return Status — nothing in this layer CHECK-crashes
/// on bad input.

#ifndef DYNFO_DYNFO_RECOVERY_H_
#define DYNFO_DYNFO_RECOVERY_H_

#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string>

#include "dynfo/engine.h"
#include "dynfo/journal.h"
#include "dynfo/verifier.h"
#include "relational/request.h"

namespace dynfo::dyn {

/// Resource governance + degradation policy for every Apply through the
/// wrapper. Inactive (default) = the legacy ungoverned path. Active = each
/// request runs under `governance` with the engine as configured, and on
/// failure descends the ladder (DESIGN.md §10):
///
///   configured → naive → start-over
///
/// kCancelled / kDeadlineExceeded return immediately (a slower rung cannot
/// help a caller who stopped waiting). kCorruption triggers one in-place
/// RebuildCompiledState + same-rung retry before descending. Everything
/// else descends at once. The naive rung pins the request to the reference
/// evaluator; the final rung rebuilds from the input structure and applies
/// ungoverned there — the "start over and muddle through" move.
struct GovernancePolicy {
  ApplyGovernance governance;
  /// Test hook: when set, each tier attempt first consults this; a non-OK
  /// return stands in for the engine call (pins ladder paths
  /// deterministically). OK = run the engine for real.
  std::function<core::Status(ExecTier)> inject_for_test;

  bool active() const {
    return governance.active() || inject_for_test != nullptr;
  }
};

struct GuardedEngineOptions {
  EngineOptions engine_options;
  /// Run the corruption check after every `check_every`-th request
  /// (0 = only on explicit CheckNow calls). The cadence bounds detection
  /// latency: a corruption is caught at most `check_every` requests after
  /// it happens — if the checks can see it at all.
  uint64_t check_every = 16;
  /// Applied to every engine built by the wrapper, including start-over
  /// rebuilds (e.g. InstallPlusRelation for Dyn-FO+ precomputation).
  EnginePostInit post_init;
  /// Per-request resource governance and degradation-ladder policy.
  GovernancePolicy governance;
};

struct RecoveryStats {
  uint64_t requests = 0;             ///< requests applied through the wrapper
  uint64_t batches = 0;              ///< ApplyBatch calls that applied >= 1 request
  uint64_t batch_requests = 0;       ///< requests applied via ApplyBatch
  uint64_t checks_run = 0;           ///< cadence + explicit checks
  uint64_t corruptions_detected = 0; ///< checks that found a violation
  uint64_t recoveries = 0;           ///< successful start-over rebuilds
  uint64_t rebuild_requests_replayed = 0;  ///< start-over replay work
  double recovery_seconds = 0;       ///< total time spent rebuilding
  uint64_t last_detection_step = 0;  ///< request count at last detection
  double last_recovery_seconds = 0;

  /// Journal records replayed while attaching (zero without
  /// AttachDurability) — the replay bound the crash matrix hard-checks
  /// stays ≤ the checkpoint interval. Checkpoint counts live in
  /// DurableStore::Counters.
  uint64_t replayed_on_recovery = 0;

  // Governed-execution counters (all zero when governance is inactive).
  uint64_t tier_activations[4] = {0, 0, 0, 0};  ///< attempts per ExecTier (slot 1 unused)
  uint64_t ladder_fallbacks = 0;     ///< rung descents
  uint64_t cancellations = 0;        ///< requests ending kCancelled
  uint64_t deadlines_exceeded = 0;   ///< requests ending kDeadlineExceeded
  uint64_t budget_breaches = 0;      ///< kResourceExhausted trips observed
  uint64_t index_rebuilds = 0;       ///< in-place compiled-state repairs
  uint64_t start_over_applies = 0;   ///< requests that reached the last rung
};

/// An Engine wrapped with the fault-tolerance layer. Apply/Query from one
/// thread at a time, like Engine.
class GuardedEngine {
 public:
  /// `oracle` and `invariant` may each be null; corruption checks use
  /// whichever are present (a wrapper with neither never detects anything
  /// and only provides durability).
  GuardedEngine(std::shared_ptr<const DynProgram> program, size_t universe_size,
                Oracle oracle, InvariantCheck invariant,
                GuardedEngineOptions options = {});

  /// Validates (DynProgram::ValidateRequest), applies — through the
  /// degradation ladder when governance is active — then commits: durable
  /// append (if attached), input mirror, counters, checkpoint when due, and
  /// on the cadence the corruption check with recovery. An error Status
  /// means the request was rejected (left unapplied), the store append
  /// failed, or recovery failed.
  core::Status Apply(const relational::Request& request);

  /// Applies `requests` as one group-committed batch (DESIGN.md §14).
  ///
  /// Semantics are bit-identical to calling Apply once per request, but the
  /// per-request constants are paid once per batch: one validation sweep, one
  /// governor, one journal record, one fsync, at most one checkpoint + one
  /// cadence check. A malformed request anywhere in the batch rejects the
  /// WHOLE batch before anything applies.
  ///
  /// Abort contract (prefix atomicity): if governance trips mid-batch, the
  /// engine is left at the last fully-applied prefix; exactly that prefix is
  /// group-committed to the store and mirrored into the input, and
  /// `report->applied` says how long it is. The degradation ladder does not
  /// run for batches — a caller who wants ladder semantics applies requests
  /// one at a time.
  core::Status ApplyBatch(std::span<const relational::Request> requests,
                          BatchReport* report = nullptr);

  /// Runs the corruption check immediately; recovers on violation.
  core::Status CheckNow();

  /// Forces start-over recovery regardless of check results.
  core::Status Recover(const std::string& reason);

  /// Attaches the segmented durable store at `dir` (journal.h): every
  /// applied request is appended (fsynced) to the active segment, and every
  /// filled segment triggers a checkpoint — the whole session as a full
  /// snapshot — after which the previous snapshot and the covered segment
  /// are garbage-collected. Each append is fsynced by default, so an
  /// acknowledged request survives power loss, not just a process kill.
  /// Must be called on a fresh wrapper. If `dir` already holds a store, the
  /// session is revived first: the snapshot plus at most one segment of
  /// replay, so recovery time is O(checkpoint interval) regardless of
  /// history length. On any error the wrapper is partially restored —
  /// rebuild it before retrying.
  core::Status AttachDurability(const std::string& dir,
                                DurableStoreOptions options = {});

  /// Checkpoints now, whether or not the segment is full: writes the
  /// session as a new snapshot and collects the old one and its segment.
  core::Status Compact();

  bool durability_attached() const { return store_.has_value(); }
  /// The attached store (null when not attached) — counters and manifest.
  const DurableStore* durable_store() const {
    return store_.has_value() ? &*store_ : nullptr;
  }

  bool QueryBool(std::vector<relational::Element> params = {}) const {
    return engine_->QueryBool(std::move(params));
  }

  const Engine& engine() const { return *engine_; }
  /// Mutable engine access — for Dyn-FO+ precomputation installs and for
  /// fault-injection campaigns. State mutated through here is exactly what
  /// the cadence checks exist to catch.
  Engine* mutable_engine() { return engine_.get(); }

  /// The shadowed input structure (ground truth).
  const relational::Structure& input() const { return input_; }

  const RecoveryStats& recovery_stats() const { return stats_; }

  /// The live governance policy — chaos campaigns mutate it between
  /// requests (deadline jitter, injected allocation failures).
  GovernancePolicy* mutable_governance() { return &options_.governance; }

  /// Serialized corrupt state + forensics from the most recent detection
  /// (empty if none yet): the violation, the first diverging auxiliary
  /// relation vs a start-over reference, and the full corrupt structure.
  const std::string& last_quarantine() const { return last_quarantine_; }

 private:
  /// Empty string = state passes all configured checks.
  std::string Violation() const;

  /// One request through the degradation ladder (see GovernancePolicy).
  core::Status GovernedApply(const relational::Request& request);

  /// The commit tail shared by Apply and ApplyBatch, for requests the
  /// engine has already applied: durable append (one record), input
  /// mirror, request counter, checkpoint when due, and — unless `status`
  /// (the engine's verdict on the rest of a batch) is an error, which is
  /// returned instead — the cadence check when `applied` crossed a
  /// check_every boundary.
  core::Status CommitApplied(std::span<const relational::Request> applied,
                             core::Status status);

  /// The full session (engine state + shadowed input + step counter) as a
  /// checksummed "session" blob — the one checkpoint form.
  std::string MakeSessionBlob() const;

  std::shared_ptr<const DynProgram> program_;
  GuardedEngineOptions options_;
  Oracle oracle_;
  InvariantCheck invariant_;
  std::unique_ptr<Engine> engine_;
  relational::Structure input_;
  std::optional<DurableStore> store_;
  RecoveryStats stats_;
  std::string last_quarantine_;
};

}  // namespace dynfo::dyn

#endif  // DYNFO_DYNFO_RECOVERY_H_
