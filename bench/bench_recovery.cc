/// \file bench_recovery.cc
/// The fault-injection campaign (EXPERIMENTS.md): a GuardedEngine absorbs
/// request churn while a seeded FaultInjector flips tuples of load-bearing
/// auxiliary relations at scheduled steps. Each benchmark reports, as JSON
/// counters:
///   * injections / detections / washed_out — every fault either persists
///                                  to a cadence check and is DETECTED, or
///                                  is overwritten by later legitimate
///                                  updates before any check could see it
///                                  (washed out: the state is consistent
///                                  again, there is no corruption left to
///                                  detect). detections + washed_out MUST
///                                  equal injections — a persistent
///                                  corruption that escapes detection
///                                  aborts the run;
///   * detection_latency_avg      — requests between planting a fault and
///                                  the cadence check that caught it
///                                  (bounded by check_cadence);
///   * recovery_seconds_avg       — mean start-over rebuild time;
///   * recompute_seconds          — rebuilding by replaying the FULL request
///                                  history from scratch (the naive
///                                  alternative recovery);
///   * recovery_vs_recompute      — ratio of the two (start-over replays the
///                                  current input, not the whole history, so
///                                  it wins as histories grow).
///
/// The durability campaign (DESIGN.md §12) adds three more benchmarks:
///   * BM_CrashMatrix     — kills a durable session at EVERY I/O boundary
///                          (cycling the legal damage modes), revives, and
///                          hard-checks bit-identical state. Counters:
///                          crash_points, crash_recovery_rate (CHECKed
///                          == 1.0), max_replay_records (CHECKed <= the
///                          checkpoint interval), recovery_seconds_avg/max;
///   * BM_DurableOverhead — the same workload with and without per-append
///                          fsync; durable_overhead is the wall-clock ratio
///                          (gated <= 1.25x in CI);
///   * BM_RecoveryCurve   — revival time vs history length: checkpointed
///                          revival stays flat while replay-from-zero grows
///                          O(history) (EXPERIMENTS.md recovery-time curve).

#include <benchmark/benchmark.h>

#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.h"
#include "core/durable_io.h"
#include "core/fault.h"
#include "dynfo/journal.h"
#include "dynfo/recovery.h"
#include "dynfo/workload.h"
#include "programs/matching.h"
#include "programs/multiplication.h"
#include "programs/parity.h"
#include "programs/reach_u.h"
#include "relational/serialize.h"

namespace dynfo {
namespace {

struct RecoveryCase {
  std::string name;
  std::function<std::shared_ptr<const dyn::DynProgram>()> program;
  std::function<void(dyn::Engine*)> post_init;  // may be null
  dyn::Oracle oracle;                           // may be null
  dyn::InvariantCheck invariant;
  std::function<relational::RequestSequence(size_t)> workload;
  std::vector<std::string> targets;  // load-bearing aux relations to corrupt
};

/// Everything in the data vocabulary except `target`.
std::vector<std::string> ProtectAllBut(const relational::Vocabulary& vocab,
                                       const std::string& target) {
  std::vector<std::string> protect;
  for (int r = 0; r < vocab.num_relations(); ++r) {
    if (vocab.relation(r).name != target) protect.push_back(vocab.relation(r).name);
  }
  return protect;
}

struct CampaignResult {
  size_t injections = 0;
  size_t detections = 0;
  size_t washed_out = 0;       // fault erased by churn before any check
  uint64_t latency_total = 0;  // requests from injection to detection
  dyn::RecoveryStats stats;
};

CampaignResult RunCampaign(const RecoveryCase& rcase, size_t n,
                           const relational::RequestSequence& requests,
                           uint64_t cadence, uint64_t seed) {
  dyn::GuardedEngineOptions options;
  options.check_every = cadence;
  options.post_init = rcase.post_init;
  dyn::GuardedEngine guarded(rcase.program(), n, rcase.oracle, rcase.invariant,
                             options);
  core::FaultInjector faults(seed);

  CampaignResult result;
  bool fault_pending = false;
  uint64_t injected_at = 0;
  // One injection per ~3 cadence windows, at a seeded offset inside the
  // window so faults land at varying distances from the next check.
  uint64_t next_injection = 2 + faults.rng().Below(cadence);
  for (const relational::Request& request : requests) {
    if (fault_pending &&
        rcase.invariant(guarded.input(), guarded.engine()).empty()) {
      // Later updates legitimately overwrote the flipped tuple before a
      // cadence check ran: the state is consistent again and no evidence of
      // the fault remains — nothing detectable was missed.
      ++result.washed_out;
      fault_pending = false;
    }
    if (!fault_pending && guarded.recovery_stats().requests >= next_injection) {
      const std::string& target =
          rcase.targets[result.injections % rcase.targets.size()];
      faults.set_trial(result.injections);
      faults.FlipTuple(guarded.mutable_engine()->mutable_data(),
                       ProtectAllBut(guarded.engine().data().vocabulary(), target));
      fault_pending = true;
      injected_at = guarded.recovery_stats().requests;
      ++result.injections;
      next_injection += 3 * cadence + faults.rng().Below(cadence);
    }
    const uint64_t detected_before = guarded.recovery_stats().corruptions_detected;
    core::Status status = guarded.Apply(request);
    DYNFO_CHECK(status.ok()) << rcase.name << " [" << faults.Context()
                             << "]: " << status.message();
    if (fault_pending &&
        guarded.recovery_stats().corruptions_detected > detected_before) {
      result.latency_total +=
          guarded.recovery_stats().last_detection_step - injected_at;
      ++result.detections;
      fault_pending = false;
    }
  }
  if (fault_pending) {
    // The workload ended inside a cadence window; the final check closes it.
    const uint64_t detected_before = guarded.recovery_stats().corruptions_detected;
    core::Status status = guarded.CheckNow();
    DYNFO_CHECK(status.ok()) << rcase.name << " [" << faults.Context()
                             << "]: " << status.message();
    if (guarded.recovery_stats().corruptions_detected > detected_before) {
      result.latency_total +=
          guarded.recovery_stats().last_detection_step - injected_at;
      ++result.detections;
    }
  }
  // The campaign's completeness claim: every injected corruption either
  // washed out before a check could see it (no evidence left) or was
  // detected within the cadence. A persistent corruption escaping is a bug.
  DYNFO_CHECK(result.detections + result.washed_out == result.injections)
      << rcase.name << " [" << faults.Context() << "]: "
      << result.injections - result.detections - result.washed_out
      << " persistent corruption(s) escaped detection";
  DYNFO_CHECK(result.detections > 0)
      << rcase.name << " [" << faults.Context() << "]: campaign too weak";
  DYNFO_CHECK(guarded.recovery_stats().recoveries == result.detections)
      << rcase.name << " [" << faults.Context() << "]: a detection did not recover";
  result.stats = guarded.recovery_stats();
  return result;
}

/// The naive alternative to start-over recovery: rebuild by replaying the
/// entire request history into a fresh engine.
double RecomputeSeconds(const RecoveryCase& rcase, size_t n,
                        const relational::RequestSequence& requests) {
  dyn::Engine engine(rcase.program(), n);
  if (rcase.post_init) rcase.post_init(&engine);
  const auto start = std::chrono::steady_clock::now();
  bench::ReplayWorkload(&engine, requests);
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
      .count();
}

void RunCase(benchmark::State& state, const RecoveryCase& rcase) {
  const size_t n = static_cast<size_t>(state.range(0));
  const uint64_t cadence = static_cast<uint64_t>(state.range(1));
  const relational::RequestSequence requests = rcase.workload(n);
  const double recompute_seconds = RecomputeSeconds(rcase, n, requests);

  CampaignResult result;
  for (auto _ : state) {
    result = RunCampaign(rcase, n, requests, cadence, /*seed=*/7);
  }

  state.counters["check_cadence"] = static_cast<double>(cadence);
  state.counters["injections"] = static_cast<double>(result.injections);
  state.counters["detections"] = static_cast<double>(result.detections);
  state.counters["washed_out"] = static_cast<double>(result.washed_out);
  state.counters["detection_rate"] =
      result.injections > result.washed_out
          ? static_cast<double>(result.detections) /
                static_cast<double>(result.injections - result.washed_out)
          : 1.0;
  state.counters["detection_latency_avg"] =
      result.detections > 0
          ? static_cast<double>(result.latency_total) / result.detections
          : 0;
  state.counters["recovery_seconds_avg"] =
      result.stats.recoveries > 0
          ? result.stats.recovery_seconds / result.stats.recoveries
          : 0;
  state.counters["recompute_seconds"] = recompute_seconds;
  state.counters["recovery_vs_recompute"] =
      recompute_seconds > 0 && result.stats.recoveries > 0
          ? (result.stats.recovery_seconds / result.stats.recoveries) /
                recompute_seconds
          : 0;
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations() * requests.size()));
}

RecoveryCase ReachUCase() {
  return {"reach_u",
          [] { return programs::MakeReachUProgram(); },
          nullptr,
          programs::ReachUOracle,
          programs::ReachUInvariant,
          [](size_t n) {
            dyn::GraphWorkloadOptions options;
            options.num_requests = 160;
            options.seed = 42;
            options.undirected = true;
            options.set_fraction = 0.05;
            return dyn::MakeGraphWorkload(*programs::ReachUInputVocabulary(), "E", n,
                                          options);
          },
          {"F", "PV"}};
}

RecoveryCase MatchingCase() {
  return {"matching",
          [] { return programs::MakeMatchingProgram(); },
          nullptr,
          nullptr,
          programs::MatchingInvariant,
          [](size_t n) {
            dyn::GraphWorkloadOptions options;
            options.num_requests = 160;
            options.seed = 13;
            options.undirected = true;
            return dyn::MakeGraphWorkload(*programs::MatchingInputVocabulary(), "E", n,
                                          options);
          },
          {"Match"}};
}

RecoveryCase MultiplicationCase() {
  return {"multiplication",
          [] { return programs::MakeMultiplicationProgram(false); },
          [](dyn::Engine* engine) { programs::InstallPlusRelation(engine); },
          nullptr,
          programs::MultiplicationInvariant,
          [](size_t n) {
            dyn::GenericWorkloadOptions options;
            options.num_requests = 120;
            options.seed = 11;
            options.set_fraction = 0.0;
            return dyn::MakeGenericWorkload(*programs::MultiplicationInputVocabulary(),
                                            n, options);
          },
          {"Prod"}};
}

// ---------------------------------------------------------------------------
// Durability campaign: crash matrix, fsync overhead, recovery-time curve
// ---------------------------------------------------------------------------

std::string BenchTempDir(const std::string& name) {
  const char* base = std::getenv("TMPDIR");
  return std::string(base != nullptr ? base : "/tmp") + "/dynfo_bench_" + name;
}

void RemoveTree(const std::string& dir) {
  core::Result<std::vector<std::string>> names = core::ListDir(dir);
  if (names.ok()) {
    for (const std::string& name : names.value()) {
      std::remove((dir + "/" + name).c_str());
    }
  }
  ::rmdir(dir.c_str());
}

relational::RequestSequence MatrixWorkload(size_t n, size_t count) {
  dyn::GraphWorkloadOptions options;
  options.num_requests = count;
  options.seed = 42;
  options.undirected = true;
  options.set_fraction = 0.05;
  return dyn::MakeGraphWorkload(*programs::ReachUInputVocabulary(), "E", n,
                                options);
}

dyn::GuardedEngineOptions PureOptions() {
  dyn::GuardedEngineOptions options;
  options.check_every = 0;  // state = pure function of the applied prefix
  return options;
}

/// Runs the workload through a fresh durable session at `dir` under the
/// currently installed shim (if any). Returns acknowledged applies; sets
/// *crashed when a simulated kill ended the run early. Any other failure
/// aborts the campaign.
size_t RunDurableSession(std::shared_ptr<const dyn::DynProgram> program,
                         size_t n, const relational::RequestSequence& requests,
                         const std::string& dir,
                         const dyn::DurableStoreOptions& durability,
                         bool* crashed) {
  dyn::GuardedEngine session(program, n, nullptr, nullptr, PureOptions());
  core::Status attached = session.AttachDurability(dir, durability);
  if (!attached.ok()) {
    DYNFO_CHECK(core::IsSimulatedCrash(attached)) << attached.ToString();
    *crashed = true;
    return 0;
  }
  size_t acked = 0;
  for (const relational::Request& request : requests) {
    core::Status applied = session.Apply(request);
    if (applied.ok()) {
      ++acked;
      continue;
    }
    DYNFO_CHECK(core::IsSimulatedCrash(applied)) << applied.ToString();
    *crashed = true;
    break;
  }
  return acked;
}

/// The exhaustive kill-point campaign: every I/O boundary of a durable
/// reach_u session is killed once (damage modes cycled), each crash site is
/// revived, and revival is hard-checked bit-identical to a clean replay of
/// the durable prefix. crash_recovery_rate is CHECKed == 1.0 in-binary; the
/// CI gate re-reads it from the JSON.
void BM_CrashMatrix(benchmark::State& state) {
  const size_t n = 8;
  auto program = programs::MakeReachUProgram();
  const relational::RequestSequence requests = MatrixWorkload(n, 18);
  dyn::DurableStoreOptions durability;
  durability.records_per_segment = 5;
  const std::string dir = BenchTempDir("crash_matrix");
  const core::CrashTailMode kTails[] = {core::CrashTailMode::kKeepNone,
                                        core::CrashTailMode::kKeepHalf,
                                        core::CrashTailMode::kKeepAll};

  uint64_t points = 0;
  uint64_t recovered = 0;
  uint64_t max_replay = 0;
  double recovery_total = 0;
  double recovery_max = 0;
  for (auto _ : state) {
    // Count pass: boundaries are deterministic, one clean run learns M.
    RemoveTree(dir);
    core::CrashPointShim::Options count_options;
    core::CrashPointShim counter(count_options);
    core::InstallIoShim(&counter);
    bool crashed = false;
    RunDurableSession(program, n, requests, dir, durability, &crashed);
    core::InstallIoShim(nullptr);
    DYNFO_CHECK(!crashed);
    const uint64_t total_ops = counter.ops_seen();

    points = total_ops;
    recovered = 0;
    max_replay = 0;
    recovery_total = 0;
    recovery_max = 0;
    for (uint64_t kill = 1; kill <= total_ops; ++kill) {
      RemoveTree(dir);
      core::CrashPointShim::Options shim_options;
      shim_options.kill_at_op = kill;
      shim_options.tail_mode = kTails[kill % 3];
      shim_options.undo_pending_renames = (kill % 2) == 0;
      core::CrashPointShim shim(shim_options);
      core::InstallIoShim(&shim);
      crashed = false;
      const size_t acked =
          RunDurableSession(program, n, requests, dir, durability, &crashed);
      core::InstallIoShim(nullptr);
      DYNFO_CHECK(crashed && shim.killed()) << "op " << kill << " never reached";
      core::Status damaged = shim.ApplyCrashDamage();
      DYNFO_CHECK(damaged.ok()) << damaged.ToString();

      const auto start = std::chrono::steady_clock::now();
      dyn::GuardedEngine revived(program, n, nullptr, nullptr, PureOptions());
      core::Status attached = revived.AttachDurability(dir, durability);
      const double seconds =
          std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
              .count();
      DYNFO_CHECK(attached.ok())
          << shim.DescribeKill() << ": " << attached.ToString();
      const uint64_t steps = revived.engine().stats().requests;
      DYNFO_CHECK(steps >= acked && steps <= acked + 1)
          << shim.DescribeKill() << ": acked " << acked << " recovered " << steps;
      const uint64_t replayed = revived.recovery_stats().replayed_on_recovery;
      DYNFO_CHECK(replayed <= durability.records_per_segment)
          << shim.DescribeKill() << ": replay " << replayed
          << " exceeds one segment";

      dyn::Engine oracle(program, n);
      for (uint64_t i = 0; i < steps; ++i) oracle.Apply(requests[i]);
      DYNFO_CHECK(relational::WriteStructure(revived.engine().data()) ==
                  relational::WriteStructure(oracle.data()))
          << shim.DescribeKill() << ": silent divergence at step " << steps;

      ++recovered;
      if (replayed > max_replay) max_replay = replayed;
      recovery_total += seconds;
      if (seconds > recovery_max) recovery_max = seconds;
    }
  }
  RemoveTree(dir);
  DYNFO_CHECK(points > 0 && recovered == points)
      << recovered << "/" << points << " crash points recovered";
  DYNFO_CHECK(max_replay <= durability.records_per_segment);
  state.counters["crash_points"] = static_cast<double>(points);
  state.counters["crash_recovery_rate"] =
      static_cast<double>(recovered) / static_cast<double>(points);
  state.counters["max_replay_records"] = static_cast<double>(max_replay);
  state.counters["recovery_seconds_avg"] = recovery_total / static_cast<double>(points);
  state.counters["recovery_seconds_max"] = recovery_max;
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations() * points));
}
BENCHMARK(BM_CrashMatrix)->Unit(benchmark::kMillisecond);

/// Wall-clock cost of durability: the identical workload through the store
/// with fsync-per-append on (durable mode, the default) vs off. The engine
/// work is sized to dominate, as in production; the counter is the ratio CI
/// gates at <= 1.25x.
void BM_DurableOverhead(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  auto program = programs::MakeReachUProgram();
  const relational::RequestSequence requests = MatrixWorkload(n, 160);
  const std::string dir = BenchTempDir("durable_overhead");

  double durable_seconds = 0;
  double buffered_seconds = 0;
  uint64_t fsyncs = 0;
  for (auto _ : state) {
    for (bool fsync_on : {true, false}) {
      RemoveTree(dir);
      dyn::DurableStoreOptions durability;
      durability.fsync_each_append = fsync_on;
      dyn::GuardedEngine session(program, n, nullptr, nullptr, PureOptions());
      const auto start = std::chrono::steady_clock::now();
      core::Status attached = session.AttachDurability(dir, durability);
      DYNFO_CHECK(attached.ok()) << attached.ToString();
      for (const relational::Request& request : requests) {
        core::Status applied = session.Apply(request);
        DYNFO_CHECK(applied.ok()) << applied.ToString();
      }
      const double seconds =
          std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
              .count();
      if (fsync_on) {
        durable_seconds += seconds;
        fsyncs = session.durable_store()->counters().fsyncs;
        DYNFO_CHECK(fsyncs >= requests.size());
      } else {
        buffered_seconds += seconds;
        DYNFO_CHECK(session.durable_store()->counters().fsyncs == 0);
      }
    }
  }
  RemoveTree(dir);
  state.counters["fsyncs"] = static_cast<double>(fsyncs);
  state.counters["durable_seconds"] = durable_seconds / state.iterations();
  state.counters["buffered_seconds"] = buffered_seconds / state.iterations();
  state.counters["durable_overhead"] =
      buffered_seconds > 0 ? durable_seconds / buffered_seconds : 0;
  state.SetItemsProcessed(
      static_cast<int64_t>(state.iterations() * requests.size() * 2));
}
BENCHMARK(BM_DurableOverhead)->Arg(48)->Unit(benchmark::kMillisecond);

/// Revival time as history grows: with a checkpoint per segment the replay
/// is bounded by one segment, so revival stays flat while the naive
/// replay-from-zero alternative grows linearly (EXPERIMENTS.md).
void BM_RecoveryCurve(benchmark::State& state) {
  const size_t history = static_cast<size_t>(state.range(0));
  const size_t n = 8;
  auto program = programs::MakeParityProgram();
  dyn::GenericWorkloadOptions options;
  options.num_requests = history;
  options.seed = 17;
  options.set_fraction = 0.0;
  const relational::RequestSequence requests =
      dyn::MakeGenericWorkload(*programs::ParityInputVocabulary(), n, options);
  dyn::DurableStoreOptions durability;  // default interval: 64-record segments
  const std::string dir = BenchTempDir("curve_" + std::to_string(history));

  RemoveTree(dir);
  std::string final_state;
  {
    dyn::GuardedEngine session(program, n, nullptr, nullptr, PureOptions());
    DYNFO_CHECK(session.AttachDurability(dir, durability).ok());
    for (const relational::Request& request : requests) {
      DYNFO_CHECK(session.Apply(request).ok());
    }
    final_state = relational::WriteStructure(session.engine().data());
  }

  // Each iteration is one revival of the full-history store.
  uint64_t replayed = 0;
  for (auto _ : state) {
    dyn::GuardedEngine revived(program, n, nullptr, nullptr, PureOptions());
    core::Status attached = revived.AttachDurability(dir, durability);
    DYNFO_CHECK(attached.ok()) << attached.ToString();
    DYNFO_CHECK(relational::WriteStructure(revived.engine().data()) ==
                final_state);
    replayed = revived.recovery_stats().replayed_on_recovery;
    DYNFO_CHECK(replayed <= durability.records_per_segment);
  }

  // The naive alternative: replay the entire history from scratch.
  dyn::Engine scratch(program, n);
  const auto start = std::chrono::steady_clock::now();
  bench::ReplayWorkload(&scratch, requests);
  const double replay_from_zero =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  RemoveTree(dir);

  state.counters["history"] = static_cast<double>(history);
  state.counters["replayed_on_recovery"] = static_cast<double>(replayed);
  state.counters["replay_from_zero_seconds"] = replay_from_zero;
}
BENCHMARK(BM_RecoveryCurve)->Arg(90)->Arg(300)->Arg(1050)->Unit(benchmark::kMillisecond);

void BM_RecoveryReachU(benchmark::State& state) { RunCase(state, ReachUCase()); }
BENCHMARK(BM_RecoveryReachU)->ArgsProduct({{8, 12}, {4, 16}});

void BM_RecoveryMatching(benchmark::State& state) { RunCase(state, MatchingCase()); }
BENCHMARK(BM_RecoveryMatching)->ArgsProduct({{8, 12}, {4, 16}});

void BM_RecoveryMultiplication(benchmark::State& state) {
  RunCase(state, MultiplicationCase());
}
BENCHMARK(BM_RecoveryMultiplication)->ArgsProduct({{8, 16}, {4, 16}});

}  // namespace
}  // namespace dynfo
