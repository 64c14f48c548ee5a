/// Batched Apply equivalence: ApplyBatch over a request sequence must be
/// bit-identical to applying the same requests one at a time — for every
/// registry scenario, every batch split, and every engine configuration
/// (hash/dense/delta/naive). Batching is a *commit* optimization,
/// never a semantic one: each request in the batch is still one synchronous
/// Dyn-FO step reading the structure its predecessor left.
///
/// The abort half of the contract (DESIGN.md §14): a governance trip
/// mid-batch leaves the engine at the last fully-applied prefix — the state
/// sequential Apply would have produced after `report.applied` requests —
/// and finishing the remainder lands on the full oracle state exactly.
///
/// FO-definable bulk changes (Schwentick–Vortmeier–Zeume) ride the same
/// pipeline: their materialized expansion must be identical whichever
/// evaluator/backend computed the change set.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <span>
#include <string>
#include <vector>

#include "core/durable_io.h"
#include "dynfo/engine.h"
#include "dynfo/recovery.h"
#include "programs/registry.h"
#include "relational/request.h"

namespace dynfo::dyn {
namespace {

using relational::Request;
using relational::RequestSequence;

struct Config {
  std::string name;
  EngineOptions options;
};

std::vector<Config> Configs() {
  std::vector<Config> out;
  out.push_back({"default", {}});
  EngineOptions naive;
  naive.eval_mode = EvalMode::kNaive;
  out.push_back({"naive", naive});
  EngineOptions no_delta;
  no_delta.use_delta = false;
  out.push_back({"no_delta", no_delta});
  EngineOptions dense_auto;
  dense_auto.use_dense_relations = true;
  out.push_back({"dense_auto", dense_auto});
  EngineOptions dense_forced;
  dense_forced.use_dense_relations = true;
  dense_forced.force_dense_backend = true;
  out.push_back({"dense_forced", dense_forced});
  return out;
}

Engine MakeEngine(const programs::ProgramScenario& scenario,
                  const EngineOptions& options) {
  Engine engine(scenario.make_program(), scenario.default_universe, options);
  if (scenario.post_init) scenario.post_init(&engine);
  return engine;
}

class BatchEquivalence : public ::testing::TestWithParam<size_t> {};

// Same scenario, same config: splitting the workload into batches of any
// size produces the same snapshot as one request at a time.
TEST_P(BatchEquivalence, EverySplitMatchesSequential) {
  const programs::ProgramScenario& scenario =
      programs::AllScenarios()[GetParam()];
  for (const Config& config : Configs()) {
    for (uint64_t seed : {5u, 31u}) {
      const RequestSequence requests =
          scenario.make_workload(scenario.default_universe, seed);
      ASSERT_FALSE(requests.empty()) << scenario.name;

      Engine oracle = MakeEngine(scenario, config.options);
      for (const Request& request : requests) oracle.Apply(request);
      const std::string want = oracle.Snapshot();

      for (size_t batch_size : {size_t{1}, size_t{3}, size_t{7}, requests.size()}) {
        Engine batched = MakeEngine(scenario, config.options);
        for (size_t i = 0; i < requests.size(); i += batch_size) {
          const size_t len = std::min(batch_size, requests.size() - i);
          batched.ApplyBatch(
              std::span<const Request>(requests.data() + i, len));
        }
        EXPECT_EQ(batched.Snapshot(), want)
            << scenario.name << " config=" << config.name << " seed=" << seed
            << " batch_size=" << batch_size;
        EXPECT_EQ(batched.stats().batch_requests, requests.size())
            << scenario.name << " config=" << config.name;
      }
    }
  }
}

// Trip the governor at every successive poll index across a whole batch:
// each trip must leave the engine at an exact sequential prefix, reported
// via BatchReport::applied, and resuming from that prefix must land on the
// oracle state.
TEST_P(BatchEquivalence, MidBatchCancelLeavesExactPrefix) {
  const programs::ProgramScenario& scenario =
      programs::AllScenarios()[GetParam()];
  const size_t n = scenario.default_universe;
  const RequestSequence requests = scenario.make_workload(n, /*seed=*/21);
  ASSERT_FALSE(requests.empty()) << scenario.name;
  const size_t half = requests.size() / 2;
  const size_t batch_len = std::min<size_t>(8, requests.size() - half);
  const std::span<const Request> batch(requests.data() + half, batch_len);

  Engine engine = MakeEngine(scenario, {});
  for (size_t i = 0; i < half; ++i) engine.Apply(requests[i]);
  const std::string before = engine.Snapshot();

  // prefix_snapshots[k] = the sequential state after k requests of the batch.
  Engine oracle = MakeEngine(scenario, {});
  for (size_t i = 0; i < half; ++i) oracle.Apply(requests[i]);
  std::vector<std::string> prefix_snapshots;
  prefix_snapshots.push_back(oracle.Snapshot());
  for (const Request& request : batch) {
    oracle.Apply(request);
    prefix_snapshots.push_back(oracle.Snapshot());
  }

  constexpr uint64_t kMaxSweep = 1000000;
  uint64_t trip_at = 1;
  bool saw_partial_prefix = false;
  for (; trip_at <= kMaxSweep; ++trip_at) {
    ApplyGovernance governance;
    governance.trip_after_checks = trip_at;
    BatchReport report;
    core::Status status = engine.TryApplyBatch(batch, governance, &report);
    if (status.ok()) {
      EXPECT_EQ(report.applied, batch.size()) << scenario.name;
      break;
    }
    ASSERT_EQ(status.code(), core::StatusCode::kCancelled)
        << scenario.name << " trip_at=" << trip_at << ": " << status.ToString();
    ASSERT_LT(report.applied, batch.size()) << scenario.name;
    ASSERT_EQ(engine.Snapshot(), prefix_snapshots[report.applied])
        << scenario.name << ": trip at poll " << trip_at
        << " left a state that is not the sequential prefix of length "
        << report.applied;
    if (report.applied > 0) saw_partial_prefix = true;

    // Resume: the untouched suffix applied sequentially reaches the oracle.
    for (size_t i = report.applied; i < batch.size(); ++i) {
      engine.Apply(batch[i]);
    }
    EXPECT_EQ(engine.data(), oracle.data()) << scenario.name;
    ASSERT_TRUE(engine.Restore(before).ok()) << scenario.name;
  }
  ASSERT_LE(trip_at, kMaxSweep) << scenario.name << ": batch never completed";
  ASSERT_GT(trip_at, 1u) << scenario.name << ": no poll boundary exercised";
  EXPECT_TRUE(saw_partial_prefix)
      << scenario.name
      << ": the sweep never aborted with a non-empty prefix — the mid-batch "
         "abort contract was not exercised";

  // Final (successful) governed batch = the oracle history exactly.
  EXPECT_EQ(engine.data(), oracle.data()) << scenario.name;
  EXPECT_EQ(engine.stats().requests, oracle.stats().requests) << scenario.name;
}

INSTANTIATE_TEST_SUITE_P(AllPrograms, BatchEquivalence,
                         ::testing::Range<size_t>(0,
                                                  programs::AllScenarios().size()),
                         [](const ::testing::TestParamInfo<size_t>& param_info) {
                           return programs::AllScenarios()[param_info.param].name;
                         });

const programs::ProgramScenario& ScenarioNamed(const std::string& name) {
  for (const programs::ProgramScenario& scenario : programs::AllScenarios()) {
    if (scenario.name == name) return scenario;
  }
  ADD_FAILURE() << "no scenario named " << name;
  static programs::ProgramScenario missing;
  return missing;
}

// Budget and deadline trips obey the same prefix contract as cancellation.
TEST(BatchGovernanceTest, BudgetTripLeavesExactPrefix) {
  const programs::ProgramScenario& scenario = ScenarioNamed("reach_u");
  const size_t n = scenario.default_universe;
  const RequestSequence requests = scenario.make_workload(n, /*seed=*/7);
  const std::span<const Request> batch(requests.data(),
                                       std::min<size_t>(12, requests.size()));

  std::vector<std::string> prefix_snapshots;
  Engine oracle = MakeEngine(scenario, {});
  prefix_snapshots.push_back(oracle.Snapshot());
  for (const Request& request : batch) {
    oracle.Apply(request);
    prefix_snapshots.push_back(oracle.Snapshot());
  }

  bool saw_trip = false;
  for (uint64_t max_tuples : {1u, 16u, 256u, 4096u}) {
    Engine engine = MakeEngine(scenario, {});
    ApplyGovernance governance;
    governance.limits.max_tuples = max_tuples;
    BatchReport report;
    core::Status status = engine.TryApplyBatch(batch, governance, &report);
    if (status.ok()) {
      EXPECT_EQ(report.applied, batch.size());
    } else {
      EXPECT_EQ(status.code(), core::StatusCode::kResourceExhausted)
          << status.ToString();
      saw_trip = true;
    }
    ASSERT_LE(report.applied, batch.size());
    EXPECT_EQ(engine.Snapshot(), prefix_snapshots[report.applied])
        << "max_tuples=" << max_tuples;
  }
  EXPECT_TRUE(saw_trip) << "no budget ever tripped — widen the sweep";
}

TEST(BatchGovernanceTest, ExpiredDeadlineAppliesNothing) {
  const programs::ProgramScenario& scenario = ScenarioNamed("parity");
  const RequestSequence requests =
      scenario.make_workload(scenario.default_universe, /*seed=*/3);
  const std::span<const Request> batch(requests.data(),
                                       std::min<size_t>(8, requests.size()));

  Engine engine = MakeEngine(scenario, {});
  const std::string before = engine.Snapshot();
  ApplyGovernance governance;
  governance.deadline_ms = -1;  // already expired
  BatchReport report;
  core::Status status = engine.TryApplyBatch(batch, governance, &report);
  EXPECT_EQ(status.code(), core::StatusCode::kDeadlineExceeded)
      << status.ToString();
  EXPECT_EQ(report.applied, 0u);
  EXPECT_EQ(engine.Snapshot(), before);
}

// A malformed request anywhere in a governed batch rejects the whole batch
// before anything applies — group commit never sees a half-acceptable batch.
TEST(BatchGovernanceTest, MalformedMemberRejectsWholeBatch) {
  const programs::ProgramScenario& scenario = ScenarioNamed("parity");
  const size_t n = scenario.default_universe;
  Engine engine = MakeEngine(scenario, {});
  const std::string before = engine.Snapshot();

  RequestSequence batch;
  batch.push_back(Request::Insert("M", relational::Tuple{1}));
  batch.push_back(Request::Insert("M", relational::Tuple{
                                           static_cast<relational::Element>(n)}));
  ApplyGovernance governance;
  governance.trip_after_checks = 1u << 30;  // active governance, never trips
  BatchReport report;
  core::Status status = engine.TryApplyBatch(batch, governance, &report);
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(report.applied, 0u);
  EXPECT_EQ(engine.Snapshot(), before);
}

// Definable changes: the materialized expansion is canonical (sorted), is
// identical across evaluator/backend configs, and applying it batched
// equals applying it sequentially.
TEST(DefinableChangeTest, MaterializationIsConfigInvariant) {
  for (const char* name : {"parity", "reach_u"}) {
    const programs::ProgramScenario& scenario = ScenarioNamed(name);
    ASSERT_TRUE(scenario.make_definable != nullptr) << name;
    const size_t n = scenario.default_universe;
    const RequestSequence warmup = scenario.make_workload(n, /*seed=*/11);

    for (uint64_t seed : {5u, 31u}) {
      const std::vector<DefinableChange> changes =
          scenario.make_definable(n, seed);
      ASSERT_FALSE(changes.empty()) << name;

      // Reference: the default config's expansion and final state. Snapshot
      // strings serialize the per-relation backend, so cross-config
      // comparisons go through Structure equality (content-based) instead.
      std::vector<RequestSequence> want_expansions;
      Engine reference = MakeEngine(scenario, {});
      for (const Request& request : warmup) reference.Apply(request);
      for (const DefinableChange& change : changes) {
        RequestSequence expanded = reference.MaterializeDefinableChange(change);
        EXPECT_FALSE(expanded.empty())
            << name << " seed=" << seed << ": change set came out empty — "
            << "the workload no longer exercises a real bulk change";
        reference.ApplyBatch(expanded);
        want_expansions.push_back(std::move(expanded));
      }
      const relational::Structure& want_data = reference.data();
      const uint64_t want_steps = reference.stats().requests;

      for (const Config& config : Configs()) {
        Engine engine = MakeEngine(scenario, config.options);
        for (const Request& request : warmup) engine.Apply(request);
        for (size_t c = 0; c < changes.size(); ++c) {
          const RequestSequence expanded =
              engine.MaterializeDefinableChange(changes[c]);
          EXPECT_EQ(expanded, want_expansions[c])
              << name << " config=" << config.name << " seed=" << seed
              << ": definable change " << c << " materialized differently";
          ASSERT_TRUE(engine.TryApplyDefinable(changes[c]).ok());
        }
        EXPECT_EQ(engine.data(), want_data)
            << name << " config=" << config.name << " seed=" << seed;
        EXPECT_EQ(engine.stats().requests, want_steps)
            << name << " config=" << config.name << " seed=" << seed;
      }

      // Sequential application of the expansion is the same history.
      {
        Engine engine = MakeEngine(scenario, {});
        for (const Request& request : warmup) engine.Apply(request);
        for (const RequestSequence& expanded : want_expansions) {
          for (const Request& request : expanded) engine.Apply(request);
        }
        EXPECT_EQ(engine.data(), want_data) << name << " seed=" << seed;
        EXPECT_EQ(engine.stats().requests, want_steps) << name << " seed=" << seed;
      }
    }
  }
}

// The wrapper's batch path: group-committed batches survive a revival, and
// the revived engine matches a wrapper that applied every request singly.
TEST(GuardedBatchTest, DurableBatchesReviveIdentically) {
  const std::string dir = ::testing::TempDir() + "dynfo_batch_revive";
  {
    core::Result<std::vector<std::string>> names = core::ListDir(dir);
    if (names.ok()) {
      for (const std::string& name : names.value()) {
        std::remove((dir + "/" + name).c_str());
      }
    }
  }

  const programs::ProgramScenario& scenario = ScenarioNamed("reach_u");
  const size_t n = scenario.default_universe;
  const RequestSequence requests = scenario.make_workload(n, /*seed=*/13);

  GuardedEngine singles(scenario.make_program(), n, nullptr, nullptr);
  for (const Request& request : requests) {
    ASSERT_TRUE(singles.Apply(request).ok());
  }

  std::string batched_snapshot;
  {
    GuardedEngine batched(scenario.make_program(), n, nullptr, nullptr);
    ASSERT_TRUE(batched.AttachDurability(dir).ok());
    for (size_t i = 0; i < requests.size(); i += 5) {
      const size_t len = std::min<size_t>(5, requests.size() - i);
      BatchReport report;
      ASSERT_TRUE(batched
                      .ApplyBatch(std::span<const Request>(requests.data() + i, len),
                                  &report)
                      .ok());
      EXPECT_EQ(report.applied, len);
    }
    EXPECT_EQ(batched.engine().Snapshot(), singles.engine().Snapshot());
    EXPECT_GT(batched.recovery_stats().batches, 0u);
    EXPECT_EQ(batched.recovery_stats().batch_requests, requests.size());
    ASSERT_NE(batched.durable_store(), nullptr);
    EXPECT_GT(batched.durable_store()->counters().batch_appends, 0u);
    batched_snapshot = batched.engine().Snapshot();
  }

  // Revive from disk: the group-committed history replays to the same state.
  GuardedEngine revived(scenario.make_program(), n, nullptr, nullptr);
  ASSERT_TRUE(revived.AttachDurability(dir).ok());
  EXPECT_EQ(revived.engine().Snapshot(), batched_snapshot);
  EXPECT_EQ(revived.engine().Snapshot(), singles.engine().Snapshot());
}

}  // namespace
}  // namespace dynfo::dyn
