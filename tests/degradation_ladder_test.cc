/// The degradation ladder (DESIGN.md §10) — configured → naive →
/// start-over — pinned path by path with the GovernancePolicy test injector: which failures descend, which repair in
/// place, which return immediately, and which reach the start-over rung —
/// plus the activation counters that prove where each request landed. Every
/// landing tier must still produce answers identical to an uninterrupted
/// replay (tiers are semantics-preserving; only cost changes).

#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "core/rng.h"
#include "dynfo/recovery.h"
#include "dynfo/workload.h"
#include "programs/reach_u.h"

namespace dynfo::dyn {
namespace {

relational::RequestSequence Workload(size_t n, uint64_t seed, size_t count = 24) {
  GraphWorkloadOptions options;
  options.num_requests = count;
  options.seed = seed;
  options.undirected = true;
  return MakeGraphWorkload(*programs::ReachUInputVocabulary(), "E", n, options);
}

/// A guarded reach_u engine with oracle + invariant checks live, so any
/// wrong answer a ladder path produced would be caught at the next check.
GuardedEngine MakeGuarded(GuardedEngineOptions options = {}) {
  return GuardedEngine(programs::MakeReachUProgram(), 8, programs::ReachUOracle,
                       programs::ReachUInvariant, std::move(options));
}

/// Replays `requests` into a fresh ungoverned engine: the reference state.
relational::Structure OracleState(const relational::RequestSequence& requests) {
  Engine oracle(programs::MakeReachUProgram(), 8);
  for (const relational::Request& request : requests) oracle.Apply(request);
  return oracle.data();
}

TEST(DegradationLadderTest, BudgetBreachAtTopTierLandsOnCompiled) {
  // Named for the retired index-off rung; the rung below the top is naive.
  GuardedEngineOptions options;
  options.governance.inject_for_test = [](ExecTier tier) {
    return tier == ExecTier::kCompiledIndexed
               ? core::Status::ResourceExhausted("injected breach")
               : core::Status();
  };
  GuardedEngine guarded = MakeGuarded(options);
  const relational::RequestSequence requests = Workload(8, 31);
  for (const relational::Request& request : requests) {
    core::Status status = guarded.Apply(request);
    ASSERT_TRUE(status.ok()) << status.ToString();
  }
  const RecoveryStats& stats = guarded.recovery_stats();
  // Every request tried the top tier, breached, and landed one rung down.
  EXPECT_EQ(stats.tier_activations[0], requests.size());
  EXPECT_EQ(stats.tier_activations[1], 0u);
  EXPECT_EQ(stats.tier_activations[2], requests.size());
  EXPECT_EQ(stats.tier_activations[3], 0u);
  EXPECT_EQ(stats.budget_breaches, requests.size());
  EXPECT_EQ(stats.ladder_fallbacks, requests.size());
  EXPECT_EQ(stats.start_over_applies, 0u);
  EXPECT_EQ(guarded.engine().data(), OracleState(requests));
}

TEST(DegradationLadderTest, CorruptionRepairsInPlaceAndRetriesSameTier) {
  int injections = 0;
  GuardedEngineOptions options;
  options.governance.inject_for_test = [&injections](ExecTier) {
    return ++injections == 1 ? core::Status::Corruption("injected plan damage")
                             : core::Status();
  };
  GuardedEngine guarded = MakeGuarded(options);
  const relational::RequestSequence requests = Workload(8, 32);
  for (const relational::Request& request : requests) {
    ASSERT_TRUE(guarded.Apply(request).ok());
  }
  const RecoveryStats& stats = guarded.recovery_stats();
  // The corrupt attempt rebuilt compiled state and retried the SAME tier:
  // one extra top-tier activation, no descent, no start-over.
  EXPECT_EQ(stats.index_rebuilds, 1u);
  EXPECT_EQ(stats.tier_activations[0], requests.size() + 1);
  EXPECT_EQ(stats.ladder_fallbacks, 0u);
  EXPECT_EQ(stats.start_over_applies, 0u);
  EXPECT_EQ(guarded.engine().data(), OracleState(requests));
}

TEST(DegradationLadderTest, PersistentFailureReachesStartOverRung) {
  GuardedEngineOptions options;
  options.governance.inject_for_test = [](ExecTier) {
    return core::Status::ResourceExhausted("injected breach at every tier");
  };
  GuardedEngine guarded = MakeGuarded(options);
  const relational::RequestSequence requests = Workload(8, 33, /*count=*/8);
  for (const relational::Request& request : requests) {
    core::Status status = guarded.Apply(request);
    ASSERT_TRUE(status.ok()) << status.ToString();
  }
  const RecoveryStats& stats = guarded.recovery_stats();
  EXPECT_EQ(stats.tier_activations[0], requests.size());
  EXPECT_EQ(stats.tier_activations[1], 0u);
  EXPECT_EQ(stats.tier_activations[2], requests.size());
  EXPECT_EQ(stats.tier_activations[3], requests.size());
  EXPECT_EQ(stats.ladder_fallbacks, 2 * requests.size());
  EXPECT_EQ(stats.start_over_applies, requests.size());
  EXPECT_EQ(stats.recoveries, requests.size());
  // Start-over rebuilds from the canonical input order, so auxiliary state
  // (the spanning forest) can legitimately differ bit-wise from a straight
  // replay; correctness is oracle/invariant agreement, which CheckNow runs.
  core::Status check = guarded.CheckNow();
  EXPECT_TRUE(check.ok()) << check.ToString();
  EXPECT_EQ(guarded.recovery_stats().corruptions_detected, 0u);
}

TEST(DegradationLadderTest, CancellationReturnsImmediatelyWithoutDescending) {
  GuardedEngineOptions options;
  options.governance.inject_for_test = [](ExecTier) {
    return core::Status::Cancelled("caller gave up");
  };
  GuardedEngine guarded = MakeGuarded(options);
  core::Status status = guarded.Apply(relational::Request::Insert("E", {0, 1}));
  EXPECT_EQ(status.code(), core::StatusCode::kCancelled);
  const RecoveryStats& stats = guarded.recovery_stats();
  EXPECT_EQ(stats.cancellations, 1u);
  EXPECT_EQ(stats.ladder_fallbacks, 0u);
  EXPECT_EQ(stats.tier_activations[0], 1u);
  EXPECT_EQ(stats.tier_activations[2], 0u);
  // A rejected request is not history: neither the shadow input nor the
  // request counter moved, and the engine is still empty.
  EXPECT_EQ(stats.requests, 0u);
  EXPECT_EQ(guarded.input().relation("E").size(), 0u);
  EXPECT_EQ(guarded.engine().data().relation("E").size(), 0u);
}

TEST(DegradationLadderTest, DeadlineExceededReturnsImmediately) {
  GuardedEngineOptions options;
  options.governance.inject_for_test = [](ExecTier) {
    return core::Status::DeadlineExceeded("too slow");
  };
  GuardedEngine guarded = MakeGuarded(options);
  core::Status status = guarded.Apply(relational::Request::Insert("E", {0, 1}));
  EXPECT_EQ(status.code(), core::StatusCode::kDeadlineExceeded);
  EXPECT_EQ(guarded.recovery_stats().deadlines_exceeded, 1u);
  EXPECT_EQ(guarded.recovery_stats().ladder_fallbacks, 0u);
}

TEST(DegradationLadderTest, RealIndexCorruptionIsRepairedAtTheCadenceCheck) {
  GuardedEngineOptions options;
  options.check_every = 0;  // explicit CheckNow only
  GuardedEngine guarded = MakeGuarded(options);
  for (const relational::Request& request : Workload(8, 34)) {
    ASSERT_TRUE(guarded.Apply(request).ok());
  }
  // Damage a live index. The tuples are intact, so this is derived-state
  // corruption: the check must repair it in place, not start over.
  core::Rng rng(5);
  bool corrupted = false;
  relational::Structure* data = guarded.mutable_engine()->mutable_data();
  for (int r = 0; r < data->vocabulary().num_relations() && !corrupted; ++r) {
    relational::Relation& relation = data->relation(r);
    for (size_t i = 0; i < relation.num_indexes(); ++i) {
      if (!relation.MutableIndexForTest(i)->CorruptForTest(&rng).empty()) {
        corrupted = true;
        break;
      }
    }
  }
  ASSERT_TRUE(corrupted) << "workload never built a non-empty index";
  ASSERT_EQ(guarded.engine().ValidateIndexes().code(),
            core::StatusCode::kCorruption);

  core::Status status = guarded.CheckNow();
  ASSERT_TRUE(status.ok()) << status.ToString();
  EXPECT_EQ(guarded.recovery_stats().index_rebuilds, 1u);
  EXPECT_EQ(guarded.recovery_stats().corruptions_detected, 0u);
  EXPECT_TRUE(guarded.engine().ValidateIndexes().ok());
}

TEST(DegradationLadderTest, RealBudgetExhaustionEndsInCorrectState) {
  // No injector: a real one-charge allocation-failure budget makes every
  // governed tier fail, so each request should ride the ladder to the
  // start-over rung and still end bit-correct.
  GuardedEngineOptions options;
  options.governance.governance.fail_alloc_after_charges = 1;
  GuardedEngine guarded = MakeGuarded(options);
  const relational::RequestSequence requests = Workload(8, 35, /*count=*/8);
  for (const relational::Request& request : requests) {
    core::Status status = guarded.Apply(request);
    ASSERT_TRUE(status.ok()) << status.ToString();
  }
  const RecoveryStats& stats = guarded.recovery_stats();
  EXPECT_EQ(stats.start_over_applies, requests.size());
  EXPECT_GE(stats.budget_breaches, requests.size());
  // Post-recovery correctness is oracle/invariant agreement (start-over
  // rebuild order makes auxiliary state legitimately non-bit-identical).
  core::Status check = guarded.CheckNow();
  EXPECT_TRUE(check.ok()) << check.ToString();
  EXPECT_EQ(guarded.recovery_stats().corruptions_detected, 0u);
}

}  // namespace
}  // namespace dynfo::dyn
