/// Resource-governed execution basics (DESIGN.md §10): deadlines, caller
/// cancellation, memory/cardinality budgets, and the typed error taxonomy
/// they produce. The invariant under test everywhere: a governed Apply that
/// fails leaves the engine bit-identical to its pre-call state, and a
/// governed Apply that succeeds matches the ungoverned run exactly.

#include <gtest/gtest.h>

#include <string>

#include "core/cancel.h"
#include "core/rng.h"
#include "dynfo/engine.h"
#include "dynfo/workload.h"
#include "programs/reach_semidynamic.h"
#include "programs/reach_u.h"
#include "programs/registry.h"

namespace dynfo::dyn {
namespace {

relational::RequestSequence ReachWorkload(size_t n, uint64_t seed) {
  GraphWorkloadOptions options;
  options.num_requests = 40;
  options.seed = seed;
  options.undirected = true;
  return MakeGraphWorkload(*programs::ReachUInputVocabulary(), "E", n, options);
}

TEST(GovernanceTest, UngovernedTryApplyMatchesApply) {
  const size_t n = 8;
  Engine governed(programs::MakeReachUProgram(), n);
  Engine legacy(programs::MakeReachUProgram(), n);
  for (const relational::Request& request : ReachWorkload(n, 3)) {
    core::Status status = governed.TryApply(request);
    ASSERT_TRUE(status.ok()) << status.ToString();
    legacy.Apply(request);
  }
  EXPECT_EQ(governed.data(), legacy.data());
  EXPECT_EQ(governed.Snapshot(), legacy.Snapshot());
}

TEST(GovernanceTest, GenerousGovernanceMatchesUngovernedRun) {
  const size_t n = 8;
  ApplyGovernance governance;
  governance.deadline_ms = 60 * 1000;
  governance.limits.max_tuples = 1u << 30;
  Engine governed(programs::MakeReachUProgram(), n);
  Engine legacy(programs::MakeReachUProgram(), n);
  BatchReport report;
  for (const relational::Request& request : ReachWorkload(n, 4)) {
    core::Status status = governed.TryApply(request, governance,
                                            /*naive=*/false, &report);
    ASSERT_TRUE(status.ok()) << status.ToString();
    legacy.Apply(request);
  }
  EXPECT_EQ(governed.data(), legacy.data());
  // A governed run actually polls and charges: the report proves the
  // governor was live, not bypassed.
  EXPECT_GT(report.governor_checks, 0u);
}

TEST(GovernanceTest, ExpiredDeadlineAbortsWithStateUntouched) {
  const size_t n = 8;
  Engine engine(programs::MakeReachUProgram(), n);
  for (const relational::Request& request : ReachWorkload(n, 5)) {
    engine.Apply(request);
  }
  const std::string before = engine.Snapshot();

  ApplyGovernance governance;
  governance.deadline_ms = -1;  // already expired: pins the timeout path
  core::Status status =
      engine.TryApply(relational::Request::Insert("E", {0, 7}), governance);
  EXPECT_EQ(status.code(), core::StatusCode::kDeadlineExceeded)
      << status.ToString();
  EXPECT_EQ(engine.Snapshot(), before);

  // The same request, ungoverned, still applies cleanly afterwards.
  engine.Apply(relational::Request::Insert("E", {0, 7}));
  EXPECT_TRUE(engine.data().relation("E").Contains({0, 7}));
}

TEST(GovernanceTest, CancelTokenAbortsWithStateUntouched) {
  const size_t n = 8;
  Engine engine(programs::MakeReachUProgram(), n);
  engine.Apply(relational::Request::Insert("E", {0, 1}));
  const std::string before = engine.Snapshot();

  core::CancelToken cancel;
  cancel.Cancel();
  ApplyGovernance governance;
  governance.cancel = &cancel;
  core::Status status =
      engine.TryApply(relational::Request::Insert("E", {1, 2}), governance);
  EXPECT_EQ(status.code(), core::StatusCode::kCancelled) << status.ToString();
  EXPECT_EQ(engine.Snapshot(), before);
  EXPECT_EQ(engine.stats().requests, 1u);
}

TEST(GovernanceTest, BudgetBreachReturnsResourceExhausted) {
  const size_t n = 8;
  Engine engine(programs::MakeReachUProgram(), n);
  for (const relational::Request& request : ReachWorkload(n, 6)) {
    engine.Apply(request);
  }
  const std::string before = engine.Snapshot();

  ApplyGovernance governance;
  governance.limits.max_tuples = 1;  // any real evaluation materializes more
  BatchReport report;
  core::Status status = engine.TryApply(relational::Request::Insert("E", {0, 6}),
                                        governance, /*naive=*/false, &report);
  EXPECT_EQ(status.code(), core::StatusCode::kResourceExhausted)
      << status.ToString();
  EXPECT_EQ(engine.Snapshot(), before);
  EXPECT_GT(report.tuples_charged, 0u);
}

TEST(GovernanceTest, InjectedAllocationFailureIsTyped) {
  const size_t n = 8;
  Engine engine(programs::MakeReachUProgram(), n);
  engine.Apply(relational::Request::Insert("E", {0, 1}));
  const std::string before = engine.Snapshot();

  ApplyGovernance governance;
  governance.limits.max_tuples = 1u << 30;  // never breached for real
  governance.fail_alloc_after_charges = 1;  // ...but the 1st charge "fails"
  core::Status status =
      engine.TryApply(relational::Request::Insert("E", {1, 2}), governance);
  EXPECT_EQ(status.code(), core::StatusCode::kResourceExhausted)
      << status.ToString();
  EXPECT_EQ(engine.Snapshot(), before);
}

TEST(GovernanceTest, MalformedRequestsBecomeTypedErrorsWhenGoverned) {
  Engine engine(programs::MakeReachUProgram(), 8);
  ApplyGovernance governance;
  governance.deadline_ms = 60 * 1000;
  EXPECT_EQ(engine.TryApply(relational::Request::Insert("Nope", {0, 1}), governance)
                .code(),
            core::StatusCode::kError);
  EXPECT_EQ(engine.TryApply(relational::Request::Insert("E", {0, 99}), governance)
                .code(),
            core::StatusCode::kError);
  EXPECT_EQ(engine.stats().requests, 0u);
}

/// A semi-dynamic program refuses deletes: governed, that is a typed error
/// with the engine bit-identical, alone or anywhere in a batch — never the
/// trusted-caller CHECK failure.
TEST(GovernanceTest, SemiDynamicDeleteIsATypedErrorWhenGoverned) {
  using relational::Request;
  Engine engine(programs::MakeReachSemiDynamicProgram(), 6);
  engine.Apply(Request::Insert("E", {0, 1}));
  engine.Apply(Request::Insert("E", {1, 2}));
  const std::string before = engine.Snapshot();

  ApplyGovernance governance;
  governance.deadline_ms = 60 * 1000;
  BatchReport report;
  core::Status status = engine.TryApply(Request::Delete("E", {0, 1}), governance,
                                        /*naive=*/false, &report);
  EXPECT_EQ(status.code(), core::StatusCode::kError) << status.ToString();
  EXPECT_NE(status.message().find("semi-dynamic"), std::string::npos);
  EXPECT_EQ(report.applied, 0u);
  EXPECT_EQ(engine.Snapshot(), before);

  const Request batch[] = {Request::Insert("E", {2, 3}), Request::Delete("E", {0, 1})};
  status = engine.TryApplyBatch(batch, governance, &report);
  EXPECT_EQ(status.code(), core::StatusCode::kError) << status.ToString();
  EXPECT_EQ(report.applied, 0u);
  EXPECT_EQ(engine.Snapshot(), before);
}

TEST(GovernanceTest, TierOverridesProduceIdenticalStates) {
  // The ladder's rungs on one engine configuration: as configured, and
  // pinned to the naive reference — also on an engine configured without
  // indexes, whose pinned requests still run naive.
  const size_t n = 8;
  ApplyGovernance governance;
  governance.deadline_ms = 60 * 1000;
  EngineOptions no_indexes;
  no_indexes.use_indexes = false;
  Engine configured(programs::MakeReachUProgram(), n);
  Engine naive(programs::MakeReachUProgram(), n);
  Engine naive_no_indexes(programs::MakeReachUProgram(), n, no_indexes);
  for (const relational::Request& request : ReachWorkload(n, 7)) {
    ASSERT_TRUE(configured.TryApply(request, governance).ok());
    ASSERT_TRUE(naive.TryApply(request, governance, /*naive=*/true).ok());
    ASSERT_TRUE(naive_no_indexes.TryApply(request, governance, /*naive=*/true).ok());
  }
  EXPECT_EQ(configured.data(), naive.data());
  EXPECT_EQ(configured.data(), naive_no_indexes.data());
  // A naive-pinned request rematerializes every rule: no delta work.
  EXPECT_EQ(naive.stats().delta_applications, 0u);
  EXPECT_EQ(naive.stats().fallback_recomputes, 0u);
  EXPECT_GT(configured.stats().delta_applications, 0u);
}

TEST(GovernanceTest, ValidateIndexesDetectsCorruptionAndRebuildRepairs) {
  const size_t n = 8;
  Engine engine(programs::MakeReachUProgram(), n);
  for (const relational::Request& request : ReachWorkload(n, 8)) {
    engine.Apply(request);
  }
  EXPECT_TRUE(engine.ValidateIndexes().ok());

  // Damage the first live index found; the validator must name it.
  core::Rng rng(17);
  bool corrupted = false;
  relational::Structure* data = engine.mutable_data();
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
  core::Status status = engine.ValidateIndexes();
  EXPECT_EQ(status.code(), core::StatusCode::kCorruption) << status.ToString();

  engine.RebuildCompiledState();
  EXPECT_TRUE(engine.ValidateIndexes().ok());
  // The repaired engine still answers like a fresh replay.
  Engine fresh(programs::MakeReachUProgram(), n);
  for (const relational::Request& request : ReachWorkload(n, 8)) {
    fresh.Apply(request);
  }
  EXPECT_EQ(engine.data(), fresh.data());
}

}  // namespace
}  // namespace dynfo::dyn
