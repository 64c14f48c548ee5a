/// Dense-backend equivalence: the packed-bitmap relation backend and the
/// dense kernel fast path (DESIGN.md §13) must be observationally IDENTICAL
/// to the hash reference — swept across every registered program scenario
/// and multiple seeds, with the logical state compared after
/// EVERY request. On top of the sweep: DenseSet unit properties, forced
/// hash<->dense conversion churn mid-history, cancel-at-every-poll abort
/// atomicity under dense options, and hostile-bytes fuzzing of dense
/// snapshot pages.

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "core/fault.h"
#include "core/rng.h"
#include "dynfo/engine.h"
#include "programs/registry.h"
#include "relational/dense_set.h"
#include "relational/relation.h"
#include "relational/serialize.h"
#include "relational/structure.h"

namespace dynfo::dyn {
namespace {

EngineOptions DenseOptions(bool force = false) {
  EngineOptions options;
  options.use_dense_relations = true;
  options.force_dense_backend = force;
  return options;
}

// ---------------------------------------------------------------------------
// DenseSet unit properties.

TEST(DenseSetTest, MatchesReferenceSetUnderRandomChurn) {
  for (int arity = 0; arity <= relational::DenseSet::kMaxDenseArity; ++arity) {
    for (size_t n : {1u, 7u, 64u, 65u, 130u}) {
      relational::DenseSet dense(arity, n);
      std::set<std::vector<relational::Element>> reference;
      core::Rng rng(1000 * static_cast<uint64_t>(arity) + n);
      for (int step = 0; step < 500; ++step) {
        relational::Tuple t;
        std::vector<relational::Element> key;
        for (int i = 0; i < arity; ++i) {
          const auto e = static_cast<relational::Element>(rng.Below(n));
          t = t.Append(e);
          key.push_back(e);
        }
        if (rng.Chance(1, 3)) {
          EXPECT_EQ(dense.Erase(t), reference.erase(key) > 0);
        } else {
          EXPECT_EQ(dense.Insert(t), reference.insert(key).second);
        }
        EXPECT_EQ(dense.Contains(t), reference.count(key) > 0);
      }
      EXPECT_EQ(dense.size(), reference.size());
      EXPECT_TRUE(dense.CheckTailBitsZero());
      // Iteration yields exactly the reference contents, lexicographically.
      auto expected = reference.begin();
      for (const relational::Tuple& t : dense) {
        ASSERT_NE(expected, reference.end());
        for (int i = 0; i < arity; ++i) EXPECT_EQ(t[i], (*expected)[i]);
        ++expected;
      }
      EXPECT_EQ(expected, reference.end());
      // RecountSize agrees with the incremental counter.
      const size_t before = dense.size();
      dense.RecountSize();
      EXPECT_EQ(dense.size(), before);
    }
  }
}

TEST(DenseSetTest, TailMaskAndShapes) {
  relational::DenseSet bit(0, 5);
  EXPECT_EQ(bit.num_words(), 1u);
  EXPECT_EQ(bit.tail_mask(), 1u);
  EXPECT_TRUE(bit.Insert({}));
  EXPECT_FALSE(bit.Insert({}));
  EXPECT_TRUE(bit.Contains({}));

  relational::DenseSet vec(1, 65);
  EXPECT_EQ(vec.num_words(), 2u);
  EXPECT_EQ(vec.tail_mask(), 1u);  // 65 % 64 == 1 valid bit in the last word
  EXPECT_TRUE(vec.Insert({64}));
  EXPECT_TRUE(vec.CheckTailBitsZero());

  relational::DenseSet plane(2, 70);
  EXPECT_EQ(plane.num_words(), 70u * 2u);
  EXPECT_TRUE(plane.Insert({69, 69}));
  EXPECT_TRUE(plane.CheckTailBitsZero());
  EXPECT_EQ(plane.row(69)[1] >> (69 % 64), 1u);
}

// Cost-model regression (PR 8's honest negative: reach_u apply ran 0.84x
// under dense-vs-hash because wide auxiliary relations were pushed onto the
// bitmap backend): the AUTO backend must never select dense for an arity-3
// relation — reach_u's PV(x,y,u) is the canonical shape. A bitmap plane per
// leading pair is O(n^2) words of scan per probe, so the hysteresis band
// has no business converting these; only arity <= kMaxDenseArity (= 2)
// relations are dense candidates.
TEST(DenseCostModelTest, AutoBackendNeverSelectsDenseForArity3) {
  static_assert(relational::DenseSet::kMaxDenseArity == 2,
                "dense representability widened — revisit the cost model and "
                "this regression test");
  const programs::ProgramScenario* reach_u = nullptr;
  for (const programs::ProgramScenario& scenario : programs::AllScenarios()) {
    if (scenario.name == "reach_u") reach_u = &scenario;
  }
  ASSERT_NE(reach_u, nullptr);
  const size_t n = reach_u->default_universe;
  for (uint64_t seed : {5u, 21u}) {
    Engine engine(reach_u->make_program(), n, DenseOptions());
    const int pv = engine.data().vocabulary().RelationIndex("PV");
    ASSERT_GE(pv, 0);
    ASSERT_EQ(engine.data().vocabulary().relation(pv).arity, 3);
    for (const relational::Request& request : reach_u->make_workload(n, seed)) {
      engine.Apply(request);
      ASSERT_EQ(engine.data().relation(pv).backend(),
                relational::RelationBackend::kHash)
          << "auto backend chose dense for arity-3 PV after "
          << request.ToString() << " (seed=" << seed << ")";
    }
  }
}

// ---------------------------------------------------------------------------
// Engine sweep: dense == hash after every request, across the registry.

class DenseEquivalence : public ::testing::TestWithParam<size_t> {};

void SweepScenario(const programs::ProgramScenario& scenario, uint64_t seed) {
  const size_t n = scenario.default_universe;
  auto program = scenario.make_program();
  Engine hash(program, n);
  Engine dense(program, n, DenseOptions());
  if (scenario.post_init) {
    scenario.post_init(&hash);
    scenario.post_init(&dense);
  }
  const relational::RequestSequence requests = scenario.make_workload(n, seed);
  ASSERT_FALSE(requests.empty()) << scenario.name;
  for (size_t i = 0; i < requests.size(); ++i) {
    hash.Apply(requests[i]);
    dense.Apply(requests[i]);
    ASSERT_EQ(hash.data(), dense.data())
        << scenario.name << " seed=" << seed << " diverged at request " << i
        << " (" << requests[i].ToString() << ")";
    if (program->bool_query() != nullptr) {
      ASSERT_EQ(hash.QueryBool(), dense.QueryBool())
          << scenario.name << " seed=" << seed << " query diverged at " << i;
    }
  }
  // The dense engine's snapshot (bitmap pages and all) round-trips into a
  // same-option engine byte-identically.
  Engine revived(program, n, DenseOptions());
  if (scenario.post_init) scenario.post_init(&revived);
  core::Status restored = revived.Restore(dense.Snapshot());
  ASSERT_TRUE(restored.ok()) << scenario.name << ": " << restored.ToString();
  EXPECT_EQ(revived.Snapshot(), dense.Snapshot()) << scenario.name;
  EXPECT_EQ(revived.data(), hash.data()) << scenario.name;
}

TEST_P(DenseEquivalence, MatchesHashAfterEveryRequest) {
  SweepScenario(programs::AllScenarios()[GetParam()], /*seed=*/5);
  SweepScenario(programs::AllScenarios()[GetParam()], /*seed=*/9);
}

INSTANTIATE_TEST_SUITE_P(AllPrograms, DenseEquivalence,
                         ::testing::Range<size_t>(0,
                                                  programs::AllScenarios().size()),
                         [](const ::testing::TestParamInfo<size_t>& param_info) {
                           return programs::AllScenarios()[param_info.param].name;
                         });

// The forced-dense policy (CLI --backend=dense) is equivalent too, and its
// engines actually run the kernel fast path somewhere in the registry.
TEST(DenseEquivalenceTest, ForcedDenseMatchesHashAndExercisesKernels) {
  uint64_t dense_applies = 0;
  for (const programs::ProgramScenario& scenario : programs::AllScenarios()) {
    const size_t n = scenario.default_universe;
    auto program = scenario.make_program();
    Engine hash(program, n);
    Engine forced(program, n, DenseOptions(/*force=*/true));
    if (scenario.post_init) {
      scenario.post_init(&hash);
      scenario.post_init(&forced);
    }
    for (const relational::Request& request : scenario.make_workload(n, 7)) {
      hash.Apply(request);
      forced.Apply(request);
    }
    EXPECT_EQ(hash.data(), forced.data()) << scenario.name;
    dense_applies += forced.stats().dense_applies;
  }
  EXPECT_GT(dense_applies, 0u)
      << "no scenario ever took the dense kernel fast path";
}

// ---------------------------------------------------------------------------
// Conversion churn: state survives hash -> dense -> hash mid-history.

TEST(DenseEquivalenceTest, BackendChurnMidHistoryPreservesState) {
  for (const programs::ProgramScenario& scenario : programs::AllScenarios()) {
    const size_t n = scenario.default_universe;
    auto program = scenario.make_program();
    Engine oracle(program, n);   // hash throughout
    Engine churner(program, n);  // starts hash
    if (scenario.post_init) {
      scenario.post_init(&oracle);
      scenario.post_init(&churner);
    }
    const relational::RequestSequence requests = scenario.make_workload(n, 13);
    const size_t third = requests.size() / 3;
    for (size_t i = 0; i < requests.size(); ++i) {
      oracle.Apply(requests[i]);
      churner.Apply(requests[i]);
      if (i == third) {
        // hash -> dense: restore the hash engine's snapshot into a forced-
        // dense engine (Restore stamps the new policy, converting).
        Engine to_dense(program, n, DenseOptions(/*force=*/true));
        if (scenario.post_init) scenario.post_init(&to_dense);
        ASSERT_TRUE(to_dense.Restore(churner.Snapshot()).ok()) << scenario.name;
        churner = std::move(to_dense);
      } else if (i == 2 * third && third > 0) {
        // dense -> hash, same move in reverse.
        EngineOptions hash_only;
        Engine to_hash(program, n, hash_only);
        if (scenario.post_init) scenario.post_init(&to_hash);
        ASSERT_TRUE(to_hash.Restore(churner.Snapshot()).ok()) << scenario.name;
        churner = std::move(to_hash);
      }
      ASSERT_EQ(oracle.data(), churner.data())
          << scenario.name << " diverged at request " << i;
    }
    // Conversions actually happened (visible in the counter fold).
    EXPECT_GT(churner.eval_stats().backend_conversions +
                  oracle.eval_stats().backend_conversions,
              0u)
        << scenario.name;
  }
}

// Relation-level churn: round trips between the forced policies preserve
// contents exactly.
TEST(DenseEquivalenceTest, RelationForceBackendRoundTrip) {
  core::Rng rng(99);
  for (int arity = 0; arity <= 2; ++arity) {
    relational::Relation rel(arity);
    for (int i = 0; i < 200; ++i) {
      relational::Tuple t;
      for (int a = 0; a < arity; ++a) {
        t = t.Append(static_cast<relational::Element>(rng.Below(20)));
      }
      rel.Insert(t);
    }
    const relational::Relation original = rel;
    EXPECT_TRUE(rel.ConfigureBackend(relational::BackendPolicy::kForceDense, 20));
    EXPECT_EQ(rel.backend(), relational::RelationBackend::kDense);
    EXPECT_EQ(rel, original);
    EXPECT_TRUE(rel.ConfigureBackend(relational::BackendPolicy::kHashOnly, 20));
    EXPECT_EQ(rel.backend(), relational::RelationBackend::kHash);
    EXPECT_EQ(rel, original);
    EXPECT_EQ(rel.backend_conversions(), 2u);
  }
}

// ---------------------------------------------------------------------------
// Abort atomicity: cancel at EVERY successive governor poll under dense
// options; every failing stop must be invisible in the snapshot — including
// stops inside the dense kernel fast path.

class DenseCancelAtomicity : public ::testing::TestWithParam<size_t> {};

TEST_P(DenseCancelAtomicity, EveryPollBoundaryAbortsCleanly) {
  const programs::ProgramScenario& scenario =
      programs::AllScenarios()[GetParam()];
  const size_t n = scenario.default_universe;
  auto program = scenario.make_program();
  Engine engine(program, n, DenseOptions());
  Engine oracle(program, n, DenseOptions());
  if (scenario.post_init) {
    scenario.post_init(&engine);
    scenario.post_init(&oracle);
  }
  const relational::RequestSequence requests = scenario.make_workload(n, 21);
  ASSERT_FALSE(requests.empty()) << scenario.name;
  const size_t half = requests.size() / 2;
  for (size_t i = 0; i < half; ++i) engine.Apply(requests[i]);
  for (size_t i = 0; i <= half; ++i) oracle.Apply(requests[i]);
  const std::string before = engine.Snapshot();
  const relational::Request& victim = requests[half];

  constexpr uint64_t kMaxSweep = 100000;
  uint64_t trip_at = 1;
  for (; trip_at <= kMaxSweep; ++trip_at) {
    ApplyGovernance governance;
    governance.trip_after_checks = trip_at;
    core::Status status = engine.TryApply(victim, governance);
    if (status.ok()) break;
    ASSERT_EQ(status.code(), core::StatusCode::kCancelled)
        << scenario.name << " trip_at=" << trip_at;
    ASSERT_EQ(engine.Snapshot(), before)
        << scenario.name << ": state torn by a cancel at poll " << trip_at;
  }
  ASSERT_LE(trip_at, kMaxSweep) << scenario.name;
  EXPECT_EQ(engine.data(), oracle.data()) << scenario.name;
}

INSTANTIATE_TEST_SUITE_P(AllPrograms, DenseCancelAtomicity,
                         ::testing::Range<size_t>(0,
                                                  programs::AllScenarios().size()),
                         [](const ::testing::TestParamInfo<size_t>& param_info) {
                           return programs::AllScenarios()[param_info.param].name;
                         });

// ---------------------------------------------------------------------------
// Hostile bytes against dense snapshot pages.

/// A dense-backed engine snapshot on a workload-evolved state.
std::string DenseSnapshotSample(const programs::ProgramScenario& scenario) {
  Engine engine(scenario.make_program(), scenario.default_universe,
                DenseOptions(/*force=*/true));
  if (scenario.post_init) scenario.post_init(&engine);
  for (const relational::Request& request :
       scenario.make_workload(scenario.default_universe, 31)) {
    engine.Apply(request);
  }
  return engine.Snapshot();
}

TEST(DenseSnapshotFuzzTest, EverySingleByteCorruptionIsRejected) {
  const programs::ProgramScenario& scenario = programs::AllScenarios()[0];
  const std::string clean = DenseSnapshotSample(scenario);
  ASSERT_NE(clean.find("dense "), std::string::npos)
      << "sample snapshot contains no dense pages; fuzz target is wrong";
  Engine victim(scenario.make_program(), scenario.default_universe,
                DenseOptions(/*force=*/true));
  if (scenario.post_init) scenario.post_init(&victim);
  const std::string pristine = victim.Snapshot();
  for (size_t i = 0; i < clean.size(); ++i) {
    for (unsigned char mask : {0x01, 0x10, 0x80, 0xff}) {
      std::string mutated = clean;
      mutated[i] = static_cast<char>(mutated[i] ^ mask);
      if (mutated == clean) continue;
      EXPECT_FALSE(victim.Restore(mutated).ok())
          << "byte " << i << " ^ " << static_cast<int>(mask)
          << " was silently accepted";
    }
  }
  // The victim never picked up any of the hostile bytes.
  EXPECT_EQ(victim.Snapshot(), pristine);
  // And the clean snapshot still restores.
  EXPECT_TRUE(victim.Restore(clean).ok());
}

TEST(DenseSnapshotFuzzTest, RawDensePagesNeverCrashAndRoundTrip) {
  // A raw (uncheksummed) structure with dense pages: mutations must never
  // crash the reader, and whatever parses must survive a write/read round
  // trip — same property the hash-format fuzzer pins, now over bitmap
  // pages with RLE zero runs.
  const programs::ProgramScenario& scenario = programs::AllScenarios()[0];
  Engine engine(scenario.make_program(), scenario.default_universe,
                DenseOptions(/*force=*/true));
  if (scenario.post_init) scenario.post_init(&engine);
  for (const relational::Request& request :
       scenario.make_workload(scenario.default_universe, 37)) {
    engine.Apply(request);
  }
  const std::string clean = relational::WriteStructure(engine.data());
  ASSERT_NE(clean.find("dense "), std::string::npos);
  auto vocabulary = engine.program().data_vocabulary();
  {
    core::Result<relational::Structure> parsed =
        relational::ReadStructure(clean, vocabulary);
    ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
    ASSERT_EQ(parsed.value(), engine.data());
    // Backends are part of the page format: they revive as dense.
    EXPECT_EQ(relational::WriteStructure(parsed.value()), clean);
  }
  core::FaultInjector faults(47);
  for (int trial = 0; trial < 500; ++trial) {
    std::string mutated = clean;
    switch (faults.rng().Below(3)) {
      case 0:
        faults.FlipByte(&mutated);
        break;
      case 1:
        faults.TruncateTail(&mutated);
        break;
      default:
        faults.FlipByte(&mutated);
        faults.FlipByte(&mutated);
        break;
    }
    core::Result<relational::Structure> parsed =
        relational::ReadStructure(mutated, vocabulary);
    if (parsed.ok()) {
      const std::string rewritten = relational::WriteStructure(parsed.value());
      core::Result<relational::Structure> reparsed =
          relational::ReadStructure(rewritten, vocabulary);
      ASSERT_TRUE(reparsed.ok()) << "trial " << trial;
      EXPECT_EQ(reparsed.value(), parsed.value()) << "trial " << trial;
    }
  }
}

}  // namespace
}  // namespace dynfo::dyn
