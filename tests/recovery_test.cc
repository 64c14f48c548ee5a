/// The fault-tolerance pipeline end to end:
///   * kill-and-recover: a GuardedEngine with a durable store revives
///     bit-identical state (engine snapshot and shadowed input) after a
///     simulated kill — full snapshot + delta checkpoint + a partial
///     segment, with a torn segment tail on half the trials — over many
///     seeded trials of three structurally different programs (REACH_u,
///     matching, multiplication) and over every registry program;
///   * fault injection: every corrupting flip of a load-bearing auxiliary
///     relation is detected by the GuardedEngine's checks and repaired by
///     start-over recovery;
///   * the error contracts: invalid requests are rejected before touching
///     state, lost journal records are reported, recovery statistics add up.

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <functional>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/durable_io.h"
#include "core/fault.h"
#include "core/rng.h"
#include "dynfo/journal.h"
#include "dynfo/recovery.h"
#include "dynfo/workload.h"
#include "programs/matching.h"
#include "programs/multiplication.h"
#include "programs/reach_u.h"
#include "programs/registry.h"
#include "relational/serialize.h"

namespace dynfo::dyn {
namespace {

using relational::Request;
using relational::RequestSequence;

struct RecoveryScenario {
  std::string name;
  std::function<std::shared_ptr<const DynProgram>()> program;
  std::function<RequestSequence(uint64_t seed)> workload;
  size_t universe;
  EnginePostInit post_init;            // may be null
  Oracle oracle;                       // may be null
  InvariantCheck invariant;
  std::vector<std::string> targets;    // load-bearing relations to corrupt
};

RequestSequence GraphChurn(std::shared_ptr<const relational::Vocabulary> vocab,
                           size_t n, uint64_t seed) {
  GraphWorkloadOptions options;
  options.num_requests = 40;
  options.seed = seed;
  options.undirected = true;
  options.set_fraction = vocab->num_constants() > 0 ? 0.05 : 0.0;
  return MakeGraphWorkload(*vocab, "E", n, options);
}

std::vector<RecoveryScenario> Scenarios() {
  std::vector<RecoveryScenario> out;
  out.push_back({"reach_u", [] { return programs::MakeReachUProgram(); },
                 [](uint64_t seed) {
                   return GraphChurn(programs::ReachUInputVocabulary(), 8, seed);
                 },
                 8, nullptr, programs::ReachUOracle, programs::ReachUInvariant,
                 {"F", "PV"}});
  out.push_back({"matching", [] { return programs::MakeMatchingProgram(); },
                 [](uint64_t seed) {
                   return GraphChurn(programs::MatchingInputVocabulary(), 8, seed);
                 },
                 8, nullptr, nullptr, programs::MatchingInvariant, {"Match"}});
  out.push_back({"multiplication",
                 [] { return programs::MakeMultiplicationProgram(false); },
                 [](uint64_t seed) {
                   GenericWorkloadOptions o;
                   o.num_requests = 30;
                   o.seed = seed;
                   o.set_fraction = 0.0;
                   return MakeGenericWorkload(
                       *programs::MultiplicationInputVocabulary(), 8, o);
                 },
                 8, programs::InstallPlusRelation, nullptr,
                 programs::MultiplicationInvariant, {"Prod"}});
  return out;
}

std::string TempDirFor(const std::string& name) {
  return ::testing::TempDir() + "dynfo_recovery_test_" + name;
}

/// Removes `dir` and the files directly inside it (the store is flat).
void RemoveTree(const std::string& dir) {
  core::Result<std::vector<std::string>> names = core::ListDir(dir);
  if (names.ok()) {
    for (const std::string& name : names.value()) {
      std::remove((dir + "/" + name).c_str());
    }
  }
  ::rmdir(dir.c_str());
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

/// The active segment of `guarded`'s attached store.
std::string ActiveSegmentPath(const GuardedEngine& guarded) {
  const DurableStore* store = guarded.durable_store();
  return store->dir() + "/" + store->manifest().segments.back().file;
}

/// A wrapper without detection hooks: these sessions exist to be killed
/// and revived, not checked.
GuardedEngineOptions UncheckedOptions(EnginePostInit post_init) {
  GuardedEngineOptions options;
  options.check_every = 0;
  options.post_init = std::move(post_init);
  return options;
}

/// Kills `doomed` (mid-append when `torn`: a record the kill cut short is
/// left at the end of its active segment), revives a fresh wrapper from the
/// same directory, and checks the revival contract: the engine snapshot
/// (step counter included) and the shadowed input are bit-identical, and
/// replay stayed within one segment.
void ExpectRevivesIdentically(const GuardedEngine& doomed, bool torn,
                              const std::string& dir,
                              const DurabilityOptions& durability,
                              GuardedEngine* revived, const std::string& label) {
  if (torn) {
    std::ofstream tail(ActiveSegmentPath(doomed), std::ios::binary | std::ios::app);
    tail << "99 ins E 0";  // no newline: the append never completed
  }
  core::Status status = revived->AttachDurability(dir, durability);
  ASSERT_TRUE(status.ok()) << label << ": " << status.ToString();
  EXPECT_EQ(revived->durable_store()->recovered().torn_tail, torn) << label;
  EXPECT_LE(revived->recovery_stats().replayed_on_recovery,
            durability.store.records_per_segment)
      << label;
  EXPECT_EQ(revived->engine().Snapshot(), doomed.engine().Snapshot()) << label;
  EXPECT_EQ(relational::WriteStructure(revived->input()),
            relational::WriteStructure(doomed.input()))
      << label;
  EXPECT_EQ(revived->recovery_stats().requests, doomed.recovery_stats().requests)
      << label;
}

/// Everything in the data vocabulary except `target`, so FlipTuple can only
/// corrupt the one relation under test.
std::vector<std::string> ProtectAllBut(const relational::Vocabulary& vocab,
                                       const std::string& target) {
  std::vector<std::string> protect;
  for (int r = 0; r < vocab.num_relations(); ++r) {
    if (vocab.relation(r).name != target) protect.push_back(vocab.relation(r).name);
  }
  return protect;
}

class RecoveryPrograms : public ::testing::TestWithParam<size_t> {};

/// Kill-and-recover over 51 seeded trials across the three programs
/// (17 x 3), each reviving BIT-IDENTICAL state from the durable store, with
/// a torn segment tail on every other seed. Small segments put the kill
/// point anywhere relative to checkpoints and consolidations.
TEST_P(RecoveryPrograms, KillAndRecoverIsBitIdentical) {
  const RecoveryScenario scenario = Scenarios()[GetParam()];
  auto program = scenario.program();
  DurabilityOptions durability;
  durability.store.records_per_segment = 4;
  durability.store.full_snapshot_every = 3;
  for (uint64_t seed = 1; seed <= 17; ++seed) {
    const RequestSequence requests = scenario.workload(seed);
    core::Rng rng(seed * 1000 + GetParam());
    const size_t kill = rng.Range(5, requests.size());
    const std::string dir = TempDirFor(scenario.name + "_seed" + std::to_string(seed));
    RemoveTree(dir);

    GuardedEngine doomed(program, scenario.universe, nullptr, nullptr,
                         UncheckedOptions(scenario.post_init));
    ASSERT_TRUE(doomed.AttachDurability(dir, durability).ok());
    for (size_t i = 0; i < kill; ++i) {
      ASSERT_TRUE(doomed.Apply(requests[i]).ok());
    }
    GuardedEngine revived(program, scenario.universe, nullptr, nullptr,
                          UncheckedOptions(scenario.post_init));
    ExpectRevivesIdentically(doomed, /*torn=*/seed % 2 == 0, dir, durability,
                             &revived,
                             scenario.name + " seed " + std::to_string(seed) +
                                 " (kill " + std::to_string(kill) + ")");
    EXPECT_EQ(revived.engine().stats().requests, kill);
    RemoveTree(dir);
  }
}

/// ISSUE acceptance: 100% of injected corruptions of load-bearing auxiliary
/// relations are detected and repaired by start-over recovery.
TEST_P(RecoveryPrograms, EveryInjectedCorruptionIsDetectedAndRepaired) {
  const RecoveryScenario scenario = Scenarios()[GetParam()];
  GuardedEngineOptions options;
  options.check_every = 0;  // checks driven explicitly below
  options.post_init = scenario.post_init;
  GuardedEngine guarded(scenario.program(), scenario.universe, scenario.oracle,
                        scenario.invariant, options);
  core::FaultInjector faults(77 + GetParam());
  const RequestSequence requests = scenario.workload(5);

  size_t injections = 0;
  for (size_t i = 0; i < requests.size(); ++i) {
    ASSERT_TRUE(guarded.Apply(requests[i]).ok());
    if (i % 8 != 5) continue;
    const std::string target = scenario.targets[injections % scenario.targets.size()];
    const std::string flip = faults.FlipTuple(
        guarded.mutable_engine()->mutable_data(),
        ProtectAllBut(guarded.engine().data().vocabulary(), target));
    const RecoveryStats before = guarded.recovery_stats();
    core::Status status = guarded.CheckNow();
    ASSERT_TRUE(status.ok()) << flip << ": " << status.message();
    EXPECT_EQ(guarded.recovery_stats().corruptions_detected,
              before.corruptions_detected + 1)
        << scenario.name << ": undetected " << flip;
    EXPECT_EQ(guarded.recovery_stats().recoveries, before.recoveries + 1);
    EXPECT_FALSE(guarded.last_quarantine().empty());
    EXPECT_NE(guarded.last_quarantine().find("corruption detected at step"),
              std::string::npos);
    ++injections;
  }
  EXPECT_GE(injections, 4u);
  EXPECT_TRUE(guarded.CheckNow().ok());  // campaign leaves a healthy engine
  EXPECT_EQ(guarded.recovery_stats().corruptions_detected, injections);
  EXPECT_EQ(guarded.recovery_stats().recoveries, injections);
  EXPECT_GT(guarded.recovery_stats().rebuild_requests_replayed, 0u);
}

INSTANTIATE_TEST_SUITE_P(ThreePrograms, RecoveryPrograms,
                         ::testing::Range<size_t>(0, 3),
                         [](const ::testing::TestParamInfo<size_t>& param_info) {
                           return Scenarios()[param_info.param].name;
                         });

/// Corruption planted between cadence checks is caught by the NEXT cadence
/// check — detection latency is bounded by check_every.
TEST(RecoveryTest, CadenceBoundsDetectionLatency) {
  const RecoveryScenario scenario = Scenarios()[0];  // reach_u
  GuardedEngineOptions options;
  options.check_every = 4;
  GuardedEngine guarded(scenario.program(), scenario.universe, scenario.oracle,
                        scenario.invariant, options);
  core::FaultInjector faults(3);
  const RequestSequence requests = scenario.workload(9);

  size_t injections = 0;
  uint64_t expected_detections = 0;
  for (size_t i = 0; i < requests.size(); ++i) {
    // Plant a fault right after a cadence check, so only later requests'
    // checks can see it.
    if (guarded.recovery_stats().requests % 4 == 0 && i > 8 && injections < 3) {
      faults.FlipTuple(guarded.mutable_engine()->mutable_data(),
                       ProtectAllBut(guarded.engine().data().vocabulary(), "PV"));
      ++injections;
      ++expected_detections;
    }
    ASSERT_TRUE(guarded.Apply(requests[i]).ok());
    if (guarded.recovery_stats().requests % 4 == 0) {
      // A cadence check just ran inside Apply: all planted faults must have
      // been detected by now — latency never exceeds check_every requests.
      EXPECT_EQ(guarded.recovery_stats().corruptions_detected, expected_detections);
    }
  }
  EXPECT_EQ(injections, 3u);
  EXPECT_EQ(guarded.recovery_stats().corruptions_detected, 3u);
}

TEST(RecoveryTest, InvalidRequestsAreRejectedWithoutSideEffects) {
  GuardedEngineOptions options;
  GuardedEngine guarded(programs::MakeReachUProgram(), 6, programs::ReachUOracle,
                        programs::ReachUInvariant, options);
  ASSERT_TRUE(guarded.Apply(Request::Insert("E", {0, 1})).ok());
  const relational::Structure before = guarded.engine().data();

  EXPECT_FALSE(guarded.Apply(Request::Insert("Q", {0, 1})).ok());
  EXPECT_FALSE(guarded.Apply(Request::Insert("E", {0, 1, 2})).ok());
  EXPECT_FALSE(guarded.Apply(Request::Insert("E", {0, 7})).ok());
  EXPECT_FALSE(guarded.Apply(Request::SetConstant("z", 0)).ok());

  EXPECT_EQ(guarded.engine().data(), before);
  EXPECT_EQ(guarded.recovery_stats().requests, 1u);
}

/// Durable revival on DELTA-enabled engines (the production configuration:
/// in-place diffs over CoW relations), across every program in the
/// registry: the replayed Applies land on incrementally maintained state
/// restored from a full snapshot plus a delta checkpoint, and must still
/// converge bit-identically with the session that died.
class SnapshotJournalAllPrograms : public ::testing::TestWithParam<size_t> {};

TEST_P(SnapshotJournalAllPrograms, DeltaEngineReplayIsBitIdentical) {
  const programs::ProgramScenario& scenario =
      programs::AllScenarios()[GetParam()];
  auto program = scenario.make_program();
  const size_t n = scenario.default_universe;
  // Checkpoint k lands after 4k requests and is a full consolidation when
  // k % 3 == 0. The history is cut to end on a delta checkpoint plus a
  // partial segment, so revival needs all three layers.
  DurabilityOptions durability;
  durability.store.records_per_segment = 4;
  durability.store.full_snapshot_every = 3;
  GuardedEngineOptions options = UncheckedOptions(scenario.post_init);
  options.engine_options.use_delta = true;  // the configuration under test, explicit

  for (const uint64_t seed : {31, 32}) {
    RequestSequence requests = scenario.make_workload(n, seed);
    size_t length = requests.size();
    while (length > 0 && (length % 4 == 0 || (length / 4) % 3 == 0)) --length;
    ASSERT_GT(length, 4u) << scenario.name << ": workload too short";
    requests.resize(length);
    const std::string dir =
        TempDirFor("all_" + scenario.name + "_seed" + std::to_string(seed));
    RemoveTree(dir);

    GuardedEngine doomed(program, n, nullptr, nullptr, options);
    ASSERT_TRUE(doomed.AttachDurability(dir, durability).ok());
    for (const Request& request : requests) {
      ASSERT_TRUE(doomed.Apply(request).ok()) << scenario.name;
    }
    GuardedEngine revived(program, n, nullptr, nullptr, options);
    ExpectRevivesIdentically(doomed, /*torn=*/seed % 2 == 0, dir, durability,
                             &revived,
                             scenario.name + " seed " + std::to_string(seed));
    EXPECT_FALSE(revived.durable_store()->manifest().delta_file.empty())
        << scenario.name;
    EXPECT_GT(revived.recovery_stats().replayed_on_recovery, 0u) << scenario.name;
    RemoveTree(dir);
  }
}

INSTANTIATE_TEST_SUITE_P(Registry, SnapshotJournalAllPrograms,
                         ::testing::Range<size_t>(
                             0, programs::AllScenarios().size()),
                         [](const ::testing::TestParamInfo<size_t>& param_info) {
                           return programs::AllScenarios()[param_info.param].name;
                         });

/// A record lost from the middle of a segment is corruption, reported when
/// the store is attached — never a silently shorter replay.
TEST(RecoveryTest, LostJournalRecordsAreReported) {
  const std::string dir = TempDirFor("lost_records");
  RemoveTree(dir);
  auto program = programs::MakeReachUProgram();
  std::string segment;
  {
    GuardedEngine session(program, 6, nullptr, nullptr, UncheckedOptions(nullptr));
    ASSERT_TRUE(session.AttachDurability(dir).ok());
    for (relational::Element v = 0; v < 4; ++v) {
      ASSERT_TRUE(session.Apply(Request::Insert("E", {v, v + 1})).ok());
    }
    segment = ActiveSegmentPath(session);
  }
  // Line 1 is the segment header; drop line 3, the second record.
  std::string text = ReadFile(segment);
  const size_t second = text.find('\n', text.find('\n') + 1) + 1;
  text.erase(second, text.find('\n', second) + 1 - second);
  {
    std::ofstream out(segment, std::ios::binary | std::ios::trunc);
    out << text;
  }

  GuardedEngine revived(program, 6, nullptr, nullptr, UncheckedOptions(nullptr));
  core::Status status = revived.AttachDurability(dir);
  EXPECT_EQ(status.code(), core::StatusCode::kCorruption) << status.ToString();
  EXPECT_NE(status.message().find("dropped"), std::string::npos) << status.ToString();
  RemoveTree(dir);
}

TEST(RecoveryTest, CorruptSnapshotIsRejectedByRestore) {
  auto program = programs::MakeReachUProgram();
  Engine session(program, 6);
  session.Apply(Request::Insert("E", {0, 1}));
  core::FaultInjector faults(29);
  for (int trial = 0; trial < 20; ++trial) {
    std::string snapshot = session.Snapshot();
    std::string description;
    if (trial % 2 == 0) {
      description = faults.FlipByte(&snapshot);
    } else {
      description = faults.TruncateTail(&snapshot);
    }
    Engine revived(program, 6);
    EXPECT_FALSE(revived.Restore(snapshot).ok())
        << "trial " << trial << " accepted a damaged snapshot (" << description
        << ")";
  }
}

}  // namespace
}  // namespace dynfo::dyn
