/// Cancellation atomicity, swept across every program factory: trip the
/// governor at EVERY successive poll index of a request's evaluation and
/// assert, for each trip point, that the engine snapshot is bit-identical
/// to the pre-Apply state — then that a retried ungoverned Apply lands on
/// exactly the oracle state. This is the strongest form of the "no
/// torn Apply" guarantee: there is no poll at which cancelling leaks a
/// partial update (including mid-request let commits, which must
/// roll back).

#include <gtest/gtest.h>

#include <string>

#include "dynfo/engine.h"
#include "programs/registry.h"

namespace dynfo::dyn {
namespace {

class CancelAtomicity : public ::testing::TestWithParam<size_t> {};

void SweepScenario(const programs::ProgramScenario& scenario) {
  const size_t n = scenario.default_universe;
  EngineOptions options;
  auto program = scenario.make_program();
  const relational::RequestSequence requests =
      scenario.make_workload(n, /*seed=*/21);
  ASSERT_FALSE(requests.empty()) << scenario.name;
  const size_t half = requests.size() / 2;

  Engine engine(program, n, options);
  if (scenario.post_init) scenario.post_init(&engine);
  for (size_t i = 0; i < half; ++i) engine.Apply(requests[i]);
  const std::string before = engine.Snapshot();
  const relational::Request& victim = requests[half];

  // The oracle: the same history plus the victim request, uninterrupted.
  Engine oracle(program, n, options);
  if (scenario.post_init) scenario.post_init(&oracle);
  for (size_t i = 0; i <= half; ++i) oracle.Apply(requests[i]);

  // Trip at poll 1, 2, 3, ... until the request outruns the trip point and
  // succeeds. Every failing stop must be invisible in the snapshot.
  constexpr uint64_t kMaxSweep = 100000;
  uint64_t trip_at = 1;
  for (; trip_at <= kMaxSweep; ++trip_at) {
    ApplyGovernance governance;
    governance.trip_after_checks = trip_at;
    core::Status status = engine.TryApply(victim, governance);
    if (status.ok()) break;
    ASSERT_EQ(status.code(), core::StatusCode::kCancelled)
        << scenario.name << " trip_at=" << trip_at << ": " << status.ToString();
    ASSERT_EQ(engine.Snapshot(), before)
        << scenario.name << ": state torn by a cancel at poll " << trip_at;
  }
  ASSERT_LE(trip_at, kMaxSweep) << scenario.name << ": request never completed";
  ASSERT_GT(trip_at, 1u) << scenario.name
                         << ": request finished before its first governor poll "
                            "— no cancellation point was exercised";

  // The final (successful) governed attempt is the retry; it must land on
  // the oracle state exactly.
  EXPECT_EQ(engine.data(), oracle.data()) << scenario.name;
  EXPECT_EQ(engine.stats().requests, oracle.stats().requests) << scenario.name;
}

TEST_P(CancelAtomicity, EveryPollBoundaryAbortsCleanly) {
  SweepScenario(programs::AllScenarios()[GetParam()]);
}

INSTANTIATE_TEST_SUITE_P(AllPrograms, CancelAtomicity,
                         ::testing::Range<size_t>(0,
                                                  programs::AllScenarios().size()),
                         [](const ::testing::TestParamInfo<size_t>& param_info) {
                           return programs::AllScenarios()[param_info.param].name;
                         });

}  // namespace
}  // namespace dynfo::dyn
