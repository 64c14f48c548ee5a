/// \file bench_chaos.cc
/// The chaos soak (EXPERIMENTS.md): long seeded random request sequences
/// across EVERY program factory (programs/registry.h) while the three
/// governance fault injectors fire — allocation failures, worker stalls
/// under tight deadlines, and deadline jitter. The soak is a benchmark
/// that doubles as a survival gate: any crash, any untyped failure, any
/// torn state, or any post-trial divergence from the static oracle aborts
/// the binary via DYNFO_CHECK with the seed/trial context in the message
/// (a one-line repro). CI runs this with fixed seeds as the chaos-soak job.
///
/// --repro=SEED:SCENARIO replays exactly one trial (SCENARIO is the
/// registry index or the scenario name printed in the failure message)
/// single-threaded and exits 0 if it survives — the one-line repro for any
/// soak failure.
///
/// Reported counters per run:
///   * trials / faults_injected      — soak coverage (13 scenarios x seeds);
///   * apply_p50_us / apply_p99_us   — governed Apply latency percentiles;
///   * tier0..tier3_rate             — degradation-ladder activation rates
///                                     per governed request (tier0 is the
///                                     engine as configured; tier1, the
///                                     retired index-off rung, is always 0;
///                                     tier2 is the naive reference; tier3
///                                     is the start-over rung);
///   * deadline_trips / budget_trips — typed failures observed and survived;
///   * governance_overhead           — governed over ungoverned TryApply
///                                     time on the same reach_u replay, with
///                                     governance active but never tripping
///                                     (what a governed session pays; gate
///                                     <= 1.20).

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "core/fault.h"
#include "core/text.h"
#include "dynfo/recovery.h"
#include "dynfo/workload.h"
#include "programs/reach_u.h"
#include "programs/registry.h"

namespace dynfo {
namespace {

using Clock = std::chrono::steady_clock;

double MicrosSince(Clock::time_point start) {
  return std::chrono::duration<double, std::micro>(Clock::now() - start).count();
}

/// One fault drawn per armed request; which injector fired decides which
/// non-OK statuses are survivable for that request.
enum class FaultKind { kNone, kAllocFailure, kWorkerStall, kDeadlineJitter };

struct SoakTotals {
  uint64_t trials = 0;
  uint64_t requests = 0;
  uint64_t faults = 0;
  uint64_t deadline_trips = 0;
  uint64_t cancel_trips = 0;
  uint64_t budget_trips = 0;
  uint64_t tier_activations[4] = {0, 0, 0, 0};
  uint64_t start_over_applies = 0;
  uint64_t index_rebuilds = 0;
  std::vector<double> apply_micros;
};

/// Generous always-on governance: the governor polls and charges on every
/// request, but nothing trips unless an injector arms a fault.
dyn::ApplyGovernance GenerousGovernance() {
  dyn::ApplyGovernance governance;
  governance.deadline_ms = 60 * 1000;
  governance.limits.max_tuples = 1u << 30;
  return governance;
}

void RunChaosTrial(const programs::ProgramScenario& scenario, uint64_t seed,
                   SoakTotals* totals) {
  const size_t n = scenario.default_universe;
  core::FaultInjector faults(seed);
  const relational::RequestSequence requests =
      scenario.make_workload(n, /*workload seed*/ seed * 977 + 11);

  dyn::GuardedEngineOptions options;
  options.post_init = scenario.post_init;
  options.check_every = 16;
  options.governance.governance = GenerousGovernance();
  // No oracle/invariant in the registry: the trial's correctness gate is
  // the end-of-trial comparison against the static oracle below.
  dyn::GuardedEngine guarded(scenario.make_program(), n, nullptr, nullptr,
                             options);

  // The static oracle: a plain ungoverned engine fed exactly the requests
  // that the guarded engine successfully applied.
  dyn::Engine oracle(scenario.make_program(), n);
  if (scenario.post_init) scenario.post_init(&oracle);

  ++totals->trials;
  for (size_t i = 0; i < requests.size(); ++i) {
    faults.set_trial(i);
    dyn::ApplyGovernance governance = GenerousGovernance();
    FaultKind fault = FaultKind::kNone;
    // ~1 in 4 requests carries a fault, drawn uniformly from the three
    // injector families.
    if (faults.rng().Below(4) == 0) {
      ++totals->faults;
      switch (faults.rng().Below(3)) {
        case 0:
          fault = FaultKind::kAllocFailure;
          governance.fail_alloc_after_charges = faults.PlanAllocationFailure(40);
          break;
        case 1: {
          fault = FaultKind::kWorkerStall;
          auto stall = faults.PlanWorkerStall(/*max_check=*/32, /*max_millis=*/8);
          governance.stall_at_check = stall.first;
          governance.stall_ms = stall.second;
          governance.deadline_ms = 1 + stall.second / 2;  // stall can blow it
          break;
        }
        default:
          fault = FaultKind::kDeadlineJitter;
          governance.deadline_ms = faults.PlanDeadlineJitter(/*max_millis=*/3);
          break;
      }
    }
    *guarded.mutable_governance() = dyn::GovernancePolicy{};
    guarded.mutable_governance()->governance = governance;

    // Faulted requests get a pre-image so a failure can be checked for
    // atomicity; unfaulted ones skip the (expensive) snapshot.
    std::string before;
    if (fault != FaultKind::kNone) {
      before = guarded.mutable_engine()->Snapshot();
    }

    const auto start = Clock::now();
    core::Status status = guarded.Apply(requests[i]);
    totals->apply_micros.push_back(MicrosSince(start));
    ++totals->requests;

    if (status.ok()) {
      oracle.Apply(requests[i]);
      continue;
    }
    // Survival contract: only a deadline/cancel trip on a faulted request
    // is an acceptable failure (allocation faults must be absorbed by the
    // ladder's start-over rung, not surfaced). Anything else is a bug.
    const bool survivable =
        fault != FaultKind::kNone &&
        (status.code() == core::StatusCode::kDeadlineExceeded ||
         status.code() == core::StatusCode::kCancelled);
    DYNFO_CHECK(survivable) << scenario.name << " [" << faults.Context()
                            << "]: unsurvivable status " << status.ToString();
    switch (status.code()) {
      case core::StatusCode::kDeadlineExceeded:
        ++totals->deadline_trips;
        break;
      case core::StatusCode::kCancelled:
        ++totals->cancel_trips;
        break;
      default:
        break;
    }
    // Atomicity under chaos: the rejected request left no trace.
    DYNFO_CHECK(guarded.mutable_engine()->Snapshot() == before)
        << scenario.name << " [" << faults.Context()
        << "]: state torn by a rejected request (" << status.ToString() << ")";
  }

  const dyn::RecoveryStats& stats = guarded.recovery_stats();
  for (int t = 0; t < 4; ++t) totals->tier_activations[t] += stats.tier_activations[t];
  totals->budget_trips += stats.budget_breaches;
  totals->start_over_applies += stats.start_over_applies;
  totals->index_rebuilds += stats.index_rebuilds;

  // Post-soak state equality vs the static oracle. A trial that never hit
  // the start-over rung must match bit-for-bit; one that did rebuilds its
  // auxiliary state from the canonical input order, so the ground-truth
  // input mirror is the invariant instead.
  if (stats.start_over_applies == 0 && stats.recoveries == 0) {
    DYNFO_CHECK(guarded.engine().data() == oracle.data())
        << scenario.name << " [" << faults.Context()
        << "]: post-soak state diverged from the static oracle";
  } else {
    const relational::Vocabulary& vocab = *guarded.engine().program().input_vocabulary();
    for (int r = 0; r < vocab.num_relations(); ++r) {
      const std::string& name = vocab.relation(r).name;
      DYNFO_CHECK(guarded.engine().data().relation(name) == oracle.data().relation(name))
          << scenario.name << " [" << faults.Context() << "]: input relation "
          << name << " diverged after start-over recovery";
    }
  }
}

void BM_ChaosSoak(benchmark::State& state) {
  const uint64_t seeds_per_scenario = static_cast<uint64_t>(state.range(0));
  SoakTotals totals;
  for (auto _ : state) {
    for (const programs::ProgramScenario& scenario : programs::AllScenarios()) {
      for (uint64_t seed = 1; seed <= seeds_per_scenario; ++seed) {
        RunChaosTrial(scenario, seed, &totals);
      }
    }
  }
  std::sort(totals.apply_micros.begin(), totals.apply_micros.end());
  auto percentile = [&](double p) {
    if (totals.apply_micros.empty()) return 0.0;
    const size_t idx = static_cast<size_t>(p * (totals.apply_micros.size() - 1));
    return totals.apply_micros[idx];
  };
  const double governed = static_cast<double>(
      totals.tier_activations[0] + totals.tier_activations[1] +
      totals.tier_activations[2] + totals.tier_activations[3]);
  state.counters["trials"] = static_cast<double>(totals.trials);
  state.counters["faults_injected"] = static_cast<double>(totals.faults);
  state.counters["apply_p50_us"] = percentile(0.50);
  state.counters["apply_p99_us"] = percentile(0.99);
  for (int t = 0; t < 4; ++t) {
    state.counters["tier" + std::to_string(t) + "_rate"] =
        governed > 0 ? static_cast<double>(totals.tier_activations[t]) / governed
                     : 0.0;
  }
  state.counters["deadline_trips"] = static_cast<double>(totals.deadline_trips);
  state.counters["budget_trips"] = static_cast<double>(totals.budget_trips);
  state.counters["start_over_applies"] =
      static_cast<double>(totals.start_over_applies);
  state.counters["index_rebuilds"] = static_cast<double>(totals.index_rebuilds);
  state.SetItemsProcessed(static_cast<int64_t>(totals.requests));
}
// 16 seeds x 13 scenarios = 208 trials per iteration (the CI soak gate).
BENCHMARK(BM_ChaosSoak)->Arg(16)->Unit(benchmark::kMillisecond);

/// What a governed session pays when governance never trips: the reach_u
/// replay ungoverned against the same replay under a 1 h deadline and a
/// 2^40-tuple budget. Governed requests run the acceptance sweep, poll the
/// governor (reading the clock) and charge the budget. Each iteration times
/// kPairs pairs of fresh-engine replays, alternating which side goes first,
/// so host drift lands on both sides; the gate is the governed/ungoverned
/// time ratio <= 1.20.
void BM_GovernanceOverhead(benchmark::State& state) {
  const size_t n = 12;
  dyn::GraphWorkloadOptions wopts;
  wopts.num_requests = 200;
  wopts.seed = 71;
  wopts.undirected = true;
  const relational::RequestSequence requests = dyn::MakeGraphWorkload(
      *programs::ReachUInputVocabulary(), "E", n, wopts);
  dyn::ApplyGovernance governance;
  governance.deadline_ms = 60 * 60 * 1000;
  governance.limits.max_tuples = uint64_t{1} << 40;
  constexpr int kPairs = 19;

  double seconds[2] = {0, 0};  // by side: [ungoverned, governed]
  uint64_t governor_checks = 0;
  std::string end_state[2];
  auto replay = [&](bool governed) {
    dyn::Engine engine(programs::MakeReachUProgram(), n);
    const auto start = Clock::now();
    for (const relational::Request& request : requests) {
      dyn::BatchReport report;
      const core::Status status =
          governed ? engine.TryApply(request, governance, /*naive=*/false, &report)
                   : engine.TryApply(request);
      DYNFO_CHECK(status.ok()) << status.ToString();
      governor_checks += report.governor_checks;
    }
    seconds[governed] += MicrosSince(start) * 1e-6;
    end_state[governed] = engine.Snapshot();
  };
  bool governed_first = false;
  for (auto _ : state) {
    for (int pair = 0; pair < kPairs; ++pair) {
      replay(governed_first);
      replay(!governed_first);
      DYNFO_CHECK(end_state[0] == end_state[1])
          << "governed and ungoverned replays diverged";
      governed_first = !governed_first;
    }
  }
  DYNFO_CHECK(governor_checks > 0) << "the governed side never polled its governor";
  state.counters["governance_overhead"] = seconds[0] > 0 ? seconds[1] / seconds[0] : 0.0;
  state.SetItemsProcessed(
      static_cast<int64_t>(state.iterations() * 2 * kPairs * requests.size()));
}
BENCHMARK(BM_GovernanceOverhead)->Unit(benchmark::kMillisecond);

}  // namespace

/// --repro=SEED:SCENARIO — one trial, single-threaded, same checks as the
/// soak. SCENARIO is a registry index or a scenario name.
int RunChaosRepro(const std::string& spec) {
  const size_t colon = spec.find(':');
  uint64_t seed = 0;
  if (colon == std::string::npos ||
      !core::ParseU64(spec.substr(0, colon), &seed)) {
    std::fprintf(stderr, "error: bad --repro spec '%s' (want SEED:SCENARIO)\n",
                 spec.c_str());
    return 2;
  }
  const std::string which = spec.substr(colon + 1);
  const std::vector<programs::ProgramScenario>& scenarios =
      programs::AllScenarios();
  const programs::ProgramScenario* scenario = nullptr;
  uint64_t index = 0;
  if (core::ParseU64(which, &index) && index < scenarios.size()) {
    scenario = &scenarios[index];
  } else {
    for (const programs::ProgramScenario& candidate : scenarios) {
      if (candidate.name == which) scenario = &candidate;
    }
  }
  if (scenario == nullptr) {
    std::fprintf(stderr, "error: unknown scenario '%s'; known:\n",
                 which.c_str());
    for (size_t i = 0; i < scenarios.size(); ++i) {
      std::fprintf(stderr, "  %zu  %s\n", i, scenarios[i].name.c_str());
    }
    return 2;
  }
  SoakTotals totals;
  RunChaosTrial(*scenario, seed, &totals);
  std::printf(
      "repro ok: %s seed=%llu requests=%llu faults=%llu deadline_trips=%llu\n",
      scenario->name.c_str(), static_cast<unsigned long long>(seed),
      static_cast<unsigned long long>(totals.requests),
      static_cast<unsigned long long>(totals.faults),
      static_cast<unsigned long long>(totals.deadline_trips));
  return 0;
}

}  // namespace dynfo

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--repro=", 0) == 0) {
      return dynfo::RunChaosRepro(arg.substr(8));
    }
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
