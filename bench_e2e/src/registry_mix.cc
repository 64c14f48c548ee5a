/// registry_mix: every AllScenarios() program at its default universe,
/// many seeded replays per program held as live engines, requests
/// interleaved across engines in a seeded order, each Engine::TryApply
/// followed by one QueryBool. Single thread.
///
/// The run is a sequence of passes. A pass builds fresh engines holding
/// kRequestsPerProgram requests of every program (that build is the set-up
/// time), then drains them in one shuffled order. A few replays per pass are sampled:
/// their answers and final structures are checked, after timing, against
/// an EvalMode::kNaive reference replay.

#include <algorithm>
#include <memory>
#include <optional>

#include "gen.h"
#include "programs/registry.h"
#include "workloads.h"

namespace bench_e2e {
namespace {

using dynfo::dyn::DynProgram;
using dynfo::dyn::Engine;
using dynfo::dyn::EngineOptions;
using dynfo::programs::AllScenarios;
using dynfo::programs::ProgramScenario;
using dynfo::relational::RequestSequence;

/// Requests per program in one pass (about 16 replays of the registry's
/// workloads).
constexpr size_t kRequestsPerProgram = 960;
/// Passes whose sampled replays are checked against the naive reference.
constexpr uint64_t kCheckedPasses = 4;
/// Requests per program in the held-out-seed correctness pass.
constexpr size_t kHeldOutRequests = 120;

struct Replay {
  size_t scenario = 0;
  std::unique_ptr<Engine> engine;
  RequestSequence requests;
  size_t next = 0;
  bool sampled = false;
  std::vector<uint8_t> answers;  ///< QueryBool after each request (sampled only)
};

/// A finished sampled replay, kept for the reference check.
struct Sample {
  size_t scenario = 0;
  RequestSequence requests;  ///< the prefix that ran
  std::vector<uint8_t> answers;
  /// Final structure (a copy-on-write copy). Compared as a Structure, not
  /// as a Snapshot() string: the serialized form records each relation's
  /// backend, which legitimately differs between dense and naive engines.
  std::optional<dynfo::relational::Structure> data;
};

struct Pass {
  std::vector<Replay> replays;
  std::vector<uint32_t> order;  ///< replay index of each step
  size_t step = 0;
};

std::unique_ptr<Engine> MakeEngine(const ProgramScenario& scenario,
                                   const std::shared_ptr<const DynProgram>& program,
                                   const EngineOptions& options) {
  auto engine = std::make_unique<Engine>(program, scenario.default_universe, options);
  if (scenario.post_init) scenario.post_init(engine.get());
  return engine;
}

class RegistryMix {
 public:
  RegistryMix(const RunConfig& config, Result* result)
      : config_(config), result_(result), scenario_apply_(AllScenarios().size()) {
    for (const ProgramScenario& scenario : AllScenarios()) {
      programs_.push_back(scenario.make_program());
    }
  }

  /// One timed window: passes until `seconds` of loop time have run.
  /// Returns the loop time per step in ns.
  double RunWindow(double seconds, bool traced) {
    const int64_t budget_ns = static_cast<int64_t>(seconds * 1e9);
    int64_t loop_ns = 0;
    uint64_t steps = 0;
    while (loop_ns < budget_ns) {
      const int64_t build_start = NowNs();
      Pass pass = BuildPass(config_.seed, next_pass_, kRequestsPerProgram,
                            next_pass_ < kCheckedPasses);
      ++next_pass_;
      setup_seconds_.push_back(static_cast<double>(NowNs() - build_start) / 1e9);
      const int64_t start = NowNs();
      steps += Drain(&pass, start + (budget_ns - loop_ns), traced);
      loop_ns += NowNs() - start;
      Finish(&pass, traced);
    }
    loop_seconds_ += static_cast<double>(loop_ns) / 1e9;
    return static_cast<double>(loop_ns) / static_cast<double>(std::max<uint64_t>(steps, 1));
  }

  /// The held-out-seed pass: untimed, every replay sampled.
  void RunHeldOut() {
    Pass pass = BuildPass(kHeldOutSeed, 0, kHeldOutRequests, false);
    for (Replay& replay : pass.replays) replay.sampled = true;
    Drain(&pass, INT64_MAX, false);
    Finish(&pass, false);
  }

  /// Replays every sample through the naive reference evaluator.
  void CheckSamples() {
    EngineOptions naive;
    naive.eval_mode = dynfo::dyn::EvalMode::kNaive;
    for (const Sample& sample : samples_) {
      const ProgramScenario& scenario = AllScenarios()[sample.scenario];
      std::unique_ptr<Engine> reference =
          MakeEngine(scenario, programs_[sample.scenario], naive);
      bool ok = true;
      for (size_t i = 0; i < sample.requests.size() && ok; ++i) {
        if (!reference->TryApply(sample.requests[i]).ok() ||
            reference->QueryBool() != (sample.answers[i] != 0)) {
          result_->Error(scenario.name + ": answer after request " + std::to_string(i) +
                         " differs from the naive reference");
          ok = false;
        }
      }
      if (ok && reference->data() != *sample.data) {
        result_->Error(scenario.name + ": final structure differs from the naive reference");
        ok = false;
      }
      if (!ok) ++result_->failed;
    }
    result_->Note("registry_mix: " + std::to_string(samples_.size()) +
                  " sampled replays checked against the naive reference");
  }

  /// Two fresh replays of the same fixed prefix must count identical work.
  void CheckExactCounters() {
    uint64_t tuples[2] = {0, 0}, probes[2] = {0, 0};
    for (int round = 0; round < 2; ++round) {
      for (size_t s = 0; s < AllScenarios().size(); ++s) {
        const ProgramScenario& scenario = AllScenarios()[s];
        std::unique_ptr<Engine> engine =
            MakeEngine(scenario, programs_[s], ServerEngineOptions());
        const RequestSequence requests =
            scenario.make_workload(scenario.default_universe, SubSeed(config_.seed, 7000 + s));
        for (const auto& request : requests) (void)engine->TryApply(request);
        tuples[round] += engine->stats().tuples_written;
        probes[round] += engine->eval_stats().index_probes;
      }
    }
    if (tuples[0] != tuples[1] || probes[0] != probes[1]) {
      result_->Error("exact counters did not repeat at a fixed seed");
    }
    result_->Set("exact.tuples_written", static_cast<double>(tuples[0]));
    result_->Set("exact.index_probes", static_cast<double>(probes[0]));
  }

  void ReportEndToEnd() {
    result_->Set("setup_s", Median(setup_seconds_));
    result_->Set("update_p50_us", apply_.P(0.5));
    result_->Set("update_p99_us", apply_.P(0.99));
    result_->Set("updates_per_s", static_cast<double>(apply_.count()) / loop_seconds_);
    result_->Set("queries_per_s", static_cast<double>(query_.count()) / loop_seconds_);
    result_->Note("registry_mix: " + std::to_string(apply_.count()) + " updates, " +
                  std::to_string(setup_seconds_.size()) + " passes of " +
                  std::to_string(kRequestsPerProgram) + " requests x " +
                  std::to_string(AllScenarios().size()) + " programs");
  }

  void ReportLayers(double overhead) {
    totals_.Report(traced_apply_, traced_query_, result_);
    for (size_t s = 0; s < AllScenarios().size(); ++s) {
      result_->Set("scenario." + AllScenarios()[s].name + ".apply_us_p50",
                   scenario_apply_[s].P(0.5));
    }
    // The working set of one replay, averaged over the traced replays.
    const double replays = std::max(finished_replays_, 1.0);
    result_->Set("relational.state_tuples", state_tuples_ / replays);
    result_->Set("relational.snapshot_bytes", snapshot_bytes_ / replays);
    result_->Set("trace.overhead", overhead);
  }

 private:
  /// Fresh replays holding exactly `per_program` requests of every program
  /// (the last replay of each is cut short), so every program carries the
  /// same share of the mix whatever its workload length.
  Pass BuildPass(uint64_t seed, uint64_t pass_index, size_t per_program, bool sample) {
    Pass pass;
    dynfo::core::Rng rng(SubSeed(seed, 1000000 + pass_index));
    const auto& scenarios = AllScenarios();
    for (size_t s = 0; s < scenarios.size(); ++s) {
      const size_t first = pass.replays.size();
      for (size_t total = 0, r = 0; total < per_program; ++r) {
        Replay replay;
        replay.scenario = s;
        replay.engine = MakeEngine(scenarios[s], programs_[s], ServerEngineOptions());
        replay.requests = scenarios[s].make_workload(
            scenarios[s].default_universe,
            SubSeed(seed, (pass_index * scenarios.size() + s) * 1000 + r));
        replay.requests.resize(std::min(replay.requests.size(), per_program - total));
        total += replay.requests.size();
        pass.order.insert(pass.order.end(), replay.requests.size(),
                          static_cast<uint32_t>(pass.replays.size()));
        pass.replays.push_back(std::move(replay));
      }
      if (sample) {
        pass.replays[first + rng.Below(pass.replays.size() - first)].sampled = true;
      }
    }
    for (size_t i = pass.order.size(); i > 1; --i) {
      std::swap(pass.order[i - 1], pass.order[rng.Below(i)]);
    }
    return pass;
  }

  /// Runs the pass's steps until done or `deadline_ns`; returns steps run.
  /// Traced, each step's times also go to the per-layer samples.
  uint64_t Drain(Pass* pass, int64_t deadline_ns, bool traced) {
    uint64_t steps = 0;
    while (pass->step < pass->order.size()) {
      Replay& replay = pass->replays[pass->order[pass->step++]];
      const auto& request = replay.requests[replay.next++];
      const int64_t t0 = NowNs();
      const bool ok = replay.engine->TryApply(request).ok();
      const int64_t t1 = NowNs();
      const bool answer = replay.engine->QueryBool();
      const int64_t t2 = NowNs();
      apply_.AddNs(t1 - t0);
      query_.AddNs(t2 - t1);
      if (traced) {
        traced_apply_.AddNs(t1 - t0);
        traced_query_.AddNs(t2 - t1);
        scenario_apply_[replay.scenario].AddNs(t1 - t0);
      }
      result_->Count(ok);
      result_->Count(true);
      if (!ok && result_->errors < 8) {
        result_->Error(AllScenarios()[replay.scenario].name + ": TryApply refused " +
                       request.ToString());
      }
      if (replay.sampled) replay.answers.push_back(answer ? 1 : 0);
      ++steps;
      if (t2 >= deadline_ns) break;
    }
    return steps;
  }

  /// Collects counters and samples from a (possibly cut) pass.
  void Finish(Pass* pass, bool traced) {
    for (Replay& replay : pass->replays) {
      if (traced) {
        totals_.Add(*replay.engine);
        const dynfo::relational::Structure& data = replay.engine->data();
        for (int i = 0; i < data.vocabulary().num_relations(); ++i) {
          state_tuples_ += static_cast<double>(data.relation(i).size());
        }
        snapshot_bytes_ += static_cast<double>(replay.engine->Snapshot().size());
        ++finished_replays_;
      }
      if (!replay.sampled || replay.next == 0) continue;
      Sample sample;
      sample.scenario = replay.scenario;
      sample.requests.assign(replay.requests.begin(),
                             replay.requests.begin() + static_cast<ptrdiff_t>(replay.next));
      sample.answers = std::move(replay.answers);
      sample.data = replay.engine->data();
      samples_.push_back(std::move(sample));
    }
  }

  const RunConfig& config_;
  Result* result_;
  std::vector<std::shared_ptr<const DynProgram>> programs_;
  uint64_t next_pass_ = 0;
  std::vector<double> setup_seconds_;
  Samples apply_, query_;
  std::vector<Samples> scenario_apply_;
  Samples traced_apply_, traced_query_;
  EngineTotals totals_;
  std::vector<Sample> samples_;
  double loop_seconds_ = 0;
  double state_tuples_ = 0, snapshot_bytes_ = 0, finished_replays_ = 0;
};

}  // namespace

Result RunRegistryMix(const RunConfig& config) {
  Result result;
  RegistryMix mix(config, &result);
  if (!config.trace) {
    mix.RunWindow(config.seconds, false);
    mix.ReportEndToEnd();
  } else {
    // The same loop with per-layer recording off and on, alternating so
    // drift cannot pose as overhead; per-layer numbers come from the traced
    // windows only.
    double plain = 0, traced = 0;
    for (int round = 0; round < 4; ++round) {
      const bool on = round % 2 == 1;
      (on ? traced : plain) += mix.RunWindow(config.seconds / 4, on);
    }
    mix.ReportLayers(plain > 0 ? traced / plain : 0);
  }
  mix.RunHeldOut();
  mix.CheckSamples();
  mix.CheckExactCounters();
  result.Set("peak_rss_mb", PeakRssMb());
  return result;
}

}  // namespace bench_e2e
