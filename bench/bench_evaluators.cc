/// \file bench_evaluators.cc
/// Cross-cutting evaluator ablation (DESIGN.md §3, §9) on the paper's own
/// update programs (REACH_u and PARITY):
///   * naive substitute-and-test (reference semantics, O(n^arity) points);
///   * algebra compiling a fresh plan on every evaluation (the replan
///     baseline: the same planner and executor, no plan cache);
///   * algebra with compile-once plans (planner runs at load time only);
///   * compiled plans probing persistent relation indexes (the default).
/// Each run reports plan-cache hit rate and per-update planner invocations
/// so the compile-once contract is visible in the numbers, plus quantifier
/// depth, the paper's parallel-time measure.

#include <benchmark/benchmark.h>

#include <chrono>
#include <ctime>
#include <map>
#include <memory>

#include "bench_util.h"
#include "fo/builder.h"
#include "programs/forest_rules.h"
#include "programs/parity.h"
#include "programs/reach_u.h"

namespace dynfo {
namespace {

// Long replays so the per-update figure reflects the steady-state hot path:
// one-time costs (engine construction, load-time plan compilation, workload
// structure allocation, cold caches on the first few applies) amortize away
// instead of dominating the quotient. 384 puts even the cheapest per-update
// path (the dense kernels, ~0.15us) well clear of those fixed costs; replan
// is flat per-update, so longer replays do not bias the comparison.
constexpr size_t kRequestsPerReplay = 384;
/// The naive reference is orders of magnitude slower per update; a shorter
/// replay keeps its curve affordable (per-update figures stay comparable —
/// items processed is always the request count).
constexpr size_t kNaiveRequestsPerReplay = 24;

relational::RequestSequence ReachWorkload(size_t n, size_t num_requests) {
  dyn::GraphWorkloadOptions options;
  options.num_requests = num_requests;
  options.seed = 42;
  options.undirected = true;
  return dyn::MakeGraphWorkload(*programs::ReachUInputVocabulary(), "E", n, options);
}

relational::RequestSequence ParityWorkload(size_t n, size_t num_requests) {
  dyn::GenericWorkloadOptions options;
  options.num_requests = num_requests;
  options.seed = 42;
  options.set_fraction = 0;  // the parity input vocabulary has no constants
  return dyn::MakeGenericWorkload(*programs::ParityInputVocabulary(), n, options);
}

struct Variant {
  dyn::EvalMode eval_mode = dyn::EvalMode::kAlgebra;
  bool use_delta = false;
  bool use_compiled_plans = false;
  bool use_indexes = false;
  bool use_dense = false;
};

// The algebra variants ablate ONLY the compile-once/index gates; everything
// else (notably delta application) stays at the engine defaults, so the
// comparison isolates the plan layer on the real hot Apply path. The naive
// reference recomputes everything (it ignores the gates by construction).
constexpr Variant kNaive{dyn::EvalMode::kNaive, false, false, false};
constexpr Variant kReplan{dyn::EvalMode::kAlgebra, true, false, false};
constexpr Variant kCompiled{dyn::EvalMode::kAlgebra, true, true, false};
constexpr Variant kCompiledIndexed{dyn::EvalMode::kAlgebra, true, true, true};
/// Full recompute with the plan layer on: isolates delta's contribution.
constexpr Variant kNoDeltaIndexed{dyn::EvalMode::kAlgebra, false, true, true};
/// Everything on plus the bit-parallel dense backend (DESIGN.md §13): the
/// word-level kernels replace per-tuple hash work where rules lower.
constexpr Variant kDense{dyn::EvalMode::kAlgebra, true, true, true, true};

dyn::EngineOptions ToOptions(const Variant& variant) {
  dyn::EngineOptions options;
  options.eval_mode = variant.eval_mode;
  options.use_delta = variant.use_delta;
  options.use_compiled_plans = variant.use_compiled_plans;
  options.use_indexes = variant.use_indexes;
  options.use_dense_relations = variant.use_dense;
  return options;
}

/// One full workload replay per iteration on a fresh engine (steady-state
/// amortized cost per update = time / items). The last iteration's engine is
/// inspected for the compile-once counters.
void Run(benchmark::State& state, const Variant& variant,
         std::shared_ptr<const dyn::DynProgram> program,
         const relational::RequestSequence& requests) {
  const size_t n = static_cast<size_t>(state.range(0));
  fo::EvalStats at_load;
  fo::EvalStats after;
  dyn::Engine::Stats engine_stats;
  for (auto _ : state) {
    dyn::Engine engine(program, n, ToOptions(variant));
    at_load = engine.eval_stats();
    for (const relational::Request& request : requests) {
      engine.Apply(request);
      benchmark::DoNotOptimize(engine.QueryBool());
    }
    after = engine.eval_stats();
    engine_stats = engine.stats();
  }
  state.counters["quantifier_depth"] = static_cast<double>(program->MaxQuantifierDepth());
  state.counters["plan_cache_hit_rate"] = after.PlanCacheHitRate();
  state.counters["planner_runs_per_update"] =
      static_cast<double>(after.planner_runs - at_load.planner_runs) /
      static_cast<double>(requests.size());
  state.counters["index_probes_per_update"] =
      static_cast<double>(after.index_probes) / static_cast<double>(requests.size());
  // Delta-materialization exposure (DESIGN.md §11): how much of the replay's
  // tuple traffic went through O(delta) paths vs full rematerialization.
  const double per_update = static_cast<double>(requests.size());
  state.counters["tuples_delta_written_per_update"] =
      static_cast<double>(engine_stats.tuples_delta_written) / per_update;
  state.counters["delta_rules_per_update"] =
      static_cast<double>(engine_stats.delta_rules) / per_update;
  state.counters["fallback_recomputes_per_update"] =
      static_cast<double>(engine_stats.fallback_recomputes) / per_update;
  state.counters["delta_write_ratio"] =
      engine_stats.tuples_written == 0
          ? 0.0
          : static_cast<double>(engine_stats.tuples_delta_written) /
                static_cast<double>(engine_stats.tuples_written);
  // Dense-backend exposure (DESIGN.md §13): how much of the replay ran on
  // the word-parallel kernel path and how many words those kernels touched.
  state.counters["dense_applies_per_update"] =
      static_cast<double>(engine_stats.dense_applies) / per_update;
  state.counters["dense_kernels_per_update"] =
      static_cast<double>(after.dense_kernel_launches) / per_update;
  state.counters["dense_words_per_update"] =
      static_cast<double>(after.words_scanned) / per_update;
  state.counters["backend_conversions"] =
      static_cast<double>(after.backend_conversions);
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations() * requests.size()));
}

size_t ReplayLength(const Variant& variant) {
  return variant.eval_mode == dyn::EvalMode::kNaive ? kNaiveRequestsPerReplay
                                                    : kRequestsPerReplay;
}

void RunReach(benchmark::State& state, const Variant& variant) {
  const size_t n = static_cast<size_t>(state.range(0));
  Run(state, variant, programs::MakeReachUProgram(),
      ReachWorkload(n, ReplayLength(variant)));
}

void RunParity(benchmark::State& state, const Variant& variant) {
  const size_t n = static_cast<size_t>(state.range(0));
  Run(state, variant, programs::MakeParityProgram(),
      ParityWorkload(n, ReplayLength(variant)));
}

void BM_EvalNaive(benchmark::State& state) { RunReach(state, kNaive); }
BENCHMARK(BM_EvalNaive)->DenseRange(6, 12, 3);

// The large sizes are where the O(delta)-vs-O(state) separation shows: the
// per-update cost of the semi-naive path stays flat as the universe grows
// (the request's delta is local) while every full-rematerialization variant
// pays universe-proportional work per update.
void BM_EvalAlgebraReplan(benchmark::State& state) { RunReach(state, kReplan); }
BENCHMARK(BM_EvalAlgebraReplan)
    ->DenseRange(6, 12, 3)->DenseRange(16, 24, 8)
    ->RangeMultiplier(2)->Range(96, 384);

void BM_EvalAlgebraCompiled(benchmark::State& state) { RunReach(state, kCompiled); }
BENCHMARK(BM_EvalAlgebraCompiled)
    ->DenseRange(6, 12, 3)->DenseRange(16, 24, 8)
    ->RangeMultiplier(2)->Range(96, 384);

void BM_EvalAlgebraCompiledIndexed(benchmark::State& state) {
  RunReach(state, kCompiledIndexed);
}
BENCHMARK(BM_EvalAlgebraCompiledIndexed)
    ->DenseRange(6, 12, 3)->DenseRange(16, 24, 8)
    ->RangeMultiplier(2)->Range(96, 384);

void BM_EvalAlgebraNoDelta(benchmark::State& state) { RunReach(state, kNoDeltaIndexed); }
BENCHMARK(BM_EvalAlgebraNoDelta)
    ->DenseRange(6, 12, 3)->DenseRange(16, 24, 8)
    ->RangeMultiplier(2)->Range(96, 384);

void BM_EvalAlgebraDense(benchmark::State& state) { RunReach(state, kDense); }
BENCHMARK(BM_EvalAlgebraDense)
    ->DenseRange(6, 12, 3)->DenseRange(16, 24, 8)
    ->RangeMultiplier(2)->Range(96, 384);

/// A steady-state reach_u data structure (mirrored E, forest F, path
/// relation PV) at universe n, built once and shared across variants — the
/// locality benchmarks below measure evaluation only, not setup.
const relational::Structure& ReachStructure(size_t n) {
  static std::map<size_t, std::unique_ptr<dyn::Engine>>* cache =
      new std::map<size_t, std::unique_ptr<dyn::Engine>>();
  auto it = cache->find(n);
  if (it == cache->end()) {
    auto engine = std::make_unique<dyn::Engine>(programs::MakeReachUProgram(), n);
    dyn::GraphWorkloadOptions options;
    options.num_requests = 4 * n;
    options.seed = 7;
    options.undirected = true;
    for (const relational::Request& request : dyn::MakeGraphWorkload(
             *programs::ReachUInputVocabulary(), "E", n, options)) {
      engine->Apply(request);
    }
    it = cache->emplace(n, std::move(engine)).first;
  }
  return it->second->data();
}

/// The hot shape the plan/index layer targets: per-update evaluation of the
/// paper's request-local subformulas. SameTree(x, $0) — "x is in the updated
/// vertex's tree" — appears in every reach_u update rule; with re-planning
/// each evaluation compiles the formula and scans all of PV, while a
/// compiled plan replays instantly and probes the persistent PV index with
/// the pinned parameter. Output stays small (one tree), so this isolates evaluator
/// overhead rather than inherent result materialization.
void RunLocality(benchmark::State& state, const Variant& variant) {
  const size_t n = static_cast<size_t>(state.range(0));
  const relational::Structure& data = ReachStructure(n);
  const fo::FormulaPtr phi = programs::SameTree(fo::V("x"), fo::P0()).ptr;
  const std::vector<std::string> variables = {"x"};

  fo::EvalOptions eval_options;
  eval_options.use_compiled_plans = variant.use_compiled_plans;
  eval_options.use_indexes = variant.use_indexes;
  fo::AlgebraEvaluator evaluator;
  // Warmup compiles the plan and builds the index, as engine load time does.
  evaluator.EvaluateAsRelation(phi, variables,
                               fo::EvalContext(data, {0}, eval_options));
  const fo::EvalStats at_load = evaluator.stats();

  relational::Element a = 0;
  for (auto _ : state) {
    fo::EvalContext ctx(data, {a}, eval_options);
    benchmark::DoNotOptimize(evaluator.EvaluateAsRelation(phi, variables, ctx));
    a = (a + 1) % static_cast<relational::Element>(n);
  }
  const fo::EvalStats after = evaluator.stats();
  state.counters["plan_cache_hit_rate"] = after.PlanCacheHitRate();
  state.counters["planner_runs_per_update"] =
      state.iterations() > 0
          ? static_cast<double>(after.planner_runs - at_load.planner_runs) /
                static_cast<double>(state.iterations())
          : 0.0;
  state.counters["index_probes_per_update"] =
      state.iterations() > 0
          ? static_cast<double>(after.index_probes - at_load.index_probes) /
                static_cast<double>(state.iterations())
          : 0.0;
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}

void BM_UpdateLocalityReplan(benchmark::State& state) {
  RunLocality(state, kReplan);
}
BENCHMARK(BM_UpdateLocalityReplan)->RangeMultiplier(2)->Range(16, 64);

void BM_UpdateLocalityCompiled(benchmark::State& state) {
  RunLocality(state, kCompiled);
}
BENCHMARK(BM_UpdateLocalityCompiled)->RangeMultiplier(2)->Range(16, 64);

void BM_UpdateLocalityCompiledIndexed(benchmark::State& state) {
  RunLocality(state, kCompiledIndexed);
}
BENCHMARK(BM_UpdateLocalityCompiledIndexed)->RangeMultiplier(2)->Range(16, 64);

void BM_ParityNaive(benchmark::State& state) { RunParity(state, kNaive); }
BENCHMARK(BM_ParityNaive)->RangeMultiplier(4)->Range(16, 256);

void BM_ParityReplan(benchmark::State& state) { RunParity(state, kReplan); }
BENCHMARK(BM_ParityReplan)->RangeMultiplier(4)->Range(16, 1024);

void BM_ParityCompiled(benchmark::State& state) { RunParity(state, kCompiled); }
BENCHMARK(BM_ParityCompiled)->RangeMultiplier(4)->Range(16, 1024);

void BM_ParityCompiledIndexed(benchmark::State& state) {
  RunParity(state, kCompiledIndexed);
}
BENCHMARK(BM_ParityCompiledIndexed)->RangeMultiplier(4)->Range(16, 1024);

void BM_ParityDense(benchmark::State& state) { RunParity(state, kDense); }
BENCHMARK(BM_ParityDense)->RangeMultiplier(4)->Range(16, 1024);

/// Paired form of the replan-vs-dense comparison: every iteration replays
/// the identical workload under both variants back-to-back and the derived
/// quotient is reported as the `speedup` counter. Two independently timed
/// benchmarks run minutes apart in a full suite, so slow host drift
/// (frequency scaling, noisy neighbors on shared runners) lands on one side
/// of the quotient and swings it by ±15%; inside one iteration the drift is
/// common-mode and cancels. The parity_apply CI gate reads this counter
/// (tools/aggregate_benches.py), with the separately timed rows above kept
/// for absolute per-update figures.
void BM_ParityDenseSpeedup(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  auto program = programs::MakeParityProgram();
  const relational::RequestSequence requests =
      ParityWorkload(n, kRequestsPerReplay);
  // Alternating variants cold-starts whichever side runs second; one untimed
  // replay re-warms a variant's code paths before its timed replays, so the
  // quotient compares the steady states the standalone rows report. Each
  // timed replay drives a fresh engine but starts its clock after
  // construction: the gate's claim is about Apply, and the one-time setup
  // (plan compilation, dense-bundle lowering, initial materialization) would
  // otherwise smear a fixed cost across whichever side amortizes it worse.
  // The windows are timed on the thread CPU clock: a preemption burst landing
  // inside one side's sub-millisecond window would swing a wall-clock
  // quotient by integer factors, while CPU time simply stops with the
  // thread (both replays are single-threaded here).
  constexpr int kTimedReplays = 3;
  auto cpu_now_ns = [] {
#if defined(CLOCK_THREAD_CPUTIME_ID)
    timespec ts;
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return int64_t{ts.tv_sec} * 1'000'000'000 + ts.tv_nsec;
#else
    return static_cast<int64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
#endif
  };
  auto replay = [&](const Variant& variant, int64_t* apply_ns) {
    dyn::Engine engine(program, n, ToOptions(variant));
    const int64_t t0 = apply_ns == nullptr ? 0 : cpu_now_ns();
    for (const relational::Request& request : requests) {
      engine.Apply(request);
      benchmark::DoNotOptimize(engine.QueryBool());
    }
    if (apply_ns != nullptr) *apply_ns += cpu_now_ns() - t0;
  };
  int64_t replan_ns = 0;
  int64_t dense_ns = 0;
  auto timed = [&](const Variant& variant) {
    replay(variant, nullptr);
    int64_t total = 0;
    for (int i = 0; i < kTimedReplays; ++i) replay(variant, &total);
    return total;
  };
  for (auto _ : state) {
    replan_ns += timed(kReplan);
    dense_ns += timed(kDense);
  }
  state.counters["speedup"] =
      dense_ns == 0 ? 0.0
                    : static_cast<double>(replan_ns) /
                          static_cast<double>(dense_ns);
  state.SetItemsProcessed(
      static_cast<int64_t>(state.iterations() * requests.size()));
}
BENCHMARK(BM_ParityDenseSpeedup)->Arg(1024);

/// Parity's per-update evaluation in isolation: the paper's b' formula,
/// evaluated with a pinned parameter against a populated M. All conjuncts
/// are O(1) point lookups, so the quotient between these two benchmarks is
/// purely the planning overhead the compile-once layer removes.
void RunParityUpdateEval(benchmark::State& state, const Variant& variant) {
  const size_t n = static_cast<size_t>(state.range(0));
  auto program = programs::MakeParityProgram();
  relational::Structure data(program->data_vocabulary(), n);
  core::Rng rng(3);
  for (relational::Element v = 0; v < n; ++v) {
    if (rng.Chance(1, 2)) data.relation("M").Insert({v});
  }
  const dyn::RequestRules* rules =
      program->RulesFor(relational::RequestKind::kInsert, "M");
  const fo::FormulaPtr& phi = rules->updates.front().formula;

  fo::EvalOptions eval_options;
  eval_options.use_compiled_plans = variant.use_compiled_plans;
  eval_options.use_indexes = variant.use_indexes;
  fo::AlgebraEvaluator evaluator;
  evaluator.HoldsSentence(phi, fo::EvalContext(data, {0}, eval_options));

  relational::Element a = 0;
  for (auto _ : state) {
    fo::EvalContext ctx(data, {a}, eval_options);
    benchmark::DoNotOptimize(evaluator.HoldsSentence(phi, ctx));
    a = (a + 1) % static_cast<relational::Element>(n);
  }
  state.counters["plan_cache_hit_rate"] = evaluator.stats().PlanCacheHitRate();
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}

void BM_ParityUpdateEvalReplan(benchmark::State& state) {
  RunParityUpdateEval(state, kReplan);
}
BENCHMARK(BM_ParityUpdateEvalReplan)->Arg(1024);

void BM_ParityUpdateEvalCompiled(benchmark::State& state) {
  RunParityUpdateEval(state, kCompiledIndexed);
}
BENCHMARK(BM_ParityUpdateEvalCompiled)->Arg(1024);

}  // namespace
}  // namespace dynfo
