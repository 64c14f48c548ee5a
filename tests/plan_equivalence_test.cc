/// Property tests for the compile-once plan layer (fo/plan.h): under every
/// gate combination — compiled plans with and without persistent indexes,
/// and the replan ablation that compiles a fresh plan on every call — the
/// algebra evaluator must be observationally identical to the naive
/// reference, on random formulas and on full engine request sequences. Also
/// pins both planning contracts: compile-once (after warmup the plan cache
/// serves every call, hit rate ~1.0, and the hot Apply path runs zero
/// planner invocations; plans/indexes stay consistent across
/// Snapshot/Restore and ReloadProgram) and compile-per-call (one planner
/// run per evaluation, nothing cached).

#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/rng.h"
#include "dynfo/engine.h"
#include "dynfo/workload.h"
#include "fo/eval_algebra.h"
#include "fo/eval_naive.h"
#include "programs/parity.h"
#include "programs/reach_u.h"
#include "programs/registry.h"
#include "test_util.h"

namespace dynfo {
namespace {

/// The ablation axes: {use_compiled_plans, use_indexes}. Indexes without
/// compiled plans is not a meaningful configuration (indexes are probed only
/// by compiled plans), so three combos cover the space.
struct GateCombo {
  const char* name;
  bool use_compiled_plans;
  bool use_indexes;
};

constexpr GateCombo kGateCombos[] = {
    {"compiled+indexed", true, true},
    {"compiled", true, false},
    {"replan", false, false},
};
constexpr const GateCombo& kReplan = kGateCombos[2];

fo::EvalOptions GatedOptions(const GateCombo& combo) {
  fo::EvalOptions options;
  options.use_compiled_plans = combo.use_compiled_plans;
  options.use_indexes = combo.use_indexes;
  return options;
}

TEST(PlanEquivalence, RandomFormulasMatchNaiveUnderAllGateCombos) {
  auto vocab = std::make_shared<relational::Vocabulary>();
  vocab->AddRelation("E", 2);
  vocab->AddRelation("U", 1);
  vocab->AddRelation("T", 3);
  relational::Structure structure(vocab, 5);
  core::Rng rng(4242);
  const std::vector<std::string> variables = {"x", "y"};

  for (int trial = 0; trial < 80; ++trial) {
    testing::RandomizeStructure(&structure, &rng, 0.3);
    int fresh = 0;
    fo::FormulaPtr formula =
        testing::RandomFormula(&rng, *vocab, variables, structure.universe_size(),
                               /*depth=*/3, &fresh);
    fo::EvalContext naive_ctx(structure);
    relational::Relation reference =
        fo::NaiveEvaluator::EvaluateAsRelation(formula, variables, naive_ctx);
    for (const GateCombo& combo : kGateCombos) {
      fo::EvalContext ctx(structure, {}, GatedOptions(combo));
      fo::AlgebraEvaluator evaluator;
      relational::Relation result =
          evaluator.EvaluateAsRelation(formula, variables, ctx);
      ASSERT_EQ(result, reference)
          << combo.name << " trial " << trial << " formula " << formula->ToString();
    }
  }
}

TEST(PlanEquivalence, ReplanCompilesOnEveryCall) {
  auto vocab = std::make_shared<relational::Vocabulary>();
  vocab->AddRelation("E", 2);
  vocab->AddRelation("U", 1);
  relational::Structure structure(vocab, 6);
  core::Rng rng(515);
  const std::vector<std::string> variables = {"x", "y"};
  fo::AlgebraEvaluator evaluator;

  constexpr uint64_t kCalls = 40;
  for (uint64_t call = 0; call < kCalls; ++call) {
    testing::RandomizeStructure(&structure, &rng, 0.3);
    int fresh = 0;
    fo::FormulaPtr formula =
        testing::RandomFormula(&rng, *vocab, variables, structure.universe_size(),
                               /*depth=*/3, &fresh);
    const uint64_t runs_before = evaluator.stats().planner_runs;
    fo::EvalContext ctx(structure, {}, GatedOptions(kReplan));
    relational::Relation result = evaluator.EvaluateAsRelation(formula, variables, ctx);
    EXPECT_EQ(evaluator.stats().planner_runs, runs_before + 1) << "call " << call;
    EXPECT_EQ(evaluator.plan_cache_size(), 0u) << "call " << call;
    ASSERT_EQ(result, fo::NaiveEvaluator::EvaluateAsRelation(
                          formula, variables, fo::EvalContext(structure)))
        << "call " << call << " formula " << formula->ToString();
  }
  EXPECT_EQ(evaluator.stats().planner_runs, kCalls);
  EXPECT_EQ(evaluator.stats().plan_cache_hits, 0u);
}

TEST(PlanEquivalence, CachedPlanSurvivesStructureChurn) {
  // One evaluator, one formula, many structures: the plan compiles once and
  // replays correctly as the underlying data changes (plans depend on the
  // vocabulary, never on relation contents).
  auto vocab = std::make_shared<relational::Vocabulary>();
  vocab->AddRelation("E", 2);
  vocab->AddRelation("U", 1);
  relational::Structure structure(vocab, 6);
  core::Rng rng(77);
  const std::vector<std::string> variables = {"x", "y"};
  fo::AlgebraEvaluator evaluator;

  for (int round = 0; round < 10; ++round) {
    int fresh = 0;
    fo::FormulaPtr formula =
        testing::RandomFormula(&rng, *vocab, variables, structure.universe_size(),
                               /*depth=*/3, &fresh);
    evaluator.ResetStats();
    evaluator.ClearPlanCache();
    for (int churn = 0; churn < 6; ++churn) {
      testing::RandomizeStructure(&structure, &rng, 0.25);
      fo::EvalContext ctx(structure);  // compiled+indexed defaults
      relational::Relation expected = fo::NaiveEvaluator::EvaluateAsRelation(
          formula, variables, fo::EvalContext(structure));
      ASSERT_EQ(evaluator.EvaluateAsRelation(formula, variables, ctx), expected)
          << "round " << round << " churn " << churn;
    }
    const fo::EvalStats stats = evaluator.stats();
    // EvaluateAsRelation may wrap the formula per call, so only the raw
    // formula's subplans are shared; still, the top-level formula itself must
    // have compiled at most once per distinct Formula object cached.
    EXPECT_GT(stats.planner_runs, 0u);
  }
}

TEST(PlanEquivalence, ParameterizedPlanReplaysAcrossParameterValues) {
  // The paper's request-locality shape: atoms pin quantified variables to the
  // request parameters $0/$1. One plan, compiled once, must answer correctly
  // for every parameter binding (parameters resolve at execution time).
  using fo::Formula;
  using fo::Term;
  auto vocab = std::make_shared<relational::Vocabulary>();
  vocab->AddRelation("E", 2);
  relational::Structure structure(vocab, 6);
  core::Rng rng(99);
  testing::RandomizeStructure(&structure, &rng, 0.35);

  // phi(x) = exists q. E($0, q) & E(q, x) & !E(x, $1)
  fo::FormulaPtr phi = Formula::Exists(
      {"q"}, Formula::And({Formula::Atom("E", {Term::Param(0), Term::Var("q")}),
                           Formula::Atom("E", {Term::Var("q"), Term::Var("x")}),
                           Formula::Not(Formula::Atom(
                               "E", {Term::Var("x"), Term::Param(1)}))}));
  const std::vector<std::string> variables = {"x"};

  fo::AlgebraEvaluator evaluator;
  fo::EvalOptions compiled = GatedOptions(kGateCombos[0]);
  for (relational::Element a = 0; a < 6; ++a) {
    for (relational::Element b = 0; b < 6; ++b) {
      fo::EvalContext ctx(structure, {a, b}, compiled);
      relational::Relation expected = fo::NaiveEvaluator::EvaluateAsRelation(
          phi, variables, fo::EvalContext(structure, {a, b}));
      ASSERT_EQ(evaluator.EvaluateAsRelation(phi, variables, ctx), expected)
          << "params (" << a << ", " << b << ")";
    }
  }
}

TEST(PlanEquivalence, PlanCacheWarmsUpToFullHitRate) {
  using fo::Formula;
  using fo::Term;
  auto vocab = std::make_shared<relational::Vocabulary>();
  vocab->AddRelation("E", 2);
  relational::Structure structure(vocab, 8);
  core::Rng rng(5);
  testing::RandomizeStructure(&structure, &rng, 0.3);

  // A sentence, so HoldsSentence evaluates exactly the formula we cache.
  fo::FormulaPtr sentence = Formula::Exists(
      {"x", "y"}, Formula::And({Formula::Atom("E", {Term::Var("x"), Term::Var("y")}),
                                Formula::Atom("E", {Term::Var("y"), Term::Var("x")})}));

  fo::AlgebraEvaluator evaluator;
  fo::EvalContext ctx(structure);
  const bool first = evaluator.HoldsSentence(sentence, ctx);
  const fo::EvalStats after_first = evaluator.stats();
  EXPECT_EQ(after_first.plan_cache_misses, 1u);
  EXPECT_EQ(after_first.planner_runs, 1u);
  EXPECT_EQ(evaluator.plan_cache_size(), 1u);

  constexpr int kRepeats = 50;
  for (int i = 0; i < kRepeats; ++i) {
    ASSERT_EQ(evaluator.HoldsSentence(sentence, ctx), first);
  }
  const fo::EvalStats warmed = evaluator.stats();
  // Compile-once: the planner never ran again, every later call hit.
  EXPECT_EQ(warmed.planner_runs, 1u);
  EXPECT_EQ(warmed.plan_cache_misses, 1u);
  EXPECT_EQ(warmed.plan_cache_hits, static_cast<uint64_t>(kRepeats));
  EXPECT_GT(warmed.PlanCacheHitRate(), 0.95);

  evaluator.ClearPlanCache();
  EXPECT_EQ(evaluator.plan_cache_size(), 0u);
  ASSERT_EQ(evaluator.HoldsSentence(sentence, ctx), first);
  EXPECT_EQ(evaluator.stats().planner_runs, 2u);  // recompiled after the clear
}

struct EngineCase {
  std::string name;
  std::shared_ptr<const dyn::DynProgram> program;
  relational::RequestSequence requests;
  size_t universe;
  std::function<void(dyn::Engine*)> post_init = nullptr;  ///< may be null
};

std::vector<EngineCase> EngineCases() {
  std::vector<EngineCase> out;
  {
    dyn::GraphWorkloadOptions options;
    options.num_requests = 120;
    options.seed = 303;
    options.undirected = true;
    options.set_fraction = 0.1;
    out.push_back({"reach_u", programs::MakeReachUProgram(),
                   dyn::MakeGraphWorkload(*programs::ReachUInputVocabulary(), "E", 8,
                                          options),
                   8});
  }
  {
    dyn::GenericWorkloadOptions options;
    options.num_requests = 120;
    options.seed = 17;
    options.set_fraction = 0;  // the parity input vocabulary has no constants
    out.push_back({"parity", programs::MakeParityProgram(),
                   dyn::MakeGenericWorkload(*programs::ParityInputVocabulary(), 10,
                                            options),
                   10});
  }
  return out;
}

void ExpectIndexesConsistent(const relational::Structure& data,
                             const std::string& label) {
  for (int r = 0; r < data.vocabulary().num_relations(); ++r) {
    core::Status status = data.relation(r).ValidateIndexes();
    ASSERT_TRUE(status.ok()) << label << " relation "
                             << data.vocabulary().relation(r).name << ": "
                             << status.message();
  }
}

TEST(PlanEquivalence, EngineSequencesIdenticalUnderAllGateCombos) {
  // Every registry program too: without indexes, update rules whose base is
  // their own target take the diff scan path.
  std::vector<EngineCase> cases = EngineCases();
  for (const programs::ProgramScenario& scenario : programs::AllScenarios()) {
    for (uint64_t seed : {1, 2, 3}) {
      const size_t n = scenario.default_universe;
      cases.push_back({scenario.name + " seed " + std::to_string(seed),
                       scenario.make_program(), scenario.make_workload(n, seed), n,
                       scenario.post_init});
    }
  }
  for (const EngineCase& test_case : cases) {
    dyn::EngineOptions naive_options;
    naive_options.eval_mode = dyn::EvalMode::kNaive;
    naive_options.use_delta = false;
    dyn::Engine naive(test_case.program, test_case.universe, naive_options);
    if (test_case.post_init) test_case.post_init(&naive);

    std::vector<std::unique_ptr<dyn::Engine>> engines;
    for (const GateCombo& combo : kGateCombos) {
      dyn::EngineOptions options;
      options.use_compiled_plans = combo.use_compiled_plans;
      options.use_indexes = combo.use_indexes;
      engines.push_back(
          std::make_unique<dyn::Engine>(test_case.program, test_case.universe, options));
      if (test_case.post_init) test_case.post_init(engines.back().get());
    }

    size_t step = 0;
    for (const relational::Request& request : test_case.requests) {
      naive.Apply(request);
      for (size_t i = 0; i < engines.size(); ++i) {
        engines[i]->Apply(request);
        ASSERT_EQ(naive.data(), engines[i]->data())
            << test_case.name << " " << kGateCombos[i].name << " diverged at step "
            << step << " after " << request.ToString();
      }
      ++step;
    }
    // Persistent indexes stayed consistent through the whole churn, and the
    // replan engine (the last combo) never cached a plan.
    ExpectIndexesConsistent(engines[0]->data(), test_case.name);
    EXPECT_EQ(engines.back()->plan_cache_size(), 0u) << test_case.name;
  }
}

TEST(PlanEquivalence, HotApplyPathRunsZeroPlannerInvocations) {
  for (const EngineCase& test_case : EngineCases()) {
    dyn::Engine engine(test_case.program, test_case.universe);  // defaults: compiled+indexed
    // Load-time precompilation already populated the cache.
    const fo::EvalStats at_load = engine.eval_stats();
    EXPECT_GT(at_load.planner_runs, 0u) << test_case.name;
    EXPECT_GT(engine.plan_cache_size(), 0u) << test_case.name;

    for (const relational::Request& request : test_case.requests) {
      engine.Apply(request);
    }
    engine.QueryBool();

    const fo::EvalStats after = engine.eval_stats();
    // The acceptance bar: zero per-update planner invocations and a warm
    // cache serving essentially every evaluation.
    EXPECT_EQ(after.planner_runs, at_load.planner_runs)
        << test_case.name << " planned during Apply";
    EXPECT_EQ(after.plan_cache_misses, at_load.plan_cache_misses) << test_case.name;
    EXPECT_GT(after.plan_cache_hits, 0u) << test_case.name;
    EXPECT_GT(after.PlanCacheHitRate(), 0.9) << test_case.name;
  }

  // Every registry program under every compiled-plan configuration: load-
  // time precompilation and Apply read the same per-rule path decision, so
  // whatever path a rule takes was compiled before the first request.
  struct Config {
    const char* name;
    dyn::EngineOptions options;
  };
  std::vector<Config> configs(5);
  configs[0].name = "default";
  configs[1].name = "no_indexes";
  configs[1].options.use_indexes = false;
  configs[2].name = "no_delta";
  configs[2].options.use_delta = false;
  configs[3].name = "dense_auto";
  configs[3].options.use_dense_relations = true;
  configs[4].name = "dense_forced";
  configs[4].options.use_dense_relations = true;
  configs[4].options.force_dense_backend = true;
  for (const programs::ProgramScenario& scenario : programs::AllScenarios()) {
    const size_t n = scenario.default_universe;
    const relational::RequestSequence requests = scenario.make_workload(n, 7);
    for (const Config& config : configs) {
      dyn::Engine engine(scenario.make_program(), n, config.options);
      if (scenario.post_init) scenario.post_init(&engine);
      const fo::EvalStats at_load = engine.eval_stats();
      for (const relational::Request& request : requests) engine.Apply(request);
      if (engine.program().bool_query() != nullptr) engine.QueryBool();
      const fo::EvalStats after = engine.eval_stats();
      EXPECT_EQ(after.planner_runs, at_load.planner_runs)
          << scenario.name << " / " << config.name << " planned during Apply";
      EXPECT_EQ(after.plan_cache_misses, at_load.plan_cache_misses)
          << scenario.name << " / " << config.name;
    }
  }
}

TEST(PlanEquivalence, RestoreInvalidatesPlansAndKeepsEquivalence) {
  const EngineCase test_case = EngineCases()[0];  // reach_u
  dyn::EngineOptions naive_options;
  naive_options.eval_mode = dyn::EvalMode::kNaive;
  naive_options.use_delta = false;
  dyn::Engine naive(test_case.program, test_case.universe, naive_options);
  dyn::Engine engine(test_case.program, test_case.universe);

  const size_t half = test_case.requests.size() / 2;
  std::string snapshot;
  for (size_t i = 0; i < half; ++i) {
    naive.Apply(test_case.requests[i]);
    engine.Apply(test_case.requests[i]);
  }
  snapshot = engine.Snapshot();

  // Run the tail twice: once straight through, once after a Restore back to
  // the midpoint. Both must match the naive reference state-for-state.
  for (size_t i = half; i < test_case.requests.size(); ++i) {
    engine.Apply(test_case.requests[i]);
  }
  const relational::Structure final_state = engine.data();

  ASSERT_TRUE(engine.Restore(snapshot).ok());
  ExpectIndexesConsistent(engine.data(), "post-restore");
  const fo::EvalStats post_restore = engine.eval_stats();
  for (size_t i = half; i < test_case.requests.size(); ++i) {
    naive.Apply(test_case.requests[i]);
    engine.Apply(test_case.requests[i]);
    ASSERT_EQ(naive.data(), engine.data())
        << "diverged after restore at step " << i;
  }
  EXPECT_EQ(engine.data(), final_state);
  // The replayed tail still planned nothing: Restore recompiled eagerly.
  EXPECT_EQ(engine.eval_stats().planner_runs, post_restore.planner_runs);
}

TEST(PlanEquivalence, ReloadProgramRecompilesAndRejectsForeignVocabulary) {
  const EngineCase test_case = EngineCases()[0];  // reach_u
  dyn::Engine engine(test_case.program, test_case.universe);
  for (size_t i = 0; i < 40; ++i) engine.Apply(test_case.requests[i]);
  const bool answer_before = engine.QueryBool();

  // Reloading the same program object is the degenerate hot-swap: plans are
  // rebuilt, behavior is unchanged.
  ASSERT_TRUE(engine.ReloadProgram(engine.program_ptr()).ok());
  EXPECT_GT(engine.plan_cache_size(), 0u);
  EXPECT_EQ(engine.QueryBool(), answer_before);
  for (size_t i = 40; i < 80; ++i) engine.Apply(test_case.requests[i]);

  dyn::Engine twin(test_case.program, test_case.universe);
  for (size_t i = 0; i < 80; ++i) twin.Apply(test_case.requests[i]);
  EXPECT_EQ(engine.data(), twin.data());

  // A program built over different vocabulary objects must be rejected: its
  // formulas would compile against relation indexes that do not match data_.
  auto foreign = programs::MakeReachUProgram();
  ASSERT_NE(foreign.get(), test_case.program.get());
  EXPECT_FALSE(engine.ReloadProgram(foreign).ok());
  // The rejection left the engine fully operational.
  engine.Apply(test_case.requests[80]);
  twin.Apply(test_case.requests[80]);
  EXPECT_EQ(engine.data(), twin.data());
}

}  // namespace
}  // namespace dynfo
