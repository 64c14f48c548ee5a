/// Race-audit regression test for the evaluator's shared mutable state
/// (run under TSan in CI). EngineService answers every session's reads
/// through ONE shared AlgebraEvaluator (its read evaluator), so concurrent
/// readers call Sat on it from several threads, and three things must
/// tolerate concurrent use: the work counters (relaxed atomics,
/// fo/eval_stats.h), the plan cache (mutex; compile-outside-lock), and lazy
/// index construction on shared relations (Relation::EnsureIndex's internal
/// mutex). The test hammers all three from several threads while a reader
/// polls snapshots.

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/rng.h"
#include "fo/eval_algebra.h"
#include "fo/formula.h"
#include "test_util.h"

namespace dynfo {
namespace {

constexpr int kThreads = 4;

TEST(EvalStatsRace, ConcurrentSatOnSharedEvaluatorAndColdCaches) {
  // Worst case for the shared state: every thread starts with cold plan
  // cache and cold indexes, so first-call compilation and EnsureIndex races
  // happen for real (both are designed to be benign).
  auto vocab = std::make_shared<relational::Vocabulary>();
  vocab->AddRelation("E", 2);
  vocab->AddRelation("U", 1);
  relational::Structure structure(vocab, 6);
  core::Rng rng(11);
  testing::RandomizeStructure(&structure, &rng, 0.3);

  std::vector<fo::FormulaPtr> formulas;
  const std::vector<std::string> variables = {"x", "y"};
  int fresh = 0;
  for (int i = 0; i < 8; ++i) {
    formulas.push_back(testing::RandomFormula(&rng, *vocab, variables,
                                              structure.universe_size(),
                                              /*depth=*/3, &fresh));
  }

  fo::AlgebraEvaluator evaluator;
  // Per-formula reference results, computed sequentially up front.
  std::vector<relational::Relation> expected;
  {
    fo::AlgebraEvaluator sequential;
    for (const fo::FormulaPtr& f : formulas) {
      expected.push_back(
          sequential.EvaluateAsRelation(f, variables, fo::EvalContext(structure)));
    }
  }
  evaluator.ClearPlanCache();

  std::atomic<bool> done{false};
  std::atomic<int> mismatches{0};
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      fo::EvalContext ctx(structure);  // compiled plans + indexes on
      for (int round = 0; round < 20; ++round) {
        // Offset start so threads collide on different formulas over time.
        const size_t i = (t + round) % formulas.size();
        relational::Relation result =
            evaluator.EvaluateAsRelation(formulas[i], variables, ctx);
        if (!(result == expected[i])) mismatches.fetch_add(1);
      }
    });
  }
  std::thread reader([&] {
    while (!done.load()) {
      fo::EvalStats snapshot = evaluator.stats();
      (void)snapshot.PlanCacheHitRate();
      (void)evaluator.plan_cache_size();
      std::this_thread::yield();
    }
  });
  for (std::thread& worker : workers) worker.join();
  done.store(true);
  reader.join();

  EXPECT_EQ(mismatches.load(), 0);
  // Indexes built concurrently must still be internally consistent.
  for (int r = 0; r < vocab->num_relations(); ++r) {
    EXPECT_TRUE(structure.relation(r).ValidateIndexes().ok());
  }
}

}  // namespace
}  // namespace dynfo
