/// \file eval_algebra.h
/// The optimized evaluator: compiles formulas to relational algebra.
///
/// Satisfying sets are computed bottom-up as NamedRelations by executing an
/// operator tree (fo/plan.h): atoms scan stored relations (or probe their
/// persistent indexes), conjunctions run a greedily planned pipeline —
/// filters first, then the cheapest generator: hash or index joins on
/// shared variables, constant-time equality extensions, filtered
/// extensions — disjunctions pad-and-union, quantifiers project (exists)
/// or group-count (forall). Negations become anti-semi-joins inside
/// conjunctions and complements only as a last resort.
///
/// By default (EvalOptions::use_compiled_plans) the planning happens once
/// per formula: Sat compiles the formula, caches the plan keyed by formula
/// identity, and replays it on every later call — the hot Apply path does
/// zero per-update planning. With the gate off, Sat compiles a fresh plan
/// on every call and caches nothing: the "replan" ablation, which keeps
/// the executor fixed and charges the planner to every evaluation.
///
/// The evaluator is observationally equivalent to NaiveEvaluator (enforced
/// by property tests) but asymptotically faster on the paper's update
/// formulas, whose bounded "request locality" the planner exploits: atoms
/// like Eq(u, v, a, b) pin quantified variables to the request parameters.

#ifndef DYNFO_FO_EVAL_ALGEBRA_H_
#define DYNFO_FO_EVAL_ALGEBRA_H_

#include <cstdint>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "fo/eval_context.h"
#include "fo/eval_stats.h"
#include "fo/formula.h"
#include "fo/named_relation.h"
#include "fo/plan.h"
#include "relational/relation.h"

namespace dynfo::fo {

class AlgebraEvaluator {
 public:
  /// Work counters, exposed for the evaluator-ablation benchmark (see
  /// fo/eval_stats.h; shared with the compiled-plan executor).
  using Stats = EvalStats;

  AlgebraEvaluator() = default;
  /// Copying snapshots the counters and drops the plan cache (plans are
  /// recompiled lazily); keeps Engine copyable despite the cache mutex.
  AlgebraEvaluator(const AlgebraEvaluator& other) : stats_(other.stats_) {}
  AlgebraEvaluator& operator=(const AlgebraEvaluator& other) {
    if (this != &other) {
      stats_ = other.stats_;
      ClearPlanCache();
    }
    return *this;
  }

  /// The satisfying set of `formula`: one row per assignment of its free
  /// variables (columns == free variables, order unspecified) that makes the
  /// formula true. Parameters/constants are resolved through `ctx`.
  NamedRelation Sat(const FormulaPtr& formula, const EvalContext& ctx) const;

  /// Compiles (or fetches) the cached plan for `formula` without executing
  /// it, so callers can pay compilation at load time and register the plan's
  /// indexes (RegisterPlanIndexes) before the first update arrives.
  PlanPtr Precompile(const FormulaPtr& formula, const EvalContext& ctx) const;

  /// Drops every cached plan. Call when formulas may be recompiled against a
  /// different vocabulary or when the program is reloaded/restored.
  void ClearPlanCache() const;
  size_t plan_cache_size() const;

  /// Truth of a sentence (no free variables).
  bool HoldsSentence(const FormulaPtr& formula, const EvalContext& ctx) const;

  /// Materializes { x-bar : formula(x-bar) } with x-bar = `tuple_variables`
  /// in order; same contract as NaiveEvaluator::EvaluateAsRelation.
  relational::Relation EvaluateAsRelation(const FormulaPtr& formula,
                                          const std::vector<std::string>& tuple_variables,
                                          const EvalContext& ctx) const;

  /// Compiles the removal side of delta rule R' = (R ∧ keep) ∨ additions
  /// (see fo/plan.h, DeltaProgram). `not_keep` is ¬keep in NNF, or null when
  /// keep ≡ true. Counted as a planner run; the caller owns the result, so
  /// no cache entry is created.
  DeltaProgram CompileDeltaRemovals(const FormulaPtr& not_keep,
                                    const std::vector<std::string>& tuple_variables,
                                    int base_relation_index, int base_arity,
                                    const EvalContext& ctx) const;

  /// Runs a bounded removal program (ExecuteDeltaRemovals) with this
  /// evaluator's shared counters.
  std::vector<relational::Tuple> DeltaRemovals(const DeltaProgram& program,
                                               const EvalContext& ctx) const;

  /// A snapshot of the counters. (Internally they are atomics so that one
  /// evaluator may serve concurrent readers; see fo/eval_stats.h.)
  Stats stats() const { return stats_.Snapshot(); }
  void ResetStats() { stats_.Reset(); }

  /// The live atomic counters, for executors that run outside this
  /// evaluator's call tree but account into the same budget (the engine's
  /// dense kernel path).
  AtomicEvalStats* live_stats() const { return &stats_; }

 private:
  /// Cache lookup/compile for the compiled path. A cache entry pins the
  /// FormulaPtr (so the pointer key cannot be reused by a new formula) and
  /// remembers the vocabulary it was compiled against; a vocabulary mismatch
  /// recompiles in place.
  PlanPtr PlanFor(const FormulaPtr& formula, const EvalContext& ctx) const;

  struct PlanCacheEntry {
    FormulaPtr formula;  ///< pins the key pointer for the entry's lifetime
    const relational::Vocabulary* vocabulary = nullptr;
    PlanPtr plan;
  };

  /// Counters are relaxed atomics: the evaluator is logically const and may
  /// run on several threads at once (EngineService's shared read
  /// evaluator). See fo/eval_stats.h.
  mutable AtomicEvalStats stats_;

  /// Compiled plans keyed by formula identity (formulas are immutable and
  /// shared). Guarded by plan_mutex_; compilation happens outside the lock,
  /// so a racing first call may compile twice — both results are identical
  /// and one wins. Bounded: the cache clears wholesale if it ever exceeds
  /// kMaxCachedPlans (a program has a fixed set of formulas, so this only
  /// trips for pathological callers streaming fresh formulas).
  static constexpr size_t kMaxCachedPlans = 4096;
  mutable std::mutex plan_mutex_;
  mutable std::unordered_map<const Formula*, PlanCacheEntry> plan_cache_;
};

}  // namespace dynfo::fo

#endif  // DYNFO_FO_EVAL_ALGEBRA_H_
