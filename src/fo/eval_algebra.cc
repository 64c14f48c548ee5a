#include "fo/eval_algebra.h"

#include "core/cancel.h"

namespace dynfo::fo {

NamedRelation AlgebraEvaluator::Sat(const FormulaPtr& formula,
                                    const EvalContext& ctx) const {
  DYNFO_CHECK(formula != nullptr);
  if (ctx.options.use_compiled_plans) {
    return ExecutePlan(*PlanFor(formula, ctx), ctx, &stats_);
  }
  // The replan ablation: the same planner and executor, but the plan is
  // compiled on every call and never cached.
  ++stats_.planner_runs;
  const PlanPtr plan = PlanCompiler(ctx.structure->vocabulary()).Compile(formula);
  return ExecutePlan(*plan, ctx, &stats_);
}

PlanPtr AlgebraEvaluator::PlanFor(const FormulaPtr& formula,
                                  const EvalContext& ctx) const {
  const relational::Vocabulary* vocabulary = &ctx.structure->vocabulary();
  {
    std::lock_guard<std::mutex> lock(plan_mutex_);
    auto it = plan_cache_.find(formula.get());
    if (it != plan_cache_.end() && it->second.vocabulary == vocabulary) {
      ++stats_.plan_cache_hits;
      return it->second.plan;
    }
  }
  ++stats_.plan_cache_misses;
  ++stats_.planner_runs;
  PlanPtr plan = PlanCompiler(*vocabulary).Compile(formula);
  {
    std::lock_guard<std::mutex> lock(plan_mutex_);
    if (plan_cache_.size() >= kMaxCachedPlans) plan_cache_.clear();
    plan_cache_[formula.get()] = {formula, vocabulary, plan};
  }
  return plan;
}

PlanPtr AlgebraEvaluator::Precompile(const FormulaPtr& formula,
                                     const EvalContext& ctx) const {
  DYNFO_CHECK(formula != nullptr);
  return PlanFor(formula, ctx);
}

DeltaProgram AlgebraEvaluator::CompileDeltaRemovals(
    const FormulaPtr& not_keep, const std::vector<std::string>& tuple_variables,
    int base_relation_index, int base_arity, const EvalContext& ctx) const {
  if (not_keep != nullptr) ++stats_.planner_runs;
  return fo::CompileDeltaRemovals(PlanCompiler(ctx.structure->vocabulary()),
                                  not_keep, tuple_variables,
                                  base_relation_index, base_arity);
}

std::vector<relational::Tuple> AlgebraEvaluator::DeltaRemovals(
    const DeltaProgram& program, const EvalContext& ctx) const {
  return ExecuteDeltaRemovals(program, ctx, &stats_);
}

void AlgebraEvaluator::ClearPlanCache() const {
  std::lock_guard<std::mutex> lock(plan_mutex_);
  plan_cache_.clear();
}

size_t AlgebraEvaluator::plan_cache_size() const {
  std::lock_guard<std::mutex> lock(plan_mutex_);
  return plan_cache_.size();
}

bool AlgebraEvaluator::HoldsSentence(const FormulaPtr& formula,
                                     const EvalContext& ctx) const {
  DYNFO_CHECK(formula != nullptr);
  DYNFO_CHECK(formula->FreeVariables().empty())
      << "sentence expected: " << formula->ToString();
  return !Sat(formula, ctx).empty();
}

relational::Relation AlgebraEvaluator::EvaluateAsRelation(
    const FormulaPtr& formula, const std::vector<std::string>& tuple_variables,
    const EvalContext& ctx) const {
  DYNFO_CHECK(formula != nullptr);
  std::vector<std::string> free = formula->FreeVariables();
  DYNFO_CHECK(Subset(free, tuple_variables))
      << "free variables not among the tuple variables: " << formula->ToString();
  const int arity = static_cast<int>(tuple_variables.size());
  DYNFO_CHECK(arity <= relational::Tuple::kMaxArity);

  NamedRelation sat = Sat(formula, ctx);
  std::vector<std::string> missing = SetMinus(tuple_variables, sat.columns());
  if (!missing.empty()) {
    ++stats_.pads;
    sat = sat.PadWithUniverse(missing, ctx.universe_size(), ctx.governor);
  }
  sat = sat.Reorder(tuple_variables);

  relational::Relation out(arity);
  size_t polls = 0;
  for (const Row& row : sat.rows()) {
    if (core::StridedStop(ctx.governor, &polls)) break;
    relational::Tuple t;
    for (relational::Element e : row) t = t.Append(e);
    out.Insert(t);
  }
  ctx.Charge(out.size(), static_cast<size_t>(arity));
  return out;
}

}  // namespace dynfo::fo
