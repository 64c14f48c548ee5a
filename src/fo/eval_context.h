/// \file eval_context.h
/// Shared evaluation context: the structure under evaluation plus the
/// request-parameter binding, and variable environments.

#ifndef DYNFO_FO_EVAL_CONTEXT_H_
#define DYNFO_FO_EVAL_CONTEXT_H_

#include <optional>
#include <string>
#include <vector>

#include "core/cancel.h"
#include "fo/term.h"
#include "relational/structure.h"

namespace dynfo::fo {

/// Plan and index gates for set-based evaluation. Every evaluation runs on
/// the calling thread.
struct EvalOptions {
  /// Compile formulas to reusable operator-tree plans once and execute the
  /// cached plan thereafter (see fo/plan.h), instead of re-running the greedy
  /// planner on every evaluation. Observationally equivalent; ablate with
  /// bench_evaluators.
  bool use_compiled_plans = true;
  /// Let plan atom joins probe persistent per-column-subset indexes on the
  /// stored relations (see relational/index.h) instead of rebuilding a
  /// hash build side per join.
  bool use_indexes = true;
};

/// What a formula is evaluated against: a structure (universe, relations,
/// constants) and the values of the request parameters $0, $1, ...
struct EvalContext {
  const relational::Structure* structure = nullptr;
  std::vector<relational::Element> parameters;
  EvalOptions options;
  /// Resource-governance authority for this evaluation (core/cancel.h).
  /// Null = ungoverned: ShouldStop()/Charge() reduce to one pointer compare,
  /// keeping the default hot path overhead-free.
  const core::ExecGovernor* governor = nullptr;

  explicit EvalContext(const relational::Structure& s,
                       std::vector<relational::Element> params = {},
                       EvalOptions opts = {})
      : structure(&s), parameters(std::move(params)), options(opts) {}

  size_t universe_size() const { return structure->universe_size(); }

  /// Polls the governor; true = abort the current operator and return a
  /// partial (to-be-discarded) result. Evaluator loops call this every
  /// core::kGovernorStride rows and at operator entry.
  bool ShouldStop() const { return core::GovernorStop(governor); }

  /// Charges `rows` materialized rows of width `width` against the budget.
  /// False = budget breached (the governor is now tripped); bail out.
  bool Charge(size_t rows, size_t width) const {
    if (governor == nullptr) return true;
    // Estimated footprint: elements plus per-row container overhead.
    return governor->ChargeRows(rows, width * sizeof(relational::Element) + 16);
  }
};

/// A stack-shaped variable environment (push on quantifier entry, pop on
/// exit). Lookups scan from the top so shadowing works naturally.
class Env {
 public:
  void Push(const std::string& name, relational::Element value) {
    bindings_.emplace_back(name, value);
  }
  void Pop() { bindings_.pop_back(); }
  void Set(relational::Element value) { bindings_.back().second = value; }

  std::optional<relational::Element> Lookup(const std::string& name) const {
    for (auto it = bindings_.rbegin(); it != bindings_.rend(); ++it) {
      if (it->first == name) return it->second;
    }
    return std::nullopt;
  }

  size_t size() const { return bindings_.size(); }

 private:
  std::vector<std::pair<std::string, relational::Element>> bindings_;
};

/// Evaluates a term. CHECK-fails on unbound variables or missing parameters.
relational::Element EvalTerm(const Term& term, const EvalContext& ctx, const Env& env);

/// Evaluates a term that contains no variables; nullopt if it is a variable.
std::optional<relational::Element> GroundTerm(const Term& term, const EvalContext& ctx);

}  // namespace dynfo::fo

#endif  // DYNFO_FO_EVAL_CONTEXT_H_
