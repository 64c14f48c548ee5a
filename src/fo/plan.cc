#include "fo/plan.h"

#include <algorithm>
#include <limits>
#include <optional>

#include "core/check.h"

namespace dynfo::fo {

bool IsQuantifierFree(const Formula& f) {
  if (f.kind() == FormulaKind::kExists || f.kind() == FormulaKind::kForall) return false;
  for (const FormulaPtr& child : f.children()) {
    if (!IsQuantifierFree(*child)) return false;
  }
  return true;
}

bool Subset(const std::vector<std::string>& small, const std::vector<std::string>& big) {
  for (const std::string& s : small) {
    if (std::find(big.begin(), big.end(), s) == big.end()) return false;
  }
  return true;
}

std::vector<std::string> SetMinus(const std::vector<std::string>& a,
                                  const std::vector<std::string>& b) {
  std::vector<std::string> out;
  for (const std::string& s : a) {
    if (std::find(b.begin(), b.end(), s) == b.end()) out.push_back(s);
  }
  return out;
}

namespace {

int IndexOf(const std::vector<std::string>& names, const std::string& name) {
  for (size_t i = 0; i < names.size(); ++i) {
    if (names[i] == name) return static_cast<int>(i);
  }
  return -1;
}

}  // namespace

std::vector<int> AtomAccess::KeyPositions() const {
  std::vector<int> out;
  out.reserve(key.size());
  for (const KeyPart& part : key) out.push_back(part.position);
  return out;
}

PlanPtr PlanCompiler::Compile(const FormulaPtr& formula) const {
  DYNFO_CHECK(formula != nullptr);
  return CompileNode(*formula);
}

PlanPtr PlanCompiler::CompileNode(const Formula& f) const {
  switch (f.kind()) {
    case FormulaKind::kTrue: {
      auto plan = std::make_shared<Plan>();
      plan->kind = PlanKind::kUnit;
      return plan;
    }
    case FormulaKind::kFalse: {
      auto plan = std::make_shared<Plan>();
      plan->kind = PlanKind::kEmpty;
      return plan;
    }
    case FormulaKind::kAtom:
      return CompileAtomScan(f);
    case FormulaKind::kEq:
    case FormulaKind::kLe:
    case FormulaKind::kBit:
      return CompileNumeric(f);
    case FormulaKind::kNot: {
      auto plan = std::make_shared<Plan>();
      plan->kind = PlanKind::kComplement;
      plan->children.push_back(CompileNode(*f.children()[0]));
      plan->columns = plan->children[0]->columns;
      return plan;
    }
    case FormulaKind::kAnd:
      return CompileAnd(f);
    case FormulaKind::kOr:
      return CompileOr(f);
    case FormulaKind::kExists:
      return CompileExists(f);
    case FormulaKind::kForall:
      return CompileForall(f);
  }
  DYNFO_UNREACHABLE();
}

AtomAccess PlanCompiler::CompileAtom(const Formula& f,
                                     const std::vector<std::string>& bound) const {
  AtomAccess access;
  access.relation_name = f.relation();
  access.relation_index = vocabulary_.RelationIndex(f.relation());
  DYNFO_CHECK(access.relation_index >= 0)
      << "unknown relation in atom: " << f.relation();
  const std::vector<Term>& args = f.args();
  access.arity = static_cast<int>(args.size());
  for (int pos = 0; pos < static_cast<int>(args.size()); ++pos) {
    const Term& t = args[pos];
    if (!t.is_variable()) {
      // Ground term (constant symbol, parameter, min/max, literal): value
      // resolved per execution, position known now.
      access.key.push_back({pos, -1, t});
      continue;
    }
    int column = IndexOf(bound, t.name());
    if (column >= 0) {
      access.key.push_back({pos, column, Term::Min()});
      continue;
    }
    int first = IndexOf(access.new_columns, t.name());
    if (first >= 0) {
      access.dup_checks.push_back({pos, access.extend_positions[first]});
    } else {
      access.new_columns.push_back(t.name());
      access.extend_positions.push_back(pos);
    }
  }
  return access;
}

PlanPtr PlanCompiler::CompileAtomScan(const Formula& f) const {
  auto plan = std::make_shared<Plan>();
  plan->kind = PlanKind::kAtomScan;
  plan->atom = CompileAtom(f, /*bound=*/{});
  plan->columns = plan->atom.new_columns;
  return plan;
}

PlanPtr PlanCompiler::CompileNumeric(const Formula& f) const {
  auto plan = std::make_shared<Plan>();
  plan->kind = PlanKind::kNumeric;
  plan->numeric_kind = f.kind();
  plan->left = f.left();
  plan->right = f.right();
  // Variable-ness is static, so the output schema is too.
  const bool lv = f.left().is_variable();
  const bool rv = f.right().is_variable();
  if (lv && rv) {
    if (f.left().name() == f.right().name()) {
      plan->columns = {f.left().name()};
    } else {
      plan->columns = {f.left().name(), f.right().name()};
    }
  } else if (lv) {
    plan->columns = {f.left().name()};
  } else if (rv) {
    plan->columns = {f.right().name()};
  }
  return plan;
}

PlanPtr PlanCompiler::CompileAnd(const Formula& f) const {
  // The greedy conjunction planner, run against a *simulated* accumulator
  // schema. Costs are static heuristics: the operator-class ordering
  // (equality extension < atom join < filtered extension < full-Sat join)
  // decides first; among atoms, ones with more key parts and fewer fresh
  // variables are preferred, standing in for "smaller build side".
  const std::vector<std::string> target_columns = f.FreeVariables();
  std::vector<FormulaPtr> pending = f.children();
  std::vector<std::vector<std::string>> free;
  free.reserve(pending.size());
  for (const FormulaPtr& c : pending) free.push_back(c->FreeVariables());

  std::vector<std::string> bound;  // simulated accumulator schema
  std::vector<ConjStep> steps;

  auto erase_at = [&](size_t i) {
    pending.erase(pending.begin() + static_cast<ptrdiff_t>(i));
    free.erase(free.begin() + static_cast<ptrdiff_t>(i));
  };

  while (!pending.empty()) {
    // Phase 1: conjuncts whose variables are all bound act as filters.
    bool progressed = false;
    for (size_t i = 0; i < pending.size(); ++i) {
      if (!Subset(free[i], bound)) continue;
      const FormulaPtr& c = pending[i];
      ConjStep step;
      step.columns_before = bound;
      if (IsQuantifierFree(*c) || c->kind() == FormulaKind::kForall) {
        step.kind = ConjStepKind::kFilterRows;
        step.formula = c;
      } else if (c->kind() == FormulaKind::kNot) {
        step.kind = ConjStepKind::kSemiJoin;
        step.anti = true;
        step.child = CompileNode(*c->children()[0]);
      } else {
        step.kind = ConjStepKind::kSemiJoin;
        step.child = CompileNode(*c);
      }
      steps.push_back(std::move(step));
      erase_at(i);
      progressed = true;
      break;
    }
    if (progressed) continue;

    // Phase 2: choose the cheapest generator for some unbound variable(s).
    constexpr uint64_t kInf = std::numeric_limits<uint64_t>::max();
    constexpr uint64_t kCostEqExtend = 1;
    constexpr uint64_t kCostAtomBase = 1000;
    constexpr uint64_t kCostUnionExtend = 100 * 1000;
    constexpr uint64_t kCostFilterExtend = 1000 * 1000;
    enum class Choice {
      kNone, kEqExtend, kAtomJoin, kUnionExtend, kFilterExtend, kSatJoin
    };

    // True when disjunct `d` can feed a kUnionExtend step for `var`: a
    // relation atom whose only fresh variable is `var`, or an equality
    // pinning `var` to a bound variable or ground term. Either way the
    // branch yields candidate values without ranging over the universe.
    auto union_branch_ok = [&](const Formula& d, const std::string& var) {
      if (d.kind() == FormulaKind::kAtom) {
        bool contains_var = false;
        for (const Term& t : d.args()) {
          if (!t.is_variable()) continue;
          if (t.name() == var) {
            contains_var = true;
          } else if (IndexOf(bound, t.name()) < 0) {
            return false;  // a second fresh variable
          }
        }
        return contains_var;
      }
      if (d.kind() == FormulaKind::kEq) {
        const Term& l = d.left();
        const Term& r = d.right();
        const bool left_is_var = l.is_variable() && l.name() == var;
        const bool right_is_var = r.is_variable() && r.name() == var;
        if (left_is_var == right_is_var) return false;  // neither, or var = var
        const Term& other = left_is_var ? r : l;
        return !other.is_variable() || IndexOf(bound, other.name()) >= 0;
      }
      return false;
    };
    Choice best_choice = Choice::kNone;
    size_t best_index = 0;
    uint64_t best_cost = kInf;

    for (size_t i = 0; i < pending.size(); ++i) {
      const FormulaPtr& c = pending[i];
      std::vector<std::string> unbound = SetMinus(free[i], bound);
      uint64_t cost = kInf;
      Choice choice = Choice::kNone;
      if (c->kind() == FormulaKind::kEq && unbound.size() == 1) {
        const Term& l = c->left();
        const Term& r = c->right();
        bool left_is_unbound = l.is_variable() && l.name() == unbound[0];
        const Term& other = left_is_unbound ? r : l;
        if (!other.is_variable() || other.name() != unbound[0]) {
          choice = Choice::kEqExtend;
          cost = kCostEqExtend;
        }
      }
      if (choice == Choice::kNone && c->kind() == FormulaKind::kAtom) {
        choice = Choice::kAtomJoin;
        // Selectivity proxy: each key part narrows the probe, each fresh
        // variable widens the fan-out.
        const size_t fresh = unbound.size();
        size_t keyed = 0;
        for (const Term& t : c->args()) {
          if (!t.is_variable() || IndexOf(bound, t.name()) >= 0) ++keyed;
        }
        cost = kCostAtomBase + 100 * fresh - 10 * keyed;
      }
      if (choice == Choice::kNone && c->kind() == FormulaKind::kOr &&
          unbound.size() == 1) {
        bool all_branches_ok = true;
        for (const FormulaPtr& d : c->children()) {
          if (!union_branch_ok(*d, unbound[0])) {
            all_branches_ok = false;
            break;
          }
        }
        if (all_branches_ok) {
          choice = Choice::kUnionExtend;
          cost = kCostUnionExtend;
        }
      }
      if (choice == Choice::kNone && unbound.size() == 1 && IsQuantifierFree(*c)) {
        choice = Choice::kFilterExtend;
        cost = kCostFilterExtend;
      }
      if (choice == Choice::kNone) {
        choice = Choice::kSatJoin;
        cost = kInf - 1;  // last resort, but always applicable
      }
      if (cost < best_cost) {
        best_cost = cost;
        best_choice = choice;
        best_index = i;
      }
    }

    DYNFO_CHECK(best_choice != Choice::kNone);
    const FormulaPtr c = pending[best_index];
    std::vector<std::string> unbound = SetMinus(free[best_index], bound);
    ConjStep step;
    step.columns_before = bound;
    switch (best_choice) {
      case Choice::kEqExtend: {
        const Term& l = c->left();
        const Term& r = c->right();
        bool left_is_unbound = l.is_variable() && l.name() == unbound[0];
        const Term& other = left_is_unbound ? r : l;
        step.kind = ConjStepKind::kEqExtend;
        step.var = unbound[0];
        if (other.is_variable()) {
          step.eq_from_column = true;
          step.eq_source_column = IndexOf(bound, other.name());
          DYNFO_CHECK(step.eq_source_column >= 0);
        } else {
          step.eq_term = other;
        }
        bound.push_back(unbound[0]);
        break;
      }
      case Choice::kAtomJoin: {
        step.kind = ConjStepKind::kIndexJoin;
        step.probe = CompileAtom(*c, bound);
        step.scan = CompileAtom(*c, /*bound=*/{});
        for (const std::string& name : step.probe.new_columns) bound.push_back(name);
        break;
      }
      case Choice::kUnionExtend: {
        step.kind = ConjStepKind::kUnionExtend;
        step.var = unbound[0];
        step.formula = c;  // the index-less fallback filters with this
        for (const FormulaPtr& d : c->children()) {
          ExtendBranch branch;
          if (d->kind() == FormulaKind::kAtom) {
            branch.is_atom = true;
            branch.atom = CompileAtom(*d, bound);
            DYNFO_CHECK(branch.atom.new_columns ==
                        std::vector<std::string>{unbound[0]});
          } else {
            const Term& l = d->left();
            const bool left_is_var = l.is_variable() && l.name() == unbound[0];
            const Term& other = left_is_var ? d->right() : d->left();
            if (other.is_variable()) {
              branch.eq_from_column = true;
              branch.eq_source_column = IndexOf(bound, other.name());
              DYNFO_CHECK(branch.eq_source_column >= 0);
            } else {
              branch.eq_term = other;
            }
          }
          step.union_branches.push_back(std::move(branch));
        }
        bound.push_back(unbound[0]);
        break;
      }
      case Choice::kFilterExtend: {
        step.kind = ConjStepKind::kFilterExtend;
        step.var = unbound[0];
        step.formula = c;
        bound.push_back(unbound[0]);
        break;
      }
      case Choice::kSatJoin: {
        step.kind = ConjStepKind::kSatJoin;
        step.child = CompileNode(*c);
        // Natural join appends the child's non-shared columns in its order.
        for (const std::string& name : SetMinus(step.child->columns, bound)) {
          bound.push_back(name);
        }
        break;
      }
      case Choice::kNone:
        DYNFO_UNREACHABLE();
    }
    steps.push_back(std::move(step));
    erase_at(best_index);
  }

  // Invariant: processing every conjunct binds every free variable.
  DYNFO_CHECK(bound.size() == target_columns.size());
  auto plan = std::make_shared<Plan>();
  plan->kind = PlanKind::kConjunction;
  plan->columns = std::move(bound);
  plan->steps = std::move(steps);
  return plan;
}

PlanPtr PlanCompiler::CompileOr(const Formula& f) const {
  auto plan = std::make_shared<Plan>();
  plan->kind = PlanKind::kUnion;
  plan->columns = f.FreeVariables();
  for (const FormulaPtr& child : f.children()) {
    PlanPtr sub = CompileNode(*child);
    std::vector<int> sources;
    sources.reserve(plan->columns.size());
    int pads = 0;
    for (const std::string& name : plan->columns) {
      int column = IndexOf(sub->columns, name);
      if (column >= 0) {
        sources.push_back(column);
      } else {
        sources.push_back(-(pads + 1));
        ++pads;
      }
    }
    plan->children.push_back(std::move(sub));
    plan->union_sources.push_back(std::move(sources));
    plan->union_pad_counts.push_back(pads);
  }
  return plan;
}

PlanPtr PlanCompiler::CompileExists(const Formula& f) const {
  PlanPtr child = CompileNode(*f.children()[0]);
  auto plan = std::make_shared<Plan>();
  plan->kind = PlanKind::kProject;
  plan->columns = SetMinus(child->columns, f.variables());
  plan->project_positions.reserve(plan->columns.size());
  for (const std::string& name : plan->columns) {
    plan->project_positions.push_back(IndexOf(child->columns, name));
  }
  plan->children.push_back(std::move(child));
  return plan;
}

PlanPtr PlanCompiler::CompileForall(const Formula& f) const {
  PlanPtr child = CompileNode(*f.children()[0]);
  // Quantified variables actually occurring free in the body.
  std::vector<std::string> quantified;
  for (const std::string& v : f.variables()) {
    if (IndexOf(child->columns, v) >= 0) quantified.push_back(v);
  }
  if (quantified.empty()) return child;  // forall over absent variables is a no-op

  auto plan = std::make_shared<Plan>();
  plan->kind = PlanKind::kForallGroup;
  plan->columns = SetMinus(child->columns, quantified);
  plan->keep_positions.reserve(plan->columns.size());
  for (const std::string& name : plan->columns) {
    plan->keep_positions.push_back(IndexOf(child->columns, name));
  }
  plan->group_arity = static_cast<int>(quantified.size());
  plan->children.push_back(std::move(child));
  return plan;
}

bool PlanIsDeltaBounded(const Plan& plan) {
  switch (plan.kind) {
    case PlanKind::kUnit:
    case PlanKind::kEmpty:
    case PlanKind::kAtomScan:  // rows come from a stored relation
      return true;
    case PlanKind::kNumeric:
      // Ground comparisons are constant; a variable side ranges over the
      // whole universe.
      return plan.columns.empty();
    case PlanKind::kComplement:
      return false;
    case PlanKind::kConjunction:
      for (const ConjStep& step : plan.steps) {
        switch (step.kind) {
          case ConjStepKind::kFilterRows:
          case ConjStepKind::kEqExtend:
          case ConjStepKind::kIndexJoin:
          // Every kUnionExtend branch draws values from a stored relation or
          // a bound term, never the universe.
          case ConjStepKind::kUnionExtend:
            break;
          case ConjStepKind::kSemiJoin:
          case ConjStepKind::kSatJoin:
            if (!PlanIsDeltaBounded(*step.child)) return false;
            break;
          case ConjStepKind::kFilterExtend:
            return false;
        }
      }
      return true;
    case PlanKind::kUnion:
      for (int pads : plan.union_pad_counts) {
        if (pads > 0) return false;
      }
      for (const PlanPtr& child : plan.children) {
        if (!PlanIsDeltaBounded(*child)) return false;
      }
      return true;
    case PlanKind::kProject:
    case PlanKind::kForallGroup:
      return PlanIsDeltaBounded(*plan.children[0]);
  }
  DYNFO_UNREACHABLE();
}

DeltaProgram CompileDeltaRemovals(const PlanCompiler& compiler,
                                  const FormulaPtr& not_keep,
                                  const std::vector<std::string>& tuple_variables,
                                  int base_relation_index, int base_arity) {
  DYNFO_CHECK(static_cast<int>(tuple_variables.size()) == base_arity);
  DeltaProgram program;
  program.base_relation_index = base_relation_index;
  program.base_arity = base_arity;
  if (not_keep == nullptr) {
    program.bounded = true;  // keep ≡ true: the removal side is empty
    return program;
  }
  program.remove_plan = compiler.Compile(not_keep);
  if (!PlanIsDeltaBounded(*program.remove_plan)) return program;

  // Map each plan column to the base position its tuple variable names.
  std::vector<std::pair<int, int>> position_column;  // (base position, column)
  const std::vector<std::string>& columns = program.remove_plan->columns;
  for (size_t c = 0; c < columns.size(); ++c) {
    const int position = IndexOf(tuple_variables, columns[c]);
    if (position < 0) return program;  // a free variable outside the tuple
    position_column.push_back({position, static_cast<int>(c)});
  }
  std::sort(position_column.begin(), position_column.end());
  for (const auto& [position, column] : position_column) {
    program.key_positions.push_back(position);
    program.key_source_columns.push_back(column);
  }
  if (position_column.size() == tuple_variables.size()) {
    program.covers_all_positions = true;
    program.full_tuple_sources.assign(tuple_variables.size(), -1);
    for (const auto& [position, column] : position_column) {
      program.full_tuple_sources[static_cast<size_t>(position)] = column;
    }
  }
  program.bounded = true;
  return program;
}

void RegisterPlanIndexes(const Plan& plan, const relational::Structure& structure,
                         AtomicEvalStats* stats) {
  auto ensure = [&](const AtomAccess& access) {
    if (access.key.empty()) return;
    bool built = false;
    structure.relation(access.relation_index).EnsureIndex(access.KeyPositions(), &built);
    if (built && stats != nullptr) {
      stats->index_builds.fetch_add(1, std::memory_order_relaxed);
    }
  };
  if (plan.kind == PlanKind::kAtomScan) ensure(plan.atom);
  for (const ConjStep& step : plan.steps) {
    // `step.scan` is only exercised with indexes disabled, so only the probe
    // access registers an index.
    if (step.kind == ConjStepKind::kIndexJoin) ensure(step.probe);
    if (step.kind == ConjStepKind::kUnionExtend) {
      for (const ExtendBranch& branch : step.union_branches) {
        if (branch.is_atom) ensure(branch.atom);
      }
    }
    if (step.child != nullptr) RegisterPlanIndexes(*step.child, structure, stats);
  }
  for (const PlanPtr& child : plan.children) {
    RegisterPlanIndexes(*child, structure, stats);
  }
}

void RegisterDeltaProgramIndexes(const DeltaProgram& program,
                                 const relational::Structure& structure,
                                 AtomicEvalStats* stats) {
  if (!program.bounded || program.remove_plan == nullptr) return;
  RegisterPlanIndexes(*program.remove_plan, structure, stats);
  if (program.covers_all_positions || program.key_positions.empty()) return;
  bool built = false;
  structure.relation(program.base_relation_index)
      .EnsureIndex(program.key_positions, &built);
  if (built && stats != nullptr) {
    stats->index_builds.fetch_add(1, std::memory_order_relaxed);
  }
}

// ---------------------------------------------------------------------------
// Dense kernel lowering (see plan.h). The lowerer walks the formula with a
// slot *stack*: the free slots first, quantified variables pushed on top (so
// the quantified variable is always the highest slot, which is what the
// row-wise reductions in plan_exec.cc expect). Any refusal makes the whole
// lowering fail — there are no partially dense programs.

namespace {

class DenseLowerer {
 public:
  explicit DenseLowerer(const relational::Vocabulary& vocabulary)
      : vocabulary_(vocabulary) {}

  DenseOpPtr Lower(const Formula& f, std::vector<std::string>* slots) {
    const int rank = static_cast<int>(slots->size());
    if (rank > 2) return nullptr;
    auto op = std::make_shared<DenseOp>();
    op->rank = rank;
    switch (f.kind()) {
      case FormulaKind::kTrue:
      case FormulaKind::kFalse:
        op->kind = DenseOpKind::kConst;
        op->const_value = f.kind() == FormulaKind::kTrue;
        return op;
      case FormulaKind::kAtom: {
        op->kind = DenseOpKind::kAtom;
        op->relation_index = vocabulary_.RelationIndex(f.relation());
        if (op->relation_index < 0) return nullptr;
        op->relation_arity = vocabulary_.relation(op->relation_index).arity;
        bool has_slot_arg = false;
        for (const Term& arg : f.args()) {
          std::optional<DenseTerm> lowered = LowerTerm(arg, *slots);
          if (!lowered.has_value()) return nullptr;
          has_slot_arg |= lowered->kind == DenseTerm::Kind::kSlot;
          op->args.push_back(*lowered);
        }
        if (has_slot_arg) {
          // Slot-dependent atoms read packed words, so the relation must be
          // dense-representable; ground-only atoms stay scalar probes and
          // work against any backend and arity.
          if (op->relation_arity > relational::DenseSet::kMaxDenseArity) {
            return nullptr;
          }
          view_relations_.push_back(op->relation_index);
        }
        return op;
      }
      case FormulaKind::kEq:
      case FormulaKind::kLe:
      case FormulaKind::kBit: {
        op->kind = DenseOpKind::kNumeric;
        op->numeric_kind = f.kind();
        std::optional<DenseTerm> left = LowerTerm(f.left(), *slots);
        std::optional<DenseTerm> right = LowerTerm(f.right(), *slots);
        if (!left.has_value() || !right.has_value()) return nullptr;
        op->left = *left;
        op->right = *right;
        return op;
      }
      case FormulaKind::kNot: {
        op->kind = DenseOpKind::kNot;
        DenseOpPtr child = Lower(*f.children()[0], slots);
        if (child == nullptr) return nullptr;
        op->children.push_back(std::move(child));
        return op;
      }
      case FormulaKind::kAnd:
      case FormulaKind::kOr: {
        op->kind = f.kind() == FormulaKind::kAnd ? DenseOpKind::kAnd
                                                 : DenseOpKind::kOr;
        for (const FormulaPtr& child_formula : f.children()) {
          DenseOpPtr child = Lower(*child_formula, slots);
          if (child == nullptr) return nullptr;
          op->children.push_back(std::move(child));
        }
        return op;
      }
      case FormulaKind::kExists:
      case FormulaKind::kForall: {
        op->kind = f.kind() == FormulaKind::kExists ? DenseOpKind::kExists
                                                    : DenseOpKind::kForall;
        op->quantified = static_cast<int>(f.variables().size());
        if (rank + op->quantified > 2) return nullptr;
        for (const std::string& v : f.variables()) slots->push_back(v);
        DenseOpPtr child = Lower(*f.children()[0], slots);
        slots->resize(static_cast<size_t>(rank));
        if (child == nullptr) return nullptr;
        op->children.push_back(std::move(child));
        return op;
      }
    }
    return nullptr;
  }

  std::vector<int> TakeViewRelations() {
    std::sort(view_relations_.begin(), view_relations_.end());
    view_relations_.erase(
        std::unique(view_relations_.begin(), view_relations_.end()),
        view_relations_.end());
    return std::move(view_relations_);
  }

 private:
  std::optional<DenseTerm> LowerTerm(const Term& term,
                                     const std::vector<std::string>& slots) {
    DenseTerm out;
    switch (term.kind()) {
      case TermKind::kVariable: {
        // Innermost binding wins, mirroring Env shadowing.
        for (int i = static_cast<int>(slots.size()) - 1; i >= 0; --i) {
          if (slots[static_cast<size_t>(i)] == term.name()) {
            out.kind = DenseTerm::Kind::kSlot;
            out.index = i;
            return out;
          }
        }
        return std::nullopt;
      }
      case TermKind::kConstantSymbol: {
        const int index = vocabulary_.ConstantIndex(term.name());
        if (index < 0) return std::nullopt;
        out.kind = DenseTerm::Kind::kConstant;
        out.index = index;
        return out;
      }
      case TermKind::kParameter:
        out.kind = DenseTerm::Kind::kParam;
        out.index = term.index();
        return out;
      case TermKind::kMin:
        out.kind = DenseTerm::Kind::kLiteral;
        out.value = 0;
        return out;
      case TermKind::kMax:
        out.kind = DenseTerm::Kind::kMax;
        return out;
      case TermKind::kNumber:
        out.kind = DenseTerm::Kind::kLiteral;
        out.value = term.value();
        return out;
    }
    return std::nullopt;
  }

  const relational::Vocabulary& vocabulary_;
  std::vector<int> view_relations_;
};

}  // namespace

DenseProgramPtr LowerToDense(const FormulaPtr& formula,
                             const std::vector<std::string>& slots,
                             const relational::Vocabulary& vocabulary) {
  if (formula == nullptr || slots.size() > 2) return nullptr;
  DenseLowerer lowerer(vocabulary);
  std::vector<std::string> scope = slots;
  DenseOpPtr root = lowerer.Lower(*formula, &scope);
  if (root == nullptr) return nullptr;
  auto program = std::make_shared<DenseProgram>();
  program->rank = static_cast<int>(slots.size());
  program->root = std::move(root);
  program->view_relations = lowerer.TakeViewRelations();
  return program;
}

}  // namespace dynfo::fo
