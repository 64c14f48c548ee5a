#include "fo/formula.h"

#include <algorithm>
#include <climits>

namespace dynfo::fo {

// Factories build a node via the private constructor and fill its fields
// before publishing the shared_ptr; no node is mutated after a factory
// returns, so sharing subtrees is safe.

Formula::Formula(FormulaKind kind, std::vector<FormulaPtr> children)
    : kind_(kind), children_(std::move(children)) {
  for (const FormulaPtr& child : children_) {
    size_ = static_cast<int>(
        std::min<int64_t>(int64_t{size_} + child->Size(), INT_MAX));
  }
}

FormulaPtr Formula::True() {
  static const FormulaPtr kTrue = [] {
    auto f = std::shared_ptr<Formula>(new Formula(FormulaKind::kTrue));
    return FormulaPtr(f);
  }();
  return kTrue;
}

FormulaPtr Formula::False() {
  static const FormulaPtr kFalse = [] {
    auto f = std::shared_ptr<Formula>(new Formula(FormulaKind::kFalse));
    return FormulaPtr(f);
  }();
  return kFalse;
}

FormulaPtr Formula::Atom(std::string relation, std::vector<Term> args) {
  DYNFO_CHECK(!relation.empty());
  DYNFO_CHECK(args.size() <= relational::Tuple::kMaxArity)
      << "atom arity above Tuple::kMaxArity";
  auto f = std::shared_ptr<Formula>(new Formula(FormulaKind::kAtom));
  f->relation_ = std::move(relation);
  f->terms_ = std::move(args);
  return f;
}

FormulaPtr Formula::Eq(Term left, Term right) {
  auto f = std::shared_ptr<Formula>(new Formula(FormulaKind::kEq));
  f->terms_ = {std::move(left), std::move(right)};
  return f;
}

FormulaPtr Formula::Le(Term left, Term right) {
  auto f = std::shared_ptr<Formula>(new Formula(FormulaKind::kLe));
  f->terms_ = {std::move(left), std::move(right)};
  return f;
}

FormulaPtr Formula::Bit(Term left, Term right) {
  auto f = std::shared_ptr<Formula>(new Formula(FormulaKind::kBit));
  f->terms_ = {std::move(left), std::move(right)};
  return f;
}

FormulaPtr Formula::Not(FormulaPtr operand) {
  DYNFO_CHECK(operand != nullptr);
  if (operand->kind() == FormulaKind::kTrue) return False();
  if (operand->kind() == FormulaKind::kFalse) return True();
  return FormulaPtr(new Formula(FormulaKind::kNot, {std::move(operand)}));
}

FormulaPtr Formula::And(std::vector<FormulaPtr> operands) {
  std::vector<FormulaPtr> flat;
  for (FormulaPtr& op : operands) {
    DYNFO_CHECK(op != nullptr);
    if (op->kind() == FormulaKind::kTrue) continue;
    if (op->kind() == FormulaKind::kFalse) return False();
    if (op->kind() == FormulaKind::kAnd) {
      flat.insert(flat.end(), op->children_.begin(), op->children_.end());
    } else {
      flat.push_back(std::move(op));
    }
  }
  if (flat.empty()) return True();
  if (flat.size() == 1) return flat[0];
  return FormulaPtr(new Formula(FormulaKind::kAnd, std::move(flat)));
}

FormulaPtr Formula::Or(std::vector<FormulaPtr> operands) {
  std::vector<FormulaPtr> flat;
  for (FormulaPtr& op : operands) {
    DYNFO_CHECK(op != nullptr);
    if (op->kind() == FormulaKind::kFalse) continue;
    if (op->kind() == FormulaKind::kTrue) return True();
    if (op->kind() == FormulaKind::kOr) {
      flat.insert(flat.end(), op->children_.begin(), op->children_.end());
    } else {
      flat.push_back(std::move(op));
    }
  }
  if (flat.empty()) return False();
  if (flat.size() == 1) return flat[0];
  return FormulaPtr(new Formula(FormulaKind::kOr, std::move(flat)));
}

FormulaPtr Formula::Implies(FormulaPtr left, FormulaPtr right) {
  return Or({Not(std::move(left)), std::move(right)});
}

FormulaPtr Formula::Iff(FormulaPtr left, FormulaPtr right) {
  return And({Implies(left, right), Implies(right, left)});
}

FormulaPtr Formula::Exists(std::vector<std::string> variables, FormulaPtr body) {
  DYNFO_CHECK(body != nullptr);
  DYNFO_CHECK(!variables.empty()) << "quantifier with no variables";
  auto f = std::shared_ptr<Formula>(
      new Formula(FormulaKind::kExists, {std::move(body)}));
  f->variables_ = std::move(variables);
  return f;
}

FormulaPtr Formula::Forall(std::vector<std::string> variables, FormulaPtr body) {
  DYNFO_CHECK(body != nullptr);
  DYNFO_CHECK(!variables.empty()) << "quantifier with no variables";
  auto f = std::shared_ptr<Formula>(
      new Formula(FormulaKind::kForall, {std::move(body)}));
  f->variables_ = std::move(variables);
  return f;
}

const std::string& Formula::relation() const {
  DYNFO_CHECK(kind_ == FormulaKind::kAtom);
  return relation_;
}

const std::vector<Term>& Formula::args() const {
  DYNFO_CHECK(kind_ == FormulaKind::kAtom);
  return terms_;
}

const Term& Formula::left() const {
  DYNFO_CHECK(kind_ == FormulaKind::kEq || kind_ == FormulaKind::kLe ||
              kind_ == FormulaKind::kBit);
  return terms_[0];
}

const Term& Formula::right() const {
  DYNFO_CHECK(kind_ == FormulaKind::kEq || kind_ == FormulaKind::kLe ||
              kind_ == FormulaKind::kBit);
  return terms_[1];
}

const std::vector<std::string>& Formula::variables() const {
  DYNFO_CHECK(kind_ == FormulaKind::kExists || kind_ == FormulaKind::kForall);
  return variables_;
}

void Formula::CollectFreeVariables(std::set<std::string>* out,
                                   std::set<std::string>* bound) const {
  auto visit_term = [&](const Term& t) {
    if (t.is_variable() && bound->find(t.name()) == bound->end()) {
      out->insert(t.name());
    }
  };
  for (const Term& t : terms_) visit_term(t);
  if (kind_ == FormulaKind::kExists || kind_ == FormulaKind::kForall) {
    std::vector<std::string> newly_bound;
    for (const std::string& v : variables_) {
      if (bound->insert(v).second) newly_bound.push_back(v);
    }
    children_[0]->CollectFreeVariables(out, bound);
    for (const std::string& v : newly_bound) bound->erase(v);
    return;
  }
  for (const FormulaPtr& child : children_) {
    child->CollectFreeVariables(out, bound);
  }
}

std::vector<std::string> Formula::FreeVariables() const {
  std::set<std::string> out;
  std::set<std::string> bound;
  CollectFreeVariables(&out, &bound);
  return std::vector<std::string>(out.begin(), out.end());
}

int Formula::QuantifierDepth() const {
  int depth = 0;
  for (const FormulaPtr& child : children_) {
    depth = std::max(depth, child->QuantifierDepth());
  }
  if (kind_ == FormulaKind::kExists || kind_ == FormulaKind::kForall) {
    depth += 1;
  }
  return depth;
}

namespace {
void CollectVariables(const Formula& f, std::set<std::string>* out) {
  if (f.kind() == FormulaKind::kAtom) {
    for (const Term& t : f.args()) {
      if (t.is_variable()) out->insert(t.name());
    }
  } else if (f.kind() == FormulaKind::kEq || f.kind() == FormulaKind::kLe ||
             f.kind() == FormulaKind::kBit) {
    if (f.left().is_variable()) out->insert(f.left().name());
    if (f.right().is_variable()) out->insert(f.right().name());
  } else if (f.kind() == FormulaKind::kExists || f.kind() == FormulaKind::kForall) {
    for (const std::string& v : f.variables()) out->insert(v);
  }
  for (const FormulaPtr& child : f.children()) CollectVariables(*child, out);
}
}  // namespace

int Formula::VariableWidth() const {
  std::set<std::string> variables;
  CollectVariables(*this, &variables);
  return static_cast<int>(variables.size());
}

int Formula::MaxParameterIndex() const {
  int max_index = -1;
  for (const Term& t : terms_) {
    if (t.kind() == TermKind::kParameter) max_index = std::max(max_index, t.index());
  }
  for (const FormulaPtr& child : children_) {
    max_index = std::max(max_index, child->MaxParameterIndex());
  }
  return max_index;
}

void Formula::CollectRelations(std::set<std::string>* out) const {
  if (kind_ == FormulaKind::kAtom) out->insert(relation_);
  for (const FormulaPtr& child : children_) child->CollectRelations(out);
}

std::set<std::string> Formula::MentionedRelations() const {
  std::set<std::string> out;
  CollectRelations(&out);
  return out;
}

namespace {

Term SubstituteTerm(const Term& t, const std::map<std::string, Term>& map) {
  if (!t.is_variable()) return t;
  auto it = map.find(t.name());
  return it == map.end() ? t : it->second;
}

/// Variables mentioned by any term in the substitution's range.
std::set<std::string> RangeVariables(const std::map<std::string, Term>& map) {
  std::set<std::string> out;
  for (const auto& [from, to] : map) {
    if (to.is_variable()) out.insert(to.name());
  }
  return out;
}

std::string FreshName(const std::string& base, const std::set<std::string>& avoid) {
  for (int i = 0;; ++i) {
    std::string candidate = base + "_" + std::to_string(i);
    if (avoid.find(candidate) == avoid.end()) return candidate;
  }
}

}  // namespace

FormulaPtr Formula::Substitute(const FormulaPtr& formula,
                               const std::map<std::string, Term>& map) {
  DYNFO_CHECK(formula != nullptr);
  if (map.empty()) return formula;
  switch (formula->kind()) {
    case FormulaKind::kTrue:
    case FormulaKind::kFalse:
      return formula;
    case FormulaKind::kAtom: {
      std::vector<Term> args;
      args.reserve(formula->args().size());
      for (const Term& t : formula->args()) args.push_back(SubstituteTerm(t, map));
      return Atom(formula->relation(), std::move(args));
    }
    case FormulaKind::kEq:
      return Eq(SubstituteTerm(formula->left(), map),
                SubstituteTerm(formula->right(), map));
    case FormulaKind::kLe:
      return Le(SubstituteTerm(formula->left(), map),
                SubstituteTerm(formula->right(), map));
    case FormulaKind::kBit:
      return Bit(SubstituteTerm(formula->left(), map),
                 SubstituteTerm(formula->right(), map));
    case FormulaKind::kNot:
      return Not(Substitute(formula->children()[0], map));
    case FormulaKind::kAnd:
    case FormulaKind::kOr: {
      std::vector<FormulaPtr> children;
      children.reserve(formula->children().size());
      for (const FormulaPtr& child : formula->children()) {
        children.push_back(Substitute(child, map));
      }
      return formula->kind() == FormulaKind::kAnd ? And(std::move(children))
                                                  : Or(std::move(children));
    }
    case FormulaKind::kExists:
    case FormulaKind::kForall: {
      // Drop mappings shadowed by the quantifier; rename bound variables that
      // would capture a variable of the substitution's range.
      std::map<std::string, Term> inner(map);
      for (const std::string& v : formula->variables()) inner.erase(v);
      std::set<std::string> range = RangeVariables(inner);
      std::vector<std::string> bound = formula->variables();
      FormulaPtr body = formula->children()[0];
      for (std::string& v : bound) {
        if (range.find(v) != range.end()) {
          std::set<std::string> avoid = range;
          for (const std::string& b : bound) avoid.insert(b);
          for (const std::string& fv : body->FreeVariables()) avoid.insert(fv);
          std::string fresh = FreshName(v, avoid);
          body = Substitute(body, {{v, Term::Var(fresh)}});
          v = fresh;
        }
      }
      body = Substitute(body, inner);
      return formula->kind() == FormulaKind::kExists ? Exists(std::move(bound), body)
                                                     : Forall(std::move(bound), body);
    }
  }
  DYNFO_UNREACHABLE();
}

namespace {

std::string JoinTerms(const std::vector<Term>& terms) {
  std::string s;
  for (size_t i = 0; i < terms.size(); ++i) {
    if (i > 0) s += ", ";
    s += terms[i].ToString();
  }
  return s;
}

std::string JoinNames(const std::vector<std::string>& names) {
  std::string s;
  for (size_t i = 0; i < names.size(); ++i) {
    if (i > 0) s += " ";
    s += names[i];
  }
  return s;
}

}  // namespace

std::string Formula::ToString() const {
  switch (kind_) {
    case FormulaKind::kTrue:
      return "true";
    case FormulaKind::kFalse:
      return "false";
    case FormulaKind::kAtom:
      return relation_ + "(" + JoinTerms(terms_) + ")";
    case FormulaKind::kEq:
      return terms_[0].ToString() + " = " + terms_[1].ToString();
    case FormulaKind::kLe:
      return terms_[0].ToString() + " <= " + terms_[1].ToString();
    case FormulaKind::kBit:
      return "BIT(" + terms_[0].ToString() + ", " + terms_[1].ToString() + ")";
    case FormulaKind::kNot:
      return "!(" + children_[0]->ToString() + ")";
    case FormulaKind::kAnd:
    case FormulaKind::kOr: {
      const char* op = kind_ == FormulaKind::kAnd ? " & " : " | ";
      std::string s = "(";
      for (size_t i = 0; i < children_.size(); ++i) {
        if (i > 0) s += op;
        s += children_[i]->ToString();
      }
      return s + ")";
    }
    case FormulaKind::kExists:
      return "(exists " + JoinNames(variables_) + ". " + children_[0]->ToString() + ")";
    case FormulaKind::kForall:
      return "(forall " + JoinNames(variables_) + ". " + children_[0]->ToString() + ")";
  }
  DYNFO_UNREACHABLE();
}

}  // namespace dynfo::fo
