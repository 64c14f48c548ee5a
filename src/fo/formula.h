/// \file formula.h
/// First-order formulas over L(tau) (paper §2).
///
/// The language has relation atoms over the vocabulary, the numeric
/// predicates =, <= and BIT(x, y) ("bit y of x, written in binary, is 1"),
/// boolean connectives, and quantifiers over the universe {0..n-1}.
/// Formulas are immutable trees shared via FormulaPtr.

#ifndef DYNFO_FO_FORMULA_H_
#define DYNFO_FO_FORMULA_H_

#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "fo/term.h"

namespace dynfo::fo {

class Formula;
using FormulaPtr = std::shared_ptr<const Formula>;

enum class FormulaKind {
  kTrue,
  kFalse,
  kAtom,    ///< R(t1, ..., tk)
  kEq,      ///< t1 = t2
  kLe,      ///< t1 <= t2
  kBit,     ///< BIT(t1, t2)
  kNot,
  kAnd,     ///< n-ary conjunction
  kOr,      ///< n-ary disjunction
  kExists,  ///< (exists v1 ... vk) body
  kForall,  ///< (forall v1 ... vk) body
};

/// An immutable first-order formula node.
class Formula {
 public:
  static FormulaPtr True();
  static FormulaPtr False();
  static FormulaPtr Atom(std::string relation, std::vector<Term> args);
  static FormulaPtr Eq(Term left, Term right);
  static FormulaPtr Le(Term left, Term right);
  static FormulaPtr Bit(Term left, Term right);
  static FormulaPtr Not(FormulaPtr operand);
  /// And/Or flatten nested conjunctions/disjunctions of the same kind and
  /// simplify the empty and singleton cases.
  static FormulaPtr And(std::vector<FormulaPtr> operands);
  static FormulaPtr Or(std::vector<FormulaPtr> operands);
  /// Sugar: !left | right and (left -> right) & (right -> left).
  static FormulaPtr Implies(FormulaPtr left, FormulaPtr right);
  static FormulaPtr Iff(FormulaPtr left, FormulaPtr right);
  static FormulaPtr Exists(std::vector<std::string> variables, FormulaPtr body);
  static FormulaPtr Forall(std::vector<std::string> variables, FormulaPtr body);

  FormulaKind kind() const { return kind_; }

  /// Relation name of an atom. CHECK-fails otherwise.
  const std::string& relation() const;
  /// Argument terms of an atom. CHECK-fails otherwise.
  const std::vector<Term>& args() const;
  /// Left/right terms of =, <=, BIT. CHECK-fail otherwise.
  const Term& left() const;
  const Term& right() const;
  /// Children: one for kNot, the operand list for kAnd/kOr, the body (single
  /// element) for quantifiers. Empty otherwise.
  const std::vector<FormulaPtr>& children() const { return children_; }
  /// Quantified variable names. CHECK-fails unless a quantifier.
  const std::vector<std::string>& variables() const;

  /// Free variables, sorted and de-duplicated.
  std::vector<std::string> FreeVariables() const;
  /// Maximum nesting depth of quantifier blocks — the paper's proxy for
  /// parallel time (FO = CRAM[1]: depth = O(1) parallel steps).
  int QuantifierDepth() const;
  /// The number of distinct variables (free or bound) the formula uses —
  /// the paper's proxy for *space* ("space corresponds to number of
  /// variables", §2). Shadowed reuses of a name count once.
  int VariableWidth() const;
  /// Nodes in the tree the evaluators walk, counting a subformula shared by
  /// pointer once per use. Recorded at build time; saturates at INT_MAX.
  int Size() const { return size_; }
  /// Largest parameter index used anywhere, or -1 if none.
  int MaxParameterIndex() const;
  /// Relation names mentioned anywhere in the formula.
  std::set<std::string> MentionedRelations() const;

  /// Capture-avoiding simultaneous substitution of terms for free variables.
  /// Bound variables that would capture a substituted term are renamed.
  static FormulaPtr Substitute(const FormulaPtr& formula,
                               const std::map<std::string, Term>& map);

  std::string ToString() const;

 private:
  explicit Formula(FormulaKind kind, std::vector<FormulaPtr> children = {});

  void CollectFreeVariables(std::set<std::string>* out,
                            std::set<std::string>* bound) const;
  void CollectRelations(std::set<std::string>* out) const;

  FormulaKind kind_;
  std::string relation_;
  std::vector<Term> terms_;  // atom args, or {left, right} for =, <=, BIT
  std::vector<FormulaPtr> children_;
  std::vector<std::string> variables_;
  int size_ = 1;  ///< see Size()
};

}  // namespace dynfo::fo

#endif  // DYNFO_FO_FORMULA_H_
