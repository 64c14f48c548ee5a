/// \file program.h
/// Dyn-FO programs: the paper's (f_n, g_n) pairs in executable form.
///
/// A DynProgram maintains a *data structure* — a finite structure over the
/// data vocabulary tau — in response to requests against the *input*
/// vocabulary sigma. For each request kind it carries first-order update
/// rules; a problem S is "in Dyn-FO" exactly when such a program exists with
/// (1) a first-order definable initial structure, (2) FO update rules, and
/// (3) an FO query whose answer equals membership of the input in S
/// (paper §3.1, conditions 1–4).
///
/// Rules evaluate *synchronously*: every update formula reads the data
/// structure as it was before the request. The paper's temporary relations
/// ("We define a temporary relation T ...", Theorem 4.1) are modeled as
/// `let` rules: they evaluate in order, each seeing the old structure plus
/// earlier lets, and the main updates may read them.

#ifndef DYNFO_DYNFO_PROGRAM_H_
#define DYNFO_DYNFO_PROGRAM_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/status.h"
#include "fo/formula.h"
#include "relational/request.h"
#include "relational/vocabulary.h"

namespace dynfo::dyn {

/// One first-order (re)definition: target relation := { tuple_variables :
/// formula }. The formula's free variables must be among tuple_variables;
/// request parameters $0, $1, ... refer to the updated tuple (or the value
/// of a set request).
struct UpdateRule {
  std::string target;
  std::vector<std::string> tuple_variables;
  fo::FormulaPtr formula;
};

/// The rules fired by one (request kind, input symbol) pair.
struct RequestRules {
  std::vector<UpdateRule> lets;     ///< temporaries, evaluated in order
  std::vector<UpdateRule> updates;  ///< committed atomically against the old state
};

/// A named, parameterless-or-parameterized first-order query against the
/// data structure (e.g. "Connected(x, y)").
struct NamedQuery {
  std::vector<std::string> tuple_variables;
  fo::FormulaPtr formula;
};

/// A complete Dyn-FO program. Build with the setters, then Validate().
class DynProgram {
 public:
  DynProgram(std::string name, std::shared_ptr<const relational::Vocabulary> input,
             std::shared_ptr<const relational::Vocabulary> data);

  const std::string& name() const { return name_; }
  std::shared_ptr<const relational::Vocabulary> input_vocabulary() const {
    return input_;
  }
  std::shared_ptr<const relational::Vocabulary> data_vocabulary() const { return data_; }

  /// First-order initialization of the data structure f_n(empty): rules are
  /// evaluated in order on the all-empty structure (each sees the previous
  /// ones). This implements the paper's condition (4) — the initial
  /// structure is uniformly FO-computable. Programs with *polynomial*
  /// precomputation (Dyn-FO+) instead install arbitrary contents through
  /// Engine::mutable_data(); see engine.h.
  void AddInit(UpdateRule rule) { init_.push_back(std::move(rule)); }

  /// Registers a temporary/let rule for (kind, input symbol name).
  void AddLet(relational::RequestKind kind, const std::string& input_name,
              UpdateRule rule);
  /// Registers a main update rule for (kind, input symbol name).
  void AddUpdate(relational::RequestKind kind, const std::string& input_name,
                 UpdateRule rule);

  /// The boolean query answered by QueryBool (a sentence over tau; it may use
  /// request parameters, supplied at query time).
  void SetBoolQuery(fo::FormulaPtr query) { bool_query_ = std::move(query); }
  const fo::FormulaPtr& bool_query() const { return bool_query_; }

  /// Additional named queries (arbitrary FO is free in Dyn-FO).
  void AddNamedQuery(const std::string& name, NamedQuery query);
  const NamedQuery* FindNamedQuery(const std::string& name) const;

  const std::vector<UpdateRule>& init_rules() const { return init_; }

  /// Rules for a request, or nullptr when none are registered (the engine
  /// then falls back to mirroring the input change directly).
  const RequestRules* RulesFor(relational::RequestKind kind,
                               const std::string& input_name) const;

  using RuleKey = std::pair<relational::RequestKind, std::string>;

  /// Every registered (request, rules) pair — the engine walks this at load
  /// time to compile all update plans before the first request arrives.
  const std::map<RuleKey, RequestRules>& rules() const { return rules_; }

  /// Structural well-formedness: every target exists in tau with matching
  /// arity, free variables are covered by tuple variables, mentioned
  /// relations exist (lets may be referenced only after definition), and
  /// parameter indices fit the triggering request.
  core::Status Validate() const;

  /// Maximum quantifier depth over all rules and queries — the paper's
  /// parallel-time measure (FO = CRAM[1]).
  int MaxQuantifierDepth() const;

  /// Maximum variable width over all rules and queries — the paper's space
  /// measure ("space corresponds to number of variables", §2).
  int MaxVariableWidth() const;

  /// Marks the program as Dyn_s (semi-dynamic, §3.1): the engine refuses
  /// delete requests instead of silently letting auxiliary state go stale.
  void SetSemiDynamic(bool value) { semi_dynamic_ = value; }
  bool semi_dynamic() const { return semi_dynamic_; }

  /// Whether this program accepts `request` at `universe_size`: the target
  /// is in the input vocabulary with matching shape, every element is in
  /// range (relational::ValidateRequest), and a semi-dynamic program is not
  /// asked to delete. The one acceptance rule shared by the engine's
  /// governed path, the recovery wrapper, and the CLI.
  core::Status ValidateRequest(const relational::Request& request,
                               size_t universe_size) const;

 private:
  std::string name_;
  std::shared_ptr<const relational::Vocabulary> input_;
  std::shared_ptr<const relational::Vocabulary> data_;
  std::vector<UpdateRule> init_;
  std::map<RuleKey, RequestRules> rules_;
  fo::FormulaPtr bool_query_;
  std::map<std::string, NamedQuery> named_queries_;
  bool semi_dynamic_ = false;
};

}  // namespace dynfo::dyn

#endif  // DYNFO_DYNFO_PROGRAM_H_
