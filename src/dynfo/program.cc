#include "dynfo/program.h"

#include <algorithm>
#include <set>

namespace dynfo::dyn {

DynProgram::DynProgram(std::string name,
                       std::shared_ptr<const relational::Vocabulary> input,
                       std::shared_ptr<const relational::Vocabulary> data)
    : name_(std::move(name)), input_(std::move(input)), data_(std::move(data)) {
  DYNFO_CHECK(input_ != nullptr);
  DYNFO_CHECK(data_ != nullptr);
}

void DynProgram::AddLet(relational::RequestKind kind, const std::string& input_name,
                        UpdateRule rule) {
  rules_[{kind, input_name}].lets.push_back(std::move(rule));
}

void DynProgram::AddUpdate(relational::RequestKind kind, const std::string& input_name,
                           UpdateRule rule) {
  rules_[{kind, input_name}].updates.push_back(std::move(rule));
}

void DynProgram::AddNamedQuery(const std::string& name, NamedQuery query) {
  DYNFO_CHECK(named_queries_.find(name) == named_queries_.end())
      << "duplicate named query " << name;
  named_queries_[name] = std::move(query);
}

const NamedQuery* DynProgram::FindNamedQuery(const std::string& name) const {
  auto it = named_queries_.find(name);
  return it == named_queries_.end() ? nullptr : &it->second;
}

const RequestRules* DynProgram::RulesFor(relational::RequestKind kind,
                                         const std::string& input_name) const {
  auto it = rules_.find({kind, input_name});
  return it == rules_.end() ? nullptr : &it->second;
}

namespace {

core::Status CheckRule(const relational::Vocabulary& data, const UpdateRule& rule,
                       int max_parameters, const std::string& context) {
  if (rule.formula == nullptr) {
    return core::Status::Error(context + ": rule for " + rule.target + " has no formula");
  }
  int target_index = data.RelationIndex(rule.target);
  if (target_index < 0) {
    return core::Status::Error(context + ": unknown target relation " + rule.target);
  }
  int arity = data.relation(target_index).arity;
  if (arity != static_cast<int>(rule.tuple_variables.size())) {
    return core::Status::Error(context + ": rule for " + rule.target + " binds " +
                               std::to_string(rule.tuple_variables.size()) +
                               " variables but the relation has arity " +
                               std::to_string(arity));
  }
  std::set<std::string> distinct(rule.tuple_variables.begin(),
                                 rule.tuple_variables.end());
  if (distinct.size() != rule.tuple_variables.size()) {
    return core::Status::Error(context + ": rule for " + rule.target +
                               " repeats a tuple variable");
  }
  for (const std::string& v : rule.formula->FreeVariables()) {
    if (distinct.find(v) == distinct.end()) {
      return core::Status::Error(context + ": rule for " + rule.target +
                                 " has stray free variable " + v);
    }
  }
  for (const std::string& mentioned : rule.formula->MentionedRelations()) {
    if (data.RelationIndex(mentioned) < 0) {
      return core::Status::Error(context + ": rule for " + rule.target +
                                 " mentions unknown relation " + mentioned);
    }
  }
  if (rule.formula->MaxParameterIndex() >= max_parameters) {
    return core::Status::Error(context + ": rule for " + rule.target +
                               " uses parameter $" +
                               std::to_string(rule.formula->MaxParameterIndex()) +
                               " but the request supplies only " +
                               std::to_string(max_parameters));
  }
  return core::Status();
}

}  // namespace

core::Status DynProgram::ValidateRequest(const relational::Request& request,
                                         size_t universe_size) const {
  core::Status valid = relational::ValidateRequest(*input_, universe_size, request);
  if (!valid.ok()) return valid;
  if (semi_dynamic_ && request.kind == relational::RequestKind::kDelete) {
    return core::Status::Error(name_ +
                               " is semi-dynamic (Dyn_s): deletes are not supported");
  }
  return core::Status();
}

core::Status DynProgram::Validate() const {
  for (const UpdateRule& rule : init_) {
    core::Status s = CheckRule(*data_, rule, /*max_parameters=*/0, name_ + " init");
    if (!s.ok()) return s;
  }
  for (const auto& [key, request_rules] : rules_) {
    const auto& [kind, input_name] = key;
    int max_parameters = 0;
    std::string context = name_;
    switch (kind) {
      case relational::RequestKind::kInsert:
      case relational::RequestKind::kDelete: {
        int index = input_->RelationIndex(input_name);
        if (index < 0) {
          return core::Status::Error(name_ + ": rules registered for unknown input " +
                                     "relation " + input_name);
        }
        max_parameters = input_->relation(index).arity;
        context += kind == relational::RequestKind::kInsert ? " ins(" : " del(";
        context += input_name + ")";
        break;
      }
      case relational::RequestKind::kSetConstant: {
        if (input_->ConstantIndex(input_name) < 0) {
          return core::Status::Error(name_ + ": rules registered for unknown input " +
                                     "constant " + input_name);
        }
        max_parameters = 1;
        context += " set(" + input_name + ")";
        break;
      }
    }
    for (const UpdateRule& rule : request_rules.lets) {
      core::Status s = CheckRule(*data_, rule, max_parameters, context + " let");
      if (!s.ok()) return s;
    }
    std::set<std::string> targets;
    for (const UpdateRule& rule : request_rules.updates) {
      core::Status s = CheckRule(*data_, rule, max_parameters, context);
      if (!s.ok()) return s;
      // Updates commit simultaneously; two values for one relation conflict.
      if (!targets.insert(rule.target).second) {
        return core::Status::Error(context + ": two update rules target " +
                                   rule.target);
      }
    }
  }
  // Each input change is mirrored into the same-named data relation (unless
  // an update rule targets it), so the two must agree on arity.
  for (int i = 0; i < input_->num_relations(); ++i) {
    const relational::RelationSymbol& input = input_->relation(i);
    const int mirror = data_->RelationIndex(input.name);
    if (mirror >= 0 && data_->relation(mirror).arity != input.arity) {
      return core::Status::Error(
          name_ + ": data relation " + input.name + " has arity " +
          std::to_string(data_->relation(mirror).arity) +
          " but the input relation it mirrors has arity " +
          std::to_string(input.arity));
    }
  }
  if (bool_query_ != nullptr) {
    if (!bool_query_->FreeVariables().empty()) {
      return core::Status::Error(name_ + ": boolean query has free variables");
    }
    for (const std::string& mentioned : bool_query_->MentionedRelations()) {
      if (data_->RelationIndex(mentioned) < 0) {
        return core::Status::Error(name_ + ": query mentions unknown relation " +
                                   mentioned);
      }
    }
  }
  for (const auto& [query_name, query] : named_queries_) {
    for (const std::string& v : query.formula->FreeVariables()) {
      if (std::find(query.tuple_variables.begin(), query.tuple_variables.end(), v) ==
          query.tuple_variables.end()) {
        return core::Status::Error(name_ + ": named query " + query_name +
                                   " has stray free variable " + v);
      }
    }
  }
  return core::Status();
}

int DynProgram::MaxQuantifierDepth() const {
  int depth = 0;
  auto consider = [&depth](const fo::FormulaPtr& f) {
    if (f != nullptr) depth = std::max(depth, f->QuantifierDepth());
  };
  for (const UpdateRule& rule : init_) consider(rule.formula);
  for (const auto& [key, request_rules] : rules_) {
    (void)key;
    for (const UpdateRule& rule : request_rules.lets) consider(rule.formula);
    for (const UpdateRule& rule : request_rules.updates) consider(rule.formula);
  }
  consider(bool_query_);
  for (const auto& [name, query] : named_queries_) {
    (void)name;
    consider(query.formula);
  }
  return depth;
}

int DynProgram::MaxVariableWidth() const {
  int width = 0;
  auto consider = [&width](const fo::FormulaPtr& f) {
    if (f != nullptr) width = std::max(width, f->VariableWidth());
  };
  for (const UpdateRule& rule : init_) consider(rule.formula);
  for (const auto& [key, request_rules] : rules_) {
    (void)key;
    for (const UpdateRule& rule : request_rules.lets) consider(rule.formula);
    for (const UpdateRule& rule : request_rules.updates) consider(rule.formula);
  }
  consider(bool_query_);
  for (const auto& [name, query] : named_queries_) {
    (void)name;
    consider(query.formula);
  }
  return width;
}

}  // namespace dynfo::dyn
