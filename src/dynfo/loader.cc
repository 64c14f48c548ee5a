#include "dynfo/loader.h"

#include <optional>
#include <sstream>
#include <vector>

#include "core/durable_io.h"
#include "fo/parser.h"

namespace dynfo::dyn {

namespace {

core::Status Err(size_t line, const std::string& message) {
  return core::Status::Error("line " + std::to_string(line) + ": " + message);
}

std::string Strip(const std::string& raw) {
  std::string s = raw;
  size_t hash = s.find('#');
  if (hash != std::string::npos) s.erase(hash);
  size_t begin = s.find_first_not_of(" \t\r");
  if (begin == std::string::npos) return "";
  size_t end = s.find_last_not_of(" \t\r");
  return s.substr(begin, end - begin + 1);
}

/// Splits "head rest" at the first space run.
std::pair<std::string, std::string> SplitWord(const std::string& s) {
  size_t space = s.find_first_of(" \t");
  if (space == std::string::npos) return {s, ""};
  size_t rest = s.find_first_not_of(" \t", space);
  return {s.substr(0, space), rest == std::string::npos ? "" : s.substr(rest)};
}

/// Parses "Name(v1, v2, ...)" into name + variable list.
core::Result<std::pair<std::string, std::vector<std::string>>> ParseHead(
    const std::string& text, size_t line) {
  size_t open = text.find('(');
  if (open == std::string::npos || text.back() != ')') {
    return Err(line, "expected Name(vars...): " + text);
  }
  std::string name = Strip(text.substr(0, open));
  std::vector<std::string> variables;
  std::string inner = text.substr(open + 1, text.size() - open - 2);
  std::stringstream ss(inner);
  std::string piece;
  while (std::getline(ss, piece, ',')) {
    std::string v = Strip(piece);
    if (!v.empty()) variables.push_back(v);
  }
  if (name.empty()) return Err(line, "missing name before '('");
  return std::make_pair(name, variables);
}

struct SymbolDeclarations {
  std::shared_ptr<relational::Vocabulary> vocabulary =
      std::make_shared<relational::Vocabulary>();
};

core::Status ParseDeclaration(SymbolDeclarations* out, const std::string& text,
                              size_t line) {
  auto [kind, rest] = SplitWord(text);
  // Vocabulary::AddRelation/AddConstant CHECK-fail on an empty or taken
  // name; a spec gets a line-numbered error instead.
  auto check_name = [out, &text, line](const std::string& name) {
    if (name.empty()) return Err(line, "missing symbol name in: " + text);
    if (out->vocabulary->RelationIndex(name) >= 0 ||
        out->vocabulary->ConstantIndex(name) >= 0) {
      return Err(line, "duplicate symbol name: " + name);
    }
    return core::Status();
  };
  if (kind == "relation") {
    size_t slash = rest.find('/');
    if (slash == std::string::npos) return Err(line, "expected relation Name/arity");
    std::string name = Strip(rest.substr(0, slash));
    core::Status named = check_name(name);
    if (!named.ok()) return named;
    int arity = 0;
    try {
      arity = std::stoi(rest.substr(slash + 1));
    } catch (...) {
      return Err(line, "bad arity in: " + rest);
    }
    if (arity < 0 || arity > relational::Tuple::kMaxArity) {
      return Err(line, "arity out of range in: " + rest);
    }
    out->vocabulary->AddRelation(name, arity);
    return core::Status();
  }
  if (kind == "constant") {
    std::string name = Strip(rest);
    core::Status named = check_name(name);
    if (!named.ok()) return named;
    out->vocabulary->AddConstant(name);
    return core::Status();
  }
  return Err(line, "expected 'relation' or 'constant', got: " + kind);
}

}  // namespace

core::Result<std::shared_ptr<const DynProgram>> LoadProgramFromText(
    const std::string& text) {
  std::stringstream stream(text);
  std::string raw;
  size_t line_number = 0;

  std::string program_name;
  SymbolDeclarations input, data;
  bool have_input = false, have_data = false, semi_dynamic = false;
  std::unique_ptr<fo::ParserEnvironment> formulas;  // built once data is known

  struct PendingRule {
    bool is_let;
    relational::RequestKind kind;
    std::string input_symbol;
    UpdateRule rule;
  };
  std::vector<UpdateRule> init_rules;
  std::vector<PendingRule> rules;
  fo::FormulaPtr bool_query;
  std::vector<std::pair<std::string, NamedQuery>> named_queries;

  enum class Block { kNone, kInput, kData, kOn };
  Block block = Block::kNone;
  relational::RequestKind on_kind = relational::RequestKind::kInsert;
  std::string on_symbol;

  auto need_formulas = [&]() -> core::Status {
    if (formulas != nullptr) return core::Status();
    if (!have_data) return core::Status::Error("data { } block must come first");
    formulas = std::make_unique<fo::ParserEnvironment>(data.vocabulary);
    return core::Status();
  };

  auto parse_assignment =
      [&](const std::string& s,
          size_t line) -> core::Result<std::pair<std::string, std::string>> {
    size_t assign = s.find(":=");
    if (assign == std::string::npos) return Err(line, "expected ':=' in: " + s);
    return std::make_pair(Strip(s.substr(0, assign)), Strip(s.substr(assign + 2)));
  };

  auto parse_rule = [&](const std::string& s, size_t line) -> core::Result<UpdateRule> {
    auto head_body = parse_assignment(s, line);
    if (!head_body.ok()) return head_body.status();
    auto head = ParseHead(head_body.value().first, line);
    if (!head.ok()) return head.status();
    core::Result<fo::FormulaPtr> formula = formulas->Parse(head_body.value().second);
    if (!formula.ok()) return Err(line, formula.status().message());
    return UpdateRule{head.value().first, head.value().second, formula.value()};
  };

  auto paren_balance = [](const std::string& s) {
    int balance = 0;
    for (char c : s) {
      if (c == '(') ++balance;
      if (c == ')') --balance;
    }
    return balance;
  };

  while (std::getline(stream, raw)) {
    ++line_number;
    std::string s = Strip(raw);
    if (s.empty()) continue;
    // Logical lines: a formula may span physical lines until its
    // parentheses balance.
    while (paren_balance(s) > 0 && std::getline(stream, raw)) {
      ++line_number;
      std::string more = Strip(raw);
      if (more.empty()) continue;
      s += " " + more;
    }

    if (s == "}") {
      if (block == Block::kNone) return Err(line_number, "unmatched '}'");
      if (block == Block::kInput) have_input = true;
      if (block == Block::kData) have_data = true;
      block = Block::kNone;
      continue;
    }

    if (block == Block::kInput) {
      core::Status status = ParseDeclaration(&input, s, line_number);
      if (!status.ok()) return status;
      continue;
    }
    if (block == Block::kData) {
      core::Status status = ParseDeclaration(&data, s, line_number);
      if (!status.ok()) return status;
      continue;
    }
    if (block == Block::kOn) {
      core::Status status = need_formulas();
      if (!status.ok()) return status;
      bool is_let = false;
      std::string body = s;
      auto [first, rest] = SplitWord(s);
      if (first == "let") {
        is_let = true;
        body = rest;
      }
      core::Result<UpdateRule> rule = parse_rule(body, line_number);
      if (!rule.ok()) return rule.status();
      rules.push_back(PendingRule{is_let, on_kind, on_symbol, rule.value()});
      continue;
    }

    auto [keyword, rest] = SplitWord(s);
    if (keyword == "program") {
      program_name = rest;
      continue;
    }
    if (keyword == "input" && Strip(rest) == "{") {
      block = Block::kInput;
      continue;
    }
    if (keyword == "data" && Strip(rest) == "{") {
      block = Block::kData;
      continue;
    }
    if (keyword == "semidynamic") {
      semi_dynamic = true;
      continue;
    }
    if (keyword == "macro") {
      core::Status status = need_formulas();
      if (!status.ok()) return status;
      auto head_body = parse_assignment(rest, line_number);
      if (!head_body.ok()) return head_body.status();
      auto head = ParseHead(head_body.value().first, line_number);
      if (!head.ok()) return head.status();
      status = formulas->DefineMacro(head.value().first, head.value().second,
                                     head_body.value().second);
      if (!status.ok()) return Err(line_number, status.message());
      continue;
    }
    if (keyword == "init") {
      core::Status status = need_formulas();
      if (!status.ok()) return status;
      core::Result<UpdateRule> rule = parse_rule(rest, line_number);
      if (!rule.ok()) return rule.status();
      init_rules.push_back(rule.value());
      continue;
    }
    if (keyword == "on") {
      auto [kind_word, symbol_brace] = SplitWord(rest);
      auto [symbol, brace] = SplitWord(symbol_brace);
      if (Strip(brace) != "{") return Err(line_number, "expected '{' after 'on ...'");
      if (kind_word == "insert") {
        on_kind = relational::RequestKind::kInsert;
      } else if (kind_word == "delete") {
        on_kind = relational::RequestKind::kDelete;
      } else if (kind_word == "set") {
        on_kind = relational::RequestKind::kSetConstant;
      } else {
        return Err(line_number, "expected insert/delete/set, got " + kind_word);
      }
      on_symbol = symbol;
      block = Block::kOn;
      continue;
    }
    if (keyword == "query") {
      core::Status status = need_formulas();
      if (!status.ok()) return status;
      if (Strip(rest).rfind(":=", 0) == 0) {
        // Boolean query: "query := <sentence>".
        core::Result<fo::FormulaPtr> formula =
            formulas->Parse(Strip(Strip(rest).substr(2)));
        if (!formula.ok()) return Err(line_number, formula.status().message());
        bool_query = formula.value();
        continue;
      }
      core::Result<UpdateRule> rule = parse_rule(rest, line_number);
      if (!rule.ok()) return rule.status();
      for (const auto& [name, query] : named_queries) {
        if (name == rule.value().target) {
          return Err(line_number, "duplicate named query " + name);
        }
      }
      named_queries.emplace_back(
          rule.value().target,
          NamedQuery{rule.value().tuple_variables, rule.value().formula});
      continue;
    }
    return Err(line_number, "unrecognized directive: " + keyword);
  }

  if (block != Block::kNone) return core::Status::Error("unterminated block");
  if (program_name.empty()) return core::Status::Error("missing 'program <name>'");
  if (!have_input) return core::Status::Error("missing input { } block");
  if (!have_data) return core::Status::Error("missing data { } block");

  auto program =
      std::make_shared<DynProgram>(program_name, input.vocabulary, data.vocabulary);
  for (UpdateRule& rule : init_rules) program->AddInit(std::move(rule));
  for (PendingRule& pending : rules) {
    if (pending.is_let) {
      program->AddLet(pending.kind, pending.input_symbol, std::move(pending.rule));
    } else {
      program->AddUpdate(pending.kind, pending.input_symbol, std::move(pending.rule));
    }
  }
  if (bool_query != nullptr) program->SetBoolQuery(bool_query);
  for (auto& [name, query] : named_queries) program->AddNamedQuery(name, query);
  program->SetSemiDynamic(semi_dynamic);

  core::Status valid = program->Validate();
  if (!valid.ok()) return valid;
  return std::shared_ptr<const DynProgram>(program);
}

core::Result<std::shared_ptr<const DynProgram>> LoadProgramFile(
    const std::string& path) {
  core::Result<std::string> text = core::ReadFileToString(path);
  if (!text.ok()) return core::Status::Error("cannot open " + path);
  auto program = LoadProgramFromText(text.value());
  if (!program.ok()) {
    return core::Status::Error("cannot load " + path + ": " +
                               program.status().message());
  }
  return program;
}

}  // namespace dynfo::dyn
