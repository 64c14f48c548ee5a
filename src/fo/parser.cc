#include "fo/parser.h"

#include <cctype>

namespace dynfo::fo {

namespace {

enum class TokenKind {
  kIdent,    // names, keywords
  kNumber,   // numeric literal
  kParam,    // $k
  kLParen,
  kRParen,
  kComma,
  kDot,
  kBang,     // !
  kAmp,      // &
  kPipe,     // |
  kEq,       // =
  kNeq,      // !=
  kLe,       // <=
  kLt,       // <
  kArrow,    // ->
  kIffArrow, // <->
  kEnd,
};

struct Token {
  TokenKind kind;
  std::string text;
  uint32_t number = 0;
  size_t offset = 0;
};

core::Result<std::vector<Token>> Tokenize(const std::string& text) {
  std::vector<Token> out;
  size_t i = 0;
  auto push = [&](TokenKind kind, std::string s, size_t offset, uint32_t number = 0) {
    out.push_back(Token{kind, std::move(s), number, offset});
  };
  while (i < text.size()) {
    char c = text[i];
    if (std::isspace(static_cast<unsigned char>(c))) {
      ++i;
      continue;
    }
    size_t start = i;
    if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
      size_t j = i;
      while (j < text.size() &&
             (std::isalnum(static_cast<unsigned char>(text[j])) || text[j] == '_')) {
        ++j;
      }
      push(TokenKind::kIdent, text.substr(i, j - i), start);
      i = j;
      continue;
    }
    if (std::isdigit(static_cast<unsigned char>(c))) {
      size_t j = i;
      uint32_t value = 0;
      while (j < text.size() && std::isdigit(static_cast<unsigned char>(text[j]))) {
        value = value * 10 + static_cast<uint32_t>(text[j] - '0');
        ++j;
      }
      push(TokenKind::kNumber, text.substr(i, j - i), start, value);
      i = j;
      continue;
    }
    if (c == '$') {
      size_t j = i + 1;
      if (j >= text.size() || !std::isdigit(static_cast<unsigned char>(text[j]))) {
        return core::Status::Error("'$' must be followed by a parameter index");
      }
      uint32_t value = 0;
      while (j < text.size() && std::isdigit(static_cast<unsigned char>(text[j]))) {
        value = value * 10 + static_cast<uint32_t>(text[j] - '0');
        ++j;
      }
      push(TokenKind::kParam, text.substr(i, j - i), start, value);
      i = j;
      continue;
    }
    auto two = [&](char a, char b) {
      return c == a && i + 1 < text.size() && text[i + 1] == b;
    };
    if (c == '<' && i + 2 < text.size() && text[i + 1] == '-' && text[i + 2] == '>') {
      push(TokenKind::kIffArrow, "<->", start);
      i += 3;
      continue;
    }
    if (two('-', '>')) {
      push(TokenKind::kArrow, "->", start);
      i += 2;
      continue;
    }
    if (two('<', '=')) {
      push(TokenKind::kLe, "<=", start);
      i += 2;
      continue;
    }
    if (two('!', '=')) {
      push(TokenKind::kNeq, "!=", start);
      i += 2;
      continue;
    }
    switch (c) {
      case '(': push(TokenKind::kLParen, "(", start); break;
      case ')': push(TokenKind::kRParen, ")", start); break;
      case ',': push(TokenKind::kComma, ",", start); break;
      case '.': push(TokenKind::kDot, ".", start); break;
      case '!': push(TokenKind::kBang, "!", start); break;
      case '&': push(TokenKind::kAmp, "&", start); break;
      case '|': push(TokenKind::kPipe, "|", start); break;
      case '=': push(TokenKind::kEq, "=", start); break;
      case '<': push(TokenKind::kLt, "<", start); break;
      default:
        return core::Status::Error("unexpected character '" + std::string(1, c) +
                                   "' at offset " + std::to_string(i));
    }
    ++i;
  }
  out.push_back(Token{TokenKind::kEnd, "", 0, text.size()});
  return out;
}

}  // namespace

/// Recursive-descent parser over the token stream. Friend of
/// ParserEnvironment so it can read the macro table.
class ParserImpl {
 public:
  ParserImpl(const ParserEnvironment& environment, std::vector<Token> tokens)
      : environment_(environment), tokens_(std::move(tokens)) {}

  core::Result<FormulaPtr> Run() {
    core::Result<FormulaPtr> f = ParseIff();
    if (!f.ok()) return f;
    if (Peek().kind != TokenKind::kEnd) {
      return Error("unexpected '" + Peek().text + "'");
    }
    if (f.value()->Size() > kMaxFormulaNodes) return TooLarge();
    return f;
  }

 private:
  const Token& Peek() const { return tokens_[position_]; }
  Token Take() { return tokens_[position_++]; }
  bool TryTake(TokenKind kind) {
    if (Peek().kind != kind) return false;
    ++position_;
    return true;
  }
  core::Status Error(const std::string& message) const {
    return core::Status::Error(message + " at offset " +
                               std::to_string(Peek().offset));
  }

  core::Status TooLarge() const {
    return Error("formula expands to more than " +
                 std::to_string(kMaxFormulaNodes) + " nodes");
  }

  /// Runs `parse` one nesting level deeper; past kMaxFormulaNesting open
  /// levels that is a parse error instead of another stack frame.
  template <typename Parse>
  core::Result<FormulaPtr> Nested(Parse parse) {
    if (depth_ == kMaxFormulaNesting) {
      return Error("formula nested deeper than " +
                   std::to_string(kMaxFormulaNesting) + " levels");
    }
    ++depth_;
    core::Result<FormulaPtr> out = parse();
    --depth_;
    return out;
  }

  core::Result<FormulaPtr> ParseIff() {
    core::Result<FormulaPtr> left = ParseImplies();
    if (!left.ok()) return left;
    FormulaPtr acc = left.value();
    while (TryTake(TokenKind::kIffArrow)) {
      core::Result<FormulaPtr> right = ParseImplies();
      if (!right.ok()) return right;
      acc = Formula::Iff(acc, right.value());
      if (acc->Size() > kMaxFormulaNodes) return TooLarge();
    }
    return acc;
  }

  core::Result<FormulaPtr> ParseImplies() {
    core::Result<FormulaPtr> left = ParseOr();
    if (!left.ok()) return left;
    if (!TryTake(TokenKind::kArrow)) return left;
    core::Result<FormulaPtr> right =
        Nested([this] { return ParseImplies(); });  // right associative
    if (!right.ok()) return right;
    return FormulaPtr(Formula::Implies(left.value(), right.value()));
  }

  core::Result<FormulaPtr> ParseOr() {
    core::Result<FormulaPtr> left = ParseAnd();
    if (!left.ok()) return left;
    std::vector<FormulaPtr> operands{left.value()};
    while (TryTake(TokenKind::kPipe)) {
      core::Result<FormulaPtr> next = ParseAnd();
      if (!next.ok()) return next;
      operands.push_back(next.value());
    }
    return FormulaPtr(Formula::Or(std::move(operands)));
  }

  core::Result<FormulaPtr> ParseAnd() {
    core::Result<FormulaPtr> left = ParseUnary();
    if (!left.ok()) return left;
    std::vector<FormulaPtr> operands{left.value()};
    while (TryTake(TokenKind::kAmp)) {
      core::Result<FormulaPtr> next = ParseUnary();
      if (!next.ok()) return next;
      operands.push_back(next.value());
    }
    return FormulaPtr(Formula::And(std::move(operands)));
  }

  core::Result<FormulaPtr> ParseUnary() {
    if (TryTake(TokenKind::kBang)) {
      core::Result<FormulaPtr> inner = Nested([this] { return ParseUnary(); });
      if (!inner.ok()) return inner;
      return FormulaPtr(Formula::Not(inner.value()));
    }
    if (Peek().kind == TokenKind::kIdent &&
        (Peek().text == "exists" || Peek().text == "forall")) {
      bool existential = Take().text == "exists";
      std::vector<std::string> variables;
      while (Peek().kind == TokenKind::kIdent) {
        variables.push_back(Take().text);
      }
      if (variables.empty()) return Error("quantifier needs variables");
      if (!TryTake(TokenKind::kDot)) return Error("expected '.' after quantifier");
      core::Result<FormulaPtr> body = Nested([this] { return ParseUnary(); });
      if (!body.ok()) return body;
      return FormulaPtr(existential ? Formula::Exists(variables, body.value())
                                    : Formula::Forall(variables, body.value()));
    }
    return ParsePrimary();
  }

  core::Result<FormulaPtr> ParsePrimary() {
    const Token& token = Peek();
    if (token.kind == TokenKind::kLParen) {
      Take();
      core::Result<FormulaPtr> inner = Nested([this] { return ParseIff(); });
      if (!inner.ok()) return inner;
      if (!TryTake(TokenKind::kRParen)) return Error("missing ')'");
      return inner;
    }
    if (token.kind == TokenKind::kIdent && token.text == "true") {
      Take();
      return FormulaPtr(Formula::True());
    }
    if (token.kind == TokenKind::kIdent && token.text == "false") {
      Take();
      return FormulaPtr(Formula::False());
    }
    // BIT(t1, t2), relation atom, macro call — or a comparison.
    if (token.kind == TokenKind::kIdent &&
        tokens_[position_ + 1].kind == TokenKind::kLParen &&
        token.text != "min" && token.text != "max") {
      return ParseCall();
    }
    return ParseComparison();
  }

  core::Result<FormulaPtr> ParseCall() {
    std::string name = Take().text;
    DYNFO_CHECK(TryTake(TokenKind::kLParen));
    std::vector<Term> args;
    if (!TryTake(TokenKind::kRParen)) {
      while (true) {
        core::Result<Term> term = ParseTerm();
        if (!term.ok()) return term.status();
        args.push_back(term.value());
        if (TryTake(TokenKind::kRParen)) break;
        if (!TryTake(TokenKind::kComma)) return Error("expected ',' or ')'");
      }
    }
    if (name == "BIT") {
      if (args.size() != 2) return Error("BIT takes two arguments");
      return FormulaPtr(Formula::Bit(args[0], args[1]));
    }
    int relation = environment_.vocabulary().RelationIndex(name);
    if (relation >= 0) {
      int arity = environment_.vocabulary().relation(relation).arity;
      if (static_cast<int>(args.size()) != arity) {
        return Error("relation " + name + " has arity " + std::to_string(arity));
      }
      return FormulaPtr(Formula::Atom(name, std::move(args)));
    }
    auto macro = environment_.macros_.find(name);
    if (macro != environment_.macros_.end()) {
      if (args.size() != macro->second.parameters.size()) {
        return Error("macro " + name + " takes " +
                     std::to_string(macro->second.parameters.size()) + " arguments");
      }
      // Each call copies the body: count copies before they fill memory.
      macro_nodes_ += macro->second.body->Size();
      if (macro_nodes_ > kMaxFormulaNodes) return TooLarge();
      std::map<std::string, Term> substitution;
      for (size_t i = 0; i < args.size(); ++i) {
        substitution.emplace(macro->second.parameters[i], args[i]);
      }
      return FormulaPtr(Formula::Substitute(macro->second.body, substitution));
    }
    return Error("unknown relation or macro " + name);
  }

  core::Result<FormulaPtr> ParseComparison() {
    core::Result<Term> left = ParseTerm();
    if (!left.ok()) return left.status();
    switch (Peek().kind) {
      case TokenKind::kEq:
        Take();
        break;
      case TokenKind::kNeq: {
        Take();
        core::Result<Term> right = ParseTerm();
        if (!right.ok()) return right.status();
        return FormulaPtr(Formula::Not(Formula::Eq(left.value(), right.value())));
      }
      case TokenKind::kLe: {
        Take();
        core::Result<Term> right = ParseTerm();
        if (!right.ok()) return right.status();
        return FormulaPtr(Formula::Le(left.value(), right.value()));
      }
      case TokenKind::kLt: {
        Take();
        core::Result<Term> right = ParseTerm();
        if (!right.ok()) return right.status();
        return FormulaPtr(Formula::And(
            {Formula::Le(left.value(), right.value()),
             Formula::Not(Formula::Eq(left.value(), right.value()))}));
      }
      default:
        return Error("expected a comparison operator");
    }
    core::Result<Term> right = ParseTerm();
    if (!right.ok()) return right.status();
    return FormulaPtr(Formula::Eq(left.value(), right.value()));
  }

  core::Result<Term> ParseTerm() {
    const Token token = Take();
    switch (token.kind) {
      case TokenKind::kNumber:
        return Term::Number(token.number);
      case TokenKind::kParam:
        if (token.number >= relational::Tuple::kMaxArity) {
          return core::Status::Error("parameter index too large: " + token.text);
        }
        return Term::Param(static_cast<int>(token.number));
      case TokenKind::kIdent:
        if (token.text == "min") return Term::Min();
        if (token.text == "max") return Term::Max();
        if (environment_.vocabulary().ConstantIndex(token.text) >= 0) {
          return Term::Const(token.text);
        }
        return Term::Var(token.text);
      default:
        return core::Status::Error("expected a term at offset " +
                                   std::to_string(token.offset));
    }
  }

  const ParserEnvironment& environment_;
  std::vector<Token> tokens_;
  size_t position_ = 0;
  int depth_ = 0;  ///< nesting levels open (see Nested)
  int64_t macro_nodes_ = 0;  ///< nodes copied by macro calls so far
};

core::Status ParserEnvironment::DefineMacro(const std::string& name,
                                            std::vector<std::string> parameters,
                                            const std::string& body) {
  if (vocabulary_->RelationIndex(name) >= 0) {
    return core::Status::Error("macro " + name + " collides with a relation");
  }
  core::Result<FormulaPtr> parsed = Parse(body);
  if (!parsed.ok()) {
    return core::Status::Error("in macro " + name + ": " + parsed.status().message());
  }
  macros_[name] = Macro{std::move(parameters), parsed.value()};
  return core::Status();
}

core::Result<FormulaPtr> ParserEnvironment::Parse(const std::string& text) const {
  core::Result<std::vector<Token>> tokens = Tokenize(text);
  if (!tokens.ok()) return tokens.status();
  ParserImpl parser(*this, std::move(tokens).value());
  return parser.Run();
}

core::Result<FormulaPtr> ParseFormula(
    const std::string& text,
    std::shared_ptr<const relational::Vocabulary> vocabulary) {
  ParserEnvironment environment(std::move(vocabulary));
  return environment.Parse(text);
}

}  // namespace dynfo::fo
