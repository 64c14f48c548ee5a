/// \file parser.h
/// A text syntax for first-order formulas, with the paper's abbreviation
/// style ("Eq(x, y, c, d)", "P(x, y)") available as user-defined macros.
///
/// Grammar (precedence low to high):
///   formula := iff
///   iff     := implies ('<->' implies)*
///   implies := or ('->' or)*            (right associative)
///   or      := and ('|' and)*
///   and     := unary ('&' unary)*
///   unary   := '!' unary
///            | ('exists' | 'forall') ident+ '.' unary
///            | comparison | '(' formula ')' | 'true' | 'false'
///   comparison := term ('=' | '!=' | '<=' | '<') term
///            | 'BIT' '(' term ',' term ')'
///            | name '(' term* ')'       (relation atom or macro call)
///   term    := 'min' | 'max' | number | '$' number | ident
///
/// An identifier denotes a declared constant symbol if the vocabulary has
/// one, otherwise a variable. '$k' is request parameter k. Macros expand by
/// capture-avoiding substitution of the argument terms.
///
/// Nesting is bounded: at most kMaxFormulaNesting of '(', '!', quantifier
/// bodies and '->' may be open at once. Deeper input is a parse error, so
/// hostile text (a wire `eval` frame, a spec) cannot overflow the stack of
/// the recursive-descent parser; so is a formula expanding past
/// kMaxFormulaNodes nodes, before anything walks it.

#ifndef DYNFO_FO_PARSER_H_
#define DYNFO_FO_PARSER_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/status.h"
#include "fo/formula.h"
#include "relational/vocabulary.h"

namespace dynfo::fo {

/// Far above any formula in specs/, far below the few thousand levels that
/// overflow an 8 MiB stack.
inline constexpr int kMaxFormulaNesting = 256;

/// The most nodes a parsed formula may expand to (Formula::Size()): `<->`
/// uses each side twice and a macro call copies its body, so k chained
/// `<->`s, or k macros each calling the last twice, expand to about 2^k.
/// Checked after each `<->` and macro call and at each formula's end.
inline constexpr int kMaxFormulaNodes = 65536;

/// Shared parsing context: which names are constants, which are relations
/// (with arities), and the macro table.
class ParserEnvironment {
 public:
  explicit ParserEnvironment(
      std::shared_ptr<const relational::Vocabulary> vocabulary)
      : vocabulary_(std::move(vocabulary)) {}

  /// Defines a macro: name(params...) expands to `body` with the call's
  /// argument terms substituted for the parameter variables. Macros may use
  /// previously defined macros in their body (expansion happens at
  /// definition parse time). Macro names must not collide with relations.
  core::Status DefineMacro(const std::string& name,
                           std::vector<std::string> parameters,
                           const std::string& body);

  /// Parses a formula.
  core::Result<FormulaPtr> Parse(const std::string& text) const;

  const relational::Vocabulary& vocabulary() const { return *vocabulary_; }

 private:
  friend class ParserImpl;

  struct Macro {
    std::vector<std::string> parameters;
    FormulaPtr body;
  };

  std::shared_ptr<const relational::Vocabulary> vocabulary_;
  std::map<std::string, Macro> macros_;
};

/// One-shot convenience without macros.
core::Result<FormulaPtr> ParseFormula(
    const std::string& text, std::shared_ptr<const relational::Vocabulary> vocabulary);

}  // namespace dynfo::fo

#endif  // DYNFO_FO_PARSER_H_
