#include <gtest/gtest.h>

#include <chrono>

#include "fo/builder.h"
#include "fo/eval_naive.h"
#include "fo/parser.h"

namespace dynfo::fo {
namespace {

using relational::Structure;
using relational::Vocabulary;

std::shared_ptr<const Vocabulary> GraphVocabulary() {
  auto v = std::make_shared<Vocabulary>();
  v->AddRelation("E", 2);
  v->AddRelation("PV", 3);
  v->AddConstant("s");
  v->AddConstant("t");
  return v;
}

TEST(ParserTest, AtomsAndTerms) {
  auto f = ParseFormula("E(x, y)", GraphVocabulary());
  ASSERT_TRUE(f.ok()) << f.status().message();
  EXPECT_EQ(f.value()->ToString(), "E(x, y)");

  auto g = ParseFormula("E(s, $1)", GraphVocabulary());
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(g.value()->ToString(), "E(s, $1)");
  EXPECT_EQ(g.value()->args()[0].kind(), TermKind::kConstantSymbol);

  auto h = ParseFormula("E(min, 3)", GraphVocabulary());
  ASSERT_TRUE(h.ok());
  EXPECT_EQ(h.value()->args()[1].kind(), TermKind::kNumber);
}

TEST(ParserTest, PrecedenceAndAssociativity) {
  // & binds tighter than |; -> is right associative and weakest but <->.
  auto f = ParseFormula("E(x,y) & E(y,z) | E(x,z)", GraphVocabulary());
  ASSERT_TRUE(f.ok());
  EXPECT_EQ(f.value()->kind(), FormulaKind::kOr);

  auto g = ParseFormula("E(x,y) -> E(y,z) -> E(x,z)", GraphVocabulary());
  ASSERT_TRUE(g.ok());
  // a -> (b -> c) = !a | (!b | c): outer Or with the negated antecedent.
  EXPECT_EQ(g.value()->kind(), FormulaKind::kOr);
}

TEST(ParserTest, QuantifiersAndComparisons) {
  auto f = ParseFormula("exists u v. (E(u, v) & u <= v & u != v)", GraphVocabulary());
  ASSERT_TRUE(f.ok());
  EXPECT_EQ(f.value()->kind(), FormulaKind::kExists);
  EXPECT_EQ(f.value()->variables().size(), 2u);
  EXPECT_TRUE(f.value()->FreeVariables().empty());

  auto g = ParseFormula("forall x. x < max | x = max", GraphVocabulary());
  ASSERT_TRUE(g.ok());

  auto h = ParseFormula("BIT(x, 2)", GraphVocabulary());
  ASSERT_TRUE(h.ok());
  EXPECT_EQ(h.value()->kind(), FormulaKind::kBit);
}

/// `E(s, t)` under `depth` levels of one nesting construct: '(' ... ')',
/// '!', an `exists` body, or a right-associated '->' chain.
std::vector<std::string> NestedFormulas(int depth) {
  std::string parens, bangs, quantifiers, arrows = "E(s, t)";
  for (int i = 0; i < depth; ++i) {
    parens += "(";
    bangs += "!";
    quantifiers += "exists x. ";
    arrows += " -> E(s, t)";
  }
  return {parens + "E(s, t)" + std::string(depth, ')'), bangs + "E(s, t)",
          quantifiers + "E(x, t)", arrows};
}

TEST(ParserTest, SyntaxErrors) {
  EXPECT_FALSE(ParseFormula("E(x", GraphVocabulary()).ok());
  EXPECT_FALSE(ParseFormula("E(x, y, z)", GraphVocabulary()).ok());  // arity
  EXPECT_FALSE(ParseFormula("Ghost(x)", GraphVocabulary()).ok());
  EXPECT_FALSE(ParseFormula("exists . E(x, y)", GraphVocabulary()).ok());
  EXPECT_FALSE(ParseFormula("x ==> y", GraphVocabulary()).ok());
  EXPECT_FALSE(ParseFormula("E(x, y) E(y, z)", GraphVocabulary()).ok());
  EXPECT_FALSE(ParseFormula("BIT(x)", GraphVocabulary()).ok());
  // One level past the nesting limit, for each construct that nests.
  for (const std::string& text : NestedFormulas(kMaxFormulaNesting + 1)) {
    auto parsed = ParseFormula(text, GraphVocabulary());
    ASSERT_FALSE(parsed.ok()) << text.substr(0, 40);
    EXPECT_NE(parsed.status().message().find("nested deeper"), std::string::npos)
        << parsed.status().message();
  }
}

TEST(ParserTest, NestingAtTheLimitParsesAndEvaluates) {
  auto vocab = GraphVocabulary();
  Structure structure(vocab, 4);
  structure.relation("E").Insert({0, 1});
  structure.set_constant("t", 1);
  EvalContext ctx(structure, {});
  // E(s, t) and exists x. E(x, t) hold here, and every wrapping keeps the
  // truth value (the '!' count, 256, is even), so each formula holds.
  for (const std::string& text : NestedFormulas(kMaxFormulaNesting)) {
    auto parsed = ParseFormula(text, vocab);
    ASSERT_TRUE(parsed.ok()) << parsed.status().message();
    EXPECT_TRUE(NaiveEvaluator::HoldsSentence(parsed.value(), ctx))
        << text.substr(0, 40);
  }
}

/// `copies` copies of E(s, t) joined by `<->`.
std::string IffChain(int copies) {
  std::string chain = "E(s, t)";
  for (int i = 1; i < copies; ++i) chain += " <-> E(s, t)";
  return chain;
}

TEST(ParserTest, LongIffChainIsRefusedQuickly) {
  const auto start = std::chrono::steady_clock::now();
  auto parsed = ParseFormula(IffChain(2000), GraphVocabulary());
  EXPECT_LT(std::chrono::steady_clock::now() - start, std::chrono::seconds(1));
  ASSERT_FALSE(parsed.ok());
  EXPECT_NE(parsed.status().message().find(
                "expands to more than " + std::to_string(kMaxFormulaNodes)),
            std::string::npos)
      << parsed.status().message();
}

TEST(ParserTest, IffChainAtTheBoundParsesAndEvaluates) {
  auto vocab = GraphVocabulary();
  // k copies expand to 8 * 2^(k-1) - 7 nodes: 65529 for 14, 131065 for 15.
  auto parsed = ParseFormula(IffChain(14), vocab);
  ASSERT_TRUE(parsed.ok()) << parsed.status().message();
  EXPECT_EQ(parsed.value()->Size(), 8 * (1 << 13) - 7);
  EXPECT_FALSE(ParseFormula(IffChain(15), vocab).ok());
  // Every link compares equal values, so the chain holds whether or not
  // E(s, t) does.
  Structure structure(vocab, 4);
  EvalContext ctx(structure, {});
  EXPECT_TRUE(NaiveEvaluator::HoldsSentence(parsed.value(), ctx));
  structure.relation("E").Insert({0, 0});
  EXPECT_TRUE(NaiveEvaluator::HoldsSentence(parsed.value(), ctx));
}

TEST(ParserTest, DoublingMacrosAreRefusedQuickly) {
  ParserEnvironment env(GraphVocabulary());
  ASSERT_TRUE(env.DefineMacro("M0", {"x"}, "E(x, x)").ok());
  const auto start = std::chrono::steady_clock::now();
  core::Status refused;
  int level = 1;
  for (; level <= 40; ++level) {
    const std::string call = "M" + std::to_string(level - 1) + "(x)";
    refused = env.DefineMacro("M" + std::to_string(level), {"x"},
                              call + " & " + call);
    if (!refused.ok()) break;
  }
  EXPECT_LT(std::chrono::steady_clock::now() - start, std::chrono::seconds(1));
  // And flattens, so M_k is one And over 2^k atoms, 2^k + 1 nodes: M15
  // (32769) is the last that fits, and M16's two calls copy 65538.
  EXPECT_EQ(level, 16);
  EXPECT_NE(refused.message().find(
                "expands to more than " + std::to_string(kMaxFormulaNodes)),
            std::string::npos)
      << refused.message();
  // Calls of a smaller macro add up: three copies of M14 (16385 nodes
  // each) fit, four do not.
  const std::string calls = "M14(x) | M14(x) | M14(x)";
  EXPECT_TRUE(env.Parse(calls).ok());
  EXPECT_FALSE(env.Parse(calls + " | M14(x)").ok());
}

TEST(ParserTest, MacrosExpandWithSubstitution) {
  ParserEnvironment env(GraphVocabulary());
  // The paper's abbreviations, verbatim.
  ASSERT_TRUE(env.DefineMacro("Conn", {"x", "y"}, "x = y | PV(x, y, x)").ok());
  ASSERT_TRUE(env
                  .DefineMacro("EqE", {"x", "y", "c", "d"},
                               "(x = c & y = d) | (x = d & y = c)")
                  .ok());
  auto f = env.Parse("Conn(s, t) & EqE(u, v, $0, $1)");
  ASSERT_TRUE(f.ok()) << f.status().message();
  EXPECT_EQ(f.value()->ToString(),
            "((s = t | PV(s, t, s)) & ((u = $0 & v = $1) | (u = $1 & v = $0)))");
}

TEST(ParserTest, MacroUsingMacro) {
  ParserEnvironment env(GraphVocabulary());
  ASSERT_TRUE(env.DefineMacro("Conn", {"x", "y"}, "x = y | PV(x, y, x)").ok());
  ASSERT_TRUE(env.DefineMacro("Sep", {"x", "y"}, "!Conn(x, y)").ok());
  auto f = env.Parse("Sep(min, max)");
  ASSERT_TRUE(f.ok());
  EXPECT_EQ(f.value()->ToString(), "!((min = max | PV(min, max, min)))");
}

TEST(ParserTest, MacroErrors) {
  ParserEnvironment env(GraphVocabulary());
  EXPECT_FALSE(env.DefineMacro("E", {"x"}, "x = x").ok());  // collides
  ASSERT_TRUE(env.DefineMacro("Two", {"x", "y"}, "x = y").ok());
  EXPECT_FALSE(env.Parse("Two(min)").ok());  // wrong argument count
}

TEST(ParserTest, RoundTripThroughPrinter) {
  // ToString output must re-parse to a formula with identical semantics.
  auto vocab = GraphVocabulary();
  const char* cases[] = {
      "E(x, y) & !(PV(x, y, x))",
      "exists u v. ((u = $0 & v = $1) | E(u, v))",
      "forall z. (E(x, z) -> z = y)",
      "BIT(x, min) | x <= t & s != t",
  };
  Structure structure(vocab, 4);
  structure.relation("E").Insert({0, 1});
  structure.relation("PV").Insert({0, 1, 0});
  structure.set_constant("t", 1);
  for (const char* text : cases) {
    auto first = ParseFormula(text, vocab);
    ASSERT_TRUE(first.ok()) << text << ": " << first.status().message();
    auto second = ParseFormula(first.value()->ToString(), vocab);
    ASSERT_TRUE(second.ok()) << first.value()->ToString();
    // Compare semantics over all assignments of the free variables.
    std::vector<std::string> free = first.value()->FreeVariables();
    ASSERT_EQ(free, second.value()->FreeVariables());
    ASSERT_LE(free.size(), 3u);
    EvalContext ctx(structure, {2, 3});
    relational::Relation a =
        NaiveEvaluator::EvaluateAsRelation(first.value(), free, ctx);
    relational::Relation b =
        NaiveEvaluator::EvaluateAsRelation(second.value(), free, ctx);
    EXPECT_EQ(a, b) << text;
  }
}

}  // namespace
}  // namespace dynfo::fo
