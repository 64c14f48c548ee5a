#include <gtest/gtest.h>

#include <chrono>
#include <string>

#include "dynfo/loader.h"
#include "dynfo/verifier.h"
#include "dynfo/workload.h"
#include "fo/parser.h"
#include "programs/reach_acyclic.h"
#include "programs/reach_semidynamic.h"

namespace dynfo::dyn {
namespace {

using relational::Request;

/// Theorem 4.2's program, written entirely in the text format.
constexpr const char* kReachAcyclicSpec = R"(
# REACH on acyclic graphs (Theorem 4.2, Dong-Su)
program reach_acyclic_text
input {
  relation E/2
  constant s
  constant t
}
data {
  relation E/2
  relation P/2
  constant s
  constant t
}
init P(x, y) := x = y
on insert E {
  P(x, y) := P(x, y) | (P(x, $0) & P($1, y))
}
on delete E {
  P(x, y) := P(x, y) & (!E($0, $1) | !P(x, $0) | !P($1, y)
             | exists u v. (P(x, u) & P(u, $0) & E(u, v) & !P(v, $0) & P(v, y)
                            & (v != $1 | u != $0)))
}
query := P(s, t)
query path(x, y) := P(x, y)
)";

TEST(LoaderTest, LoadsReachAcyclicAndMatchesOracle) {
  auto loaded = LoadProgramFromText(kReachAcyclicSpec);
  ASSERT_TRUE(loaded.ok()) << loaded.status().message();
  EXPECT_EQ(loaded.value()->name(), "reach_acyclic_text");

  GraphWorkloadOptions workload;
  workload.num_requests = 120;
  workload.seed = 3;
  workload.preserve_acyclic = true;
  workload.set_fraction = 0.1;
  relational::RequestSequence requests = MakeGraphWorkload(
      *loaded.value()->input_vocabulary(), "E", 8, workload);

  VerifierResult result = VerifyProgram(
      loaded.value(), programs::ReachAcyclicOracle, 8, requests, {});
  EXPECT_TRUE(result.ok) << result.ToString();
}

TEST(LoaderTest, TextAndBuilderProgramsAgreeStateForState) {
  auto text_program = LoadProgramFromText(kReachAcyclicSpec).value();
  auto builder_program = programs::MakeReachAcyclicProgram();

  GraphWorkloadOptions workload;
  workload.num_requests = 80;
  workload.seed = 9;
  workload.preserve_acyclic = true;
  relational::RequestSequence requests =
      MakeGraphWorkload(*builder_program->input_vocabulary(), "E", 7, workload);

  Engine text_engine(text_program, 7);
  Engine builder_engine(builder_program, 7);
  for (const Request& request : requests) {
    text_engine.Apply(request);
    builder_engine.Apply(request);
    ASSERT_EQ(text_engine.data(), builder_engine.data())
        << "after " << request.ToString();
  }
}

TEST(LoaderTest, MacrosAndSemidynamic) {
  const char* spec = R"(
program semi
input {
  relation E/2
  constant s
  constant t
}
data {
  relation E/2
  relation P/2
  constant s
  constant t
}
macro Thru(x, y, a, b) := P(x, a) & P(b, y)
init P(x, y) := x = y
on insert E {
  P(x, y) := P(x, y) | Thru(x, y, $0, $1)
}
query := P(s, t)
semidynamic
)";
  auto loaded = LoadProgramFromText(spec);
  ASSERT_TRUE(loaded.ok()) << loaded.status().message();
  EXPECT_TRUE(loaded.value()->semi_dynamic());

  Engine engine(loaded.value(), 5);
  engine.Apply(Request::SetConstant("t", 2));
  engine.Apply(Request::Insert("E", {0, 1}));
  engine.Apply(Request::Insert("E", {1, 2}));
  EXPECT_TRUE(engine.QueryBool());
  EXPECT_DEATH(engine.Apply(Request::Delete("E", {0, 1})), "semi-dynamic");
}

TEST(LoaderTest, DoublingMacroSpecIsRefused) {
  // Each macro calls the last one twice: M40 would be an And over 2^40
  // atoms. The loader stops at the first macro past fo::kMaxFormulaNodes.
  std::string spec =
      "program doubling\ninput {\n  relation E/2\n}\n"
      "data {\n  relation E/2\n}\nmacro M0(x) := E(x, x)\n";
  for (int level = 1; level <= 40; ++level) {
    const std::string call = "M" + std::to_string(level - 1) + "(x)";
    spec += "macro M" + std::to_string(level) + "(x) := " + call + " & " +
            call + "\n";
  }
  spec += "query := exists x. M40(x)\n";
  const auto start = std::chrono::steady_clock::now();
  auto loaded = LoadProgramFromText(spec);
  EXPECT_LT(std::chrono::steady_clock::now() - start, std::chrono::seconds(1));
  ASSERT_FALSE(loaded.ok());
  EXPECT_NE(loaded.status().message().find(
                "expands to more than " + std::to_string(fo::kMaxFormulaNodes)),
            std::string::npos)
      << loaded.status().message();
}

TEST(LoaderTest, Diagnostics) {
  EXPECT_FALSE(LoadProgramFromText("").ok());
  EXPECT_FALSE(LoadProgramFromText("program x\n").ok());  // missing blocks
  auto bad_formula = LoadProgramFromText(R"(
program x
input {
  relation E/2
}
data {
  relation E/2
  relation P/2
}
on insert E {
  P(x, y) := P(x, | y)
}
)");
  EXPECT_FALSE(bad_formula.ok());
  auto stray_var = LoadProgramFromText(R"(
program x
input {
  relation E/2
}
data {
  relation E/2
  relation P/2
}
on insert E {
  P(x, y) := P(x, z)
}
)");
  EXPECT_FALSE(stray_var.ok());  // Validate(): z not among tuple variables
  auto bad_arity = LoadProgramFromText(R"(
program x
input {
  relation E/9
}
data {
  relation E/2
}
)");
  EXPECT_FALSE(bad_arity.ok());

  // Repeated or empty symbol names and repeated named queries: each one a
  // line-numbered load error, not a CHECK failure in Vocabulary or
  // DynProgram.
  const std::pair<const char*, const char*> bad_symbols[] = {
      {"line 4: duplicate symbol name: M", R"(program x
input {
  relation M/1
  relation M/1
}
data {
  relation M/1
}
)"},
      {"line 3: missing symbol name", R"(program x
input {
  relation /1
}
data {
  relation M/1
}
)"},
      {"line 8: duplicate symbol name: M", R"(program x
input {
  relation M/1
}
data {
  relation M/1
  relation P/1
  constant M
}
)"},
      {"line 9: duplicate named query q", R"(program x
input {
  relation M/1
}
data {
  relation M/1
}
query q(x) := M(x)
query q(x) := !M(x)
)"},
  };
  for (const auto& [message, spec] : bad_symbols) {
    auto loaded = LoadProgramFromText(spec);
    ASSERT_FALSE(loaded.ok()) << spec;
    EXPECT_NE(loaded.status().message().find(message), std::string::npos)
        << loaded.status().message();
  }

  // Shapes that load but would abort or split the backends on the first
  // write: Validate() rejects them.
  auto mirror_arity = LoadProgramFromText(R"(
program x
input {
  relation M/1
}
data {
  relation M/2
}
)");
  ASSERT_FALSE(mirror_arity.ok());
  EXPECT_NE(mirror_arity.status().message().find("arity"), std::string::npos)
      << mirror_arity.status().message();
  auto twice_targeted = LoadProgramFromText(R"(
program x
input {
  relation M/1
}
data {
  relation M/1
  relation P/1
}
on insert M {
  P(x) := P(x) | x = $0
  P(x) := P(x)
}
)");
  ASSERT_FALSE(twice_targeted.ok());
  EXPECT_NE(twice_targeted.status().message().find("two update rules target P"),
            std::string::npos)
      << twice_targeted.status().message();
}

}  // namespace
}  // namespace dynfo::dyn
