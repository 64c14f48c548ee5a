#include <gtest/gtest.h>

#include <memory>

#include "dynfo/engine.h"
#include "dynfo/program.h"
#include "dynfo/workload.h"
#include "fo/builder.h"

namespace dynfo::dyn {
namespace {

using fo::EqT;
using fo::Exists;
using fo::F;
using fo::N;
using fo::P0;
using fo::P1;
using fo::Rel;
using fo::V;
using relational::Request;
using relational::RequestKind;
using relational::Tuple;
using relational::Vocabulary;

std::shared_ptr<const Vocabulary> EdgeInput() {
  auto v = std::make_shared<Vocabulary>();
  v->AddRelation("E", 2);
  v->AddConstant("s");
  return v;
}

/// A toy program: maintain D(x) = "x has an outgoing edge" under inserts
/// (deletes recompute D from E wholesale, exercising both paths).
std::shared_ptr<DynProgram> MakeOutDegreeProgram() {
  auto data = std::make_shared<Vocabulary>();
  data->AddRelation("E", 2);
  data->AddRelation("D", 1);
  data->AddConstant("s");
  auto program = std::make_shared<DynProgram>("outdeg", EdgeInput(), data);
  // ins: D'(x) = D(x) | x = $0 — delta-classifiable.
  program->AddUpdate(RequestKind::kInsert, "E",
                     {"D", {"x"}, Rel("D", {V("x")}) || EqT(V("x"), P0())});
  // del: D'(x) = exists y. E(x, y) & !(x = $0 & y = $1) — full recompute.
  program->AddUpdate(RequestKind::kDelete, "E",
                     {"D",
                      {"x"},
                      Exists({"y"}, Rel("E", {V("x"), V("y")}) &&
                                        !(EqT(V("x"), P0()) && EqT(V("y"), P1())))});
  program->SetBoolQuery(Exists({"x"}, Rel("D", {V("x")})));
  return program;
}

TEST(EngineTest, AutoMirrorsInputRelation) {
  Engine engine(MakeOutDegreeProgram(), 4);
  engine.Apply(Request::Insert("E", {1, 2}));
  EXPECT_TRUE(engine.data().relation("E").Contains({1, 2}));
  engine.Apply(Request::Delete("E", {1, 2}));
  EXPECT_FALSE(engine.data().relation("E").Contains({1, 2}));
}

TEST(EngineTest, AutoMirrorsConstants) {
  Engine engine(MakeOutDegreeProgram(), 4);
  engine.Apply(Request::SetConstant("s", 3));
  EXPECT_EQ(engine.data().constant("s"), 3u);
}

TEST(EngineTest, UpdateRulesFire) {
  Engine engine(MakeOutDegreeProgram(), 4);
  EXPECT_FALSE(engine.QueryBool());
  engine.Apply(Request::Insert("E", {1, 2}));
  EXPECT_TRUE(engine.QueryBool());
  EXPECT_TRUE(engine.data().relation("D").Contains({1}));
  engine.Apply(Request::Delete("E", {1, 2}));
  EXPECT_FALSE(engine.QueryBool());
}

TEST(EngineTest, SynchronousSemanticsReadOldState) {
  // A program whose rule copies E into Prev: after ins(E, t), Prev must hold
  // the *pre-insert* E (synchronous reads).
  auto data = std::make_shared<Vocabulary>();
  data->AddRelation("E", 2);
  data->AddRelation("Prev", 2);
  auto program = std::make_shared<DynProgram>("prev", EdgeInput(), data);
  program->AddUpdate(RequestKind::kInsert, "E",
                     {"Prev", {"x", "y"}, Rel("E", {V("x"), V("y")})});
  program->SetBoolQuery(Rel("Prev", {N(0), N(1)}));
  Engine engine(program, 4);
  engine.Apply(Request::Insert("E", {0, 1}));
  EXPECT_FALSE(engine.QueryBool()) << "Prev must see E before the insert";
  engine.Apply(Request::Insert("E", {2, 3}));
  EXPECT_TRUE(engine.QueryBool());
}

TEST(EngineTest, LetsAreVisibleToUpdates) {
  // let Tmp(x) = x = $0; update D(x) = Tmp(x). D ends up {a}.
  auto data = std::make_shared<Vocabulary>();
  data->AddRelation("E", 2);
  data->AddRelation("Tmp", 1);
  data->AddRelation("D", 1);
  auto program = std::make_shared<DynProgram>("lets", EdgeInput(), data);
  program->AddLet(RequestKind::kInsert, "E", {"Tmp", {"x"}, EqT(V("x"), P0())});
  program->AddUpdate(RequestKind::kInsert, "E", {"D", {"x"}, Rel("Tmp", {V("x")})});
  program->SetBoolQuery(Rel("D", {N(2)}));
  Engine engine(program, 4);
  engine.Apply(Request::Insert("E", {2, 0}));
  EXPECT_TRUE(engine.QueryBool());
  EXPECT_TRUE(engine.data().relation("Tmp").Contains({2}));
}

TEST(EngineTest, InitRulesRunInOrder) {
  auto data = std::make_shared<Vocabulary>();
  data->AddRelation("E", 2);
  data->AddRelation("A", 1);
  data->AddRelation("B", 1);
  auto program = std::make_shared<DynProgram>("init", EdgeInput(), data);
  program->AddInit({"A", {"x"}, EqT(V("x"), fo::Term::Min())});
  program->SetBoolQuery(Rel("A", {N(0)}));
  Engine engine(program, 4);
  EXPECT_TRUE(engine.QueryBool());
}

TEST(EngineTest, ValidateRejectsStrayFreeVariable) {
  auto data = std::make_shared<Vocabulary>();
  data->AddRelation("E", 2);
  data->AddRelation("D", 1);
  auto program = std::make_shared<DynProgram>("bad", EdgeInput(), data);
  program->AddUpdate(RequestKind::kInsert, "E",
                     {"D", {"x"}, Rel("E", {V("x"), V("y")})});
  EXPECT_FALSE(program->Validate().ok());
}

TEST(EngineTest, ValidateRejectsArityMismatch) {
  auto data = std::make_shared<Vocabulary>();
  data->AddRelation("E", 2);
  data->AddRelation("D", 1);
  auto program = std::make_shared<DynProgram>("bad", EdgeInput(), data);
  program->AddUpdate(RequestKind::kInsert, "E",
                     {"D", {"x", "y"}, Rel("E", {V("x"), V("y")})});
  EXPECT_FALSE(program->Validate().ok());
}

TEST(EngineTest, ValidateRejectsExcessParameter) {
  auto data = std::make_shared<Vocabulary>();
  data->AddRelation("E", 2);
  data->AddRelation("D", 1);
  auto program = std::make_shared<DynProgram>("bad", EdgeInput(), data);
  // ins(E, ...) supplies $0 and $1 only.
  program->AddUpdate(RequestKind::kInsert, "E",
                     {"D", {"x"}, EqT(V("x"), fo::Term::Param(2))});
  EXPECT_FALSE(program->Validate().ok());
}

TEST(EngineTest, ValidateRejectsUnknownTarget) {
  auto data = std::make_shared<Vocabulary>();
  data->AddRelation("E", 2);
  auto program = std::make_shared<DynProgram>("bad", EdgeInput(), data);
  program->AddUpdate(RequestKind::kInsert, "E", {"Ghost", {"x"}, EqT(V("x"), P0())});
  EXPECT_FALSE(program->Validate().ok());
}

TEST(EngineTest, ValidateRejectsMirrorArityMismatch) {
  // ins E is mirrored into the data relation E, which must be binary too.
  auto data = std::make_shared<Vocabulary>();
  data->AddRelation("E", 3);
  auto program = std::make_shared<DynProgram>("bad", EdgeInput(), data);
  EXPECT_FALSE(program->Validate().ok());
}

TEST(EngineTest, ValidateRejectsTwoUpdatesOfOneTarget) {
  auto data = std::make_shared<Vocabulary>();
  data->AddRelation("E", 2);
  data->AddRelation("D", 1);
  auto program = std::make_shared<DynProgram>("bad", EdgeInput(), data);
  program->AddUpdate(RequestKind::kInsert, "E", {"D", {"x"}, EqT(V("x"), P0())});
  program->AddUpdate(RequestKind::kInsert, "E",
                     {"D", {"x"}, Rel("D", {V("x")})});
  EXPECT_FALSE(program->Validate().ok());
  // One target per request kind: the same target under another kind is fine.
  auto split = std::make_shared<DynProgram>("ok", EdgeInput(), data);
  split->AddUpdate(RequestKind::kInsert, "E", {"D", {"x"}, EqT(V("x"), P0())});
  split->AddUpdate(RequestKind::kDelete, "E", {"D", {"x"}, Rel("D", {V("x")})});
  EXPECT_TRUE(split->Validate().ok());
}

TEST(EngineTest, AllExecutionModesAgree) {
  // Drive the same random workload through all four engine configurations;
  // data structures must match exactly after every request.
  GenericWorkloadOptions options;
  options.num_requests = 60;
  options.seed = 42;
  relational::RequestSequence requests = MakeGenericWorkload(*EdgeInput(), 5, options);

  auto program = MakeOutDegreeProgram();
  Engine naive(program, 5, {EvalMode::kNaive, false});
  Engine algebra(program, 5, {EvalMode::kAlgebra, false});
  Engine delta(program, 5, {EvalMode::kAlgebra, true});
  for (const Request& request : requests) {
    naive.Apply(request);
    algebra.Apply(request);
    delta.Apply(request);
    ASSERT_EQ(naive.data(), algebra.data()) << "after " << request.ToString();
    ASSERT_EQ(naive.data(), delta.data()) << "after " << request.ToString();
  }
  EXPECT_GT(delta.stats().delta_applications, 0u);
  EXPECT_GT(algebra.stats().relations_recomputed, 0u);
}

TEST(EngineTest, StatsCountRequests) {
  Engine engine(MakeOutDegreeProgram(), 4);
  engine.Apply(Request::Insert("E", {0, 1}));
  engine.Apply(Request::Delete("E", {0, 1}));
  EXPECT_EQ(engine.stats().requests, 2u);
}

TEST(EngineDeathTest, RejectsMoreThanOneThreadAtConstruction) {
  EngineOptions options;
  options.num_threads = 4;
  EXPECT_DEATH(Engine(MakeOutDegreeProgram(), 4, options), "num_threads is fixed at 1");
}

TEST(EngineTest, QueryRelationNamedQueries) {
  auto data = std::make_shared<Vocabulary>();
  data->AddRelation("E", 2);
  auto program = std::make_shared<DynProgram>("named", EdgeInput(), data);
  program->SetBoolQuery(Exists({"x", "y"}, Rel("E", {V("x"), V("y")})));
  program->AddNamedQuery("succ", {{"x", "y"}, Rel("E", {V("x"), V("y")})});
  Engine engine(program, 4);
  engine.Apply(Request::Insert("E", {1, 3}));
  relational::Relation succ = engine.QueryRelation("succ");
  EXPECT_TRUE(succ.Contains({1, 3}));
  EXPECT_EQ(succ.size(), 1u);
}

}  // namespace
}  // namespace dynfo::dyn
