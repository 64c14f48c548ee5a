#include <gtest/gtest.h>

#include <map>
#include <sstream>
#include <vector>

#include "core/rng.h"
#include "relational/serialize.h"
#include "test_util.h"

namespace dynfo::relational {
namespace {

std::shared_ptr<const Vocabulary> GraphVocabulary() {
  auto v = std::make_shared<Vocabulary>();
  v->AddRelation("E", 2);
  v->AddRelation("U", 1);
  v->AddConstant("s");
  return v;
}

TEST(SerializeTest, GoldenFormat) {
  Structure s(GraphVocabulary(), 4);
  s.relation("E").Insert({1, 2});
  s.relation("E").Insert({0, 1});
  s.relation("U").Insert({3});
  s.set_constant("s", 2);
  EXPECT_EQ(WriteStructure(s),
            "structure n=4\n"
            "rel E 0 1\n"
            "rel E 1 2\n"
            "rel U 3\n"
            "const s 2\n"
            "end\n");

  // The cases a sort-key or formatting shortcut could get wrong, each
  // pinned byte for byte.
  {
    // Dense pages with zero runs and live words. A copy pins the arity-2
    // page, so the later writes are an overlay the writer has to fold.
    auto vocab = std::make_shared<Vocabulary>();
    vocab->AddRelation("U", 1);
    vocab->AddRelation("P", 2);
    Structure dense(vocab, 130);
    Relation& u = dense.relation("U");
    u.ConfigureBackend(BackendPolicy::kForceDense, 130);
    u.Insert({1});
    u.Insert({129});
    Relation& p = dense.relation("P");
    p.ConfigureBackend(BackendPolicy::kForceDense, 130);
    p.Insert({0, 0});
    p.Insert({2, 1});
    const Relation pinned = p;
    p.Insert({1, 2});
    p.Erase({0, 0});
    ASSERT_EQ(u.backend(), RelationBackend::kDense);
    ASSERT_EQ(p.backend(), RelationBackend::kDense);
    ASSERT_GT(p.OverlaySize(), 0u);
    EXPECT_EQ(WriteStructure(dense),
              "structure n=130\n"
              "dense U words=3 0000000000000002 z1 0000000000000002\n"
              "dense P words=390 z3 0000000000000004 z2 0000000000000002 z383\n"
              "end\n");
  }
  {
    // An arity-3 hash relation read through a base shared with a copy, with
    // both added and removed overlay tuples; then a nullary relation.
    auto vocab = std::make_shared<Vocabulary>();
    vocab->AddRelation("T", 3);
    vocab->AddRelation("B", 0);
    Structure shared(vocab, 300);
    Relation& t = shared.relation("T");
    for (const Tuple& tuple : {Tuple{1, 2, 3}, Tuple{256, 5, 7}, Tuple{0, 0, 1},
                               Tuple{255, 299, 0}, Tuple{2, 1, 0}, Tuple{1, 2, 256}}) {
      t.Insert(tuple);
    }
    const Relation copy = t;
    t.Insert({255, 0, 1});
    t.Insert({3, 3, 3});
    t.Erase({1, 2, 3});
    t.Erase({256, 5, 7});
    ASSERT_TRUE(t.SharesStorageWith(copy));
    ASSERT_EQ(t.OverlaySize(), 4u);
    shared.relation("B").Insert({});
    EXPECT_EQ(WriteStructure(shared),
              "structure n=300\n"
              "rel T 0 0 1\n"
              "rel T 1 2 256\n"
              "rel T 2 1 0\n"
              "rel T 3 3 3\n"
              "rel T 255 0 1\n"
              "rel T 255 299 0\n"
              "rel B\n"
              "end\n");
  }
  {
    // n = 2^32: elements on every byte boundary up to the largest element,
    // and arity 4 spans the full 128 bits of four elements.
    auto vocab = std::make_shared<Vocabulary>();
    vocab->AddRelation("R1", 1);
    vocab->AddRelation("R2", 2);
    vocab->AddRelation("R3", 3);
    vocab->AddRelation("R4", 4);
    vocab->AddConstant("c");
    Structure full(vocab, size_t{1} << 32);
    constexpr Element kTop = 4294967295u;
    for (Element e : {kTop, 65536u, 256u, 0u, 65535u, 255u}) full.relation("R1").Insert({e});
    for (const Tuple& t : {Tuple{kTop, 0}, Tuple{256, 255}, Tuple{65535, kTop},
                           Tuple{255, 256}, Tuple{65536, 0}}) {
      full.relation("R2").Insert(t);
    }
    for (const Tuple& t : {Tuple{kTop, kTop, kTop}, Tuple{1, 65536, 255},
                           Tuple{0, 0, 256}, Tuple{1, 65535, 256}}) {
      full.relation("R3").Insert(t);
    }
    for (const Tuple& t : {Tuple{65536, 65535, 256, 255}, Tuple{0, kTop, 256, 255},
                           Tuple{kTop, 0, 0, 0}, Tuple{0, 0, 0, 1},
                           Tuple{0, kTop, 255, 256}}) {
      full.relation("R4").Insert(t);
    }
    full.set_constant("c", kTop);
    EXPECT_EQ(WriteStructure(full),
              "structure n=4294967296\n"
              "rel R1 0\n"
              "rel R1 255\n"
              "rel R1 256\n"
              "rel R1 65535\n"
              "rel R1 65536\n"
              "rel R1 4294967295\n"
              "rel R2 255 256\n"
              "rel R2 256 255\n"
              "rel R2 65535 4294967295\n"
              "rel R2 65536 0\n"
              "rel R2 4294967295 0\n"
              "rel R3 0 0 256\n"
              "rel R3 1 65535 256\n"
              "rel R3 1 65536 255\n"
              "rel R3 4294967295 4294967295 4294967295\n"
              "rel R4 0 0 0 1\n"
              "rel R4 0 4294967295 255 256\n"
              "rel R4 0 4294967295 256 255\n"
              "rel R4 65536 65535 256 255\n"
              "rel R4 4294967295 0 0 0\n"
              "const c 4294967295\n"
              "end\n");
  }
}

/// Fails unless each relation's `rel` lines in `text` list its tuples in
/// strictly ascending order. A wrong sort digit still round-trips, so this
/// is the check that catches it.
void ExpectRelLinesAscending(const std::string& text) {
  std::istringstream lines(text);
  std::string line;
  std::map<std::string, std::vector<uint64_t>> last;
  while (std::getline(lines, line)) {
    std::istringstream words(line);
    std::string keyword, name;
    words >> keyword;
    if (keyword != "rel") continue;
    words >> name;
    std::vector<uint64_t> tuple;
    for (uint64_t e; words >> e;) tuple.push_back(e);
    auto previous = last.find(name);
    if (previous != last.end()) {
      EXPECT_LT(previous->second, tuple) << "rel " << name << " out of order at: " << line;
    }
    last[name] = std::move(tuple);
  }
}

TEST(SerializeTest, RoundTripRandomStructures) {
  auto vocab = GraphVocabulary();
  core::Rng rng(17);
  for (int trial = 0; trial < 20; ++trial) {
    Structure original(vocab, 3 + rng.Below(6));
    dynfo::testing::RandomizeStructure(&original, &rng, 0.4);
    const std::string text = WriteStructure(original);
    ExpectRelLinesAscending(text);
    core::Result<Structure> reread = ReadStructure(text, vocab);
    ASSERT_TRUE(reread.ok()) << reread.status().message();
    EXPECT_EQ(reread.value(), original);
  }
  // Universes on and past byte boundaries. RandomizeStructure enumerates
  // all n^arity tuples, so the large universes stay at low arity.
  struct Shape {
    int arity;
    std::vector<size_t> universes;
  };
  for (const Shape& shape : {Shape{1, {1, 2, 256, 257}}, Shape{2, {1, 2, 256, 257}},
                             Shape{3, {2, 17}}, Shape{4, {2, 9}}}) {
    auto wide = std::make_shared<Vocabulary>();
    wide->AddRelation("R", shape.arity);
    wide->AddRelation("S", shape.arity);
    for (size_t n : shape.universes) {
      Structure original(wide, n);
      dynfo::testing::RandomizeStructure(&original, &rng, 0.4);
      const std::string text = WriteStructure(original);
      ExpectRelLinesAscending(text);
      core::Result<Structure> reread = ReadStructure(text, wide);
      ASSERT_TRUE(reread.ok()) << reread.status().message();
      EXPECT_EQ(reread.value(), original) << "arity " << shape.arity << ", n=" << n;
    }
  }
}

TEST(SerializeTest, CommentsAndBlankLinesIgnored) {
  auto parsed = ReadStructure(
      "# a saved session\n"
      "structure n=3\n"
      "\n"
      "rel E 0 1  # the only edge\n"
      "end\n",
      GraphVocabulary());
  ASSERT_TRUE(parsed.ok()) << parsed.status().message();
  EXPECT_TRUE(parsed.value().relation("E").Contains({0, 1}));
  EXPECT_EQ(parsed.value().relation("E").size(), 1u);
}

TEST(SerializeTest, Diagnostics) {
  auto vocab = GraphVocabulary();
  EXPECT_FALSE(ReadStructure("", vocab).ok());
  EXPECT_FALSE(ReadStructure("structure n=3\n", vocab).ok());  // missing end
  EXPECT_FALSE(ReadStructure("rel E 0 1\nend\n", vocab).ok());  // missing header
  EXPECT_FALSE(ReadStructure("structure n=0\nend\n", vocab).ok());
  EXPECT_FALSE(
      ReadStructure("structure n=3\nrel Ghost 0\nend\n", vocab).ok());
  EXPECT_FALSE(ReadStructure("structure n=3\nrel E 0\nend\n", vocab).ok());  // short
  EXPECT_FALSE(
      ReadStructure("structure n=3\nrel E 0 1 2\nend\n", vocab).ok());  // long
  EXPECT_FALSE(ReadStructure("structure n=3\nrel E 0 7\nend\n", vocab).ok());
  EXPECT_FALSE(ReadStructure("structure n=3\nconst t 1\nend\n", vocab).ok());
  EXPECT_FALSE(
      ReadStructure("structure n=3\nend\nrel E 0 1\n", vocab).ok());  // after end
}

}  // namespace
}  // namespace dynfo::relational
