#include <gtest/gtest.h>

#include "fo/named_relation.h"

namespace dynfo::fo {
namespace {

NamedRelation Make(std::vector<std::string> columns,
                   std::vector<Row> rows) {
  NamedRelation out(std::move(columns));
  for (Row& row : rows) out.AddRow(std::move(row));
  return out;
}

TEST(NamedRelationTest, UnitIsJoinIdentity) {
  NamedRelation unit = NamedRelation::Unit();
  EXPECT_EQ(unit.width(), 0);
  EXPECT_EQ(unit.size(), 1u);
  NamedRelation r = Make({"x"}, {{1}, {2}});
  EXPECT_EQ(unit.Join(r).size(), 2u);
  EXPECT_EQ(r.Join(unit).size(), 2u);
}

TEST(NamedRelationTest, EmptyAnnihilatesJoin) {
  NamedRelation empty({});
  NamedRelation r = Make({"x"}, {{1}});
  EXPECT_TRUE(empty.Join(r).empty());
}

TEST(NamedRelationTest, NaturalJoinOnSharedColumn) {
  NamedRelation left = Make({"x", "y"}, {{1, 2}, {3, 4}});
  NamedRelation right = Make({"y", "z"}, {{2, 7}, {2, 8}, {5, 9}});
  NamedRelation joined = left.Join(right);
  EXPECT_EQ(joined.width(), 3);
  EXPECT_EQ(joined.size(), 2u);  // (1,2,7), (1,2,8)
  EXPECT_TRUE(joined.rows().count({1, 2, 7}) > 0);
  EXPECT_TRUE(joined.rows().count({1, 2, 8}) > 0);
}

TEST(NamedRelationTest, CrossJoinWhenDisjoint) {
  NamedRelation left = Make({"x"}, {{1}, {2}});
  NamedRelation right = Make({"y"}, {{5}, {6}});
  EXPECT_EQ(left.Join(right).size(), 4u);
}

TEST(NamedRelationTest, SemiJoinAndAntiJoin) {
  NamedRelation r = Make({"x", "y"}, {{1, 2}, {3, 4}, {5, 6}});
  NamedRelation keys = Make({"x"}, {{1}, {5}});
  EXPECT_EQ(r.SemiJoin(keys, /*anti=*/false).size(), 2u);
  NamedRelation anti = r.SemiJoin(keys, /*anti=*/true);
  EXPECT_EQ(anti.size(), 1u);
  EXPECT_TRUE(anti.rows().count({3, 4}) > 0);
}

TEST(NamedRelationTest, ComplementWithin) {
  NamedRelation r = Make({"x"}, {{0}, {2}});
  NamedRelation c = r.ComplementWithin(4);
  EXPECT_EQ(c.size(), 2u);
  EXPECT_TRUE(c.rows().count({1}) > 0);
  EXPECT_TRUE(c.rows().count({3}) > 0);
}

TEST(NamedRelationTest, FullUniverseAndPad) {
  // Padding "true" with k fresh columns yields all of {0..n-1}^k.
  NamedRelation full = NamedRelation::Unit().PadWithUniverse({"x", "y"}, 3);
  EXPECT_EQ(full.size(), 9u);
  NamedRelation r = Make({"x"}, {{1}});
  NamedRelation padded = r.PadWithUniverse({"y", "z"}, 3);
  EXPECT_EQ(padded.size(), 9u);
  EXPECT_EQ(padded.width(), 3);
}

TEST(NamedRelationTest, ReorderPermutesRows) {
  NamedRelation r = Make({"x", "y"}, {{1, 2}});
  NamedRelation swapped = r.Reorder({"y", "x"});
  EXPECT_TRUE(swapped.rows().count({2, 1}) > 0);
}

TEST(NamedRelationDeathTest, SchemaViolations) {
  NamedRelation r = Make({"x"}, {{1}});
  EXPECT_DEATH(r.AddRow({1, 2}), "width");
  EXPECT_DEATH(r.Reorder({"z"}), "missing z");
  EXPECT_DEATH((void)NamedRelation({"x", "x"}), "duplicate");
}

}  // namespace
}  // namespace dynfo::fo
