// Tests for the benchmark's own code: generators, percentile math, the
// latency reservoir, the scope timer, and layer self-time arithmetic.

#include <gtest/gtest.h>

#include <set>
#include <utility>
#include <vector>

#include "gen.h"
#include "report.h"
#include "stats.h"

namespace bench_e2e {
namespace {

using dynfo::relational::Request;
using dynfo::relational::RequestKind;

TEST(HeldCountChurn, StaysAtTargetAfterFilling) {
  HeldCountChurn churn("E", 1024, 256, 7);
  std::set<std::pair<uint32_t, uint32_t>> shadow;
  for (int step = 0; step < 20000; ++step) {
    const Request request = churn.Next();
    const auto edge = std::make_pair(request.tuple[0], request.tuple[1]);
    ASSERT_LT(edge.first, edge.second);
    if (request.kind == RequestKind::kInsert) {
      ASSERT_TRUE(shadow.insert(edge).second) << "insert of a present edge";
    } else {
      ASSERT_EQ(request.kind, RequestKind::kDelete);
      ASSERT_EQ(shadow.erase(edge), 1u) << "delete of an absent edge";
    }
    ASSERT_EQ(shadow.size(), churn.edge_count());
    if (step >= 256) {
      ASSERT_GE(churn.edge_count(), 255u);
      ASSERT_LE(churn.edge_count(), 257u);
    }
  }
}

TEST(HeldCountChurn, ChurnsAtTarget) {
  // Held at the target, inserts and deletes alternate around it: roughly
  // half of the post-fill requests are deletes.
  HeldCountChurn churn("E", 64, 96, 3);
  int deletes = 0;
  for (int step = 0; step < 10096; ++step) {
    const Request request = churn.Next();
    if (step >= 96 && request.kind == RequestKind::kDelete) ++deletes;
  }
  EXPECT_GT(deletes, 4000);
  EXPECT_LT(deletes, 6000);
}

TEST(HeldCountChurn, DeterministicPerSeed) {
  HeldCountChurn a("E", 128, 40, 11), b("E", 128, 40, 11), c("E", 128, 40, 12);
  bool differs = false;
  for (int step = 0; step < 2000; ++step) {
    const Request x = a.Next();
    ASSERT_EQ(x, b.Next());
    differs |= !(x == c.Next());
  }
  EXPECT_TRUE(differs);
}

TEST(HeldCountChurn, CapsTargetToLeaveRoomForInserts) {
  HeldCountChurn churn("E", 4, 100, 1);  // 6 possible edges
  EXPECT_EQ(churn.target(), 3u);
  for (int step = 0; step < 100; ++step) churn.Next();
  EXPECT_LE(churn.edge_count(), 4u);
}

TEST(ZipfSampler, DeterministicPerSeed) {
  ZipfSampler zipf(64, 1.1);
  dynfo::core::Rng a(5), b(5);
  for (int i = 0; i < 1000; ++i) ASSERT_EQ(zipf.Sample(&a), zipf.Sample(&b));
}

TEST(ZipfSampler, SkewedTowardLowRanks) {
  ZipfSampler zipf(64, 1.1);
  dynfo::core::Rng rng(9);
  std::vector<int> counts(64, 0);
  const int draws = 100000;
  for (int i = 0; i < draws; ++i) {
    const uint32_t rank = zipf.Sample(&rng);
    ASSERT_LT(rank, 64u);
    ++counts[rank];
  }
  // Rank 0 carries 1/H(64, 1.1) ~ 0.24 of the mass: far above uniform 1/64.
  EXPECT_GT(counts[0], draws / 6);
  EXPECT_GT(counts[0], 10 * counts[63]);
  EXPECT_GT(counts[1], counts[8]);
  EXPECT_GT(counts[63], 0);
}

TEST(ZipfSampler, ExponentZeroIsUniform) {
  ZipfSampler zipf(4, 0.0);
  dynfo::core::Rng rng(2);
  std::vector<int> counts(4, 0);
  for (int i = 0; i < 40000; ++i) ++counts[zipf.Sample(&rng)];
  for (int c : counts) EXPECT_NEAR(c, 10000, 600);
}

TEST(Percentile, InterpolatesBetweenClosestRanks) {
  const std::vector<double> v = {4, 1, 3, 2};
  EXPECT_DOUBLE_EQ(Percentile(v, 0.0), 1);
  EXPECT_DOUBLE_EQ(Percentile(v, 1.0), 4);
  EXPECT_DOUBLE_EQ(Percentile(v, 0.5), 2.5);
  EXPECT_DOUBLE_EQ(Percentile(v, 0.25), 1.75);
  EXPECT_DOUBLE_EQ(Median({5, 1, 3}), 3);
}

TEST(Percentile, EdgeCases) {
  EXPECT_EQ(Percentile({}, 0.5), 0);
  EXPECT_EQ(Percentile({7}, 0.99), 7);
  std::vector<double> hundred;
  for (int i = 1; i <= 100; ++i) hundred.push_back(i);
  EXPECT_NEAR(Percentile(hundred, 0.99), 99.01, 1e-9);
  EXPECT_DOUBLE_EQ(Percentile(hundred, 2.0), 100);  // clamped
}

TEST(Samples, ReservoirBoundsMemoryButKeepsTotals) {
  Samples samples;
  const size_t n = Samples::kReservoir + 1000;
  for (size_t i = 0; i < n; ++i) samples.Add(1.0);
  EXPECT_EQ(samples.count(), n);
  EXPECT_DOUBLE_EQ(samples.sum(), static_cast<double>(n));
  EXPECT_EQ(samples.values().size(), Samples::kReservoir);
}

TEST(Samples, KeepsEverySampleInOrderBelowTheReservoir) {
  Samples samples;
  for (int i = 0; i < 10; ++i) samples.AddNs(1000 * i);
  ASSERT_EQ(samples.values().size(), 10u);
  for (int i = 0; i < 10; ++i) EXPECT_DOUBLE_EQ(samples.values()[i], i);
  Samples more;
  more.Add(100);
  samples.Append(more);
  EXPECT_EQ(samples.count(), 11u);
  EXPECT_DOUBLE_EQ(samples.P(1.0), 100);
}

TEST(Samples, ReservoirPercentilesTrackTheStream) {
  Samples samples;
  const size_t n = 4 * Samples::kReservoir;
  for (size_t i = 0; i < n; ++i) samples.Add(static_cast<double>(i % 1000));
  EXPECT_NEAR(samples.P(0.5), 500, 15);
  EXPECT_NEAR(samples.P(0.99), 990, 5);
}

TEST(SelfTimes, SubtractsTheLayerBelowRequestByRequest) {
  // Guarded apply (parent) over bare-engine apply (child) of the same three
  // requests: the self time is the difference per request, not of medians.
  Samples parent, child;
  for (double us : {10.0, 50.0, 30.0}) parent.Add(us);
  for (double us : {4.0, 45.0, 1.0}) child.Add(us);
  const Samples self = SelfTimes(parent, child);
  ASSERT_EQ(self.values().size(), 3u);
  EXPECT_DOUBLE_EQ(self.values()[0], 6);
  EXPECT_DOUBLE_EQ(self.values()[1], 5);
  EXPECT_DOUBLE_EQ(self.values()[2], 29);
  EXPECT_DOUBLE_EQ(self.P(0.5), 6);
  EXPECT_NE(self.P(0.5), parent.P(0.5) - child.P(0.5));  // 30 - 4 = 26
}

TEST(SelfTimes, PairsOnlyTheCommonPrefix) {
  Samples parent, child;
  for (double us : {3.0, 5.0, 7.0}) parent.Add(us);
  child.Add(1.0);
  const Samples self = SelfTimes(parent, child);
  ASSERT_EQ(self.values().size(), 1u);
  EXPECT_DOUBLE_EQ(self.values()[0], 2);
  EXPECT_EQ(SelfTimes(Samples(), child).count(), 0u);
}

TEST(ScopedTimer, AddsOneSampleCoveringItsScope) {
  Samples samples;
  const int64_t before = NowNs();
  {
    ScopedTimer timer(&samples);
    while (NowNs() - before < 200000) {
    }
  }
  const double outer_us = static_cast<double>(NowNs() - before) / 1e3;
  ASSERT_EQ(samples.count(), 1u);
  EXPECT_GE(samples.values()[0], 200.0);
  EXPECT_LE(samples.values()[0], outer_us);
}

TEST(WireText, FormatsScriptGrammar) {
  EXPECT_EQ(WireText(Request::Insert("E", {3, 4})), "ins E 3 4");
  EXPECT_EQ(WireText(Request::Delete("E", {0, 1})), "del E 0 1");
  EXPECT_EQ(WireText(Request::SetConstant("s", 9)), "set s 9");
}

TEST(Report, MetricNamesAreUniqueAndWellFormed) {
  std::set<std::string> names;
  for (const auto* list : {&EndToEndMetrics(), &PerLayerMetrics()}) {
    for (const MetricDef& def : *list) {
      EXPECT_TRUE(names.insert(def.name).second) << def.name;
      EXPECT_LE(def.name.size(), 64u);
      EXPECT_FALSE(def.unit.empty());
    }
  }
  EXPECT_LE(PerLayerMetrics().size(), 128u);
  EXPECT_EQ(EndToEndMetrics().front().name, "setup_s");
}

}  // namespace
}  // namespace bench_e2e
