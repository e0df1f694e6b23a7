#include "common/rng.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <limits>
#include <set>
#include <vector>

#include "common/error.hpp"

namespace csdml {
namespace {

TEST(Rng, SameSeedSameStream) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) same += a.next() == b.next();
  EXPECT_LT(same, 3);
}

TEST(Rng, ForkIsDeterministicAndIndependent) {
  Rng parent(99);
  Rng child1 = parent.fork("dataset");
  Rng child2 = Rng(99).fork("dataset");
  for (int i = 0; i < 50; ++i) EXPECT_EQ(child1.next(), child2.next());

  Rng other = Rng(99).fork("latency");
  Rng dataset = Rng(99).fork("dataset");
  int same = 0;
  for (int i = 0; i < 100; ++i) same += other.next() == dataset.next();
  EXPECT_LT(same, 3);
}

TEST(Rng, ForkDoesNotDisturbParent) {
  Rng a(5);
  Rng b(5);
  (void)a.fork("x");
  for (int i = 0; i < 20; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10'000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformRangeRespectsBounds) {
  Rng rng(7);
  for (int i = 0; i < 1'000; ++i) {
    const double u = rng.uniform(-2.5, 4.5);
    EXPECT_GE(u, -2.5);
    EXPECT_LT(u, 4.5);
  }
  EXPECT_THROW(rng.uniform(1.0, 0.0), PreconditionError);
}

TEST(Rng, UniformIntCoversInclusiveRange) {
  Rng rng(11);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 2'000; ++i) {
    const std::int64_t v = rng.uniform_int(3, 7);
    EXPECT_GE(v, 3);
    EXPECT_LE(v, 7);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 5u);  // all five values appear
  EXPECT_EQ(rng.uniform_int(4, 4), 4);
  EXPECT_THROW(rng.uniform_int(5, 4), PreconditionError);
  // Spans wider than INT64_MAX (hi - lo would overflow int64).
  constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
  for (const std::int64_t bound : {std::int64_t{1} << 62, kMax}) {
    bool negative = false;
    bool positive = false;
    for (int i = 0; i < 200; ++i) {
      const std::int64_t v = rng.uniform_int(-bound, bound);
      EXPECT_GE(v, -bound);
      EXPECT_LE(v, bound);
      negative = negative || v < 0;
      positive = positive || v > 0;
    }
    EXPECT_TRUE(negative && positive) << bound;
  }
}

TEST(Rng, UniformIntMeanIsCentred) {
  Rng rng(13);
  double sum = 0.0;
  const int n = 50'000;
  for (int i = 0; i < n; ++i) sum += static_cast<double>(rng.uniform_int(0, 100));
  EXPECT_NEAR(sum / n, 50.0, 0.5);
}

TEST(Rng, NormalMoments) {
  Rng rng(17);
  double sum = 0.0;
  double sum_sq = 0.0;
  const int n = 100'000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.normal();
    sum += x;
    sum_sq += x * x;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.02);
  EXPECT_NEAR(sum_sq / n, 1.0, 0.03);
}

TEST(Rng, NormalWithParameters) {
  Rng rng(19);
  double sum = 0.0;
  const int n = 50'000;
  for (int i = 0; i < n; ++i) sum += rng.normal(10.0, 2.0);
  EXPECT_NEAR(sum / n, 10.0, 0.05);
}

TEST(Rng, LognormalIsPositiveWithExpectedMedian) {
  Rng rng(23);
  std::vector<double> samples;
  for (int i = 0; i < 20'001; ++i) {
    const double x = rng.lognormal(std::log(5.0), 0.5);
    EXPECT_GT(x, 0.0);
    samples.push_back(x);
  }
  std::nth_element(samples.begin(), samples.begin() + 10'000, samples.end());
  EXPECT_NEAR(samples[10'000], 5.0, 0.25);  // median = exp(mu)
}

TEST(Rng, ChanceRespectsProbability) {
  Rng rng(29);
  int hits = 0;
  const int n = 50'000;
  for (int i = 0; i < n; ++i) hits += rng.chance(0.25);
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.25, 0.01);
  EXPECT_FALSE(Rng(1).chance(0.0));
}

TEST(Rng, WeightedIndexFollowsWeights) {
  Rng rng(31);
  const std::vector<double> weights{1.0, 3.0, 0.0, 6.0};
  std::array<int, 4> counts{};
  const int n = 50'000;
  for (int i = 0; i < n; ++i) ++counts[rng.weighted_index(weights)];
  EXPECT_NEAR(static_cast<double>(counts[0]) / n, 0.1, 0.01);
  EXPECT_NEAR(static_cast<double>(counts[1]) / n, 0.3, 0.015);
  EXPECT_EQ(counts[2], 0);
  EXPECT_NEAR(static_cast<double>(counts[3]) / n, 0.6, 0.015);
}

TEST(Rng, WeightedIndexRejectsBadInput) {
  Rng rng(1);
  EXPECT_THROW(rng.weighted_index({}), PreconditionError);
  EXPECT_THROW(rng.weighted_index({0.0, 0.0}), PreconditionError);
  EXPECT_THROW(rng.weighted_index({1.0, -1.0}), PreconditionError);
}

TEST(Rng, ShuffleIsPermutation) {
  Rng rng(37);
  std::vector<int> items{1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
  std::vector<int> shuffled = items;
  rng.shuffle(shuffled);
  std::vector<int> sorted = shuffled;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(sorted, items);
}

TEST(Rng, PickReturnsMember) {
  Rng rng(41);
  const std::vector<int> items{10, 20, 30};
  for (int i = 0; i < 100; ++i) {
    const int v = rng.pick(items);
    EXPECT_TRUE(v == 10 || v == 20 || v == 30);
  }
}

}  // namespace
}  // namespace csdml
