#include "stats/ranks.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cfloat>
#include <cmath>
#include <cstring>
#include <limits>
#include <numeric>
#include <vector>

#include "common/random.h"

namespace homets::stats {
namespace {

// The permutation StableOrder must reproduce: std::stable_sort of the
// indices by `<`.
std::vector<uint32_t> StableSortOrder(const std::vector<double>& xs) {
  std::vector<uint32_t> order(xs.size());
  std::iota(order.begin(), order.end(), 0u);
  std::stable_sort(order.begin(), order.end(),
                   [&xs](uint32_t a, uint32_t b) { return xs[a] < xs[b]; });
  return order;
}

// The comparison-sort AverageRanks as it was before the shared
// permutation, kept to pin its results, NaN input included.
std::vector<double> ComparisonSortRanks(const std::vector<double>& xs) {
  const std::vector<uint32_t> order = StableSortOrder(xs);
  const size_t n = xs.size();
  std::vector<double> ranks(n, 0.0);
  size_t i = 0;
  while (i < n) {
    size_t j = i;
    while (j + 1 < n && xs[order[j + 1]] == xs[order[i]]) ++j;
    const double avg =
        (static_cast<double>(i) + static_cast<double>(j)) / 2.0 + 1.0;
    for (size_t k = i; k <= j; ++k) ranks[order[k]] = avg;
    i = j + 1;
  }
  return ranks;
}

bool SameBits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

// Byte-counter-like sample: a share of exact zeros, the rest log-normal,
// with a few repeated values so ties also occur away from zero.
std::vector<double> TrafficLike(size_t n, double zero_share, uint64_t seed) {
  Rng rng(seed);
  std::vector<double> xs(n);
  for (double& x : xs) {
    if (rng.Bernoulli(zero_share)) {
      x = 0.0;
    } else if (rng.Bernoulli(0.05)) {
      x = 1500.0;
    } else {
      x = rng.LogNormal(6.0, 2.0);
    }
  }
  return xs;
}

// Sizes on both sides of the radix sort's comparison-sort cutoff.
constexpr size_t kSizes[] = {4, 17, 64, 500, 2047, 2048, 2049, 5000};

TEST(StableOrderTest, TinyInputs) {
  const std::vector<std::vector<double>> cases = {
      {}, {1.0}, {2.0, 1.0}, {1.0, 1.0}, {3.0, -1.0, 3.0}, {0.0, -0.0, 0.0}};
  for (const std::vector<double>& xs : cases) {
    EXPECT_EQ(StableOrder(xs), StableSortOrder(xs));
  }
}

TEST(StableOrderTest, MatchesStableSortAcrossSizes) {
  for (size_t n : kSizes) {
    SCOPED_TRACE(n);
    for (double zero_share : {0.0, 0.5, 0.95}) {
      const std::vector<double> xs = TrafficLike(n, zero_share, n + 7);
      EXPECT_EQ(StableOrder(xs), StableSortOrder(xs));
    }
  }
}

TEST(StableOrderTest, SignedZerosTieInIndexOrder) {
  for (size_t n : kSizes) {
    SCOPED_TRACE(n);
    Rng rng(n);
    std::vector<double> xs(n);
    for (double& x : xs) {
      const double pick = rng.Uniform(0.0, 1.0);
      x = pick < 0.3 ? -0.0 : pick < 0.6 ? 0.0 : rng.Normal(0.0, 1.0);
    }
    EXPECT_EQ(StableOrder(xs), StableSortOrder(xs));
  }
}

TEST(StableOrderTest, ExtremeAndNegativeValues) {
  const std::vector<double> specials = {
      std::numeric_limits<double>::infinity(),
      -std::numeric_limits<double>::infinity(),
      DBL_MAX,
      -DBL_MAX,
      DBL_MIN,
      -DBL_MIN,
      std::numeric_limits<double>::denorm_min(),
      -std::numeric_limits<double>::denorm_min(),
      DBL_MIN / 4.0,
      -DBL_MIN / 4.0,
      0.0,
      -0.0,
      -1.0,
      1.0,
      -1e300,
      1e-300};
  for (size_t n : kSizes) {
    SCOPED_TRACE(n);
    Rng rng(n + 1);
    std::vector<double> xs(n);
    for (double& x : xs) {
      x = rng.Bernoulli(0.5) ? specials[rng.UniformInt(specials.size())]
                             : rng.Normal(0.0, 1e3);
    }
    EXPECT_EQ(StableOrder(xs), StableSortOrder(xs));
  }
}

TEST(StableOrderTest, AllEqual) {
  for (size_t n : kSizes) {
    const std::vector<double> xs(n, 42.5);
    EXPECT_EQ(StableOrder(xs), StableSortOrder(xs));
  }
  const std::vector<double> zeros(2000, 0.0);
  EXPECT_EQ(StableOrder(zeros), StableSortOrder(zeros));
}

TEST(StableOrderTest, NineWeekDeviceSeriesMostlyZeros) {
  // 60,480 minutes: the length Definition 4 scores each device over.
  const std::vector<double> xs = TrafficLike(60480, 0.55, 99);
  const auto zeros = std::count(xs.begin(), xs.end(), 0.0);
  ASSERT_GE(static_cast<size_t>(zeros) * 2, xs.size());
  EXPECT_EQ(StableOrder(xs), StableSortOrder(xs));
  const std::vector<uint32_t> order = StableOrder(xs);
  const std::vector<uint32_t> offsets = TieGroupOffsets(xs, order);
  EXPECT_TRUE(SameBits(AverageRanks(order, offsets), ComparisonSortRanks(xs)));
}

TEST(StableOrderTest, NanInputKeepsComparisonSortResults) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  std::vector<std::vector<double>> cases = {
      {nan}, {1.0, nan, 1.0}, {nan, nan, 2.0, 2.0, 1.0}, {3.0, nan, 1.0, 3.0}};
  for (size_t n : kSizes) {
    std::vector<double> xs = TrafficLike(n, 0.5, n + 3);
    for (size_t i = 0; i < n; i += 7) xs[i] = nan;
    cases.push_back(std::move(xs));
  }
  for (const auto& xs : cases) {
    SCOPED_TRACE(xs.size());
    EXPECT_EQ(StableOrder(xs), StableSortOrder(xs));
    EXPECT_TRUE(SameBits(AverageRanks(xs), ComparisonSortRanks(xs)));
  }
}

TEST(StableOrderTest, RanksMatchComparisonSort) {
  for (size_t n : kSizes) {
    SCOPED_TRACE(n);
    const std::vector<double> xs = TrafficLike(n, 0.5, n + 11);
    EXPECT_TRUE(SameBits(AverageRanks(xs), ComparisonSortRanks(xs)));
  }
}

TEST(TieGroupOffsetsTest, BoundariesFollowTheOrder) {
  const std::vector<double> xs{2.0, 1.0, 2.0, 3.0, 1.0, 2.0};
  const std::vector<uint32_t> order = StableOrder(xs);
  EXPECT_EQ(order, (std::vector<uint32_t>{1, 4, 0, 2, 5, 3}));
  EXPECT_EQ(TieGroupOffsets(xs, order), (std::vector<uint32_t>{0, 2, 5, 6}));
  EXPECT_EQ(TieGroupOffsets({}, {}), (std::vector<uint32_t>{0}));
}

TEST(AverageRanksTest, NoTies) {
  const auto ranks = AverageRanks({30.0, 10.0, 20.0});
  ASSERT_EQ(ranks.size(), 3u);
  EXPECT_DOUBLE_EQ(ranks[0], 3.0);
  EXPECT_DOUBLE_EQ(ranks[1], 1.0);
  EXPECT_DOUBLE_EQ(ranks[2], 2.0);
}

TEST(AverageRanksTest, TiesGetAverageRank) {
  const auto ranks = AverageRanks({10.0, 20.0, 20.0, 30.0});
  EXPECT_DOUBLE_EQ(ranks[0], 1.0);
  EXPECT_DOUBLE_EQ(ranks[1], 2.5);
  EXPECT_DOUBLE_EQ(ranks[2], 2.5);
  EXPECT_DOUBLE_EQ(ranks[3], 4.0);
}

TEST(AverageRanksTest, AllTied) {
  const auto ranks = AverageRanks({7.0, 7.0, 7.0});
  for (double r : ranks) EXPECT_DOUBLE_EQ(r, 2.0);
}

TEST(AverageRanksTest, RankSumInvariant) {
  // Σ ranks = n(n+1)/2 regardless of ties.
  const std::vector<double> xs{5, 5, 1, 3, 3, 3, 9, 2};
  const auto ranks = AverageRanks(xs);
  const double sum = std::accumulate(ranks.begin(), ranks.end(), 0.0);
  EXPECT_DOUBLE_EQ(sum, 8.0 * 9.0 / 2.0);
}

TEST(AverageRanksTest, EmptyInput) {
  EXPECT_TRUE(AverageRanks({}).empty());
}

TEST(AverageRanksTest, SingleElement) {
  const auto ranks = AverageRanks({42.0});
  ASSERT_EQ(ranks.size(), 1u);
  EXPECT_DOUBLE_EQ(ranks[0], 1.0);
}

TEST(TieGroupSizesTest, FindsGroups) {
  const auto groups = TieGroupSizes({1, 2, 2, 3, 3, 3, 4});
  ASSERT_EQ(groups.size(), 2u);
  EXPECT_EQ(groups[0], 2u);
  EXPECT_EQ(groups[1], 3u);
}

TEST(TieGroupSizesTest, NoTies) {
  EXPECT_TRUE(TieGroupSizes({1, 2, 3}).empty());
}

TEST(TieGroupSizesTest, AllSame) {
  const auto groups = TieGroupSizes({5, 5, 5, 5});
  ASSERT_EQ(groups.size(), 1u);
  EXPECT_EQ(groups[0], 4u);
}

TEST(TieGroupSizesTest, UnsortedInput) {
  const auto groups = TieGroupSizes({3, 1, 3, 2, 1});
  ASSERT_EQ(groups.size(), 2u);  // two groups of size 2 (1s and 3s)
  EXPECT_EQ(groups[0], 2u);
  EXPECT_EQ(groups[1], 2u);
}

}  // namespace
}  // namespace homets::stats
