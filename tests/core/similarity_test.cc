#include "core/similarity.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <vector>

#include "common/random.h"
#include "core/background.h"
#include "correlation/prepared_series.h"
#include "simgen/fleet.h"
#include "ts/time_series.h"

namespace homets::core {
namespace {

std::vector<double> Ramp(size_t n) {
  std::vector<double> v(n);
  for (size_t i = 0; i < n; ++i) v[i] = static_cast<double>(i);
  return v;
}

TEST(CorrelationSimilarityTest, PerfectLinearIsOne) {
  const auto x = Ramp(40);
  const auto result = CorrelationSimilarity(x, x);
  EXPECT_NEAR(result.value, 1.0, 1e-9);
  EXPECT_TRUE(result.significant);
  EXPECT_NE(result.source, SimilaritySource::kNone);
}

TEST(CorrelationSimilarityTest, TakesMaximumOfSignificantCoefficients) {
  // Exponential growth: Spearman/Kendall see a perfect monotone relation
  // (ρ = τ = 1) while Pearson is below 1, so the max must be 1.
  const auto x = Ramp(40);
  std::vector<double> y(40);
  for (size_t i = 0; i < 40; ++i) y[i] = std::exp(0.25 * x[i]);
  const auto result = CorrelationSimilarity(x, y);
  EXPECT_NEAR(result.value, 1.0, 1e-9);
  EXPECT_TRUE(result.source == SimilaritySource::kSpearman ||
              result.source == SimilaritySource::kKendall);
}

TEST(CorrelationSimilarityTest, InsignificantIsZeroByDefinition) {
  Rng rng(1);
  std::vector<double> x(25), y(25);
  for (size_t i = 0; i < 25; ++i) {
    x[i] = rng.Normal();
    y[i] = rng.Normal();
  }
  const auto result = CorrelationSimilarity(x, y);
  if (!result.significant) {
    EXPECT_DOUBLE_EQ(result.value, 0.0);
    EXPECT_EQ(result.source, SimilaritySource::kNone);
  }
}

TEST(CorrelationSimilarityTest, ConstantSeriesIsZeroNotError) {
  const std::vector<double> constant(30, 5.0);
  const auto result = CorrelationSimilarity(constant, Ramp(30));
  EXPECT_DOUBLE_EQ(result.value, 0.0);
  EXPECT_FALSE(result.significant);
}

TEST(CorrelationSimilarityTest, AllZeroActiveWindowsAreDissimilar) {
  // Background-removed inactive windows are all zeros; Definition 1 yields 0
  // so they never form motifs.
  const std::vector<double> zeros(21, 0.0);
  const auto result = CorrelationSimilarity(zeros, zeros);
  EXPECT_DOUBLE_EQ(result.value, 0.0);
}

TEST(CorrelationSimilarityTest, ScaleInvariant) {
  Rng rng(2);
  std::vector<double> x(60), y(60), y_scaled(60);
  for (size_t i = 0; i < 60; ++i) {
    x[i] = rng.Normal();
    y[i] = x[i] + 0.3 * rng.Normal();
    y_scaled[i] = 5000.0 * y[i];
  }
  EXPECT_NEAR(CorrelationSimilarity(x, y).value,
              CorrelationSimilarity(x, y_scaled).value, 1e-9);
}

TEST(CorrelationSimilarityTest, NegativeCorrelationReported) {
  const auto x = Ramp(30);
  std::vector<double> y(x.rbegin(), x.rend());
  const auto result = CorrelationSimilarity(x, y);
  EXPECT_TRUE(result.significant);
  EXPECT_NEAR(result.value, -1.0, 1e-9);
}

TEST(CorrelationSimilarityTest, StricterAlphaCanSilenceWeakAssociations) {
  Rng rng(3);
  // Construct a weak association with p-value between 1e-4 and 0.05 is
  // fiddly; instead verify alpha monotonicity: anything significant at
  // alpha=1e-9 is significant at 0.05.
  std::vector<double> x(100), y(100);
  for (size_t i = 0; i < 100; ++i) {
    x[i] = rng.Normal();
    y[i] = 0.5 * x[i] + rng.Normal();
  }
  SimilarityOptions strict;
  strict.alpha = 1e-9;
  const auto strict_result = CorrelationSimilarity(x, y, strict);
  if (strict_result.significant) {
    EXPECT_TRUE(CorrelationSimilarity(x, y).significant);
  }
}

TEST(CorrelationSimilarityTest, TimeSeriesOverloadUsesOverlap) {
  // Two series overlapping on [10, 40) — similarity computed there.
  std::vector<double> a(40), b(40);
  for (size_t i = 0; i < 40; ++i) {
    a[i] = static_cast<double>(i);
    b[i] = static_cast<double>(i) * 2.0 + 5.0;
  }
  ts::TimeSeries sa(0, 1, a);
  ts::TimeSeries sb(10, 1, b);
  const auto result = CorrelationSimilarity(sa, sb);
  EXPECT_TRUE(result.significant);
  EXPECT_NEAR(result.value, 1.0, 1e-9);
  EXPECT_EQ(result.n, 30u);
}

TEST(CorrelationSimilarityTest, TimeSeriesMisalignedGridsYieldZero) {
  ts::TimeSeries a(0, 2, {1.0, 2.0, 3.0});
  ts::TimeSeries b(1, 2, {1.0, 2.0, 3.0});  // phase-shifted bins
  const auto result = CorrelationSimilarity(a, b);
  EXPECT_FALSE(result.significant);
  EXPECT_DOUBLE_EQ(result.value, 0.0);
}

TEST(CorrelationSimilarityTest, DisjointSeriesYieldZero) {
  ts::TimeSeries a(0, 1, {1.0, 2.0});
  ts::TimeSeries b(100, 1, {1.0, 2.0});
  EXPECT_DOUBLE_EQ(CorrelationSimilarity(a, b).value, 0.0);
}

TEST(CorrelationSimilarityTest, ZeroStepSeriesYieldZeroNotUB) {
  // Regression: a default-constructed (empty, step 0) series used to hit
  // modulo-by-zero in the grid-alignment check.
  const ts::TimeSeries empty;
  ts::TimeSeries real(0, 1, {1.0, 2.0, 3.0});
  EXPECT_DOUBLE_EQ(CorrelationSimilarity(empty, real).value, 0.0);
  EXPECT_DOUBLE_EQ(CorrelationSimilarity(real, empty).value, 0.0);
  EXPECT_DOUBLE_EQ(CorrelationSimilarity(empty, empty).value, 0.0);
  EXPECT_FALSE(CorrelationSimilarity(empty, real).significant);
}

TEST(CorrelationSimilarityTest, PreparedOverloadMatchesVectorOverloadBitwise) {
  Rng rng(21);
  std::vector<double> x(56), y(56);
  for (size_t i = 0; i < 56; ++i) {
    x[i] = rng.LogNormal(std::log(500.0), 1.0);
    y[i] = 0.7 * x[i] + rng.Normal() * 50.0;
  }
  const auto px = correlation::PreparedSeries::Make(x);
  const auto py = correlation::PreparedSeries::Make(y);
  correlation::PairWorkspace workspace;
  const SimilarityResult prepared =
      CorrelationSimilarity(px, py, {}, &workspace);
  const SimilarityResult legacy = CorrelationSimilarity(x, y);
  EXPECT_EQ(std::memcmp(&prepared.value, &legacy.value, sizeof(double)), 0);
  EXPECT_EQ(prepared.source, legacy.source);
  EXPECT_EQ(prepared.significant, legacy.significant);
  EXPECT_EQ(prepared.n, legacy.n);
}

TEST(CorrelationSimilarityTest, PreparedOverloadIsSymmetricBitwise) {
  // Motif mining evaluates every pair as cor(older, newer), whichever order
  // the caller met it in, so both argument orders must agree bit for bit.
  // Daily 3 h windows of a small fleet, plus the degenerate windows the
  // fast path hands to its fallbacks.
  simgen::SimConfig config;
  config.n_gateways = 3;
  config.weeks = 1;
  config.seed = 31;
  simgen::FleetGenerator gen(config);
  std::vector<correlation::PreparedSeries> windows;
  for (int id = 0; id < config.n_gateways; ++id) {
    const auto aggregated = ts::Aggregate(ActiveAggregate(gen.Generate(id)),
                                          180, 0, ts::AggKind::kSum);
    ASSERT_TRUE(aggregated.ok());
    for (const auto& window :
         ts::SliceWindows(*aggregated, ts::kMinutesPerDay, 0)) {
      windows.push_back(correlation::PreparedSeries::Make(window.values()));
    }
  }
  ASSERT_GE(windows.size(), 12u);
  const double nan = ts::TimeSeries::Missing();
  windows.push_back(correlation::PreparedSeries::Make(std::vector<double>(8)));
  windows.push_back(
      correlation::PreparedSeries::Make(std::vector<double>(8, 5.0)));
  windows.push_back(
      correlation::PreparedSeries::Make({1, nan, 3, 9, nan, 2, 7, 4}));
  windows.push_back(
      correlation::PreparedSeries::Make({2, 4, nan, 8, 6, nan, 1, 5}));
  correlation::PairWorkspace workspace;
  size_t similar = 0;
  for (size_t i = 0; i < windows.size(); ++i) {
    for (size_t j = i + 1; j < windows.size(); ++j) {
      const double ij =
          CorrelationSimilarity(windows[i], windows[j], {}, &workspace).value;
      const double ji =
          CorrelationSimilarity(windows[j], windows[i], {}, &workspace).value;
      EXPECT_EQ(std::memcmp(&ij, &ji, sizeof(double)), 0)
          << "pair " << i << ", " << j << ": " << ij << " vs " << ji;
      if (ij >= 0.6) ++similar;
    }
  }
  EXPECT_GT(similar, 0u);  // the fleet windows do reach motif thresholds
}

TEST(CorrelationDistanceTest, ComplementOfSimilarity) {
  const auto x = Ramp(30);
  EXPECT_NEAR(CorrelationDistance(x, x), 0.0, 1e-9);
  std::vector<double> y(x.rbegin(), x.rend());
  EXPECT_NEAR(CorrelationDistance(x, y), 2.0, 1e-9);
  const std::vector<double> constant(30, 1.0);
  EXPECT_DOUBLE_EQ(CorrelationDistance(x, constant), 1.0);
}

TEST(SimilaritySourceTest, Names) {
  EXPECT_EQ(SimilaritySourceName(SimilaritySource::kNone), "none");
  EXPECT_EQ(SimilaritySourceName(SimilaritySource::kPearson), "pearson");
  EXPECT_EQ(SimilaritySourceName(SimilaritySource::kSpearman), "spearman");
  EXPECT_EQ(SimilaritySourceName(SimilaritySource::kKendall), "kendall");
}

class SimilarityNoiseSweepTest : public ::testing::TestWithParam<double> {};

TEST_P(SimilarityNoiseSweepTest, SimilarityDecreasesWithNoise) {
  const double noise = GetParam();
  Rng rng(11);
  std::vector<double> x(200), y_clean(200), y_noisy(200);
  for (size_t i = 0; i < 200; ++i) {
    x[i] = rng.Normal();
    const double eps = rng.Normal();
    y_clean[i] = x[i] + 0.1 * eps;
    y_noisy[i] = x[i] + noise * eps;
  }
  EXPECT_GE(CorrelationSimilarity(x, y_clean).value,
            CorrelationSimilarity(x, y_noisy).value - 0.05);
}

INSTANTIATE_TEST_SUITE_P(NoiseLevels, SimilarityNoiseSweepTest,
                         ::testing::Values(0.5, 1.0, 2.0, 4.0));

}  // namespace
}  // namespace homets::core
