// Independent oracles for Definition 1's coefficients and the whisker τ.
//
// Each oracle is written from the textbook definition, in O(n²) where that
// is the plain reading, and shares no code with the library: no sort order,
// no tie-group helper, no special function. Small cases are derived by hand
// in the comments.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "common/random.h"
#include "core/background.h"
#include "correlation/coefficients.h"
#include "correlation/prepared_series.h"
#include "simgen/fleet.h"
#include "ts/time_series.h"

namespace homets::core {
namespace {

int Sign(double v) { return (v > 0.0) - (v < 0.0); }

struct KendallOracle {
  bool defined = false;  ///< false when either side is constant
  double tau_b = 0.0;
  double p_value = 1.0;
};

// Kendall's τ-b over all pairs i < j:
//   S  = Σ sgn(x_i − x_j) · sgn(y_i − y_j)   (concordant − discordant)
//   n0 = n(n−1)/2, n1 = pairs tied in x, n2 = pairs tied in y
//   τ-b = S / √((n0 − n1)(n0 − n2))
// and the tie-corrected null variance of S (Kendall 1970):
//   v = [n(n−1)(2n+5) − Σt(t−1)(2t+5) − Σu(u−1)(2u+5)] / 18
//     + Σt(t−1)(t−2) · Σu(u−1)(u−2) / [9n(n−1)(n−2)]
//     + Σt(t−1) · Σu(u−1) / [2n(n−1)]
// over the x tie groups (sizes t) and y tie groups (sizes u). A group sum
// Σ f(t) is taken per value as Σ_i f(t_i) / t_i, with t_i the number of
// values equal to x_i, so no grouping is needed.
KendallOracle BruteForceKendall(const std::vector<double>& x,
                                const std::vector<double>& y) {
  const size_t n = x.size();
  double s = 0.0;
  double n1 = 0.0;
  double n2 = 0.0;
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = i + 1; j < n; ++j) {
      s += Sign(x[i] - x[j]) * Sign(y[i] - y[j]);
      n1 += x[i] == x[j];
      n2 += y[i] == y[j];
    }
  }
  struct Sums {
    double weighted = 0.0, triple = 0.0, pair_raw = 0.0;
  };
  const auto tie_sums = [n](const std::vector<double>& v) {
    Sums sums;
    for (size_t i = 0; i < n; ++i) {
      double t = 0.0;
      for (size_t j = 0; j < n; ++j) t += v[j] == v[i];
      sums.weighted += (t - 1.0) * (2.0 * t + 5.0);
      sums.triple += (t - 1.0) * (t - 2.0);
      sums.pair_raw += t - 1.0;
    }
    return sums;
  };
  const Sums tx = tie_sums(x);
  const Sums ty = tie_sums(y);
  const double nf = static_cast<double>(n);
  const double n0 = nf * (nf - 1.0) / 2.0;
  KendallOracle out;
  if (n0 - n1 <= 0.0 || n0 - n2 <= 0.0) return out;
  out.defined = true;
  out.tau_b = s / std::sqrt((n0 - n1) * (n0 - n2));
  const double v =
      (nf * (nf - 1.0) * (2.0 * nf + 5.0) - tx.weighted - ty.weighted) /
          18.0 +
      tx.triple * ty.triple / (9.0 * nf * (nf - 1.0) * (nf - 2.0)) +
      tx.pair_raw * ty.pair_raw / (2.0 * nf * (nf - 1.0));
  if (v > 0.0) {
    out.p_value = std::erfc(std::fabs(s / std::sqrt(v)) / std::sqrt(2.0));
  }
  return out;
}

// Spearman's ρ from its definition: the Pearson correlation of mid-ranks,
// rank_i = 1 + #{j : v_j < v_i} + #{j ≠ i : v_j = v_i} / 2, whose mean is
// (n + 1) / 2. Returns NaN when either side is constant.
double DefinitionSpearman(const std::vector<double>& x,
                          const std::vector<double>& y) {
  const size_t n = x.size();
  const auto mid_ranks = [n](const std::vector<double>& v) {
    std::vector<double> r(n);
    for (size_t i = 0; i < n; ++i) {
      double below = 0.0, equal = 0.0;
      for (size_t j = 0; j < n; ++j) {
        below += v[j] < v[i];
        equal += j != i && v[j] == v[i];
      }
      r[i] = 1.0 + below + equal / 2.0;
    }
    return r;
  };
  const std::vector<double> rx = mid_ranks(x);
  const std::vector<double> ry = mid_ranks(y);
  const double mean = (static_cast<double>(n) + 1.0) / 2.0;
  double sxy = 0.0, sxx = 0.0, syy = 0.0;
  for (size_t i = 0; i < n; ++i) {
    sxy += (rx[i] - mean) * (ry[i] - mean);
    sxx += (rx[i] - mean) * (rx[i] - mean);
    syy += (ry[i] - mean) * (ry[i] - mean);
  }
  if (sxx == 0.0 || syy == 0.0) {
    return std::numeric_limits<double>::quiet_NaN();
  }
  return sxy / std::sqrt(sxx * syy);
}

// Checks both library paths against the oracles: the vector API and the
// profiled kernels in both argument orders (x = the scattered side).
void ExpectMatchesOracles(const std::vector<double>& x,
                          const std::vector<double>& y) {
  const KendallOracle kendall = BruteForceKendall(x, y);
  const double rho = DefinitionSpearman(x, y);
  const correlation::PreparedSeries px = correlation::PreparedSeries::Make(x);
  const correlation::PreparedSeries py = correlation::PreparedSeries::Make(y);
  correlation::PairWorkspace ws;
  const Result<correlation::CorrelationTest> kendalls[] = {
      correlation::Kendall(x, y), correlation::Kendall(px, py, &ws),
      correlation::Kendall(py, px, &ws)};
  for (const auto& k : kendalls) {
    ASSERT_EQ(k.ok(), kendall.defined);
    if (!k.ok()) continue;
    EXPECT_NEAR(k->coefficient, kendall.tau_b, 1e-12);
    EXPECT_NEAR(k->p_value, kendall.p_value, 1e-9);
    EXPECT_EQ(k->n, x.size());
  }
  const Result<correlation::CorrelationTest> spearmans[] = {
      correlation::Spearman(x, y), correlation::Spearman(px, py, &ws),
      correlation::Spearman(py, px, &ws)};
  for (const auto& sp : spearmans) {
    ASSERT_EQ(sp.ok(), !std::isnan(rho));
    if (sp.ok()) {
      EXPECT_NEAR(sp->coefficient, rho, 1e-12);
    }
  }
}

// Byte counter of a device that is idle most minutes.
std::vector<double> ZerosHeavyDevice(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<double> v(n, 0.0);
  for (double& x : v) {
    if (rng.Bernoulli(0.4)) x = rng.LogNormal(7.0, 1.5);
  }
  return v;
}

// A gateway aggregate over that device: its traffic plus other devices'
// background, so every minute is a distinct value.
std::vector<double> DistinctAggregate(const std::vector<double>& device,
                                      uint64_t seed) {
  Rng rng(seed);
  std::vector<double> v(device.size());
  for (size_t i = 0; i < v.size(); ++i) {
    v[i] = device[i] + rng.LogNormal(5.0, 1.0);
  }
  return v;
}

TEST(Definition1OracleTest, HandDerivedNoXTies) {
  // x = 1..5, y = {5, 6, 7, 8, 7}. Of the 10 pairs, (3,5) ties in y and
  // (4,5) is discordant, the other 8 concordant: S = 7, n1 = 0, n2 = 1,
  // τ-b = 7 / √(10 · 9). Mid-ranks of y are {1, 2, 3.5, 5, 3.5}; against
  // x's {1..5}: Σdxdy = 8, Σdx² = 10, Σdy² = 9.5, ρ = 8 / √95.
  const std::vector<double> x{1, 2, 3, 4, 5};
  const std::vector<double> y{5, 6, 7, 8, 7};
  EXPECT_NEAR(BruteForceKendall(x, y).tau_b, 7.0 / std::sqrt(90.0), 1e-15);
  EXPECT_NEAR(DefinitionSpearman(x, y), 8.0 / std::sqrt(95.0), 1e-15);
  ExpectMatchesOracles(x, y);
}

TEST(Definition1OracleTest, HandDerivedTiesOnTheScatteredSide) {
  // x = {1, 2, 2, 3}, y = {1, 3, 2, 4}: pair (2,3) ties in x, the other 5
  // are concordant: S = 5, n0 = 6, n1 = 1, n2 = 0, τ-b = 5 / √30. Mid-ranks
  // of x are {1, 2.5, 2.5, 4}: Σdxdy = 4.5, Σdx² = 4.5, Σdy² = 5,
  // ρ = 4.5 / √22.5.
  const std::vector<double> x{1, 2, 2, 3};
  const std::vector<double> y{1, 3, 2, 4};
  EXPECT_NEAR(BruteForceKendall(x, y).tau_b, 5.0 / std::sqrt(30.0), 1e-15);
  EXPECT_NEAR(DefinitionSpearman(x, y), 4.5 / std::sqrt(22.5), 1e-15);
  ExpectMatchesOracles(x, y);
}

TEST(Definition1OracleTest, JointTiesAndReversal) {
  // Ties on both sides and in both at once, and a perfectly reversed pair.
  ExpectMatchesOracles({1, 1, 2, 2, 3, 3, 3}, {4, 4, 1, 2, 2, 2, 0});
  ExpectMatchesOracles({1, 2, 3, 4, 5, 6}, {6, 5, 4, 3, 2, 1});
  EXPECT_NEAR(BruteForceKendall({1, 2, 3}, {3, 2, 1}).tau_b, -1.0, 1e-15);
}

TEST(Definition1OracleTest, ConstantSeriesIsUndefined) {
  const std::vector<double> x(6, 2.0);
  const std::vector<double> y{1, 2, 3, 4, 5, 6};
  EXPECT_FALSE(BruteForceKendall(x, y).defined);
  EXPECT_TRUE(std::isnan(DefinitionSpearman(x, y)));
  ExpectMatchesOracles(x, y);
  ExpectMatchesOracles(y, x);
}

TEST(Definition1OracleTest, ZerosHeavyDeviceAgainstDistinctAggregate) {
  // Sizes below and above the radix sort's cutoff; the device's zero minutes
  // form one x-tie group holding most of the aggregate's values.
  for (size_t n : {200u, 3000u}) {
    SCOPED_TRACE(n);
    const std::vector<double> device = ZerosHeavyDevice(n, n);
    const std::vector<double> aggregate = DistinctAggregate(device, n + 1);
    ExpectMatchesOracles(device, aggregate);
  }
}

TEST(Definition1OracleTest, NanGapsUseCompletePairs) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  std::vector<double> device = ZerosHeavyDevice(80, 3);
  std::vector<double> aggregate = DistinctAggregate(device, 4);
  for (size_t i = 0; i < device.size(); i += 9) device[i] = nan;
  for (size_t i = 4; i < aggregate.size(); i += 13) aggregate[i] = nan;
  std::vector<double> xc, yc;
  for (size_t i = 0; i < device.size(); ++i) {
    if (std::isnan(device[i]) || std::isnan(aggregate[i])) continue;
    xc.push_back(device[i]);
    yc.push_back(aggregate[i]);
  }
  const KendallOracle kendall = BruteForceKendall(xc, yc);
  const auto k = correlation::Kendall(device, aggregate);
  ASSERT_TRUE(k.ok());
  EXPECT_EQ(k->n, xc.size());
  EXPECT_NEAR(k->coefficient, kendall.tau_b, 1e-12);
  EXPECT_NEAR(k->p_value, kendall.p_value, 1e-9);
  const auto sp = correlation::Spearman(device, aggregate);
  ASSERT_TRUE(sp.ok());
  EXPECT_NEAR(sp->coefficient, DefinitionSpearman(xc, yc), 1e-12);
}

// Whisker τ: the largest observation at or below Q3 + 1.5 · IQR, found by a
// linear scan. Quartiles are R type 7 on an ascending copy: with h = (n−1)q,
// Q(q) = s[⌊h⌋] + (h − ⌊h⌋)(s[⌊h⌋+1] − s[⌊h⌋]).
double WhiskerTauOracle(const std::vector<double>& values) {
  std::vector<double> observed;
  for (double v : values) {
    if (!std::isnan(v)) observed.push_back(v);
  }
  std::vector<double> s = observed;
  std::sort(s.begin(), s.end());
  const auto quantile = [&s](double q) {
    const double h = static_cast<double>(s.size() - 1) * q;
    const size_t lo = static_cast<size_t>(std::floor(h));
    if (lo + 1 >= s.size()) return s[lo];
    return s[lo] + (h - static_cast<double>(lo)) * (s[lo + 1] - s[lo]);
  };
  const double q1 = quantile(0.25);
  const double q3 = quantile(0.75);
  const double fence = q3 + 1.5 * (q3 - q1);
  double tau = -std::numeric_limits<double>::infinity();
  for (double v : observed) {
    if (v <= fence) tau = std::max(tau, v);
  }
  return tau;
}

double EstimatedTau(std::vector<double> values) {
  const auto threshold =
      EstimateBackgroundThreshold(ts::TimeSeries(0, 1, std::move(values)));
  EXPECT_TRUE(threshold.ok());
  return threshold.ok() ? threshold->tau : std::nan("");
}

TEST(WhiskerTauOracleTest, HandDerived) {
  // n = 8 sorted {1..7, 100}: Q1 at h = 1.75 is 2.75, Q3 at h = 5.25 is
  // 6.25, IQR 3.5, fence 11.5 → τ = 7. A NaN gap is not an observation.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const std::vector<double> values{100, 3, 1, nan, 7, 2, 6, 5, 4};
  EXPECT_EQ(WhiskerTauOracle(values), 7.0);
  EXPECT_EQ(EstimatedTau(values), 7.0);
}

TEST(WhiskerTauOracleTest, AllEqual) {
  const std::vector<double> values(20, 5.0);
  EXPECT_EQ(WhiskerTauOracle(values), 5.0);
  EXPECT_EQ(EstimatedTau(values), 5.0);
}

TEST(WhiskerTauOracleTest, ZerosHeavyNineWeekSeriesWithGaps) {
  std::vector<double> values = ZerosHeavyDevice(60480, 21);
  for (size_t i = 0; i < values.size(); i += 97) values[i] = std::nan("");
  EXPECT_EQ(EstimatedTau(values), WhiskerTauOracle(values));
}

TEST(WhiskerTauOracleTest, SimulatedDevices) {
  simgen::SimConfig config;
  config.n_gateways = 2;
  config.weeks = 2;
  config.seed = 5;
  const simgen::FleetGenerator generator(config);
  for (int g = 0; g < config.n_gateways; ++g) {
    for (const auto& device : generator.Generate(g).devices) {
      for (const ts::TimeSeries* series :
           {&device.incoming, &device.outgoing}) {
        if (series->CountObserved() < 8) continue;
        EXPECT_EQ(EstimatedTau(series->values()),
                  WhiskerTauOracle(series->values()));
      }
    }
  }
}

}  // namespace
}  // namespace homets::core
