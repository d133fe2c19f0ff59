#include "correlation/prepared_series.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "obs/metric_names.h"
#include "obs/metrics.h"
#include "stats/ranks.h"
#include "stats/special_functions.h"

namespace homets::correlation {

namespace {

// Accumulation order matters throughout this file: every loop mirrors the
// historical vector-path implementation exactly (independent accumulators,
// ascending index order) so prepared results are bit-identical to it.

// Mean and centered sum of squares, each in its own ascending pass.
void MomentsOf(const std::vector<double>& v, double* mean, double* ss) {
  const size_t n = v.size();
  double m = 0.0;
  for (size_t i = 0; i < n; ++i) m += v[i];
  m /= static_cast<double>(n);
  double s = 0.0;
  for (size_t i = 0; i < n; ++i) {
    const double d = v[i] - m;
    s += d * d;
  }
  *mean = m;
  *ss = s;
}

// Two-sided p-value via the t transform, dof = n - 2.
double PearsonPValue(double r, size_t n) {
  const double dof = static_cast<double>(n) - 2.0;
  if (std::fabs(r) >= 1.0) return 0.0;
  const double t = r * std::sqrt(dof / (1.0 - r * r));
  return stats::StudentTTwoSidedPValue(t, dof);
}

// Merge-sort inversion counter used by Knight's algorithm: sorts `y` in
// place and returns the number of exchanges (discordant pairs).
uint64_t CountSwaps(std::vector<uint32_t>* y, std::vector<uint32_t>* buffer) {
  const size_t n = y->size();
  uint64_t swaps = 0;
  for (size_t width = 1; width < n; width *= 2) {
    for (size_t lo = 0; lo + width < n; lo += 2 * width) {
      const size_t mid = lo + width;
      // Runs already in order merge to themselves with no exchange; the
      // x-tie groups arrive sorted, so whole stretches are skipped.
      if (!((*y)[mid] < (*y)[mid - 1])) continue;
      const size_t hi = std::min(lo + 2 * width, n);
      size_t i = lo, j = mid, k = lo;
      while (i < mid && j < hi) {
        if ((*y)[j] < (*y)[i]) {
          swaps += mid - i;  // element jumps over the rest of the left run
          (*buffer)[k++] = (*y)[j++];
        } else {
          (*buffer)[k++] = (*y)[i++];
        }
      }
      while (i < mid) (*buffer)[k++] = (*y)[i++];
      while (j < hi) (*buffer)[k++] = (*y)[j++];
      std::copy(buffer->begin() + lo, buffer->begin() + hi, y->begin() + lo);
    }
  }
  return swaps;
}

// Tie sums over the groups of size >= 2, in ascending value order.
TieSums TieSumsFromOffsets(const std::vector<uint32_t>& offsets) {
  TieSums s;
  for (size_t g = 0; g + 1 < offsets.size(); ++g) {
    const uint32_t size = offsets[g + 1] - offsets[g];
    if (size < 2) continue;
    const double t = static_cast<double>(size);
    s.pairs += t * (t - 1.0) / 2.0;
    s.triple += t * (t - 1.0) * (t - 2.0);
    s.weighted += t * (t - 1.0) * (2.0 * t + 5.0);
    s.pair_raw += t * (t - 1.0);
  }
  return s;
}

// Pairwise-complete gather (CompletePairs semantics): keeps index pairs
// where neither input is NaN, over the overlapping length.
void Gather(const std::vector<double>& x, const std::vector<double>& y,
            std::vector<double>* xc, std::vector<double>* yc) {
  const size_t n = std::min(x.size(), y.size());
  xc->clear();
  yc->clear();
  xc->reserve(n);
  yc->reserve(n);
  for (size_t i = 0; i < n; ++i) {
    if (std::isnan(x[i]) || std::isnan(y[i])) continue;
    xc->push_back(x[i]);
    yc->push_back(y[i]);
  }
}

// Pearson over NaN-free equal-length vectors given each side's moments.
Result<CorrelationTest> PearsonFromMoments(const std::vector<double>& x,
                                           const std::vector<double>& y,
                                           double mx, double sxx, double my,
                                           double syy) {
  if (sxx <= 0.0 || syy <= 0.0) {
    return Status::ComputeError("Pearson: constant input series");
  }
  const size_t n = x.size();
  double sxy = 0.0;
  for (size_t i = 0; i < n; ++i) {
    const double dx = x[i] - mx;
    const double dy = y[i] - my;
    sxy += dx * dy;
  }
  double r = sxy / std::sqrt(sxx * syy);
  r = std::clamp(r, -1.0, 1.0);
  CorrelationTest test;
  test.coefficient = r;
  test.n = n;
  test.p_value = PearsonPValue(r, n);
  return test;
}

Result<CorrelationTest> PearsonGathered(const std::vector<double>& xc,
                                        const std::vector<double>& yc) {
  if (xc.size() < 3) {
    return Status::InvalidArgument("Pearson: need >= 3 complete pairs");
  }
  double mx, sxx, my, syy;
  MomentsOf(xc, &mx, &sxx);
  MomentsOf(yc, &my, &syy);
  return PearsonFromMoments(xc, yc, mx, sxx, my, syy);
}

Result<CorrelationTest> SpearmanGathered(const std::vector<double>& xc,
                                         const std::vector<double>& yc) {
  if (xc.size() < 3) {
    return Status::InvalidArgument("Spearman: need >= 3 complete pairs");
  }
  const std::vector<double> rx = stats::AverageRanks(xc);
  const std::vector<double> ry = stats::AverageRanks(yc);
  double mx, sxx, my, syy;
  MomentsOf(rx, &mx, &sxx);
  MomentsOf(ry, &my, &syy);
  HOMETS_ASSIGN_OR_RETURN(CorrelationTest test,
                          PearsonFromMoments(rx, ry, mx, sxx, my, syy));
  test.n = xc.size();
  return test;
}

// Kendall's τ-b given y's dense ranks (the index of each value's tie group
// in ascending order, so ranks compare exactly as the values do) permuted
// into x-sorted order with y ascending within x-tie groups, the joint-tie
// pair count, and both sides' tie sums. `ys` is consumed (sorted in place
// by the inversion count).
Result<CorrelationTest> KendallFromProfiles(std::vector<uint32_t>* ys,
                                            std::vector<uint32_t>* buffer,
                                            double joint_pairs,
                                            const TieSums& tx,
                                            const TieSums& ty) {
  const size_t n = ys->size();
  buffer->resize(n);
  const uint64_t swaps = CountSwaps(ys, buffer);

  const double nf = static_cast<double>(n);
  const double n0 = nf * (nf - 1.0) / 2.0;
  const double denom_x = n0 - tx.pairs;
  const double denom_y = n0 - ty.pairs;
  if (denom_x <= 0.0 || denom_y <= 0.0) {
    return Status::ComputeError("Kendall: constant input series");
  }
  const double concordant_minus_discordant =
      n0 - tx.pairs - ty.pairs + joint_pairs -
      2.0 * static_cast<double>(swaps);
  double tau = concordant_minus_discordant / std::sqrt(denom_x * denom_y);
  tau = std::clamp(tau, -1.0, 1.0);

  // Tie-adjusted normal approximation for the null variance of (nc − nd)
  // (the form used by standard statistical packages).
  const double v0 = nf * (nf - 1.0) * (2.0 * nf + 5.0);
  double var = (v0 - tx.weighted - ty.weighted) / 18.0;
  var += tx.pair_raw * ty.pair_raw / (2.0 * nf * (nf - 1.0));
  if (n > 2) {
    var += tx.triple * ty.triple / (9.0 * nf * (nf - 1.0) * (nf - 2.0));
  }
  CorrelationTest test;
  test.coefficient = tau;
  test.n = n;
  if (var <= 0.0) {
    test.p_value = 1.0;
  } else {
    const double z = concordant_minus_discordant / std::sqrt(var);
    test.p_value = 2.0 * (1.0 - stats::NormalCdf(std::fabs(z)));
  }
  return test;
}

Result<CorrelationTest> KendallGathered(const std::vector<double>& xc,
                                        const std::vector<double>& yc,
                                        PairWorkspace* ws) {
  const size_t n = xc.size();
  if (n < 3) {
    return Status::InvalidArgument("Kendall: need >= 3 complete pairs");
  }

  // Knight's algorithm: sort by (x, y), count y-inversions.
  std::vector<size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    if (xc[a] != xc[b]) return xc[a] < xc[b];
    return yc[a] < yc[b];
  });
  const std::vector<uint32_t> y_order = stats::StableOrder(yc);
  const std::vector<uint32_t> y_groups = stats::TieGroupOffsets(yc, y_order);
  std::vector<uint32_t> y_rank(n);
  for (uint32_t r = 0; r + 1 < y_groups.size(); ++r) {
    for (uint32_t p = y_groups[r]; p < y_groups[r + 1]; ++p) {
      y_rank[y_order[p]] = r;
    }
  }
  ws->ys.resize(n);
  for (size_t i = 0; i < n; ++i) ws->ys[i] = y_rank[order[i]];

  // Joint ties: consecutive equal (x, y) pairs in the sorted order.
  double joint_pairs = 0.0;
  {
    size_t i = 0;
    while (i < n) {
      size_t j = i;
      while (j + 1 < n && xc[order[j + 1]] == xc[order[i]] &&
             yc[order[j + 1]] == yc[order[i]]) {
        ++j;
      }
      const double t = static_cast<double>(j - i + 1);
      joint_pairs += t * (t - 1.0) / 2.0;
      i = j + 1;
    }
  }

  const TieSums tx =
      TieSumsFromOffsets(stats::TieGroupOffsets(xc, stats::StableOrder(xc)));
  return KendallFromProfiles(&ws->ys, &ws->buffer, joint_pairs, tx,
                             TieSumsFromOffsets(y_groups));
}

}  // namespace

PreparedSeries PreparedSeries::Make(std::vector<double> values,
                                    uint32_t profiles) {
  PreparedSeries p;
  p.values_ = std::move(values);
  for (double v : p.values_) {
    if (std::isnan(v)) {
      p.has_nan_ = true;
      break;
    }
  }
  // Profiles only pay off on the NaN-free fast path; degenerate series take
  // the gather fallback anyway. profiles() stays 0 so it always reports what
  // was actually materialized.
  if (p.has_nan_ || p.values_.size() < 3) {
    static obs::Counter* const degenerate_fallbacks =
        obs::MetricsRegistry::Global().GetCounter(
            obs::kCorrelationDegenerateFallbacks);
    degenerate_fallbacks->Increment();
    return p;
  }
  p.profiles_ = profiles;

  if (profiles & kMomentProfile) {
    MomentsOf(p.values_, &p.mean_, &p.centered_ss_);
    p.constant_ = p.centered_ss_ <= 0.0;
  }
  if (profiles & (kRankProfile | kSortProfile)) {
    // One stable permutation feeds both profiles.
    std::vector<uint32_t> order = stats::StableOrder(p.values_);
    std::vector<uint32_t> offsets = stats::TieGroupOffsets(p.values_, order);
    if (profiles & kRankProfile) {
      p.ranks_ = stats::AverageRanks(order, offsets);
      MomentsOf(p.ranks_, &p.rank_mean_, &p.rank_centered_ss_);
    }
    if (profiles & kSortProfile) {
      p.tie_sums_ = TieSumsFromOffsets(offsets);
      p.sort_order_ = std::move(order);
      p.group_offsets_ = std::move(offsets);
    }
  }
  return p;
}

Result<CorrelationTest> Pearson(const PreparedSeries& x,
                                const PreparedSeries& y,
                                PairWorkspace* workspace) {
  if (x.PairableWith(y) && (x.profiles() & kMomentProfile) &&
      (y.profiles() & kMomentProfile)) {
    return PearsonFromMoments(x.values(), y.values(), x.mean(),
                              x.centered_ss(), y.mean(), y.centered_ss());
  }
  PairWorkspace local;
  PairWorkspace* ws = workspace != nullptr ? workspace : &local;
  Gather(x.values(), y.values(), &ws->xc, &ws->yc);
  return PearsonGathered(ws->xc, ws->yc);
}

Result<CorrelationTest> Spearman(const PreparedSeries& x,
                                 const PreparedSeries& y,
                                 PairWorkspace* workspace) {
  if (x.PairableWith(y) && (x.profiles() & kRankProfile) &&
      (y.profiles() & kRankProfile)) {
    HOMETS_ASSIGN_OR_RETURN(
        CorrelationTest test,
        PearsonFromMoments(x.ranks(), y.ranks(), x.rank_mean(),
                           x.rank_centered_ss(), y.rank_mean(),
                           y.rank_centered_ss()));
    test.n = x.size();
    return test;
  }
  PairWorkspace local;
  PairWorkspace* ws = workspace != nullptr ? workspace : &local;
  Gather(x.values(), y.values(), &ws->xc, &ws->yc);
  return SpearmanGathered(ws->xc, ws->yc);
}

Result<CorrelationTest> Kendall(const PreparedSeries& x,
                                const PreparedSeries& y,
                                PairWorkspace* workspace) {
  PairWorkspace local;
  PairWorkspace* ws = workspace != nullptr ? workspace : &local;
  if (!(x.PairableWith(y) && (x.profiles() & kSortProfile) &&
        (y.profiles() & kSortProfile))) {
    Gather(x.values(), y.values(), &ws->xc, &ws->yc);
    return KendallGathered(ws->xc, ws->yc, ws);
  }

  const size_t n = x.size();
  const std::vector<uint32_t>& groups = x.group_offsets();

  // y's dense ranks in x-sorted order, ascending within each x-tie group:
  // the (x, y) lexicographic order of the vector path. Walking y's sort
  // order and scattering each rank to the next free slot of its x group
  // fills every group already ascending.
  ws->group_of.resize(n);
  ws->cursor.assign(groups.begin(), groups.end() - 1);
  const std::vector<uint32_t>& x_order = x.sort_order();
  for (uint32_t g = 0; g + 1 < groups.size(); ++g) {
    for (uint32_t i = groups[g]; i < groups[g + 1]; ++i) {
      ws->group_of[x_order[i]] = g;
    }
  }
  ws->ys.resize(n);
  const std::vector<uint32_t>& y_order = y.sort_order();
  const std::vector<uint32_t>& y_groups = y.group_offsets();
  for (uint32_t r = 0; r + 1 < y_groups.size(); ++r) {
    for (uint32_t p = y_groups[r]; p < y_groups[r + 1]; ++p) {
      ws->ys[ws->cursor[ws->group_of[y_order[p]]]++] = r;
    }
  }

  // Joint ties: equal-y runs never cross an x-group boundary, so scanning
  // per group visits exactly the runs of consecutive equal (x, y) pairs.
  double joint_pairs = 0.0;
  for (size_t g = 0; g + 1 < groups.size(); ++g) {
    size_t i = groups[g];
    const size_t end = groups[g + 1];
    while (i < end) {
      size_t j = i;
      while (j + 1 < end && ws->ys[j + 1] == ws->ys[i]) ++j;
      const double t = static_cast<double>(j - i + 1);
      joint_pairs += t * (t - 1.0) / 2.0;
      i = j + 1;
    }
  }

  return KendallFromProfiles(&ws->ys, &ws->buffer, joint_pairs, x.tie_sums(),
                             y.tie_sums());
}

}  // namespace homets::correlation
