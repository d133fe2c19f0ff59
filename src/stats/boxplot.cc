#include "stats/boxplot.h"

#include <cstdint>

#include "stats/descriptive.h"
#include "stats/ranks.h"

namespace homets::stats {

Result<Boxplot> ComputeBoxplot(std::vector<double> xs, double whisker_factor) {
  if (xs.empty()) return Status::InvalidArgument("ComputeBoxplot: empty input");
  if (whisker_factor < 0.0) {
    return Status::InvalidArgument("ComputeBoxplot: negative whisker factor");
  }
  {
    const std::vector<uint32_t> order = StableOrder(xs);
    std::vector<double> sorted(xs.size());
    for (size_t i = 0; i < order.size(); ++i) sorted[i] = xs[order[i]];
    xs.swap(sorted);
  }
  Boxplot box;
  box.q1 = SortedQuantile(xs, 0.25);
  box.median = SortedQuantile(xs, 0.5);
  box.q3 = SortedQuantile(xs, 0.75);
  box.iqr = box.q3 - box.q1;
  const double lo_fence = box.q1 - whisker_factor * box.iqr;
  const double hi_fence = box.q3 + whisker_factor * box.iqr;
  // Whiskers reach to the most extreme observations inside the fences; with
  // all data outside a fence (degenerate), fall back to the quartile itself.
  box.lower_whisker = box.q1;
  box.upper_whisker = box.q3;
  for (double x : xs) {
    if (x >= lo_fence) {
      box.lower_whisker = x;
      break;
    }
  }
  for (auto it = xs.rbegin(); it != xs.rend(); ++it) {
    if (*it <= hi_fence) {
      box.upper_whisker = *it;
      break;
    }
  }
  for (double x : xs) {
    if (x < lo_fence || x > hi_fence) box.outliers.push_back(x);
  }
  return box;
}

}  // namespace homets::stats
