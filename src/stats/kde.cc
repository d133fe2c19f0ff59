#include "stats/kde.h"

#include <algorithm>
#include <cmath>

#include "stats/descriptive.h"

namespace homets::stats {

Result<KernelDensity> KernelDensity::Fit(std::vector<double> sample,
                                         double bandwidth) {
  if (sample.size() < 2) {
    return Status::InvalidArgument("KernelDensity: need at least 2 points");
  }
  if (bandwidth <= 0.0) {
    HOMETS_ASSIGN_OR_RETURN(const double sd, StdDev(sample));
    // Sorted copy: the density keeps the sample in its given order.
    std::vector<double> sorted = sample;
    std::sort(sorted.begin(), sorted.end());
    const double iqr =
        SortedQuantile(sorted, 0.75) - SortedQuantile(sorted, 0.25);
    double spread = sd;
    if (iqr > 0.0) spread = std::min(spread, iqr / 1.34);
    if (spread <= 0.0) spread = std::max(std::fabs(sample[0]), 1.0) * 1e-3;
    bandwidth = 0.9 * spread *
                std::pow(static_cast<double>(sample.size()), -0.2);
    if (bandwidth <= 0.0) bandwidth = 1e-9;
  }
  return KernelDensity(std::move(sample), bandwidth);
}

double KernelDensity::Evaluate(double x) const {
  const double inv_h = 1.0 / bandwidth_;
  const double norm =
      inv_h / (std::sqrt(2.0 * M_PI) * static_cast<double>(sample_.size()));
  double sum = 0.0;
  for (double xi : sample_) {
    const double u = (x - xi) * inv_h;
    sum += std::exp(-0.5 * u * u);
  }
  return norm * sum;
}

std::vector<std::pair<double, double>> KernelDensity::EvaluateGrid(
    size_t points) const {
  std::vector<std::pair<double, double>> grid;
  if (points == 0) return grid;
  const auto [lo_it, hi_it] =
      std::minmax_element(sample_.begin(), sample_.end());
  const double lo = *lo_it - 3.0 * bandwidth_;
  const double hi = *hi_it + 3.0 * bandwidth_;
  grid.reserve(points);
  for (size_t i = 0; i < points; ++i) {
    const double x =
        points == 1
            ? lo
            : lo + (hi - lo) * static_cast<double>(i) /
                  static_cast<double>(points - 1);
    grid.emplace_back(x, Evaluate(x));
  }
  return grid;
}

}  // namespace homets::stats
