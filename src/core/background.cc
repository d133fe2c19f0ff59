#include "core/background.h"

#include <algorithm>
#include <optional>
#include <utility>

#include "obs/log.h"
#include "obs/metric_names.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "stats/boxplot.h"

namespace homets::core {

namespace {

// Observed values ClipBelow(threshold) will zero: strictly below τ_back and
// not already zero. Counted up front so thresholding itself stays untouched.
uint64_t CountValuesToZero(const ts::TimeSeries& series, double threshold) {
  uint64_t zeroed = 0;
  for (size_t i = 0; i < series.size(); ++i) {
    const double v = series[i];
    if (!ts::TimeSeries::IsMissing(v) && v != 0.0 && v < threshold) ++zeroed;
  }
  return zeroed;
}

}  // namespace

std::string TauGroupName(TauGroup group) {
  switch (group) {
    case TauGroup::kSmall:
      return "small";
    case TauGroup::kMedium:
      return "medium";
    case TauGroup::kLarge:
      return "large";
  }
  return "small";
}

TauGroup ClassifyTau(double tau) {
  if (tau <= 5000.0) return TauGroup::kSmall;
  if (tau <= 40000.0) return TauGroup::kMedium;
  return TauGroup::kLarge;
}

Result<BackgroundThreshold> EstimateBackgroundThreshold(
    const ts::TimeSeries& traffic) {
  std::vector<double> observed = traffic.ObservedValues();
  if (observed.size() < 8) {
    return Status::InvalidArgument(
        "EstimateBackgroundThreshold: need >= 8 observations");
  }
  BackgroundThreshold result;
  result.observations = observed.size();
  HOMETS_ASSIGN_OR_RETURN(const stats::Boxplot box,
                          stats::ComputeBoxplot(std::move(observed)));
  result.tau = box.upper_whisker;
  result.tau_back = std::min(result.tau, kBackgroundCapBytes);
  result.group = ClassifyTau(result.tau);
  auto& registry = obs::MetricsRegistry::Global();
  static obs::Counter* const thresholds_estimated =
      registry.GetCounter(obs::kBackgroundThresholdsEstimated);
  static obs::Counter* const tau_capped =
      registry.GetCounter(obs::kBackgroundTauCapped);
  thresholds_estimated->Increment();
  if (result.tau > kBackgroundCapBytes) {
    tau_capped->Increment();
    // A capped whisker means the gateway's background estimate hit the
    // paper's 100 MB ceiling — worth a breadcrumb when debug-tracing a run.
    obs::LogDebug("background", "tau capped",
                  {obs::LogField::Double("tau", result.tau),
                   obs::LogField::Double("cap", kBackgroundCapBytes)});
  }
  return result;
}

Result<DeviceBackground> EstimateDeviceBackground(
    const simgen::DeviceTrace& device) {
  DeviceBackground bg;
  HOMETS_ASSIGN_OR_RETURN(bg.incoming,
                          EstimateBackgroundThreshold(device.incoming));
  HOMETS_ASSIGN_OR_RETURN(bg.outgoing,
                          EstimateBackgroundThreshold(device.outgoing));
  return bg;
}

DerivedGateway DeriveGateway(const simgen::GatewayTrace& gateway) {
  obs::ScopedSpan span("background.derive_gateway");
  static obs::Counter* const values_zeroed =
      obs::MetricsRegistry::Global().GetCounter(obs::kBackgroundValuesZeroed);
  DerivedGateway view;
  for (const auto& dev : gateway.devices) {
    const auto bg = EstimateDeviceBackground(dev);
    view.background.push_back(bg.ok() ? std::optional(*bg) : std::nullopt);
    bool clipped = false;
    if (bg.ok()) {
      values_zeroed->Increment(
          CountValuesToZero(dev.incoming, bg->incoming.tau_back) +
          CountValuesToZero(dev.outgoing, bg->outgoing.tau_back));
      auto active =
          ts::TimeSeries::Add(dev.incoming.ClipBelow(bg->incoming.tau_back),
                              dev.outgoing.ClipBelow(bg->outgoing.tau_back));
      clipped = active.ok();
      if (clipped) view.active.Accumulate(std::move(active).value());
    }
    // Built once the clipped series are freed, to keep the peak heap down.
    ts::TimeSeries total = dev.TotalTraffic();
    if (total.CountObserved() > 0) ++view.devices_observed;
    if (!clipped) view.active.Accumulate(total);
    view.aggregate.Accumulate(std::move(total));
  }
  return view;
}

ts::TimeSeries ActiveAggregate(const simgen::GatewayTrace& gateway) {
  return DeriveGateway(gateway).active;
}

}  // namespace homets::core
