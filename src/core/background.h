#ifndef HOMETS_CORE_BACKGROUND_H_
#define HOMETS_CORE_BACKGROUND_H_

#include <optional>
#include <string>
#include <vector>

#include "common/status.h"
#include "simgen/types.h"
#include "ts/time_series.h"

namespace homets::core {

/// Paper constant (Section 6.1): effective background threshold is
/// min(τ, 5000) bytes per minute.
inline constexpr double kBackgroundCapBytes = 5000.0;

/// Section 6.1 τ groups: small τ <= 5000, medium τ in (5000, 40000],
/// large τ > 40000.
enum class TauGroup { kSmall, kMedium, kLarge };

std::string TauGroupName(TauGroup group);

TauGroup ClassifyTau(double tau);

/// \brief Background-traffic characterization of one device direction.
struct BackgroundThreshold {
  double tau = 0.0;       ///< upper whisker of the traffic boxplot
  double tau_back = 0.0;  ///< min(τ, 5000): threshold actually applied
  TauGroup group = TauGroup::kSmall;
  size_t observations = 0;
};

/// \brief Estimates τ for a traffic series (Section 6.1): the upper whisker
/// of the boxplot of observed values. Requires at least 8 observations.
Result<BackgroundThreshold> EstimateBackgroundThreshold(
    const ts::TimeSeries& traffic);

/// \brief Per-device, per-direction thresholds (the paper estimates τ for
/// incoming and outgoing separately).
struct DeviceBackground {
  BackgroundThreshold incoming;
  BackgroundThreshold outgoing;
};

Result<DeviceBackground> EstimateDeviceBackground(
    const simgen::DeviceTrace& device);

/// \brief The per-gateway derived series (DESIGN.md §15.1), built by one
/// pass that computes each device's total traffic and τ once. It holds only
/// gateway-level series and per-device scalars, never a device's series.
struct DerivedGateway {
  ts::TimeSeries aggregate;  ///< == GatewayTrace::AggregateTraffic()
  /// Background-free aggregate: each device's values below τ_back zeroed
  /// per direction; a device without τ (too few observations — e.g. brief
  /// guests) is included unfiltered.
  ts::TimeSeries active;
  /// Parallel to GatewayTrace::devices; nullopt when τ cannot be estimated.
  std::vector<std::optional<DeviceBackground>> background;
  size_t devices_observed = 0;  ///< devices with at least one observation
};

DerivedGateway DeriveGateway(const simgen::GatewayTrace& gateway);

/// \brief DeriveGateway(gateway).active.
ts::TimeSeries ActiveAggregate(const simgen::GatewayTrace& gateway);

}  // namespace homets::core

#endif  // HOMETS_CORE_BACKGROUND_H_
