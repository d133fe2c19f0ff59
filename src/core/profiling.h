#ifndef HOMETS_CORE_PROFILING_H_
#define HOMETS_CORE_PROFILING_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/background.h"
#include "core/dominance.h"
#include "core/stationarity.h"
#include "simgen/types.h"

namespace homets::core {

/// \brief High-level profile of one gateway — the "high level profiling of
/// gateways" the paper says dominant-device knowledge enables for ISPs
/// (Section 6.2). Bundles every per-gateway output of the framework.
struct GatewayProfile {
  int gateway_id = 0;
  size_t devices_observed = 0;

  std::vector<DominantDevice> dominant_devices;  ///< φ = 0.6, ranked
  /// Lower bound on the resident count (Section 6.2's finding #4).
  size_t min_residents = 0;

  /// Strong stationarity of weekly windows at 3 h bins on active traffic.
  bool weekly_stationary = false;
  double min_week_pair_similarity = 0.0;

  /// Quietest 3-hour slot of the day (0..7) by mean active traffic — the
  /// firmware-update window.
  int quietest_slot = 0;
  /// Share of active traffic in the evening slots (18:00–24:00).
  double evening_share = 0.0;

  /// Per-device τ groups (small/medium/large) by reported type.
  std::vector<std::pair<std::string, TauGroup>> device_tau_groups;
};

/// \brief Options for profiling.
struct ProfilingOptions {
  DominanceOptions dominance;
  StationarityOptions stationarity;
  int64_t aggregation_minutes = 180;
};

/// \brief Computes the full profile of a gateway from its trace and its
/// derived view (`view` must be DeriveGateway(gateway)). Fails only when the
/// active aggregate has no observation; with fewer than two weekly windows
/// the profile is still computed and `weekly_stationary` stays false.
Result<GatewayProfile> ProfileGateway(const simgen::GatewayTrace& gateway,
                                      const DerivedGateway& view,
                                      const ProfilingOptions& options = {});

/// \brief Renders the profile as a short human-readable report.
std::string FormatProfile(const GatewayProfile& profile);

}  // namespace homets::core

#endif  // HOMETS_CORE_PROFILING_H_
