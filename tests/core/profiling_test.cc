#include "core/profiling.h"

#include <gtest/gtest.h>

#include "simgen/fleet.h"

namespace homets::core {
namespace {

simgen::GatewayTrace MakeGateway(int id = 0, uint64_t seed = 77) {
  simgen::SimConfig config;
  config.n_gateways = id + 1;
  config.weeks = 3;
  config.seed = seed;
  config.long_outage_prob = 0.0;
  config.unreliable_daily_prob = 0.0;
  return simgen::FleetGenerator(config).Generate(id);
}

Result<GatewayProfile> Profile(const simgen::GatewayTrace& gw,
                               const ProfilingOptions& options = {}) {
  return ProfileGateway(gw, DeriveGateway(gw), options);
}

TEST(ProfilingTest, ProducesCompleteProfile) {
  const auto gw = MakeGateway();
  const auto profile = Profile(gw).value();
  EXPECT_EQ(profile.gateway_id, gw.id);
  EXPECT_GE(profile.devices_observed, 1u);
  EXPECT_GE(profile.min_residents, 1u);
  EXPECT_GE(profile.quietest_slot, 0);
  EXPECT_LT(profile.quietest_slot, 8);
  EXPECT_GE(profile.evening_share, 0.0);
  EXPECT_LE(profile.evening_share, 1.0);
  EXPECT_FALSE(profile.device_tau_groups.empty());
}

TEST(ProfilingTest, MinResidentsLowerBoundsDominants) {
  const auto gw = MakeGateway(2, 91);
  const auto profile = Profile(gw).value();
  EXPECT_GE(profile.min_residents,
            std::max<size_t>(1, profile.dominant_devices.size()));
}

TEST(ProfilingTest, QuietestSlotIsNight) {
  // Behavior profiles concentrate usage in the day/evening, so the quietest
  // slot should be in the small hours for most homes.
  size_t night_count = 0, total = 0;
  for (int id = 0; id < 6; ++id) {
    const auto profile = Profile(MakeGateway(id, 101)).value();
    ++total;
    if (profile.quietest_slot <= 2) ++night_count;  // 00:00–09:00
  }
  EXPECT_GT(night_count, total / 2);
}

TEST(ProfilingTest, EmptyGatewayErrors) {
  simgen::GatewayTrace empty;
  EXPECT_FALSE(Profile(empty).ok());
}

TEST(ProfilingTest, FormatContainsKeyFacts) {
  const auto profile = Profile(MakeGateway()).value();
  const std::string report = FormatProfile(profile);
  EXPECT_NE(report.find("gateway 0"), std::string::npos);
  EXPECT_NE(report.find("maintenance window"), std::string::npos);
  EXPECT_NE(report.find("weekly pattern"), std::string::npos);
  if (!profile.dominant_devices.empty()) {
    EXPECT_NE(report.find("dominant #1"), std::string::npos);
  }
}

TEST(ProfilingTest, DominanceOptionsRespected) {
  const auto gw = MakeGateway(1, 55);
  ProfilingOptions strict;
  strict.dominance.phi = 0.95;
  const auto strict_profile = Profile(gw, strict).value();
  const auto default_profile = Profile(gw).value();
  EXPECT_LE(strict_profile.dominant_devices.size(),
            default_profile.dominant_devices.size());
}

}  // namespace
}  // namespace homets::core
