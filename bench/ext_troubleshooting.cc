// Extension (the introduction's troubleshooting use case): per-gateway
// profiling plus pattern-deviation detection. Mines daily motifs, injects a
// synthetic fault into one home (a day of silence followed by an all-night
// blast) and shows the anomaly detector surfacing exactly that day, with
// the gateway's profile as the diagnosis context a support technician would
// see.
#include <iostream>

#include "bench_util.h"
#include "core/anomaly.h"
#include "core/motif.h"
#include "core/profiling.h"
#include "io/table.h"

namespace {

using namespace homets;  // NOLINT: bench binary

void Run() {
  bench::FleetCache fleet(bench::SmallConfig(40, 4));
  auto set = bench::DailyMotifWindows(&fleet, 28);
  std::cout << "windows: " << set.windows.size() << " gateway-days from "
            << set.gateways.size() << " gateways\n";
  if (set.gateways.empty()) return;

  // Inject a fault into the first eligible gateway's 10th day: wipe the real
  // traffic and place a night-time blast (e.g. a compromised device).
  const int victim = set.gateways.front();
  size_t injected = SIZE_MAX;
  for (size_t w = 0; w < set.windows.size(); ++w) {
    if (set.provenance[w].gateway_id == victim &&
        set.provenance[w].start_minute == 9 * ts::kMinutesPerDay) {
      for (auto& v : set.windows[w].mutable_values()) v = 0.0;
      set.windows[w][0] = 2.5e8;
      set.windows[w][1] = 2.5e8;
      injected = w;
      break;
    }
  }

  const auto motifs = core::MotifDiscovery().Discover(set.windows);
  if (!motifs.ok()) return;
  const auto anomalies =
      core::FindPatternAnomalies(set.windows, set.provenance, *motifs);
  if (!anomalies.ok()) return;

  io::PrintSection(std::cout, "Pattern-deviation report");
  io::TextTable table({"gateway", "day", "best_pattern_cor", "volume_MB",
                       "injected_fault"});
  for (size_t i = 0; i < anomalies->size() && i < 10; ++i) {
    const auto& a = (*anomalies)[i];
    table.AddRow({bench::FmtInt(static_cast<size_t>(a.gateway_id)),
                  bench::FmtInt(static_cast<size_t>(a.start_minute /
                                                    ts::kMinutesPerDay)),
                  bench::Fmt(a.best_pattern_similarity, 2),
                  bench::Fmt(a.window_volume / 1e6, 0),
                  a.window_index == injected ? "<-- yes" : ""});
  }
  table.Print(std::cout);
  bool found = false;
  for (const auto& a : *anomalies) {
    if (a.window_index == injected) found = true;
  }
  std::cout << "  injected fault "
            << (found ? "DETECTED" : "missed (gateway had no stable pattern)")
            << " among " << anomalies->size() << " flagged gateway-days\n";

  io::PrintSection(std::cout, "Technician context: victim gateway profile");
  const simgen::GatewayTrace& victim_trace = fleet.Get(victim);
  const auto profile =
      core::ProfileGateway(victim_trace, core::DeriveGateway(victim_trace));
  if (profile.ok()) {
    std::cout << core::FormatProfile(*profile);
  }
  std::cout << "\n(the paper's Section 1 workflow: contrast the trouble "
               "report with the home's recurring patterns and dominant "
               "devices before rolling a technician)\n";
}

}  // namespace

int main() {
  Run();
  return 0;
}
