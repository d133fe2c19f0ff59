#ifndef HOMETS_PERFBENCH_ANALYZE_H_
#define HOMETS_PERFBENCH_ANALYZE_H_

// The fleet path (`homets_cli analyze`): the benchmark's reference replay,
// the timed FleetOrchestrator passes, and the per-layer steps of the traced
// run.

#include <cstdint>
#include <string>
#include <vector>

#include "bench.h"
#include "common/status.h"
#include "fleet/shard.h"
#include "obs/trace.h"

namespace perfbench {

/// What one gateway contributes to a fleet report.
struct GatewayReplay {
  homets::fleet::GatewaySummary summary;
  std::vector<uint64_t> zipf_bins;
  uint64_t values_binned = 0;
  uint64_t observations = 0;  ///< CountObservations of the gateway
};

/// The benchmark's own rebuild of a fleet report, one gateway at a time.
struct FleetReference {
  std::vector<GatewayReplay> gateways;  ///< by global gateway index
  homets::fleet::FleetReport report;
  std::string figures;  ///< ReportFigures(report)
  uint64_t observations = 0;
};

/// \brief Replays gateway `g` through the public calls that
/// ShardRunner::RunShard → Summarize → core::ProfileGateway make, in the
/// same order, with a benchmark span around each call.
homets::Result<GatewayReplay> ReplayGateway(
    const homets::fleet::FleetInputs& inputs, int g,
    const homets::fleet::FleetOptions& options);

/// Replays every gateway (on `threads` threads) and merges the results the
/// way the orchestrator merges shards.
homets::Result<FleetReference> BuildReference(
    const homets::fleet::FleetInputs& inputs,
    const homets::fleet::FleetOptions& options, int threads);

/// Merges replayed gateways into a report, as the orchestrator does.
FleetReference MergeReplays(std::vector<GatewayReplay> gateways,
                            int n_shards);

/// \brief Checks an Analyze report against the reference. Returns the
/// gateways to count as failed: those of quarantined shards, or all of them
/// when anything the report holds differs from the reference (which also
/// marks the outcome incorrect).
uint64_t CheckReport(const homets::fleet::FleetReport& report,
                     const FleetReference& reference, Outcome* outcome);

/// \brief The timed phase of analyze_*: FleetOrchestrator::Analyze passes,
/// each checked against the reference.
homets::Result<TimedPasses> RunAnalyzeTimed(const RunContext& ctx,
                                            const FleetReference& reference,
                                            Outcome* outcome);

/// Untraced fleet timings of the traced run.
struct FleetUntraced {
  double cpu_util = 0.0;
  double cpu_s_per_gateway = 0.0;
  double gateways_per_s = 0.0;
  std::vector<double> shard_ms;  ///< RunShard on the workload's plan
  std::vector<homets::fleet::ShardResult> shard_results;
  homets::fleet::FleetReport analyzed;  ///< one untraced Analyze pass
};

/// One untraced Analyze pass, then RunShard on the workload's shard plan.
homets::Result<FleetUntraced> UntracedFleetSteps(
    const RunContext& ctx, const homets::fleet::FleetInputs& inputs);

/// Program counters the per-layer metrics read, as deltas.
struct LayerCounts {
  uint64_t chunks_read = 0;
  uint64_t chunks_skipped = 0;
  uint64_t bytes_read = 0;
  uint64_t devices_tested = 0;
  uint64_t window_pairs = 0;
  uint64_t motif_windows = 0;
  uint64_t engine_pairs = 0;

  static LayerCounts Now();
  /// Adds Now() − `before`.
  void AddSince(const LayerCounts& before);
};

struct FleetTraced {
  FleetReference replay;
  LayerCounts counts;  ///< over the replay only
  std::vector<double> gateway_ms;  ///< untraced RunShard, one-gateway plans
  std::vector<homets::fleet::ShardResult> gateway_results;
  uint64_t checkpoint_bytes = 0;  ///< summed over shard checkpoints
  int enumerate_repeats = 0;
  int checkpoint_repeats = 0;  ///< writes per shard
  int format_repeats = 0;
};

/// \brief The traced fleet steps, with `session` installed except around
/// the untraced calls: enumerate; per gateway, RunShard on its one-gateway
/// plan (untraced) then its replay (traced), so the pair sees the same host
/// speed; checkpoint writes of `shard_results`; report formatting.
homets::Result<FleetTraced> TracedFleetSteps(
    const RunContext& ctx, const homets::fleet::FleetInputs& inputs,
    const std::vector<homets::fleet::ShardResult>& shard_results,
    homets::obs::TraceSession* session);

/// Checks the untraced results against the traced replay: the Analyze
/// pass, the workload's shard plan and every one-gateway RunShard must
/// rebuild the replay's summaries and Zipf bins exactly.
void CheckFleetSteps(const FleetUntraced& untraced, const FleetTraced& traced,
                     Outcome* outcome);

}  // namespace perfbench

#endif  // HOMETS_PERFBENCH_ANALYZE_H_
