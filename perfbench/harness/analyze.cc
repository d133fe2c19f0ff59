#include "analyze.h"

#include <sys/resource.h>

#include <array>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <optional>
#include <utility>

#include "common/thread_pool.h"
#include "core/background.h"
#include "core/dominance.h"
#include "core/motif.h"
#include "core/stationarity.h"
#include "fleet/checkpoint.h"
#include "io/dataset.h"
#include "obs/metric_names.h"
#include "obs/metrics.h"
#include "simgen/types.h"
#include "ts/time_series.h"

namespace perfbench {

namespace fleet = homets::fleet;
namespace core = homets::core;
namespace obs = homets::obs;
namespace ts = homets::ts;
using homets::Result;
using homets::Status;

namespace {

// The daily motif parameters of fleet/shard.cc (3 h bins, midnight anchor).
constexpr int64_t kDailyGranularityMinutes = 180;
constexpr int64_t kDailyAnchorMinutes = 0;

// Repeats of the sub-millisecond calls the traced run times, so each
// figure is a total far above the trace clock's 1 µs resolution.
constexpr int kEnumerateRepeats = 20;
constexpr int kCheckpointRepeats = 10;
constexpr int kFormatRepeats = 200;

/// Collects the duration of every span reported to it, in arrival order.
/// Lets a ScopedSpan time a call while no TraceSession is installed, i.e.
/// with the program's own spans switched off.
class DurationSink : public obs::SpanSink {
 public:
  void OnSpan(const std::string&, uint64_t duration_ns) override {
    durations_ms.push_back(static_cast<double>(duration_ns) / 1e6);
  }
  std::vector<double> durations_ms;
};

/// User + system CPU seconds of the whole process (all threads).
double ProcessCpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto seconds = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + 1e-6 * static_cast<double>(t.tv_usec);
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

/// FormatFleetReport without its first line, which names the shard count
/// and so differs between otherwise identical runs.
std::string ReportFigures(const fleet::FleetReport& report) {
  const std::string text = fleet::FormatFleetReport(report);
  const size_t eol = text.find('\n');
  return eol == std::string::npos ? std::string() : text.substr(eol + 1);
}

/// Field-by-field equality; `evening_share` compares its IEEE-754 bits.
bool SameSummary(const fleet::GatewaySummary& a,
                 const fleet::GatewaySummary& b) {
  return a.gateway_id == b.gateway_id && a.eligible == b.eligible &&
         a.devices_observed == b.devices_observed &&
         a.dominant_count == b.dominant_count &&
         a.min_residents == b.min_residents &&
         a.weekly_stationary == b.weekly_stationary &&
         a.quietest_slot == b.quietest_slot &&
         std::memcmp(&a.evening_share, &b.evening_share, sizeof(double)) ==
             0 &&
         a.tau_small == b.tau_small && a.tau_medium == b.tau_medium &&
         a.tau_large == b.tau_large && a.daily_windows == b.daily_windows &&
         a.daily_motifs == b.daily_motifs;
}

/// Per-device, per-direction minute counters a decoded gateway reports
/// (missing minutes excluded): the input size of the analyze path.
uint64_t CountObservations(const homets::simgen::GatewayTrace& trace) {
  uint64_t n = 0;
  for (const auto& dev : trace.devices) {
    n += dev.incoming.CountObserved() + dev.outgoing.CountObserved();
  }
  return n;
}

/// Times `fn()` with a benchmark span reporting to `sink` (program spans
/// stay off: no TraceSession is installed during the untraced steps).
template <typename Fn>
auto TimedCall(const char* name, DurationSink* sink, Fn&& fn) {
  obs::ScopedSpan span(name, sink, kBenchCategory);
  return fn();
}

/// The Definition 2 / slot-usage / τ-group part of core::ProfileGateway,
/// rebuilt from its public calls. Leaves `summary` ineligible when the
/// gateway has no active observation (ProfileGateway's error case).
void ReplayProfile(const fleet::FleetOptions& options,
                   const homets::simgen::GatewayTrace& trace,
                   const ts::TimeSeries& active,
                   fleet::GatewaySummary* summary) {
  if (active.empty() || active.CountObserved() == 0) return;
  summary->eligible = true;
  {
    obs::ScopedSpan span("bench.derive.totals", nullptr, kBenchCategory);
    size_t observed = 0;
    for (const auto& dev : trace.devices) {
      if (dev.TotalTraffic().CountObserved() > 0) ++observed;
    }
    (void)observed;  // ProfileGateway's devices_observed; not summarized
  }
  {
    obs::ScopedSpan span("bench.dominance.find", nullptr, kBenchCategory);
    const auto dominants =
        core::FindDominantDevices(trace, options.profiling.dominance);
    summary->dominant_count = static_cast<uint32_t>(dominants.size());
    summary->min_residents =
        static_cast<uint32_t>(std::max<size_t>(1, dominants.size()));
  }
  {
    obs::ScopedSpan span("bench.stationarity.weekly", nullptr,
                         kBenchCategory);
    const auto aggregated =
        ts::Aggregate(active, options.profiling.aggregation_minutes, 0,
                      ts::AggKind::kSum);
    if (aggregated.ok()) {
      const auto windows =
          ts::SliceWindows(*aggregated, ts::kMinutesPerWeek, 0);
      if (windows.size() >= 2) {
        const auto result = core::CheckStrongStationarity(
            windows, options.profiling.stationarity);
        if (result.ok()) {
          summary->weekly_stationary = result->strongly_stationary;
        }
      }
    }
  }
  // Slot usage: the same arithmetic, in the same order, as ProfileGateway.
  std::array<double, 8> slot_traffic{};
  std::array<size_t, 8> slot_counts{};
  for (size_t i = 0; i < active.size(); ++i) {
    const double v = active[i];
    if (ts::TimeSeries::IsMissing(v)) continue;
    const size_t slot =
        static_cast<size_t>(ts::MinuteOfDay(active.MinuteAt(i)) / 180);
    slot_traffic[slot] += v;
    ++slot_counts[slot];
  }
  double total = 0.0;
  double best_mean = -1.0;
  for (size_t s = 0; s < 8; ++s) {
    total += slot_traffic[s];
    if (slot_counts[s] == 0) continue;
    const double mean =
        slot_traffic[s] / static_cast<double>(slot_counts[s]);
    if (best_mean < 0.0 || mean < best_mean) {
      best_mean = mean;
      summary->quietest_slot = static_cast<int32_t>(s);
    }
  }
  if (total > 0.0) {
    summary->evening_share = (slot_traffic[6] + slot_traffic[7]) / total;
  }
  obs::ScopedSpan span("bench.background.tau", nullptr, kBenchCategory);
  for (const auto& dev : trace.devices) {
    const auto bg = core::EstimateDeviceBackground(dev);
    if (!bg.ok()) continue;
    switch (bg->incoming.group) {
      case core::TauGroup::kSmall:
        ++summary->tau_small;
        break;
      case core::TauGroup::kMedium:
        ++summary->tau_medium;
        break;
      case core::TauGroup::kLarge:
        ++summary->tau_large;
        break;
    }
  }
}

/// Shard results merged strictly by shard index, as the orchestrator's
/// Phase 3 does.
fleet::FleetReport MergeShards(const std::vector<fleet::ShardResult>& shards,
                               int n_gateways, int n_shards) {
  fleet::FleetReport report;
  report.n_gateways = n_gateways;
  report.n_shards = n_shards;
  report.zipf_bins.assign(fleet::kZipfBins, 0);
  for (const fleet::ShardResult& shard : shards) {
    report.gateways.insert(report.gateways.end(), shard.gateways.begin(),
                           shard.gateways.end());
    for (size_t b = 0; b < fleet::kZipfBins; ++b) {
      report.zipf_bins[b] += shard.zipf_bins[b];
    }
    report.values_binned += shard.values_binned;
  }
  return report;
}

}  // namespace

Result<GatewayReplay> ReplayGateway(const fleet::FleetInputs& inputs, int g,
                                    const fleet::FleetOptions& options) {
  obs::ScopedSpan root("bench.fleet.gateway", nullptr, kBenchCategory);
  const fleet::GatewaySourceRef& ref =
      inputs.gateways[static_cast<size_t>(g)];
  // RunShard opens a reader per shard run; a one-gateway plan opens one.
  std::optional<homets::io::DatasetReader> reader;
  {
    obs::ScopedSpan span("bench.storage.open", nullptr, kBenchCategory);
    HOMETS_ASSIGN_OR_RETURN(
        auto opened, homets::io::DatasetReader::Open(
                         inputs.paths[ref.input_index], options.dataset));
    reader.emplace(std::move(opened));
  }
  std::optional<homets::simgen::GatewayTrace> trace;
  {
    obs::ScopedSpan span("bench.storage.decode", nullptr, kBenchCategory);
    HOMETS_ASSIGN_OR_RETURN(auto decoded,
                            reader->ReadGateway(ref.gateway_index));
    trace.emplace(std::move(decoded));
  }
  GatewayReplay out;
  out.observations = CountObservations(*trace);
  fleet::GatewaySummary& summary = out.summary;
  summary.gateway_id = g;
  summary.devices_observed = static_cast<uint32_t>(trace->devices.size());
  {
    // ProfileGateway's own ActiveAggregate.
    std::optional<ts::TimeSeries> active;
    {
      obs::ScopedSpan span("bench.background.active_aggregate", nullptr,
                           kBenchCategory);
      active.emplace(core::ActiveAggregate(*trace));
    }
    ReplayProfile(options, *trace, *active, &summary);
  }
  // Summarize's second ActiveAggregate, then the daily motifs.
  std::optional<ts::TimeSeries> active;
  {
    obs::ScopedSpan span("bench.background.active_aggregate", nullptr,
                         kBenchCategory);
    active.emplace(core::ActiveAggregate(*trace));
  }
  {
    obs::ScopedSpan span("bench.motif.daily", nullptr, kBenchCategory);
    const auto aggregated =
        ts::Aggregate(*active, kDailyGranularityMinutes, kDailyAnchorMinutes,
                      ts::AggKind::kSum);
    if (aggregated.ok()) {
      const auto windows = ts::SliceWindows(*aggregated, ts::kMinutesPerDay,
                                            kDailyAnchorMinutes);
      summary.daily_windows = static_cast<uint32_t>(windows.size());
      if (windows.size() >= 2) {
        const auto motifs = core::MotifDiscovery().Discover(windows);
        if (motifs.ok()) {
          summary.daily_motifs = static_cast<uint32_t>(motifs->size());
        }
      }
    }
  }
  // RunShard's Zipf binning over the raw aggregate.
  obs::ScopedSpan span("bench.derive.zipf", nullptr, kBenchCategory);
  const ts::TimeSeries aggregate = trace->AggregateTraffic();
  out.zipf_bins.assign(fleet::kZipfBins, 0);
  for (const double v : aggregate.values()) {
    if (!(v > 0.0) || std::isnan(v)) continue;
    ++out.zipf_bins[fleet::ZipfBinIndex(v)];
    ++out.values_binned;
  }
  return out;
}

FleetReference MergeReplays(std::vector<GatewayReplay> gateways,
                            int n_shards) {
  FleetReference ref;
  ref.gateways = std::move(gateways);
  // Each gateway as a one-gateway shard, so there is one merge rule.
  std::vector<fleet::ShardResult> shards(ref.gateways.size());
  for (size_t g = 0; g < ref.gateways.size(); ++g) {
    const GatewayReplay& replay = ref.gateways[g];
    shards[g].gateways = {replay.summary};
    shards[g].zipf_bins = replay.zipf_bins;
    shards[g].values_binned = replay.values_binned;
    ref.observations += replay.observations;
  }
  ref.report =
      MergeShards(shards, static_cast<int>(ref.gateways.size()), n_shards);
  ref.figures = ReportFigures(ref.report);
  return ref;
}

Result<FleetReference> BuildReference(const fleet::FleetInputs& inputs,
                                      const fleet::FleetOptions& options,
                                      int threads) {
  std::vector<GatewayReplay> gateways(inputs.gateways.size());
  HOMETS_RETURN_IF_ERROR(homets::ParallelForStatus(
      gateways.size(), threads, 1, nullptr,
      [&](size_t begin, size_t end, int) -> Status {
        for (size_t g = begin; g < end; ++g) {
          HOMETS_ASSIGN_OR_RETURN(
              gateways[g],
              ReplayGateway(inputs, static_cast<int>(g), options));
        }
        return Status::OK();
      }));
  return MergeReplays(std::move(gateways), options.n_shards);
}

uint64_t CheckReport(const fleet::FleetReport& report,
                     const FleetReference& reference, Outcome* outcome) {
  const size_t n = reference.gateways.size();
  const auto plans =
      fleet::ShardPlanner::Plan(static_cast<int>(n), report.n_shards);
  if (static_cast<size_t>(report.n_gateways) != n || !plans.ok()) {
    outcome->Mismatch("fleet report plans a different gateway count");
    return n;
  }
  uint64_t quarantined = 0;
  for (const fleet::QuarantinedShard& q : report.quarantined) {
    const fleet::ShardPlan& plan = (*plans)[static_cast<size_t>(q.shard_index)];
    quarantined += static_cast<uint64_t>(plan.end_gateway - plan.begin_gateway);
  }
  // Every gateway the report holds must equal its replay, and the Zipf bins
  // must be exactly the sum over those gateways.
  bool same = report.gateways.size() + quarantined == n;
  std::vector<uint64_t> bins(fleet::kZipfBins, 0);
  uint64_t values_binned = 0;
  for (const fleet::GatewaySummary& s : report.gateways) {
    if (!same) break;
    const auto id = static_cast<size_t>(s.gateway_id);
    if (id >= n || !SameSummary(s, reference.gateways[id].summary)) {
      same = false;
      break;
    }
    for (size_t b = 0; b < fleet::kZipfBins; ++b) {
      bins[b] += reference.gateways[id].zipf_bins[b];
    }
    values_binned += reference.gateways[id].values_binned;
  }
  same = same && bins == report.zipf_bins &&
         values_binned == report.values_binned;
  if (same && !report.degraded) {
    same = ReportFigures(report) == reference.figures;
  }
  if (!same) {
    outcome->Mismatch("fleet report differs from the reference replay");
    return n;
  }
  return quarantined;
}

Result<TimedPasses> RunAnalyzeTimed(const RunContext& ctx,
                                    const FleetReference& reference,
                                    Outcome* outcome) {
  return RunTimedPasses(ctx, [&](int pass) -> Result<double> {
    fleet::FleetOptions options = AnalyzeOptions(ctx);
    if (ctx.workload.checkpoint) {
      options.checkpoint_dir = ctx.work_dir + "/ckpt-" + std::to_string(pass);
      std::filesystem::remove_all(options.checkpoint_dir);
    }
    fleet::FleetOrchestrator orchestrator({ctx.fleet_path}, options);
    const Clock::time_point t0 = Clock::now();
    const auto report = orchestrator.Analyze();
    const double wall = SecondsSince(t0);
    if (!report.ok()) return report.status();
    outcome->attempted += reference.gateways.size();
    outcome->failed += CheckReport(*report, reference, outcome);
    if (!options.checkpoint_dir.empty()) {
      std::filesystem::remove_all(options.checkpoint_dir);
    }
    return wall;
  });
}

LayerCounts LayerCounts::Now() {
  const auto value = [](std::string_view name) {
    return obs::MetricsRegistry::Global().GetCounter(name)->Value();
  };
  LayerCounts c;
  c.chunks_read = value(obs::kStorageChunksRead);
  c.chunks_skipped = value(obs::kStorageChunksSkipped);
  c.bytes_read = value(obs::kStorageBytesRead);
  c.devices_tested = value(obs::kDominanceDevicesTested);
  c.window_pairs = value(obs::kStationarityWindowPairs);
  c.motif_windows = value(obs::kMotifWindowsMined);
  c.engine_pairs = value(obs::kEnginePairsComputed);
  return c;
}

void LayerCounts::AddSince(const LayerCounts& before) {
  const LayerCounts now = Now();
  chunks_read += now.chunks_read - before.chunks_read;
  chunks_skipped += now.chunks_skipped - before.chunks_skipped;
  bytes_read += now.bytes_read - before.bytes_read;
  devices_tested += now.devices_tested - before.devices_tested;
  window_pairs += now.window_pairs - before.window_pairs;
  motif_windows += now.motif_windows - before.motif_windows;
  engine_pairs += now.engine_pairs - before.engine_pairs;
}

Result<FleetUntraced> UntracedFleetSteps(const RunContext& ctx,
                                         const fleet::FleetInputs& inputs) {
  FleetUntraced out;
  const auto n = static_cast<int>(inputs.gateways.size());
  fleet::FleetOptions options = AnalyzeOptions(ctx);
  if (ctx.workload.checkpoint) {
    options.checkpoint_dir = ctx.work_dir + "/ckpt-traced";
    std::filesystem::remove_all(options.checkpoint_dir);
  }
  {
    fleet::FleetOrchestrator orchestrator({ctx.fleet_path}, options);
    const double cpu0 = ProcessCpuSeconds();
    const Clock::time_point t0 = Clock::now();
    auto report = orchestrator.Analyze();
    const double wall = SecondsSince(t0);
    const double cpu = ProcessCpuSeconds() - cpu0;
    if (!report.ok()) return report.status();
    out.analyzed = std::move(*report);
    out.cpu_util = cpu / (wall * ctx.threads);
    out.cpu_s_per_gateway = cpu / n;
    out.gateways_per_s = n / wall;
    if (!options.checkpoint_dir.empty()) {
      std::filesystem::remove_all(options.checkpoint_dir);
    }
  }
  const fleet::ShardRunner runner(&inputs, options.dataset,
                                  options.profiling);
  HOMETS_ASSIGN_OR_RETURN(const auto plans,
                          fleet::ShardPlanner::Plan(n, options.n_shards));
  DurationSink shard_sink;
  for (const fleet::ShardPlan& plan : plans) {
    auto result = TimedCall("bench.fleet.run_shard", &shard_sink, [&] {
      return runner.RunShard(plan, nullptr);
    });
    if (!result.ok()) return result.status();
    out.shard_results.push_back(std::move(*result));
  }
  out.shard_ms = std::move(shard_sink.durations_ms);
  return out;
}

Result<FleetTraced> TracedFleetSteps(
    const RunContext& ctx, const fleet::FleetInputs& inputs,
    const std::vector<fleet::ShardResult>& shard_results,
    obs::TraceSession* session) {
  FleetTraced out;
  const fleet::FleetOptions options = AnalyzeOptions(ctx);
  const fleet::ShardRunner runner(&inputs, options.dataset,
                                  options.profiling);
  for (int i = 0; i < kEnumerateRepeats; ++i) {
    obs::ScopedSpan span("bench.fleet.enumerate", nullptr, kBenchCategory);
    HOMETS_RETURN_IF_ERROR(
        fleet::EnumerateFleetInputs(inputs.paths, options.dataset).status());
  }
  out.enumerate_repeats = kEnumerateRepeats;

  std::vector<GatewayReplay> gateways;
  DurationSink gateway_sink;
  {
    obs::ScopedSpan span("bench.fleet.replay", nullptr, kBenchCategory);
    for (int g = 0; g < static_cast<int>(inputs.gateways.size()); ++g) {
      obs::InstallGlobalTraceSession(nullptr);
      auto result = TimedCall("bench.fleet.run_shard_gateway", &gateway_sink,
                              [&] {
                                return runner.RunShard(
                                    fleet::ShardPlan{g, g, g + 1}, nullptr);
                              });
      obs::InstallGlobalTraceSession(session);
      if (!result.ok()) return result.status();
      out.gateway_results.push_back(std::move(*result));
      const LayerCounts before = LayerCounts::Now();
      HOMETS_ASSIGN_OR_RETURN(auto replay,
                              ReplayGateway(inputs, g, options));
      out.counts.AddSince(before);
      gateways.push_back(std::move(replay));
    }
  }
  out.gateway_ms = std::move(gateway_sink.durations_ms);
  out.replay = MergeReplays(std::move(gateways), options.n_shards);

  const std::string dir = ctx.work_dir + "/ckpt-write";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const std::string format_name(homets::io::InputFormatName(
      homets::io::GuessFormat(inputs.paths.front(), options.dataset.format)));
  const uint64_t fingerprint =
      fleet::FleetFingerprint(inputs, options.n_shards, format_name);
  for (const fleet::ShardResult& result : shard_results) {
    for (int i = 0; i < kCheckpointRepeats; ++i) {
      obs::ScopedSpan span("bench.checkpoint.write", nullptr, kBenchCategory);
      HOMETS_RETURN_IF_ERROR(
          fleet::WriteShardCheckpoint(dir, result, fingerprint));
    }
    out.checkpoint_bytes += std::filesystem::file_size(
        fleet::ShardCheckpointPath(dir, result.plan.shard_index));
  }
  out.checkpoint_repeats = kCheckpointRepeats;
  std::filesystem::remove_all(dir);

  const fleet::FleetReport merged =
      MergeShards(shard_results, static_cast<int>(inputs.gateways.size()),
                  options.n_shards);
  {
    obs::ScopedSpan span("bench.merge.format", nullptr, kBenchCategory);
    for (int i = 0; i < kFormatRepeats; ++i) {
      const std::string text = fleet::FormatFleetReport(merged);
      if (text.empty()) return Status::ComputeError("empty fleet report");
    }
  }
  out.format_repeats = kFormatRepeats;
  return out;
}

void CheckFleetSteps(const FleetUntraced& untraced, const FleetTraced& traced,
                     Outcome* outcome) {
  const FleetReference& replay = traced.replay;
  const int n = static_cast<int>(replay.gateways.size());
  outcome->attempted += 3 * replay.gateways.size();
  outcome->failed += CheckReport(untraced.analyzed, replay, outcome);
  const fleet::FleetReport by_shard = MergeShards(
      untraced.shard_results, n, replay.report.n_shards);
  outcome->failed += CheckReport(by_shard, replay, outcome);
  uint64_t gateway_failures = 0;
  for (size_t g = 0; g < traced.gateway_results.size(); ++g) {
    const fleet::ShardResult& r = traced.gateway_results[g];
    const GatewayReplay& ref = replay.gateways[g];
    if (r.gateways.size() != 1 || !SameSummary(r.gateways[0], ref.summary) ||
        r.zipf_bins != ref.zipf_bins ||
        r.values_binned != ref.values_binned) {
      ++gateway_failures;
    }
  }
  if (gateway_failures > 0 ||
      traced.gateway_results.size() != replay.gateways.size()) {
    outcome->Mismatch("a one-gateway RunShard differs from its replay");
    outcome->failed += replay.gateways.size();
  }
}

}  // namespace perfbench
