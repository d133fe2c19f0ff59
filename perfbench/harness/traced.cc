#include "traced.h"

#include <algorithm>
#include <fstream>

#include "analyze.h"
#include "obs/metric_names.h"
#include "obs/metrics.h"
#include "stream.h"

namespace perfbench {

namespace fleet = homets::fleet;
namespace obs = homets::obs;
using homets::Result;
using homets::Status;

namespace {

/// Spans named `name` under the root span `root`.
std::vector<const SpanSelf*> Select(const std::vector<SpanSelf>& spans,
                                    const std::string& root,
                                    const std::string& name) {
  std::vector<const SpanSelf*> out;
  for (const SpanSelf& s : spans) {
    if (s.root == root && s.name == name) out.push_back(&s);
  }
  return out;
}

double SelfMs(const std::vector<SpanSelf>& spans, const std::string& root,
              const std::string& name) {
  int64_t us = 0;
  for (const SpanSelf* s : Select(spans, root, name)) us += s->self_us;
  return static_cast<double>(us) / 1e3;
}

std::vector<double> DurationsMs(const std::vector<SpanSelf>& spans,
                                const std::string& root,
                                const std::string& name) {
  std::vector<double> out;
  for (const SpanSelf* s : Select(spans, root, name)) {
    out.push_back(static_cast<double>(s->dur_us) / 1e3);
  }
  return out;
}

/// Share of the per-gateway spans' time that their layer spans cover.
double Coverage(const std::vector<SpanSelf>& spans, const std::string& root,
                const std::string& gateway_span) {
  int64_t covered = 0;
  int64_t total = 0;
  for (const SpanSelf* s : Select(spans, root, gateway_span)) {
    covered += s->dur_us - s->self_us;
    total += s->dur_us;
  }
  return total == 0 ? 0.0 : static_cast<double>(covered) / total;
}

uint64_t CounterValue(std::string_view name) {
  return obs::MetricsRegistry::Global().GetCounter(name)->Value();
}

}  // namespace

std::vector<SpanSelf> BenchSelfTimes(
    const std::vector<obs::TraceEvent>& events) {
  std::vector<const obs::TraceEvent*> bench;
  for (const obs::TraceEvent& e : events) {
    if (e.category == kBenchCategory) bench.push_back(&e);
  }
  std::sort(bench.begin(), bench.end(),
            [](const obs::TraceEvent* a, const obs::TraceEvent* b) {
              if (a->tid != b->tid) return a->tid < b->tid;
              if (a->ts_us != b->ts_us) return a->ts_us < b->ts_us;
              return a->depth < b->depth;
            });
  std::vector<SpanSelf> out;
  out.reserve(bench.size());
  std::vector<int64_t> child_us(bench.size(), 0);
  std::vector<size_t> open;  // enclosing benchmark spans, innermost last
  for (size_t i = 0; i < bench.size(); ++i) {
    const obs::TraceEvent& e = *bench[i];
    while (!open.empty()) {
      const obs::TraceEvent& p = *bench[open.back()];
      const bool encloses = p.tid == e.tid && p.depth < e.depth &&
                            e.ts_us >= p.ts_us &&
                            e.ts_us + e.dur_us <= p.ts_us + p.dur_us;
      if (encloses) break;
      open.pop_back();
    }
    SpanSelf span;
    span.name = e.name;
    span.ts_us = e.ts_us;
    span.dur_us = e.dur_us;
    if (open.empty()) {
      span.root = e.name;
    } else {
      span.root = out[open.back()].root;
      child_us[open.back()] += e.dur_us;
    }
    out.push_back(std::move(span));
    open.push_back(i);
  }
  for (size_t i = 0; i < out.size(); ++i) {
    out[i].self_us = out[i].dur_us - child_us[i];
  }
  return out;
}

Result<std::string> RunTraced(const RunContext& ctx, Outcome* outcome,
                              Metrics* metrics) {
  const fleet::FleetOptions options = AnalyzeOptions(ctx);
  HOMETS_ASSIGN_OR_RETURN(
      const fleet::FleetInputs inputs,
      fleet::EnumerateFleetInputs({ctx.fleet_path}, options.dataset));
  const auto n = static_cast<double>(inputs.gateways.size());

  // Untraced: the Analyze pass, RunShard on the workload's shard plan, and
  // one stream pass (the window latencies).
  HOMETS_ASSIGN_OR_RETURN(const FleetUntraced untraced,
                          UntracedFleetSteps(ctx, inputs));
  HOMETS_ASSIGN_OR_RETURN(const StreamPass stream_untraced,
                          RunStreamPass(ctx.fleet_path));

  obs::TraceSession session;
  obs::InstallGlobalTraceSession(&session);
  auto fleet_traced =
      TracedFleetSteps(ctx, inputs, untraced.shard_results, &session);
  const uint64_t merges = CounterValue(obs::kStreamingMotifsMerged);
  auto stream_traced = fleet_traced.ok()
                           ? RunStreamPass(ctx.fleet_path)
                           : Result<StreamPass>(fleet_traced.status());
  const uint64_t motifs_merged =
      CounterValue(obs::kStreamingMotifsMerged) - merges;
  obs::InstallGlobalTraceSession(nullptr);
  HOMETS_RETURN_IF_ERROR(fleet_traced.status());
  HOMETS_RETURN_IF_ERROR(stream_traced.status());
  if (!ctx.trace_out.empty()) {
    std::ofstream out(ctx.trace_out);
    out << session.ToChromeJson();
    if (!out) return Status::IoError("cannot write " + ctx.trace_out);
  }

  // Correctness: the replays are the reference for every untraced output.
  const FleetReference& replay = fleet_traced->replay;
  CheckFleetSteps(untraced, *fleet_traced, outcome);
  outcome->attempted += stream_untraced.attempted() + stream_traced->attempted();
  outcome->failed += stream_untraced.failed() + stream_traced->failed();
  if (stream_traced->table != stream_untraced.table) {
    outcome->Mismatch("traced stream replay differs from the untraced pass");
    outcome->failed += stream_traced->attempted();
  }
  const std::string digest = Digest(ctx.workload.stream
                                        ? stream_untraced.table
                                        : replay.figures);

  const std::vector<SpanSelf> spans = BenchSelfTimes(session.Events());
  const std::string kFleet = "bench.fleet.replay";
  const std::string kStream = "bench.stream.replay";
  const FleetTraced& ft = *fleet_traced;
  const auto add = [&](const char* name, double value, const char* unit) {
    metrics->push_back({name, value, unit});
  };
  add("fleet.cpu_util", untraced.cpu_util, "ratio");
  add("fleet.cpu_s_per_gateway", untraced.cpu_s_per_gateway, "s");
  add("fleet.gateways_per_s", untraced.gateways_per_s, "gateways/s");
  add("fleet.gateway_p50_ms", Median(ft.gateway_ms), "ms");
  add("fleet.gateway_tail_ms", Tail(ft.gateway_ms), "ms");
  add("fleet.shard_skew",
      *std::max_element(untraced.shard_ms.begin(), untraced.shard_ms.end()) /
          Mean(untraced.shard_ms),
      "ratio");
  add("fleet.enumerate_ms",
      SelfMs(spans, "bench.fleet.enumerate", "bench.fleet.enumerate") /
          ft.enumerate_repeats,
      "ms");
  const double shards = static_cast<double>(untraced.shard_results.size());
  add("checkpoint.write_ms",
      SelfMs(spans, "bench.checkpoint.write", "bench.checkpoint.write") /
          (shards * ft.checkpoint_repeats),
      "ms");
  add("checkpoint.bytes", static_cast<double>(ft.checkpoint_bytes) / shards,
      "bytes");
  add("merge.format_ms",
      SelfMs(spans, "bench.merge.format", "bench.merge.format") /
          ft.format_repeats,
      "ms");
  const double decode_ms = SelfMs(spans, kFleet, "bench.storage.decode");
  add("storage.decode_ms", decode_ms / n, "ms");
  add("storage.decode_mb_per_s",
      static_cast<double>(ft.counts.bytes_read) / 1e6 / (decode_ms / 1e3), "MB/s");
  add("storage.chunks_read", static_cast<double>(ft.counts.chunks_read), "count");
  add("storage.chunks_skipped", static_cast<double>(ft.counts.chunks_skipped),
      "count");
  add("background.active_aggregate_ms",
      SelfMs(spans, kFleet, "bench.background.active_aggregate") / n, "ms");
  add("background.tau_ms", SelfMs(spans, kFleet, "bench.background.tau") / n,
      "ms");
  add("derive.totals_ms",
      (SelfMs(spans, kFleet, "bench.derive.totals") +
       SelfMs(spans, kFleet, "bench.derive.zipf")) /
          n,
      "ms");
  add("dominance.ms_per_device",
      SelfMs(spans, kFleet, "bench.dominance.find") /
          static_cast<double>(std::max<uint64_t>(ft.counts.devices_tested, 1)),
      "ms");
  add("dominance.devices", static_cast<double>(ft.counts.devices_tested), "count");
  add("stationarity.ms_per_gateway",
      SelfMs(spans, kFleet, "bench.stationarity.weekly") / n, "ms");
  add("stationarity.window_pairs", static_cast<double>(ft.counts.window_pairs),
      "count");
  add("motif.ms_per_gateway", SelfMs(spans, kFleet, "bench.motif.daily") / n,
      "ms");
  add("motif.windows", static_cast<double>(ft.counts.motif_windows), "count");
  add("engine.pairs", static_cast<double>(ft.counts.engine_pairs), "count");

  const StreamPass& st = *stream_traced;
  add("stream.window_latency_p50_ms",
      Percentile(stream_untraced.window_latency_ms, 0.5), "ms");
  add("stream.window_latency_p99_ms",
      Percentile(stream_untraced.window_latency_ms, 0.99), "ms");
  add("stream.assemble_ns_per_obs",
      SelfMs(spans, kStream, "bench.stream.assemble") * 1e6 /
          static_cast<double>(std::max<uint64_t>(st.minutes, 1)),
      "ns");
  std::vector<double> add_us = DurationsMs(spans, kStream,
                                           "bench.stream.add_window");
  for (double& v : add_us) v *= 1e3;
  add("stream.add_window_p50_us", Median(add_us), "us");
  add("stream.add_window_tail_us", Tail(add_us), "us");
  const size_t tenth = std::max<size_t>(add_us.size() / 10, 1);
  const double first_tenth = Median(std::vector<double>(
      add_us.begin(), add_us.begin() + std::min(tenth, add_us.size())));
  const double last_tenth = Median(std::vector<double>(
      add_us.end() - std::min(tenth, add_us.size()), add_us.end()));
  add("stream.add_window_growth",
      first_tenth > 0.0 ? last_tenth / first_tenth : 0.0, "ratio");
  add("stream.windows_retained", static_cast<double>(st.windows_retained),
      "count");
  add("stream.motifs_merged", static_cast<double>(motifs_merged), "count");

  double untraced_ms = 0.0;
  for (const double ms : ft.gateway_ms) untraced_ms += ms;
  double traced_ms = 0.0;
  for (const double ms : DurationsMs(spans, kFleet, "bench.fleet.gateway")) {
    traced_ms += ms;
  }
  add("trace.coverage", Coverage(spans, kFleet, "bench.fleet.gateway"),
      "ratio");
  add("trace.overhead", traced_ms / untraced_ms - 1.0, "ratio");
  add("trace.stream_coverage",
      Coverage(spans, kStream, "bench.stream.gateway"), "ratio");
  return digest;
}

}  // namespace perfbench
