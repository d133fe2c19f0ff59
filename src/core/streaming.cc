#include "core/streaming.h"

#include "common/strings.h"
#include "core/similarity.h"
#include "obs/metric_names.h"
#include "obs/metrics.h"

namespace homets::core {

Result<WindowAssembler> WindowAssembler::Make(int64_t window_minutes,
                                              int64_t granularity_minutes,
                                              int64_t anchor_offset_minutes) {
  if (window_minutes <= 0 || granularity_minutes <= 0) {
    return Status::InvalidArgument(
        "WindowAssembler: window and granularity must be positive");
  }
  if (window_minutes % granularity_minutes != 0) {
    return Status::InvalidArgument(
        "WindowAssembler: granularity must divide the window");
  }
  return WindowAssembler(window_minutes, granularity_minutes,
                         anchor_offset_minutes);
}

int64_t WindowAssembler::WindowStartFor(int64_t minute) const {
  int64_t rem = (minute - anchor_offset_minutes_) % window_minutes_;
  if (rem < 0) rem += window_minutes_;
  return minute - rem;
}

void WindowAssembler::ResetWindow(GatewayState* state,
                                  int64_t window_start) const {
  const size_t bins =
      static_cast<size_t>(window_minutes_ / granularity_minutes_);
  state->window_start = window_start;
  state->started = true;
  state->bins.assign(bins, 0.0);
  state->bin_has_data.assign(bins, false);
}

ts::TimeSeries WindowAssembler::EmitWindow(GatewayState* state) const {
  std::vector<double> values(state->bins.size());
  for (size_t b = 0; b < state->bins.size(); ++b) {
    values[b] =
        state->bin_has_data[b] ? state->bins[b] : ts::TimeSeries::Missing();
  }
  return ts::TimeSeries(state->window_start, granularity_minutes_,
                        std::move(values));
}

Result<std::vector<ts::TimeSeries>> WindowAssembler::Ingest(int gateway_id,
                                                            int64_t minute,
                                                            double value) {
  auto& registry = obs::MetricsRegistry::Global();
  static obs::Counter* const observations =
      registry.GetCounter(obs::kStreamingObservationsIngested);
  static obs::Counter* const assembled =
      registry.GetCounter(obs::kStreamingWindowsAssembled);
  observations->Increment();
  GatewayState& state = gateways_[gateway_id];
  std::vector<ts::TimeSeries> completed;
  if (!state.started) {
    ResetWindow(&state, WindowStartFor(minute));
  }
  if (minute < state.window_start) {
    return Status::InvalidArgument(StrFormat(
        "WindowAssembler: minute %lld before current window start %lld",
        static_cast<long long>(minute),
        static_cast<long long>(state.window_start)));
  }
  // Close windows the stream has moved past.
  while (minute >= state.window_start + window_minutes_) {
    completed.push_back(EmitWindow(&state));
    ResetWindow(&state, state.window_start + window_minutes_);
  }
  assembled->Increment(completed.size());
  if (!ts::TimeSeries::IsMissing(value)) {
    const size_t bin = static_cast<size_t>(
        (minute - state.window_start) / granularity_minutes_);
    state.bins[bin] += value;
    state.bin_has_data[bin] = true;
  }
  return completed;
}

std::vector<std::pair<int, ts::TimeSeries>> WindowAssembler::Flush() {
  static obs::Counter* const assembled =
      obs::MetricsRegistry::Global().GetCounter(
          obs::kStreamingWindowsAssembled);
  std::vector<std::pair<int, ts::TimeSeries>> out;
  for (auto& [gateway_id, state] : gateways_) {
    if (!state.started) continue;
    bool any = false;
    for (bool has : state.bin_has_data) any = any || has;
    if (any) out.emplace_back(gateway_id, EmitWindow(&state));
    state.started = false;
  }
  assembled->Increment(out.size());
  return out;
}

StreamingMotifMiner::StreamingMotifMiner(MotifOptions options,
                                         size_t horizon_windows)
    : options_(options),
      horizon_windows_(horizon_windows == 0 ? 1 : horizon_windows),
      motifs_(options) {}

Result<size_t> StreamingMotifMiner::AddWindow(int gateway_id,
                                              const ts::TimeSeries& window) {
  if (!retained_.empty() && retained_.front().size() != window.size()) {
    return Status::InvalidArgument(
        "StreamingMotifMiner: window length mismatch");
  }
  static obs::Counter* const merges =
      obs::MetricsRegistry::Global().GetCounter(obs::kStreamingMotifsMerged);
  static obs::Counter* const evictions =
      obs::MetricsRegistry::Global().GetCounter(
          obs::kStreamingWindowsEvicted);
  const size_t index = next_index_++;
  provenance_.push_back({gateway_id, window.start_minute()});
  // Profile the window once on arrival; every comparison it takes part in
  // over its retained lifetime reuses the profile.
  retained_.push_back(correlation::PreparedSeries::Make(window.values()));
  const size_t first = index + 1 - retained_.size();  // oldest retained
  SimilarityOptions sim;
  sim.alpha = options_.alpha;
  const MotifSet::Similarity cor = [&](size_t older, size_t newer) {
    return CorrelationSimilarity(retained_[older - first],
                                 retained_[newer - first], sim, &workspace_)
        .value;
  };
  const size_t joined_id = motifs_.Place(index, cor);
  merges->Increment(motifs_.Merge(cor));
  while (retained_.size() > horizon_windows_) {
    motifs_.Remove(next_index_ - retained_.size());
    retained_.pop_front();
    evictions->Increment();
  }
  return joined_id;
}

}  // namespace homets::core
