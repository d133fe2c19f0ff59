#ifndef HOMETS_CORE_STREAMING_H_
#define HOMETS_CORE_STREAMING_H_

#include <cstdint>
#include <deque>
#include <map>
#include <vector>

#include "common/status.h"
#include "core/motif.h"
#include "correlation/prepared_series.h"
#include "ts/time_series.h"

namespace homets::core {

/// \brief Assembles fixed-length, calendar-aligned windows from streaming
/// per-minute measurements — the ingestion stage of the paper's
/// "integrate into a streaming analytics platform" conclusion.
///
/// Observations may arrive in arbitrary chunks but must be time-ordered per
/// gateway. When a window [anchor + k·W, anchor + (k+1)·W) closes (an
/// observation at or past its end arrives), the aggregated window is emitted.
class WindowAssembler {
 public:
  /// `window_minutes` must be a multiple of `granularity_minutes`.
  static Result<WindowAssembler> Make(int64_t window_minutes,
                                      int64_t granularity_minutes,
                                      int64_t anchor_offset_minutes);

  /// Feeds one observation (1-minute bin). Returns the windows completed by
  /// this observation (usually none, occasionally one; several after a long
  /// gap). Out-of-order minutes within the current window are accepted;
  /// minutes before the current window are rejected.
  Result<std::vector<ts::TimeSeries>> Ingest(int gateway_id, int64_t minute,
                                             double value);

  /// Flushes the partially filled window of every gateway (end of stream).
  std::vector<std::pair<int, ts::TimeSeries>> Flush();

 private:
  WindowAssembler(int64_t window_minutes, int64_t granularity_minutes,
                  int64_t anchor_offset_minutes)
      : window_minutes_(window_minutes),
        granularity_minutes_(granularity_minutes),
        anchor_offset_minutes_(anchor_offset_minutes) {}

  struct GatewayState {
    int64_t window_start = 0;      ///< current window begin
    bool started = false;
    std::vector<double> bins;      ///< per-granularity sums
    std::vector<bool> bin_has_data;
  };

  int64_t WindowStartFor(int64_t minute) const;
  ts::TimeSeries EmitWindow(GatewayState* state) const;
  void ResetWindow(GatewayState* state, int64_t window_start) const;

  int64_t window_minutes_;
  int64_t granularity_minutes_;
  int64_t anchor_offset_minutes_;
  std::map<int, GatewayState> gateways_;
};

/// \brief Incremental motif maintenance over a stream of completed windows.
///
/// Applies Definition 5 online through the same MotifSet as batch
/// discovery. Each arriving window is placed (MotifSet::Place), then the
/// merge rule runs to its fixed point (MotifSet::Merge), then windows older
/// than `horizon_windows` arrivals are evicted (MotifSet::Remove). Batch
/// discovery merges once after placing every window instead, so the two can
/// group the same windows differently: an early merge changes what a later
/// window joins.
///
/// The horizon bounds the retained windows, their similarity profiles and
/// the motif members. provenance() is not bounded: it keeps one 16-byte
/// entry per window seen, because callers index it by arrival index.
class StreamingMotifMiner {
 public:
  StreamingMotifMiner(MotifOptions options, size_t horizon_windows);

  /// Adds a completed window; returns the (possibly new) motif id it joined,
  /// where ids are stable across the stream. Windows must share one length.
  Result<size_t> AddWindow(int gateway_id, const ts::TimeSeries& window);

  /// Motifs with support >= options.min_support among the retained horizon,
  /// sorted by descending support. Provenance indices refer to AddWindow
  /// arrival order.
  std::vector<Motif> CurrentMotifs() const { return motifs_.Reported(); }

  /// Provenance of every window seen, evicted or not, by arrival index.
  const std::vector<WindowProvenance>& provenance() const {
    return provenance_;
  }

  size_t windows_seen() const { return next_index_; }
  size_t windows_retained() const { return retained_.size(); }

 private:
  MotifOptions options_;
  size_t horizon_windows_;
  size_t next_index_ = 0;
  /// One-time similarity profiles of the retained windows, oldest first:
  /// arrival index i sits at i - (next_index_ - retained_.size()).
  std::deque<correlation::PreparedSeries> retained_;
  MotifSet motifs_;
  std::vector<WindowProvenance> provenance_;  ///< by arrival index
  correlation::PairWorkspace workspace_;  ///< per-pair scratch
};

}  // namespace homets::core

#endif  // HOMETS_CORE_STREAMING_H_
