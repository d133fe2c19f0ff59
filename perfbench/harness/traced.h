#ifndef HOMETS_PERFBENCH_TRACED_H_
#define HOMETS_PERFBENCH_TRACED_H_

// The traced run: per-layer metrics from benchmark spans around the calls
// into each layer, recorded in an obs::TraceSession and written out as
// Chrome-trace JSON.

#include <cstdint>
#include <string>
#include <vector>

#include "bench.h"
#include "common/status.h"
#include "obs/trace.h"

namespace perfbench {

/// A benchmark span with its self time: duration minus the part its direct
/// benchmark children cover. `root` names its outermost benchmark ancestor
/// (itself when it has none).
struct SpanSelf {
  std::string name;
  std::string root;
  int64_t ts_us = 0;
  int64_t dur_us = 0;
  int64_t self_us = 0;
};

/// Self times of every benchmark-category span of `events`, by start time.
/// Program spans ("homets" category) are skipped: no metric is derived
/// from them.
std::vector<SpanSelf> BenchSelfTimes(
    const std::vector<homets::obs::TraceEvent>& events);

/// \brief Runs the untraced fleet steps, then the fleet and stream replays
/// under a TraceSession, checks every output against the replays, and
/// appends every per-layer metric. Returns the digest of the workload's
/// output (fleet figures, or the stream motif table).
homets::Result<std::string> RunTraced(const RunContext& ctx,
                                      Outcome* outcome, Metrics* metrics);

}  // namespace perfbench

#endif  // HOMETS_PERFBENCH_TRACED_H_
