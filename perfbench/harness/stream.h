#ifndef HOMETS_PERFBENCH_STREAM_H_
#define HOMETS_PERFBENCH_STREAM_H_

// The streaming path (`homets_cli stream`, daily windows): decode →
// ActiveAggregate → WindowAssembler::Ingest → StreamingMotifMiner::AddWindow.

#include <cstdint>
#include <string>
#include <vector>

#include "bench.h"
#include "common/status.h"

namespace perfbench {

/// One replay of the fleet through the streaming path.
struct StreamPass {
  double wall_s = 0.0;
  uint64_t minutes = 0;           ///< aggregate minutes ingested
  uint64_t gateways = 0;          ///< gateways decoded
  uint64_t decode_failures = 0;
  uint64_t ingest_failures = 0;
  uint64_t windows = 0;           ///< windows offered to AddWindow
  uint64_t windows_rejected = 0;  ///< AddWindow errors
  uint64_t windows_retained = 0;
  /// Per window: from the Ingest (or Flush) call that closed it to the
  /// return of its AddWindow.
  std::vector<double> window_latency_ms;
  std::string table;  ///< the motif table (the stream's output)

  uint64_t attempted() const {
    return gateways + decode_failures + ingest_failures + windows;
  }
  uint64_t failed() const {
    return decode_failures + ingest_failures + windows_rejected;
  }
};

/// \brief Streams the whole fleet once, as the CLI does. Every call sits in
/// a benchmark span, which costs nothing unless a TraceSession is installed.
homets::Result<StreamPass> RunStreamPass(const std::string& fleet_path);

/// \brief The timed phase of stream_daily: stream passes, each checked
/// against `reference_table`.
homets::Result<TimedPasses> RunStreamTimed(const RunContext& ctx,
                                           const std::string& reference_table,
                                           Outcome* outcome);

}  // namespace perfbench

#endif  // HOMETS_PERFBENCH_STREAM_H_
