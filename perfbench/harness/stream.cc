#include "stream.h"

#include <map>
#include <optional>
#include <utility>

#include "common/strings.h"
#include "core/background.h"
#include "core/streaming.h"
#include "io/dataset.h"
#include "obs/trace.h"
#include "ts/time_series.h"

namespace perfbench {

namespace core = homets::core;
namespace obs = homets::obs;
namespace ts = homets::ts;
using homets::Result;
using homets::Status;
using homets::StrFormat;

namespace {

// `homets_cli stream` defaults: daily windows of 3 h bins anchored at
// midnight, and a horizon of 10,000 windows.
constexpr int64_t kWindowMinutes = ts::kMinutesPerDay;
constexpr int64_t kGranularityMinutes = 180;
constexpr int64_t kAnchorMinutes = 0;
constexpr size_t kHorizonWindows = 10000;

/// The stream's output: what the CLI prints, with every motif and its
/// members rather than the top 20.
std::string MotifTable(const core::StreamingMotifMiner& miner,
                       const StreamPass& pass) {
  std::string out = StrFormat(
      "streamed %llu minutes of %llu gateways into %llu windows "
      "(%llu retained)\n",
      static_cast<unsigned long long>(pass.minutes),
      static_cast<unsigned long long>(pass.gateways),
      static_cast<unsigned long long>(pass.windows - pass.windows_rejected),
      static_cast<unsigned long long>(miner.windows_retained()));
  const auto motifs = miner.CurrentMotifs();
  out += StrFormat("%zu motifs with support >= 2\n", motifs.size());
  const auto& provenance = miner.provenance();
  for (size_t m = 0; m < motifs.size(); ++m) {
    std::map<int, bool> gateways;
    std::string members;
    for (const size_t member : motifs[m].members) {
      gateways[provenance[member].gateway_id] = true;
      members += StrFormat("%s%zu", members.empty() ? "" : ",", member);
    }
    out += StrFormat("motif %zu: support %zu, gateways %zu, members %s\n",
                     m + 1, motifs[m].support(), gateways.size(),
                     members.c_str());
  }
  return out;
}

}  // namespace

Result<StreamPass> RunStreamPass(const std::string& fleet_path) {
  obs::ScopedSpan replay("bench.stream.replay", nullptr, kBenchCategory);
  StreamPass pass;
  const Clock::time_point start = Clock::now();
  HOMETS_ASSIGN_OR_RETURN(auto assembler,
                          core::WindowAssembler::Make(
                              kWindowMinutes, kGranularityMinutes,
                              kAnchorMinutes));
  core::StreamingMotifMiner miner(core::MotifOptions{}, kHorizonWindows);
  // Offers `windows` to the miner; `closed_at` is when the call that closed
  // them started.
  const auto add_windows = [&](int id,
                               const std::vector<ts::TimeSeries>& windows,
                               Clock::time_point closed_at) {
    for (const ts::TimeSeries& w : windows) {
      obs::ScopedSpan span("bench.stream.add_window", nullptr,
                           kBenchCategory);
      const bool ok = miner.AddWindow(id, w).ok();
      pass.window_latency_ms.push_back(
          std::chrono::duration<double, std::milli>(Clock::now() - closed_at)
              .count());
      ++pass.windows;
      if (!ok) ++pass.windows_rejected;
    }
  };

  std::optional<homets::io::DatasetReader> reader;
  {
    obs::ScopedSpan span("bench.storage.open", nullptr, kBenchCategory);
    HOMETS_ASSIGN_OR_RETURN(auto opened,
                            homets::io::DatasetReader::Open(fleet_path));
    reader.emplace(std::move(opened));
  }
  int next_id = 0;
  for (size_t g = 0; g < reader->gateway_count(); ++g) {
    obs::ScopedSpan root("bench.stream.gateway", nullptr, kBenchCategory);
    std::optional<homets::simgen::GatewayTrace> trace;
    {
      obs::ScopedSpan span("bench.storage.decode", nullptr, kBenchCategory);
      auto decoded = reader->ReadGateway(g);
      if (!decoded.ok()) {
        ++pass.decode_failures;
        continue;
      }
      trace.emplace(std::move(*decoded));
    }
    ++pass.gateways;
    const int id = next_id++;
    std::optional<ts::TimeSeries> active;
    {
      obs::ScopedSpan span("bench.background.active_aggregate", nullptr,
                           kBenchCategory);
      active.emplace(core::ActiveAggregate(*trace));
    }
    obs::ScopedSpan span("bench.stream.assemble", nullptr, kBenchCategory);
    const int64_t first = active->start_minute();
    const int64_t end = active->EndMinute();
    // Contiguous minutes close a window exactly on the window grid, so the
    // clock is read only for those Ingest calls (and the closing feed).
    const int64_t offset = (first - kAnchorMinutes) % kWindowMinutes;
    int64_t next_boundary = first - (offset < 0 ? offset + kWindowMinutes
                                                : offset) +
                            kWindowMinutes;
    // The last feed (a missing value at EndMinute) closes the final window
    // before the next gateway starts, as the CLI does.
    for (int64_t m = first; m <= end; ++m) {
      const double value =
          m < end ? (*active)[static_cast<size_t>(m - first)]
                  : ts::TimeSeries::Missing();
      const bool closes = m == next_boundary || m == end;
      const Clock::time_point closed_at =
          closes ? Clock::now() : Clock::time_point{};
      if (m == next_boundary) next_boundary += kWindowMinutes;
      const auto completed = assembler.Ingest(id, m, value);
      if (m < end) ++pass.minutes;
      if (!completed.ok()) {
        ++pass.ingest_failures;
        continue;
      }
      if (completed->empty()) continue;
      add_windows(id, *completed, closes ? closed_at : Clock::now());
    }
  }
  {
    obs::ScopedSpan span("bench.stream.flush", nullptr, kBenchCategory);
    const Clock::time_point closed_at = Clock::now();
    for (const auto& [id, w] : assembler.Flush()) {
      add_windows(id, {w}, closed_at);
    }
  }
  pass.wall_s = SecondsSince(start);
  pass.windows_retained = miner.windows_retained();
  pass.table = MotifTable(miner, pass);
  return pass;
}

Result<TimedPasses> RunStreamTimed(const RunContext& ctx,
                                   const std::string& reference_table,
                                   Outcome* outcome) {
  return RunTimedPasses(ctx, [&](int) -> Result<double> {
    HOMETS_ASSIGN_OR_RETURN(const StreamPass result,
                            RunStreamPass(ctx.fleet_path));
    outcome->attempted += result.attempted();
    if (result.table != reference_table) {
      outcome->Mismatch("stream motif table differs from the reference");
      outcome->failed += result.attempted();
    } else {
      outcome->failed += result.failed();
    }
    return result.wall_s;
  });
}

}  // namespace perfbench
