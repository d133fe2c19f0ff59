#ifndef HOMETS_PERFBENCH_BENCH_H_
#define HOMETS_PERFBENCH_BENCH_H_

// Shared pieces of the repository benchmark harness (see ../README.md):
// workload table, run context, metric sink, and the small statistics the
// metrics are built from.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "common/status.h"
#include "fleet/orchestrator.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// One benchmark workload: the simgen fleet it generates and how the fleet
/// path (or the streaming path) consumes it.
struct Workload {
  std::string name;
  int gateways = 0;
  int weeks = 0;
  bool stream = false;      ///< stream_daily: WindowAssembler → miner
  int shards = 1;           ///< fleet shard plan (CLI default 1)
  bool checkpoint = false;  ///< fresh checkpoint directory per pass
  /// simgen's outage model on (its default). Off, every gateway reports
  /// every day, so each seed streams the same number of windows.
  bool outages = true;
};

/// Looks `name` up in the workload table; nullptr when unknown.
const Workload* FindWorkload(const std::string& name);

/// Everything a phase needs to know about the run.
struct RunContext {
  Workload workload;
  uint64_t seed = 0;
  double seconds = 10.0;
  int threads = 1;          ///< threads given: min(nproc, 4)
  std::string work_dir;
  std::string fleet_path;   ///< the generated .homets fleet
  std::string trace_out;    ///< Chrome-trace JSON of the traced run
  std::string expect_digest;  ///< committed reference digest; empty = none
};

/// Outcome bookkeeping shared by every phase: operations attempted and
/// failed, and whether every output matched its reference.
struct Outcome {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  bool correct = true;
  std::vector<std::string> problems;

  void Mismatch(std::string what) {
    correct = false;
    problems.push_back(std::move(what));
  }
};

/// Metrics in print order, each with its unit.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};
using Metrics = std::vector<Metric>;

// --- statistics ----------------------------------------------------------

double Median(std::vector<double> values);
/// Nearest-rank percentile, `q` in (0, 1].
double Percentile(std::vector<double> values, double q);
/// The highest percentile that still has at least ten samples beyond it;
/// the maximum when there are ten samples or fewer.
double Tail(std::vector<double> values);
double Mean(const std::vector<double>& values);

// --- memory --------------------------------------------------------------

/// \brief Peak heap in use (glibc mallinfo2: bytes allocated and not yet
/// freed) while alive, sampled every 10 ms on its own thread.
///
/// Not RSS: resident memory also counts the mmap'd fleet's file pages,
/// which the kernel drops and refaults with the host's memory pressure, and
/// freed heap the allocator keeps, which depends on allocation history; the
/// two made peak RSS vary by 3x between runs of one workload.
class PeakHeap {
 public:
  PeakHeap();
  ~PeakHeap() { Stop(); }
  PeakHeap(const PeakHeap&) = delete;
  PeakHeap& operator=(const PeakHeap&) = delete;

  /// Stops sampling (idempotent) and returns the peak in MiB.
  double Stop();

 private:
  void Sample();

  std::atomic<bool> stop_{false};
  std::atomic<uint64_t> peak_bytes_{0};
  std::thread thread_;  // last: starts after the members it uses
};

// --- the timed phase -----------------------------------------------------

/// Wall times of a workload's timed passes and the peak heap over them.
struct TimedPasses {
  std::vector<double> walls;
  double peak_heap_mib = 0.0;
};

/// \brief Runs `pass` (which returns its wall seconds) until `ctx.seconds`
/// have elapsed, and at least three times, tracking the peak heap over all
/// passes.
homets::Result<TimedPasses> RunTimedPasses(
    const RunContext& ctx,
    const std::function<homets::Result<double>(int pass)>& pass);

// --- outputs -------------------------------------------------------------

/// FNV-1a 64 of `text`, as 16 lowercase hex digits.
std::string Digest(const std::string& text);

/// Fleet options of the workload's analyze pass (CLI defaults otherwise).
homets::fleet::FleetOptions AnalyzeOptions(const RunContext& ctx);

/// Category of every span the benchmark opens; program spans use "homets".
inline constexpr const char* kBenchCategory = "bench";

}  // namespace perfbench

#endif  // HOMETS_PERFBENCH_BENCH_H_
