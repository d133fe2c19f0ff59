#include "bench.h"

#include <malloc.h>

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace perfbench {

using homets::Result;

namespace {

// Sizes are chosen so one pass takes a few seconds on a 4-core Xeon; see
// ../README.md for why each workload exists.
const Workload kWorkloads[] = {
    {"analyze_long", 8, 9, false, 1, false, true},
    {"analyze_wide", 96, 2, false, 8, true, true},
    {"stream_daily", 48, 4, true, 1, false, false},
};

}  // namespace

const Workload* FindWorkload(const std::string& name) {
  for (const Workload& w : kWorkloads) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<size_t>(
      std::ceil(q * static_cast<double>(values.size())));
  return values[std::clamp<size_t>(rank, 1, values.size()) - 1];
}

double Tail(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n > 10 ? values[n - 11] : values.back();
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (const double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

PeakHeap::PeakHeap() : thread_([this] {
  while (!stop_.load()) {
    Sample();
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
}) {}

void PeakHeap::Sample() {
  const struct mallinfo2 info = mallinfo2();
  const uint64_t bytes = info.uordblks + info.hblkhd;
  uint64_t peak = peak_bytes_.load();
  while (bytes > peak && !peak_bytes_.compare_exchange_weak(peak, bytes)) {
  }
}

double PeakHeap::Stop() {
  if (thread_.joinable()) {
    stop_.store(true);
    thread_.join();
    Sample();
  }
  return static_cast<double>(peak_bytes_.load()) / (1024.0 * 1024.0);
}

Result<TimedPasses> RunTimedPasses(
    const RunContext& ctx,
    const std::function<Result<double>(int pass)>& pass) {
  constexpr int kMinPasses = 3;
  TimedPasses out;
  PeakHeap heap;
  const Clock::time_point start = Clock::now();
  for (int p = 0; p < kMinPasses || SecondsSince(start) < ctx.seconds; ++p) {
    HOMETS_ASSIGN_OR_RETURN(const double wall, pass(p));
    out.walls.push_back(wall);
  }
  out.peak_heap_mib = heap.Stop();
  return out;
}

std::string Digest(const std::string& text) {
  uint64_t hash = 14695981039346656037ull;
  for (const unsigned char c : text) {
    hash ^= c;
    hash *= 1099511628211ull;
  }
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(hash));
  return buf;
}

homets::fleet::FleetOptions AnalyzeOptions(const RunContext& ctx) {
  homets::fleet::FleetOptions options;
  options.n_shards = ctx.workload.shards;
  options.threads = ctx.threads;
  return options;
}

}  // namespace perfbench
