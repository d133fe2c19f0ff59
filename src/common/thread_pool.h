#ifndef HOMETS_COMMON_THREAD_POOL_H_
#define HOMETS_COMMON_THREAD_POOL_H_

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <thread>
#include <utility>
#include <vector>

#include "common/cancellation.h"
#include "common/failpoint.h"
#include "common/prof_hooks.h"
#include "common/status.h"
#include "obs/metric_names.h"
#include "obs/metrics.h"

namespace homets {

/// \brief Resolves a thread-count request: values > 0 pass through, 0 (and
/// negatives) mean "use the hardware concurrency" (>= 1).
inline int ResolveThreadCount(int threads) {
  if (threads > 0) return threads;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

namespace internal {

/// \brief The one block dispatcher behind ParallelFor and ParallelForStatus.
///
/// Cuts [0, n) into `block`-sized blocks handed out by an atomic counter,
/// runs them on min(threads, blocks) workers (the caller is worker 0, so one
/// worker spawns no thread), times every block, and returns the error of the
/// lowest-index failing block. `cancel` (may be nullptr) is polled before
/// each block; `inject_task_failpoint` evaluates `threadpool.task` per block.
inline Status DispatchBlocks(
    size_t n, int threads, size_t block, CancellationToken* cancel,
    bool inject_task_failpoint,
    const std::function<Status(size_t, size_t, int)>& fn) {
  if (n == 0) return Status::OK();
  if (block == 0) block = 1;
  // Dispatch metrics: loops/tasks counters, the pending-block queue depth at
  // dispatch, and a per-block wall-time histogram. Atomic increments only —
  // this header runs under TSan via the `threads` ctest label.
  auto& registry = obs::MetricsRegistry::Global();
  static obs::Counter* const loops = registry.GetCounter(obs::kThreadPoolLoops);
  static obs::Counter* const tasks = registry.GetCounter(obs::kThreadPoolTasks);
  static obs::Gauge* const queue_depth =
      registry.GetGauge(obs::kThreadPoolQueueDepth);
  static obs::Histogram* const task_latency_us =
      registry.GetHistogram(obs::kThreadPoolTaskLatencyUs);
  static obs::Histogram* const queue_wait_us =
      registry.GetHistogram(obs::kThreadPoolQueueWaitUs);
  static obs::Counter* const prof_busy_us =
      registry.GetCounter(obs::kProfPoolBusyUs);
  static obs::Counter* const prof_idle_us =
      registry.GetCounter(obs::kProfPoolIdleUs);
  static obs::Counter* const prof_queue_wait_us =
      registry.GetCounter(obs::kProfQueueWaitUs);
  using Clock = std::chrono::steady_clock;
  const auto ns_between = [](Clock::time_point a, Clock::time_point b) {
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count());
  };
  // Profiler accounting is fully gated on this one relaxed load: with --prof
  // off, the loop pays no extra clock reads or atomic traffic.
  const bool prof_on = prof::ProfilerEnabled();
  Clock::time_point loop_start{};
  if (prof_on) loop_start = Clock::now();
  std::atomic<uint64_t> busy_ns{0};
  std::atomic<uint64_t> wait_ns{0};
  const auto run_block = [&](size_t begin, size_t end,
                             int worker) -> Status {
    const auto start = Clock::now();
    Status st = inject_task_failpoint && Failpoints::Global().armed()
                    ? Failpoints::Global().InjectedError(kFailpointThreadPoolTask)
                    : Status::OK();
    if (st.ok()) st = fn(begin, end, worker);
    const auto stop = Clock::now();
    task_latency_us->Observe(static_cast<double>(
        std::chrono::duration_cast<std::chrono::microseconds>(stop - start)
            .count()));
    if (prof_on) {
      const uint64_t run = ns_between(start, stop);
      // Queue wait for a batch-submitted block: dispatch start -> block
      // start. With more blocks than cores this grows over the loop and is
      // exactly the serialization the profiler wants to show.
      const uint64_t waited = ns_between(loop_start, start);
      prof::RecordPoolBlock(worker, waited, run);
      queue_wait_us->Observe(static_cast<double>(waited) / 1000.0);
      busy_ns.fetch_add(run, std::memory_order_relaxed);
      wait_ns.fetch_add(waited, std::memory_order_relaxed);
    }
    return st;
  };
  const size_t n_blocks = (n + block - 1) / block;
  loops->Increment();
  tasks->Increment(n_blocks);
  queue_depth->Set(static_cast<int64_t>(n_blocks));
  const int workers = static_cast<int>(std::min<size_t>(
      static_cast<size_t>(ResolveThreadCount(threads)), n_blocks));
  // Each worker remembers the lowest-index failing block it saw; the merge
  // after the join picks the global minimum, so the returned error does not
  // depend on scheduling.
  std::vector<std::pair<size_t, Status>> worker_errors(
      static_cast<size_t>(workers), {SIZE_MAX, Status::OK()});
  std::atomic<bool> saw_cancel{false};
  std::atomic<size_t> next{0};
  auto drain = [&](int worker) {
    auto& first_error = worker_errors[static_cast<size_t>(worker)];
    for (;;) {
      if (cancel != nullptr && cancel->cancelled()) {
        saw_cancel.store(true, std::memory_order_relaxed);
        return;
      }
      const size_t b = next.fetch_add(1, std::memory_order_relaxed);
      if (b >= n_blocks) return;
      queue_depth->Set(
          static_cast<int64_t>(n_blocks - std::min(b + 1, n_blocks)));
      const size_t begin = b * block;
      Status st = run_block(begin, std::min(begin + block, n), worker);
      if (!st.ok() && b < first_error.first) {
        first_error = {b, std::move(st)};
      }
    }
  };
  std::vector<std::thread> pool;
  pool.reserve(static_cast<size_t>(workers) - 1);
  for (int w = 1; w < workers; ++w) pool.emplace_back(drain, w);
  drain(0);
  for (auto& t : pool) t.join();
  queue_depth->Set(0);
  if (prof_on) {
    const uint64_t wall = ns_between(loop_start, Clock::now());
    const uint64_t busy = busy_ns.load(std::memory_order_relaxed);
    prof::RecordPoolLoop(workers, wall, busy);
    prof_busy_us->Increment(busy / 1000);
    const uint64_t capacity = static_cast<uint64_t>(workers) * wall;
    prof_idle_us->Increment(capacity > busy ? (capacity - busy) / 1000 : 0);
    prof_queue_wait_us->Increment(wait_ns.load(std::memory_order_relaxed) /
                                  1000);
  }
  size_t min_block = SIZE_MAX;
  Status result = Status::OK();
  for (auto& [failed_block, status] : worker_errors) {
    if (failed_block < min_block) {
      min_block = failed_block;
      result = std::move(status);
    }
  }
  if (!result.ok()) return result;
  if (saw_cancel.load(std::memory_order_relaxed)) {
    return Status::Cancelled("parallel loop cancelled before completion");
  }
  return Status::OK();
}

}  // namespace internal

/// \brief Chunked parallel loop over [0, n).
///
/// The range is cut into fixed-size blocks handed out by an atomic counter
/// (work stealing at block granularity), so uneven per-item cost balances
/// across workers. `fn(begin, end, worker)` is invoked for each block with
/// `worker` in [0, workers); workers never share a block, so `fn` may keep
/// per-worker scratch state indexed by `worker` without synchronization.
///
/// Determinism contract: which worker runs which block (and in what order)
/// is scheduling-dependent, so `fn` must write only to output slots that are
/// a pure function of the index range — then the overall result is
/// bit-identical for every thread count, including 1.
///
/// One worker (`threads` resolves to 1, or the range fits in one block)
/// runs every block on the calling thread as worker 0. `block` 0 means 1.
inline void ParallelFor(size_t n, int threads, size_t block,
                        const std::function<void(size_t, size_t, int)>& fn) {
  // Nothing is injected and nothing cancels, so the loop cannot fail.
  static_cast<void>(internal::DispatchBlocks(
      n, threads, block, nullptr, /*inject_task_failpoint=*/false,
      [&fn](size_t begin, size_t end, int worker) {
        fn(begin, end, worker);
        return Status::OK();
      }));
}

/// \brief Hardened variant of ParallelFor: tasks return Status instead of
/// crashing the loop, and the loop honors cooperative cancellation.
///
/// Semantics:
///  - `fn(begin, end, worker)` runs per block exactly as in ParallelFor and
///    returns a Status. A failing block does NOT stop the other blocks (so
///    side effects, and therefore the winning error, stay deterministic);
///    the loop runs everything and then returns the error of the failing
///    block with the LOWEST index — bit-identical across thread counts.
///  - `cancel` (may be nullptr) is polled before each block. Once cancelled,
///    no new blocks are handed out and the loop returns kCancelled — unless
///    a block that did run failed, in which case that (lowest-block) error
///    wins. Cancellation timing is inherently scheduling-dependent.
///  - The `threadpool.task` failpoint is evaluated per block while armed;
///    a kFail fire replaces the block's execution with an injected
///    ComputeError, modelling a task that died before running.
inline Status ParallelForStatus(
    size_t n, int threads, size_t block, CancellationToken* cancel,
    const std::function<Status(size_t, size_t, int)>& fn) {
  return internal::DispatchBlocks(n, threads, block, cancel,
                                  /*inject_task_failpoint=*/true, fn);
}

}  // namespace homets

#endif  // HOMETS_COMMON_THREAD_POOL_H_
