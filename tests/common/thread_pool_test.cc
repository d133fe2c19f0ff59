#include "common/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <set>
#include <thread>
#include <vector>

#include "common/cancellation.h"
#include "common/failpoint.h"
#include "common/status.h"
#include "obs/metric_names.h"
#include "obs/metrics.h"
#include "obs/prof.h"

namespace homets {
namespace {

TEST(ResolveThreadCountTest, PositivePassesThroughZeroMeansHardware) {
  EXPECT_EQ(ResolveThreadCount(3), 3);
  EXPECT_EQ(ResolveThreadCount(1), 1);
  EXPECT_GE(ResolveThreadCount(0), 1);
  EXPECT_GE(ResolveThreadCount(-5), 1);
}

TEST(ParallelForTest, CoversEveryIndexExactlyOnce) {
  for (const int threads : {1, 2, 4, 9}) {
    for (const size_t n : {1u, 7u, 64u, 1000u}) {
      std::vector<std::atomic<int>> hits(n);
      for (auto& h : hits) h.store(0);
      ParallelFor(n, threads, 16, [&](size_t begin, size_t end, int) {
        for (size_t i = begin; i < end; ++i) {
          hits[i].fetch_add(1, std::memory_order_relaxed);
        }
      });
      for (size_t i = 0; i < n; ++i) {
        EXPECT_EQ(hits[i].load(), 1) << "index " << i << " with " << threads
                                     << " threads over " << n;
      }
    }
  }
}

TEST(ParallelForTest, EmptyRangeNeverInvokes) {
  bool invoked = false;
  ParallelFor(0, 4, 8, [&](size_t, size_t, int) { invoked = true; });
  EXPECT_FALSE(invoked);
}

TEST(ParallelForTest, SingleThreadRunsInlineAsWorkerZero) {
  std::set<int> workers;
  ParallelFor(100, 1, 8, [&](size_t, size_t, int worker) {
    workers.insert(worker);  // no mutex needed: inline execution
  });
  EXPECT_EQ(workers, std::set<int>{0});
}

TEST(ParallelForTest, SingleBlockRunsInline) {
  // Range fits in one block: must run inline even with many threads asked.
  std::set<int> workers;
  ParallelFor(10, 8, 64, [&](size_t begin, size_t end, int worker) {
    workers.insert(worker);
    EXPECT_EQ(begin, 0u);
    EXPECT_EQ(end, 10u);
  });
  EXPECT_EQ(workers, std::set<int>{0});
}

TEST(ParallelForTest, MoreThreadsThanBlocksClampsWorkers) {
  std::mutex mu;
  std::set<int> workers;
  // 3 blocks of 4 over n=12 with 16 threads -> at most 3 workers.
  ParallelFor(12, 16, 4, [&](size_t, size_t, int worker) {
    std::lock_guard<std::mutex> lock(mu);
    workers.insert(worker);
  });
  EXPECT_LE(workers.size(), 3u);
  for (const int w : workers) {
    EXPECT_GE(w, 0);
    EXPECT_LT(w, 3);
  }
}

TEST(ParallelForTest, WorkerIdsPartitionTheWork) {
  // Per-worker accumulation (the engine's workspace pattern): sums indexed
  // by worker id must total the whole range with no double counting.
  const size_t n = 10000;
  const int threads = 4;
  std::vector<long long> per_worker(static_cast<size_t>(threads), 0);
  ParallelFor(n, threads, 32, [&](size_t begin, size_t end, int worker) {
    for (size_t i = begin; i < end; ++i) {
      per_worker[static_cast<size_t>(worker)] += static_cast<long long>(i);
    }
  });
  long long total = 0;
  for (const long long s : per_worker) total += s;
  EXPECT_EQ(total, static_cast<long long>(n) * (n - 1) / 2);
}

TEST(ParallelForTest, ZeroBlockSizeIsTreatedAsOne) {
  std::atomic<size_t> covered{0};
  ParallelFor(25, 2, 0, [&](size_t begin, size_t end, int) {
    covered.fetch_add(end - begin, std::memory_order_relaxed);
  });
  EXPECT_EQ(covered.load(), 25u);
}

TEST(ParallelForStatusTest, AllOkCoversEveryIndexExactlyOnce) {
  for (const int threads : {1, 2, 4}) {
    std::vector<std::atomic<int>> hits(100);
    for (auto& h : hits) h.store(0);
    const Status st =
        ParallelForStatus(100, threads, 8, nullptr,
                          [&](size_t begin, size_t end, int) {
                            for (size_t i = begin; i < end; ++i) {
                              hits[i].fetch_add(1, std::memory_order_relaxed);
                            }
                            return Status::OK();
                          });
    ASSERT_TRUE(st.ok()) << st.ToString();
    for (size_t i = 0; i < hits.size(); ++i) {
      EXPECT_EQ(hits[i].load(), 1) << "index " << i;
    }
  }
}

TEST(ParallelForStatusTest, LowestFailingBlockWinsAcrossThreadCounts) {
  // Blocks 3 and 7 fail; whatever the scheduling, the error from block 3
  // (the lowest index) must be returned, and every block must still run.
  for (const int threads : {1, 2, 4, 8}) {
    std::atomic<size_t> blocks_run{0};
    const Status st = ParallelForStatus(
        100, threads, 10, nullptr, [&](size_t begin, size_t, int) -> Status {
          blocks_run.fetch_add(1, std::memory_order_relaxed);
          const size_t block_index = begin / 10;
          if (block_index == 3) return Status::ComputeError("block 3");
          if (block_index == 7) return Status::IoError("block 7");
          return Status::OK();
        });
    EXPECT_EQ(blocks_run.load(), 10u) << threads << " threads";
    ASSERT_FALSE(st.ok());
    EXPECT_EQ(st.code(), StatusCode::kComputeError) << threads << " threads";
    EXPECT_EQ(st.message(), "block 3") << threads << " threads";
  }
}

TEST(ParallelForStatusTest, PreCancelledTokenRunsNothing) {
  CancellationToken cancel;
  cancel.Cancel();
  std::atomic<size_t> blocks_run{0};
  const Status st = ParallelForStatus(100, 4, 10, &cancel,
                                      [&](size_t, size_t, int) {
                                        blocks_run.fetch_add(1);
                                        return Status::OK();
                                      });
  EXPECT_EQ(st.code(), StatusCode::kCancelled);
  EXPECT_EQ(blocks_run.load(), 0u);
}

TEST(ParallelForStatusTest, CancelMidLoopStopsHandingOutBlocks) {
  CancellationToken cancel;
  std::atomic<size_t> blocks_run{0};
  const Status st = ParallelForStatus(
      1000, 2, 1, &cancel, [&](size_t begin, size_t, int) {
        if (begin == 5) cancel.Cancel();
        blocks_run.fetch_add(1, std::memory_order_relaxed);
        return Status::OK();
      });
  EXPECT_EQ(st.code(), StatusCode::kCancelled);
  // Some blocks ran before the flag flipped, but nowhere near all 1000.
  EXPECT_GT(blocks_run.load(), 0u);
  EXPECT_LT(blocks_run.load(), 1000u);
}

TEST(ParallelForStatusTest, BlockErrorBeatsCancellation) {
  // A real failure observed before cancellation must not be masked by the
  // kCancelled that follows it.
  CancellationToken cancel;
  const Status st = ParallelForStatus(
      100, 1, 10, &cancel, [&](size_t begin, size_t, int) -> Status {
        if (begin == 20) {
          cancel.Cancel();
          return Status::IoError("failed then cancelled");
        }
        return Status::OK();
      });
  EXPECT_EQ(st.code(), StatusCode::kIoError);
}

TEST(ParallelForStatusTest, EmptyRangeIsOk) {
  const Status st = ParallelForStatus(
      0, 4, 8, nullptr,
      [&](size_t, size_t, int) { return Status::ComputeError("never"); });
  EXPECT_TRUE(st.ok());
}

TEST(ParallelForStatusTest, TaskFailpointInjectsComputeError) {
  Failpoints::Global().Reset();
  ASSERT_TRUE(Failpoints::Global().Configure("threadpool.task=fail*1").ok());
  std::atomic<size_t> blocks_run{0};
  const Status st = ParallelForStatus(40, 1, 10, nullptr,
                                      [&](size_t, size_t, int) {
                                        blocks_run.fetch_add(1);
                                        return Status::OK();
                                      });
  Failpoints::Global().Reset();
  EXPECT_EQ(st.code(), StatusCode::kComputeError);
  // The injected failure replaces the first block's body; the rest run.
  EXPECT_EQ(blocks_run.load(), 3u);
}

TEST(ParallelForTest, AccountsBlocksLikeParallelForStatus) {
  // One worker over 100 items in blocks of 8: both loops hand out, run and
  // time all 13 blocks, so the pool metrics and the profiler agree.
  auto& registry = obs::MetricsRegistry::Global();
  const obs::Counter* tasks = registry.GetCounter(obs::kThreadPoolTasks);
  const obs::Histogram* latency =
      registry.GetHistogram(obs::kThreadPoolTaskLatencyUs);
  struct Accounting {
    uint64_t tasks = 0;
    uint64_t timed_blocks = 0;
    uint64_t prof_blocks = 0;
  };
  const auto account = [&](const auto& loop) {
    obs::ResetProfCounters();
    const uint64_t tasks_before = tasks->Value();
    const uint64_t timed_before = latency->Count();
    loop();
    return Accounting{tasks->Value() - tasks_before,
                      latency->Count() - timed_before,
                      obs::CaptureProfSnapshot().pool_blocks};
  };
  obs::EnableProfiler(true);
  const Accounting plain = account(
      [] { ParallelFor(100, 1, 8, [](size_t, size_t, int) {}); });
  const Accounting checked = account([] {
    ASSERT_TRUE(ParallelForStatus(100, 1, 8, nullptr, [](size_t, size_t, int) {
                  return Status::OK();
                }).ok());
  });
  obs::EnableProfiler(false);
  obs::ResetProfCounters();
  EXPECT_EQ(plain.tasks, 13u);
  EXPECT_EQ(plain.timed_blocks, 13u);
  EXPECT_EQ(plain.prof_blocks, 13u);
  EXPECT_EQ(checked.tasks, plain.tasks);
  EXPECT_EQ(checked.timed_blocks, plain.timed_blocks);
  EXPECT_EQ(checked.prof_blocks, plain.prof_blocks);
}

TEST(CancellationTokenTest, StickyUntilReset) {
  CancellationToken token;
  EXPECT_FALSE(token.cancelled());
  EXPECT_TRUE(token.AsStatus().ok());
  token.Cancel();
  EXPECT_TRUE(token.cancelled());
  EXPECT_EQ(token.AsStatus().code(), StatusCode::kCancelled);
  token.Cancel();  // idempotent
  EXPECT_TRUE(token.cancelled());
  token.Reset();
  EXPECT_FALSE(token.cancelled());
  EXPECT_TRUE(token.AsStatus().ok());
}

TEST(DeadlineWatchdogTest, FiresAfterDeadline) {
  CancellationToken token;
  DeadlineWatchdog watchdog(&token, 5.0);
  // Poll rather than sleep a fixed time: CI machines stall arbitrarily.
  const auto give_up =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (!token.cancelled() && std::chrono::steady_clock::now() < give_up) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_TRUE(token.cancelled());
  EXPECT_TRUE(watchdog.fired());
}

TEST(DeadlineWatchdogTest, DisarmBeforeDeadlineLeavesTokenAlone) {
  CancellationToken token;
  {
    DeadlineWatchdog watchdog(&token, 60'000.0);
    watchdog.Disarm();
    EXPECT_FALSE(watchdog.fired());
  }
  EXPECT_FALSE(token.cancelled());
}

TEST(DeadlineWatchdogTest, DestructionDisarms) {
  CancellationToken token;
  { DeadlineWatchdog watchdog(&token, 60'000.0); }
  EXPECT_FALSE(token.cancelled());
}

}  // namespace
}  // namespace homets
