#ifndef HOMETS_COMMON_CANCELLATION_H_
#define HOMETS_COMMON_CANCELLATION_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <thread>

#include "common/status.h"

namespace homets {

/// \brief Cooperative cancellation flag shared between a requester and the
/// workers it wants to stop.
///
/// Workers poll `cancelled()` at block boundaries (see ParallelForStatus);
/// the requester calls `Cancel()` from any thread. The flag is sticky until
/// `Reset()`. All operations are lock-free atomics, so polling on the hot
/// path is cheap.
///
/// Tokens can be linked into a tree: a child constructed with a parent
/// observes the parent's cancellation (cancelling a fleet run cancels every
/// in-flight shard) while `Cancel()` on the child stays local (a shard
/// deadline kills that shard only, never its siblings or the whole run).
/// The parent must outlive its children; linkage is fixed at construction,
/// so the chain walk in `cancelled()` needs no synchronization.
class CancellationToken {
 public:
  CancellationToken() = default;
  /// A child token: cancelled when either its own flag or any ancestor's is
  /// set. `parent` may be nullptr (equivalent to the default constructor).
  explicit CancellationToken(const CancellationToken* parent)
      : parent_(parent) {}

  /// Cancels this token (and, via the chain walk, everything linked below
  /// it); never propagates upward to the parent.
  void Cancel() { cancelled_.store(true, std::memory_order_release); }
  bool cancelled() const {
    if (cancelled_.load(std::memory_order_relaxed)) return true;
    return parent_ != nullptr && parent_->cancelled();
  }
  /// Clears this token's own flag; an ancestor's cancellation still shows
  /// through `cancelled()`.
  void Reset() { cancelled_.store(false, std::memory_order_release); }

  /// OK while not cancelled; Status::Cancelled afterwards — the shape
  /// HOMETS_RETURN_IF_ERROR expects at a cancellation checkpoint.
  Status AsStatus() const {
    return cancelled() ? Status::Cancelled("operation cancelled")
                       : Status::OK();
  }

 private:
  const CancellationToken* parent_ = nullptr;
  std::atomic<bool> cancelled_{false};
};

/// \brief Cancels a CancellationToken when a wall-clock deadline passes.
///
/// Owns a watcher thread that sleeps until the deadline and then fires
/// `token->Cancel()`; `Disarm()` (or destruction) wakes the watcher early
/// and joins it, so a watchdog never outlives its token. `fired()` reports
/// whether the deadline — rather than an early disarm — ended the wait,
/// letting callers map the resulting cancellation to kDeadlineExceeded.
class DeadlineWatchdog {
 public:
  DeadlineWatchdog(CancellationToken* token, double deadline_ms)
      : token_(token) {
    const auto deadline =
        std::chrono::steady_clock::now() +
        std::chrono::duration_cast<std::chrono::steady_clock::duration>(
            std::chrono::duration<double, std::milli>(deadline_ms));
    watcher_ = std::thread([this, deadline] {
      std::unique_lock<std::mutex> lock(mu_);
      // Spurious wakeups re-check the predicate; the wait ends either at the
      // deadline or when Disarm() flips disarmed_.
      if (!cv_.wait_until(lock, deadline, [this] { return disarmed_; })) {
        fired_.store(true, std::memory_order_release);
        token_->Cancel();
      }
    });
  }

  DeadlineWatchdog(const DeadlineWatchdog&) = delete;
  DeadlineWatchdog& operator=(const DeadlineWatchdog&) = delete;

  ~DeadlineWatchdog() { Disarm(); }

  /// Stops the watchdog without cancelling the token (no-op after firing).
  void Disarm() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      disarmed_ = true;
    }
    cv_.notify_all();
    if (watcher_.joinable()) watcher_.join();
  }

  /// True when the deadline elapsed and the token was cancelled by this
  /// watchdog.
  bool fired() const { return fired_.load(std::memory_order_acquire); }

 private:
  CancellationToken* token_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool disarmed_ = false;
  std::atomic<bool> fired_{false};
  std::thread watcher_;
};

}  // namespace homets

#endif  // HOMETS_COMMON_CANCELLATION_H_
