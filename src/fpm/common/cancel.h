// Cooperative cancellation for long-running mining calls.
//
// A CancelToken is a tiny shared flag (plus an optional deadline) the
// caller owns and the kernels poll at frame boundaries — once per
// recursion level, never per itemset. Cancellation is therefore bounded
// by the cost of one frame, not instantaneous: on realistic inputs a
// frame is microseconds, so a deadline or an explicit RequestCancel()
// stops the run within a few milliseconds.
//
// Threading: RequestCancel() and cancelled() may race freely from any
// thread — the token is how the service's deadline enforcement and
// client-disconnect handling reach into a mining run that is spread
// over the pool's workers. The token must outlive every task of the
// run it is attached to (each class task's kernel copies the pointer).
//
// Deadline polls are amortized: the flag is one relaxed load, and the
// steady_clock read behind a deadline happens only every
// kDeadlinePollStride-th poll, keeping frame boundaries cheap even for
// kernels with very small frames (Eclat on shallow data).

#ifndef FPM_COMMON_CANCEL_H_
#define FPM_COMMON_CANCEL_H_

#include <atomic>
#include <chrono>
#include <cstdint>

#include "fpm/common/status.h"

namespace fpm {

/// The longest timeout any entry point accepts: one year, in seconds.
/// Deadlines count nanoseconds, so a timeout of ~292 years or more
/// overflows (1e10 s used to wrap to a deadline already passed).
inline constexpr int64_t kMaxTimeoutSeconds = 365 * 24 * 3600;

/// True for a timeout in [0, kMaxTimeoutSeconds] seconds (NaN fails).
/// The one bound behind the protocol's "timeout_s", mine_cli's
/// --timeout and MiningService::Submit.
inline bool TimeoutInRange(double seconds) {
  return seconds >= 0.0 && seconds <= static_cast<double>(kMaxTimeoutSeconds);
}

class CancelToken {
 public:
  using Clock = std::chrono::steady_clock;

  /// Clock reads happen on every stride-th cancelled() poll of a token
  /// with a deadline; between reads only the atomic flag is consulted.
  static constexpr uint32_t kDeadlinePollStride = 32;

  CancelToken() = default;
  CancelToken(const CancelToken&) = delete;
  CancelToken& operator=(const CancelToken&) = delete;

  /// Requests cancellation. Idempotent; safe from any thread.
  void RequestCancel() { cancelled_.store(true, std::memory_order_release); }

  /// Arms a deadline: cancelled() starts returning true once `deadline`
  /// passes. Set before the run starts (not thread-safe against
  /// concurrent polls of the same token).
  void set_deadline(Clock::time_point deadline) {
    deadline_ = deadline;
    has_deadline_ = true;
  }

  /// Convenience: deadline `timeout` from now.
  void SetTimeout(std::chrono::nanoseconds timeout) {
    set_deadline(Clock::now() + timeout);
  }

  bool has_deadline() const { return has_deadline_; }
  Clock::time_point deadline() const { return deadline_; }

  /// True once cancellation was requested or the deadline passed. The
  /// call the kernels make at every frame boundary.
  bool cancelled() const {
    if (cancelled_.load(std::memory_order_relaxed)) return true;
    if (!has_deadline_) return false;
    if ((polls_.fetch_add(1, std::memory_order_relaxed) %
         kDeadlinePollStride) != 0) {
      return false;
    }
    if (Clock::now() < deadline_) return false;
    deadline_hit_.store(true, std::memory_order_relaxed);
    cancelled_.store(true, std::memory_order_release);
    return true;
  }

  /// True when cancellation came from the deadline rather than an
  /// explicit RequestCancel().
  bool deadline_exceeded() const {
    return deadline_hit_.load(std::memory_order_relaxed);
  }

  /// The status a cancelled run reports: DEADLINE_EXCEEDED when the
  /// deadline fired, CANCELLED otherwise (OK when not cancelled —
  /// callers typically guard with cancelled() first).
  Status ToStatus() const {
    if (deadline_exceeded()) {
      return Status::DeadlineExceeded("mining deadline exceeded");
    }
    if (cancelled_.load(std::memory_order_relaxed)) {
      return Status::Cancelled("mining cancelled");
    }
    return Status::OK();
  }

 private:
  // All three are written from const cancelled() — deadline promotion is
  // logically a read-side cache fill, not an observable mutation.
  mutable std::atomic<bool> cancelled_{false};
  mutable std::atomic<bool> deadline_hit_{false};
  mutable std::atomic<uint32_t> polls_{0};
  Clock::time_point deadline_{};
  bool has_deadline_ = false;
};

}  // namespace fpm

#endif  // FPM_COMMON_CANCEL_H_
