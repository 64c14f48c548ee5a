/// \file cancel.h
/// Deadlines, cooperative cancellation, and the per-Apply execution
/// governor.
///
/// The evaluation stack has no safe preemption point except between units
/// of work, so cancellation is cooperative: every operator loop polls an
/// ExecGovernor, which folds together the three ways a governed Apply can
/// be stopped —
///
///   * Deadline     — wall-clock budget for the whole Apply;
///   * CancelToken  — caller-driven async cancellation (another thread may
///                    Cancel() while Apply runs);
///   * ResourceBudget — memory/cardinality accounting (core/budget.h).
///
/// The governor is *sticky*: the first trip wins, records a StatusCode +
/// message, and every later poll returns "stop" immediately without
/// re-checking clocks or budgets. Operators bail out returning partial
/// results that the engine discards — evaluate-then-commit makes the abort
/// atomic (see DESIGN.md §10). An ungoverned execution carries a null
/// governor pointer, so the hot path pays one pointer compare and nothing
/// else.
///
/// Observed cancellation latency is bounded by one stride: an operator
/// polls every kGovernorStride rows and returns early once a poll says stop.

#ifndef DYNFO_CORE_CANCEL_H_
#define DYNFO_CORE_CANCEL_H_

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>

#include "core/budget.h"
#include "core/status.h"

namespace dynfo::core {

/// How often operator loops poll the governor (rows per poll).
/// Chosen to keep poll overhead invisible next to per-row work while
/// bounding cancellation latency to a few hundred rows.
inline constexpr size_t kGovernorStride = 256;

/// A wall-clock budget. Default-constructed = infinite (never expires).
class Deadline {
 public:
  Deadline() = default;

  /// Expires `millis` from now. Non-positive durations are already
  /// expired — useful for tests pinning the timeout path deterministically.
  /// A duration that reaches past the end of the clock's range never
  /// expires (adding it to now() would overflow).
  static Deadline AfterMillis(int64_t millis) {
    using std::chrono::milliseconds;
    using std::chrono::steady_clock;
    const steady_clock::time_point now = steady_clock::now();
    Deadline d;
    if (millis >= std::chrono::duration_cast<milliseconds>(
                      steady_clock::time_point::max() - now).count()) {
      return d;
    }
    d.has_deadline_ = true;
    d.when_ = now + milliseconds(millis > 0 ? millis : 0);
    return d;
  }

  static Deadline Infinite() { return Deadline(); }

  bool is_infinite() const { return !has_deadline_; }

  /// The expiry instant; meaningless when is_infinite().
  std::chrono::steady_clock::time_point when() const { return when_; }

  bool expired() const {
    return has_deadline_ && std::chrono::steady_clock::now() >= when_;
  }

 private:
  bool has_deadline_ = false;
  std::chrono::steady_clock::time_point when_{};
};

/// Caller-side async cancellation flag. The caller keeps the token and may
/// Cancel() from any thread; governed execution polls it via the governor.
class CancelToken {
 public:
  void Cancel() { cancelled_.store(true, std::memory_order_relaxed); }
  bool cancelled() const { return cancelled_.load(std::memory_order_relaxed); }
  void Reset() { cancelled_.store(false, std::memory_order_relaxed); }

 private:
  std::atomic<bool> cancelled_{false};
};

/// The per-Apply stop authority polled by operator loops. Constructed on
/// the Apply stack and shared by reference with every operator through
/// EvalContext. All methods are safe to call concurrently: a CancelToken
/// holder or a test may read the governor while the Apply polls it.
class ExecGovernor {
 public:
  ExecGovernor() = default;
  ExecGovernor(Deadline deadline, const CancelToken* cancel, ResourceBudget* budget)
      : deadline_(deadline), cancel_(cancel), budget_(budget) {}

  /// Polls every stop source. Returns true iff execution must stop; the
  /// first true answer latches the code/message for status(). Cheap once
  /// tripped (single relaxed load).
  bool ShouldStop() const;

  /// True iff a trip already happened (no polling side effects).
  bool stopped() const {
    return code_.load(std::memory_order_relaxed) != static_cast<int>(StatusCode::kOk);
  }

  StatusCode code() const {
    return static_cast<StatusCode>(code_.load(std::memory_order_relaxed));
  }

  /// The trip as a Status (OK if never tripped).
  Status status() const;

  /// Charges `rows` materialized rows of `row_bytes` bytes each against the
  /// budget (no-op without one). Returns false and trips kResourceExhausted
  /// on breach; callers should then bail out of their loop.
  bool ChargeRows(uint64_t rows, uint64_t row_bytes) const;

  /// Total ShouldStop polls so far — the cancellation-latency yardstick:
  /// after a trip at poll k, the counter stays close to k.
  uint64_t checks() const { return checks_.load(std::memory_order_relaxed); }

  /// Test/chaos knob: deterministically trips kCancelled at the `k`-th
  /// ShouldStop poll (1-based; 0 disarms). This is how the atomicity sweep
  /// cancels at every successive poll without timing races.
  void TripAtCheck(uint64_t k) { trip_at_check_ = k; }

  /// Chaos knob (worker-stall injector): the `k`-th poll sleeps `millis`
  /// before returning, modeling a descheduled worker. Combined with a tight
  /// deadline it forces the timeout path at a seeded, reproducible point.
  void StallAtCheck(uint64_t k, int millis) {
    stall_at_check_ = k;
    stall_millis_ = millis;
  }

 private:
  void Trip(StatusCode code, const std::string& message) const;

  Deadline deadline_;
  const CancelToken* cancel_ = nullptr;
  ResourceBudget* budget_ = nullptr;
  uint64_t trip_at_check_ = 0;
  uint64_t stall_at_check_ = 0;
  int stall_millis_ = 0;

  mutable std::atomic<uint64_t> checks_{0};
  mutable std::atomic<int> code_{static_cast<int>(StatusCode::kOk)};
  mutable std::mutex message_mutex_;
  mutable std::string message_;
};

/// Null-safe poll helper for loops holding a possibly-null governor.
inline bool GovernorStop(const ExecGovernor* governor) {
  return governor != nullptr && governor->ShouldStop();
}

/// Strided poll for row loops: polls once every kGovernorStride calls (and
/// on the first), so cancellation latency stays bounded without a per-row
/// atomic. Ungoverned loops pay one pointer compare. Usage:
///   size_t polls = 0;
///   for (...) { if (StridedStop(governor, &polls)) break; ... }
inline bool StridedStop(const ExecGovernor* governor, size_t* counter) {
  return governor != nullptr && ((*counter)++ % kGovernorStride) == 0 &&
         governor->ShouldStop();
}

}  // namespace dynfo::core

#endif  // DYNFO_CORE_CANCEL_H_
