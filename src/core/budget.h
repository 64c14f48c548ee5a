/// \file budget.h
/// Per-Apply memory/cardinality accounting for resource-governed execution.
///
/// The evaluation stack materializes intermediate relations whose size is
/// data-dependent: a hostile request can make them blow past available
/// memory, and the first symptom would be the allocator aborting the
/// process. A ResourceBudget turns that failure mode into a typed, in-band
/// error: evaluators charge rows/bytes as they materialize output (via
/// ExecGovernor::ChargeRows), and the first charge past the limit trips the
/// governor with kResourceExhausted — the engine aborts the Apply cleanly
/// and rolls back to the pre-request state.
///
/// Charges are cumulative over one Apply (the budget is constructed per
/// request), counting every materialized intermediate — the same row flowing
/// through three operators costs three charges. That is intentional: the
/// budget bounds evaluation *work and transient footprint*, not just the
/// final result size.

#ifndef DYNFO_CORE_BUDGET_H_
#define DYNFO_CORE_BUDGET_H_

#include <atomic>
#include <cstdint>
#include <string>

namespace dynfo::core {

/// Limits for one governed Apply. 0 = unlimited for that axis.
struct ResourceLimits {
  uint64_t max_tuples = 0;  ///< cumulative materialized rows across operators
  uint64_t max_bytes = 0;   ///< estimated bytes for those rows

  bool active() const { return max_tuples != 0 || max_bytes != 0; }
};

/// Thread-safe cumulative accountant (relaxed atomics — the limit check
/// tolerates a few rows of slack under races; breach detection is sticky).
class ResourceBudget {
 public:
  ResourceBudget() = default;
  explicit ResourceBudget(ResourceLimits limits) : limits_(limits) {}

  /// Records `tuples` rows / `bytes` bytes of materialization. Returns false
  /// iff this (or an earlier) charge breached a limit. Unlimited budgets
  /// always return true unless an injected failure is armed.
  bool Charge(uint64_t tuples, uint64_t bytes);

  bool exhausted() const { return breached_.load(std::memory_order_relaxed); }

  uint64_t tuples_charged() const { return tuples_.load(std::memory_order_relaxed); }
  uint64_t bytes_charged() const { return bytes_.load(std::memory_order_relaxed); }
  const ResourceLimits& limits() const { return limits_; }

  /// Chaos hook (allocation-failure injector): the `n`-th Charge call fails
  /// unconditionally, modeling an allocator running dry mid-evaluation.
  /// 0 disarms.
  void FailAfterCharges(uint64_t n) { fail_at_charge_.store(n, std::memory_order_relaxed); }

  /// Human-readable account of what breached, e.g.
  /// "budget breached: 1024 tuples charged, limit 512".
  std::string DescribeBreach() const;

 private:
  ResourceLimits limits_;
  std::atomic<uint64_t> tuples_{0};
  std::atomic<uint64_t> bytes_{0};
  std::atomic<uint64_t> charges_{0};
  std::atomic<uint64_t> fail_at_charge_{0};
  std::atomic<bool> breached_{false};
  std::atomic<bool> injected_{false};
};

}  // namespace dynfo::core

#endif  // DYNFO_CORE_BUDGET_H_
