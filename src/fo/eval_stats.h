/// \file eval_stats.h
/// Work counters shared by the algebra evaluator and the compiled-plan
/// executor, exposed for the evaluator-ablation benchmark.
///
/// One evaluator may serve several threads at once (the service's shared
/// read evaluator), so the live counters are relaxed atomics — they are
/// diagnostics, not synchronization — snapshotted into a plain struct for
/// reporting. Keep the two structs field-for-field in sync.

#ifndef DYNFO_FO_EVAL_STATS_H_
#define DYNFO_FO_EVAL_STATS_H_

#include <atomic>
#include <cstdint>

namespace dynfo::fo {

/// A point-in-time snapshot of the counters (plain, copyable).
struct EvalStats {
  // Operator counts.
  uint64_t joins = 0;
  uint64_t semi_joins = 0;
  uint64_t equality_extensions = 0;
  uint64_t filtered_extensions = 0;
  uint64_t filter_row_evals = 0;
  uint64_t complements = 0;
  uint64_t pads = 0;
  // Compile-once plan layer.
  uint64_t planner_runs = 0;      ///< plan compilations (once per formula)
  uint64_t plan_cache_hits = 0;   ///< Sat calls served by a cached plan
  uint64_t plan_cache_misses = 0; ///< Sat calls that had to compile
  // Persistent-index layer.
  uint64_t indexed_joins = 0;  ///< atom joins served by a persistent index
  uint64_t index_probes = 0;   ///< per-row index lookups
  uint64_t index_builds = 0;   ///< lazy (re)constructions of an index
  // Dense bit-parallel layer.
  uint64_t dense_kernel_launches = 0;  ///< lowered-program executions
  uint64_t words_scanned = 0;          ///< 64-bit words touched by kernels
  uint64_t backend_conversions = 0;    ///< hash<->dense rebuilds (engine-filled)

  double PlanCacheHitRate() const {
    const uint64_t total = plan_cache_hits + plan_cache_misses;
    return total > 0 ? static_cast<double>(plan_cache_hits) / static_cast<double>(total)
                     : 0.0;
  }
};

/// Lock-free counterpart of EvalStats (relaxed ordering; see file comment).
struct AtomicEvalStats {
  std::atomic<uint64_t> joins{0};
  std::atomic<uint64_t> semi_joins{0};
  std::atomic<uint64_t> equality_extensions{0};
  std::atomic<uint64_t> filtered_extensions{0};
  std::atomic<uint64_t> filter_row_evals{0};
  std::atomic<uint64_t> complements{0};
  std::atomic<uint64_t> pads{0};
  std::atomic<uint64_t> planner_runs{0};
  std::atomic<uint64_t> plan_cache_hits{0};
  std::atomic<uint64_t> plan_cache_misses{0};
  std::atomic<uint64_t> indexed_joins{0};
  std::atomic<uint64_t> index_probes{0};
  std::atomic<uint64_t> index_builds{0};
  std::atomic<uint64_t> dense_kernel_launches{0};
  std::atomic<uint64_t> words_scanned{0};
  std::atomic<uint64_t> backend_conversions{0};

  AtomicEvalStats() = default;
  // Copying snapshots the counters (keeps AlgebraEvaluator — and Engine —
  // copyable). Not meant to run concurrently with updates to `other`.
  AtomicEvalStats(const AtomicEvalStats& other) { *this = other; }
  AtomicEvalStats& operator=(const AtomicEvalStats& other) {
    const EvalStats snapshot = other.Snapshot();
    Store(snapshot);
    return *this;
  }

  EvalStats Snapshot() const {
    EvalStats out;
    out.joins = joins.load(std::memory_order_relaxed);
    out.semi_joins = semi_joins.load(std::memory_order_relaxed);
    out.equality_extensions = equality_extensions.load(std::memory_order_relaxed);
    out.filtered_extensions = filtered_extensions.load(std::memory_order_relaxed);
    out.filter_row_evals = filter_row_evals.load(std::memory_order_relaxed);
    out.complements = complements.load(std::memory_order_relaxed);
    out.pads = pads.load(std::memory_order_relaxed);
    out.planner_runs = planner_runs.load(std::memory_order_relaxed);
    out.plan_cache_hits = plan_cache_hits.load(std::memory_order_relaxed);
    out.plan_cache_misses = plan_cache_misses.load(std::memory_order_relaxed);
    out.indexed_joins = indexed_joins.load(std::memory_order_relaxed);
    out.index_probes = index_probes.load(std::memory_order_relaxed);
    out.index_builds = index_builds.load(std::memory_order_relaxed);
    out.dense_kernel_launches =
        dense_kernel_launches.load(std::memory_order_relaxed);
    out.words_scanned = words_scanned.load(std::memory_order_relaxed);
    out.backend_conversions =
        backend_conversions.load(std::memory_order_relaxed);
    return out;
  }

  void Store(const EvalStats& snapshot) {
    joins.store(snapshot.joins, std::memory_order_relaxed);
    semi_joins.store(snapshot.semi_joins, std::memory_order_relaxed);
    equality_extensions.store(snapshot.equality_extensions, std::memory_order_relaxed);
    filtered_extensions.store(snapshot.filtered_extensions, std::memory_order_relaxed);
    filter_row_evals.store(snapshot.filter_row_evals, std::memory_order_relaxed);
    complements.store(snapshot.complements, std::memory_order_relaxed);
    pads.store(snapshot.pads, std::memory_order_relaxed);
    planner_runs.store(snapshot.planner_runs, std::memory_order_relaxed);
    plan_cache_hits.store(snapshot.plan_cache_hits, std::memory_order_relaxed);
    plan_cache_misses.store(snapshot.plan_cache_misses, std::memory_order_relaxed);
    indexed_joins.store(snapshot.indexed_joins, std::memory_order_relaxed);
    index_probes.store(snapshot.index_probes, std::memory_order_relaxed);
    index_builds.store(snapshot.index_builds, std::memory_order_relaxed);
    dense_kernel_launches.store(snapshot.dense_kernel_launches,
                                std::memory_order_relaxed);
    words_scanned.store(snapshot.words_scanned, std::memory_order_relaxed);
    backend_conversions.store(snapshot.backend_conversions,
                              std::memory_order_relaxed);
  }

  void Reset() { Store(EvalStats()); }
};

}  // namespace dynfo::fo

#endif  // DYNFO_FO_EVAL_STATS_H_
