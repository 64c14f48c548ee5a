/// \file workloads.h
/// The three workloads and the engine-layer accounting they share.
///
///   registry_mix     every AllScenarios() program through Engine::TryApply
///   reach_u_durable  reach_u through GuardedEngine + AttachDurability
///   served_mixed     EngineService + ServiceServer over a unix socket
///
/// Each runs closed-loop for RunConfig::seconds, checks every answer it can
/// (failures count in Result::failed), and fills the end-to-end metrics
/// (untraced) or the per-layer metrics (traced).

#ifndef BENCH_E2E_WORKLOADS_H_
#define BENCH_E2E_WORKLOADS_H_

#include "dynfo/engine.h"
#include "report.h"
#include "stats.h"

namespace bench_e2e {

Result RunRegistryMix(const RunConfig& config);
Result RunReachUDurable(const RunConfig& config);
Result RunServedMixed(const RunConfig& config);

/// The engine options dynfo_server builds: auto dense backend, one thread.
dynfo::dyn::EngineOptions ServerEngineOptions();

/// Engine::Stats and fo::EvalStats summed over any number of engines.
struct EngineTotals {
  dynfo::dyn::Engine::Stats stats;
  dynfo::fo::EvalStats eval;

  /// Adds an engine's counters (callers reset or discard engines between
  /// windows so nothing is counted twice).
  void Add(const dynfo::dyn::Engine& engine);

  /// The engine.* and fo.* per-layer metrics. `apply` and `query` are the
  /// timed samples of TryApply and QueryBool over the same requests.
  void Report(const Samples& apply, const Samples& query, Result* result) const;
};

/// The relational.* working-set metrics of one engine.
void ReportWorkingSet(const dynfo::dyn::Engine& engine, Result* result);

}  // namespace bench_e2e

#endif  // BENCH_E2E_WORKLOADS_H_
