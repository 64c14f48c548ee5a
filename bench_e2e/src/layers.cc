#include "workloads.h"

namespace bench_e2e {

dynfo::dyn::EngineOptions ServerEngineOptions() {
  dynfo::dyn::EngineOptions options;
  options.use_dense_relations = true;  // dynfo_server --backend=auto
  options.num_threads = 1;
  return options;
}

void EngineTotals::Add(const dynfo::dyn::Engine& engine) {
  const dynfo::dyn::Engine::Stats& s = engine.stats();
  stats.requests += s.requests;
  stats.tuples_written += s.tuples_written;
  stats.tuples_delta_written += s.tuples_delta_written;
  stats.fallback_recomputes += s.fallback_recomputes;
  stats.dense_applies += s.dense_applies;
  stats.update_wall_seconds += s.update_wall_seconds;
  stats.commit_seconds += s.commit_seconds;
  const dynfo::fo::EvalStats e = engine.eval_stats();
  eval.joins += e.joins;
  eval.filter_row_evals += e.filter_row_evals;
  eval.index_probes += e.index_probes;
  eval.planner_runs += e.planner_runs;
  eval.plan_cache_hits += e.plan_cache_hits;
  eval.plan_cache_misses += e.plan_cache_misses;
  eval.dense_kernel_launches += e.dense_kernel_launches;
  eval.words_scanned += e.words_scanned;
  eval.backend_conversions += e.backend_conversions;
}

void EngineTotals::Report(const Samples& apply, const Samples& query,
                          Result* result) const {
  const double updates = static_cast<double>(std::max<uint64_t>(stats.requests, 1));
  const double apply_seconds = apply.sum() / 1e6;
  result->Set("engine.apply_us_p50", apply.P(0.5));
  result->Set("engine.apply_us_p99", apply.P(0.99));
  result->Set("engine.query_us_p50", query.P(0.5));
  if (apply_seconds > 0) {
    result->Set("engine.eval_share", stats.update_wall_seconds / apply_seconds);
    result->Set("engine.commit_share", stats.commit_seconds / apply_seconds);
  }
  result->Set("engine.dense_apply_share", static_cast<double>(stats.dense_applies) / updates);
  result->Set("engine.tuples_written_per_update",
              static_cast<double>(stats.tuples_written) / updates);
  if (stats.tuples_written > 0) {
    result->Set("engine.delta_write_ratio", static_cast<double>(stats.tuples_delta_written) /
                                                static_cast<double>(stats.tuples_written));
  }
  result->Set("engine.fallback_recomputes_per_update",
              static_cast<double>(stats.fallback_recomputes) / updates);
  result->Set("fo.joins_per_update", static_cast<double>(eval.joins) / updates);
  result->Set("fo.filter_row_evals_per_update",
              static_cast<double>(eval.filter_row_evals) / updates);
  result->Set("fo.index_probes_per_update", static_cast<double>(eval.index_probes) / updates);
  result->Set("fo.planner_runs_per_update", static_cast<double>(eval.planner_runs) / updates);
  result->Set("fo.dense_kernel_launches_per_update",
              static_cast<double>(eval.dense_kernel_launches) / updates);
  result->Set("fo.words_scanned_per_update", static_cast<double>(eval.words_scanned) / updates);
  result->Set("fo.plan_cache_hit_rate", eval.PlanCacheHitRate());
  result->Set("fo.backend_conversions", static_cast<double>(eval.backend_conversions));
}

void ReportWorkingSet(const dynfo::dyn::Engine& engine, Result* result) {
  const dynfo::relational::Structure& data = engine.data();
  uint64_t tuples = 0;
  for (int i = 0; i < data.vocabulary().num_relations(); ++i) {
    tuples += data.relation(i).size();
  }
  result->Set("relational.state_tuples", static_cast<double>(tuples));
  result->Set("relational.snapshot_bytes", static_cast<double>(engine.Snapshot().size()));
}

}  // namespace bench_e2e
