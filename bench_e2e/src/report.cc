#include "report.h"

#include <cmath>
#include <cstdio>

namespace bench_e2e {

const std::vector<MetricDef>& EndToEndMetrics() {
  static const std::vector<MetricDef> metrics = {
      {"setup_s", "s"},
      {"update_p50_us", "us"},
      {"update_p99_us", "us"},
      {"updates_per_s", "1/s"},
      // No query latency percentiles: they amplify host noise past the
      // largest usable bound (bench_e2e/README.md, "End-to-end metrics").
      {"queries_per_s", "1/s"},
      {"peak_rss_mb", "MiB"},
  };
  return metrics;
}

const std::vector<MetricDef>& PerLayerMetrics() {
  static const std::vector<MetricDef> metrics = [] {
    std::vector<MetricDef> out = {
        // engine: timers on Engine::TryApply / QueryBool, Engine::Stats.
        {"engine.apply_us_p50", "us"},
        {"engine.apply_us_p99", "us"},
        {"engine.query_us_p50", "us"},
        {"engine.eval_share", "ratio"},
        {"engine.commit_share", "ratio"},
        {"engine.dense_apply_share", "ratio"},
        {"engine.tuples_written_per_update", "count"},
        {"engine.delta_write_ratio", "ratio"},
        {"engine.fallback_recomputes_per_update", "count"},
        // fo: Engine::eval_stats() per update, parser timer.
        {"fo.joins_per_update", "count"},
        {"fo.filter_row_evals_per_update", "count"},
        {"fo.index_probes_per_update", "count"},
        {"fo.planner_runs_per_update", "count"},
        {"fo.dense_kernel_launches_per_update", "count"},
        {"fo.words_scanned_per_update", "count"},
        {"fo.plan_cache_hit_rate", "ratio"},
        {"fo.backend_conversions", "count"},
        {"fo.parse_us_p50", "us"},
        // relational: the working set.
        {"relational.state_tuples", "count"},
        {"relational.snapshot_bytes", "bytes"},
        // recovery / journal: timers on GuardedEngine::Apply, store counters.
        {"recovery.apply_us_p50", "us"},
        {"recovery.apply_us_p99", "us"},
        {"recovery.self_us_p50", "us"},
        {"journal.fsyncs_per_update", "count"},
        {"journal.bytes_appended_per_update", "bytes"},
        {"journal.disk_write_bytes_per_update", "bytes"},
        {"journal.checkpoints", "count"},
        {"journal.full_snapshots", "count"},
        {"journal.files_collected", "count"},
        {"journal.dir_bytes", "bytes"},
        {"journal.revive_ms", "ms"},
        {"journal.revive_replayed", "count"},
        {"journal.checkpoint_update_us_p50", "us"},
        {"journal.plain_update_us_p50", "us"},
        // service: socketless replay timers, ServiceStats.
        {"service.apply_us_p50", "us"},
        {"service.apply_batch_us_p50", "us"},
        {"service.pin_us_p50", "us"},
        {"service.query_bool_us_p50", "us"},
        {"service.query_sentence_us_p50", "us"},
        {"service.snapshots_published_per_write", "ratio"},
        {"service.retained_versions_max", "count"},
        {"service.read_tier_compiled_share", "ratio"},
        {"service.read_tier_naive_share", "ratio"},
        {"service.admission_rejections", "count"},
        {"service.admission_timeouts", "count"},
        // wire: timers on Client::Call and ServiceServer::Dispatch.
        {"wire.call_us_p50", "us"},
        {"wire.call_us_p99", "us"},
        {"wire.dispatch_us_p50", "us"},
        {"wire.self_us_p50", "us"},
        {"wire.resource_retries", "count"},
        {"wire.transport_retries", "count"},
        {"wire.reconnects", "count"},
    };
    for (const char* scenario :
         {"parity", "reach_u", "reach_u2", "reach_acyclic", "transitive_reduction",
          "bipartite", "lca", "matching", "msf", "dyck", "pad_reach_a",
          "multiplication", "reach_semidynamic"}) {
      out.push_back({std::string("scenario.") + scenario + ".apply_us_p50", "us"});
    }
    // Counters that repeat exactly at a fixed seed (single-threaded
    // workloads); each run replays a fixed prefix twice and checks.
    out.push_back({"exact.tuples_written", "count"});
    out.push_back({"exact.index_probes", "count"});
    out.push_back({"exact.fsyncs", "count"});
    out.push_back({"exact.journal_bytes", "bytes"});
    out.push_back({"trace.overhead", "ratio"});
    return out;
  }();
  return metrics;
}

namespace {

const MetricDef* FindMetric(const std::string& name) {
  for (const auto* list : {&EndToEndMetrics(), &PerLayerMetrics()}) {
    for (const MetricDef& def : *list) {
      if (def.name == name) return &def;
    }
  }
  return nullptr;
}

std::string JsonEscape(const std::string& text) {
  std::string out;
  for (char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

std::string Number(double value) {
  if (!std::isfinite(value)) value = 0;
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.15g", value);
  return buffer;
}

}  // namespace

void Result::Set(const std::string& name, double value) {
  if (FindMetric(name) == nullptr) {
    Error("internal: unknown metric " + name);
    return;
  }
  values_[name] = value;
}

double Result::Get(const std::string& name) const {
  auto it = values_.find(name);
  return it == values_.end() ? 0 : it->second;
}

void Result::Error(const std::string& message) {
  ++errors;
  if (error_messages_.size() < 8) error_messages_.push_back(message);
}

void Result::Print(const RunConfig& config) const {
  for (const std::string& line : notes_) std::printf("%s\n", line.c_str());
  for (const std::string& message : error_messages_) {
    std::printf("CHECK FAILED: %s\n", message.c_str());
  }
  if (errors > error_messages_.size()) {
    std::printf("CHECK FAILED: ... %llu violation(s) in total\n",
                static_cast<unsigned long long>(errors));
  }
  const auto& list = config.trace ? PerLayerMetrics() : EndToEndMetrics();
  std::printf("%s metrics (%s):\n", config.workload.c_str(),
              config.trace ? "traced run, per layer" : "untraced run, end to end");
  for (const MetricDef& def : list) {
    std::printf("  %-42s %16s %s\n", def.name.c_str(), Number(Get(def.name)).c_str(),
                def.unit.c_str());
  }
  const double failed_ratio =
      attempted > 0 ? static_cast<double>(failed) / static_cast<double>(attempted) : 1;
  std::printf("  %-42s %16s ratio (%llu of %llu)\n", "failed_ratio",
              Number(failed_ratio).c_str(), static_cast<unsigned long long>(failed),
              static_cast<unsigned long long>(attempted));

  std::string prov = "{\"provenance\": {";
  bool first = true;
  for (const auto& [key, value] : provenance) {
    prov += (first ? "\"" : ", \"") + JsonEscape(key) + "\": \"" + JsonEscape(value) + "\"";
    first = false;
  }
  std::printf("%s}}\n", prov.c_str());

  const bool correct = errors == 0 && failed == 0 && attempted > 0;
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  first = true;
  for (const MetricDef& def : list) {
    out += (first ? "\"" : ", \"") + def.name + "\": {\"value\": " + Number(Get(def.name)) +
           ", \"unit\": \"" + def.unit + "\"}";
    first = false;
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

}  // namespace bench_e2e
