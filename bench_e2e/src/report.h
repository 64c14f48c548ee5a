/// \file report.h
/// Metric names and units, the run configuration, and the result printer.
///
/// The last line a run prints is the machine-readable result:
///   {"correct": ..., "attempted": N, "failed": N, "metrics": {...}}
/// with every end-to-end metric (untraced run) or every per-layer metric
/// (traced run). The lines before it are human-readable, plus one
/// "provenance" JSON line.

#ifndef BENCH_E2E_REPORT_H_
#define BENCH_E2E_REPORT_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace bench_e2e {

struct MetricDef {
  std::string name;
  std::string unit;
};

/// Reported by every untraced run, on every workload.
const std::vector<MetricDef>& EndToEndMetrics();
/// Reported by every traced run; a layer a workload does not reach reads 0.
const std::vector<MetricDef>& PerLayerMetrics();

/// A seed no tuning run used: every run also replays a short correctness
/// pass generated from it.
inline constexpr uint64_t kHeldOutSeed = 0x48454c44u;  // "HELD"

struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string root = ".";      ///< checkout root (spec files are read from it)
  std::string work_dir;        ///< scratch space for stores and sockets
};

class Result {
 public:
  /// Sets a metric; the name must be one of the two lists above.
  void Set(const std::string& name, double value);
  double Get(const std::string& name) const;

  /// Counts one attempted operation; `ok` false counts it failed.
  void Count(bool ok) {
    ++attempted;
    if (!ok) ++failed;
  }
  /// Records a correctness violation (kept to the first few messages).
  void Error(const std::string& message);
  /// A human-readable line printed before the result.
  void Note(const std::string& line) { notes_.push_back(line); }

  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t errors = 0;
  std::map<std::string, std::string> provenance;

  /// Prints notes, the provenance line, and the final result line.
  void Print(const RunConfig& config) const;

 private:
  std::map<std::string, double> values_;
  std::vector<std::string> notes_;
  std::vector<std::string> error_messages_;
};

}  // namespace bench_e2e

#endif  // BENCH_E2E_REPORT_H_
