/// \file stats.h
/// Percentiles, latency samples and the timers that fill them, and the
/// process probes (/proc) the benchmark reads: peak RSS, bytes written, the
/// store's filesystem.

#ifndef BENCH_E2E_STATS_H_
#define BENCH_E2E_STATS_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "core/rng.h"

namespace bench_e2e {

/// Monotonic nanoseconds (steady_clock).
inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// The q-quantile (0 <= q <= 1) of `values` by linear interpolation between
/// closest ranks (numpy's default): rank q*(n-1), interpolated. 0 for an
/// empty input. Sorts a copy.
double Percentile(std::vector<double> values, double q);

double Median(std::vector<double> values);

/// Latency samples of one operation class, in microseconds. Totals (count,
/// sum) cover every sample; percentiles come from a uniform reservoir of at
/// most kReservoir samples (Vitter's algorithm R, fixed seed), so memory —
/// and with it the process's peak RSS — does not grow with throughput.
/// Below kReservoir samples the reservoir holds every sample in order.
class Samples {
 public:
  static constexpr size_t kReservoir = size_t{1} << 18;

  void Add(double us) {
    ++count_;
    sum_ += us;
    Offer(us);
  }
  void AddNs(int64_t ns) { Add(static_cast<double>(ns) / 1e3); }
  size_t count() const { return count_; }
  double sum() const { return sum_; }
  double P(double q) const { return Percentile(values_, q); }
  const std::vector<double>& values() const { return values_; }
  /// Adds `other`'s totals, and its reservoir to this one.
  void Append(const Samples& other);

 private:
  void Offer(double us);

  std::vector<double> values_;
  size_t count_ = 0;
  size_t offered_ = 0;
  double sum_ = 0;
  dynfo::core::Rng rng_{0x5a3c1e7d9b2f4a61ULL};
};

/// Adds the wall time of its scope to a Samples.
class ScopedTimer {
 public:
  explicit ScopedTimer(Samples* samples) : samples_(samples), start_ns_(NowNs()) {}
  ~ScopedTimer() { samples_->AddNs(NowNs() - start_ns_); }
  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

 private:
  Samples* samples_;
  int64_t start_ns_;
};

/// A layer's self time, request by request: parent[i] - child[i], where
/// `parent` timed request i around the layer's call and `child` timed the
/// same request one layer down. Both must hold every sample in request
/// order (fewer than kReservoir); extra samples on either side are ignored.
Samples SelfTimes(const Samples& parent, const Samples& child);

/// VmHWM of this process in MiB (0 if /proc is unreadable).
double PeakRssMb();

/// `wchar` of /proc/self/io: bytes this process passed to write-type calls.
uint64_t WriteChars();

/// The filesystem type holding `path` (e.g. "ext4", "tmpfs", "overlay").
std::string FilesystemType(const std::string& path);

/// Total size of the regular files directly inside `dir`.
uint64_t DirBytes(const std::string& dir);

}  // namespace bench_e2e

#endif  // BENCH_E2E_STATS_H_
