#include "stats.h"

#include <sys/vfs.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <sstream>

namespace bench_e2e {

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double rank = std::clamp(q, 0.0, 1.0) * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(rank));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (rank - static_cast<double>(lo));
}

double Median(std::vector<double> values) { return Percentile(std::move(values), 0.5); }

void Samples::Offer(double us) {
  ++offered_;
  if (values_.size() < kReservoir) {
    values_.push_back(us);
    return;
  }
  // Keep the sample with probability kReservoir / offered_.
  const uint64_t slot = rng_.Below(offered_);
  if (slot < kReservoir) values_[slot] = us;
}

void Samples::Append(const Samples& other) {
  for (double v : other.values_) Offer(v);
  count_ += other.count_;
  sum_ += other.sum_;
}

Samples SelfTimes(const Samples& parent, const Samples& child) {
  Samples self;
  const size_t n = std::min(parent.values().size(), child.values().size());
  for (size_t i = 0; i < n; ++i) self.Add(parent.values()[i] - child.values()[i]);
  return self;
}

namespace {

/// The first number after `key` in a "key: value" /proc file, or 0.
uint64_t ProcField(const char* path, const std::string& key) {
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(key, 0) != 0) continue;
    std::istringstream fields(line.substr(key.size()));
    uint64_t value = 0;
    fields >> value;
    return value;
  }
  return 0;
}

}  // namespace

double PeakRssMb() {
  return static_cast<double>(ProcField("/proc/self/status", "VmHWM:")) / 1024.0;
}

uint64_t WriteChars() { return ProcField("/proc/self/io", "wchar:"); }

std::string FilesystemType(const std::string& path) {
  struct statfs info;
  if (::statfs(path.c_str(), &info) != 0) return "unknown";
  switch (static_cast<uint64_t>(info.f_type)) {
    case 0xEF53:
      return "ext4";
    case 0x01021994:
      return "tmpfs";
    case 0x794C7630:
      return "overlay";
    case 0x58465342:
      return "xfs";
    case 0x9123683E:
      return "btrfs";
    case 0x6969:
      return "nfs";
    default: {
      std::ostringstream out;
      out << "0x" << std::hex << static_cast<uint64_t>(info.f_type);
      return out.str();
    }
  }
}

uint64_t DirBytes(const std::string& dir) {
  uint64_t total = 0;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    if (entry.is_regular_file(ec)) total += entry.file_size(ec);
  }
  return total;
}

}  // namespace bench_e2e
