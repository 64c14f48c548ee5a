#include "gen.h"

#include <algorithm>
#include <cmath>

namespace bench_e2e {

using dynfo::relational::Request;
using dynfo::relational::RequestKind;
using dynfo::relational::Tuple;

uint64_t SubSeed(uint64_t seed, uint64_t stream) {
  uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (stream + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

HeldCountChurn::HeldCountChurn(std::string relation, uint32_t n, size_t target,
                               uint64_t seed)
    : relation_(std::move(relation)), n_(n), target_(target), rng_(seed) {
  // Leave room to insert: at most half the possible forward edges.
  const size_t possible = static_cast<size_t>(n) * (n - 1) / 2;
  target_ = std::min(target_, possible / 2);
}

Request HeldCountChurn::Next() {
  const size_t count = edges_.size();
  bool insert = count < target_;
  if (count == target_) insert = rng_.Chance(1, 2);
  if (count == 0) insert = true;
  return insert ? Insert() : Delete();
}

Request HeldCountChurn::Insert() {
  while (true) {
    uint32_t u = static_cast<uint32_t>(rng_.Below(n_));
    uint32_t v = static_cast<uint32_t>(rng_.Below(n_));
    if (u == v) continue;
    if (u > v) std::swap(u, v);
    if (!position_.emplace(Key(u, v), edges_.size()).second) continue;
    edges_.emplace_back(u, v);
    return Request::Insert(relation_, Tuple{u, v});
  }
}

Request HeldCountChurn::Delete() {
  const size_t at = static_cast<size_t>(rng_.Below(edges_.size()));
  const auto [u, v] = edges_[at];
  position_.erase(Key(u, v));
  if (at + 1 != edges_.size()) {
    edges_[at] = edges_.back();
    position_[Key(edges_[at].first, edges_[at].second)] = at;
  }
  edges_.pop_back();
  return Request::Delete(relation_, Tuple{u, v});
}

ZipfSampler::ZipfSampler(uint32_t n, double exponent) : cdf_(n) {
  double total = 0;
  for (uint32_t k = 0; k < n; ++k) {
    total += 1.0 / std::pow(static_cast<double>(k + 1), exponent);
    cdf_[k] = total;
  }
  for (double& c : cdf_) c /= total;
}

uint32_t ZipfSampler::Sample(dynfo::core::Rng* rng) const {
  const double u = rng->UnitDouble();
  const auto it = std::upper_bound(cdf_.begin(), cdf_.end(), u);
  const size_t rank = static_cast<size_t>(it - cdf_.begin());
  return static_cast<uint32_t>(std::min(rank, cdf_.size() - 1));
}

std::string WireText(const Request& request) {
  std::string out;
  switch (request.kind) {
    case RequestKind::kInsert:
      out = "ins ";
      break;
    case RequestKind::kDelete:
      out = "del ";
      break;
    case RequestKind::kSetConstant:
      return "set " + request.target + " " + std::to_string(request.value);
  }
  out += request.target;
  for (int i = 0; i < request.tuple.size(); ++i) {
    out += ' ';
    out += std::to_string(request.tuple[i]);
  }
  return out;
}

}  // namespace bench_e2e
