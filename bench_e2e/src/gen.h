/// \file gen.h
/// The benchmark's own input generators: edge churn held at a target edge
/// count, and a Zipf sampler for skewed read keys. Deterministic per seed.

#ifndef BENCH_E2E_GEN_H_
#define BENCH_E2E_GEN_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/rng.h"
#include "relational/request.h"

namespace bench_e2e {

/// Mixes a seed with a stream id (SplitMix64 finalizer): independent,
/// reproducible sub-seeds for each generator in a run.
uint64_t SubSeed(uint64_t seed, uint64_t stream);

/// Edge churn on relation `relation` over vertices [0, n), held at a target
/// edge count: insert an absent edge when below the target, delete a present
/// one when above, and flip a fair coin at the target. Endpoints are
/// uniform; every edge is stored as (u, v) with u < v (the undirected
/// canonical form, and for digraphs a forward edge, so the graph stays
/// acyclic). Every emitted request is a genuine change: inserts are absent,
/// deletes present.
class HeldCountChurn {
 public:
  HeldCountChurn(std::string relation, uint32_t n, size_t target, uint64_t seed);

  /// The next request; the shadow edge set is updated as if it applied.
  dynfo::relational::Request Next();

  size_t edge_count() const { return edges_.size(); }
  size_t target() const { return target_; }
  const std::vector<std::pair<uint32_t, uint32_t>>& edges() const { return edges_; }
  dynfo::core::Rng* rng() { return &rng_; }

 private:
  static uint64_t Key(uint32_t u, uint32_t v) {
    return (static_cast<uint64_t>(u) << 32) | v;
  }
  dynfo::relational::Request Insert();
  dynfo::relational::Request Delete();

  std::string relation_;
  uint32_t n_;
  size_t target_;
  dynfo::core::Rng rng_;
  std::vector<std::pair<uint32_t, uint32_t>> edges_;  ///< dense, for O(1) draws
  std::unordered_map<uint64_t, size_t> position_;     ///< edge -> index in edges_
};

/// Zipf(s) over ranks [0, n): P(rank k) proportional to 1 / (k + 1)^s.
/// Sampling inverts a precomputed CDF by binary search.
class ZipfSampler {
 public:
  ZipfSampler(uint32_t n, double exponent);
  uint32_t Sample(dynfo::core::Rng* rng) const;

 private:
  std::vector<double> cdf_;
};

/// Wire-grammar text of a request ("ins E 0 1", "del E 0 1", "set s 3").
std::string WireText(const dynfo::relational::Request& request);

}  // namespace bench_e2e

#endif  // BENCH_E2E_GEN_H_
