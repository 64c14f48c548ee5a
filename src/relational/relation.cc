#include "relational/relation.h"

#include <array>
#include <bit>
#include <utility>

namespace dynfo::relational {
namespace {

/// Cost-model constants. Arity <= 1 bitmaps cost n/8 bytes — effectively
/// free — so any representable universe goes dense under kAuto. Arity-2
/// planes cost n^2/8 bytes, so they are capped, always dense for tiny
/// universes, and otherwise density-gated with hysteresis (enter at 1/64
/// occupancy, leave below 1/256) so churn around the threshold does not
/// thrash O(n^2/64) conversions.
constexpr size_t kMaxDenseVectorUniverse = size_t{1} << 22;  // 512 KiB bitmap
constexpr size_t kMaxDensePlaneUniverse = 8192;              // 8 MiB plane
constexpr size_t kAlwaysDensePairUniverse = 64;
constexpr size_t kDenseEnterDivisor = 64;
constexpr size_t kDenseExitDivisor = 256;

}  // namespace

bool Relation::DenseRepresentable(int arity, size_t universe) {
  if (universe == 0 || arity > DenseSet::kMaxDenseArity) return false;
  return arity <= 1 ? universe <= kMaxDenseVectorUniverse
                    : universe <= kMaxDensePlaneUniverse;
}

bool Relation::WantsDense() const {
  if (!DenseRepresentable(arity_, universe_)) return false;
  switch (policy_) {
    case BackendPolicy::kHashOnly:
      return false;
    case BackendPolicy::kForceDense:
      return true;
    case BackendPolicy::kAuto:
      break;
  }
  if (arity_ <= 1 || universe_ <= kAlwaysDensePairUniverse) return true;
  const size_t cells = universe_ * universe_;
  const size_t divisor =
      dense_ != nullptr ? kDenseExitDivisor : kDenseEnterDivisor;
  return size_ * divisor >= cells;
}

bool Relation::ReconsiderBackend() {
  const bool want_dense = WantsDense();
  if (want_dense == (dense_ != nullptr)) return false;
  ConvertBackendInternal(want_dense);
  return true;
}

void Relation::ConvertBackendInternal(bool to_dense) {
  if (to_dense) {
    DYNFO_CHECK(universe_ > 0 && arity_ <= DenseSet::kMaxDenseArity);
    auto rebuilt = std::make_shared<DenseSet>(arity_, universe_);
    for (const Tuple& t : *this) rebuilt->Insert(t);
    dense_ = std::move(rebuilt);
    base_.reset();
  } else {
    auto rebuilt = std::make_shared<TupleSet>();
    rebuilt->Reserve(size_);
    for (const Tuple& t : *this) rebuilt->Insert(t);
    base_ = std::move(rebuilt);
    dense_.reset();
  }
  added_.Clear();
  removed_.Clear();
  ++conversions_;
}

const DenseSet* Relation::PrepareDenseView() {
  if (dense_ == nullptr) return nullptr;
  if (!added_.empty() || !removed_.empty()) {
    if (dense_.use_count() > 1) {
      auto folded = std::make_shared<DenseSet>(DenseContents());
      dense_ = std::move(folded);
      added_.Clear();
      removed_.Clear();
    } else {
      FlattenOverlay();
    }
  }
  return dense_.get();
}

DenseSet* Relation::BeginDenseRewrite(size_t universe) {
  DYNFO_CHECK(DenseRepresentable(arity_, universe));
  universe_ = universe;
  if (dense_ == nullptr || dense_.use_count() > 1 ||
      dense_->universe() != universe) {
    dense_ = std::make_shared<DenseSet>(arity_, universe);
  } else {
    dense_->Clear();
  }
  base_.reset();
  added_.Clear();
  removed_.Clear();
  indexes_.clear();
  return dense_.get();
}

DenseSet Relation::DenseContents() const {
  DYNFO_CHECK(dense_ != nullptr);
  DenseSet out = *dense_;
  for (const Tuple& t : added_) out.Insert(t);
  for (const Tuple& t : removed_) out.Erase(t);
  return out;
}

const TupleIndex& Relation::EnsureIndex(const std::vector<int>& positions,
                                        bool* built_now) const {
  std::lock_guard<std::mutex> lock(index_mutex_);
  for (const std::unique_ptr<TupleIndex>& index : indexes_) {
    if (index->positions() == positions) {
      if (built_now != nullptr) *built_now = false;
      return *index;
    }
  }
  auto index = std::make_unique<TupleIndex>(positions);
  for (int p : positions) {
    DYNFO_CHECK(p < arity_) << "index position beyond relation arity";
  }
  for (const Tuple& t : *this) index->Add(t);
  indexes_.push_back(std::move(index));
  if (built_now != nullptr) *built_now = true;
  return *indexes_.back();
}

core::Status Relation::ValidateIndexes() const {
  std::lock_guard<std::mutex> lock(index_mutex_);
  for (size_t i = 0; i < indexes_.size(); ++i) {
    const TupleIndex& index = *indexes_[i];
    if (index.num_entries() != size_) {
      return core::Status::Error(
          "index " + std::to_string(i) + " holds " +
          std::to_string(index.num_entries()) + " entries, relation holds " +
          std::to_string(size_) + " tuples");
    }
    for (const Tuple& t : *this) {
      const std::vector<Tuple>* bucket = index.Find(index.KeyFor(t));
      size_t copies = 0;
      if (bucket != nullptr) {
        for (const Tuple& entry : *bucket) {
          if (entry == t) ++copies;
        }
      }
      if (copies != 1) {
        return core::Status::Error("index " + std::to_string(i) + " holds " +
                                   std::to_string(copies) + " copies of " +
                                   t.ToString() + " (want exactly 1)");
      }
    }
  }
  return core::Status();
}

namespace {

/// Sorts tuples of one arity into lexicographic order. Such tuples compare
/// as the numbers their elements spell in base 2^32, so an LSD radix sort
/// over the elements' bytes, the last element's low byte first, orders
/// them. Only the bytes the largest element needs are digits (two per
/// element below 65536), and a digit on which every tuple agrees moves
/// nothing and is skipped.
void SortLexicographic(int arity, std::vector<Tuple>* tuples) {
  const size_t count = tuples->size();
  if (count < 2) return;
  Element seen = 0;
  for (const Tuple& t : *tuples) {
    for (int p = 0; p < arity; ++p) seen |= t[p];
  }
  const int bytes = (std::bit_width(seen) + 7) / 8;
  // counts[p * bytes + b][v]: how many tuples hold v in byte b of element
  // p, all gathered in one pass.
  std::vector<std::array<size_t, 256>> counts(static_cast<size_t>(arity * bytes));
  for (const Tuple& t : *tuples) {
    for (int p = 0; p < arity; ++p) {
      for (int b = 0; b < bytes; ++b) ++counts[p * bytes + b][(t[p] >> (8 * b)) & 0xff];
    }
  }
  std::vector<Tuple> scratch(count);
  for (int p = arity - 1; p >= 0; --p) {
    for (int b = 0; b < bytes; ++b) {
      const int shift = 8 * b;
      std::array<size_t, 256>& slot = counts[p * bytes + b];
      if (slot[(tuples->front()[p] >> shift) & 0xff] == count) continue;
      size_t next = 0;
      for (size_t& c : slot) next += std::exchange(c, next);
      for (const Tuple& t : *tuples) scratch[slot[(t[p] >> shift) & 0xff]++] = t;
      tuples->swap(scratch);
    }
  }
}

}  // namespace

std::vector<Tuple> Relation::SortedTuples() const {
  // One walk over the stored slots. The base is read without the per-tuple
  // `removed_` probe the iterator pays; the removed tuples (a subset of the
  // base) are sorted too and dropped in one merge.
  std::vector<Tuple> out;
  out.reserve(BaseSize() + added_.size());
  if (dense_ != nullptr) {
    for (const Tuple& t : *dense_) out.push_back(t);
  } else if (base_ != nullptr) {
    for (const Tuple& t : *base_) out.push_back(t);
  }
  for (const Tuple& t : added_) out.push_back(t);
  SortLexicographic(arity_, &out);
  if (removed_.empty()) return out;

  std::vector<Tuple> gone;
  gone.reserve(removed_.size());
  for (const Tuple& t : removed_) gone.push_back(t);
  SortLexicographic(arity_, &gone);
  size_t kept = 0;
  auto next_gone = gone.begin();
  for (const Tuple& t : out) {
    if (next_gone != gone.end() && *next_gone == t) {
      ++next_gone;
    } else {
      out[kept++] = t;
    }
  }
  out.resize(kept);
  return out;
}

std::string Relation::ToString() const {
  std::string s = "{";
  bool first = true;
  for (const Tuple& t : SortedTuples()) {
    if (!first) s += ", ";
    first = false;
    s += t.ToString();
  }
  s += "}";
  return s;
}

}  // namespace dynfo::relational
