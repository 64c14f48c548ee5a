#include "relational/relation.h"

#include <algorithm>

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

std::vector<Tuple> Relation::SortedTuples() const {
  std::vector<Tuple> out(begin(), end());
  std::sort(out.begin(), out.end());
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
