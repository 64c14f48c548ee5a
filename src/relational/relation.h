/// \file relation.h
/// A finite relation: a set of tuples of fixed arity over {0..n-1}, stored
/// copy-on-write with a per-relation choice of physical backend.

#ifndef DYNFO_RELATIONAL_RELATION_H_
#define DYNFO_RELATIONAL_RELATION_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "core/status.h"
#include "relational/dense_set.h"
#include "relational/index.h"
#include "relational/tuple_set.h"

namespace dynfo::relational {

/// Per-relation storage policy. kHashOnly is the default for standalone
/// Relations (unit tests, scratch values); the engine stamps kAuto on every
/// relation it owns when EngineOptions::use_dense_relations is set, and the
/// CLI can force either backend for ablations.
enum class BackendPolicy : uint8_t {
  kHashOnly,    ///< always hash (TupleSet) storage
  kAuto,        ///< cost model picks per relation, with hysteresis
  kForceDense,  ///< dense whenever representable (arity <= 2, universe known)
};

/// The physical backend currently holding the base version.
enum class RelationBackend : uint8_t { kHash, kDense };

/// Mutable tuple set with O(1) expected membership/insert/erase and O(1)
/// copies. Storage is copy-on-write versioned: a relation holds a shared
/// immutable base table plus a private overlay diff, so Engine::Snapshot()
/// and the evaluate-then-commit staging copies inside Engine::TryApply share
/// the base instead of deep-copying O(state) tuples. A tuple is present iff
/// it is in `added`, or in `base` and not in `removed`. The base is mutated
/// directly while uniquely owned; once it is shared, writes land in the
/// overlay, which is folded into a fresh private base when it outgrows half
/// the base (amortized O(1) per write) or folded back in place as soon as
/// the relation is sole owner again.
///
/// The base has two interchangeable physical forms: a hash TupleSet (any
/// arity, sparse-friendly) or a packed-bitmap DenseSet (arity <= 2 over a
/// known universe; see dense_set.h) picked by a cost model under kAuto.
/// Exactly one of the two base pointers is active; the overlay is always a
/// TupleSet pair regardless of backend, so CoW/abort-atomicity semantics are
/// identical in both modes. Conversions happen only at explicit
/// ConfigureBackend/ReconsiderBackend calls — the engine invokes those at
/// deterministic commit boundaries, making the backend a pure function of
/// (options, committed history) and keeping same-option engines bit-exact.
///
/// Iteration order is unspecified; use SortedTuples() where determinism
/// matters.
///
/// A relation additionally owns persistent secondary indexes (see index.h),
/// registered lazily by compiled query plans through EnsureIndex() and
/// maintained incrementally by every Insert/Erase/Clear. Indexes are derived
/// state: they never affect equality, are dropped (and lazily rebuilt) on
/// copy, and follow the tuples on move.
///
/// Thread-safety: concurrent *readers* — including concurrent EnsureIndex
/// calls, which synchronize on an internal mutex, and concurrent copies,
/// which only bump the shared base's refcount — are safe; mutation must be
/// externally serialized against all access, which the engine (one thread
/// per request) and EngineService (one writer at a time) guarantee. A staged
/// copy may be mutated while other threads read the original: the base is
/// shared then, so writes go to the copy's private overlay and never touch
/// shared slots.
class Relation {
 public:
  /// Iterates `added` first, then `base` minus `removed`. The base phase
  /// walks whichever backend is active; the inactive iterator is parked at a
  /// fixed sentinel so iterator equality stays a plain field compare.
  class const_iterator {
   public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = Tuple;
    using difference_type = std::ptrdiff_t;
    using pointer = const Tuple*;
    using reference = const Tuple&;

    const Tuple& operator*() const {
      return (!in_added_ && rel_->dense_ != nullptr) ? *dit_ : *hit_;
    }
    const Tuple* operator->() const { return &**this; }

    const_iterator& operator++() {
      if (!in_added_ && rel_->dense_ != nullptr) {
        ++dit_;
      } else {
        ++hit_;
      }
      Settle();
      return *this;
    }

    bool operator==(const const_iterator& other) const {
      return in_added_ == other.in_added_ && hit_ == other.hit_ &&
             dit_ == other.dit_;
    }
    bool operator!=(const const_iterator& other) const {
      return !(*this == other);
    }

   private:
    friend class Relation;
    const_iterator(const Relation* rel, bool at_end)
        : rel_(rel),
          in_added_(!at_end),
          hit_(at_end ? (rel->dense_ != nullptr ? rel->added_.end()
                                                : rel->BaseOrEmpty().end())
                      : rel->added_.begin()),
          dit_(at_end && rel->dense_ != nullptr ? rel->dense_->end()
                                                : DenseSet::const_iterator()) {
      Settle();
    }

    void Settle() {
      if (in_added_ && hit_ == rel_->added_.end()) {
        in_added_ = false;
        if (rel_->dense_ != nullptr) {
          dit_ = rel_->dense_->begin();  // hit_ stays parked at added_.end()
        } else {
          hit_ = rel_->BaseOrEmpty().begin();
        }
      }
      if (!in_added_ && !rel_->removed_.empty()) {
        if (rel_->dense_ != nullptr) {
          const DenseSet::const_iterator dense_end = rel_->dense_->end();
          while (dit_ != dense_end && rel_->removed_.Contains(*dit_)) ++dit_;
        } else {
          const TupleSet::const_iterator base_end = rel_->BaseOrEmpty().end();
          while (hit_ != base_end && rel_->removed_.Contains(*hit_)) ++hit_;
        }
      }
    }

    const Relation* rel_;
    bool in_added_;
    TupleSet::const_iterator hit_;
    DenseSet::const_iterator dit_;
  };

  explicit Relation(int arity) : arity_(arity) {
    DYNFO_CHECK(arity >= 0 && arity <= Tuple::kMaxArity);
  }

  Relation(const Relation& other)
      : arity_(other.arity_),
        base_(other.base_),
        dense_(other.dense_),
        added_(other.added_),
        removed_(other.removed_),
        size_(other.size_),
        policy_(other.policy_),
        universe_(other.universe_),
        conversions_(other.conversions_) {}
  Relation& operator=(const Relation& other) {
    if (this == &other) return *this;
    arity_ = other.arity_;
    base_ = other.base_;
    dense_ = other.dense_;
    added_ = other.added_;
    removed_ = other.removed_;
    size_ = other.size_;
    policy_ = other.policy_;
    universe_ = other.universe_;
    conversions_ = other.conversions_;
    indexes_.clear();  // stale for the new contents; rebuilt on demand
    return *this;
  }
  Relation(Relation&& other) noexcept
      : arity_(other.arity_),
        base_(std::move(other.base_)),
        dense_(std::move(other.dense_)),
        added_(std::move(other.added_)),
        removed_(std::move(other.removed_)),
        size_(other.size_),
        policy_(other.policy_),
        universe_(other.universe_),
        conversions_(other.conversions_),
        indexes_(std::move(other.indexes_)) {}
  Relation& operator=(Relation&& other) noexcept {
    if (this == &other) return *this;
    arity_ = other.arity_;
    base_ = std::move(other.base_);
    dense_ = std::move(other.dense_);
    added_ = std::move(other.added_);
    removed_ = std::move(other.removed_);
    size_ = other.size_;
    policy_ = other.policy_;
    universe_ = other.universe_;
    conversions_ = other.conversions_;
    indexes_ = std::move(other.indexes_);
    return *this;
  }

  int arity() const { return arity_; }
  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  bool Contains(const Tuple& t) const {
    DYNFO_CHECK(t.size() == arity_);
    if (added_.empty() && removed_.empty()) return BaseContains(t);
    if (added_.Contains(t)) return true;
    return !removed_.Contains(t) && BaseContains(t);
  }

  /// Inserts a tuple; returns true if it was not already present.
  bool Insert(const Tuple& t) {
    DYNFO_CHECK(t.size() == arity_);
    if (!InsertTuple(t)) return false;
    ++size_;
    for (const std::unique_ptr<TupleIndex>& index : indexes_) index->Add(t);
    return true;
  }

  /// Erases a tuple; returns true if it was present.
  bool Erase(const Tuple& t) {
    DYNFO_CHECK(t.size() == arity_);
    if (!EraseTuple(t)) return false;
    --size_;
    for (const std::unique_ptr<TupleIndex>& index : indexes_) index->Remove(t);
    return true;
  }

  /// Empties the relation, keeping the current backend kind (a cleared dense
  /// relation stays dense so backend state survives transient empties).
  void Clear() {
    if (dense_ != nullptr) {
      if (dense_.use_count() > 1) {
        dense_ = std::make_shared<DenseSet>(arity_, dense_->universe());
      } else {
        dense_->Clear();
      }
    }
    base_.reset();
    added_.Clear();
    removed_.Clear();
    size_ = 0;
    for (const std::unique_ptr<TupleIndex>& index : indexes_) index->Clear();
  }

  const_iterator begin() const { return const_iterator(this, false); }
  const_iterator end() const { return const_iterator(this, true); }

  // ---------------------------------------------------------------------
  // Backend selection (see BackendPolicy).

  /// Stamps the policy and universe and immediately reconsiders the backend.
  /// Returns true when a conversion happened. The engine calls this on every
  /// relation it owns at construction, after Restore, and after each commit
  /// (full-recompute commits replace the Relation value wholesale, wiping the
  /// stamp). Within the arity-2 hysteresis band the current backend is kept,
  /// so a restored backend is never flipped by re-stamping.
  bool ConfigureBackend(BackendPolicy policy, size_t universe) {
    policy_ = policy;
    universe_ = universe;
    return ReconsiderBackend();
  }

  /// Re-evaluates the cost model against the current size and converts when
  /// the desired backend differs. Returns true when a conversion happened.
  bool ReconsiderBackend();

  /// Forces a specific backend regardless of policy (delta restore and
  /// forced-churn tests). `universe` must be nonzero for kDense.
  void ForceBackend(RelationBackend backend, size_t universe);

  RelationBackend backend() const {
    return dense_ != nullptr ? RelationBackend::kDense : RelationBackend::kHash;
  }
  BackendPolicy backend_policy() const { return policy_; }
  size_t backend_universe() const { return universe_; }

  /// Conversions performed on this value lineage (copied with the value;
  /// engine-level totals are tracked by the engine itself).
  uint64_t backend_conversions() const { return conversions_; }

  /// The dense base when it exactly represents the contents (dense backend,
  /// empty overlay); nullptr otherwise. Kernels read words through this.
  const DenseSet* DenseBaseView() const {
    return (dense_ != nullptr && added_.empty() && removed_.empty())
               ? dense_.get()
               : nullptr;
  }

  /// Makes DenseBaseView() available when the backend is dense: folds the
  /// overlay into a private base (copying first if the base is shared).
  /// Logical contents are unchanged, so snapshots and indexes are unaffected.
  /// Returns nullptr when the backend is hash.
  const DenseSet* PrepareDenseView();

  /// Begins a wholesale dense rewrite of the contents: returns a uniquely
  /// owned, correctly shaped, zeroed base for the caller to fill via
  /// mutable_words(), dropping any overlay and indexes. The caller must call
  /// FinishDenseRewrite() before the relation is read again. Used by the
  /// engine's dense commit path so a kernel result lands without per-tuple
  /// traffic.
  DenseSet* BeginDenseRewrite(size_t universe);
  void FinishDenseRewrite() {
    dense_->RecountSize();
    size_ = dense_->size();
  }

  /// The logical contents as a DenseSet (base plus folded overlay). Requires
  /// the dense backend. Used by serialization so emitted bitmap pages never
  /// depend on overlay state.
  DenseSet DenseContents() const;

  /// True when this relation and `other` currently share the same base
  /// version with no private divergence (an O(1) structural check; used by
  /// tests and stats, never required for correctness).
  bool SharesStorageWith(const Relation& other) const {
    return (base_ != nullptr && base_ == other.base_) ||
           (dense_ != nullptr && dense_ == other.dense_);
  }

  /// Tuples living in the private overlay rather than the shared base
  /// (observability hook for copy-on-write behaviour).
  size_t OverlaySize() const { return added_.size() + removed_.size(); }

  /// The index keyed on `positions` (sorted, distinct argument positions),
  /// building it from the current contents on first request. Safe to call
  /// from concurrent readers. `built_now`, when non-null, reports whether
  /// this call constructed the index (for build-vs-probe accounting).
  const TupleIndex& EnsureIndex(const std::vector<int>& positions,
                                bool* built_now = nullptr) const;

  size_t num_indexes() const {
    std::lock_guard<std::mutex> lock(index_mutex_);
    return indexes_.size();
  }

  /// Discards every secondary index (tuples untouched). The recovery path
  /// calls this when ValidateIndexes() reports corruption: plans re-register
  /// and rebuild indexes from the tuple set on their next execution.
  void DropIndexes() {
    std::lock_guard<std::mutex> lock(index_mutex_);
    indexes_.clear();
  }

  /// Checks every index against the tuple set: each stored tuple appears in
  /// its bucket exactly once and bucket totals match the relation size (so
  /// there are no phantom entries either). Error describes the first
  /// inconsistency found.
  core::Status ValidateIndexes() const;

  /// Test hook: mutable access to index `i` for fault-injection tests.
  TupleIndex* MutableIndexForTest(size_t i) {
    DYNFO_CHECK(i < indexes_.size());
    return indexes_[i].get();
  }

  /// All tuples in lexicographic order (deterministic).
  std::vector<Tuple> SortedTuples() const;

  /// The set difference against an older version of this relation:
  /// `added` receives this∖old, `removed` receives old∖this, both in
  /// lexicographic order (appended to the given vectors). When the two
  /// relations still share a base version — the incremental-checkpoint
  /// case, where `old` is the CoW copy taken at the last snapshot — the
  /// cost is O(overlay), independent of relation size; otherwise it falls
  /// back to a full O(|this| + |old|) scan.
  void DiffFrom(const Relation& old, std::vector<Tuple>* added,
                std::vector<Tuple>* removed) const;

  /// Set equality (arity and contents; backend choice, policy, and indexes
  /// are physical/derived state and do not participate).
  bool operator==(const Relation& other) const {
    if (arity_ != other.arity_ || size_ != other.size_) return false;
    if (base_ == other.base_ && dense_ == other.dense_ && added_.empty() &&
        other.added_.empty() && removed_.empty() && other.removed_.empty()) {
      return true;  // same version, trivially equal
    }
    for (const Tuple& t : *this) {
      if (!other.Contains(t)) return false;
    }
    return true;
  }
  bool operator!=(const Relation& other) const { return !(*this == other); }

  /// E.g. "{(0, 1), (1, 2)}".
  std::string ToString() const;

 private:
  /// Overlay writes are only worth folding away once they dominate probe and
  /// iteration cost; the slack keeps tiny relations from compacting eagerly.
  static constexpr size_t kCompactSlack = 64;

  const TupleSet& BaseOrEmpty() const {
    static const TupleSet* const kEmptySet = new TupleSet();
    return base_ != nullptr ? *base_ : *kEmptySet;
  }

  bool BaseContains(const Tuple& t) const {
    if (dense_ != nullptr) return dense_->Contains(t);
    return base_ != nullptr && base_->Contains(t);
  }

  size_t BaseSize() const {
    if (dense_ != nullptr) return dense_->size();
    return base_ != nullptr ? base_->size() : 0;
  }

  bool BaseShared() const {
    return (base_ != nullptr && base_.use_count() > 1) ||
           (dense_ != nullptr && dense_.use_count() > 1);
  }

  TupleSet& OwnedBase() {
    DYNFO_CHECK(dense_ == nullptr);
    if (base_ == nullptr) base_ = std::make_shared<TupleSet>();
    return *base_;
  }

  bool InsertTuple(const Tuple& t) {
    if (!BaseShared()) {
      if (!added_.empty() || !removed_.empty()) FlattenOverlay();
      if (dense_ != nullptr) return dense_->Insert(t);
      return OwnedBase().Insert(t);
    }
    if (removed_.Erase(t)) return true;  // resurrects a base tuple
    if (BaseContains(t)) return false;
    if (!added_.Insert(t)) return false;
    MaybeCompact();
    return true;
  }

  bool EraseTuple(const Tuple& t) {
    if (!BaseShared()) {
      if (!added_.empty() || !removed_.empty()) FlattenOverlay();
      if (dense_ != nullptr) return dense_->Erase(t);
      return base_ != nullptr && base_->Erase(t);
    }
    if (added_.Erase(t)) return true;
    if (!BaseContains(t) || !removed_.Insert(t)) return false;
    MaybeCompact();
    return true;
  }

  /// Folds the overlay into the base in place. Only legal while the base is
  /// uniquely owned (or absent): shared slots are never written.
  void FlattenOverlay() {
    if (dense_ != nullptr) {
      for (const Tuple& t : added_) dense_->Insert(t);
      for (const Tuple& t : removed_) dense_->Erase(t);
    } else {
      TupleSet& base = OwnedBase();
      for (const Tuple& t : added_) base.Insert(t);
      for (const Tuple& t : removed_) base.Erase(t);
    }
    added_.Clear();
    removed_.Clear();
  }

  /// Rebuilds a fresh private base from the logical contents once the
  /// overlay outgrows half the shared base — bounds per-probe overhead and
  /// amortizes the O(state) rebuild against the overlay writes that paid
  /// for it. Keeps the current backend kind.
  void MaybeCompact() {
    if (added_.size() + removed_.size() <= BaseSize() / 2 + kCompactSlack) {
      return;
    }
    if (dense_ != nullptr) {
      auto merged = std::make_shared<DenseSet>(DenseContents());
      dense_ = std::move(merged);
    } else {
      auto merged = std::make_shared<TupleSet>();
      merged->Reserve(base_->size() + added_.size());
      for (const Tuple& t : *this) merged->Insert(t);
      base_ = std::move(merged);
    }
    added_.Clear();
    removed_.Clear();
  }

  /// The backend the cost model wants for the current policy/size/universe.
  bool WantsDense() const;

  /// Rebuilds the base in the other physical form (contents preserved,
  /// overlay folded, indexes untouched — they are keyed on tuples, which do
  /// not change).
  void ConvertBackendInternal(bool to_dense);

  int arity_;
  /// Copy-on-write versioned storage (see class comment): at most one of
  /// base_ (hash) / dense_ (bitmap) is non-null — the active backend —
  /// immutable while shared, plus the private overlay diff. Invariant:
  /// the overlay is empty whenever both bases are null, added_ ∩ base = ∅,
  /// and removed_ ⊆ base. size_ caches |added| + |base| − |removed|.
  std::shared_ptr<TupleSet> base_;
  std::shared_ptr<DenseSet> dense_;
  TupleSet added_;
  TupleSet removed_;
  size_t size_ = 0;
  BackendPolicy policy_ = BackendPolicy::kHashOnly;
  size_t universe_ = 0;  ///< 0 = unknown (hash only)
  uint64_t conversions_ = 0;
  /// Lazily registered, incrementally maintained. Mutable because
  /// registration happens under const access during plan execution; guarded
  /// by index_mutex_ (see thread-safety note above). unique_ptr elements
  /// keep returned references stable across vector growth.
  mutable std::vector<std::unique_ptr<TupleIndex>> indexes_;
  mutable std::mutex index_mutex_;
};

}  // namespace dynfo::relational

#endif  // DYNFO_RELATIONAL_RELATION_H_
