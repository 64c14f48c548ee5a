/// \file named_relation.h
/// Intermediate results of set-based formula evaluation.
///
/// A NamedRelation is a set of rows over *named* columns (variable names) —
/// the working representation of the algebra evaluator, like an intermediate
/// result in a relational query plan. Unlike relational::Relation, rows may
/// be wider than Tuple::kMaxArity (joins accumulate columns).

#ifndef DYNFO_FO_NAMED_RELATION_H_
#define DYNFO_FO_NAMED_RELATION_H_

#include <string>
#include <unordered_set>
#include <vector>

#include "core/cancel.h"
#include "core/check.h"
#include "core/small_vector.h"
#include "relational/tuple.h"

namespace dynfo::fo {

/// Intermediate rows use small-buffer storage: up to 8 variables live inline
/// with no heap traffic (the paper's update formulas use ≤ 8 variables; wider
/// joins spill to the heap transparently). See core/small_vector.h.
using Row = core::SmallVector<relational::Element, 8>;

struct RowHash {
  size_t operator()(const Row& row) const {
    uint64_t h = 0x9e3779b97f4a7c15ULL ^ row.size();
    for (relational::Element e : row) {
      h ^= e + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
      h *= 0xff51afd7ed558ccdULL;
      h ^= h >> 33;
    }
    return static_cast<size_t>(h);
  }
};

using RowSet = std::unordered_set<Row, RowHash>;

/// A deduplicated set of rows over named columns. Column names are distinct.
class NamedRelation {
 public:
  /// An empty-schema relation containing one empty row: the identity of the
  /// natural join, i.e. "true".
  static NamedRelation Unit() {
    NamedRelation unit({});
    unit.rows_.insert(Row{});
    return unit;
  }

  /// No rows over the given columns: "false".
  explicit NamedRelation(std::vector<std::string> columns);

  const std::vector<std::string>& columns() const { return columns_; }
  int width() const { return static_cast<int>(columns_.size()); }
  size_t size() const { return rows_.size(); }
  bool empty() const { return rows_.empty(); }
  const RowSet& rows() const { return rows_; }

  /// Index of a column, or -1.
  int ColumnIndex(const std::string& name) const;

  /// Adds a row (width must match). Returns true if newly inserted.
  bool AddRow(Row row);

  /// Natural join on the shared columns (cross product when none shared).
  /// Governed callers pass their governor: the probe loop over *this polls
  /// it every core::kGovernorStride rows and stops early on a trip, as do
  /// SemiJoin's probe loop and ComplementWithin's grid scan.
  NamedRelation Join(const NamedRelation& other,
                     const core::ExecGovernor* governor = nullptr) const;

  /// Semi-join: rows of *this matching some row of `other` on the shared
  /// columns. Requires other's columns ⊆ this's columns.
  NamedRelation SemiJoin(const NamedRelation& other, bool anti,
                         const core::ExecGovernor* governor = nullptr) const;

  /// Rows of the full universe^k not in *this.
  NamedRelation ComplementWithin(size_t n,
                                 const core::ExecGovernor* governor = nullptr) const;

  /// Extends with new columns ranging over the whole universe (cross
  /// product). New columns must be fresh. The output has |this| * n^new
  /// rows, so governed callers pass their governor: the odometer polls it
  /// every core::kGovernorStride emitted rows and stops early on a trip.
  NamedRelation PadWithUniverse(const std::vector<std::string>& new_columns,
                                size_t n,
                                const core::ExecGovernor* governor = nullptr) const;

  /// Reorders columns to `order` (a permutation of columns()).
  NamedRelation Reorder(const std::vector<std::string>& order) const;

  std::string ToString() const;

 private:
  std::vector<std::string> columns_;
  RowSet rows_;
};

}  // namespace dynfo::fo

#endif  // DYNFO_FO_NAMED_RELATION_H_
