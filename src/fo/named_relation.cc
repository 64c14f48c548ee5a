#include "fo/named_relation.h"

#include <algorithm>
#include <limits>
#include <unordered_map>

#include "core/cancel.h"

namespace dynfo::fo {

namespace {

/// Hash map from a join key (a projected row) to the rows carrying it.
using KeyIndex = std::unordered_map<Row, std::vector<const Row*>, RowHash>;

Row ProjectRow(const Row& row, const std::vector<int>& positions) {
  Row out;
  out.reserve(positions.size());
  for (int p : positions) out.push_back(row[p]);
  return out;
}

}  // namespace

NamedRelation::NamedRelation(std::vector<std::string> columns)
    : columns_(std::move(columns)) {
  for (size_t i = 0; i < columns_.size(); ++i) {
    for (size_t j = i + 1; j < columns_.size(); ++j) {
      DYNFO_CHECK(columns_[i] != columns_[j]) << "duplicate column " << columns_[i];
    }
  }
}

int NamedRelation::ColumnIndex(const std::string& name) const {
  for (size_t i = 0; i < columns_.size(); ++i) {
    if (columns_[i] == name) return static_cast<int>(i);
  }
  return -1;
}

bool NamedRelation::AddRow(Row row) {
  DYNFO_CHECK(row.size() == columns_.size()) << "row width mismatch";
  return rows_.insert(std::move(row)).second;
}

NamedRelation NamedRelation::Join(const NamedRelation& other,
                                  const core::ExecGovernor* governor) const {
  // Shared columns, and the positions of other's non-shared columns.
  std::vector<int> left_key;
  std::vector<int> right_key;
  std::vector<int> right_extra;
  std::vector<std::string> out_columns = columns_;
  for (size_t j = 0; j < other.columns_.size(); ++j) {
    int left_index = ColumnIndex(other.columns_[j]);
    if (left_index >= 0) {
      left_key.push_back(left_index);
      right_key.push_back(static_cast<int>(j));
    } else {
      right_extra.push_back(static_cast<int>(j));
      out_columns.push_back(other.columns_[j]);
    }
  }

  NamedRelation out(out_columns);
  // Build the hash index on the smaller side by key; probe with the other.
  // For simplicity we always index `other` (callers put the smaller relation
  // second when they care; sizes here are modest).
  KeyIndex index;
  index.reserve(other.rows_.size());
  for (const Row& row : other.rows_) {
    index[ProjectRow(row, right_key)].push_back(&row);
  }

  size_t polls = 0;
  for (const Row& row : rows_) {
    if (core::StridedStop(governor, &polls)) break;
    auto it = index.find(ProjectRow(row, left_key));
    if (it == index.end()) continue;
    for (const Row* match : it->second) {
      Row combined = row;
      combined.reserve(row.size() + right_extra.size());
      for (int p : right_extra) combined.push_back((*match)[p]);
      out.rows_.insert(std::move(combined));
    }
  }
  return out;
}

NamedRelation NamedRelation::SemiJoin(const NamedRelation& other, bool anti,
                                      const core::ExecGovernor* governor) const {
  std::vector<int> left_key;
  std::vector<int> right_key;
  for (size_t j = 0; j < other.columns_.size(); ++j) {
    int left_index = ColumnIndex(other.columns_[j]);
    DYNFO_CHECK(left_index >= 0)
        << "semi-join filter has column " << other.columns_[j] << " not in the input";
    left_key.push_back(left_index);
    right_key.push_back(static_cast<int>(j));
  }
  RowSet keys;
  keys.reserve(other.rows_.size());
  for (const Row& row : other.rows_) keys.insert(ProjectRow(row, right_key));

  NamedRelation out(columns_);
  size_t polls = 0;
  for (const Row& row : rows_) {
    if (core::StridedStop(governor, &polls)) break;
    bool match = keys.find(ProjectRow(row, left_key)) != keys.end();
    if (match != anti) out.rows_.insert(row);
  }
  return out;
}

NamedRelation NamedRelation::ComplementWithin(size_t n,
                                              const core::ExecGovernor* governor) const {
  NamedRelation out(columns_);
  const int k = width();
  uint64_t total = 1;
  for (int i = 0; i < k; ++i) {
    DYNFO_CHECK(total <= std::numeric_limits<uint64_t>::max() / n)
        << "complement grid overflow";
    total *= n;
  }

  // Odometer over the n^k grid, most-significant column first.
  Row row(k, 0);
  size_t polls = 0;
  for (uint64_t code = 0; code < total; ++code) {
    if (core::StridedStop(governor, &polls)) break;
    if (rows_.find(row) == rows_.end()) out.rows_.insert(row);
    int i = k - 1;
    while (i >= 0 && row[i] + 1 == n) {
      row[i] = 0;
      --i;
    }
    if (i >= 0) ++row[i];
  }
  return out;
}

NamedRelation NamedRelation::PadWithUniverse(const std::vector<std::string>& new_columns,
                                             size_t n,
                                             const core::ExecGovernor* governor) const {
  if (new_columns.empty()) return *this;
  std::vector<std::string> out_columns = columns_;
  for (const std::string& name : new_columns) {
    DYNFO_CHECK(ColumnIndex(name) < 0) << "padding with existing column " << name;
    out_columns.push_back(name);
  }
  NamedRelation out(out_columns);
  const int extra = static_cast<int>(new_columns.size());
  size_t polls = 0;
  for (const Row& base : rows_) {
    if (core::StridedStop(governor, &polls)) break;
    Row row = base;
    row.resize(base.size() + extra, 0);
    while (true) {
      if (core::StridedStop(governor, &polls)) break;
      out.rows_.insert(row);
      int i = static_cast<int>(row.size()) - 1;
      while (i >= static_cast<int>(base.size()) && row[i] + 1 == n) {
        row[i] = 0;
        --i;
      }
      if (i < static_cast<int>(base.size())) break;
      ++row[i];
    }
  }
  return out;
}

NamedRelation NamedRelation::Reorder(const std::vector<std::string>& order) const {
  DYNFO_CHECK(order.size() == columns_.size()) << "reorder is not a permutation";
  std::vector<int> positions;
  positions.reserve(order.size());
  for (const std::string& name : order) {
    int index = ColumnIndex(name);
    DYNFO_CHECK(index >= 0) << "reorder is not a permutation: missing " << name;
    positions.push_back(index);
  }
  NamedRelation out(order);
  for (const Row& row : rows_) out.rows_.insert(ProjectRow(row, positions));
  return out;
}

std::string NamedRelation::ToString() const {
  std::string s = "[";
  for (size_t i = 0; i < columns_.size(); ++i) {
    if (i > 0) s += ", ";
    s += columns_[i];
  }
  s += "] x " + std::to_string(rows_.size()) + " rows";
  return s;
}

}  // namespace dynfo::fo
