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

/// Snapshot of a row set as a contiguous, partitionable array. The set is
/// not mutated while chunks read through the pointers.
std::vector<const Row*> GatherRows(const RowSet& rows) {
  std::vector<const Row*> out;
  out.reserve(rows.size());
  for (const Row& row : rows) out.push_back(&row);
  return out;
}

/// Strided governor poll for the single-chunk (sequential) operator paths;
/// the parallel paths are governed at chunk claims by the thread pool.
bool StridedStop(const core::ExecGovernor* governor, size_t* counter) {
  if (governor == nullptr) return false;
  return ((*counter)++ % core::kGovernorStride) == 0 && governor->ShouldStop();
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
                                  const core::ParallelOptions& parallel) const {
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

  auto probe_one = [&](const Row& row, std::vector<Row>* sink) {
    auto it = index.find(ProjectRow(row, left_key));
    if (it == index.end()) return;
    for (const Row* match : it->second) {
      Row combined = row;
      combined.reserve(row.size() + right_extra.size());
      for (int p : right_extra) combined.push_back((*match)[p]);
      sink->push_back(std::move(combined));
    }
  };

  core::ThreadPool& pool = core::ThreadPool::Global();
  const size_t num_chunks = pool.PlanChunks(0, rows_.size(), parallel);
  if (num_chunks <= 1) {
    std::vector<Row> matches;
    size_t polls = 0;
    for (const Row& row : rows_) {
      if (StridedStop(parallel.governor, &polls)) break;
      matches.clear();
      probe_one(row, &matches);
      for (Row& combined : matches) out.rows_.insert(std::move(combined));
    }
    return out;
  }

  // Partition the probe side; the index is read-only during the scan.
  std::vector<const Row*> probe = GatherRows(rows_);
  std::vector<std::vector<Row>> buffers(num_chunks);
  pool.ParallelFor(0, probe.size(), parallel,
                   [&](size_t chunk, size_t chunk_begin, size_t chunk_end) {
                     std::vector<Row>& buffer = buffers[chunk];
                     for (size_t i = chunk_begin; i < chunk_end; ++i) {
                       probe_one(*probe[i], &buffer);
                     }
                   });
  for (std::vector<Row>& buffer : buffers) {
    for (Row& combined : buffer) out.rows_.insert(std::move(combined));
  }
  return out;
}

NamedRelation NamedRelation::SemiJoin(const NamedRelation& other, bool anti,
                                      const core::ParallelOptions& parallel) const {
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
  core::ThreadPool& pool = core::ThreadPool::Global();
  const size_t num_chunks = pool.PlanChunks(0, rows_.size(), parallel);
  if (num_chunks <= 1) {
    size_t polls = 0;
    for (const Row& row : rows_) {
      if (StridedStop(parallel.governor, &polls)) break;
      bool match = keys.find(ProjectRow(row, left_key)) != keys.end();
      if (match != anti) out.rows_.insert(row);
    }
    return out;
  }

  std::vector<const Row*> probe = GatherRows(rows_);
  std::vector<std::vector<const Row*>> buffers(num_chunks);
  pool.ParallelFor(0, probe.size(), parallel,
                   [&](size_t chunk, size_t chunk_begin, size_t chunk_end) {
                     std::vector<const Row*>& buffer = buffers[chunk];
                     for (size_t i = chunk_begin; i < chunk_end; ++i) {
                       bool match =
                           keys.find(ProjectRow(*probe[i], left_key)) != keys.end();
                       if (match != anti) buffer.push_back(probe[i]);
                     }
                   });
  for (const std::vector<const Row*>& buffer : buffers) {
    for (const Row* row : buffer) out.rows_.insert(*row);
  }
  return out;
}

NamedRelation NamedRelation::ComplementWithin(size_t n,
                                              const core::ParallelOptions& parallel) const {
  NamedRelation out(columns_);
  const int k = width();
  uint64_t total = 1;
  for (int i = 0; i < k; ++i) {
    DYNFO_CHECK(total <= std::numeric_limits<uint64_t>::max() / n)
        << "complement grid overflow";
    total *= n;
  }

  // Decodes grid index `code` into the mixed-radix row (most-significant
  // column first, matching the sequential odometer's order).
  auto decode = [&](uint64_t code, Row* row) {
    for (int i = k - 1; i >= 0; --i) {
      (*row)[i] = static_cast<relational::Element>(code % n);
      code /= n;
    }
  };
  auto scan = [&](uint64_t chunk_begin, uint64_t chunk_end, auto&& emit) {
    Row row(k, 0);
    decode(chunk_begin, &row);
    size_t polls = 0;
    for (uint64_t code = chunk_begin; code < chunk_end; ++code) {
      if (StridedStop(parallel.governor, &polls)) break;
      if (rows_.find(row) == rows_.end()) emit(row);
      int i = k - 1;
      while (i >= 0 && row[i] + 1 == n) {
        row[i] = 0;
        --i;
      }
      if (i >= 0) ++row[i];
    }
  };

  core::ThreadPool& pool = core::ThreadPool::Global();
  const size_t num_chunks = pool.PlanChunks(0, total, parallel);
  if (num_chunks <= 1) {
    scan(0, total, [&](const Row& row) { out.rows_.insert(row); });
    return out;
  }
  std::vector<std::vector<Row>> buffers(num_chunks);
  pool.ParallelFor(0, total, parallel,
                   [&](size_t chunk, size_t chunk_begin, size_t chunk_end) {
                     std::vector<Row>& buffer = buffers[chunk];
                     scan(chunk_begin, chunk_end,
                          [&](const Row& row) { buffer.push_back(row); });
                   });
  for (std::vector<Row>& buffer : buffers) {
    for (Row& row : buffer) out.rows_.insert(std::move(row));
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
    if (StridedStop(governor, &polls)) break;
    Row row = base;
    row.resize(base.size() + extra, 0);
    while (true) {
      if (StridedStop(governor, &polls)) break;
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
