#ifndef HILLVIEW_STORAGE_ROW_ORDER_H_
#define HILLVIEW_STORAGE_ROW_ORDER_H_

#include <string>
#include <vector>

#include "storage/table.h"

namespace hillview {

/// One column of a sort order (§3.3: "Sort by a set of columns").
struct ColumnSortOrientation {
  std::string column;
  bool ascending = true;
};

/// A lexicographic sort order over several columns. Rows are totally ordered
/// by appending the physical row id as the final tiebreaker, which makes
/// next-items pagination deterministic across runs and replays.
class RecordOrder {
 public:
  RecordOrder() = default;
  explicit RecordOrder(std::vector<ColumnSortOrientation> orientations)
      : orientations_(std::move(orientations)) {}

  const std::vector<ColumnSortOrientation>& orientations() const {
    return orientations_;
  }

  std::vector<std::string> ColumnNames() const {
    std::vector<std::string> names;
    names.reserve(orientations_.size());
    for (const auto& o : orientations_) names.push_back(o.column);
    return names;
  }

  bool empty() const { return orientations_.empty(); }

 private:
  std::vector<ColumnSortOrientation> orientations_;
};

/// Three-way comparison of two materialized keys (cell values indexed like
/// the order's orientations) by CompareValues, cell by cell, each in its
/// orientation's direction. Cells beyond either key are not compared. The
/// next-items and find-text merges order their keys by it, and it is the
/// reference order the quantile summary's column-wise compares are tested
/// against.
int CompareKeyCells(const RecordOrder& order, const std::vector<Value>& a,
                    const std::vector<Value>& b);

/// Compares rows of one table under a RecordOrder. Binds the column pointers
/// once so the per-comparison work is just virtual CompareRows calls.
class RowComparator {
 public:
  RowComparator(const Table& table, const RecordOrder& order);

  /// Three-way comparison of two member rows (no tiebreaker).
  int Compare(uint32_t a, uint32_t b) const;

  /// Strict weak ordering with the row-id tiebreaker.
  bool Less(uint32_t a, uint32_t b) const {
    int c = Compare(a, b);
    if (c != 0) return c < 0;
    return a < b;
  }

 private:
  std::vector<const IColumn*> columns_;
  std::vector<bool> ascending_;
};

/// Compares table rows against a materialized key (cell values in the sort
/// order's column sequence). Used by next-items and find-text to resume after
/// row R, whose cells arrive from the client as values, not row ids. Binds
/// the columns once per scan, as RowComparator does; a key cell whose column
/// the table lacks is ignored.
class RowKeyComparator {
 public:
  RowKeyComparator(const Table& table, const RecordOrder& order,
                   const std::vector<Value>& key);

  /// Three-way comparison of a member row against the key.
  int Compare(uint32_t row) const;

 private:
  struct BoundCell {
    const IColumn* column;
    Value cell;
    bool ascending;
  };
  std::vector<BoundCell> cells_;
};

}  // namespace hillview

#endif  // HILLVIEW_STORAGE_ROW_ORDER_H_
