#include "storage/row_order.h"

namespace hillview {

int CompareKeyCells(const RecordOrder& order, const std::vector<Value>& a,
                    const std::vector<Value>& b) {
  const auto& orientations = order.orientations();
  for (size_t i = 0; i < orientations.size() && i < a.size() && i < b.size();
       ++i) {
    int c = CompareValues(a[i], b[i]);
    if (c != 0) return orientations[i].ascending ? c : -c;
  }
  return 0;
}

RowComparator::RowComparator(const Table& table, const RecordOrder& order) {
  for (const auto& o : order.orientations()) {
    ColumnPtr col = table.GetColumnOrNull(o.column);
    if (col == nullptr) continue;  // Unknown columns are ignored.
    columns_.push_back(col.get());
    ascending_.push_back(o.ascending);
  }
}

int RowComparator::Compare(uint32_t a, uint32_t b) const {
  for (size_t i = 0; i < columns_.size(); ++i) {
    int c = columns_[i]->CompareRows(a, b);
    if (c != 0) return ascending_[i] ? c : -c;
  }
  return 0;
}

RowKeyComparator::RowKeyComparator(const Table& table,
                                   const RecordOrder& order,
                                   const std::vector<Value>& key) {
  const auto& orientations = order.orientations();
  for (size_t i = 0; i < orientations.size() && i < key.size(); ++i) {
    ColumnPtr col = table.GetColumnOrNull(orientations[i].column);
    if (col == nullptr) continue;
    cells_.push_back({col.get(), key[i], orientations[i].ascending});
  }
}

int RowKeyComparator::Compare(uint32_t row) const {
  for (const BoundCell& b : cells_) {
    int c = CompareValues(b.column->GetValue(row), b.cell);
    if (c != 0) return b.ascending ? c : -c;
  }
  return 0;
}

}  // namespace hillview
