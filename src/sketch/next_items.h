#ifndef HILLVIEW_SKETCH_NEXT_ITEMS_H_
#define HILLVIEW_SKETCH_NEXT_ITEMS_H_

#include <optional>
#include <string>
#include <vector>

#include "sketch/sketch.h"
#include "storage/row_order.h"
#include "util/serialize.h"

namespace hillview {

/// One distinct row of the tabular view: the cells of the sort-order columns
/// (the comparison key) followed by any extra display columns, plus the
/// number of duplicate rows it represents (§3.3: "Aggregate duplicates and
/// show repetition counts").
///
/// Contract note: the key cells and the count are exact and shard-split
/// invariant; the display cells come from *one representative* of the
/// duplicate group (rows equal under the sort order may differ in display
/// columns), and which representative survives depends on the merge order.
struct RowSnapshot {
  std::vector<Value> values;
  int64_t count = 1;

  void Serialize(ByteWriter* w) const;
  static Status Deserialize(ByteReader* r, RowSnapshot* out);
};

/// Serialization helpers for Value shared by row-shaped summaries.
void SerializeValue(const Value& v, ByteWriter* w);
Status DeserializeValue(ByteReader* r, Value* out);

/// The K distinct rows following the start key in the sort order, each with
/// its duplicate count. Sorted ascending under the order.
struct NextItemsResult {
  std::vector<RowSnapshot> rows;
  /// Number of member rows at or before the start key (exclusive); drives
  /// the scroll-bar position indicator.
  int64_t rows_before = 0;

  bool IsZero() const { return rows.empty() && rows_before == 0; }

  void Serialize(ByteWriter* w) const;
  static Status Deserialize(ByteReader* r, NextItemsResult* out);
};

/// The "Next items" vizketch (§4.3): renders a page of the tabular view.
/// Summarize scans a partition keeping the K smallest distinct rows strictly
/// greater than the start key; Merge merges two such lists keeping the K
/// smallest (the paper's priority-heap description, generalized with
/// duplicate counts like the Java NextKSketch).
class NextItemsSketch final : public Sketch<NextItemsResult> {
 public:
  /// `order` defines the comparison key; `display_columns` are extra columns
  /// materialized into the snapshots (not compared). `start_key` holds cell
  /// values for the order columns; rows <= start_key are skipped (nullopt
  /// starts at the beginning, the paper's R = ⊥).
  NextItemsSketch(RecordOrder order, std::vector<std::string> display_columns,
                  std::optional<std::vector<Value>> start_key, int k)
      : order_(std::move(order)),
        display_columns_(std::move(display_columns)),
        start_key_(std::move(start_key)),
        k_(k) {}

  std::string name() const override;
  NextItemsResult Zero() const override { return {}; }
  NextItemsResult Summarize(const Table& table, uint64_t seed) const override {
    return Summarize(table, seed, SketchContext{});
  }
  /// Context-aware path: reuses the worker's sort-key cache when one is
  /// provided, so repeated scrolls of the same (table, order) view skip the
  /// O(universe) key-extraction pass.
  NextItemsResult Summarize(const Table& table, uint64_t seed,
                            const SketchContext& context) const override;
  NextItemsResult Merge(const NextItemsResult& left,
                        const NextItemsResult& right) const override;

  /// Number of key (sort-order) columns at the front of each snapshot.
  int num_key_columns() const {
    return static_cast<int>(order_.orientations().size());
  }

 private:
  RecordOrder order_;
  std::vector<std::string> display_columns_;
  std::optional<std::vector<Value>> start_key_;
  int k_;
};

}  // namespace hillview

#endif  // HILLVIEW_SKETCH_NEXT_ITEMS_H_
