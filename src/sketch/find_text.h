#ifndef HILLVIEW_SKETCH_FIND_TEXT_H_
#define HILLVIEW_SKETCH_FIND_TEXT_H_

#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "sketch/next_items.h"
#include "sketch/sketch.h"
#include "storage/column_storage.h"
#include "storage/row_order.h"
#include "util/serialize.h"

namespace hillview {

/// Free-form text search criteria (§3.3: "exact match, substring, regular
/// expressions, case sensitivity").
struct StringFilter {
  enum class Mode : uint8_t { kSubstring = 0, kExact = 1, kRegex = 2 };

  std::string text;
  Mode mode = Mode::kSubstring;
  bool case_sensitive = false;

  std::string ToString() const;
};

/// Compiled matcher for a StringFilter (regexes compile once per partition
/// scan, not per row). An invalid user-supplied regex never throws out of
/// the constructor: it surfaces as a non-OK status() — check it (or call
/// Validate first) before trusting Matches, which reports false for every
/// string under a failed compile.
class StringMatcher {
 public:
  explicit StringMatcher(const StringFilter& filter);
  bool Matches(std::string_view s) const;

  /// OK, or InvalidArgument describing the rejected pattern.
  const Status& status() const { return status_; }

  /// Validates a filter without keeping the compiled matcher: the up-front
  /// check API surfaces (FindText, FilterMatches) run before scanning.
  static Status Validate(const StringFilter& filter);

 private:
  StringFilter filter_;
  std::string lowered_text_;
  std::shared_ptr<const void> regex_;  // std::regex behind a type-erased ptr
  Status status_;
};

/// Below this dictionary size the chunking overhead (task allocation, latch
/// wakeups) exceeds the matching work; measured crossover is far lower, the
/// margin keeps small partitions strictly on the fast inline path. Callers
/// holding a lazy pool provider should consult this before asking for the
/// pool at all, so small dictionaries never spawn its threads.
inline constexpr size_t kParallelDictionaryThreshold = 4096;

/// The memoized per-code verdict table: Matches() evaluated once per
/// distinct dictionary entry. For large dictionaries (>=
/// kParallelDictionaryThreshold) the work is chunked across `pool` (when
/// non-null); entries are independent, so chunks write disjoint slots. This
/// is what makes regex search O(distinct strings), not O(rows), and
/// parallel on big dictionaries.
std::vector<uint8_t> MatchDictionary(const StringMatcher& matcher,
                                     const StringDictionary& dict,
                                     ThreadPool* pool = nullptr);

/// The "Find text" vizketch (§B.2): the first row matching the criteria
/// strictly after the start key in the sort order, plus match counts.
struct FindResult {
  /// Total matching rows in the searched data.
  int64_t match_count = 0;
  /// Matching rows at or before the start key (wrap-around support).
  int64_t matches_before = 0;
  /// Key (order-column cells) of the first match after the start key.
  std::optional<std::vector<Value>> first_match;

  bool IsZero() const {
    return match_count == 0 && matches_before == 0 && !first_match;
  }

  void Serialize(ByteWriter* w) const;
  static Status Deserialize(ByteReader* r, FindResult* out);
};

class FindTextSketch final : public Sketch<FindResult> {
 public:
  /// Searches `columns` (string columns; a row matches if any searched cell
  /// matches), ordered by `order` for "next" semantics.
  FindTextSketch(RecordOrder order, std::vector<std::string> columns,
                 StringFilter filter,
                 std::optional<std::vector<Value>> start_key)
      : order_(std::move(order)),
        columns_(std::move(columns)),
        filter_(std::move(filter)),
        start_key_(std::move(start_key)) {}

  std::string name() const override;
  FindResult Zero() const override { return {}; }
  FindResult Summarize(const Table& table, uint64_t seed) const override {
    return Summarize(table, seed, SketchContext{});
  }
  FindResult Summarize(const Table& table, uint64_t seed,
                       const SketchContext& context) const override;
  FindResult Merge(const FindResult& left,
                   const FindResult& right) const override;

 private:
  RecordOrder order_;
  std::vector<std::string> columns_;
  StringFilter filter_;
  std::optional<std::vector<Value>> start_key_;
};

}  // namespace hillview

#endif  // HILLVIEW_SKETCH_FIND_TEXT_H_
