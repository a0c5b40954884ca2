#include "sketch/next_items.h"

#include <algorithm>
#include <limits>

#include "storage/scan.h"
#include "storage/sort_key.h"
#include "storage/sort_key_cache.h"

namespace hillview {

void SerializeValue(const Value& v, ByteWriter* w) {
  if (std::holds_alternative<std::monostate>(v)) {
    w->WriteU8(0);
  } else if (const auto* i = std::get_if<int64_t>(&v)) {
    w->WriteU8(1);
    w->WriteI64(*i);
  } else if (const auto* d = std::get_if<double>(&v)) {
    w->WriteU8(2);
    w->WriteDouble(*d);
  } else {
    w->WriteU8(3);
    w->WriteString(std::get<std::string>(v));
  }
}

Status DeserializeValue(ByteReader* r, Value* out) {
  uint8_t tag = 0;
  HV_RETURN_IF_ERROR(r->ReadU8(&tag));
  switch (tag) {
    case 0:
      *out = std::monostate{};
      return Status::OK();
    case 1: {
      int64_t i = 0;
      HV_RETURN_IF_ERROR(r->ReadI64(&i));
      *out = i;
      return Status::OK();
    }
    case 2: {
      double d = 0;
      HV_RETURN_IF_ERROR(r->ReadDouble(&d));
      *out = d;
      return Status::OK();
    }
    case 3: {
      std::string s;
      HV_RETURN_IF_ERROR(r->ReadString(&s));
      *out = std::move(s);
      return Status::OK();
    }
    default:
      return Status::OutOfRange("bad Value tag");
  }
}

void RowSnapshot::Serialize(ByteWriter* w) const {
  w->WriteU32(static_cast<uint32_t>(values.size()));
  for (const auto& v : values) SerializeValue(v, w);
  w->WriteI64(count);
}

Status RowSnapshot::Deserialize(ByteReader* r, RowSnapshot* out) {
  uint32_t n = 0;
  HV_RETURN_IF_ERROR(r->ReadCount(&n, /*min_element_bytes=*/1));
  out->values.resize(n);
  for (auto& v : out->values) HV_RETURN_IF_ERROR(DeserializeValue(r, &v));
  return r->ReadI64(&out->count);
}

void NextItemsResult::Serialize(ByteWriter* w) const {
  w->WriteU32(static_cast<uint32_t>(rows.size()));
  for (const auto& row : rows) row.Serialize(w);
  w->WriteI64(rows_before);
}

Status NextItemsResult::Deserialize(ByteReader* r, NextItemsResult* out) {
  uint32_t n = 0;
  // Each row carries at least a value count (u32) and a duplicate count
  // (i64) on the wire.
  HV_RETURN_IF_ERROR(r->ReadCount(&n, /*min_element_bytes=*/12));
  out->rows.resize(n);
  for (auto& row : out->rows) {
    HV_RETURN_IF_ERROR(RowSnapshot::Deserialize(r, &row));
  }
  return r->ReadI64(&out->rows_before);
}

std::string NextItemsSketch::name() const {
  std::string n = "next-items(";
  for (const auto& o : order_.orientations()) {
    n += o.column;
    n += o.ascending ? "+" : "-";
  }
  n += ',';
  n += std::to_string(k_);
  n += ')';
  return n;
}

namespace {

/// Slots a top-K list can ever hold: the page plus one transient insert, and
/// never more than the member rows, so a page size of INT_MAX reserves only
/// what the view has.
size_t TopKSlots(int k, uint32_t member_rows) {
  return std::min<size_t>(static_cast<size_t>(k), member_rows) + 1;
}

/// Shared top-K state: distinct kept rows, sorted ascending under the order,
/// with counts. Invariant: a row enters only while it is among the K smallest
/// distinct rows seen so far; once evicted it can never re-enter, so the
/// counts of the finally-kept rows are exact.
struct TopKRows {
  std::vector<uint32_t> reps;
  std::vector<int64_t> counts;

  explicit TopKRows(size_t slots) {
    reps.reserve(slots);
    counts.reserve(slots);
  }
};

/// The virtual-comparator path, for scans with no cached keys that are too
/// sparse to pay for a key build (and for orders naming no known column).
void TopKVirtual(const Table& table, const RecordOrder& order,
                 const std::optional<std::vector<Value>>& start_key, int k,
                 TopKRows* top, NextItemsResult* result) {
  RowComparator comparator(table, order);
  std::optional<RowKeyComparator> start;
  if (start_key.has_value()) start.emplace(table, order, *start_key);
  auto& reps = top->reps;
  auto& counts = top->counts;
  ScanRows(*table.members(), 1.0, 0, [&](uint32_t row) {
    if (start.has_value() && start->Compare(row) <= 0) {
      ++result->rows_before;
      return;
    }
    // Position of the first rep >= row.
    auto it = std::lower_bound(
        reps.begin(), reps.end(), row,
        [&](uint32_t rep, uint32_t r) { return comparator.Compare(rep, r) < 0; });
    size_t pos = static_cast<size_t>(it - reps.begin());
    if (it != reps.end() && comparator.Compare(*it, row) == 0) {
      ++counts[pos];
      return;
    }
    if (static_cast<int>(reps.size()) < k) {
      reps.insert(it, row);
      counts.insert(counts.begin() + pos, 1);
      return;
    }
    if (pos < reps.size()) {
      reps.insert(it, row);
      counts.insert(counts.begin() + pos, 1);
      reps.pop_back();
      counts.pop_back();
    }
  });
}

/// The devirtualized fast path: a scan visitor over the materialized 64-bit
/// sort keys (single-column or packed two-column). One rule classifies every
/// member row by its key alone:
///
///   key <  below            the row precedes the start key: counted in
///                           rows_before, without a branch;
///   below <= key <= limit   a candidate for the slow path: the band
///                           re-compare against the start key, then the
///                           top-K insert;
///   key >  limit            rejected: the row follows a kept row.
///
/// `limit` is UINT64_MAX until K rows are kept, then the largest kept key.
/// The three start-key cases share the rule: no start key is below = 0 with
/// no start comparator; a start key that does not embed in the key space is
/// the band [0, UINT64_MAX]; any other is EncodeStartKey's band.
///
/// Invariants that make the rule exact:
///   - every kept key is >= below, because a kept row follows the start key;
///     so limit >= below, and `key - below <= limit - below` is the whole
///     candidate test in one unsigned compare;
///   - a row above limit needs no start compare, because it follows a kept
///     row and so the start key;
///   - limit only falls. A block's candidate word, built with the limit at
///     the block's start, is a superset of the true candidates, and the slow
///     path re-checks the current limit.
///
/// Candidates arrive in ascending row order, so the first row of an equal
/// group stays its representative.
class TopKKeyed {
 public:
  TopKKeyed(const Table& table, const RecordOrder& order,
            const SortKeyPlan& plan,
            const std::optional<std::vector<Value>>& start_key, int k,
            size_t slots, TopKRows* top)
      : cmp_(table, plan), k_(static_cast<size_t>(k)), top_(top) {
    rep_keys_.reserve(slots);
    if (start_key.has_value()) {
      start_.emplace(table, order, *start_key);
      auto band = plan.EncodeStartKey(*start_key);
      below_ = band.has_value() ? band->below : 0;
      above_ = band.has_value() ? band->above : kMaxKey;
    }
  }

  int64_t rows_before() const { return rows_before_; }

  void OnValue(uint32_t row, uint64_t key) {
    rows_before_ += key < below_;
    if (key - below_ <= limit_ - below_) Candidate(row, key);
  }

  /// Whole runs of member rows: each 64-row candidate word is built
  /// branch-free, then only its set bits take the slow path.
  void OnBlock(uint32_t base, const uint64_t* keys, uint32_t n) {
    uint32_t i = 0;
    for (; i + 64 <= n; i += 64) {
      uint64_t word = CandidateWord(keys + i);
      while (word != 0) {
        const uint32_t bit = static_cast<uint32_t>(__builtin_ctzll(word));
        Candidate(base + i + bit, keys[i + bit]);
        word &= word - 1;
      }
    }
    for (; i < n; ++i) OnValue(base + i, keys[i]);
  }

  /// Keys encode missing cells as ordinary words; the scan never calls this.
  void OnMissing(uint32_t) {}

 private:
  static constexpr uint64_t kMaxKey = std::numeric_limits<uint64_t>::max();

  uint64_t CandidateWord(const uint64_t* keys) {
    const uint64_t below = below_;
    const uint64_t span = limit_ - below_;
    uint64_t word = 0;
    uint32_t before = 0;
    for (uint32_t j = 0; j < 64; ++j) {
      before += keys[j] < below;
      word |= static_cast<uint64_t>(keys[j] - below <= span) << j;
    }
    rows_before_ += before;
    return word;
  }

  void Candidate(uint32_t row, uint64_t key) {
    if (key > limit_) return;  // the limit fell after the word was built
    if (key <= above_ && start_.has_value() && start_->Compare(row) <= 0) {
      ++rows_before_;
      return;
    }
    Insert(row, key);
  }

  /// First rep whose key is >= this row's, then a walk over the (short)
  /// equal-key run with the tie comparator to find an exact match or the
  /// insert slot.
  void Insert(uint32_t row, uint64_t key) {
    auto& reps = top_->reps;
    auto& counts = top_->counts;
    size_t pos = static_cast<size_t>(
        std::lower_bound(rep_keys_.begin(), rep_keys_.end(), key) -
        rep_keys_.begin());
    while (pos < reps.size() && rep_keys_[pos] == key) {
      int c = cmp_.Compare(reps[pos], row);
      if (c == 0) {
        ++counts[pos];
        return;
      }
      if (c > 0) break;
      ++pos;
    }
    if (reps.size() == k_ && pos == reps.size()) return;
    reps.insert(reps.begin() + pos, row);
    rep_keys_.insert(rep_keys_.begin() + pos, key);
    counts.insert(counts.begin() + pos, 1);
    if (reps.size() > k_) {
      reps.pop_back();
      rep_keys_.pop_back();
      counts.pop_back();
    }
    if (reps.size() == k_) limit_ = rep_keys_.back();
  }

  KeyComparator cmp_;
  size_t k_;
  TopKRows* top_;
  // Kept keys, parallel to reps, so the search and the limit read a dense
  // array instead of gathering through row ids.
  std::vector<uint64_t> rep_keys_;
  std::optional<RowKeyComparator> start_;
  uint64_t below_ = 0;
  uint64_t above_ = 0;
  uint64_t limit_ = kMaxKey;
  int64_t rows_before_ = 0;
};

}  // namespace

NextItemsResult NextItemsSketch::Summarize(const Table& table, uint64_t seed,
                                           const SketchContext& context) const {
  (void)seed;
  NextItemsResult result;
  if (k_ <= 0) return result;

  const size_t slots = TopKSlots(k_, table.num_rows());
  TopKRows top(slots);
  if (std::optional<SortKeyPlan> plan =
          KeyedPlan(context.key_cache, table, order_, table.num_rows())) {
    TopKKeyed visitor(table, order_, *plan, start_key_, k_, slots, &top);
    ScanArray(plan->keys().data(), *table.members(), visitor);
    result.rows_before = visitor.rows_before();
  } else {
    TopKVirtual(table, order_, start_key_, k_, &top, &result);
  }
  auto& reps = top.reps;
  auto& counts = top.counts;

  // Materialize the kept rows.
  std::vector<std::string> all_columns = order_.ColumnNames();
  all_columns.insert(all_columns.end(), display_columns_.begin(),
                     display_columns_.end());
  result.rows.reserve(reps.size());
  for (size_t i = 0; i < reps.size(); ++i) {
    RowSnapshot snap;
    snap.values = table.GetRow(reps[i], all_columns);
    snap.count = counts[i];
    result.rows.push_back(std::move(snap));
  }
  return result;
}

NextItemsResult NextItemsSketch::Merge(const NextItemsResult& left,
                                       const NextItemsResult& right) const {
  NextItemsResult out;
  out.rows_before = left.rows_before + right.rows_before;
  out.rows.reserve(std::min<size_t>(left.rows.size() + right.rows.size(), k_));
  size_t i = 0, j = 0;
  while (static_cast<int>(out.rows.size()) < k_ &&
         (i < left.rows.size() || j < right.rows.size())) {
    if (i == left.rows.size()) {
      out.rows.push_back(right.rows[j++]);
      continue;
    }
    if (j == right.rows.size()) {
      out.rows.push_back(left.rows[i++]);
      continue;
    }
    int c = CompareKeyCells(order_, left.rows[i].values, right.rows[j].values);
    if (c < 0) {
      out.rows.push_back(left.rows[i++]);
    } else if (c > 0) {
      out.rows.push_back(right.rows[j++]);
    } else {
      RowSnapshot combined = left.rows[i++];
      combined.count += right.rows[j++].count;
      out.rows.push_back(std::move(combined));
    }
  }
  return out;
}

}  // namespace hillview
