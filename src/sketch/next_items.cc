#include "sketch/next_items.h"

#include <algorithm>

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

int NextItemsSketch::CompareKeys(const std::vector<Value>& a,
                                 const std::vector<Value>& b) const {
  const auto& orientations = order_.orientations();
  for (size_t i = 0; i < orientations.size(); ++i) {
    int c = CompareValues(a[i], b[i]);
    if (c != 0) return orientations[i].ascending ? c : -c;
  }
  return 0;
}

namespace {

/// Shared top-K state: distinct kept rows, sorted ascending under the order,
/// with counts. Invariant: a row enters only while it is among the K smallest
/// distinct rows seen so far; once evicted it can never re-enter, so the
/// counts of the finally-kept rows are exact.
struct TopKRows {
  std::vector<uint32_t> reps;
  std::vector<int64_t> counts;

  explicit TopKRows(int k) {
    reps.reserve(k + 1);
    counts.reserve(k + 1);
  }
};

/// The virtual-comparator fallback, used when the first order column has no
/// raw layout to extract keys from.
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

/// The devirtualized fast path: rows order by a materialized 64-bit key
/// (single-column or packed two-column) and most rows are rejected with one
/// integer comparison against the largest kept key. Virtual comparisons run
/// only on key ties (deep multi-column orders, inexact encodings) and on
/// start-key boundary rows.
void TopKKeyed(const Table& table, const RecordOrder& order,
               const SortKeyPlan& plan,
               const std::optional<std::vector<Value>>& start_key, int k,
               TopKRows* top, NextItemsResult* result) {
  KeyComparator cmp(table, plan);
  const uint64_t* keys = plan.keys().data();
  auto& reps = top->reps;
  auto& counts = top->counts;
  // Kept keys, parallel to reps, so the common reject/search paths touch a
  // dense array instead of gathering through row ids.
  std::vector<uint64_t> rep_keys;
  rep_keys.reserve(k + 1);

  // Start-key band: rows whose key is below it are before the start key
  // with certainty, rows above it are after with certainty; only rows whose
  // key lands inside the band need the full value comparison. Exact
  // single-column encodings collapse the band to one key.
  std::optional<RowKeyComparator> start;
  std::optional<SortKeyPlan::StartKeyBand> band;
  if (start_key.has_value()) {
    start.emplace(table, order, *start_key);
    band = plan.EncodeStartKey(*start_key);
  }

  ScanRows(*table.members(), 1.0, 0, [&](uint32_t row) {
    uint64_t key = keys[row];
    if (start.has_value()) {
      if (band.has_value()) {
        if (key < band->below) {
          ++result->rows_before;
          return;
        }
        if (key <= band->above && start->Compare(row) <= 0) {
          ++result->rows_before;
          return;
        }
      } else if (start->Compare(row) <= 0) {
        ++result->rows_before;
        return;
      }
    }
    if (static_cast<int>(reps.size()) == k && key > rep_keys.back()) {
      return;  // beyond the K smallest: the hot reject in a sorted scroll
    }
    // First rep whose key is >= this row's, then walk the (short) equal-key
    // run with the tie comparator to find an exact match or the insert slot.
    size_t pos = static_cast<size_t>(
        std::lower_bound(rep_keys.begin(), rep_keys.end(), key) -
        rep_keys.begin());
    while (pos < reps.size() && rep_keys[pos] == key) {
      int c = cmp.Compare(reps[pos], row);
      if (c == 0) {
        ++counts[pos];
        return;
      }
      if (c > 0) break;
      ++pos;
    }
    if (static_cast<int>(reps.size()) == k && pos == reps.size()) return;
    reps.insert(reps.begin() + pos, row);
    rep_keys.insert(rep_keys.begin() + pos, key);
    counts.insert(counts.begin() + pos, 1);
    if (static_cast<int>(reps.size()) > k) {
      reps.pop_back();
      rep_keys.pop_back();
      counts.pop_back();
    }
  });
}

}  // namespace

NextItemsResult NextItemsSketch::Summarize(const Table& table, uint64_t seed,
                                           const SketchContext& context) const {
  (void)seed;
  NextItemsResult result;
  if (k_ <= 0) return result;

  TopKRows top(k_);
  // The keyed path materializes keys for the whole universe, so a cold build
  // only pays off on dense-enough tables (KeyedScanProfitable). Keys already
  // resident in the worker's sort-key cache are free, so a cache hit takes
  // the keyed path regardless of density. With neither a cache nor a
  // profitable build, skip even planning: its encoding pre-passes read
  // O(universe) on narrow-column orders.
  bool keyed = false;
  SortKeyCache* cache = context.key_cache ? context.key_cache() : nullptr;
  const bool profitable =
      KeyedScanProfitable(table.num_rows(), table.universe_size());
  if (cache != nullptr || profitable) {
    SortKeyPlan plan(table, order_, SortKeyPlan::kDeferKeys);
    SortKeyPlan::KeysPtr keys =
        GetOrBuildKeys(cache, plan, /*build_allowed=*/profitable);
    if (keys != nullptr) {
      plan.AdoptKeys(std::move(keys));
      TopKKeyed(table, order_, plan, start_key_, k_, &top, &result);
      keyed = true;
    }
  }
  if (!keyed) {
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
    int c = CompareKeys(left.rows[i].values, right.rows[j].values);
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
