// Reproduces the §7.2.1 single-thread microbenchmark table:
//
//     Method            Time (ms)
//     streaming         527
//     sampling          197
//     database system   5,830
//
// on 100M rows in the paper (scaled down here; set HILLVIEW_BENCH_SCALE to
// grow). The claims under test: the sampled vizketch beats the streaming one
// by sampling a display-derived row subset, and both beat a general-purpose
// in-memory DB by an order of magnitude (the DB pays per-tuple MVCC checks
// and index pointer chases).

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <limits>
#include <memory>
#include <optional>

#include "baseline/indexed_db.h"
#include "sketch/find_text.h"
#include "sketch/histogram.h"
#include "sketch/next_items.h"
#include "sketch/sample_size.h"
#include "storage/scan.h"
#include "storage/sort_key_cache.h"
#include "storage/table.h"
#include "util/random.h"

namespace hillview {
namespace {

constexpr uint32_t kRows = 20'000'000;
// Display geometry of the measured histogram: 25 bars, 100px tall, δ=0.1.
constexpr int kBuckets = 25;
constexpr int kHeightPx = 100;
constexpr double kDelta = 0.1;

TablePtr MakeData() {
  static TablePtr table = [] {
    Random rng(0xBE7C);
    std::vector<double> values(kRows);
    for (auto& v : values) v = rng.NextDouble() * 1000.0;
    ColumnBuilder b(DataKind::kDouble);
    for (double v : values) b.AppendDouble(v);
    return Table::Create(Schema({{"x", DataKind::kDouble}}), {b.Finish()});
  }();
  return table;
}

void BM_StreamingHistogramVizketch(benchmark::State& state) {
  TablePtr t = MakeData();
  StreamingHistogramSketch sketch("x",
                                  Buckets(NumericBuckets(0, 1000, kBuckets)));
  for (auto _ : state) {
    HistogramResult r = sketch.Summarize(*t, 0);
    benchmark::DoNotOptimize(r.counts.data());
  }
  state.SetItemsProcessed(state.iterations() * kRows);
}
BENCHMARK(BM_StreamingHistogramVizketch)->Unit(benchmark::kMillisecond);

void BM_SampledHistogramVizketch(benchmark::State& state) {
  TablePtr t = MakeData();
  double rate =
      SampleRateForSize(HistogramSampleSize(kHeightPx, kBuckets, kDelta),
                        kRows);
  SampledHistogramSketch sketch(
      "x", Buckets(NumericBuckets(0, 1000, kBuckets)), rate);
  uint64_t seed = 1;
  for (auto _ : state) {
    HistogramResult r = sketch.Summarize(*t, seed++);
    benchmark::DoNotOptimize(r.counts.data());
  }
  state.SetItemsProcessed(state.iterations() * kRows);
  state.counters["sample_rate"] = rate;
}
BENCHMARK(BM_SampledHistogramVizketch)->Unit(benchmark::kMillisecond);

// --- Filtered-membership and NaN variants -----------------------------------
//
// The unified scan layer (storage/scan.h) gives filtered (dense/sparse)
// tables and null/NaN-bearing columns devirtualized fast paths; these
// benches record the win over the pre-PR generic path in BENCH json.

// The filtered benches use a smaller (cache-resident) column so they compare
// scan-path cost — dispatch, null/NaN handling, per-row arithmetic — rather
// than DRAM bandwidth, which the full-size benches above already cover.
constexpr uint32_t kFilteredRows = 4'000'000;

TablePtr MakeFilteredBase() {
  static TablePtr table = [] {
    Random rng(0xBE7E);
    ColumnBuilder b(DataKind::kDouble);
    for (uint32_t r = 0; r < kFilteredRows; ++r) {
      b.AppendDouble(rng.NextDouble() * 1000.0);
    }
    return Table::Create(Schema({{"x", DataKind::kDouble}}), {b.Finish()});
  }();
  return table;
}

TablePtr MakeDenseFiltered() {
  // Zoom-in range filter (§5.6): 75% of rows survive as one contiguous run,
  // so the bitmap is mostly fully-set words scanned as linear blocks.
  static TablePtr table = MakeFilteredBase()->Filter([](uint32_t r) {
    return r >= kFilteredRows / 8 && r < kFilteredRows / 8 * 7;
  });
  return table;
}

TablePtr MakeStridedFiltered() {
  // Worst-case dense bitmap: every 4th row dropped, no fully-set words, so
  // the scan walks set bits with ctz.
  static TablePtr table =
      MakeFilteredBase()->Filter([](uint32_t r) { return r % 4 != 0; });
  return table;
}

TablePtr MakeSparseFiltered() {
  // ~1.5% of rows survive: a sorted row list, scanned with prefetch-ahead.
  static TablePtr table =
      MakeFilteredBase()->Filter([](uint32_t r) { return r % 64 == 0; });
  return table;
}

TablePtr MakeNaNData() {
  static TablePtr table = [] {
    Random rng(0xBE7D);
    ColumnBuilder b(DataKind::kDouble);
    for (uint32_t r = 0; r < kRows; ++r) {
      // ~5% NaN: the histogram must count these as missing at full speed.
      if (r % 20 == 7) {
        b.AppendDouble(std::numeric_limits<double>::quiet_NaN());
      } else {
        b.AppendDouble(rng.NextDouble() * 1000.0);
      }
    }
    return Table::Create(Schema({{"x", DataKind::kDouble}}), {b.Finish()});
  }();
  return table;
}

// The pre-PR reference path for filtered tables: one virtual IsMissing +
// GetDouble per member row, then NumericBuckets::IndexOf. Kept here (not in
// src/) purely as the baseline the scan layer is measured against.
HistogramResult GenericHistogramReference(const Table& t,
                                          const NumericBuckets& nb) {
  HistogramResult result;
  result.counts.assign(nb.count(), 0);
  ColumnPtr col = t.GetColumnOrNull("x");
  ForEachRow(*t.members(), [&](uint32_t row) {
    ++result.rows_scanned;
    if (col->IsMissing(row)) {
      ++result.missing;
      return;
    }
    int idx = nb.IndexOf(col->GetDouble(row));
    if (idx < 0) {
      ++result.out_of_range;
      return;
    }
    ++result.counts[idx];
  });
  return result;
}

void BM_DenseFilteredHistogramScanLayer(benchmark::State& state) {
  TablePtr t = MakeDenseFiltered();
  StreamingHistogramSketch sketch("x",
                                  Buckets(NumericBuckets(0, 1000, kBuckets)));
  for (auto _ : state) {
    HistogramResult r = sketch.Summarize(*t, 0);
    benchmark::DoNotOptimize(r.counts.data());
  }
  state.SetItemsProcessed(state.iterations() * t->num_rows());
}
BENCHMARK(BM_DenseFilteredHistogramScanLayer)->Unit(benchmark::kMillisecond);

void BM_DenseFilteredHistogramGeneric(benchmark::State& state) {
  TablePtr t = MakeDenseFiltered();
  NumericBuckets nb(0, 1000, kBuckets);
  for (auto _ : state) {
    HistogramResult r = GenericHistogramReference(*t, nb);
    benchmark::DoNotOptimize(r.counts.data());
  }
  state.SetItemsProcessed(state.iterations() * t->num_rows());
}
BENCHMARK(BM_DenseFilteredHistogramGeneric)->Unit(benchmark::kMillisecond);

void BM_StridedFilteredHistogramScanLayer(benchmark::State& state) {
  TablePtr t = MakeStridedFiltered();
  StreamingHistogramSketch sketch("x",
                                  Buckets(NumericBuckets(0, 1000, kBuckets)));
  for (auto _ : state) {
    HistogramResult r = sketch.Summarize(*t, 0);
    benchmark::DoNotOptimize(r.counts.data());
  }
  state.SetItemsProcessed(state.iterations() * t->num_rows());
}
BENCHMARK(BM_StridedFilteredHistogramScanLayer)->Unit(benchmark::kMillisecond);

void BM_StridedFilteredHistogramGeneric(benchmark::State& state) {
  TablePtr t = MakeStridedFiltered();
  NumericBuckets nb(0, 1000, kBuckets);
  for (auto _ : state) {
    HistogramResult r = GenericHistogramReference(*t, nb);
    benchmark::DoNotOptimize(r.counts.data());
  }
  state.SetItemsProcessed(state.iterations() * t->num_rows());
}
BENCHMARK(BM_StridedFilteredHistogramGeneric)->Unit(benchmark::kMillisecond);

void BM_SparseFilteredHistogramScanLayer(benchmark::State& state) {
  TablePtr t = MakeSparseFiltered();
  StreamingHistogramSketch sketch("x",
                                  Buckets(NumericBuckets(0, 1000, kBuckets)));
  for (auto _ : state) {
    HistogramResult r = sketch.Summarize(*t, 0);
    benchmark::DoNotOptimize(r.counts.data());
  }
  state.SetItemsProcessed(state.iterations() * t->num_rows());
}
BENCHMARK(BM_SparseFilteredHistogramScanLayer)->Unit(benchmark::kMillisecond);

void BM_SparseFilteredHistogramGeneric(benchmark::State& state) {
  TablePtr t = MakeSparseFiltered();
  NumericBuckets nb(0, 1000, kBuckets);
  for (auto _ : state) {
    HistogramResult r = GenericHistogramReference(*t, nb);
    benchmark::DoNotOptimize(r.counts.data());
  }
  state.SetItemsProcessed(state.iterations() * t->num_rows());
}
BENCHMARK(BM_SparseFilteredHistogramGeneric)->Unit(benchmark::kMillisecond);

void BM_NaNHistogramStreaming(benchmark::State& state) {
  TablePtr t = MakeNaNData();
  StreamingHistogramSketch sketch("x",
                                  Buckets(NumericBuckets(0, 1000, kBuckets)));
  for (auto _ : state) {
    HistogramResult r = sketch.Summarize(*t, 0);
    benchmark::DoNotOptimize(r.counts.data());
  }
  state.SetItemsProcessed(state.iterations() * kRows);
}
BENCHMARK(BM_NaNHistogramStreaming)->Unit(benchmark::kMillisecond);

void BM_DenseFilteredSampledHistogram(benchmark::State& state) {
  TablePtr t = MakeDenseFiltered();
  double rate =
      SampleRateForSize(HistogramSampleSize(kHeightPx, kBuckets, kDelta),
                        t->num_rows());
  SampledHistogramSketch sketch(
      "x", Buckets(NumericBuckets(0, 1000, kBuckets)), rate);
  uint64_t seed = 1;
  for (auto _ : state) {
    HistogramResult r = sketch.Summarize(*t, seed++);
    benchmark::DoNotOptimize(r.counts.data());
  }
  state.SetItemsProcessed(state.iterations() * t->num_rows());
  state.counters["sample_rate"] = rate;
}
BENCHMARK(BM_DenseFilteredSampledHistogram)->Unit(benchmark::kMillisecond);

// --- Sorted scroll (NextK) and filter fast paths (PR 3) ----------------------
//
// The sort-key extraction layer (storage/sort_key.h) devirtualizes the
// order-based sketches, and FilterColumnMembership (storage/scan.h)
// devirtualizes the spreadsheet's row filters. Each bench pairs the new
// typed path against the pre-PR virtual-comparator / per-row-lambda path,
// kept here verbatim as the measured baseline. 10M-row single-thread runs.

constexpr uint32_t kSortRows = 10'000'000;

TablePtr MakeSortData() {
  static TablePtr table = [] {
    Random rng(0xBE80);
    ColumnBuilder b(DataKind::kDouble);
    for (uint32_t r = 0; r < kSortRows; ++r) {
      b.AppendDouble(rng.NextDouble() * 1000.0);
    }
    return Table::Create(Schema({{"x", DataKind::kDouble}}), {b.Finish()});
  }();
  return table;
}

TablePtr MakeStringData() {
  static TablePtr table = [] {
    Random rng(0xBE81);
    ColumnBuilder b(DataKind::kString);
    char buf[16];
    for (uint32_t r = 0; r < kSortRows; ++r) {
      // ~1000 distinct values so the dictionary-verdict table is small and
      // the row loop dominates, as in a real categorical column.
      std::snprintf(buf, sizeof(buf), "item%03d",
                    static_cast<int>(rng.NextUint64(1000)));
      b.AppendString(buf);
    }
    return Table::Create(Schema({{"s", DataKind::kString}}), {b.Finish()});
  }();
  return table;
}

/// The virtual NextItems scan: one virtual start-key compare per row plus
/// O(log K) virtual RowComparator::Compare calls per considered row. Kept as
/// the baseline the sort-key path is measured against.
NextItemsResult NextItemsVirtualReference(
    const Table& table, const RecordOrder& order,
    const std::optional<std::vector<Value>>& start_key, int k) {
  NextItemsResult result;
  RowComparator comparator(table, order);
  std::optional<RowKeyComparator> start;
  if (start_key.has_value()) start.emplace(table, order, *start_key);
  std::vector<uint32_t> reps;
  std::vector<int64_t> counts;
  reps.reserve(k + 1);
  counts.reserve(k + 1);
  ScanRows(*table.members(), 1.0, 0, [&](uint32_t row) {
    if (start.has_value() && start->Compare(row) <= 0) {
      ++result.rows_before;
      return;
    }
    auto it = std::lower_bound(reps.begin(), reps.end(), row,
                               [&](uint32_t rep, uint32_t r) {
                                 return comparator.Compare(rep, r) < 0;
                               });
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
  std::vector<std::string> names = order.ColumnNames();
  for (size_t i = 0; i < reps.size(); ++i) {
    RowSnapshot snap;
    snap.values = table.GetRow(reps[i], names);
    snap.count = counts[i];
    result.rows.push_back(std::move(snap));
  }
  return result;
}

void BM_NextItemsSortKey(benchmark::State& state) {
  TablePtr t = MakeSortData();
  // Sorted scroll: resume mid-table, keep the next 100 distinct rows.
  NextItemsSketch sketch(RecordOrder({{"x", true}}), {},
                         std::vector<Value>{Value(500.0)}, 100);
  for (auto _ : state) {
    NextItemsResult r = sketch.Summarize(*t, 0);
    benchmark::DoNotOptimize(r.rows.data());
  }
  state.SetItemsProcessed(state.iterations() * kSortRows);
}
BENCHMARK(BM_NextItemsSortKey)->Unit(benchmark::kMillisecond);

void BM_NextItemsVirtualReference(benchmark::State& state) {
  TablePtr t = MakeSortData();
  RecordOrder order({{"x", true}});
  std::optional<std::vector<Value>> start{{Value(500.0)}};
  for (auto _ : state) {
    NextItemsResult r = NextItemsVirtualReference(*t, order, start, 100);
    benchmark::DoNotOptimize(r.rows.data());
  }
  state.SetItemsProcessed(state.iterations() * kSortRows);
}
BENCHMARK(BM_NextItemsVirtualReference)->Unit(benchmark::kMillisecond);

// --- Sort-key cache (PR 4): repeat scrolls of the same sorted view ----------
//
// The worker-resident SortKeyCache amortizes the O(universe) key-extraction
// pass across scrolls of the same (table, order) view. The cold bench models
// the first scroll (cache cleared every iteration: build + scan + insert);
// the warm bench models every later scroll (pure cache hits). The acceptance
// target is warm >= 1.5x over cold.

void BM_NextItemsScrollCacheCold(benchmark::State& state) {
  TablePtr t = MakeSortData();
  NextItemsSketch sketch(RecordOrder({{"x", true}}), {},
                         std::vector<Value>{Value(500.0)}, 100);
  SortKeyCache cache;
  SketchContext context;
  context.key_cache = &cache;
  for (auto _ : state) {
    cache.Clear();
    NextItemsResult r = sketch.Summarize(*t, 0, context);
    benchmark::DoNotOptimize(r.rows.data());
  }
  state.SetItemsProcessed(state.iterations() * kSortRows);
}
BENCHMARK(BM_NextItemsScrollCacheCold)->Unit(benchmark::kMillisecond);

void BM_NextItemsScrollCacheWarm(benchmark::State& state) {
  TablePtr t = MakeSortData();
  NextItemsSketch sketch(RecordOrder({{"x", true}}), {},
                         std::vector<Value>{Value(500.0)}, 100);
  SortKeyCache cache;
  SketchContext context;
  context.key_cache = &cache;
  // Prime the cache: the measured iterations are all repeat scrolls.
  benchmark::DoNotOptimize(sketch.Summarize(*t, 0, context).rows.data());
  for (auto _ : state) {
    NextItemsResult r = sketch.Summarize(*t, 0, context);
    benchmark::DoNotOptimize(r.rows.data());
  }
  state.SetItemsProcessed(state.iterations() * kSortRows);
  state.counters["key_cache_hits"] = static_cast<double>(cache.Snapshot().hits);
}
BENCHMARK(BM_NextItemsScrollCacheWarm)->Unit(benchmark::kMillisecond);

// --- Strided-bitmap sorted scroll (PR 4) -------------------------------------
//
// A sorted scroll over a strided dense-bitmap filter (every 4th row dropped,
// no fully-set words): the member walk goes through the bit-gather expansion
// instead of the serial ctz chain.

void BM_NextItemsSortKeyStrided(benchmark::State& state) {
  static TablePtr t =
      MakeSortData()->Filter([](uint32_t r) { return r % 4 != 0; });
  NextItemsSketch sketch(RecordOrder({{"x", true}}), {},
                         std::vector<Value>{Value(500.0)}, 100);
  for (auto _ : state) {
    NextItemsResult r = sketch.Summarize(*t, 0);
    benchmark::DoNotOptimize(r.rows.data());
  }
  state.SetItemsProcessed(state.iterations() * t->num_rows());
}
BENCHMARK(BM_NextItemsSortKeyStrided)->Unit(benchmark::kMillisecond);

// --- Packed two-column keys (PR 4) -------------------------------------------
//
// A duplicate-heavy leading column (200 distinct values over 10M rows) under
// a two-column order: single-column keys would fall back to the virtual
// comparator on every leading-column tie, while the packed 32+32 key
// resolves both columns with one integer comparison.

TablePtr MakeTwoColumnData() {
  static TablePtr table = [] {
    Random rng(0xBE82);
    ColumnBuilder a(DataKind::kInt);
    ColumnBuilder b(DataKind::kDate);
    for (uint32_t r = 0; r < kSortRows; ++r) {
      a.AppendInt(static_cast<int32_t>(rng.NextUint64(200)));
      b.AppendDate(static_cast<int64_t>(rng.NextUint64(1'000'000)));
    }
    return Table::Create(
        Schema({{"a", DataKind::kInt}, {"b", DataKind::kDate}}),
        {a.Finish(), b.Finish()});
  }();
  return table;
}

void BM_NextItemsTwoColumnPacked(benchmark::State& state) {
  TablePtr t = MakeTwoColumnData();
  NextItemsSketch sketch(RecordOrder({{"a", true}, {"b", true}}), {},
                         std::nullopt, 100);
  for (auto _ : state) {
    NextItemsResult r = sketch.Summarize(*t, 0);
    benchmark::DoNotOptimize(r.rows.data());
  }
  state.SetItemsProcessed(state.iterations() * kSortRows);
}
BENCHMARK(BM_NextItemsTwoColumnPacked)->Unit(benchmark::kMillisecond);

// O4's shape: a scroll to the median of a packed two-column order, with the
// keys resident in the worker's cache. Half the rows fall below the start key
// and are counted; only the rows between the start key and the page's last
// kept key reach the top-K.
void BM_NextItemsTwoColumnPackedStartKey(benchmark::State& state) {
  TablePtr t = MakeTwoColumnData();
  // a is uniform over [0, 200) and b over [0, 10^6): (100, 500000) is the
  // median key.
  NextItemsSketch sketch(
      RecordOrder({{"a", true}, {"b", true}}), {},
      std::vector<Value>{Value(int64_t{100}), Value(int64_t{500'000})}, 100);
  SortKeyCache cache;
  SketchContext context;
  context.key_cache = &cache;
  benchmark::DoNotOptimize(sketch.Summarize(*t, 0, context).rows.data());
  for (auto _ : state) {
    NextItemsResult r = sketch.Summarize(*t, 0, context);
    benchmark::DoNotOptimize(r.rows.data());
  }
  state.SetItemsProcessed(state.iterations() * kSortRows);
}
BENCHMARK(BM_NextItemsTwoColumnPackedStartKey)->Unit(benchmark::kMillisecond);

void BM_NextItemsTwoColumnVirtualReference(benchmark::State& state) {
  TablePtr t = MakeTwoColumnData();
  RecordOrder order({{"a", true}, {"b", true}});
  for (auto _ : state) {
    NextItemsResult r = NextItemsVirtualReference(*t, order, std::nullopt, 100);
    benchmark::DoNotOptimize(r.rows.data());
  }
  state.SetItemsProcessed(state.iterations() * kSortRows);
}
BENCHMARK(BM_NextItemsTwoColumnVirtualReference)->Unit(benchmark::kMillisecond);

void BM_FilterRangeTyped(benchmark::State& state) {
  TablePtr t = MakeSortData();
  ColumnPtr col = t->GetColumnOrNull("x");
  for (auto _ : state) {
    MembershipPtr m = FilterRangeMembership(*col, *t->members(), 250.0, 750.0);
    benchmark::DoNotOptimize(m->size());
  }
  state.SetItemsProcessed(state.iterations() * kSortRows);
}
BENCHMARK(BM_FilterRangeTyped)->Unit(benchmark::kMillisecond);

void BM_FilterRangeVirtual(benchmark::State& state) {
  TablePtr t = MakeSortData();
  ColumnPtr col = t->GetColumnOrNull("x");
  const IColumn* c = col.get();
  for (auto _ : state) {
    // The pre-PR FilterRange body: per-row std::function with virtual
    // IsMissing + GetDouble.
    TablePtr f = t->Filter([c](uint32_t row) {
      if (c->IsMissing(row)) return false;
      double v = c->GetDouble(row);
      return v >= 250.0 && v <= 750.0;
    });
    benchmark::DoNotOptimize(f->num_rows());
  }
  state.SetItemsProcessed(state.iterations() * kSortRows);
}
BENCHMARK(BM_FilterRangeVirtual)->Unit(benchmark::kMillisecond);

void BM_FilterEqualsTyped(benchmark::State& state) {
  TablePtr t = MakeStringData();
  ColumnPtr col = t->GetColumnOrNull("s");
  uint32_t code = col->Dictionary().LowerBound("item500");
  for (auto _ : state) {
    MembershipPtr m = FilterEqualsCodeMembership(*col, *t->members(), code);
    benchmark::DoNotOptimize(m->size());
  }
  state.SetItemsProcessed(state.iterations() * kSortRows);
}
BENCHMARK(BM_FilterEqualsTyped)->Unit(benchmark::kMillisecond);

void BM_FilterEqualsVirtual(benchmark::State& state) {
  TablePtr t = MakeStringData();
  ColumnPtr col = t->GetColumnOrNull("s");
  const uint32_t* codes = col->RawCodes();
  uint32_t code = col->Dictionary().LowerBound("item500");
  for (auto _ : state) {
    TablePtr f = t->Filter(
        [codes, code](uint32_t row) { return codes[row] == code; });
    benchmark::DoNotOptimize(f->num_rows());
  }
  state.SetItemsProcessed(state.iterations() * kSortRows);
}
BENCHMARK(BM_FilterEqualsVirtual)->Unit(benchmark::kMillisecond);

void BM_FilterRegexTyped(benchmark::State& state) {
  TablePtr t = MakeStringData();
  ColumnPtr col = t->GetColumnOrNull("s");
  StringFilter filter;
  filter.mode = StringFilter::Mode::kRegex;
  filter.text = "^item1";
  filter.case_sensitive = true;
  for (auto _ : state) {
    StringMatcher matcher(filter);
    std::vector<uint8_t> match = MatchDictionary(matcher, col->Dictionary());
    MembershipPtr m =
        FilterMatchedCodesMembership(*col, *t->members(), match);
    benchmark::DoNotOptimize(m->size());
  }
  state.SetItemsProcessed(state.iterations() * kSortRows);
}
BENCHMARK(BM_FilterRegexTyped)->Unit(benchmark::kMillisecond);

void BM_FilterRegexVirtual(benchmark::State& state) {
  TablePtr t = MakeStringData();
  ColumnPtr col = t->GetColumnOrNull("s");
  const uint32_t* codes = col->RawCodes();
  StringFilter filter;
  filter.mode = StringFilter::Mode::kRegex;
  filter.text = "^item1";
  filter.case_sensitive = true;
  for (auto _ : state) {
    // The pre-PR FilterMatches body: memoized dictionary verdicts, but the
    // row loop is a per-row std::function over raw codes.
    StringMatcher matcher(filter);
    const auto& dict = col->Dictionary();
    std::vector<uint8_t> match(dict.size());
    for (uint32_t d = 0; d < dict.size(); ++d) {
      match[d] = matcher.Matches(dict[d]) ? 1 : 0;
    }
    TablePtr f = t->Filter([codes, match = std::move(match)](uint32_t row) {
      uint32_t code = codes[row];
      return code != StringColumn::kMissingCode && match[code];
    });
    benchmark::DoNotOptimize(f->num_rows());
  }
  state.SetItemsProcessed(state.iterations() * kSortRows);
}
BENCHMARK(BM_FilterRegexVirtual)->Unit(benchmark::kMillisecond);

void BM_DatabaseSystemIndexScan(benchmark::State& state) {
  TablePtr t = MakeData();
  static std::unique_ptr<baseline::IndexedDb> db =
      std::make_unique<baseline::IndexedDb>(*t, "x");
  for (auto _ : state) {
    auto counts = db->HistogramQuery(0, 1000, kBuckets);
    benchmark::DoNotOptimize(counts.data());
  }
  state.SetItemsProcessed(state.iterations() * kRows);
}
BENCHMARK(BM_DatabaseSystemIndexScan)->Unit(benchmark::kMillisecond);

void BM_DatabaseSystemSeqScan(benchmark::State& state) {
  TablePtr t = MakeData();
  static std::unique_ptr<baseline::IndexedDb> db =
      std::make_unique<baseline::IndexedDb>(*t, "x");
  for (auto _ : state) {
    auto counts = db->HistogramQuerySeqScan(0, 1000, kBuckets);
    benchmark::DoNotOptimize(counts.data());
  }
  state.SetItemsProcessed(state.iterations() * kRows);
}
BENCHMARK(BM_DatabaseSystemSeqScan)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace hillview

BENCHMARK_MAIN();
