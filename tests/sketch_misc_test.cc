#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <iterator>
#include <limits>
#include <set>

#include "sketch/histogram2d.h"
#include "sketch/hyperloglog.h"
#include "sketch/pca.h"
#include "sketch/quantile.h"
#include "sketch/range_moments.h"
#include "sketch/sample_size.h"
#include "sketch/save_as.h"
#include "sketch/string_quantiles.h"
#include "storage/columnar_file.h"
#include "test_util.h"

namespace hillview {
namespace {

using testing::MakeDoubleTable;
using testing::MakeStringTable;
using testing::SplitValues;
using testing::UniformDoubles;

// --- RangeSketch -------------------------------------------------------------

TEST(RangeSketch, MinMaxCountMoments) {
  TablePtr t = MakeDoubleTable("x", {2, 4, 6, 8});
  RangeSketch sketch("x", 2);
  RangeResult r = sketch.Summarize(*t, 0);
  EXPECT_EQ(r.min, 2);
  EXPECT_EQ(r.max, 8);
  EXPECT_EQ(r.present_count, 4);
  EXPECT_DOUBLE_EQ(r.Mean(), 5.0);
  EXPECT_DOUBLE_EQ(r.Variance(), 5.0);  // E[x²]=30, mean²=25
}

TEST(RangeSketch, CountsMissing) {
  ColumnBuilder b(DataKind::kDouble);
  b.AppendDouble(1);
  b.AppendMissing();
  b.AppendMissing();
  TablePtr t = Table::Create(Schema({{"x", DataKind::kDouble}}), {b.Finish()});
  RangeResult r = RangeSketch("x").Summarize(*t, 0);
  EXPECT_EQ(r.present_count, 1);
  EXPECT_EQ(r.missing_count, 2);
  EXPECT_EQ(r.TotalRows(), 3);
}

TEST(RangeSketch, StringRange) {
  TablePtr t = MakeStringTable("s", {"pear", "apple", "zebra", "fig"});
  RangeResult r = RangeSketch("s").Summarize(*t, 0);
  EXPECT_TRUE(r.is_string);
  EXPECT_EQ(r.min_string, "apple");
  EXPECT_EQ(r.max_string, "zebra");
}

TEST(RangeSketch, MergeMatchesWhole) {
  auto values = UniformDoubles(2000, -50, 50, 3);
  RangeSketch sketch("x");
  RangeResult whole = sketch.Summarize(*MakeDoubleTable("x", values), 0);
  RangeResult merged = sketch.Zero();
  for (const auto& chunk : SplitValues(values, 5)) {
    merged = sketch.Merge(merged,
                          sketch.Summarize(*MakeDoubleTable("x", chunk), 0));
  }
  EXPECT_DOUBLE_EQ(merged.min, whole.min);
  EXPECT_DOUBLE_EQ(merged.max, whole.max);
  EXPECT_EQ(merged.present_count, whole.present_count);
  EXPECT_NEAR(merged.moments[0], whole.moments[0], 1e-6);
}

// --- HyperLogLog --------------------------------------------------------------

TEST(HyperLogLog, AccurateOnKnownCardinality) {
  std::vector<std::string> values;
  for (int i = 0; i < 50000; ++i) {
    values.push_back("value-" + std::to_string(i % 10000));
  }
  TablePtr t = MakeStringTable("s", values);
  HllResult r = HyperLogLogSketch("s", 12).Summarize(*t, 0);
  EXPECT_NEAR(r.Estimate(), 10000, 10000 * 0.05);
}

TEST(HyperLogLog, SmallRangeLinearCounting) {
  TablePtr t = MakeStringTable("s", {"a", "b", "c", "a", "b"});
  HllResult r = HyperLogLogSketch("s", 10).Summarize(*t, 0);
  EXPECT_NEAR(r.Estimate(), 3.0, 0.5);
}

TEST(HyperLogLog, MergeEqualsUnion) {
  std::vector<std::string> a, b;
  for (int i = 0; i < 5000; ++i) a.push_back("k" + std::to_string(i));
  for (int i = 2500; i < 7500; ++i) b.push_back("k" + std::to_string(i));
  HyperLogLogSketch sketch("s", 12);
  HllResult ra = sketch.Summarize(*MakeStringTable("s", a), 0);
  HllResult rb = sketch.Summarize(*MakeStringTable("s", b), 0);
  HllResult merged = sketch.Merge(ra, rb);
  EXPECT_NEAR(merged.Estimate(), 7500, 7500 * 0.05);

  // Merge must equal the summary of the union.
  std::vector<std::string> both = a;
  both.insert(both.end(), b.begin(), b.end());
  HllResult whole = sketch.Summarize(*MakeStringTable("s", both), 0);
  EXPECT_EQ(merged.registers, whole.registers);
}

// --- Bottom-k distinct strings -------------------------------------------------

TEST(BottomK, CompleteWhenFewDistinct) {
  TablePtr t = MakeStringTable("s", {"b", "a", "c", "a", "b"});
  BottomKResult r = BottomKStringsSketch("s", 100).Summarize(*t, 0);
  EXPECT_TRUE(r.complete);
  EXPECT_EQ(r.items.size(), 3u);
}

TEST(BottomK, TruncatesAndMergesLikeUnion) {
  std::vector<std::string> a, b;
  for (int i = 0; i < 500; ++i) a.push_back("s" + std::to_string(i));
  for (int i = 400; i < 900; ++i) b.push_back("s" + std::to_string(i));
  BottomKStringsSketch sketch("s", 64);
  auto ra = sketch.Summarize(*MakeStringTable("s", a), 0);
  auto rb = sketch.Summarize(*MakeStringTable("s", b), 0);
  auto merged = sketch.Merge(ra, rb);
  EXPECT_EQ(merged.items.size(), 64u);
  EXPECT_FALSE(merged.complete);

  std::vector<std::string> both = a;
  both.insert(both.end(), b.begin(), b.end());
  auto whole = sketch.Summarize(*MakeStringTable("s", both), 0);
  ASSERT_EQ(whole.items.size(), merged.items.size());
  for (size_t i = 0; i < whole.items.size(); ++i) {
    EXPECT_EQ(whole.items[i], merged.items[i]);
  }
}

TEST(BottomK, BucketsOnePerValueWhenFew) {
  TablePtr t = MakeStringTable("s", {"b", "a", "c"});
  auto r = BottomKStringsSketch("s").Summarize(*t, 0);
  StringBuckets buckets = StringBucketsFromBottomK(r, 50, "c");
  EXPECT_EQ(buckets.count(), 3);
  EXPECT_EQ(buckets.boundaries()[0], "a");
}

TEST(BottomK, QuantileBucketsWhenMany) {
  std::vector<std::string> values;
  for (int i = 0; i < 2000; ++i) {
    char buf[16];
    std::snprintf(buf, sizeof(buf), "v%05d", i);
    values.push_back(buf);
  }
  auto r = BottomKStringsSketch("s", 1024).Summarize(
      *MakeStringTable("s", values), 0);
  StringBuckets buckets = StringBucketsFromBottomK(r, 50, values.back());
  EXPECT_LE(buckets.count(), 50);
  EXPECT_GE(buckets.count(), 40);  // roughly even quantiles
  EXPECT_TRUE(std::is_sorted(buckets.boundaries().begin(),
                             buckets.boundaries().end()));
}

// --- Quantile ------------------------------------------------------------------

TEST(Quantile, MedianWithinTheoremAccuracy) {
  const int kV = 100;  // scrollbar pixels
  auto values = UniformDoubles(200000, 0, 1, 21);
  TablePtr t = MakeDoubleTable("x", values);
  uint64_t n = QuantileSampleSize(kV);
  double rate = SampleRateForSize(n, values.size());
  QuantileSketch sketch(RecordOrder({{"x", true}}), rate,
                        static_cast<int>(4 * n));
  QuantileResult r = sketch.Summarize(*t, 77);
  auto key = r.KeyAtQuantile(0.5);
  ASSERT_TRUE(key.has_value());
  double median = std::get<double>((*key)[0]);
  // True median of U(0,1) is 0.5; Theorem 2 accuracy is ε = 1/(2V).
  EXPECT_NEAR(median, 0.5, 3.0 / (2 * kV));
}

TEST(Quantile, MergePreservesRanks) {
  auto values = UniformDoubles(50000, 0, 100, 22);
  QuantileSketch sketch(RecordOrder({{"x", true}}), 0.02, 4000);
  QuantileResult merged = sketch.Zero();
  int part = 0;
  for (const auto& chunk : SplitValues(values, 4)) {
    merged = sketch.Merge(
        merged, sketch.Summarize(*MakeDoubleTable("x", chunk), part++));
  }
  ASSERT_NE(merged.size(), 0u);
  // Keys sorted and quantiles roughly linear for uniform data.
  for (size_t i = 1; i < merged.size(); ++i) {
    EXPECT_LE(std::get<double>(merged.Cell(0, i - 1)),
              std::get<double>(merged.Cell(0, i)));
  }
  EXPECT_NEAR(std::get<double>((*merged.KeyAtQuantile(0.25))[0]), 25.0, 5.0);
  EXPECT_NEAR(std::get<double>((*merged.KeyAtQuantile(0.75))[0]), 75.0, 5.0);
}

TEST(Quantile, CompactionCapsSummaryAndConservesWeight) {
  auto values = UniformDoubles(50000, 0, 1, 23);
  QuantileSketch sketch(RecordOrder({{"x", true}}), 0.5, 1000);
  QuantileResult merged = sketch.Zero();
  uint64_t sampled_rows = 0;
  for (const auto& chunk : SplitValues(values, 4)) {
    QuantileResult part = sketch.Summarize(*MakeDoubleTable("x", chunk), 1);
    sampled_rows += part.TotalWeight();
    merged = sketch.Merge(merged, part);
  }
  EXPECT_LE(merged.size(), 1000u);
  ASSERT_EQ(merged.weights.size(), merged.columns[0].words.size());
  // KLL compaction doubles survivor weights instead of dropping rank mass:
  // the total weight is exactly the number of sampled rows.
  EXPECT_EQ(merged.TotalWeight(), sampled_rows);
  // ~25000 sampled rows squeezed into 1000 items must have compacted.
  EXPECT_GT(merged.error.worst, 0u);
  EXPECT_GT(merged.RankErrorBound(), 0.0);
  EXPECT_LT(merged.RankErrorBound(), 0.2);
}

TEST(Quantile, CompactedSummaryStaysAccurate) {
  // Deep compaction: every partition overflows the budget on its own, then
  // four merges compact again. Weighted queries must stay near the truth —
  // the old unit-weight decimation (always keeping index 0) drifted toward
  // the minimum key under exactly this load.
  auto values = UniformDoubles(100000, 0, 1, 29);
  QuantileSketch sketch(RecordOrder({{"x", true}}), 1.0, 512);
  QuantileResult merged = sketch.Zero();
  int part = 0;
  for (const auto& chunk : SplitValues(values, 8)) {
    merged = sketch.Merge(
        merged, sketch.Summarize(*MakeDoubleTable("x", chunk), 40 + part++));
  }
  EXPECT_LE(merged.size(), 512u);
  EXPECT_EQ(merged.TotalWeight(), 100000u);
  for (double q : {0.1, 0.25, 0.5, 0.75, 0.9}) {
    double value = std::get<double>((*merged.KeyAtQuantile(q))[0]);
    // Uniform data: the value IS its quantile. The bound reports the
    // compaction error; allow it plus discreteness slack.
    EXPECT_NEAR(value, q, merged.RankErrorBound() + 0.02)
        << "quantile " << q;
  }
}

TEST(Quantile, MergeSubsamplesMismatchedRatesToCommonRate) {
  // Regression: Merge used to take max(left.rate, right.rate), leaving the
  // denser partition over-represented per underlying row. Here the right
  // half of the value range is sampled 10× as densely; the median of the
  // merge must stay at the true boundary, not drift into the dense half.
  auto low = UniformDoubles(20000, 0, 50, 24);
  auto high = UniformDoubles(20000, 50, 100, 25);
  QuantileSketch sparse(RecordOrder({{"x", true}}), 0.05, 1 << 20);
  QuantileSketch dense(RecordOrder({{"x", true}}), 0.5, 1 << 20);
  QuantileResult left = sparse.Summarize(*MakeDoubleTable("x", low), 3);
  QuantileResult right = dense.Summarize(*MakeDoubleTable("x", high), 4);
  QuantileResult merged = sparse.Merge(left, right);
  EXPECT_DOUBLE_EQ(merged.rate, 0.05);
  // Both halves now carry ~1000 samples each; the quartiles land in their
  // true halves instead of collapsing into the dense side.
  EXPECT_NEAR(std::get<double>((*merged.KeyAtQuantile(0.5))[0]), 50.0, 6.0);
  EXPECT_NEAR(std::get<double>((*merged.KeyAtQuantile(0.25))[0]), 25.0, 6.0);
  EXPECT_NEAR(std::get<double>((*merged.KeyAtQuantile(0.75))[0]), 75.0, 6.0);
  // Merging in the other order reconciles to the same rate.
  QuantileResult swapped = sparse.Merge(right, left);
  EXPECT_DOUBLE_EQ(swapped.rate, 0.05);
  EXPECT_NEAR(std::get<double>((*swapped.KeyAtQuantile(0.5))[0]), 50.0, 6.0);
}

/// Every item's key of a quantile summary, materialized.
std::vector<std::vector<Value>> QuantileKeys(const QuantileResult& r) {
  std::vector<std::vector<Value>> keys;
  for (size_t i = 0; i < r.size(); ++i) keys.push_back(r.Key(i));
  return keys;
}

QuantileResult WireRoundTrip(const QuantileResult& r) {
  ByteWriter w;
  r.Serialize(&w);
  std::vector<uint8_t> bytes = w.Take();
  ByteReader reader(bytes);
  QuantileResult out;
  EXPECT_TRUE(QuantileResult::Deserialize(&reader, &out).ok());
  EXPECT_TRUE(reader.AtEnd());
  return out;
}

/// Five columns covering every kind a key column holds — ints, doubles
/// (NaN, which the column folds to missing, ±inf and ±0.0), dates (including
/// the int64 extremes), strings and categories — each with missing cells,
/// and few distinct values so keys tie across columns.
TablePtr OracleTable(uint32_t rows, uint64_t seed) {
  static const double kDoubles[] = {std::numeric_limits<double>::quiet_NaN(),
                                    std::numeric_limits<double>::infinity(),
                                    -std::numeric_limits<double>::infinity(),
                                    -0.0, 0.0, -2.5, 1.5, 1e300};
  static const int64_t kDates[] = {std::numeric_limits<int64_t>::min(),
                                   -86400000, 0, 1577836800000,
                                   std::numeric_limits<int64_t>::max()};
  static const char* kStrings[] = {"", "a", "ab", "b", "zz"};
  static const char* kCategories[] = {"A", "B", "C"};
  Random rng(seed);
  ColumnBuilder i(DataKind::kInt), d(DataKind::kDouble), t(DataKind::kDate),
      s(DataKind::kString), c(DataKind::kCategory);
  auto missing = [&rng] { return rng.NextUint64(8) == 0; };
  for (uint32_t r = 0; r < rows; ++r) {
    if (missing()) {
      i.AppendMissing();
    } else {
      i.AppendInt(static_cast<int32_t>(rng.NextUint64(7)) - 3);
    }
    if (missing()) {
      d.AppendMissing();
    } else {
      d.AppendDouble(kDoubles[rng.NextUint64(std::size(kDoubles))]);
    }
    if (missing()) {
      t.AppendMissing();
    } else {
      t.AppendDate(kDates[rng.NextUint64(std::size(kDates))]);
    }
    if (missing()) {
      s.AppendMissing();
    } else {
      s.AppendString(kStrings[rng.NextUint64(std::size(kStrings))]);
    }
    if (missing()) {
      c.AppendMissing();
    } else {
      c.AppendString(kCategories[rng.NextUint64(std::size(kCategories))]);
    }
  }
  return Table::Create(Schema({{"i", DataKind::kInt},
                               {"d", DataKind::kDouble},
                               {"t", DataKind::kDate},
                               {"s", DataKind::kString},
                               {"c", DataKind::kCategory}}),
                       {i.Finish(), d.Finish(), t.Finish(), s.Finish(),
                        c.Finish()});
}

TEST(Quantile, UncompactedSummaryIsTheBruteForceSortCellForCell) {
  // At rate 1 with no compaction a single-partition summary holds every
  // member row, sorted: it must equal the RowComparator sort of those rows,
  // cell for cell, for orders of 1 to 5 columns (5 is the scroll bar's
  // usual shape) in both directions, on a dense membership (the keyed
  // sort) and a sparse one (the comparator sort).
  const char* kColumns[] = {"i", "d", "t", "s", "c"};
  TablePtr full = OracleTable(600, 0x0AC1E);
  for (int width = 1; width <= 5; ++width) {
    for (uint64_t variant = 0; variant < 6; ++variant) {
      Random rng(MixSeed(width, variant));
      std::vector<std::string> names(std::begin(kColumns),
                                     std::end(kColumns));
      for (size_t z = names.size() - 1; z > 0; --z) {
        std::swap(names[z], names[rng.NextUint64(z + 1)]);
      }
      std::vector<ColumnSortOrientation> orientations;
      for (int z = 0; z < width; ++z) {
        orientations.push_back({names[z], rng.NextUint64(2) == 0});
      }
      RecordOrder order(orientations);
      const uint32_t stride = variant % 2 == 0 ? 1 : 20;
      auto member = [stride](uint32_t row) { return row % stride == 0; };
      TablePtr table = full->Filter(member);

      QuantileSketch sketch(order, /*rate=*/1.0, /*max_size=*/1 << 20);
      QuantileResult result = sketch.Summarize(*table, variant);

      std::vector<uint32_t> rows;
      for (uint32_t row = 0; row < full->num_rows(); ++row) {
        if (member(row)) rows.push_back(row);
      }
      RowComparator comparator(*table, order);
      std::sort(rows.begin(), rows.end(), [&](uint32_t a, uint32_t b) {
        return comparator.Less(a, b);
      });
      const std::vector<std::string> order_names = order.ColumnNames();
      std::vector<std::vector<Value>> expected;
      for (uint32_t row : rows) {
        expected.push_back(table->GetRow(row, order_names));
      }

      SCOPED_TRACE("width " + std::to_string(width) + ", variant " +
                   std::to_string(variant));
      ASSERT_EQ(result.weights, std::vector<uint64_t>(rows.size(), 1));
      ASSERT_EQ(QuantileKeys(result), expected);
      for (int step = 0; step <= 20; ++step) {
        const double q = step / 20.0;
        // The midpoint rule: round(q * (n - 1)).
        const size_t idx = static_cast<size_t>(q * (rows.size() - 1) + 0.5);
        EXPECT_EQ(result.KeyAtQuantile(q), expected[idx]) << "q " << q;
      }
      EXPECT_EQ(QuantileKeys(WireRoundTrip(result)), expected);
    }
  }
}

/// Keys of `a` then `b` merged the way Merge must merge them: stably under
/// CompareKeyCells, so a tie keeps the left key first.
std::vector<std::vector<Value>> StableMergedKeys(const QuantileResult& a,
                                                 const QuantileResult& b,
                                                 const RecordOrder& order) {
  std::vector<std::vector<Value>> ka = QuantileKeys(a), kb = QuantileKeys(b);
  std::vector<std::vector<Value>> out;
  std::merge(ka.begin(), ka.end(), kb.begin(), kb.end(),
             std::back_inserter(out),
             [&order](const std::vector<Value>& x, const std::vector<Value>& y) {
               return CompareKeyCells(order, x, y) < 0;
             });
  return out;
}

/// Merges summaries of two partitions whose loaders inferred different
/// kinds for column "x" ("y" is double in both and breaks ties), in both
/// directions and both operand orders, and checks the merge against the
/// stable merge of the materialized keys, through the wire too.
void ExpectMixedKindMergeKeepsOrder(const TablePtr& a, const TablePtr& b) {
  for (bool ascending : {true, false}) {
    RecordOrder order({{"x", ascending}, {"y", true}});
    QuantileSketch sketch(order, /*rate=*/1.0, /*max_size=*/1 << 20);
    QuantileResult sa = sketch.Summarize(*a, 1);
    QuantileResult sb = sketch.Summarize(*b, 2);
    for (int swap = 0; swap < 2; ++swap) {
      const QuantileResult& left = swap ? sb : sa;
      const QuantileResult& right = swap ? sa : sb;
      SCOPED_TRACE(std::string(ascending ? "ascending" : "descending") +
                   (swap ? ", swapped" : ""));
      QuantileResult merged = sketch.Merge(left, right);
      EXPECT_EQ(QuantileKeys(merged), StableMergedKeys(left, right, order));
      EXPECT_EQ(QuantileKeys(WireRoundTrip(merged)), QuantileKeys(merged));
    }
  }
}

TEST(Quantile, MergesIntKindWithDoubleKindInValueOrder) {
  // csv and jsonl infer kinds per file: an int 3 and a double 3.0 tie on x
  // (CompareValues compares them as numbers) and y decides, while the keys
  // (2, 1.0) and (2.0, 1.0) tie whole and the left one goes first; each cell
  // keeps its own kind in the merged summary.
  ColumnBuilder ax(DataKind::kInt), ay(DataKind::kDouble);
  ColumnBuilder bx(DataKind::kDouble), by(DataKind::kDouble);
  for (int v : {3, -7, 2, 3}) ax.AppendInt(v);
  ax.AppendMissing();
  for (double v : {0.5, 1.0, 1.0, -1.0, 4.0}) ay.AppendDouble(v);
  for (double v : {2.5, 3.0, -std::numeric_limits<double>::infinity(), 2.0,
                   1e300}) {
    bx.AppendDouble(v);
  }
  bx.AppendMissing();
  for (double v : {1.0, 0.0, 3.0, 1.0, 2.0, 4.0}) by.AppendDouble(v);
  Schema a_schema({{"x", DataKind::kInt}, {"y", DataKind::kDouble}});
  Schema b_schema({{"x", DataKind::kDouble}, {"y", DataKind::kDouble}});
  ExpectMixedKindMergeKeepsOrder(
      Table::Create(a_schema, {ax.Finish(), ay.Finish()}),
      Table::Create(b_schema, {bx.Finish(), by.Finish()}));
}

TEST(Quantile, MergesNumbersWithStringsInValueOrder) {
  // Numbers sort before strings, strings before missing.
  ColumnBuilder ax(DataKind::kInt), ay(DataKind::kDouble);
  ColumnBuilder bx(DataKind::kString), by(DataKind::kDouble);
  for (int v : {5, 1, 5}) ax.AppendInt(v);
  ax.AppendMissing();
  for (double v : {1.0, 2.0, 0.0, 1.0}) ay.AppendDouble(v);
  for (const char* v : {"10", "abc", "", "abc"}) bx.AppendString(v);
  bx.AppendMissing();
  for (double v : {1.0, 0.5, 2.0, 3.0, 0.0}) by.AppendDouble(v);
  Schema a_schema({{"x", DataKind::kInt}, {"y", DataKind::kDouble}});
  Schema b_schema({{"x", DataKind::kString}, {"y", DataKind::kDouble}});
  ExpectMixedKindMergeKeepsOrder(
      Table::Create(a_schema, {ax.Finish(), ay.Finish()}),
      Table::Create(b_schema, {bx.Finish(), by.Finish()}));
}

TEST(Quantile, ColumnsOfOneClassDropTheirClassArray) {
  // A double column whose sampled cells are all missing holds one class,
  // missing, so it ships no class per cell; an empty int partition merged
  // with a double one leaves a column of doubles only.
  ColumnBuilder ax(DataKind::kDouble), ay(DataKind::kInt);
  ColumnBuilder bx(DataKind::kDouble), by(DataKind::kInt);
  ColumnBuilder ex(DataKind::kInt), ey(DataKind::kInt);
  for (int r = 0; r < 4; ++r) {
    ax.AppendMissing();
    ay.AppendInt(r);
    bx.AppendDouble(0.5 * r);
    by.AppendInt(r);
  }
  Schema doubles({{"x", DataKind::kDouble}, {"y", DataKind::kInt}});
  Schema ints({{"x", DataKind::kInt}, {"y", DataKind::kInt}});
  RecordOrder order({{"x", true}, {"y", true}});
  QuantileSketch sketch(order, /*rate=*/1.0, /*max_size=*/1 << 20);

  QuantileResult missing = sketch.Summarize(
      *Table::Create(doubles, {ax.Finish(), ay.Finish()}), 1);
  EXPECT_EQ(missing.columns[0].kind, KeyClass::kMissing);
  EXPECT_TRUE(missing.columns[0].classes.empty());
  for (size_t i = 0; i < missing.size(); ++i) {
    EXPECT_EQ(missing.Cell(0, i), Value(std::monostate{}));
  }

  QuantileResult present = sketch.Summarize(
      *Table::Create(doubles, {bx.Finish(), by.Finish()}), 2);
  QuantileResult empty = sketch.Summarize(
      *Table::Create(ints, {ex.Finish(), ey.Finish()}), 3);
  QuantileResult merged = sketch.Merge(empty, present);
  EXPECT_EQ(merged.columns[0].kind, KeyClass::kDouble);
  EXPECT_TRUE(merged.columns[0].classes.empty());
  EXPECT_EQ(QuantileKeys(merged), QuantileKeys(present));
}

// --- KLL core -------------------------------------------------------------------

TEST(Kll, SelectIndexMatchesMidpointRuleForUnitWeights) {
  std::vector<uint64_t> unit(100, 1);
  for (double q : {0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 1.0}) {
    size_t expected = static_cast<size_t>(q * 99 + 0.5);
    EXPECT_EQ(KllSelectIndex(unit, q), expected) << "q=" << q;
  }
  EXPECT_EQ(KllSelectIndex({}, 0.5), static_cast<size_t>(-1));
  // Weighted: item 1 covers rank positions 1..8 of W=10.
  std::vector<uint64_t> weighted = {1, 8, 1};
  EXPECT_EQ(KllSelectIndex(weighted, 0.0), 0u);
  EXPECT_EQ(KllSelectIndex(weighted, 0.5), 1u);
  EXPECT_EQ(KllSelectIndex(weighted, 1.0), 2u);
}

TEST(Kll, CompactionConservesWeightAndRespectsBudget) {
  Random coin(77);
  std::vector<uint64_t> weights(1000, 1);
  KllErrorLedger ledger;
  std::vector<uint32_t> kept;
  KllCompactToBudget(&weights, 100, &coin, &ledger, &kept);
  EXPECT_LE(kept.size(), 100u);
  EXPECT_EQ(weights.size(), kept.size());
  uint64_t total = 0;
  for (uint64_t w : weights) total += w;
  EXPECT_EQ(total, 1000u);  // pairwise doubling + untouched tails: exact
  EXPECT_TRUE(std::is_sorted(kept.begin(), kept.end()));
  EXPECT_GT(ledger.worst, 0u);
  EXPECT_GT(ledger.variance, 0.0);
  // Deterministic under the same coin seed (the redo-log replay contract).
  Random coin2(77);
  std::vector<uint64_t> weights2(1000, 1);
  KllErrorLedger ledger2;
  std::vector<uint32_t> kept2;
  KllCompactToBudget(&weights2, 100, &coin2, &ledger2, &kept2);
  EXPECT_EQ(kept, kept2);
  EXPECT_EQ(weights, weights2);
}

TEST(Kll, CompactionIsANoOpUnderBudget) {
  Random coin(5);
  std::vector<uint64_t> weights = {1, 2, 1, 4};
  KllErrorLedger ledger;
  std::vector<uint32_t> kept;
  KllCompactToBudget(&weights, 10, &coin, &ledger, &kept);
  EXPECT_EQ(kept.size(), 4u);
  EXPECT_EQ(weights, (std::vector<uint64_t>{1, 2, 1, 4}));
  EXPECT_EQ(ledger.worst, 0u);
}

// --- PCA -----------------------------------------------------------------------

TEST(Pca, CorrelationOfLinearlyRelatedColumns) {
  Random rng(31);
  ColumnBuilder a(DataKind::kDouble), b(DataKind::kDouble),
      c(DataKind::kDouble);
  for (int i = 0; i < 20000; ++i) {
    double x = rng.NextGaussian();
    a.AppendDouble(x);
    b.AppendDouble(2 * x + 0.01 * rng.NextGaussian());  // ~perfectly corr.
    c.AppendDouble(rng.NextGaussian());                 // independent
  }
  TablePtr t = Table::Create(Schema({{"a", DataKind::kDouble},
                                     {"b", DataKind::kDouble},
                                     {"c", DataKind::kDouble}}),
                             {a.Finish(), b.Finish(), c.Finish()});
  CorrelationResult r = CorrelationSketch({"a", "b", "c"}).Summarize(*t, 0);
  auto corr = r.CorrelationMatrix();
  EXPECT_NEAR(corr[0 * 3 + 1], 1.0, 0.01);
  EXPECT_NEAR(corr[0 * 3 + 2], 0.0, 0.05);
  EXPECT_DOUBLE_EQ(corr[0], 1.0);
}

TEST(Pca, MergeMatchesWhole) {
  Random rng(32);
  std::vector<double> xs, ys;
  for (int i = 0; i < 3000; ++i) {
    xs.push_back(rng.NextGaussian());
    ys.push_back(xs.back() + rng.NextGaussian());
  }
  auto make = [&](size_t lo, size_t hi) {
    ColumnBuilder a(DataKind::kDouble), b(DataKind::kDouble);
    for (size_t i = lo; i < hi; ++i) {
      a.AppendDouble(xs[i]);
      b.AppendDouble(ys[i]);
    }
    return Table::Create(
        Schema({{"x", DataKind::kDouble}, {"y", DataKind::kDouble}}),
        {a.Finish(), b.Finish()});
  };
  CorrelationSketch sketch({"x", "y"});
  auto whole = sketch.Summarize(*make(0, 3000), 0);
  auto merged = sketch.Merge(sketch.Summarize(*make(0, 1000), 0),
                             sketch.Summarize(*make(1000, 3000), 0));
  EXPECT_EQ(merged.count, whole.count);
  for (size_t i = 0; i < whole.products.size(); ++i) {
    EXPECT_NEAR(merged.products[i], whole.products[i], 1e-6);
  }
}

TEST(Pca, JacobiRecoversKnownEigensystem) {
  // diag(3, 1) rotated by 45°: eigenvalues 3 and 1, eigenvectors (1,1)/√2
  // and (1,-1)/√2.
  std::vector<double> m = {2, 1, 1, 2};
  EigenDecomposition e = JacobiEigen(m, 2);
  ASSERT_EQ(e.eigenvalues.size(), 2u);
  EXPECT_NEAR(e.eigenvalues[0], 3.0, 1e-9);
  EXPECT_NEAR(e.eigenvalues[1], 1.0, 1e-9);
  double v0 = e.eigenvectors[0][0], v1 = e.eigenvectors[0][1];
  EXPECT_NEAR(std::fabs(v0), std::sqrt(0.5), 1e-9);
  EXPECT_NEAR(v0, v1, 1e-9);
}

TEST(Pca, BasisFindsDominantDirection) {
  Random rng(33);
  ColumnBuilder a(DataKind::kDouble), b(DataKind::kDouble);
  for (int i = 0; i < 10000; ++i) {
    double x = rng.NextGaussian();
    a.AppendDouble(x);
    b.AppendDouble(x + 0.1 * rng.NextGaussian());
  }
  TablePtr t = Table::Create(
      Schema({{"x", DataKind::kDouble}, {"y", DataKind::kDouble}}),
      {a.Finish(), b.Finish()});
  auto corr = CorrelationSketch({"x", "y"}).Summarize(*t, 0);
  auto basis = PcaBasis(corr, 1);
  ASSERT_EQ(basis.size(), 1u);
  // Dominant direction ~ (1,1)/√2 (up to sign).
  EXPECT_NEAR(std::fabs(basis[0][0]), std::sqrt(0.5), 0.05);
  EXPECT_NEAR(std::fabs(basis[0][1]), std::sqrt(0.5), 0.05);
}

// --- SaveAs -------------------------------------------------------------------

TEST(SaveAs, WritesPartitionAndMergesErrors) {
  std::string dir = ::testing::TempDir();
  TablePtr t = MakeDoubleTable("x", {1, 2, 3});
  SaveAsSketch sketch(dir, "save_test");
  SaveResult r1 = sketch.Summarize(*t, 0xABC);
  EXPECT_TRUE(r1.ok());
  EXPECT_EQ(r1.partitions_written, 1);
  EXPECT_EQ(r1.rows_written, 3);

  SaveAsSketch bad("/nonexistent-dir-zzz", "save_test");
  SaveResult r2 = bad.Summarize(*t, 0xDEF);
  EXPECT_FALSE(r2.ok());

  SaveResult merged = sketch.Merge(r1, r2);
  EXPECT_EQ(merged.partitions_written, 1);
  EXPECT_EQ(merged.errors.size(), 1u);

  auto back = ReadTableFile(dir + "/save_test-0000000000000abc.hvcf");
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value()->num_rows(), 3u);
}

// --- Sample size formulas -------------------------------------------------------

TEST(SampleSize, IndependentOfDataSize) {
  // The core scaling property: none of the formulas involve n.
  EXPECT_EQ(HistogramSampleSize(200, 25), HistogramSampleSize(200, 25));
  EXPECT_GT(HistogramSampleSize(400, 25), HistogramSampleSize(200, 25));
  EXPECT_GT(CdfSampleSize(400), CdfSampleSize(200));
  EXPECT_GT(HeavyHittersSampleSize(200), HeavyHittersSampleSize(100));
}

TEST(SampleSize, RateClampsToOne) {
  EXPECT_EQ(SampleRateForSize(1000, 10), 1.0);
  EXPECT_NEAR(SampleRateForSize(1000, 100000), 0.01, 1e-12);
  EXPECT_EQ(SampleRateForSize(5, 0), 1.0);
}

}  // namespace
}  // namespace hillview
