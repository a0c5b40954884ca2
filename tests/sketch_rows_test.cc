#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <limits>
#include <map>

#include "sketch/find_text.h"
#include "sketch/heavy_hitters.h"
#include "sketch/next_items.h"
#include "sketch/sample_size.h"
#include "spreadsheet/spreadsheet.h"
#include "storage/sort_key.h"
#include "storage/sort_key_cache.h"
#include "test_util.h"
#include "workload/flights.h"

namespace hillview {
namespace {

using testing::MakeIntTable;
using testing::MakeStringTable;

// --- Next items ---------------------------------------------------------------

TEST(NextItems, FirstPageFromStart) {
  TablePtr t = MakeIntTable("n", {5, 3, 9, 1, 7});
  NextItemsSketch sketch(RecordOrder({{"n", true}}), {}, std::nullopt, 3);
  NextItemsResult r = sketch.Summarize(*t, 0);
  ASSERT_EQ(r.rows.size(), 3u);
  EXPECT_EQ(r.rows[0].values[0], Value(int64_t{1}));
  EXPECT_EQ(r.rows[1].values[0], Value(int64_t{3}));
  EXPECT_EQ(r.rows[2].values[0], Value(int64_t{5}));
  EXPECT_EQ(r.rows_before, 0);
}

TEST(NextItems, StartKeyIsExclusive) {
  TablePtr t = MakeIntTable("n", {5, 3, 9, 1, 7});
  NextItemsSketch sketch(RecordOrder({{"n", true}}), {},
                         std::vector<Value>{Value(int64_t{5})}, 3);
  NextItemsResult r = sketch.Summarize(*t, 0);
  ASSERT_EQ(r.rows.size(), 2u);
  EXPECT_EQ(r.rows[0].values[0], Value(int64_t{7}));
  EXPECT_EQ(r.rows[1].values[0], Value(int64_t{9}));
  EXPECT_EQ(r.rows_before, 3);  // 1, 3, 5
}

TEST(NextItems, AggregatesDuplicatesWithCounts) {
  TablePtr t = MakeIntTable("n", {2, 2, 2, 1, 3, 1});
  NextItemsSketch sketch(RecordOrder({{"n", true}}), {}, std::nullopt, 2);
  NextItemsResult r = sketch.Summarize(*t, 0);
  ASSERT_EQ(r.rows.size(), 2u);
  EXPECT_EQ(r.rows[0].values[0], Value(int64_t{1}));
  EXPECT_EQ(r.rows[0].count, 2);
  EXPECT_EQ(r.rows[1].values[0], Value(int64_t{2}));
  EXPECT_EQ(r.rows[1].count, 3);
}

TEST(NextItems, DescendingOrder) {
  TablePtr t = MakeIntTable("n", {5, 3, 9});
  NextItemsSketch sketch(RecordOrder({{"n", false}}), {}, std::nullopt, 2);
  NextItemsResult r = sketch.Summarize(*t, 0);
  ASSERT_EQ(r.rows.size(), 2u);
  EXPECT_EQ(r.rows[0].values[0], Value(int64_t{9}));
  EXPECT_EQ(r.rows[1].values[0], Value(int64_t{5}));
}

TEST(NextItems, DisplayColumnsAreCarried) {
  ColumnBuilder n(DataKind::kInt), s(DataKind::kString);
  n.AppendInt(2);
  n.AppendInt(1);
  s.AppendString("two");
  s.AppendString("one");
  TablePtr t =
      Table::Create(Schema({{"n", DataKind::kInt}, {"s", DataKind::kString}}),
                    {n.Finish(), s.Finish()});
  NextItemsSketch sketch(RecordOrder({{"n", true}}), {"s"}, std::nullopt, 1);
  NextItemsResult r = sketch.Summarize(*t, 0);
  ASSERT_EQ(r.rows.size(), 1u);
  ASSERT_EQ(r.rows[0].values.size(), 2u);
  EXPECT_EQ(r.rows[0].values[1], Value(std::string("one")));
}

TEST(NextItems, MergeMatchesWholeDataset) {
  std::vector<int32_t> all;
  Random rng(3);
  for (int i = 0; i < 2000; ++i) {
    all.push_back(static_cast<int32_t>(rng.NextUint64(50)));
  }
  NextItemsSketch sketch(RecordOrder({{"n", true}}), {}, std::nullopt, 10);
  NextItemsResult whole = sketch.Summarize(*MakeIntTable("n", all), 0);

  NextItemsResult merged = sketch.Zero();
  for (int part = 0; part < 4; ++part) {
    std::vector<int32_t> chunk;
    for (size_t i = part; i < all.size(); i += 4) chunk.push_back(all[i]);
    merged =
        sketch.Merge(merged, sketch.Summarize(*MakeIntTable("n", chunk), 0));
  }
  ASSERT_EQ(merged.rows.size(), whole.rows.size());
  for (size_t i = 0; i < whole.rows.size(); ++i) {
    EXPECT_EQ(merged.rows[i].values, whole.rows[i].values);
    EXPECT_EQ(merged.rows[i].count, whole.rows[i].count);
  }
}

TEST(NextItems, MissingValuesSortLast) {
  ColumnBuilder b(DataKind::kInt);
  b.AppendMissing();
  b.AppendInt(1);
  b.AppendInt(2);
  TablePtr t = Table::Create(Schema({{"n", DataKind::kInt}}), {b.Finish()});
  NextItemsSketch sketch(RecordOrder({{"n", true}}), {}, std::nullopt, 3);
  NextItemsResult r = sketch.Summarize(*t, 0);
  ASSERT_EQ(r.rows.size(), 3u);
  EXPECT_EQ(r.rows[2].values[0], Value(std::monostate{}));
}

TEST(NextItems, PageLargerThanTheViewKeepsEveryRow) {
  // A page size beyond the view's row count (up to INT_MAX) returns every
  // distinct row with its count; the top-K reserves for the rows, not for k.
  std::vector<int32_t> values;
  // 150 values, 4 rows each, in shuffled row order.
  for (int i = 0; i < 600; ++i) values.push_back((i * 7) % 600 / 4);
  TablePtr t = MakeIntTable("n", values);
  NextItemsSketch sketch(RecordOrder({{"n", true}}), {}, std::nullopt,
                         std::numeric_limits<int>::max());
  auto expect_all = [](const NextItemsResult& r, int64_t distinct,
                       int64_t each) {
    ASSERT_EQ(static_cast<int64_t>(r.rows.size()), distinct);
    for (int64_t i = 0; i < distinct; ++i) {
      EXPECT_EQ(r.rows[i].values[0], Value(i));
      EXPECT_EQ(r.rows[i].count, each);
    }
    EXPECT_EQ(r.rows_before, 0);
  };
  // Keyed path: a full table makes building sort keys profitable.
  expect_all(sketch.Summarize(*t, 0), 150, 4);
  // Virtual path: without a key cache, a view of 1 row in 20 is too sparse
  // to build keys for.
  TablePtr sparse = t->Filter([](uint32_t r) { return r % 20 == 0; });
  NextItemsResult virt = sketch.Summarize(*sparse, 0);
  ASSERT_EQ(virt.rows.size(), 30u);
  for (size_t i = 0; i < virt.rows.size(); ++i) {
    EXPECT_EQ(virt.rows[i].values[0], Value(static_cast<int64_t>(i * 5)));
    EXPECT_EQ(virt.rows[i].count, 1);
  }

  // Through the spreadsheet: every flight is counted once, in strictly
  // ascending distinct rows.
  std::vector<TablePtr> parts;
  for (auto& load : workload::FlightsLoaders(1000, 250, /*seed=*/7)) {
    parts.push_back(load().value());
  }
  auto tc = testing::TestCluster::Create(parts);
  ASSERT_NE(tc, nullptr);
  Spreadsheet sheet(tc->root.get(), "data", {400, 200});
  RecordOrder order({{"Year", true},
                     {"Month", true},
                     {"DayOfMonth", true},
                     {"DepDelay", true},
                     {"Distance", true}});
  auto page = sheet.TableView(order, {}, std::nullopt,
                              std::numeric_limits<int>::max());
  ASSERT_TRUE(page.ok()) << page.status().ToString();
  auto compare_rows = [](const std::vector<Value>& a,
                         const std::vector<Value>& b) {
    for (size_t c = 0; c < a.size(); ++c) {
      if (int cmp = CompareValues(a[c], b[c]); cmp != 0) return cmp;
    }
    return 0;
  };
  int64_t total = 0;
  const auto& rows = page.value().rows;
  for (size_t i = 0; i < rows.size(); ++i) {
    total += rows[i].count;
    if (i > 0) {
      EXPECT_LT(compare_rows(rows[i - 1].values, rows[i].values), 0)
          << "row " << i;
    }
  }
  EXPECT_EQ(total, 1000);
  EXPECT_EQ(page.value().rows_before, 0);
}

// --- Next items: exact oracle ------------------------------------------------
//
// The keyed top-K must equal a brute force over the same members: sort them
// by RowComparator, group equal rows, drop rows at or before the start key
// (RowKeyComparator), keep the first K groups. The display column "id"
// checks that each group's representative is its first row.

constexpr uint32_t kOracleRows = 700;
constexpr int64_t kWideDate = 1'500'000'000'000LL;

/// One column of each key type, with small domains so equal groups form:
/// even ints, doubles drawn from NaN, ±inf, ±0.0 and a few finite values,
/// dates spread over more than 2^32 (a packed second component shifts),
/// strings, categories, and a missing cell in about 1 of 9 of each.
TablePtr MakeOracleTable() {
  Random rng(0x0AC1E);
  const double kDoubles[] = {std::numeric_limits<double>::quiet_NaN(),
                             std::numeric_limits<double>::infinity(),
                             -std::numeric_limits<double>::infinity(),
                             0.0,
                             -0.0,
                             1.5,
                             -2.25};
  ColumnBuilder i(DataKind::kInt), d(DataKind::kDouble), t(DataKind::kDate),
      s(DataKind::kString), c(DataKind::kCategory), id(DataKind::kInt);
  for (uint32_t r = 0; r < kOracleRows; ++r) {
    auto missing = [&] { return rng.NextUint64(9) == 0; };
    if (missing()) {
      i.AppendMissing();
    } else {
      i.AppendInt(2 * static_cast<int32_t>(rng.NextUint64(6)) - 4);
    }
    if (missing()) {
      d.AppendMissing();
    } else {
      d.AppendDouble(kDoubles[rng.NextUint64(7)]);
    }
    if (missing()) {
      t.AppendMissing();
    } else {
      t.AppendDate(kWideDate +
                   static_cast<int64_t>(rng.NextUint64(4)) * 3'000'000'000LL +
                   2 * static_cast<int64_t>(rng.NextUint64(3)));
    }
    if (missing()) {
      s.AppendMissing();
    } else {
      s.AppendString("v" + std::to_string(rng.NextUint64(6)));
    }
    if (missing()) {
      c.AppendMissing();
    } else {
      c.AppendString(std::string(1, static_cast<char>('a' + rng.NextUint64(4))));
    }
    id.AppendInt(static_cast<int32_t>(r));
  }
  return Table::Create(Schema({{"i", DataKind::kInt},
                               {"d", DataKind::kDouble},
                               {"t", DataKind::kDate},
                               {"s", DataKind::kString},
                               {"c", DataKind::kCategory},
                               {"id", DataKind::kInt}}),
                       {i.Finish(), d.Finish(), t.Finish(), s.Finish(),
                        c.Finish(), id.Finish()});
}

/// Cell values that sit between, below and above the column's present
/// values, and one of a type that does not embed in its key space.
struct OracleCells {
  Value between, low, high, foreign;
};

OracleCells CellsFor(const std::string& column) {
  if (column == "i") {
    return {Value(int64_t{1}), Value(int64_t{-100}), Value(int64_t{100}),
            Value(std::string("v3"))};
  }
  if (column == "d") {
    return {Value(0.75), Value(-std::numeric_limits<double>::infinity()),
            Value(std::numeric_limits<double>::infinity()),
            Value(std::string("v3"))};
  }
  if (column == "t") {
    return {Value(kWideDate + 1), Value(int64_t{0}),
            Value(kWideDate * 2), Value(std::string("v3"))};
  }
  if (column == "s") {
    return {Value(std::string("v2a")), Value(std::string("")),
            Value(std::string("zz")), Value(2.5)};
  }
  return {Value(std::string("bb")), Value(std::string("")),
          Value(std::string("zz")), Value(int64_t{3})};
}

/// Bitwise cell equality (NaN equals NaN, -0.0 differs from +0.0), so a
/// different representative of an equal group shows.
bool SameCell(const Value& a, const Value& b) {
  if (a.index() != b.index()) return false;
  if (const auto* da = std::get_if<double>(&a)) {
    return std::bit_cast<uint64_t>(*da) ==
           std::bit_cast<uint64_t>(std::get<double>(b));
  }
  return a == b;
}

struct OracleGroup {
  uint32_t rep;
  int64_t count;
};

/// Every distinct member row in the order, with its count and first row.
std::vector<OracleGroup> SortedGroups(const Table& table,
                                      const RecordOrder& order,
                                      const std::vector<uint32_t>& rows) {
  RowComparator cmp(table, order);
  std::vector<uint32_t> sorted = rows;
  std::sort(sorted.begin(), sorted.end(),
            [&](uint32_t a, uint32_t b) { return cmp.Less(a, b); });
  std::vector<OracleGroup> groups;
  for (uint32_t row : sorted) {
    if (!groups.empty() && cmp.Compare(groups.back().rep, row) == 0) {
      ++groups.back().count;
    } else {
      groups.push_back({row, 1});
    }
  }
  return groups;
}

/// The brute-force page: groups after the start key, the first K of them.
NextItemsResult OraclePage(const Table& table, const RecordOrder& order,
                           const std::vector<OracleGroup>& groups,
                           const std::optional<std::vector<Value>>& start,
                           int k) {
  NextItemsResult page;
  std::optional<RowKeyComparator> after;
  if (start.has_value()) after.emplace(table, order, *start);
  std::vector<std::string> columns = order.ColumnNames();
  columns.push_back("id");
  for (const OracleGroup& g : groups) {
    if (after.has_value() && after->Compare(g.rep) <= 0) {
      page.rows_before += g.count;
      continue;
    }
    if (static_cast<int>(page.rows.size()) == k) continue;
    RowSnapshot snap;
    snap.values = table.GetRow(g.rep, columns);
    snap.count = g.count;
    page.rows.push_back(std::move(snap));
  }
  return page;
}

std::vector<std::optional<std::vector<Value>>> OracleStartKeys(
    const Table& table, const RecordOrder& order,
    const std::vector<uint32_t>& rows) {
  const auto& orientations = order.orientations();
  const std::vector<std::string> columns = order.ColumnNames();
  std::vector<std::optional<std::vector<Value>>> keys = {std::nullopt};
  // Member rows' keys: the first, one in the middle, the last.
  for (uint32_t row : {rows.front(), rows[rows.size() / 2], rows.back()}) {
    keys.push_back(table.GetRow(row, columns));
  }
  const std::vector<Value> mid = table.GetRow(rows[rows.size() / 3], columns);
  auto with = [&](size_t cell, Value v) {
    std::vector<Value> key = mid;
    key[cell] = std::move(v);
    return key;
  };
  const OracleCells lead = CellsFor(orientations[0].column);
  const OracleCells last = CellsFor(orientations.back().column);
  // Between rows, on the leading cell and on the last one.
  keys.push_back(with(0, lead.between));
  keys.push_back(with(columns.size() - 1, last.between));
  // Below and above every row in value order (which of the two precedes
  // all rows depends on the direction).
  std::vector<Value> low, high;
  for (const auto& o : orientations) {
    low.push_back(CellsFor(o.column).low);
    high.push_back(CellsFor(o.column).high);
  }
  keys.push_back(low);
  keys.push_back(high);
  keys.push_back(with(0, Value(std::monostate{})));
  // Keys that do not embed: a foreign type on the leading cell, a
  // non-integral double (which embeds only for the double column), and a
  // foreign second cell under a packed first component.
  keys.push_back(with(0, lead.foreign));
  keys.push_back(with(0, Value(2.5)));
  if (columns.size() > 1) {
    keys.push_back(with(1, CellsFor(orientations[1].column).foreign));
  }
  return keys;
}

std::vector<uint32_t> MemberRows(const IMembershipSet& members) {
  std::vector<uint32_t> rows;
  ForEachRow(members, [&](uint32_t row) { rows.push_back(row); });
  return rows;
}

TEST(NextItems, KeyedTopKMatchesBruteForce) {
  TablePtr table = MakeOracleTable();
  // Dense members: all-ones runs (OnBlock) between partial and empty words
  // (OnValue); the last word holds the universe's 60-row tail.
  std::vector<uint64_t> words = {~0ULL, ~0ULL, ~0ULL, 0x5555555555555555ULL,
                                 0,     ~0ULL, ~0ULL, 0x00F0F0F00FF00F01ULL,
                                 ~0ULL, 0x8000000000000001ULL,
                                 (1ULL << 60) - 1};
  std::vector<uint32_t> sparse_rows;
  for (uint32_t r = 3; r < kOracleRows; r += 37) sparse_rows.push_back(r);
  const std::vector<std::pair<const char*, TablePtr>> views = {
      {"full", table},
      {"dense", table->WithMembership(std::make_shared<DenseMembership>(
                    std::move(words), kOracleRows))},
      {"sparse", table->WithMembership(std::make_shared<SparseMembership>(
                     std::move(sparse_rows), kOracleRows))}};
  ASSERT_EQ(views[1].second->members()->kind(), IMembershipSet::Kind::kDense);

  enum class Shape { kSingle, kPackedExact, kPackedShifted };
  const std::vector<std::pair<std::vector<std::string>, Shape>> orders = {
      {{"i"}, Shape::kSingle},
      {{"d"}, Shape::kSingle},
      {{"t"}, Shape::kSingle},
      {{"s"}, Shape::kSingle},
      {{"c"}, Shape::kSingle},
      {{"i", "t"}, Shape::kPackedShifted},
      {{"i", "s"}, Shape::kPackedExact},
      {{"s", "c", "i"}, Shape::kPackedExact},
      {{"t", "i"}, Shape::kSingle},
      {{"d", "s", "i"}, Shape::kSingle},
      {{"c", "t", "d", "s", "i"}, Shape::kPackedShifted},
      {{"i", "c", "d", "t", "s"}, Shape::kPackedExact},
  };
  const int kPageSizes[] = {1, 2, 20, static_cast<int>(kOracleRows) + 1};
  SortKeyCache cache;
  SketchContext with_cache;
  with_cache.key_cache = &cache;
  int pages = 0;
  for (const auto& [columns, shape] : orders) {
    // Directions: all ascending, all descending, and alternating both ways.
    for (int direction = 0; direction < 4; ++direction) {
      std::vector<ColumnSortOrientation> orientations;
      for (size_t c = 0; c < columns.size(); ++c) {
        bool ascending = direction == 0   ? true
                         : direction == 1 ? false
                                          : (c % 2 == 0) == (direction == 2);
        orientations.push_back({columns[c], ascending});
      }
      RecordOrder order(orientations);
      SortKeyPlan plan(*table, order);
      ASSERT_TRUE(plan.valid());
      plan.BuildKeys();
      EXPECT_EQ(plan.packed(), shape != Shape::kSingle) << columns[0];
      if (shape != Shape::kSingle) {
        EXPECT_EQ(plan.exact(), shape == Shape::kPackedExact) << columns[0];
      }
      for (const auto& [view_name, view] : views) {
        const std::vector<uint32_t> rows = MemberRows(*view->members());
        const std::vector<OracleGroup> groups =
            SortedGroups(*view, order, rows);
        const auto starts = OracleStartKeys(*view, order, rows);
        for (size_t s = 0; s < starts.size(); ++s) {
          for (int k : kPageSizes) {
            const NextItemsResult want =
                OraclePage(*view, order, groups, starts[s], k);
            NextItemsSketch sketch(order, {"id"}, starts[s], k);
            for (bool cached : {false, true}) {
              const NextItemsResult got =
                  cached ? sketch.Summarize(*view, 0, with_cache)
                         : sketch.Summarize(*view, 0);
              ++pages;
              const std::string where =
                  sketch.name() + " " + view_name + " start#" +
                  std::to_string(s) + (cached ? " cached" : " uncached");
              ASSERT_EQ(got.rows_before, want.rows_before) << where;
              ASSERT_EQ(got.rows.size(), want.rows.size()) << where;
              for (size_t r = 0; r < want.rows.size(); ++r) {
                ASSERT_EQ(got.rows[r].count, want.rows[r].count)
                    << where << " row " << r;
                ASSERT_EQ(got.rows[r].values.size(),
                          want.rows[r].values.size());
                for (size_t c = 0; c < want.rows[r].values.size(); ++c) {
                  ASSERT_TRUE(SameCell(got.rows[r].values[c],
                                       want.rows[r].values[c]))
                      << where << " row " << r << " cell " << c;
                }
              }
            }
          }
        }
      }
    }
  }
  EXPECT_GT(pages, 10000);
}

// --- Find text -----------------------------------------------------------------

TEST(FindText, SubstringCaseInsensitiveByDefault) {
  TablePtr t = MakeStringTable("s", {"Gandalf", "frodo", "GANDALF the grey"});
  StringFilter filter;
  filter.text = "gandalf";
  FindTextSketch sketch(RecordOrder({{"s", true}}), {"s"}, filter,
                        std::nullopt);
  FindResult r = sketch.Summarize(*t, 0);
  EXPECT_EQ(r.match_count, 2);
  ASSERT_TRUE(r.first_match.has_value());
  EXPECT_EQ((*r.first_match)[0], Value(std::string("GANDALF the grey")));
}

TEST(FindText, CaseSensitiveExact) {
  TablePtr t = MakeStringTable("s", {"abc", "ABC", "abcd"});
  StringFilter filter;
  filter.text = "abc";
  filter.mode = StringFilter::Mode::kExact;
  filter.case_sensitive = true;
  FindTextSketch sketch(RecordOrder({{"s", true}}), {"s"}, filter,
                        std::nullopt);
  FindResult r = sketch.Summarize(*t, 0);
  EXPECT_EQ(r.match_count, 1);
}

TEST(FindText, Regex) {
  TablePtr t = MakeStringTable("s", {"flight-123", "flight-9", "train-55"});
  StringFilter filter;
  filter.text = "^flight-[0-9]{3}$";
  filter.mode = StringFilter::Mode::kRegex;
  FindTextSketch sketch(RecordOrder({{"s", true}}), {"s"}, filter,
                        std::nullopt);
  EXPECT_EQ(sketch.Summarize(*t, 0).match_count, 1);
}

TEST(FindText, NextAfterStartKey) {
  TablePtr t = MakeStringTable("s", {"apple", "apricot", "banana", "avocado"});
  StringFilter filter;
  filter.text = "a";  // substring: everything with an 'a'
  FindTextSketch sketch(RecordOrder({{"s", true}}), {"s"}, filter,
                        std::vector<Value>{Value(std::string("apple"))});
  FindResult r = sketch.Summarize(*t, 0);
  EXPECT_EQ(r.match_count, 4);
  EXPECT_EQ(r.matches_before, 1);  // "apple" itself
  ASSERT_TRUE(r.first_match.has_value());
  EXPECT_EQ((*r.first_match)[0], Value(std::string("apricot")));
}

TEST(FindText, MergePicksEarliestMatch) {
  StringFilter filter;
  filter.text = "x";
  FindTextSketch sketch(RecordOrder({{"s", true}}), {"s"}, filter,
                        std::nullopt);
  auto r1 = sketch.Summarize(*MakeStringTable("s", {"xylophone"}), 0);
  auto r2 = sketch.Summarize(*MakeStringTable("s", {"axe", "box"}), 0);
  FindResult merged = sketch.Merge(r1, r2);
  EXPECT_EQ(merged.match_count, 3);
  EXPECT_EQ((*merged.first_match)[0], Value(std::string("axe")));
}

// --- Heavy hitters ---------------------------------------------------------------

std::vector<std::string> SkewedStrings(int n, uint64_t seed) {
  // "heavy" appears 30%, "medium" 10%, the rest are near-unique.
  Random rng(seed);
  std::vector<std::string> out;
  out.reserve(n);
  for (int i = 0; i < n; ++i) {
    double u = rng.NextDouble();
    if (u < 0.30) {
      out.push_back("heavy");
    } else if (u < 0.40) {
      out.push_back("medium");
    } else {
      out.push_back("rare-" + std::to_string(rng.NextUint64(100000)));
    }
  }
  return out;
}

TEST(MisraGries, FindsHeavyElements) {
  auto values = SkewedStrings(50000, 41);
  MisraGriesSketch sketch("s", 10);
  HeavyHittersResult r = sketch.Summarize(*MakeStringTable("s", values), 0);
  auto selected = r.Select(1.0 / 20);
  ASSERT_GE(selected.size(), 2u);
  EXPECT_EQ(selected[0].value, Value(std::string("heavy")));
  EXPECT_EQ(selected[1].value, Value(std::string("medium")));
}

TEST(MisraGries, UndercountBound) {
  // MG guarantee: true_count - N/(K+1) <= count <= true_count.
  auto values = SkewedStrings(20000, 42);
  std::map<std::string, int64_t> truth;
  for (const auto& v : values) ++truth[v];
  const int k = 20;
  MisraGriesSketch sketch("s", k);
  HeavyHittersResult r = sketch.Summarize(*MakeStringTable("s", values), 0);
  for (const auto& item : r.items) {
    int64_t true_count = truth[std::get<std::string>(item.value)];
    EXPECT_LE(item.count, true_count);
    EXPECT_GE(item.count, true_count - static_cast<int64_t>(values.size()) / k);
  }
}

TEST(MisraGries, MergePreservesHeavyElements) {
  auto a = SkewedStrings(20000, 43);
  auto b = SkewedStrings(20000, 44);
  MisraGriesSketch sketch("s", 10);
  auto ra = sketch.Summarize(*MakeStringTable("s", a), 0);
  auto rb = sketch.Summarize(*MakeStringTable("s", b), 0);
  auto merged = sketch.Merge(ra, rb);
  EXPECT_LE(merged.items.size(), 10u);
  auto selected = merged.Select(1.0 / 20);
  ASSERT_FALSE(selected.empty());
  EXPECT_EQ(selected[0].value, Value(std::string("heavy")));
}

TEST(SampledHeavyHitters, Theorem4Guarantees) {
  const int k = 10;
  const double delta = 0.01;
  auto values = SkewedStrings(200000, 45);
  uint64_t n = HeavyHittersSampleSize(k, delta);
  double rate = SampleRateForSize(n, values.size());
  SampledHeavyHittersSketch sketch("s", k, rate);
  HeavyHittersResult r = sketch.Summarize(*MakeStringTable("s", values), 99);
  auto selected = r.Select(3.0 / (4 * k));
  // All elements above 1/K must be found ("heavy" 30%, "medium" 10%).
  std::set<std::string> names;
  for (const auto& item : selected) {
    names.insert(std::get<std::string>(item.value));
  }
  EXPECT_TRUE(names.count("heavy"));
  EXPECT_TRUE(names.count("medium"));
  // Nothing below 1/(4K) = 2.5% may appear; every "rare-*" is ~0.001%.
  for (const auto& name : names) {
    EXPECT_TRUE(name == "heavy" || name == "medium") << name;
  }
}

TEST(SampledHeavyHitters, MergeAddsSampleCounts) {
  SampledHeavyHittersSketch sketch("s", 5, 0.5);
  auto a = sketch.Summarize(*MakeStringTable("s", {"x", "x", "y"}), 1);
  auto b = sketch.Summarize(*MakeStringTable("s", {"x", "z"}), 2);
  auto merged = sketch.Merge(a, b);
  EXPECT_EQ(merged.rows_counted, a.rows_counted + b.rows_counted);
}

TEST(HeavyHittersResult, SelectSortsByCount) {
  HeavyHittersResult r;
  r.max_size = 3;
  r.rows_counted = 100;
  r.items = {{Value(std::string("b")), 30},
             {Value(std::string("a")), 50},
             {Value(std::string("c")), 5}};
  auto selected = r.Select(0.1);
  ASSERT_EQ(selected.size(), 2u);
  EXPECT_EQ(selected[0].value, Value(std::string("a")));
  EXPECT_EQ(selected[1].value, Value(std::string("b")));
}

}  // namespace
}  // namespace hillview
