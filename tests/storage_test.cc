#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>

#include "storage/column.h"
#include "storage/columnar_file.h"
#include "storage/csv.h"
#include "storage/membership.h"
#include "storage/row_order.h"
#include "storage/table.h"
#include "test_util.h"
#include "util/stopwatch.h"

namespace hillview {
namespace {

using testing::MakeDoubleTable;
using testing::MakeIntTable;
using testing::MakeStringTable;

TEST(Value, CompareNumeric) {
  EXPECT_LT(CompareValues(Value(int64_t{1}), Value(int64_t{2})), 0);
  EXPECT_EQ(CompareValues(Value(int64_t{5}), Value(5.0)), 0);
  EXPECT_GT(CompareValues(Value(2.5), Value(int64_t{2})), 0);
}

TEST(Value, MissingSortsLast) {
  EXPECT_LT(CompareValues(Value(int64_t{1}), Value(std::monostate{})), 0);
  EXPECT_LT(CompareValues(Value(std::string("z")), Value(std::monostate{})),
            0);
  EXPECT_EQ(CompareValues(Value(std::monostate{}), Value(std::monostate{})),
            0);
}

TEST(Value, NumbersBeforeStrings) {
  EXPECT_LT(CompareValues(Value(int64_t{99}), Value(std::string("a"))), 0);
}

TEST(Value, ToString) {
  EXPECT_EQ(ValueToString(Value(std::monostate{})), "");
  EXPECT_EQ(ValueToString(Value(int64_t{42})), "42");
  EXPECT_EQ(ValueToString(Value(std::string("hi"))), "hi");
}

TEST(Column, IntBuilderRoundTrip) {
  ColumnBuilder b(DataKind::kInt);
  b.AppendInt(3);
  b.AppendMissing();
  b.AppendInt(-7);
  ColumnPtr col = b.Finish();
  EXPECT_EQ(col->size(), 3u);
  EXPECT_EQ(col->kind(), DataKind::kInt);
  EXPECT_FALSE(col->IsMissing(0));
  EXPECT_TRUE(col->IsMissing(1));
  EXPECT_EQ(col->GetDouble(2), -7.0);
  EXPECT_EQ(col->GetValue(0), Value(int64_t{3}));
  EXPECT_EQ(col->GetValue(1), Value(std::monostate{}));
}

TEST(Column, DictionaryIsSortedAndCodesRespectOrder) {
  ColumnBuilder b(DataKind::kString);
  b.AppendString("pear");
  b.AppendString("apple");
  b.AppendString("mango");
  b.AppendString("apple");
  ColumnPtr col = b.Finish();
  const auto& dict = col->Dictionary();
  ASSERT_EQ(dict.size(), 3u);
  for (uint32_t i = 1; i < dict.size(); ++i) {
    EXPECT_LE(dict[i - 1], dict[i]);
  }
  // Row 1 ("apple") must compare below row 2 ("mango") below row 0 ("pear").
  EXPECT_LT(col->CompareRows(1, 2), 0);
  EXPECT_LT(col->CompareRows(2, 0), 0);
  EXPECT_EQ(col->CompareRows(1, 3), 0);
  EXPECT_EQ(col->GetString(0), "pear");
}

TEST(Column, MissingStringSortsLast) {
  ColumnBuilder b(DataKind::kString);
  b.AppendString("zzz");
  b.AppendMissing();
  ColumnPtr col = b.Finish();
  EXPECT_LT(col->CompareRows(0, 1), 0);
  EXPECT_TRUE(col->IsMissing(1));
  EXPECT_EQ(col->GetString(1), "");
}

TEST(Column, HashStableAcrossPartitions) {
  // Equal values in different columns (different dictionaries) must hash
  // identically — merging HLL/bottom-k across partitions depends on it.
  ColumnBuilder b1(DataKind::kString);
  b1.AppendString("x");
  b1.AppendString("same");
  ColumnBuilder b2(DataKind::kString);
  b2.AppendString("same");
  ColumnPtr c1 = b1.Finish(), c2 = b2.Finish();
  EXPECT_EQ(c1->HashRow(1, 7), c2->HashRow(0, 7));
}

TEST(Column, DoubleRawAccess) {
  ColumnBuilder b(DataKind::kDouble);
  b.AppendDouble(1.5);
  b.AppendDouble(2.5);
  ColumnPtr col = b.Finish();
  ASSERT_NE(col->RawDouble(), nullptr);
  EXPECT_EQ(col->RawDouble()[1], 2.5);
  EXPECT_EQ(col->RawInt(), nullptr);
}

TEST(Membership, FullBasics) {
  FullMembership m(10);
  EXPECT_EQ(m.size(), 10u);
  EXPECT_TRUE(m.Contains(9));
  EXPECT_FALSE(m.Contains(10));
  int count = 0;
  ForEachRow(m, [&](uint32_t) { ++count; });
  EXPECT_EQ(count, 10);
}

TEST(Membership, FilterPicksDenseForDenseSelection) {
  FullMembership base(1000);
  auto dense = FilterMembership(base, [](uint32_t r) { return r % 2 == 0; });
  EXPECT_EQ(dense->kind(), IMembershipSet::Kind::kDense);
  EXPECT_EQ(dense->size(), 500u);
  EXPECT_TRUE(dense->Contains(4));
  EXPECT_FALSE(dense->Contains(5));
}

TEST(Membership, FilterPicksSparseForRareSelection) {
  FullMembership base(100000);
  auto sparse =
      FilterMembership(base, [](uint32_t r) { return r % 1000 == 0; });
  EXPECT_EQ(sparse->kind(), IMembershipSet::Kind::kSparse);
  EXPECT_EQ(sparse->size(), 100u);
  EXPECT_TRUE(sparse->Contains(99000));
  EXPECT_FALSE(sparse->Contains(99001));
}

TEST(Membership, IterationIsInOrder) {
  FullMembership base(1000);
  auto filtered =
      FilterMembership(base, [](uint32_t r) { return r % 7 == 3; });
  uint32_t prev = 0;
  bool first = true;
  ForEachRow(*filtered, [&](uint32_t r) {
    if (!first) {
      EXPECT_GT(r, prev);
    }
    prev = r;
    first = false;
    EXPECT_EQ(r % 7, 3u);
  });
}

TEST(Membership, NestedFilterComposes) {
  FullMembership base(10000);
  auto first = FilterMembership(base, [](uint32_t r) { return r % 2 == 0; });
  auto second =
      FilterMembership(*first, [](uint32_t r) { return r % 3 == 0; });
  EXPECT_EQ(second->size(), 10000u / 6 + 1);
  ForEachRow(*second, [&](uint32_t r) { EXPECT_EQ(r % 6, 0u); });
}

class SampleRowsTest : public ::testing::TestWithParam<int> {};

TEST_P(SampleRowsTest, SampleRateIsHonored) {
  // Property: sampling at rate p yields ~p*n rows for every representation.
  int style = GetParam();
  const uint32_t n = 200000;
  MembershipPtr m;
  FullMembership base(n);
  switch (style) {
    case 0:
      m = std::make_shared<FullMembership>(n);
      break;
    case 1:
      m = FilterMembership(base, [](uint32_t r) { return r % 2 == 0; });
      break;
    default:
      m = FilterMembership(base, [](uint32_t r) { return r % 100 == 0; });
      break;
  }
  const double rate = 0.1;
  int sampled = 0;
  SampleRows(*m, rate, /*seed=*/42, [&](uint32_t row) {
    EXPECT_TRUE(m->Contains(row));
    ++sampled;
  });
  double expected = rate * m->size();
  EXPECT_NEAR(sampled, expected, 4 * std::sqrt(expected) + 1);
}

TEST_P(SampleRowsTest, SamplingIsDeterministicInSeed) {
  int style = GetParam();
  const uint32_t n = 10000;
  FullMembership base(n);
  MembershipPtr m =
      style == 0 ? MembershipPtr(std::make_shared<FullMembership>(n))
      : style == 1
          ? FilterMembership(base, [](uint32_t r) { return r % 2 == 0; })
          : FilterMembership(base, [](uint32_t r) { return r % 97 == 0; });
  std::vector<uint32_t> a, b;
  SampleRows(*m, 0.05, 7, [&](uint32_t r) { a.push_back(r); });
  SampleRows(*m, 0.05, 7, [&](uint32_t r) { b.push_back(r); });
  EXPECT_EQ(a, b);
  std::vector<uint32_t> c;
  SampleRows(*m, 0.05, 8, [&](uint32_t r) { c.push_back(r); });
  EXPECT_NE(a, c);
}

INSTANTIATE_TEST_SUITE_P(AllRepresentations, SampleRowsTest,
                         ::testing::Values(0, 1, 2));

TEST(Table, FilterSharesColumns) {
  TablePtr t = MakeDoubleTable("x", {1, 2, 3, 4, 5});
  TablePtr f = t->Filter([&](uint32_t r) { return t->column(0)->GetDouble(r) > 2; });
  EXPECT_EQ(f->num_rows(), 3u);
  EXPECT_EQ(f->universe_size(), 5u);
  // Same physical column object.
  EXPECT_EQ(f->column(0).get(), t->column(0).get());
}

TEST(Table, ProjectAndGetRow) {
  ColumnBuilder a(DataKind::kInt), b(DataKind::kString);
  a.AppendInt(1);
  a.AppendInt(2);
  b.AppendString("one");
  b.AppendString("two");
  TablePtr t = Table::Create(
      Schema({{"n", DataKind::kInt}, {"s", DataKind::kString}}),
      {a.Finish(), b.Finish()});
  TablePtr p = t->Project({"s"});
  EXPECT_EQ(p->num_columns(), 1);
  auto row = t->GetRow(1, {"s", "n"});
  EXPECT_EQ(row[0], Value(std::string("two")));
  EXPECT_EQ(row[1], Value(int64_t{2}));
}

TEST(Table, WithColumnAppends) {
  TablePtr t = MakeIntTable("a", {1, 2, 3});
  ColumnBuilder b(DataKind::kInt);
  for (int i = 0; i < 3; ++i) b.AppendInt(i * 10);
  TablePtr t2 = t->WithColumn({"b", DataKind::kInt}, b.Finish());
  EXPECT_EQ(t2->num_columns(), 2);
  EXPECT_EQ(t2->GetRow(2, {"b"})[0], Value(int64_t{20}));
  EXPECT_EQ(t->num_columns(), 1);  // original untouched
}

TEST(Table, GetColumnErrors) {
  TablePtr t = MakeIntTable("a", {1});
  EXPECT_TRUE(t->GetColumn("a").ok());
  EXPECT_EQ(t->GetColumn("zz").status().code(), StatusCode::kNotFound);
  EXPECT_EQ(t->GetColumnOrNull("zz"), nullptr);
}

TEST(Table, PartitionRowCounts) {
  auto counts = PartitionRowCounts(25, 10);
  ASSERT_EQ(counts.size(), 3u);
  EXPECT_EQ(counts[0], 10u);
  EXPECT_EQ(counts[2], 5u);
  EXPECT_TRUE(PartitionRowCounts(0, 10).empty());
}

TEST(RowOrder, ComparatorHonorsDirectionAndTies) {
  ColumnBuilder a(DataKind::kInt), b(DataKind::kString);
  for (int v : {1, 1, 2}) a.AppendInt(v);
  for (const char* s : {"b", "a", "c"}) b.AppendString(s);
  TablePtr t = Table::Create(
      Schema({{"n", DataKind::kInt}, {"s", DataKind::kString}}),
      {a.Finish(), b.Finish()});
  RowComparator cmp(*t, RecordOrder({{"n", true}, {"s", false}}));
  EXPECT_LT(cmp.Compare(0, 2), 0);  // 1 < 2 on n
  EXPECT_LT(cmp.Compare(0, 1), 0);  // tie on n, "b" > "a" descending
  RowComparator cmp_desc(*t, RecordOrder({{"n", false}}));
  EXPECT_GT(cmp_desc.Compare(0, 2), 0);
}

TEST(RowOrder, CompareRowToKey) {
  TablePtr t = MakeIntTable("n", {5, 10, 15});
  RecordOrder order({{"n", true}});
  RowKeyComparator cmp(*t, order, {Value(int64_t{10})});
  EXPECT_LT(cmp.Compare(0), 0);
  EXPECT_EQ(cmp.Compare(1), 0);
  EXPECT_GT(cmp.Compare(2), 0);
}

TEST(Csv, RoundTrip) {
  ColumnBuilder a(DataKind::kInt), b(DataKind::kString);
  a.AppendInt(1);
  a.AppendMissing();
  b.AppendString("plain");
  b.AppendString("has,comma \"and\" quotes");
  TablePtr t = Table::Create(
      Schema({{"num", DataKind::kInt}, {"text", DataKind::kString}}),
      {a.Finish(), b.Finish()});
  std::string path = ::testing::TempDir() + "/hv_csv_roundtrip.csv";
  ASSERT_TRUE(WriteCsv(*t, path).ok());
  auto back = ReadCsv(path);
  ASSERT_TRUE(back.ok());
  TablePtr t2 = back.value();
  EXPECT_EQ(t2->num_rows(), 2u);
  EXPECT_EQ(t2->GetRow(1, {"text"})[0],
            Value(std::string("has,comma \"and\" quotes")));
  EXPECT_TRUE(t2->column(0)->IsMissing(1));
  std::remove(path.c_str());
}

TEST(Csv, KindInference) {
  auto t = ReadCsvText("a,b,c\n1,1.5,x\n2,2.5,y\n");
  ASSERT_TRUE(t.ok());
  EXPECT_EQ(t.value()->schema().column(0).kind, DataKind::kInt);
  EXPECT_EQ(t.value()->schema().column(1).kind, DataKind::kDouble);
  EXPECT_EQ(t.value()->schema().column(2).kind, DataKind::kString);
}

TEST(Csv, ExplicitSchemaOverridesInference) {
  Schema schema({{"a", DataKind::kDouble}});
  CsvOptions options;
  options.schema = &schema;
  auto t = ReadCsvText("a\n1\n2\n", options);
  ASSERT_TRUE(t.ok());
  EXPECT_EQ(t.value()->schema().column(0).kind, DataKind::kDouble);
}

TEST(Csv, MissingFieldsBecomeMissing) {
  auto t = ReadCsvText("a,b\n1,\n,2\n");
  ASSERT_TRUE(t.ok());
  EXPECT_TRUE(t.value()->column(1)->IsMissing(0));
  EXPECT_TRUE(t.value()->column(0)->IsMissing(1));
}

TEST(Csv, ErrorsOnMissingFile) {
  EXPECT_EQ(ReadCsv("/nonexistent/x.csv").status().code(),
            StatusCode::kIoError);
}

TablePtr MixedTable() {
  ColumnBuilder a(DataKind::kInt), b(DataKind::kDouble),
      c(DataKind::kString), d(DataKind::kDate);
  for (int i = 0; i < 100; ++i) {
    if (i % 10 == 3) {
      a.AppendMissing();
    } else {
      a.AppendInt(i);
    }
    b.AppendDouble(i * 1.5);
    c.AppendString(i % 2 == 0 ? "even" : "odd");
    d.AppendDate(1000000LL * i);
  }
  return Table::Create(Schema({{"i", DataKind::kInt},
                               {"d", DataKind::kDouble},
                               {"s", DataKind::kString},
                               {"t", DataKind::kDate}}),
                       {a.Finish(), b.Finish(), c.Finish(), d.Finish()});
}

TEST(ColumnarFile, RoundTrip) {
  TablePtr t = MixedTable();
  std::string path = ::testing::TempDir() + "/hv_roundtrip.hvcf";
  ASSERT_TRUE(WriteTableFile(*t, path).ok());
  auto back = ReadTableFile(path);
  ASSERT_TRUE(back.ok());
  TablePtr t2 = back.value();
  ASSERT_EQ(t2->num_rows(), t->num_rows());
  ASSERT_EQ(t2->num_columns(), t->num_columns());
  for (uint32_t r = 0; r < t->num_rows(); r += 17) {
    EXPECT_EQ(t2->GetRow(r, {"i", "d", "s", "t"}),
              t->GetRow(r, {"i", "d", "s", "t"}));
  }
  std::remove(path.c_str());
}

TEST(ColumnarFile, CompactsFilteredRows) {
  TablePtr t = MixedTable();
  TablePtr f = t->Filter([](uint32_t r) { return r < 10; });
  std::string path = ::testing::TempDir() + "/hv_compact.hvcf";
  ASSERT_TRUE(WriteTableFile(*f, path).ok());
  auto back = ReadTableFile(path);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value()->num_rows(), 10u);
  EXPECT_EQ(back.value()->universe_size(), 10u);
  std::remove(path.c_str());
}

TEST(ColumnarFile, ColumnSubsetRead) {
  TablePtr t = MixedTable();
  std::string path = ::testing::TempDir() + "/hv_subset.hvcf";
  ASSERT_TRUE(WriteTableFile(*t, path).ok());
  ReadOptions options;
  options.columns = {"s", "i"};
  auto back = ReadTableFile(path, options);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value()->num_columns(), 2);
  EXPECT_NE(back.value()->GetColumnOrNull("s"), nullptr);
  EXPECT_EQ(back.value()->GetColumnOrNull("d"), nullptr);

  auto all_bytes = TableFileBytes(path);
  auto some_bytes = TableFileBytes(path, {"i"});
  ASSERT_TRUE(all_bytes.ok());
  ASSERT_TRUE(some_bytes.ok());
  EXPECT_LT(some_bytes.value(), all_bytes.value());
  std::remove(path.c_str());
}

TEST(ColumnarFile, ThrottledReadTakesLonger) {
  ColumnBuilder b(DataKind::kDouble);
  for (int i = 0; i < 200000; ++i) b.AppendDouble(i);
  TablePtr t =
      Table::Create(Schema({{"x", DataKind::kDouble}}), {b.Finish()});
  std::string path = ::testing::TempDir() + "/hv_throttle.hvcf";
  ASSERT_TRUE(WriteTableFile(*t, path).ok());

  Stopwatch fast_watch;
  ASSERT_TRUE(ReadTableFile(path).ok());
  double fast = fast_watch.ElapsedSeconds();

  ReadOptions slow;
  slow.bytes_per_second = 8e6;  // ~1.6MB payload -> ~0.2s
  Stopwatch slow_watch;
  ASSERT_TRUE(ReadTableFile(path, slow).ok());
  double throttled = slow_watch.ElapsedSeconds();
  EXPECT_GT(throttled, fast);
  EXPECT_GT(throttled, 0.1);
  std::remove(path.c_str());
}

TEST(ColumnarFile, RejectsGarbage) {
  std::string path = ::testing::TempDir() + "/hv_garbage.hvcf";
  std::FILE* f = std::fopen(path.c_str(), "wb");
  std::fputs("not a columnar file at all", f);
  std::fclose(f);
  EXPECT_FALSE(ReadTableFile(path).ok());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace hillview
