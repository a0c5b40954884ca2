// Wire robustness: every summary's Deserialize must survive hostile bytes.
// Truncation at *every* prefix length must return an error Status (each
// deserializer consumes exactly what Serialize wrote, so a strict prefix can
// never satisfy it), and random bit flips must either parse (as garbage) or
// error — never crash, over-allocate, or trip ASan/UBSan. This is the
// contract the simulated cluster relies on when it injects corruption
// (RemoteDataSet drops undecodable messages) and what keeps a byzantine
// worker from taking down the root.

#include <gtest/gtest.h>

#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "sketch/find_text.h"
#include "sketch/heavy_hitters.h"
#include "sketch/histogram.h"
#include "sketch/histogram2d.h"
#include "sketch/hyperloglog.h"
#include "sketch/next_items.h"
#include "sketch/pca.h"
#include "sketch/quantile.h"
#include "sketch/range_moments.h"
#include "sketch/save_as.h"
#include "sketch/string_quantiles.h"
#include "storage/sort_key.h"
#include "util/random.h"
#include "util/serialize.h"

namespace hillview {
namespace {

/// Serializes `value`, checks the full buffer round-trips, then attacks it:
/// every truncation must error; `kFlips` random bit flips must never crash
/// (a flipped buffer may parse OK as garbage — that is acceptable; what is
/// not acceptable is UB, a crash, or a giant allocation from a corrupted
/// count, all of which ASan/UBSan turn into failures).
template <typename R>
void CheckWire(const R& value, const char* what) {
  ByteWriter w;
  value.Serialize(&w);
  std::vector<uint8_t> bytes = w.Take();
  ASSERT_FALSE(bytes.empty()) << what;

  {
    ByteReader r(bytes);
    R out;
    ASSERT_TRUE(R::Deserialize(&r, &out).ok()) << what;
    EXPECT_TRUE(r.AtEnd()) << what << ": deserialize left trailing bytes";
  }

  for (size_t len = 0; len < bytes.size(); ++len) {
    ByteReader r(bytes.data(), len);
    R out;
    Status st = R::Deserialize(&r, &out);
    EXPECT_FALSE(st.ok()) << what << " parsed OK truncated to " << len
                          << " of " << bytes.size() << " bytes";
  }

  constexpr int kFlips = 512;
  Random rng(HashBytes(what, std::strlen(what), 0xF1A9));
  for (int f = 0; f < kFlips; ++f) {
    std::vector<uint8_t> mutated = bytes;
    size_t byte = rng.NextUint64(mutated.size());
    mutated[byte] ^= static_cast<uint8_t>(1u << rng.NextUint64(8));
    // Occasionally flip a second bit (length prefixes are multi-byte).
    if (rng.NextUint64(4) == 0) {
      size_t byte2 = rng.NextUint64(mutated.size());
      mutated[byte2] ^= static_cast<uint8_t>(1u << rng.NextUint64(8));
    }
    ByteReader r(mutated);
    R out;
    (void)R::Deserialize(&r, &out);  // must not crash; status may be either
  }
}

TEST(WireRobustness, Histogram) {
  HistogramResult h;
  h.counts = {5, 0, 3, 12};
  h.missing = 2;
  h.out_of_range = 1;
  h.rows_scanned = 23;
  h.sample_rate = 0.5;
  CheckWire(h, "HistogramResult");
}

Histogram2DResult MakeGrid() {
  Histogram2DResult g;
  g.x_buckets = 2;
  g.y_buckets = 3;
  g.xy = {1, 0, 4, 2, 2, 0};
  g.x_counts = {6, 4};
  g.missing_x = 1;
  g.missing_y = 2;
  g.out_of_range = 3;
  g.rows_scanned = 16;
  g.sample_rate = 1.0;
  return g;
}

TEST(WireRobustness, Histogram2D) { CheckWire(MakeGrid(), "Histogram2DResult"); }

TEST(WireRobustness, Trellis) {
  TrellisResult t;
  t.groups = {MakeGrid(), MakeGrid()};
  t.missing_w = 4;
  t.out_of_range_w = 1;
  CheckWire(t, "TrellisResult");
}

TEST(WireRobustness, HeavyHitters) {
  HeavyHittersResult hh;
  // One item per Value alternative, so every tag crosses the wire.
  hh.items = {{Value(std::string("AA")), 31},
              {Value(static_cast<int64_t>(7)), 12},
              {Value(2.5), 9},
              {Value(std::monostate{}), 3}};
  hh.rows_counted = 55;
  hh.missing = 3;
  hh.sample_rate = 1.0;
  hh.max_size = 8;
  CheckWire(hh, "HeavyHittersResult");
}

TEST(WireRobustness, HyperLogLog) {
  HllResult hll;
  hll.registers.assign(64, 0);
  for (size_t z = 0; z < hll.registers.size(); z += 3) {
    hll.registers[z] = static_cast<uint8_t>(z % 17);
  }
  hll.missing = 6;
  CheckWire(hll, "HllResult");
}

/// One string cell's word: `offset << 32 | length` into the summary's pool.
uint64_t PoolView(uint64_t offset, uint64_t length) {
  return offset << 32 | length;
}

TEST(WireRobustness, Quantile) {
  // Keys (1.5, "aa"), (-4, missing), (3.25, "zz"): an int and doubles in
  // one column, strings and a missing cell in the other, so both columns
  // carry per-cell classes.
  QuantileResult q;
  q.pool = "aazz";
  QuantileColumn numbers;
  numbers.classes = {KeyClass::kDouble, KeyClass::kInt, KeyClass::kDouble};
  numbers.words = {EncodeF64(1.5), EncodeI64(-4), EncodeF64(3.25)};
  QuantileColumn strings;
  strings.classes = {KeyClass::kString, KeyClass::kMissing, KeyClass::kString};
  strings.words = {PoolView(0, 2), 0, PoolView(2, 2)};
  q.columns = {numbers, strings};
  q.weights = {1, 1, 1};  // unit weights serialize in the elided form
  q.rate = 0.25;
  q.max_size = 100;
  CheckWire(q, "QuantileResult");

  ByteWriter w;
  q.Serialize(&w);
  std::vector<uint8_t> bytes = w.Take();
  ByteReader r(bytes);
  QuantileResult out;
  ASSERT_TRUE(QuantileResult::Deserialize(&r, &out).ok());
  EXPECT_EQ(out.Key(0),
            (std::vector<Value>{Value(1.5), Value(std::string("aa"))}));
  EXPECT_EQ(out.Key(1),
            (std::vector<Value>{Value(int64_t{-4}), Value(std::monostate{})}));
  EXPECT_EQ(out.Key(2),
            (std::vector<Value>{Value(3.25), Value(std::string("zz"))}));
}

TEST(WireRobustness, QuantileWeighted) {
  QuantileResult q;
  QuantileColumn doubles;
  doubles.kind = KeyClass::kDouble;
  doubles.words = {EncodeF64(1.5), EncodeF64(2.5), EncodeF64(9.0)};
  q.columns = {doubles};
  q.weights = {1, 4, 2};  // a compacted summary carries explicit weights
  q.rate = 0.5;
  q.max_size = 3;
  q.seed = 0xD00DFEED;
  q.error.worst = 3;
  q.error.variance = 5.0;
  CheckWire(q, "QuantileResult(weighted)");

  ByteWriter w;
  q.Serialize(&w);
  std::vector<uint8_t> bytes = w.Take();
  ByteReader r(bytes);
  QuantileResult out;
  ASSERT_TRUE(QuantileResult::Deserialize(&r, &out).ok());
  EXPECT_EQ(out.weights, q.weights);
  EXPECT_EQ(out.seed, q.seed);
  EXPECT_EQ(out.error.worst, q.error.worst);
  EXPECT_DOUBLE_EQ(out.error.variance, q.error.variance);
}

/// One hand-built column of a quantile payload: its tag (a KeyClass, or 4
/// for per-cell classes, which are then written), its classes and words.
struct WireColumn {
  uint8_t tag;
  std::vector<uint8_t> classes;
  std::vector<uint64_t> words;
};

constexpr uint8_t kPerCellTag = 4;

/// Serializes a quantile payload in the column-wise layout from raw parts,
/// so each guard can be hit in isolation: `items` need not match the
/// columns, and `exponents` (empty: unit weights, elided) travel as given.
std::vector<uint8_t> QuantileBytes(uint32_t items, const std::string& pool,
                                   const std::vector<WireColumn>& columns,
                                   const std::vector<uint8_t>& exponents,
                                   double rate = 0.5, int32_t max_size = 8,
                                   double error_variance = 0.0,
                                   uint64_t error_worst = 0,
                                   bool magic = true) {
  ByteWriter w;
  if (magic) w.WriteU32(0x4B4C4C32);  // the column-wise format's magic
  w.WriteU32(items);
  w.WriteU32(static_cast<uint32_t>(columns.size()));
  w.WriteBool(!exponents.empty());
  w.WriteString(pool);
  for (const WireColumn& column : columns) {
    w.WriteU8(column.tag);
    if (column.tag == kPerCellTag) w.WritePodVector(column.classes);
    w.WritePodVector(column.words);
  }
  for (uint8_t exponent : exponents) w.WriteU8(exponent);
  w.WriteDouble(rate);
  w.WriteI32(max_size);
  w.WriteU64(/*seed=*/1);
  w.WriteU64(error_worst);
  w.WriteDouble(error_variance);
  return w.Take();
}

/// A double column holding 0, 1, 2, ... — `n` well-formed cells.
WireColumn DoubleColumn(size_t n) {
  WireColumn column{static_cast<uint8_t>(KeyClass::kDouble), {}, {}};
  for (size_t i = 0; i < n; ++i) {
    column.words.push_back(EncodeF64(static_cast<double>(i)));
  }
  return column;
}

TEST(WireRobustness, QuantileWithoutMagicWordIsRejected) {
  // Summaries are soft state and never persisted, so every quantile payload
  // opens with the magic word. One that does not — here the column-wise
  // layout of two keys without it — is rejected whole and at every prefix.
  std::vector<uint8_t> bytes =
      QuantileBytes(2, "", {DoubleColumn(2)}, {}, 0.125, 64, 0.0, 0,
                    /*magic=*/false);

  for (size_t len = 0; len <= bytes.size(); ++len) {
    ByteReader prefix(bytes.data(), len);
    QuantileResult out;
    EXPECT_FALSE(QuantileResult::Deserialize(&prefix, &out).ok())
        << "payload without the magic word parsed OK at length " << len;
  }
}

/// Serializes a syntactically well-formed weighted quantile payload with
/// caller-chosen scalars (weights travel as power-of-two exponent bytes),
/// so each hostile-scalar guard can be hit in isolation.
std::vector<uint8_t> WeightedQuantileBytes(double rate, int32_t max_size,
                                           std::vector<uint8_t> exponents,
                                           double error_variance,
                                           uint64_t error_worst = 0) {
  const uint32_t n = static_cast<uint32_t>(exponents.size());
  return QuantileBytes(n, "", {DoubleColumn(n)}, exponents, rate, max_size,
                       error_variance, error_worst);
}

TEST(WireRobustness, QuantileRejectsHostileScalars) {
  auto reject = [](const std::vector<uint8_t>& bytes, const char* what) {
    ByteReader r(bytes);
    QuantileResult out;
    Status st = QuantileResult::Deserialize(&r, &out);
    ASSERT_FALSE(st.ok()) << what;
    EXPECT_EQ(st.code(), StatusCode::kInvalidArgument) << what;
  };
  const double nan = std::numeric_limits<double>::quiet_NaN();
  reject(WeightedQuantileBytes(nan, 8, {0, 0}, 0.0), "NaN rate");
  reject(WeightedQuantileBytes(-0.5, 8, {0, 0}, 0.0), "negative rate");
  reject(WeightedQuantileBytes(0.0, 8, {0, 0}, 0.0), "zero rate");
  reject(WeightedQuantileBytes(1.5, 8, {0, 0}, 0.0), "rate above 1");
  reject(WeightedQuantileBytes(0.5, -3, {0, 0}, 0.0), "negative max_size");
  reject(WeightedQuantileBytes(0.5, 8, {0, 45}, 0.0),
         "weight exponent over the 2^44 cap");
  reject(WeightedQuantileBytes(0.5, 8, {44, 44}, 0.0),
         "total weight over the 2^44 cap");
  reject(WeightedQuantileBytes(0.5, 8, {0, 0}, nan), "NaN error variance");
  reject(WeightedQuantileBytes(0.5, 8, {0, 0}, -2.0),
         "negative error variance");
  reject(WeightedQuantileBytes(0.5, 8, {0, 0}, 0.0,
                               /*error_worst=*/uint64_t{1} << 63),
         "error ledger over the 2^44 cap");

  // A well-formed weighted payload with sane scalars still parses.
  std::vector<uint8_t> good = WeightedQuantileBytes(0.5, 8, {0, 1}, 4.0);
  ByteReader gr(good);
  QuantileResult ok;
  ASSERT_TRUE(QuantileResult::Deserialize(&gr, &ok).ok());
  EXPECT_TRUE(gr.AtEnd());
  EXPECT_EQ(ok.weights, (std::vector<uint64_t>{1, 2}));
}

TEST(WireRobustness, QuantileRejectsMalformedColumns) {
  auto reject = [](const std::vector<uint8_t>& bytes, StatusCode code,
                   const char* what) {
    ByteReader r(bytes);
    QuantileResult out;
    Status st = QuantileResult::Deserialize(&r, &out);
    ASSERT_FALSE(st.ok()) << what;
    EXPECT_EQ(st.code(), code) << what;
  };
  const auto kInt = static_cast<uint8_t>(KeyClass::kInt);
  const auto kString = static_cast<uint8_t>(KeyClass::kString);
  const auto kMissing = static_cast<uint8_t>(KeyClass::kMissing);
  const WireColumn ints{kInt, {}, {EncodeI64(-2), EncodeI64(7)}};
  const WireColumn strings{
      kPerCellTag, {kString, kMissing}, {PoolView(1, 2), 0}};

  // A valid three-column payload: the hand-built bytes are exactly what
  // Serialize writes, it parses, and every strict prefix is rejected.
  std::vector<uint8_t> valid =
      QuantileBytes(2, "abc", {ints, strings, DoubleColumn(2)}, {});
  {
    ByteReader r(valid);
    QuantileResult out;
    ASSERT_TRUE(QuantileResult::Deserialize(&r, &out).ok());
    EXPECT_TRUE(r.AtEnd());
    EXPECT_EQ(out.Key(0), (std::vector<Value>{Value(int64_t{-2}),
                                              Value(std::string("bc")),
                                              Value(0.0)}));
    ByteWriter w;
    out.Serialize(&w);
    EXPECT_EQ(w.bytes(), valid);
  }
  for (size_t len = 0; len < valid.size(); ++len) {
    ByteReader prefix(valid.data(), len);
    QuantileResult out;
    EXPECT_FALSE(QuantileResult::Deserialize(&prefix, &out).ok())
        << "valid payload parsed OK truncated to " << len;
  }

  const StatusCode kInvalid = StatusCode::kInvalidArgument;
  reject(QuantileBytes(3, "abc", {ints, strings}, {}), kInvalid,
         "column length differs from the item count");
  reject(QuantileBytes(2, "abc",
                       {ints, {kPerCellTag, {kString}, {PoolView(1, 2), 0}}},
                       {}),
         kInvalid, "class array length differs from the item count");
  reject(QuantileBytes(2, "", {{5, {}, {0, 0}}}, {}), kInvalid,
         "unknown column tag");
  reject(QuantileBytes(2, "", {{kPerCellTag, {kInt, 9}, {0, 0}}}, {}),
         kInvalid, "unknown cell class");
  reject(QuantileBytes(2, "abc", {{kString, {}, {PoolView(0, 3),
                                                  PoolView(2, 2)}}},
                       {}),
         kInvalid, "string view running past the pool");
  reject(QuantileBytes(2, "abc", {{kString, {}, {PoolView(0, 3),
                                                  PoolView(9, 0)}}},
                       {}),
         kInvalid, "string view starting past the pool");
  reject(QuantileBytes(2, "", {{kMissing, {}, {0, 1}}}, {}), kInvalid,
         "missing cell with a word");
  const auto kDouble = static_cast<uint8_t>(KeyClass::kDouble);
  const uint64_t nan_word =
      EncodeF64(1.0) | 0x7FF8000000000000;  // quiet NaN bits, sign clear
  reject(QuantileBytes(2, "", {{kDouble, {}, {EncodeF64(1.0), nan_word}}},
                       {}),
         kInvalid, "NaN double word");
  reject(QuantileBytes(2, "",
                       {{kDouble, {}, {EncodeF64(1.0), ~(uint64_t{1} << 63)}}},
                       {}),
         kInvalid, "-0.0 double word");
  reject(QuantileBytes(1000, "", {ints}, {}), StatusCode::kOutOfRange,
         "item count whose columns cannot fit in the remaining bytes");
  reject(QuantileBytes(2, "", {}, {}), StatusCode::kOutOfRange,
         "items without columns or weights");
}

TEST(WireRobustness, BottomKStrings) {
  BottomKResult bk;
  bk.items = {{11u, "apple"}, {42u, "banana"}, {97u, ""}};
  bk.k = 8;
  bk.complete = false;
  CheckWire(bk, "BottomKResult");
}

TEST(WireRobustness, RangeMoments) {
  RangeResult range;
  range.min = -3.5;
  range.max = 99.0;
  range.min_string = "alpha";
  range.max_string = "omega";
  range.is_string = false;
  range.is_integral = true;
  range.present_count = 90;
  range.missing_count = 10;
  range.moments = {450.0, 12345.0, -42.0};
  CheckWire(range, "RangeResult");
}

TEST(WireRobustness, Count) {
  CountResult count;
  count.rows = 123456789;
  CheckWire(count, "CountResult");
}

TEST(WireRobustness, NextItems) {
  NextItemsResult ni;
  RowSnapshot row1;
  row1.values = {Value(std::string("UA")), Value(static_cast<int64_t>(3)),
                 Value(0.5), Value(std::monostate{})};
  row1.count = 7;
  RowSnapshot row2;
  row2.values = {Value(std::string("")), Value(static_cast<int64_t>(-1)),
                 Value(-2.5), Value(std::string("x"))};
  row2.count = 1;
  ni.rows = {row1, row2};
  ni.rows_before = 41;
  CheckWire(ni, "NextItemsResult");
}

TEST(WireRobustness, FindText) {
  FindResult fr;
  fr.match_count = 17;
  fr.matches_before = 4;
  fr.first_match = std::vector<Value>{Value(std::string("w3")),
                                      Value(static_cast<int64_t>(9))};
  CheckWire(fr, "FindResult");

  FindResult no_match;
  no_match.match_count = 0;
  CheckWire(no_match, "FindResult(empty)");
}

TEST(WireRobustness, Correlation) {
  CorrelationResult corr;
  corr.m = 2;
  corr.count = 50;
  corr.sums = {10.0, -3.0};
  corr.products = {120.0, 4.5, 4.5, 80.0};
  corr.skipped = 5;
  CheckWire(corr, "CorrelationResult");
}

TEST(WireRobustness, SaveAs) {
  SaveResult save;
  save.partitions_written = 3;
  save.rows_written = 30000;
  save.errors = {"disk full", ""};
  CheckWire(save, "SaveResult");
}

}  // namespace
}  // namespace hillview
