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

TEST(WireRobustness, Quantile) {
  QuantileResult q;
  q.keys = {{Value(1.5), Value(std::string("aa"))},
            {Value(static_cast<int64_t>(-4)), Value(std::monostate{})},
            {Value(3.25), Value(std::string("zz"))}};
  q.weights = {1, 1, 1};  // unit weights serialize in the elided form
  q.rate = 0.25;
  q.max_size = 100;
  CheckWire(q, "QuantileResult");
}

TEST(WireRobustness, QuantileWeighted) {
  QuantileResult q;
  q.keys = {{Value(1.5)}, {Value(2.5)}, {Value(9.0)}};
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

TEST(WireRobustness, QuantileWithoutMagicWordIsRejected) {
  // Summaries are soft state and never persisted, so every quantile payload
  // opens with the magic word. One that does not — here a count-first
  // layout of keys, rate and max_size — is rejected whole and at every
  // prefix.
  ByteWriter w;
  w.WriteU32(2);
  w.WriteU32(1);
  SerializeValue(Value(4.25), &w);
  w.WriteU32(1);
  SerializeValue(Value(7.5), &w);
  w.WriteDouble(0.125);
  w.WriteI32(64);
  std::vector<uint8_t> bytes = w.Take();

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
  ByteWriter w;
  w.WriteU32(0x4B4C4C31);  // the weighted-format magic
  w.WriteU32(static_cast<uint32_t>(exponents.size()));
  w.WriteBool(true);  // explicit weights follow the keys
  for (size_t i = 0; i < exponents.size(); ++i) {
    w.WriteU32(1);
    SerializeValue(Value(static_cast<double>(i)), &w);
  }
  for (uint8_t exponent : exponents) w.WriteU8(exponent);
  w.WriteDouble(rate);
  w.WriteI32(max_size);
  w.WriteU64(/*seed=*/1);
  w.WriteU64(error_worst);
  w.WriteDouble(error_variance);
  return w.Take();
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
