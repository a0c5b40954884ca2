#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <numeric>

#include "sketch/histogram.h"
#include "sketch/histogram2d.h"
#include "sketch/sample_size.h"
#include "test_util.h"
#include "util/serialize.h"

namespace hillview {
namespace {

using testing::MakeDoubleTable;
using testing::MakeStringTable;
using testing::SplitValues;
using testing::UniformDoubles;

TEST(StreamingHistogram, ExactCounts) {
  TablePtr t = MakeDoubleTable("x", {0.5, 1.5, 1.6, 2.5, 3.9, 4.0});
  StreamingHistogramSketch sketch("x", Buckets(NumericBuckets(0, 4, 4)));
  HistogramResult r = sketch.Summarize(*t, 0);
  ASSERT_EQ(r.counts.size(), 4u);
  EXPECT_EQ(r.counts[0], 1);  // 0.5
  EXPECT_EQ(r.counts[1], 2);  // 1.5, 1.6
  EXPECT_EQ(r.counts[2], 1);  // 2.5
  EXPECT_EQ(r.counts[3], 2);  // 3.9 and 4.0 (max lands in last bucket)
  EXPECT_EQ(r.missing, 0);
  EXPECT_EQ(r.out_of_range, 0);
}

TEST(StreamingHistogram, MissingAndOutOfRange) {
  ColumnBuilder b(DataKind::kDouble);
  b.AppendDouble(-1.0);   // below range
  b.AppendDouble(10.0);   // above range
  b.AppendMissing();
  b.AppendDouble(0.5);
  TablePtr t =
      Table::Create(Schema({{"x", DataKind::kDouble}}), {b.Finish()});
  StreamingHistogramSketch sketch("x", Buckets(NumericBuckets(0, 1, 2)));
  HistogramResult r = sketch.Summarize(*t, 0);
  EXPECT_EQ(r.missing, 1);
  EXPECT_EQ(r.out_of_range, 2);
  EXPECT_EQ(r.TotalCount(), 1);
}

// Regression: NaN used to drive an unchecked static_cast<int> bucket index
// (out-of-bounds write); the scan layer now counts NaN as missing, and ±inf
// as out-of-range, for streaming and sampled histograms alike.
TEST(StreamingHistogram, NaNCountsAsMissingInfAsOutOfRange) {
  ColumnBuilder b(DataKind::kDouble);
  b.AppendDouble(std::nan(""));
  b.AppendDouble(std::numeric_limits<double>::quiet_NaN());
  b.AppendDouble(std::numeric_limits<double>::infinity());
  b.AppendDouble(-std::numeric_limits<double>::infinity());
  b.AppendDouble(0.5);
  b.AppendMissing();
  TablePtr t = Table::Create(Schema({{"x", DataKind::kDouble}}), {b.Finish()});
  StreamingHistogramSketch sketch("x", Buckets(NumericBuckets(0, 1, 4)));
  HistogramResult r = sketch.Summarize(*t, 0);
  EXPECT_EQ(r.missing, 3);       // two NaNs + one explicit missing
  EXPECT_EQ(r.out_of_range, 2);  // ±inf
  EXPECT_EQ(r.TotalCount(), 1);
  EXPECT_EQ(r.rows_scanned, 6);
}

TEST(SampledHistogram, NaNCountsAsMissing) {
  // Every row is NaN except a single in-range value: at rate ~1 the sampled
  // path must visit NaNs without writing out of bounds.
  ColumnBuilder b(DataKind::kDouble);
  for (int i = 0; i < 1000; ++i) b.AppendDouble(std::nan(""));
  b.AppendDouble(0.25);
  TablePtr t = Table::Create(Schema({{"x", DataKind::kDouble}}), {b.Finish()});
  SampledHistogramSketch sketch("x", Buckets(NumericBuckets(0, 1, 8)), 0.9);
  HistogramResult r = sketch.Summarize(*t, 3);
  EXPECT_EQ(r.out_of_range, 0);
  EXPECT_GT(r.missing, 700);
  EXPECT_EQ(r.TotalCount() + r.missing, r.rows_scanned);
}

TEST(StreamingHistogram, NaNCountsAsMissingOnFilteredTables) {
  // Dense- and sparse-membership scans share the central NaN policy.
  ColumnBuilder b(DataKind::kDouble);
  for (int i = 0; i < 256; ++i) {
    b.AppendDouble(i % 5 == 0 ? std::nan("") : 0.5);
  }
  TablePtr t = Table::Create(Schema({{"x", DataKind::kDouble}}), {b.Finish()});
  StreamingHistogramSketch sketch("x", Buckets(NumericBuckets(0, 1, 4)));

  TablePtr dense = t->Filter([](uint32_t r) { return r % 2 == 0; });
  ASSERT_EQ(dense->members()->kind(), IMembershipSet::Kind::kDense);
  HistogramResult rd = sketch.Summarize(*dense, 0);
  EXPECT_EQ(rd.missing, 26);  // rows ≡ 0 (mod 10): 0,10,...,250
  EXPECT_EQ(rd.TotalCount(), 102);

  TablePtr sparse = t->Filter([](uint32_t r) { return r % 37 == 0; });
  ASSERT_EQ(sparse->members()->kind(), IMembershipSet::Kind::kSparse);
  HistogramResult rs = sketch.Summarize(*sparse, 0);
  EXPECT_EQ(rs.missing, 2);  // rows 0 and 185 are NaN
  EXPECT_EQ(rs.TotalCount(), 5);
}

TEST(StreamingHistogram, UnknownColumnYieldsZeroCounts) {
  TablePtr t = MakeDoubleTable("x", {1.0});
  StreamingHistogramSketch sketch("nope", Buckets(NumericBuckets(0, 1, 2)));
  HistogramResult r = sketch.Summarize(*t, 0);
  EXPECT_EQ(r.TotalCount(), 0);
}

TEST(StreamingHistogram, RespectsFilteredMembership) {
  TablePtr t = MakeDoubleTable("x", {0.1, 0.2, 0.3, 0.4, 0.5});
  TablePtr f = t->Filter([](uint32_t r) { return r % 2 == 0; });
  StreamingHistogramSketch sketch("x", Buckets(NumericBuckets(0, 1, 1)));
  EXPECT_EQ(sketch.Summarize(*f, 0).TotalCount(), 3);
}

TEST(StreamingHistogram, StringBuckets) {
  TablePtr t = MakeStringTable(
      "s", {"apple", "banana", "cherry", "avocado", "fig", "grape"});
  StringBuckets buckets({"a", "c", "f"});  // [a,c) [c,f) [f,∞)
  StreamingHistogramSketch sketch("s", Buckets(buckets));
  HistogramResult r = sketch.Summarize(*t, 0);
  ASSERT_EQ(r.counts.size(), 3u);
  EXPECT_EQ(r.counts[0], 3);  // apple, avocado, banana
  EXPECT_EQ(r.counts[1], 1);  // cherry
  EXPECT_EQ(r.counts[2], 2);  // fig, grape
}

// --- Mergeability: summarize(D1 ⊎ D2) == merge(summarize(D1), summarize(D2))

class HistogramMergeTest : public ::testing::TestWithParam<int> {};

TEST_P(HistogramMergeTest, StreamingMergeMatchesWholeDataset) {
  int parts = GetParam();
  auto values = UniformDoubles(5000, 0, 100, /*seed=*/99);
  StreamingHistogramSketch sketch("x", Buckets(NumericBuckets(0, 100, 37)));

  HistogramResult whole = sketch.Summarize(*MakeDoubleTable("x", values), 0);
  HistogramResult merged = sketch.Zero();
  for (const auto& chunk : SplitValues(values, parts)) {
    merged = sketch.Merge(merged, sketch.Summarize(*MakeDoubleTable("x", chunk), 0));
  }
  EXPECT_EQ(whole.counts, merged.counts);
  EXPECT_EQ(whole.TotalCount(), merged.TotalCount());
}

INSTANTIATE_TEST_SUITE_P(PartitionCounts, HistogramMergeTest,
                         ::testing::Values(1, 2, 3, 7, 16, 64));

TEST(HistogramMerge, ZeroIsIdentityBothSides) {
  auto values = UniformDoubles(100, 0, 1, 5);
  StreamingHistogramSketch sketch("x", Buckets(NumericBuckets(0, 1, 10)));
  HistogramResult r = sketch.Summarize(*MakeDoubleTable("x", values), 0);
  EXPECT_EQ(sketch.Merge(sketch.Zero(), r).counts, r.counts);
  EXPECT_EQ(sketch.Merge(r, sketch.Zero()).counts, r.counts);
}

TEST(HistogramMerge, Associative) {
  auto values = UniformDoubles(3000, 0, 10, 6);
  auto chunks = SplitValues(values, 3);
  StreamingHistogramSketch sketch("x", Buckets(NumericBuckets(0, 10, 8)));
  auto s0 = sketch.Summarize(*MakeDoubleTable("x", chunks[0]), 0);
  auto s1 = sketch.Summarize(*MakeDoubleTable("x", chunks[1]), 0);
  auto s2 = sketch.Summarize(*MakeDoubleTable("x", chunks[2]), 0);
  auto left = sketch.Merge(sketch.Merge(s0, s1), s2);
  auto right = sketch.Merge(s0, sketch.Merge(s1, s2));
  EXPECT_EQ(left.counts, right.counts);
}

// --- Sampled histogram ------------------------------------------------------

TEST(SampledHistogram, RespectsSampleRate) {
  auto values = UniformDoubles(100000, 0, 1, 7);
  SampledHistogramSketch sketch("x", Buckets(NumericBuckets(0, 1, 10)), 0.05);
  HistogramResult r = sketch.Summarize(*MakeDoubleTable("x", values), 1);
  EXPECT_NEAR(r.TotalCount(), 5000, 500);
  EXPECT_EQ(r.sample_rate, 0.05);
}

TEST(SampledHistogram, DeterministicInSeed) {
  auto values = UniformDoubles(20000, 0, 1, 8);
  TablePtr t = MakeDoubleTable("x", values);
  SampledHistogramSketch sketch("x", Buckets(NumericBuckets(0, 1, 16)), 0.1);
  EXPECT_EQ(sketch.Summarize(*t, 5).counts, sketch.Summarize(*t, 5).counts);
  EXPECT_NE(sketch.Summarize(*t, 5).counts, sketch.Summarize(*t, 6).counts);
}

TEST(SampledHistogram, EstimatesMatchExactWithinTheoremBound) {
  // Theorem 3 shape check: with n = HistogramSampleSize(V, B) samples the
  // per-bucket estimate is within a pixel's worth of the truth.
  const int kV = 200, kB = 25;
  auto values = UniformDoubles(400000, 0, 1, 9);
  TablePtr t = MakeDoubleTable("x", values);
  Buckets buckets(NumericBuckets(0, 1, kB));

  StreamingHistogramSketch exact("x", buckets);
  HistogramResult truth = exact.Summarize(*t, 0);

  uint64_t n = HistogramSampleSize(kV, kB);
  double rate = SampleRateForSize(n, values.size());
  SampledHistogramSketch sampled("x", buckets, rate);
  HistogramResult approx = sampled.Summarize(*t, 12345);

  double max_count = 0;
  for (int b = 0; b < kB; ++b) {
    max_count = std::max(max_count, truth.EstimatedCount(b));
  }
  // 1 pixel of the tallest bar at V pixels.
  double pixel = max_count / kV;
  for (int b = 0; b < kB; ++b) {
    EXPECT_NEAR(approx.EstimatedCount(b), truth.EstimatedCount(b),
                2.5 * pixel)
        << "bucket " << b;
  }
}

TEST(SampledHistogram, RateOneEqualsStreaming) {
  auto values = UniformDoubles(5000, 0, 1, 10);
  TablePtr t = MakeDoubleTable("x", values);
  Buckets buckets(NumericBuckets(0, 1, 13));
  SampledHistogramSketch sampled("x", buckets, 1.0);
  StreamingHistogramSketch streaming("x", buckets);
  EXPECT_EQ(sampled.Summarize(*t, 3).counts, streaming.Summarize(*t, 0).counts);
}

TEST(HistogramResult, SerializationRoundTrip) {
  auto values = UniformDoubles(1000, 0, 1, 11);
  StreamingHistogramSketch sketch("x", Buckets(NumericBuckets(0, 1, 9)));
  HistogramResult r = sketch.Summarize(*MakeDoubleTable("x", values), 0);
  r.missing = 3;
  ByteWriter w;
  r.Serialize(&w);
  ByteReader reader(w.bytes());
  HistogramResult back;
  ASSERT_TRUE(HistogramResult::Deserialize(&reader, &back).ok());
  EXPECT_EQ(back.counts, r.counts);
  EXPECT_EQ(back.missing, 3);
  EXPECT_EQ(back.sample_rate, r.sample_rate);
}

TEST(HistogramResult, SummarySizeIndependentOfData) {
  // The vizketch promise: summary size depends on the display, not on n.
  // Counts ship as varints, so a count costs at most 8 bytes below 2^56:
  // the summary never outgrows the fixed-width bound of its 50 buckets.
  StreamingHistogramSketch sketch("x", Buckets(NumericBuckets(0, 1, 50)));
  for (size_t n : {100u, 10000u, 100000u}) {
    auto values = UniformDoubles(n, 0, 1, n);
    HistogramResult r = sketch.Summarize(*MakeDoubleTable("x", values), 0);
    ByteWriter w;
    r.Serialize(&w);
    EXPECT_LE(w.size(), 50 * 8 + 4 + 3 * 8 + 8);  // counts + header fields
    ByteReader reader(w.bytes());
    HistogramResult back;
    ASSERT_TRUE(HistogramResult::Deserialize(&reader, &back).ok());
    EXPECT_EQ(back.counts, r.counts);
  }
}

// --- NumericBuckets edge cases ----------------------------------------------

TEST(NumericBuckets, BoundaryAssignment) {
  NumericBuckets b(0, 10, 5);
  EXPECT_EQ(b.IndexOf(0), 0);
  EXPECT_EQ(b.IndexOf(1.999), 0);
  EXPECT_EQ(b.IndexOf(2.0), 1);
  EXPECT_EQ(b.IndexOf(10.0), 4);   // max is inclusive in the last bucket
  EXPECT_EQ(b.IndexOf(10.001), -1);
  EXPECT_EQ(b.IndexOf(-0.001), -1);
}

TEST(NumericBuckets, Boundaries) {
  NumericBuckets b(10, 20, 4);
  EXPECT_DOUBLE_EQ(b.LowBoundary(0), 10);
  EXPECT_DOUBLE_EQ(b.HighBoundary(3), 20);
  EXPECT_DOUBLE_EQ(b.LowBoundary(2), 15);
}

TEST(StringBucketsTest, IndexOf) {
  StringBuckets b({"a", "h", "q"});
  EXPECT_EQ(b.IndexOf("apple"), 0);
  EXPECT_EQ(b.IndexOf("hat"), 1);
  EXPECT_EQ(b.IndexOf("zebra"), 2);
  EXPECT_EQ(b.IndexOf("A"), -1);  // before the first boundary
}

TEST(StringBucketsTest, MaxInclusiveCapsRange) {
  StringBuckets b({"a", "h"}, "mango", true);
  EXPECT_EQ(b.IndexOf("mango"), 1);
  EXPECT_EQ(b.IndexOf("n"), -1);
}

}  // namespace
}  // namespace hillview
