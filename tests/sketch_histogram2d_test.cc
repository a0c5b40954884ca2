#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "sketch/histogram.h"
#include "sketch/histogram2d.h"
#include "test_util.h"
#include "util/serialize.h"

namespace hillview {
namespace {

using testing::UniformDoubles;

TablePtr MakeXyTable(const std::vector<double>& xs,
                     const std::vector<double>& ys) {
  ColumnBuilder bx(DataKind::kDouble), by(DataKind::kDouble);
  for (double v : xs) bx.AppendDouble(v);
  for (double v : ys) by.AppendDouble(v);
  return Table::Create(
      Schema({{"x", DataKind::kDouble}, {"y", DataKind::kDouble}}),
      {bx.Finish(), by.Finish()});
}

TEST(Histogram2D, ExactJointCounts) {
  TablePtr t = MakeXyTable({0.5, 0.5, 1.5, 1.5}, {0.5, 1.5, 0.5, 0.5});
  Histogram2DSketch sketch("x", Buckets(NumericBuckets(0, 2, 2)), "y",
                           Buckets(NumericBuckets(0, 2, 2)));
  Histogram2DResult r = sketch.Summarize(*t, 0);
  EXPECT_EQ(r.Count(0, 0), 1);
  EXPECT_EQ(r.Count(0, 1), 1);
  EXPECT_EQ(r.Count(1, 0), 2);
  EXPECT_EQ(r.Count(1, 1), 0);
  EXPECT_EQ(r.x_counts[0], 2);
  EXPECT_EQ(r.x_counts[1], 2);
}

TEST(Histogram2D, MissingYCountsInBarTotal) {
  ColumnBuilder bx(DataKind::kDouble), by(DataKind::kDouble);
  bx.AppendDouble(0.5);
  bx.AppendDouble(0.5);
  by.AppendDouble(0.5);
  by.AppendMissing();
  TablePtr t = Table::Create(
      Schema({{"x", DataKind::kDouble}, {"y", DataKind::kDouble}}),
      {bx.Finish(), by.Finish()});
  Histogram2DSketch sketch("x", Buckets(NumericBuckets(0, 1, 1)), "y",
                           Buckets(NumericBuckets(0, 1, 1)));
  Histogram2DResult r = sketch.Summarize(*t, 0);
  EXPECT_EQ(r.x_counts[0], 2);  // both rows have X
  EXPECT_EQ(r.Count(0, 0), 1);  // only one has Y
  EXPECT_EQ(r.missing_y, 1);
}

// A string axis without values has no buckets, so the grid has no cells.
// Its summary is the zero summary, which merges and the wire decoder take,
// rather than bar totals beside an empty grid, which a merge would drop.
TEST(Histogram2D, GridWithoutCellsIsTheZeroSummary) {
  ColumnBuilder bx(DataKind::kDouble), bs(DataKind::kString);
  bx.AppendDouble(0.5);
  bx.AppendDouble(0.7);
  bs.AppendMissing();
  bs.AppendMissing();
  TablePtr t = Table::Create(
      Schema({{"x", DataKind::kDouble}, {"s", DataKind::kString}}),
      {bx.Finish(), bs.Finish()});
  const Buckets no_strings(StringBuckets(std::vector<std::string>{}));
  Histogram2DSketch sketch("x", Buckets(NumericBuckets(0, 1, 2)), "s",
                           no_strings);
  Histogram2DResult r = sketch.Summarize(*t, 0);
  EXPECT_TRUE(r.IsZero());
  EXPECT_TRUE(r.x_counts.empty());
  ByteWriter w;
  r.Serialize(&w);
  ByteReader reader(w.bytes());
  Histogram2DResult back;
  EXPECT_TRUE(Histogram2DResult::Deserialize(&reader, &back).ok());

  TrellisSketch trellis("x", Buckets(NumericBuckets(0, 1, 2)), "x",
                        Buckets(NumericBuckets(0, 1, 2)), "s", no_strings);
  EXPECT_TRUE(trellis.Summarize(*t, 0).IsZero());
}

TEST(Histogram2D, MissingXIgnoresY) {
  ColumnBuilder bx(DataKind::kDouble), by(DataKind::kDouble);
  bx.AppendMissing();
  by.AppendDouble(0.5);
  TablePtr t = Table::Create(
      Schema({{"x", DataKind::kDouble}, {"y", DataKind::kDouble}}),
      {bx.Finish(), by.Finish()});
  Histogram2DSketch sketch("x", Buckets(NumericBuckets(0, 1, 1)), "y",
                           Buckets(NumericBuckets(0, 1, 1)));
  Histogram2DResult r = sketch.Summarize(*t, 0);
  EXPECT_EQ(r.missing_x, 1);
  EXPECT_EQ(r.x_counts[0], 0);
}

// Heat maps, stacked histograms and trellis plots bucket rows through
// NumericBuckets::IndexOf, the 1D histogram through the scan kernels. Both
// must put every value in the same bucket, or a stacked histogram's bars
// differ from the histogram of the same column and buckets.
TEST(Histogram2D, XCountsMatchTheOneDimensionalHistogram) {
  std::vector<double> xs;
  for (int v = 0; v < 2360; ++v) xs.push_back(v);
  TablePtr t = MakeXyTable(xs, std::vector<double>(xs.size(), 0.0));
  const Buckets y(NumericBuckets(0, 1, 1));
  for (int count = 1; count <= 400; ++count) {
    const Buckets x(NumericBuckets(0, 2359, count));
    Histogram2DResult joint = Histogram2DSketch("x", x, "y", y).Summarize(*t, 0);
    HistogramResult flat = StreamingHistogramSketch("x", x).Summarize(*t, 0);
    ASSERT_EQ(joint.x_counts, flat.counts) << count << " buckets";
  }
  // 1011 * 35 / 2359 is exactly 15; dividing by the width gave 14.
  EXPECT_EQ(NumericBuckets(0, 2359, 35).IndexOf(1011), 15);
}

class Histogram2DMergeTest : public ::testing::TestWithParam<int> {};

TEST_P(Histogram2DMergeTest, MergeMatchesWholeDataset) {
  int parts = GetParam();
  auto xs = UniformDoubles(4000, 0, 10, 51);
  auto ys = UniformDoubles(4000, -5, 5, 52);
  Histogram2DSketch sketch("x", Buckets(NumericBuckets(0, 10, 7)), "y",
                           Buckets(NumericBuckets(-5, 5, 5)));
  Histogram2DResult whole = sketch.Summarize(*MakeXyTable(xs, ys), 0);
  Histogram2DResult merged = sketch.Zero();
  for (int p = 0; p < parts; ++p) {
    std::vector<double> cx, cy;
    for (size_t i = p; i < xs.size(); i += parts) {
      cx.push_back(xs[i]);
      cy.push_back(ys[i]);
    }
    merged = sketch.Merge(merged, sketch.Summarize(*MakeXyTable(cx, cy), 0));
  }
  EXPECT_EQ(merged.xy, whole.xy);
  EXPECT_EQ(merged.x_counts, whole.x_counts);
}

INSTANTIATE_TEST_SUITE_P(PartitionCounts, Histogram2DMergeTest,
                         ::testing::Values(2, 5, 13));

TEST(Histogram2D, SampledApproximatesExact) {
  auto xs = UniformDoubles(200000, 0, 1, 53);
  auto ys = UniformDoubles(200000, 0, 1, 54);
  TablePtr t = MakeXyTable(xs, ys);
  Buckets bx(NumericBuckets(0, 1, 10)), by(NumericBuckets(0, 1, 10));
  Histogram2DResult exact = Histogram2DSketch("x", bx, "y", by).Summarize(*t, 0);
  Histogram2DResult approx =
      Histogram2DSketch("x", bx, "y", by, 0.1).Summarize(*t, 7);
  for (int x = 0; x < 10; ++x) {
    for (int y = 0; y < 10; ++y) {
      // Binomial sampling noise: sd of the estimate is sqrt(count/rate);
      // allow 4.5 sd for the max over 100 cells.
      double sd = std::sqrt(exact.Count(x, y) / 0.1);
      EXPECT_NEAR(approx.EstimatedCount(x, y),
                  static_cast<double>(exact.Count(x, y)), 4.5 * sd + 20);
    }
  }
}

TEST(Histogram2D, SerializationRoundTrip) {
  auto xs = UniformDoubles(500, 0, 1, 55);
  auto ys = UniformDoubles(500, 0, 1, 56);
  Histogram2DSketch sketch("x", Buckets(NumericBuckets(0, 1, 4)), "y",
                           Buckets(NumericBuckets(0, 1, 3)));
  Histogram2DResult r = sketch.Summarize(*MakeXyTable(xs, ys), 0);
  ByteWriter w;
  r.Serialize(&w);
  ByteReader reader(w.bytes());
  Histogram2DResult back;
  ASSERT_TRUE(Histogram2DResult::Deserialize(&reader, &back).ok());
  EXPECT_EQ(back.xy, r.xy);
  EXPECT_EQ(back.x_counts, r.x_counts);
  EXPECT_EQ(back.x_buckets, 4);
  EXPECT_EQ(back.y_buckets, 3);
}

TablePtr MakeWxyTable(const std::vector<double>& ws,
                      const std::vector<double>& xs,
                      const std::vector<double>& ys) {
  ColumnBuilder bw(DataKind::kDouble), bx(DataKind::kDouble),
      by(DataKind::kDouble);
  for (double v : ws) bw.AppendDouble(v);
  for (double v : xs) bx.AppendDouble(v);
  for (double v : ys) by.AppendDouble(v);
  return Table::Create(Schema({{"w", DataKind::kDouble},
                               {"x", DataKind::kDouble},
                               {"y", DataKind::kDouble}}),
                       {bw.Finish(), bx.Finish(), by.Finish()});
}

/// One axis of the bucket-edge matrix: a column kind, its buckets, and the
/// cells to put on it (nullopt: a missing cell).
struct EdgeAxis {
  DataKind kind;
  NumericBuckets buckets;
  std::vector<std::optional<double>> cells;
};

/// Values on every bucket edge of `b` and beside it, at and beside min and
/// max, ±0.0, ±inf, NaN and a missing cell. An int axis takes every whole
/// number in [min - 1, max + 1]; a date axis (whole-day edges) each edge and
/// the milliseconds beside it.
EdgeAxis MakeEdgeAxis(DataKind kind, NumericBuckets b) {
  EdgeAxis axis{kind, b, {std::nullopt}};
  if (kind == DataKind::kInt) {
    for (double v = b.min() - 1; v <= b.max() + 1; ++v) {
      axis.cells.push_back(v);
    }
    return axis;
  }
  if (kind == DataKind::kDate) {
    for (int i = 0; i <= b.count(); ++i) {
      for (double d : {-1.0, 0.0, 1.0}) {
        axis.cells.push_back(b.LowBoundary(i) + d);
      }
    }
    return axis;
  }
  const double inf = std::numeric_limits<double>::infinity();
  std::vector<double> anchors = {b.min(), b.max(),
                                 b.HighBoundary(b.count() - 1)};
  for (int i = 0; i <= b.count(); ++i) anchors.push_back(b.LowBoundary(i));
  for (double v : anchors) {
    axis.cells.push_back(v);
    axis.cells.push_back(std::nextafter(v, -inf));
    axis.cells.push_back(std::nextafter(v, inf));
  }
  for (double v : {0.0, -0.0, inf, -inf,
                   std::numeric_limits<double>::quiet_NaN()}) {
    axis.cells.push_back(v);
  }
  return axis;
}

void AppendCell(ColumnBuilder* builder, DataKind kind,
                const std::optional<double>& cell) {
  if (!cell.has_value()) {
    builder->AppendMissing();
  } else if (kind == DataKind::kInt) {
    builder->AppendInt(static_cast<int32_t>(*cell));
  } else if (kind == DataKind::kDate) {
    builder->AppendDate(static_cast<int64_t>(*cell));
  } else {
    builder->AppendDouble(*cell);
  }
}

/// The cartesian product of the axes' cells as an (x, y) table.
TablePtr EdgeTable(const EdgeAxis& x, const EdgeAxis& y) {
  ColumnBuilder bx(x.kind), by(y.kind);
  for (const auto& xv : x.cells) {
    for (const auto& yv : y.cells) {
      AppendCell(&bx, x.kind, xv);
      AppendCell(&by, y.kind, yv);
    }
  }
  return Table::Create(Schema({{"x", x.kind}, {"y", y.kind}}),
                       {bx.Finish(), by.Finish()});
}

/// A cell's bucket as the tally sees it: -2 missing (NaN included), -1 out
/// of range, else NumericBuckets::IndexOf.
int EdgeIndex(const NumericBuckets& b, const std::optional<double>& cell) {
  if (!cell.has_value() || std::isnan(*cell)) return -2;
  return b.IndexOf(*cell);
}

TEST(Histogram2D, CellsOnBucketEdgesFollowIndexOf) {
  const double day = 86400000.0;
  const double base = 1.2e12;  // a 2008 date, in milliseconds
  const std::vector<EdgeAxis> axes = {
      MakeEdgeAxis(DataKind::kInt, NumericBuckets(-10, 10, 4)),
      MakeEdgeAxis(DataKind::kInt, NumericBuckets(-7, 8, 6)),
      MakeEdgeAxis(DataKind::kDouble, NumericBuckets(-1.5, 2.5, 7)),
      MakeEdgeAxis(DataKind::kDouble, NumericBuckets(-0.3, 0.9, 12)),
      MakeEdgeAxis(DataKind::kDate,
                   NumericBuckets(base, base + 4 * day, 4)),
  };
  for (const EdgeAxis& x : axes) {
    for (const EdgeAxis& y : axes) {
      SCOPED_TRACE(std::string(DataKindName(x.kind)) + " x " +
                   DataKindName(y.kind) + ", " +
                   std::to_string(x.buckets.count()) + "x" +
                   std::to_string(y.buckets.count()) + " buckets");
      Histogram2DResult want;
      want.xy.assign(static_cast<size_t>(x.buckets.count()) *
                         y.buckets.count(), 0);
      want.x_counts.assign(x.buckets.count(), 0);
      for (const auto& xv : x.cells) {
        for (const auto& yv : y.cells) {
          const int ix = EdgeIndex(x.buckets, xv);
          const int iy = EdgeIndex(y.buckets, yv);
          if (ix == -2) {
            ++want.missing_x;
          } else if (ix == -1 || iy == -1) {
            ++want.out_of_range;
          } else {
            ++want.x_counts[ix];
            if (iy == -2) {
              ++want.missing_y;
            } else {
              ++want.xy[static_cast<size_t>(ix) * y.buckets.count() + iy];
            }
          }
        }
      }
      TablePtr t = EdgeTable(x, y);
      Histogram2DSketch sketch("x", Buckets(x.buckets), "y",
                               Buckets(y.buckets));
      Histogram2DResult got = sketch.Summarize(*t, 0);
      EXPECT_EQ(got.xy, want.xy);
      EXPECT_EQ(got.x_counts, want.x_counts);
      EXPECT_EQ(got.missing_x, want.missing_x);
      EXPECT_EQ(got.missing_y, want.missing_y);
      EXPECT_EQ(got.out_of_range, want.out_of_range);

      // Over rows whose y is in range or missing, the bar totals are the
      // 1D histogram of x.
      EdgeAxis y_kept = y;
      std::erase_if(y_kept.cells, [&](const std::optional<double>& cell) {
        return EdgeIndex(y.buckets, cell) == -1;
      });
      TablePtr kept = EdgeTable(x, y_kept);
      Histogram2DResult joint = sketch.Summarize(*kept, 0);
      HistogramResult flat = StreamingHistogramSketch("x", Buckets(x.buckets))
                                 .Summarize(*kept, 0);
      EXPECT_EQ(joint.x_counts, flat.counts);
      EXPECT_EQ(joint.missing_x, flat.missing);
    }
  }
}

TEST(Trellis, GroupsByW) {
  TablePtr t = MakeWxyTable({0.5, 0.5, 1.5}, {0.1, 0.9, 0.1}, {0.1, 0.1, 0.9});
  TrellisSketch sketch("w", Buckets(NumericBuckets(0, 2, 2)), "x",
                       Buckets(NumericBuckets(0, 1, 2)), "y",
                       Buckets(NumericBuckets(0, 1, 2)));
  TrellisResult r = sketch.Summarize(*t, 0);
  ASSERT_EQ(r.groups.size(), 2u);
  EXPECT_EQ(r.groups[0].Count(0, 0), 1);
  EXPECT_EQ(r.groups[0].Count(1, 0), 1);
  EXPECT_EQ(r.groups[1].Count(0, 1), 1);
}

TEST(Trellis, MergeMatchesWhole) {
  auto ws = UniformDoubles(3000, 0, 4, 57);
  auto xs = UniformDoubles(3000, 0, 1, 58);
  auto ys = UniformDoubles(3000, 0, 1, 59);
  TrellisSketch sketch("w", Buckets(NumericBuckets(0, 4, 4)), "x",
                       Buckets(NumericBuckets(0, 1, 3)), "y",
                       Buckets(NumericBuckets(0, 1, 3)));
  TrellisResult whole = sketch.Summarize(*MakeWxyTable(ws, xs, ys), 0);
  TrellisResult merged = sketch.Zero();
  for (int p = 0; p < 3; ++p) {
    std::vector<double> cw, cx, cy;
    for (size_t i = p; i < ws.size(); i += 3) {
      cw.push_back(ws[i]);
      cx.push_back(xs[i]);
      cy.push_back(ys[i]);
    }
    merged =
        sketch.Merge(merged, sketch.Summarize(*MakeWxyTable(cw, cx, cy), 0));
  }
  ASSERT_EQ(merged.groups.size(), whole.groups.size());
  for (size_t g = 0; g < whole.groups.size(); ++g) {
    EXPECT_EQ(merged.groups[g].xy, whole.groups[g].xy);
  }
}

TEST(Trellis, SerializationRoundTrip) {
  auto ws = UniformDoubles(200, 0, 2, 60);
  auto xs = UniformDoubles(200, 0, 1, 61);
  auto ys = UniformDoubles(200, 0, 1, 62);
  TrellisSketch sketch("w", Buckets(NumericBuckets(0, 2, 2)), "x",
                       Buckets(NumericBuckets(0, 1, 2)), "y",
                       Buckets(NumericBuckets(0, 1, 2)));
  TrellisResult r = sketch.Summarize(*MakeWxyTable(ws, xs, ys), 0);
  ByteWriter w;
  r.Serialize(&w);
  ByteReader reader(w.bytes());
  TrellisResult back;
  ASSERT_TRUE(TrellisResult::Deserialize(&reader, &back).ok());
  ASSERT_EQ(back.groups.size(), r.groups.size());
  EXPECT_EQ(back.groups[0].xy, r.groups[0].xy);
  EXPECT_EQ(back.groups[1].xy, r.groups[1].xy);
}

}  // namespace
}  // namespace hillview
