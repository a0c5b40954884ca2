// Reproduces Figure 3 / Figure 13: the rendering accuracy guarantees.
// For each chart type, render the ideal (exact) visualization and the
// sampled one at the theorem-prescribed sample size, and report the
// worst-case pixel / color-shade deviation over many seeds:
//   - histogram bars:   <= 1 pixel  (Fig 3a / 13b)
//   - CDF curve:        <= 1 pixel  (Fig 13a)
//   - heat map bins:    <= 1 shade  (Fig 3b / 13d)
//   - stacked subdivisions: <= 1 pixel (Fig 13c)
//   - scroll-bar quantile: rank error <= 1/(2V) (Theorem 2)

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <vector>

#include "bench_common.h"
#include "render/chart.h"
#include "sketch/quantile.h"
#include "sketch/sample_size.h"
#include "storage/scan.h"
#include "storage/table.h"
#include "util/random.h"
#include "util/serialize.h"

namespace hillview {
namespace {

constexpr int kSeeds = 20;
// Dataset sizes honor HILLVIEW_BENCH_SCALE (floored so the sampled-sketch
// rates stay meaningful); the display-derived parameters (sample sizes,
// summary budgets) are scale-independent by design.
const uint32_t kRows = static_cast<uint32_t>(
    std::max(2000000.0 * bench::BenchScale(), 200000.0));

TablePtr SkewedTable() {
  static TablePtr table = [] {
    // Uniform base + a dense spike, so both tall and short bars occur.
    Random rng(0xACC);
    ColumnBuilder x(DataKind::kDouble), y(DataKind::kDouble);
    for (uint32_t i = 0; i < kRows; ++i) {
      double vx = rng.NextDouble();
      if (rng.NextBernoulli(0.25)) vx = 0.4 + 0.2 * rng.NextDouble();
      x.AppendDouble(vx);
      y.AppendDouble(rng.NextDouble());
    }
    return Table::Create(
        Schema({{"x", DataKind::kDouble}, {"y", DataKind::kDouble}}),
        {x.Finish(), y.Finish()});
  }();
  return table;
}

struct Deviation {
  int max_dev = 0;
  double frac_beyond_one = 0;
};

Deviation HistogramDeviation() {
  const ScreenResolution screen{200, 50};
  const int buckets = 50;
  TablePtr t = SkewedTable();
  Buckets b(NumericBuckets(0, 1, buckets));
  HistogramPlot ideal =
      RenderHistogram(StreamingHistogramSketch("x", b).Summarize(*t, 0),
                      screen);
  double rate = SampleRateForSize(
      HistogramSampleSize(screen.height, buckets), kRows);
  Deviation d;
  int beyond = 0, cells = 0;
  for (int s = 1; s <= kSeeds; ++s) {
    HistogramPlot approx = RenderHistogram(
        SampledHistogramSketch("x", b, rate).Summarize(*t, s), screen);
    for (int i = 0; i < buckets; ++i) {
      int dev = std::abs(approx.bar_heights[i] - ideal.bar_heights[i]);
      d.max_dev = std::max(d.max_dev, dev);
      if (dev > 1) ++beyond;
      ++cells;
    }
  }
  d.frac_beyond_one = static_cast<double>(beyond) / cells;
  return d;
}

Deviation CdfDeviation() {
  const ScreenResolution screen{200, 100};
  TablePtr t = SkewedTable();
  Buckets b(NumericBuckets(0, 1, screen.width));
  CdfPlot ideal =
      RenderCdf(StreamingHistogramSketch("x", b).Summarize(*t, 0), screen);
  double rate = SampleRateForSize(CdfSampleSize(screen.height), kRows);
  Deviation d;
  int beyond = 0, cells = 0;
  for (int s = 1; s <= kSeeds; ++s) {
    CdfPlot approx = RenderCdf(
        SampledHistogramSketch("x", b, rate).Summarize(*t, 100 + s), screen);
    for (int i = 0; i < screen.width; ++i) {
      int dev = std::abs(approx.pixel_y[i] - ideal.pixel_y[i]);
      d.max_dev = std::max(d.max_dev, dev);
      if (dev > 1) ++beyond;
      ++cells;
    }
  }
  d.frac_beyond_one = static_cast<double>(beyond) / cells;
  return d;
}

Deviation HeatMapDeviation() {
  const int bins = 25, colors = 10;
  TablePtr t = SkewedTable();
  Buckets b(NumericBuckets(0, 1, bins));
  HeatMapPlot ideal = RenderHeatMap(
      Histogram2DSketch("x", b, "y", b).Summarize(*t, 0), colors);
  double rate =
      SampleRateForSize(HeatMapSampleSize(bins, bins, colors), kRows);
  Deviation d;
  int beyond = 0, cells = 0;
  for (int s = 1; s <= kSeeds; ++s) {
    HeatMapPlot approx = RenderHeatMap(
        Histogram2DSketch("x", b, "y", b, rate).Summarize(*t, 200 + s),
        colors);
    for (int x = 0; x < bins; ++x) {
      for (int y = 0; y < bins; ++y) {
        int dev = std::abs(approx.ColorAt(x, y) - ideal.ColorAt(x, y));
        d.max_dev = std::max(d.max_dev, dev);
        if (dev > 1) ++beyond;
        ++cells;
      }
    }
  }
  d.frac_beyond_one = static_cast<double>(beyond) / cells;
  return d;
}

Deviation StackedDeviation() {
  const ScreenResolution screen{200, 100};
  const int xb = 25, yb = 10;
  TablePtr t = SkewedTable();
  Buckets bx(NumericBuckets(0, 1, xb)), by(NumericBuckets(0, 1, yb));
  StackedHistogramPlot ideal = RenderStackedHistogram(
      Histogram2DSketch("x", bx, "y", by).Summarize(*t, 0), screen, false);
  double rate = SampleRateForSize(
      StackedHistogramSampleSize(screen.height, xb), kRows);
  Deviation d;
  int beyond = 0, cells = 0;
  for (int s = 1; s <= kSeeds; ++s) {
    StackedHistogramPlot approx = RenderStackedHistogram(
        Histogram2DSketch("x", bx, "y", by, rate).Summarize(*t, 300 + s),
        screen, false);
    for (int x = 0; x < xb; ++x) {
      for (int y = 0; y < yb; ++y) {
        int dev = std::abs(approx.segment_heights[x][y] -
                           ideal.segment_heights[x][y]);
        d.max_dev = std::max(d.max_dev, dev);
        if (dev > 1) ++beyond;
        ++cells;
      }
    }
  }
  d.frac_beyond_one = static_cast<double>(beyond) / cells;
  return d;
}

Deviation QuantileDeviation() {
  const int kV = 100;  // scroll bar pixels
  TablePtr t = SkewedTable();
  uint64_t n = QuantileSampleSize(kV);
  double rate = SampleRateForSize(n, kRows);
  QuantileSketch sketch(RecordOrder({{"x", true}}), rate,
                        static_cast<int>(4 * n));

  // Exact quantiles of the skewed column.
  std::vector<double> sorted;
  sorted.reserve(kRows);
  ColumnPtr col = t->GetColumnOrNull("x");
  for (uint32_t r = 0; r < kRows; ++r) sorted.push_back(col->GetDouble(r));
  std::sort(sorted.begin(), sorted.end());

  Deviation d;
  int beyond = 0, cells = 0;
  for (int s = 1; s <= kSeeds; ++s) {
    QuantileResult result = sketch.Summarize(*t, 400 + s);
    for (double q : {0.1, 0.25, 0.5, 0.75, 0.9}) {
      double value = std::get<double>(result.KeyAtQuantile(q)->at(0));
      // Rank of the returned key in the exact order.
      auto it = std::lower_bound(sorted.begin(), sorted.end(), value);
      double rank = static_cast<double>(it - sorted.begin()) / kRows;
      // §C.1 uses n = O(V²) for *constant* success probability at ε=1/(2V);
      // we grade against 2ε = 1/V, where failures should be rare.
      double rank_err_pixels = std::fabs(rank - q) * 2 * kV;
      d.max_dev = std::max(d.max_dev, static_cast<int>(rank_err_pixels));
      if (rank_err_pixels > 2.0) ++beyond;
      ++cells;
    }
  }
  d.frac_beyond_one = static_cast<double>(beyond) / cells;
  return d;
}

// ---------------------------------------------------------------------------
// Rank-error-vs-merge-depth sweep: the weighted KLL merge path against the
// retired keep-every-other decimation, at equal summary bytes. Partition
// values *drift* with row position (like time-ordered production data), the
// regime where the old chain fold went wrong: each decimation pass left
// survivors representing 2+ sampled rows while the merge and the query kept
// treating every key as one row, so later partitions were over-represented
// and quantiles walked toward their values as the tree deepened.

constexpr int kSweepSeeds = 5;
constexpr int kSweepV = 100;            // scroll-bar pixels for the px scale
const uint32_t kSweepRows = kRows;      // one dataset size for the bench
// Fits both budgets, so a depth-1 (single-partition) summary is the raw
// sorted sample under either policy and the sweep isolates merge error.
constexpr uint64_t kSamplesPerPartition = 800;
constexpr int kBaselineCap = 1024;
// The budget that cost the legacy budget's bytes when keys travelled as
// rows of tagged cells plus a weight exponent. Kept so the rank-error
// METRIC lines stay comparable across layouts; the column-wise layout (8
// bytes per cell) now spends fewer bytes than the legacy baseline.
constexpr int kKllCap = 840;

/// Production-like drift: values trend upward with row position, so
/// contiguous partitions have shifted distributions.
std::vector<double> DriftValues() {
  Random rng(0xD81F7);
  std::vector<double> values(kSweepRows);
  for (uint32_t i = 0; i < kSweepRows; ++i) {
    values[i] = 0.7 * (static_cast<double>(i) / kSweepRows) +
                0.3 * rng.NextDouble();
  }
  return values;
}

/// The retired merge policy, verbatim: sorted merge, then drop every other
/// element starting at index 0 while over the cap; unit-weight queries.
struct DecimationSummary {
  std::vector<double> keys;
  int max_size = 0;

  void Cap() {
    while (max_size > 0 && static_cast<int>(keys.size()) > max_size) {
      std::vector<double> kept;
      kept.reserve(keys.size() / 2 + 1);
      for (size_t i = 0; i < keys.size(); i += 2) kept.push_back(keys[i]);
      keys = std::move(kept);
    }
  }

  double AtQuantile(double q) const {
    size_t idx = static_cast<size_t>(q * (keys.size() - 1) + 0.5);
    return keys[idx];
  }

  size_t WireBytes() const {
    // Legacy format: count + per key (cell count + tag + double) + rate +
    // max_size.
    return 4 + keys.size() * (4 + 1 + 8) + 8 + 4;
  }
};

DecimationSummary DecimationMerge(DecimationSummary left,
                                  const DecimationSummary& right) {
  std::vector<double> merged;
  merged.reserve(left.keys.size() + right.keys.size());
  std::merge(left.keys.begin(), left.keys.end(), right.keys.begin(),
             right.keys.end(), std::back_inserter(merged));
  left.keys = std::move(merged);
  left.max_size = std::max(left.max_size, right.max_size);
  left.Cap();
  return left;
}

/// True rank of `v` in the exact sorted column, in [0,1].
double TrueRank(const std::vector<double>& sorted, double v) {
  auto it = std::lower_bound(sorted.begin(), sorted.end(), v);
  return static_cast<double>(it - sorted.begin()) / sorted.size();
}

void MergeDepthSweep() {
  std::vector<double> values = DriftValues();
  std::vector<double> sorted = values;
  std::sort(sorted.begin(), sorted.end());

  std::printf(
      "\n=== Quantile merge-depth sweep: weighted KLL vs keep-every-other "
      "decimation ===\n"
      "(drifting values, %u rows, %llu samples/partition, %d seeds; budgets "
      "%d KLL / %d legacy items;\n rank error in scroll "
      "pixels = |rank - q| x 2V at V=%d, worst over q in [0.05, 0.95])\n",
      kSweepRows, static_cast<unsigned long long>(kSamplesPerPartition),
      kSweepSeeds, kKllCap, kBaselineCap, kSweepV);
  std::printf("%-12s %14s %14s %16s %16s\n", "merge depth", "kll err (px)",
              "decim err (px)", "kll bytes", "decim bytes");

  for (int depth : {1, 4, 16}) {
    const uint32_t slice = kSweepRows / depth;
    std::vector<TablePtr> partitions;
    for (int p = 0; p < depth; ++p) {
      ColumnBuilder x(DataKind::kDouble);
      for (uint32_t i = p * slice; i < (p + 1u) * slice; ++i) {
        x.AppendDouble(values[i]);
      }
      partitions.push_back(
          Table::Create(Schema({{"x", DataKind::kDouble}}), {x.Finish()}));
    }
    const double rate =
        static_cast<double>(kSamplesPerPartition) / slice;
    QuantileSketch sketch(RecordOrder({{"x", true}}), rate, kKllCap);

    double kll_err = 0, base_err = 0;
    size_t kll_bytes = 0, base_bytes = 0;
    for (int s = 1; s <= kSweepSeeds; ++s) {
      QuantileResult kll = sketch.Zero();
      DecimationSummary base;
      base.max_size = kBaselineCap;
      for (int p = 0; p < depth; ++p) {
        const uint64_t seed = MixSeed(500 + s, p);
        kll = sketch.Merge(kll, sketch.Summarize(*partitions[p], seed));
        // The baseline partial samples the *same rows* (same ScanRows
        // stream), so the sweep isolates the merge policy, not sampling
        // luck.
        DecimationSummary part;
        part.max_size = kBaselineCap;
        ColumnPtr col = partitions[p]->GetColumnOrNull("x");
        ScanRows(*partitions[p]->members(), rate, seed, [&](uint32_t row) {
          part.keys.push_back(col->GetDouble(row));
        });
        std::sort(part.keys.begin(), part.keys.end());
        part.Cap();
        base = DecimationMerge(std::move(base), part);
      }
      for (double q = 0.05; q < 0.951; q += 0.05) {
        double kv = std::get<double>(kll.KeyAtQuantile(q)->at(0));
        kll_err = std::max(
            kll_err, std::fabs(TrueRank(sorted, kv) - q) * 2 * kSweepV);
        double bv = base.AtQuantile(q);
        base_err = std::max(
            base_err, std::fabs(TrueRank(sorted, bv) - q) * 2 * kSweepV);
      }
      ByteWriter w;
      kll.Serialize(&w);
      kll_bytes = std::max(kll_bytes, w.size());
      base_bytes = std::max(base_bytes, base.WireBytes());
    }
    std::printf("%-12d %14.2f %14.2f %16zu %16zu\n", depth, kll_err,
                base_err, kll_bytes, base_bytes);
    // Machine-readable points for run_benches.sh: the bench-diff artifact
    // tracks accuracy regressions the same way it tracks speed.
    std::printf("METRIC quantile_depth%d_kll_err_px %.3f\n", depth, kll_err);
    std::printf("METRIC quantile_depth%d_decim_err_px %.3f\n", depth,
                base_err);
    std::printf("METRIC quantile_depth%d_kll_bytes %zu\n", depth, kll_bytes);
  }
  std::printf(
      "Expected shape: the decimation error grows with merge depth (its "
      "survivors are\nmisweighted), the KLL error stays near the sampling "
      "floor at no more wire bytes.\n");
}

}  // namespace
}  // namespace hillview

int main() {
  using namespace hillview;
  std::printf("=== Figure 3/13: rendering accuracy at theorem sample sizes "
              "(%d seeds, %u rows) ===\n",
              kSeeds, kRows);
  std::printf("%-28s %22s %18s %s\n", "chart", "worst deviation",
              "frac cells > 1", "guarantee");
  auto h = HistogramDeviation();
  std::printf("%-28s %19d px %18.4f %s\n", "histogram bars", h.max_dev,
              h.frac_beyond_one, "<=1 px whp");
  auto c = CdfDeviation();
  std::printf("%-28s %19d px %18.4f %s\n", "cdf curve", c.max_dev,
              c.frac_beyond_one, "<=1 px whp");
  auto m = HeatMapDeviation();
  std::printf("%-28s %16d shades %18.4f %s\n", "heat map colors", m.max_dev,
              m.frac_beyond_one, "<=1 shade whp");
  auto st = StackedDeviation();
  std::printf("%-28s %19d px %18.4f %s\n", "stacked subdivisions", st.max_dev,
              st.frac_beyond_one, "<=1 px whp");
  auto q = QuantileDeviation();
  std::printf("%-28s %16d (x2V) %18.4f %s\n", "scroll quantile rank", q.max_dev,
              q.frac_beyond_one, "<=1/V w. const prob");
  std::printf(
      "\nExpected shape: 'frac cells > 1' stays at or near zero (the δ=1%%\n"
      "error budget), matching the paper's 1-pixel / 1-shade guarantees.\n");
  MergeDepthSweep();
  return 0;
}
