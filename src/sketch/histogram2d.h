#ifndef HILLVIEW_SKETCH_HISTOGRAM2D_H_
#define HILLVIEW_SKETCH_HISTOGRAM2D_H_

#include <string>
#include <vector>

#include "sketch/buckets.h"
#include "sketch/sketch.h"
#include "util/serialize.h"

namespace hillview {

/// Two-dimensional bucket counts: the shared summary behind stacked
/// histograms (§B.1), normalized stacked histograms, and heat maps. Matches
/// the paper's summary shape — "a small vector S of Bx + Bx×By bin counts"
/// for stacked histograms and "a matrix of Bx×By bin counts" for heat maps.
struct Histogram2DResult {
  int x_buckets = 0;
  int y_buckets = 0;
  /// Joint counts, row-major: xy[x * y_buckets + y].
  std::vector<int64_t> xy;
  /// Per-X totals including rows whose Y is missing (this is the stacked
  /// histogram's bar height).
  std::vector<int64_t> x_counts;
  int64_t missing_x = 0;       // X missing (Y ignored)
  int64_t missing_y = 0;       // X present, Y missing
  int64_t out_of_range = 0;
  int64_t rows_scanned = 0;
  double sample_rate = 1.0;

  bool IsZero() const { return xy.empty(); }

  int64_t Count(int x, int y) const { return xy[x * y_buckets + y]; }
  double EstimatedCount(int x, int y) const {
    return static_cast<double>(Count(x, y)) / sample_rate;
  }

  void Serialize(ByteWriter* w) const;
  /// Rejects counts that do not fit the declared buckets: a negative bucket
  /// count, `xy` not `x_buckets * y_buckets` long, `x_counts` not
  /// `x_buckets` long, or `x_counts` beside an empty `xy`.
  static Status Deserialize(ByteReader* r, Histogram2DResult* out);
};

/// Counts pairs of columns into a 2D grid. With rate == 1.0 this is the
/// exact streaming variant (required by the normalized stacked histogram and
/// by log-scale heat maps, §B.1); with rate < 1.0 it samples, which is valid
/// whenever the count-to-pixel/color map is linear.
class Histogram2DSketch final : public Sketch<Histogram2DResult> {
 public:
  Histogram2DSketch(std::string x_column, Buckets x_buckets,
                    std::string y_column, Buckets y_buckets,
                    double rate = 1.0)
      : x_column_(std::move(x_column)),
        y_column_(std::move(y_column)),
        x_buckets_(std::move(x_buckets)),
        y_buckets_(std::move(y_buckets)),
        rate_(rate) {}

  std::string name() const override;
  Histogram2DResult Zero() const override { return {}; }
  Histogram2DResult Summarize(const Table& table, uint64_t seed) const override;
  Histogram2DResult Merge(const Histogram2DResult& left,
                          const Histogram2DResult& right) const override;

  /// Pointwise integer adds; exact under splitting only when streaming
  /// (sampling skips restart per morsel).
  bool MorselMergeExact() const override { return rate_ >= 1.0; }

  Status CheckShape(const Histogram2DResult& summary) const override;

  double rate() const { return rate_; }

 private:
  std::string x_column_;
  std::string y_column_;
  Buckets x_buckets_;
  Buckets y_buckets_;
  double rate_;
};

/// Merge by pointwise addition with Zero-identity handling; shared with the
/// trellis sketch.
Histogram2DResult MergeHistogram2D(const Histogram2DResult& left,
                                   const Histogram2DResult& right);

/// Trellis plot summary: an array of 2D grids, one per bucket of the
/// grouping column W (§B.1 "Trellis plots"). The summary size equals that of
/// a single heat map with the same total pixel area, since each sub-plot is
/// proportionally smaller.
struct TrellisResult {
  std::vector<Histogram2DResult> groups;
  int64_t missing_w = 0;
  int64_t out_of_range_w = 0;

  bool IsZero() const { return groups.empty(); }

  void Serialize(ByteWriter* w) const;
  static Status Deserialize(ByteReader* r, TrellisResult* out);
};

/// Computes a 2D grid for every bucket of the grouping column W.
class TrellisSketch final : public Sketch<TrellisResult> {
 public:
  TrellisSketch(std::string w_column, Buckets w_buckets, std::string x_column,
                Buckets x_buckets, std::string y_column, Buckets y_buckets,
                double rate = 1.0)
      : w_column_(std::move(w_column)),
        x_column_(std::move(x_column)),
        y_column_(std::move(y_column)),
        w_buckets_(std::move(w_buckets)),
        x_buckets_(std::move(x_buckets)),
        y_buckets_(std::move(y_buckets)),
        rate_(rate) {}

  std::string name() const override;
  TrellisResult Zero() const override { return {}; }
  TrellisResult Summarize(const Table& table, uint64_t seed) const override;
  TrellisResult Merge(const TrellisResult& left,
                      const TrellisResult& right) const override;

  /// Same rule as Histogram2DSketch: per-group integer adds.
  bool MorselMergeExact() const override { return rate_ >= 1.0; }

  Status CheckShape(const TrellisResult& summary) const override;

 private:
  std::string w_column_;
  std::string x_column_;
  std::string y_column_;
  Buckets w_buckets_;
  Buckets x_buckets_;
  Buckets y_buckets_;
  double rate_;
};

}  // namespace hillview

#endif  // HILLVIEW_SKETCH_HISTOGRAM2D_H_
