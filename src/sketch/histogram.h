#ifndef HILLVIEW_SKETCH_HISTOGRAM_H_
#define HILLVIEW_SKETCH_HISTOGRAM_H_

#include <string>
#include <vector>

#include "sketch/buckets.h"
#include "sketch/sketch.h"
#include "util/serialize.h"

namespace hillview {

/// Summary produced by the histogram vizketches: one count per bucket, plus
/// missing-value and out-of-range tallies (§4.3: "The summarize function
/// outputs a vector of B bin counts, and the merge function adds two
/// vectors"). Size is O(B) — independent of the dataset.
struct HistogramResult {
  std::vector<int64_t> counts;
  int64_t missing = 0;
  int64_t out_of_range = 0;
  /// Rows inspected to build this summary (sampled rows for sampled
  /// sketches). Drives confidence reporting in the renderer.
  int64_t rows_scanned = 0;
  /// Effective sampling rate; 1.0 for streaming sketches. All partitions of
  /// one query share the same rate (it is computed from the global row count
  /// during the preparation phase), so merging keeps the larger rate of the
  /// two operands only to absorb Zero() elements.
  double sample_rate = 1.0;

  bool IsZero() const { return counts.empty(); }

  /// Unbiased estimate of the true count in bucket `b`.
  double EstimatedCount(int b) const {
    return static_cast<double>(counts[b]) / sample_rate;
  }

  /// Sum of all bucket counts (not scaled by the sample rate).
  int64_t TotalCount() const;

  void Serialize(ByteWriter* w) const;
  static Status Deserialize(ByteReader* r, HistogramResult* out);
};

/// Exact histogram: scans every member row ("Histogram (streaming)" in §B.1,
/// for "users [who] want to get the results precise to the last digit").
class StreamingHistogramSketch final : public Sketch<HistogramResult> {
 public:
  StreamingHistogramSketch(std::string column, Buckets buckets)
      : column_(std::move(column)), buckets_(std::move(buckets)) {}

  std::string name() const override;
  HistogramResult Zero() const override;
  HistogramResult Summarize(const Table& table, uint64_t seed) const override;
  HistogramResult Merge(const HistogramResult& left,
                        const HistogramResult& right) const override;

  /// Integer bucket counts merged by pointwise addition: splitting the scan
  /// into row ranges reorders only integer increments.
  bool MorselMergeExact() const override { return true; }

  Status CheckShape(const HistogramResult& summary) const override;

  const Buckets& buckets() const { return buckets_; }

 private:
  std::string column_;
  Buckets buckets_;
};

/// Approximate histogram: samples member rows at a fixed global rate chosen
/// from the display resolution (§4.3). The seed makes sampling deterministic
/// for replay.
class SampledHistogramSketch final : public Sketch<HistogramResult> {
 public:
  /// `rate` is the per-row sampling probability, typically
  /// SampleRateForSize(HistogramSampleSize(V, B), total_rows).
  SampledHistogramSketch(std::string column, Buckets buckets, double rate)
      : column_(std::move(column)),
        buckets_(std::move(buckets)),
        rate_(rate) {}

  std::string name() const override;
  HistogramResult Zero() const override;
  HistogramResult Summarize(const Table& table, uint64_t seed) const override;
  HistogramResult Merge(const HistogramResult& left,
                        const HistogramResult& right) const override;

  /// At rate >= 1 this degenerates to the streaming scan (exact integer
  /// tallies); below 1 the geometric skip sequence restarts per morsel, so
  /// the sampled row set — and thus the counts — would change.
  bool MorselMergeExact() const override { return rate_ >= 1.0; }

  Status CheckShape(const HistogramResult& summary) const override;

  double rate() const { return rate_; }
  const Buckets& buckets() const { return buckets_; }

 private:
  std::string column_;
  Buckets buckets_;
  double rate_;
};

/// Internal helper shared by the histogram-family sketches: tallies one
/// table's rows into `result`, either fully (rate >= 1) or by sampling.
/// Exposed for reuse by the CDF and stacked-histogram implementations.
void TallyHistogram(const Table& table, const std::string& column,
                    const Buckets& buckets, double rate, uint64_t seed,
                    HistogramResult* result);

/// Merges two histogram summaries by pointwise addition; Zero elements
/// (empty counts) act as identities. Shared by both sketches.
HistogramResult MergeHistograms(const HistogramResult& left,
                                const HistogramResult& right);

}  // namespace hillview

#endif  // HILLVIEW_SKETCH_HISTOGRAM_H_
