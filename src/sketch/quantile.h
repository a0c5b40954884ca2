#ifndef HILLVIEW_SKETCH_QUANTILE_H_
#define HILLVIEW_SKETCH_QUANTILE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "sketch/kll.h"
#include "sketch/next_items.h"
#include "sketch/sketch.h"
#include "storage/row_order.h"
#include "util/serialize.h"

namespace hillview {

/// A weighted KLL summary of row keys, kept sorted under the record order.
/// The scroll-bar quantile vizketch (§4.3 "Quantile for scroll bar"): with
/// O(V²) samples the key at relative rank q is within ±1/(2V) of the true
/// q-quantile with high probability (Theorem 2).
///
/// Each retained key carries a weight — the number of sampled rows it
/// represents. Fresh partition summaries are all unit weight; merging past
/// the size cap compacts via randomized-parity KLL compaction (kll.h),
/// doubling survivor weights instead of the old keep-every-other decimation
/// (which always kept index 0 — a deterministic bias toward the minimum key
/// that compounded with merge-tree depth, while queries kept treating every
/// key as one row). Quantile queries are weight-aware, and RankErrorBound()
/// reports the compaction-induced rank error explicitly.
struct QuantileResult {
  /// Sampled keys (cells of the order columns), sorted ascending under the
  /// sketch's record order.
  std::vector<std::vector<Value>> keys;
  /// Parallel to `keys`: sampled rows each key represents (1 until a
  /// compaction touches it; powers of two for summaries built here).
  std::vector<uint64_t> weights;
  /// Sampling rate; merges of unequal rates subsample the denser side down
  /// to the common (minimum) rate.
  double rate = 1.0;
  /// Cap on the retained item count (the KLL compaction budget).
  int max_size = 0;
  /// Coin seed for compaction parities and rate-reconciling subsamples,
  /// set from the partition seed by Summarize and XOR-combined on merge
  /// (XOR keeps the combined seed independent of the merge-tree shape, so
  /// the redo log replays a healed tree deterministically; no wall-clock).
  uint64_t seed = 0;
  /// Accumulated compaction error (see KllErrorLedger): worst-case and
  /// variance of the rank shift any single query may have suffered.
  KllErrorLedger error;

  bool IsZero() const { return max_size == 0; }

  /// Sum of all weights ≈ rate × rows summarized.
  uint64_t TotalWeight() const;

  /// The key closest to quantile q in [0,1] by weighted rank; empty if no
  /// samples.
  const std::vector<Value>* KeyAtQuantile(double q) const;

  /// Normalized rank error introduced by compactions (0 for an uncompacted
  /// summary); the sampling error of Theorem 2 is on top of this.
  double RankErrorBound() const;

  void Serialize(ByteWriter* w) const;
  /// Accepts only payloads that open with the format's magic word (weights
  /// travel as 1-byte power-of-two exponents); rejects hostile scalars
  /// (NaN/out-of-range rate, negative max_size, weight exponents or total
  /// weight over the 2^44 cap — generous against the display-sized totals
  /// real summaries carry, but tight enough that valid payloads cannot
  /// compose into uint64 overflow downstream) with InvalidArgument.
  static Status Deserialize(ByteReader* r, QuantileResult* out);
};

/// Three-way comparison of two materialized keys (cells of the order
/// columns) under `order` — the ordering every QuantileResult's keys are
/// sorted by. Exposed so test oracles (the statistical rank-bound suite)
/// rank by the exact production order instead of a drifting copy.
int CompareQuantileKeys(const RecordOrder& order, const std::vector<Value>& a,
                        const std::vector<Value>& b);

class QuantileSketch final : public Sketch<QuantileResult> {
 public:
  /// `rate` is typically SampleRateForSize(QuantileSampleSize(V), total).
  /// `max_size` bounds the summary; merges compact (weighted KLL with
  /// randomized parity) beyond it, preserving rank statistics.
  QuantileSketch(RecordOrder order, double rate, int max_size)
      : order_(std::move(order)), rate_(rate), max_size_(max_size) {}

  std::string name() const override;
  QuantileResult Zero() const override { return {}; }
  QuantileResult Summarize(const Table& table, uint64_t seed) const override {
    return Summarize(table, seed, SketchContext{});
  }
  /// Context-aware path: reuses the worker's sort-key cache when one is
  /// provided, so repeated scroll-bar probes of the same sorted view skip
  /// the O(universe) key-extraction pass.
  QuantileResult Summarize(const Table& table, uint64_t seed,
                           const SketchContext& context) const override;
  QuantileResult Merge(const QuantileResult& left,
                       const QuantileResult& right) const override;

 private:
  int CompareKeys(const std::vector<Value>& a,
                  const std::vector<Value>& b) const;

  RecordOrder order_;
  double rate_;
  int max_size_;
};

}  // namespace hillview

#endif  // HILLVIEW_SKETCH_QUANTILE_H_
