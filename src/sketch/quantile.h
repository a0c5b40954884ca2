#ifndef HILLVIEW_SKETCH_QUANTILE_H_
#define HILLVIEW_SKETCH_QUANTILE_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "sketch/kll.h"
#include "sketch/sketch.h"
#include "storage/row_order.h"
#include "util/serialize.h"

namespace hillview {

/// The class of one key cell: the Value alternative it materializes to (ints
/// and dates both become int64). Across classes cells order as CompareValues
/// orders them: numbers (ints and doubles interleaved by value), then
/// strings, then missing.
enum class KeyClass : uint8_t {
  kInt = 0,
  kDouble = 1,
  kString = 2,
  kMissing = 3,
};

/// One order column of a QuantileResult: a typed array parallel to the
/// summary's weights.
struct QuantileColumn {
  /// The class of every cell while `classes` is empty.
  KeyClass kind = KeyClass::kMissing;
  /// Per-cell classes, present only when the cells hold at least two
  /// classes: a column with missing cells, or a merge of partitions whose
  /// loaders inferred different kinds for it (csv and jsonl infer per file).
  std::vector<KeyClass> classes;
  /// One word per cell. Ints and dates hold EncodeI64(v) and doubles
  /// EncodeF64(v) (storage/sort_key.h), so within one numeric class word
  /// order is value order; strings hold `offset << 32 | length` into the
  /// summary's pool; missing cells hold 0.
  std::vector<uint64_t> words;

  KeyClass ClassAt(size_t item) const {
    return classes.empty() ? kind : classes[item];
  }
};

/// A weighted KLL summary of row keys, kept sorted under the record order.
/// The scroll-bar quantile vizketch (§4.3 "Quantile for scroll bar"): with
/// O(V²) samples the key at relative rank q is within ±1/(2V) of the true
/// q-quantile with high probability (Theorem 2).
///
/// Keys are stored column-wise, one typed array per order column, so a merge
/// compares words (and pool bytes only for string cells) and the wire
/// carries each column as one array; only the key a caller asks for is
/// materialized as Values. A -0.0 cell comes back as +0.0, its equal.
///
/// Each retained item carries a weight — the number of sampled rows it
/// represents. Fresh partition summaries are all unit weight; merging past
/// the size cap compacts via randomized-parity KLL compaction (kll.h),
/// doubling survivor weights instead of the old keep-every-other decimation
/// (which always kept index 0 — a deterministic bias toward the minimum key
/// that compounded with merge-tree depth, while queries kept treating every
/// key as one row). Quantile queries are weight-aware, and RankErrorBound()
/// reports the compaction-induced rank error explicitly.
struct QuantileResult {
  /// Sampled keys, one column per order column, each parallel to `weights`;
  /// items are sorted ascending under the sketch's record order.
  std::vector<QuantileColumn> columns;
  /// The bytes of every string cell, viewed by the string columns' words.
  std::string pool;
  /// Sampled rows each item represents (1 until a compaction touches it;
  /// powers of two for summaries built here).
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

  /// Number of retained items.
  size_t size() const { return weights.size(); }

  /// Sum of all weights ≈ rate × rows summarized.
  uint64_t TotalWeight() const;

  /// Materializes one cell, or one item's key (its cell in every column).
  Value Cell(size_t column, size_t item) const;
  std::vector<Value> Key(size_t item) const;

  /// The key closest to quantile q in [0,1] by weighted rank; nullopt if no
  /// samples.
  std::optional<std::vector<Value>> KeyAtQuantile(double q) const;

  /// Normalized rank error introduced by compactions (0 for an uncompacted
  /// summary); the sampling error of Theorem 2 is on top of this.
  double RankErrorBound() const;

  /// Wire format: the magic word, the item and column counts, the string
  /// pool, then per column a class tag (or a per-cell class array, as a
  /// word vector of runs) and its words, then the weights (elided when all
  /// are 1; otherwise 1-byte power-of-two exponents) and the scalars. Int
  /// and date columns ship their words as a word vector (util/serialize.h:
  /// runs or zigzag deltas); every other column ships raw 8-byte words.
  void Serialize(ByteWriter* w) const;
  /// Accepts only payloads that open with the format's magic word; checks
  /// every count against the remaining bytes or the message's word budget,
  /// and every column against the item count; rejects unknown class tags,
  /// double words that are NaN or not canonical, string views outside the
  /// pool, nonzero missing words, and hostile scalars (NaN/out-of-range
  /// rate, negative max_size, weight exponents or total weight over the
  /// 2^44 cap — generous against the display-sized totals real summaries
  /// carry, but tight enough that valid payloads cannot compose into uint64
  /// overflow downstream) with InvalidArgument.
  static Status Deserialize(ByteReader* r, QuantileResult* out);
};

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
  RecordOrder order_;
  double rate_;
  int max_size_;
};

}  // namespace hillview

#endif  // HILLVIEW_SKETCH_QUANTILE_H_
