#ifndef HILLVIEW_STORAGE_SORT_KEY_H_
#define HILLVIEW_STORAGE_SORT_KEY_H_

#include <bit>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "storage/row_order.h"
#include "storage/table.h"

namespace hillview {

/// Order-preserving 64-bit words for numeric cells, shared by the sort keys
/// below and the quantile summary's key columns: unsigned comparison of two
/// words of one encoding is the value order.
///
/// Sign-bias for 64-bit integers. INT64_MAX maps to the all-ones word, which
/// the sort keys reserve for missing (SortKeyPlan saturates it and records
/// inexactness).
inline uint64_t EncodeI64(int64_t v) {
  return static_cast<uint64_t>(v) ^ (uint64_t{1} << 63);
}

inline int64_t DecodeI64(uint64_t word) {
  return static_cast<int64_t>(word ^ (uint64_t{1} << 63));
}

/// IEEE-754 total-order transform: monotone over all non-NaN doubles
/// (including ±inf). -0.0 canonicalizes to +0.0 first, because CompareRows
/// and CompareValues treat them as equal and words must not order equal
/// values. NaN never reaches this (it is missing under the central scan
/// policy).
inline uint64_t EncodeF64(double d) {
  if (d == 0.0) d = 0.0;  // collapse -0.0 onto +0.0
  uint64_t bits = std::bit_cast<uint64_t>(d);
  return (bits >> 63) != 0 ? ~bits : (bits | (uint64_t{1} << 63));
}

/// Inverse of EncodeF64. A word from outside may decode to NaN or to -0.0,
/// which EncodeF64 never produces; callers check for both.
inline double DecodeF64(uint64_t word) {
  uint64_t bits = (word >> 63) != 0 ? (word & ~(uint64_t{1} << 63)) : ~word;
  return std::bit_cast<double>(bits);
}

/// Typed sort-key extraction: turns the leading column(s) of a RecordOrder
/// into fixed-width normalized keys so order-based sketches (next-items
/// top-K, quantile sampling) compare rows with one integer comparison
/// instead of a virtual RowComparator::Less per comparison.
///
/// Two key shapes exist, selected by the plan:
///
/// **Single 64-bit keys** (the default) encode the first effective order
/// column, order-preserving per physical layout:
///
///   int32   (v ^ 0x80000000) << 32          (sign-bias, shifted to 64 bits)
///   int64   v ^ 0x8000000000000000          (sign-bias; INT64_MAX saturates)
///   double  IEEE-754 total-order trick: negative values complement all
///           bits, positive values set the sign bit (NaN is missing)
///   codes   the dictionary code (dictionaries are sorted, so code order is
///           alphabetical order)
///
/// **Packed 32+32 keys** cover the first *two* effective order columns when
/// both have a narrow layout (int32, date/int64, dictionary codes): each
/// column maps through a monotone per-column transform
/// `(v - min) >> shift` into 32 bits (min/shift derived from the column's
/// value range in a pre-pass), the first column in the high half and the
/// second in the low half, so multi-column ties resolve with the same single
/// integer comparison. The transform is *exact* (injective on present
/// values) when shift == 0; an inexact component simply widens the tie set —
/// equal keys fall back to the virtual comparison. The first component must
/// be exact for packing (a lossy high half would let the low half override
/// the true first-column order); a range too wide for 32 bits there falls
/// back to the single-key shape.
///
/// Missing values encode as the all-ones component/key, matching
/// IColumn::CompareRows' missing-last contract; a descending orientation
/// complements the column's component, which reverses its order and places
/// missing first — exactly what `ascending ? c : -c` does in RowComparator.
///
/// Key comparison is a *refinement gate*, not the full order: key(a) < key(b)
/// implies row a precedes row b on the encoded column prefix; equal keys mean
/// "tied on the prefix" and the comparison falls back to the virtual path for
/// the remaining order columns (plus any inexactly-encoded prefix columns).
///
/// Construction is split from materialization so a worker-resident
/// SortKeyCache can reuse the (expensive) key column across scans. The
/// deferred constructor only binds columns (cheap layout checks — enough
/// for CacheKey); `FinalizeEncodings()` runs the O(n) read-only pre-passes
/// that fix the shape (packed vs single, min/shift transforms, exactness);
/// `BuildKeys()` (which finalizes first) materializes the key vector; and
/// on a cache hit `AdoptEncodings()` + `AdoptKeys()` restore both from the
/// cache entry, skipping every O(n) pass.
class SortKeyPlan {
 public:
  using KeysPtr = std::shared_ptr<const std::vector<uint64_t>>;

  /// Deterministic snapshot of the data-derived encoding decisions, cached
  /// next to the key vector so a hit restores the full plan without
  /// re-reading the columns. Same CacheKey (same column objects, directions,
  /// candidate shape) always yields the same snapshot.
  struct EncodingSnapshot {
    bool packed = false;
    int64_t first_min = 0;
    int64_t second_min = 0;
    uint32_t first_shift = 0;
    uint32_t second_shift = 0;
    bool first_exact = true;
    bool second_exact = true;
  };

  /// Defers key materialization: the caller adopts cached keys or calls
  /// BuildKeys() explicitly (the SortKeyCache path).
  struct DeferKeysTag {};
  static constexpr DeferKeysTag kDeferKeys{};

  /// Plans, finalizes encodings, *and* materializes keys for every universe
  /// row of `table` under `order`. `valid()` is false when the first
  /// effective order column is absent or has no raw layout; callers then
  /// use the virtual RowComparator path.
  SortKeyPlan(const Table& table, const RecordOrder& order);

  /// Binds only (cheap; no O(n) passes): enough for CacheKey lookups.
  /// keys() is unusable until AdoptKeys()/BuildKeys(), and the shape
  /// accessors (packed/exact/TotalOrder/tie_order/EncodeStartKey) until
  /// FinalizeEncodings()/AdoptEncodings().
  SortKeyPlan(const Table& table, const RecordOrder& order, DeferKeysTag);

  bool valid() const { return valid_; }

  /// The materialized key column; requires has_keys().
  const std::vector<uint64_t>& keys() const { return *keys_; }
  bool has_keys() const { return keys_ != nullptr; }

  /// Fixes the encoding decisions (packed vs single, min/shift transforms,
  /// exactness, tie order) without materializing keys, via O(n) read-only
  /// pre-passes — for callers that want the shape alone. BuildKeys() fixes
  /// them as a side effect of the key pass instead (fused, one scan), so
  /// most callers never call this. Idempotent; deterministic for a given
  /// CacheKey, so both routes reach identical decisions.
  void FinalizeEncodings();
  bool encodings_ready() const { return encodings_ready_; }

  /// The finalized decisions, for caching; requires encodings_ready().
  EncodingSnapshot encodings() const;

  /// Restores previously finalized decisions (the cache-hit path, skipping
  /// the pre-passes). The snapshot must come from a plan with the same
  /// CacheKey, which makes it byte-identical to what FinalizeEncodings()
  /// would derive.
  void AdoptEncodings(const EncodingSnapshot& snapshot);

  /// Materializes the key column (O(universe)), finalizing encodings along
  /// the way when not already done. Pure function of the plan: identical
  /// plans over the same data build identical keys, which is what makes the
  /// vector safely cacheable.
  KeysPtr BuildKeys();

  /// Binds a key vector previously produced by BuildKeys() on an identical
  /// plan (same CacheKey) — the SortKeyCache hit path.
  void AdoptKeys(KeysPtr keys) { keys_ = std::move(keys); }

  /// True when the plan packs two columns into one 32+32 key.
  bool packed() const { return packed_; }

  /// True when equal keys imply equal values on every encoded column
  /// (no saturated/shifted component), i.e. the tie-break may skip the
  /// encoded prefix.
  bool exact() const { return exact_; }

  /// True when key order (plus row-id tiebreak) is the complete record
  /// order: every effective order column is encoded exactly.
  bool TotalOrder() const { return tie_order_.empty(); }

  /// Start-key band: the key range that cannot be classified by the key
  /// alone. keys()[r] < below implies row r strictly precedes the start key
  /// in the full record order; keys()[r] > above implies row r strictly
  /// follows it; keys in [below, above] need a full RowKeyComparator. Exact
  /// single-column encodings collapse the band to a point (below == above).
  struct StartKeyBand {
    uint64_t below;
    uint64_t above;
  };

  /// Encodes a materialized start key (cell values indexed like the order's
  /// orientations, as produced by Table::GetRow over the order columns) into
  /// a key-space band. Returns nullopt when the leading cell does not embed
  /// in the key space at all (callers fall back to per-row compares).
  std::optional<StartKeyBand> EncodeStartKey(
      const std::vector<Value>& cells) const;

  /// Single-column point encoding (non-packed plans only), kept for tests
  /// and callers that need the raw threshold:
  ///   keys()[r] <  *enc  =>  row r precedes the start key,
  ///   keys()[r] >  *enc  =>  row r follows the start key,
  /// and equality requires a full RowKeyComparator. Returns nullopt when the
  /// value does not embed exactly.
  std::optional<uint64_t> EncodeStartCell(const Value& v) const;

  /// Index into the order's orientations of the first effective column
  /// (orientations naming unknown columns are skipped, as in RowComparator).
  size_t first_column_index() const { return first_index_; }

  /// The orientations a key tie must still compare through the virtual path:
  /// the columns after the encoded prefix, preceded by any prefix column
  /// whose encoding is inexact. Empty means key order (plus row id) is the
  /// complete record order.
  const std::vector<ColumnSortOrientation>& tie_order() const {
    return tie_order_;
  }

  /// Identity of this plan for the worker-resident SortKeyCache: the encoded
  /// column objects (pointer identity — column data is immutable, so the
  /// object *is* the layout fingerprint) plus the order prefix and shape.
  /// Combined with key_columns() liveness checks this is collision-free: a
  /// recycled allocation cannot match while the original column is alive.
  std::string CacheKey() const;

  /// The columns the keys are derived from (1 or 2); the cache validates
  /// these are still alive before serving an entry.
  const std::vector<ColumnPtr>& key_columns() const { return key_columns_; }

  /// One encoded column: its binding plus the 32-bit packing transform
  /// (unused by the single-key shape). Public only so the key-building
  /// helpers in sort_key.cc can take it; not part of the caller API.
  struct Component {
    ColumnPtr column;
    DataKind kind = DataKind::kDouble;
    bool ascending = true;
    size_t orientation_index = 0;
    int64_t min = 0;     // packed transform: enc = (v - min) >> shift
    uint32_t shift = 0;  // 0 == exact (injective on present values)
    bool exact = true;
  };

 private:
  void Plan(const Table& table, const RecordOrder& order);
  void FinalizeShape();
  void DeriveTieOrder();
  /// Returns true when an INT64_MAX date saturated (the encoding is then
  /// inexact; the cold-build path folds this into first_.exact).
  bool BuildSingleKeys(std::vector<uint64_t>& keys) const;
  void BuildPackedKeys(std::vector<uint64_t>& keys) const;
  /// 32-bit packed encoding of one start cell for component `c`; second ==
  /// true when equal components imply equal values (drives band width).
  std::optional<std::pair<uint32_t, bool>> EncodePackedCell(
      const Component& c, const Value& v) const;

  bool valid_ = false;
  bool candidate_packed_ = false;  // both leading columns narrow (stage 1)
  bool encodings_ready_ = false;
  bool packed_ = false;
  bool exact_ = true;
  size_t first_index_ = 0;
  uint32_t universe_ = 0;
  Component first_;
  Component second_;  // bound only when candidate_packed_
  ColumnSortOrientation first_orient_;
  ColumnSortOrientation second_orient_;
  std::vector<ColumnPtr> key_columns_;
  std::vector<ColumnSortOrientation> rest_;  // effective columns after first
  std::vector<ColumnSortOrientation> tie_order_;
  KeysPtr keys_;
};

/// Row comparator over a SortKeyPlan: one integer comparison on the normal
/// keys, then the virtual tie-break order only on key ties. Mirrors
/// RowComparator's Compare/Less contract over the full record order. The
/// plan must have materialized (or adopted) keys.
class KeyComparator {
 public:
  KeyComparator(const Table& table, const SortKeyPlan& plan)
      : keys_(plan.keys().data()),
        has_tie_(!plan.tie_order().empty()),
        tie_(table, RecordOrder(plan.tie_order())) {}

  /// Three-way comparison (no row-id tiebreaker), identical in result to
  /// RowComparator::Compare over the full order.
  int Compare(uint32_t a, uint32_t b) const {
    uint64_t ka = keys_[a], kb = keys_[b];
    if (ka != kb) return ka < kb ? -1 : 1;
    return has_tie_ ? tie_.Compare(a, b) : 0;
  }

  /// Strict weak ordering with the row-id tiebreaker.
  bool Less(uint32_t a, uint32_t b) const {
    int c = Compare(a, b);
    if (c != 0) return c < 0;
    return a < b;
  }

  uint64_t Key(uint32_t row) const { return keys_[row]; }

 private:
  const uint64_t* keys_;
  bool has_tie_;
  RowComparator tie_;
};

/// Member/sample density gate shared by every keyed scan path (next-items,
/// quantile): materializing keys costs O(universe), so a cold build only
/// pays off when the scan touches at least 1 in 2^kKeyedScanDensityShift
/// universe rows. Cached (already materialized) keys skip this gate — reuse
/// is free regardless of density. Kept in one place so the cached-key path
/// and the inline path cannot drift.
inline constexpr uint32_t kKeyedScanDensityShift = 4;  // >= 1/16 of universe

inline bool KeyedScanProfitable(uint64_t scan_rows, uint64_t universe) {
  return scan_rows >= (universe >> kKeyedScanDensityShift);
}

}  // namespace hillview

#endif  // HILLVIEW_STORAGE_SORT_KEY_H_
