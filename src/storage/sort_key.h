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
/// value range), the first column in the high half and the second in the
/// low half, so multi-column ties resolve with the same single integer
/// comparison. The transform is *exact* (injective on present values) when
/// shift == 0; an inexact component simply widens the tie set — equal keys
/// fall back to the virtual comparison. The first component must be exact
/// for packing (a lossy high half would let the low half override the true
/// first-column order); a range too wide for 32 bits there falls back to
/// the single-key shape.
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
/// A plan has two states, with one way into each:
///   - *bound* (the constructor, O(columns)): the leading columns and the
///     candidate shape are fixed, which is all CacheKey() needs; no column
///     is read;
///   - *built* (built()): the key vector and the encodings derived with it
///     exist together. BuildKeys() gets there in one fused O(universe) pass,
///     the only place encodings are derived; Adopt() gets there from a
///     SortKeyCache entry, which holds what BuildKeys() made on a plan with
///     the same CacheKey.
/// Everything but valid(), CacheKey() and key_columns() needs a built plan.
class SortKeyPlan {
 public:
  using KeysPtr = std::shared_ptr<const std::vector<uint64_t>>;

  /// The packing transform of one component, `enc = (v - min) >> shift`.
  /// `exact` means equal encodings imply equal values: shift == 0 for a
  /// packed component, no INT64_MAX saturation for the single shape.
  struct Transform {
    int64_t min = 0;
    uint32_t shift = 0;
    bool exact = true;
  };

  /// The data-derived half of a built plan, O(components): what a cache
  /// entry keeps beside the key vector. The same CacheKey over the same data
  /// always derives the same Encodings.
  struct Encodings {
    bool packed = false;
    Transform first;
    Transform second;  // packed plans only
  };

  /// Binds the first order column that exists (orientations naming unknown
  /// columns are skipped, as in RowComparator), the candidate second column
  /// and the tie tail. `valid()` is false when no order column exists;
  /// callers then use the virtual RowComparator path.
  SortKeyPlan(const Table& table, const RecordOrder& order);

  bool valid() const { return first_.column != nullptr; }
  bool built() const { return keys_ != nullptr; }

  /// Materializes the key column of a valid plan (O(universe)), deriving
  /// the encodings in the same pass, and leaves the plan built. Pure
  /// function of the plan: identical plans over the same data build
  /// identical keys and encodings, which is what makes them cacheable.
  KeysPtr BuildKeys();

  /// Leaves the plan built from keys and encodings that BuildKeys() made on
  /// a plan with the same CacheKey (the SortKeyCache hit path).
  void Adopt(KeysPtr keys, const Encodings& encodings);

  /// The materialized key column.
  const std::vector<uint64_t>& keys() const { return *keys_; }
  const Encodings& encodings() const { return encodings_; }

  /// True when the plan packs two columns into one 32+32 key.
  bool packed() const { return encodings_.packed; }

  /// True when equal keys imply equal values on every encoded column
  /// (no saturated/shifted component), i.e. the tie-break may skip the
  /// encoded prefix. (A packed first component is exact by construction.)
  bool exact() const {
    return encodings_.first.exact && encodings_.second.exact;
  }

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

  /// One bound order column. Public only so the key-building helpers in
  /// sort_key.cc can take it; not part of the caller API.
  struct Component {
    ColumnPtr column;
    ColumnSortOrientation orientation;
    size_t orientation_index = 0;
  };

 private:
  bool candidate_packed_ = false;  // both leading columns narrow
  Component first_;
  Component second_;
  std::vector<ColumnPtr> key_columns_;
  std::vector<ColumnSortOrientation> rest_;  // effective columns after first
  Encodings encodings_;
  std::vector<ColumnSortOrientation> tie_order_;
  KeysPtr keys_;
};

/// Row comparator over a SortKeyPlan: one integer comparison on the normal
/// keys, then the virtual tie-break order only on key ties. Mirrors
/// RowComparator's Compare/Less contract over the full record order. The
/// plan must be built.
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

}  // namespace hillview

#endif  // HILLVIEW_STORAGE_SORT_KEY_H_
