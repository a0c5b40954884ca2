#ifndef HILLVIEW_STORAGE_SCAN_H_
#define HILLVIEW_STORAGE_SCAN_H_

#include <cmath>
#include <cstdint>
#include <limits>
#include <type_traits>
#include <vector>

#include "storage/bit_gather.h"
#include "storage/column.h"
#include "storage/membership.h"
#include "storage/simd_dispatch.h"
#include "util/random.h"

namespace hillview {

/// Unified vectorized scan layer: the single entry point every vizketch
/// summarize loop uses to walk a column (§6: scans over plain columnar
/// arrays at hardware speed).
///
/// `ScanColumn` dispatches ONCE per scan on the full cross product
///
///   physical layout  (int32 | double | int64 | dictionary codes)
/// × membership kind  (full | dense bitmap | sparse row list)
/// × null mask        (absent | present)
/// × sampling rate    (streaming | geometric-skip sampling)
///
/// and then runs a tight template loop with no virtual calls. The visitor is
/// a small struct the compiler inlines:
///
///   struct V {
///     void OnValue(uint32_t row, T v);   // T is the column's native type
///     void OnMissing(uint32_t row);
///   };
///
/// Native types are int32_t / double / int64_t for numeric layouts and
/// uint32_t (the dictionary code) for string layouts; a templated OnValue
/// serves them all. Missing-value policy is defined centrally here:
///
///   - a set bit in the column's null mask is missing,
///   - NaN in a double column is missing (never forwarded to OnValue, which
///     is what makes unchecked bucket arithmetic downstream safe),
///   - StringColumn::kMissingCode is missing.
///
/// Dense-bitmap iteration is word-at-a-time: each 64-row membership word is
/// AND-ed with the corresponding null-mask word, so the null check costs one
/// instruction per 64 rows instead of one per row. Fully-set words run as
/// linear blocks; partially-set words (strided filters) are compressed into
/// dense index batches first (storage/bit_gather.h: pext where BMI2 is
/// targeted, a byte-position table otherwise), so the value loop carries no
/// serial ctz dependency. Sampling generalizes the batch-prefetch trick
/// (§7.2.1): sampled positions are generated in batches of 32 and prefetched
/// before the values are touched, overlapping the DRAM misses that dominate
/// low-rate scans.

namespace scan_internal {

/// Forwards one present row to the visitor, applying the central NaN policy
/// for floating-point layouts.
template <typename T, typename Visitor>
inline void Emit(Visitor& vis, uint32_t row, T value) {
  if constexpr (std::is_floating_point_v<T>) {
    if (std::isnan(value)) {
      vis.OnMissing(row);
      return;
    }
  }
  vis.OnValue(row, value);
}

/// Null-mask word `w`, or 0 when the mask does not extend that far.
inline uint64_t NullWord(const NullMask& nulls, size_t w) {
  return w < nulls.num_words() ? nulls.word_data()[w] : 0;
}

/// Visitors may additionally expose
///
///   void OnBlock(uint32_t base, const T* values, uint32_t n);
///
/// for the layouts they care about. The streaming loops hand such visitors
/// whole runs of rows whose null-mask words are empty — `values` points at
/// the column array for rows [base, base + n) — instead of one OnValue per
/// row, which is what lets a visitor tally through the runtime-dispatched
/// SIMD kernels (simd_dispatch.h). The NaN-is-missing policy moves INTO the
/// block handler for double layouts: blocks are only pre-filtered against
/// the null mask, so OnBlock must treat NaN exactly as OnMissing would.
/// Overload only for the exact pointer types handled (e.g. const double*):
/// layouts without a matching overload keep the per-row path.
template <typename Visitor, typename T>
concept HasOnBlock = requires(Visitor& v, const T* values) {
  v.OnBlock(uint32_t{0}, values, uint32_t{0});
};

// --- Streaming loops: one instantiation per membership representation. ---

template <typename T, typename Visitor>
void ScanFull(const T* data, uint32_t n, const NullMask& nulls, Visitor& vis) {
  if (nulls.empty()) {
    if constexpr (HasOnBlock<Visitor, T>) {
      vis.OnBlock(0, data, n);
    } else {
      for (uint32_t r = 0; r < n; ++r) Emit(vis, r, data[r]);
    }
    return;
  }
  // Word-at-a-time: load each 64-row null word once; all-present blocks run
  // a branchless inner loop.
  uint32_t full_words = n >> 6;
  for (uint32_t w = 0; w < full_words; ++w) {
    uint64_t null_word = NullWord(nulls, w);
    uint32_t base = w << 6;
    if (null_word == 0) {
      if constexpr (HasOnBlock<Visitor, T>) {
        // Coalesce the run of all-present words into one block call.
        uint32_t end = w + 1;
        while (end < full_words && NullWord(nulls, end) == 0) ++end;
        vis.OnBlock(base, data + base, (end - w) << 6);
        w = end - 1;
      } else {
        for (uint32_t i = 0; i < 64; ++i) Emit(vis, base + i, data[base + i]);
      }
      continue;
    }
    uint64_t missing = null_word;
    while (missing != 0) {
      int bit = __builtin_ctzll(missing);
      vis.OnMissing(base + bit);
      missing &= missing - 1;
    }
    uint64_t present = ~null_word;
    while (present != 0) {
      int bit = __builtin_ctzll(present);
      Emit(vis, base + bit, data[base + bit]);
      present &= present - 1;
    }
  }
  for (uint32_t r = full_words << 6; r < n; ++r) {
    if (nulls.IsMissing(r)) {
      vis.OnMissing(r);
    } else {
      Emit(vis, r, data[r]);
    }
  }
}

template <typename T, typename Visitor>
void ScanDense(const T* data, const std::vector<uint64_t>& member_words,
               const NullMask& nulls, Visitor& vis) {
  const bool check_nulls = !nulls.empty();
  for (size_t w = 0; w < member_words.size(); ++w) {
    uint64_t members = member_words[w];
    if (members == 0) continue;
    uint32_t base = static_cast<uint32_t>(w << 6);
    // One AND per 64 rows splits the word into missing and present lanes.
    uint64_t null_word = check_nulls ? NullWord(nulls, w) : 0;
    if (members == ~0ULL && null_word == 0) {
      // Fully-set word (common for run-structured filters like range
      // zoom-ins): linear block, no bit juggling.
      if constexpr (HasOnBlock<Visitor, T>) {
        // Coalesce the run of fully-present words into one block call.
        size_t end = w + 1;
        while (end < member_words.size() && member_words[end] == ~0ULL &&
               (!check_nulls || NullWord(nulls, end) == 0)) {
          ++end;
        }
        vis.OnBlock(base, data + base,
                    static_cast<uint32_t>((end - w) << 6));
        w = end - 1;
      } else {
        for (uint32_t i = 0; i < 64; ++i) Emit(vis, base + i, data[base + i]);
      }
      continue;
    }
    uint64_t missing = members & null_word;
    uint64_t present = members & ~null_word;
    while (missing != 0) {
      int bit = __builtin_ctzll(missing);
      vis.OnMissing(base + bit);
      missing &= missing - 1;
    }
    // Partially-set word (strided filters): the gather expansion keeps the
    // value loop free of the serial ctz dependency.
    ForEachSetBit(present, base,
                  [&](uint32_t row) { Emit(vis, row, data[row]); });
  }
}

template <typename T, typename Visitor>
void ScanSparse(const T* data, const std::vector<uint32_t>& rows,
                const NullMask& nulls, Visitor& vis) {
  // Sparse member rows are far apart, so each value load is a likely cache
  // miss; prefetching a fixed distance ahead overlaps them.
  constexpr size_t kAhead = 16;
  const size_t n = rows.size();
  if (nulls.empty()) {
    for (size_t i = 0; i < n; ++i) {
      if (i + kAhead < n) __builtin_prefetch(data + rows[i + kAhead]);
      Emit(vis, rows[i], data[rows[i]]);
    }
    return;
  }
  for (size_t i = 0; i < n; ++i) {
    if (i + kAhead < n) __builtin_prefetch(data + rows[i + kAhead]);
    uint32_t r = rows[i];
    if (nulls.IsMissing(r)) {
      vis.OnMissing(r);
    } else {
      Emit(vis, r, data[r]);
    }
  }
}

// --- Sampled loops: geometric skips with batched prefetch. ---

/// Drains a batch of sampled row positions through the visitor.
template <typename T, typename Visitor>
inline void DrainBatch(const T* data, const uint32_t* pending, int filled,
                       const NullMask& nulls, bool check_nulls, Visitor& vis) {
  for (int i = 0; i < filled; ++i) {
    uint32_t row = pending[i];
    if (check_nulls && nulls.IsMissing(row)) {
      vis.OnMissing(row);
      continue;
    }
    Emit(vis, row, data[row]);
  }
}

inline constexpr int kSampleBatch = 32;

template <typename T, typename Visitor>
void ScanSampledFull(const T* data, uint32_t n, const NullMask& nulls,
                     double rate, uint64_t seed, Visitor& vis) {
  Random rng(seed);
  GeometricSkipper skipper(&rng, rate);
  const bool check_nulls = !nulls.empty();
  uint32_t pending[kSampleBatch];
  uint64_t r = skipper.Next();
  while (r < n) {
    int filled = 0;
    while (filled < kSampleBatch && r < n) {
      pending[filled++] = static_cast<uint32_t>(r);
      __builtin_prefetch(data + r);
      r += 1 + skipper.Next();
    }
    DrainBatch(data, pending, filled, nulls, check_nulls, vis);
  }
}

template <typename T, typename Visitor>
void ScanSampledDense(const T* data, const std::vector<uint64_t>& member_words,
                      uint32_t universe, const NullMask& nulls, double rate,
                      uint64_t seed, Visitor& vis) {
  Random rng(seed);
  GeometricSkipper skipper(&rng, rate);
  const bool check_nulls = !nulls.empty();
  uint32_t pending[kSampleBatch];
  // Walk the universe with geometric skips and keep the rows that are
  // members, so members are sampled at exactly `rate` (§5.6).
  uint64_t r = skipper.Next();
  while (r < universe) {
    int filled = 0;
    while (filled < kSampleBatch && r < universe) {
      size_t w = r >> 6;
      // Like DenseMembership::Contains, tolerate word vectors shorter than
      // the universe (trailing non-member rows).
      if (w < member_words.size() && ((member_words[w] >> (r & 63)) & 1)) {
        pending[filled++] = static_cast<uint32_t>(r);
        __builtin_prefetch(data + r);
      }
      r += 1 + skipper.Next();
    }
    DrainBatch(data, pending, filled, nulls, check_nulls, vis);
  }
}

template <typename T, typename Visitor>
void ScanSampledSparse(const T* data, const std::vector<uint32_t>& rows,
                       const NullMask& nulls, double rate, uint64_t seed,
                       Visitor& vis) {
  Random rng(seed);
  GeometricSkipper skipper(&rng, rate);
  const bool check_nulls = !nulls.empty();
  const uint64_t n = rows.size();
  uint32_t pending[kSampleBatch];
  uint64_t i = skipper.Next();
  while (i < n) {
    int filled = 0;
    while (filled < kSampleBatch && i < n) {
      uint32_t row = rows[i];
      pending[filled++] = row;
      __builtin_prefetch(data + row);
      i += 1 + skipper.Next();
    }
    DrainBatch(data, pending, filled, nulls, check_nulls, vis);
  }
}

/// Membership × nulls × sampling dispatch for one physical layout. This is
/// the "dispatch once" point: everything below it is a tight template loop.
template <typename T, typename Visitor>
void ScanTyped(const T* data, const IMembershipSet& members,
               const NullMask& nulls, double rate, uint64_t seed,
               Visitor& vis) {
  if (rate < 1.0) {
    if (rate <= 0.0) return;
    switch (members.kind()) {
      case IMembershipSet::Kind::kFull:
        ScanSampledFull(data, members.size(), nulls, rate, seed, vis);
        return;
      case IMembershipSet::Kind::kDense:
        ScanSampledDense(data, members.bitmap_words(),
                         members.universe_size(), nulls, rate, seed, vis);
        return;
      case IMembershipSet::Kind::kSparse:
        ScanSampledSparse(data, members.sparse_rows(), nulls, rate, seed,
                          vis);
        return;
    }
    return;
  }
  switch (members.kind()) {
    case IMembershipSet::Kind::kFull:
      ScanFull(data, members.size(), nulls, vis);
      return;
    case IMembershipSet::Kind::kDense:
      ScanDense(data, members.bitmap_words(), nulls, vis);
      return;
    case IMembershipSet::Kind::kSparse:
      ScanSparse(data, members.sparse_rows(), nulls, vis);
      return;
  }
}

/// Visitor adapter for dictionary-code layouts: missing is encoded in the
/// code stream itself, not the null mask, so codes scan as a no-null layout
/// and missing is peeled off here. Any code at or beyond the dictionary is
/// missing (kMissingCode is the canonical case; the same compare also makes
/// corrupt codes from a damaged mapped file degrade to missing instead of
/// out-of-bounds dictionary reads downstream).
template <typename Visitor>
struct CodeFilter {
  Visitor& vis;
  uint32_t dict_limit;
  void OnValue(uint32_t row, uint32_t code) {
    if (code >= dict_limit) {
      vis.OnMissing(row);
    } else {
      vis.OnValue(row, code);
    }
  }
  void OnMissing(uint32_t row) { vis.OnMissing(row); }
};

}  // namespace scan_internal

/// Calls `fn(row)` for each member row, sampled at `rate` (>= 1.0 streams
/// every row). The membership × sampling dispatch happens once. Multi-column
/// sketches use this together with RawCursor; single-column sketches should
/// prefer ScanColumn, which also devirtualizes the value loads.
template <typename Fn>
void ScanRows(const IMembershipSet& members, double rate, uint64_t seed,
              Fn&& fn) {
  if (rate >= 1.0) {
    ForEachRow(members, fn);
  } else {
    SampleRows(members, rate, seed, fn);
  }
}

/// Scans a plain per-row array that has no missing values (a materialized
/// sort-key column) over `members`, through the same streaming loops as
/// ScanColumn: runs of member rows arrive through `vis.OnBlock` when the
/// visitor has an overload for `const T*`, partial bitmap words and sparse
/// rows through `vis.OnValue`, in ascending row order. The visitor must
/// still declare OnMissing, which is never called.
template <typename T, typename Visitor>
void ScanArray(const T* data, const IMembershipSet& members, Visitor&& vis) {
  static const NullMask kNoNulls;
  scan_internal::ScanTyped(data, members, kNoNulls, /*rate=*/1.0,
                           /*seed=*/0, vis);
}

/// Scans `col` over `members` at `rate`, delivering native typed values (and
/// the central missing policy) to `vis`. Dispatches once on layout ×
/// membership × nulls × sampling; the selected loop has no virtual calls.
template <typename Visitor>
void ScanColumn(const IColumn& col, const IMembershipSet& members, double rate,
                uint64_t seed, Visitor&& vis) {
  using scan_internal::ScanTyped;
  static const NullMask kNoNulls;
  // Storage-backend hook: mmap-backed columns turn the membership shape into
  // madvise prefetch before the loop starts faulting pages in.
  col.PrepareScan(members);
  if (const double* raw = col.RawDouble()) {
    ScanTyped(raw, members, col.null_mask(), rate, seed, vis);
    return;
  }
  if (const int32_t* raw = col.RawInt()) {
    ScanTyped(raw, members, col.null_mask(), rate, seed, vis);
    return;
  }
  if (const int64_t* raw = col.RawDate()) {
    ScanTyped(raw, members, col.null_mask(), rate, seed, vis);
    return;
  }
  if (const uint32_t* raw = col.RawCodes()) {
    scan_internal::CodeFilter<std::remove_reference_t<Visitor>> filter{
        vis, col.Dictionary().size()};
    ScanTyped(raw, members, kNoNulls, rate, seed, filter);
  }
}

namespace scan_internal {

// --- Typed predicate-to-bitmap loops (the filter fast path). ---------------
//
// Each loop evaluates the predicate over raw values and assembles one 64-bit
// membership word per 64-row block in a register: branchless on the
// predicate outcome (the inner block loop vectorizes), with the null mask
// applied word-at-a-time. Missing rows never match — NaN and kMissingCode
// are folded into the null mask at column construction, so `bits & ~nulls`
// is the complete missing policy here.

template <typename T, typename Pred>
inline uint64_t PredicateWord(const T* block, Pred& pred) {
  uint64_t bits = 0;
  for (uint32_t i = 0; i < 64; ++i) {
    bits |= static_cast<uint64_t>(pred(block[i]) ? 1 : 0) << i;
  }
  return bits;
}

/// The zoom-in range predicate [lo, hi] over a column's numeric view. For
/// integer layouts the double bounds are converted ONCE to the closed
/// integer range [ceil(lo), floor(hi)] (saturated at the int64 domain), so
/// both the per-row calls and the word kernels compare in integer space —
/// exact even beyond 2^53, where the old cast-to-double compare misrounded
/// int64 dates. The invariant `ilo > ihi` encodes an empty intersection
/// (including NaN bounds), which the kernels answer with an all-zero word.
struct RangePredicate {
  double lo;
  double hi;
  int64_t ilo;
  int64_t ihi;
  const ScanKernels* kernels;

  RangePredicate(double lo_in, double hi_in)
      : lo(lo_in), hi(hi_in), kernels(&GetScanKernels()) {
    constexpr double kTwo63 = 9223372036854775808.0;  // 2^63, exact
    const double cl = std::ceil(lo_in);
    const double fh = std::floor(hi_in);
    if (!(cl <= fh) || cl >= kTwo63 || fh < -kTwo63) {
      ilo = 1;
      ihi = 0;
      return;
    }
    ilo = cl <= -kTwo63 ? std::numeric_limits<int64_t>::min()
                        : static_cast<int64_t>(cl);
    ihi = fh >= kTwo63 ? std::numeric_limits<int64_t>::max()
                       : static_cast<int64_t>(fh);
  }

  bool operator()(double v) const { return v >= lo && v <= hi; }
  bool operator()(int32_t v) const { return v >= ilo && v <= ihi; }
  bool operator()(int64_t v) const { return v >= ilo && v <= ihi; }
  bool operator()(uint32_t v) const {
    return static_cast<int64_t>(v) >= ilo && static_cast<int64_t>(v) <= ihi;
  }
};

/// Dictionary-code equality; non-code layouts never match.
struct EqualsCodePredicate {
  uint32_t code;
  const ScanKernels* kernels;

  explicit EqualsCodePredicate(uint32_t c)
      : code(c), kernels(&GetScanKernels()) {}

  bool operator()(uint32_t v) const { return v == code; }
  bool operator()(double) const { return false; }
  bool operator()(int32_t) const { return false; }
  bool operator()(int64_t) const { return false; }
};

// Word-at-a-time overloads routing the known predicates through the
// runtime-dispatched kernels. They take the predicate by NON-const reference
// so they are exact matches that beat the generic template above (a const
// overload would lose the reference-binding tiebreaker).

inline uint64_t PredicateWord(const double* block, RangePredicate& pred) {
  return pred.kernels->range_word_f64(block, pred.lo, pred.hi);
}

inline uint64_t PredicateWord(const int32_t* block, RangePredicate& pred) {
  return pred.kernels->range_word_i32(block, pred.ilo, pred.ihi);
}

inline uint64_t PredicateWord(const int64_t* block, RangePredicate& pred) {
  return pred.kernels->range_word_i64(block, pred.ilo, pred.ihi);
}

inline uint64_t PredicateWord(const uint32_t* block, RangePredicate& pred) {
  constexpr int64_t kU32Max = std::numeric_limits<uint32_t>::max();
  if (pred.ilo > pred.ihi || pred.ihi < 0 || pred.ilo > kU32Max) return 0;
  const uint32_t l =
      pred.ilo < 0 ? 0u : static_cast<uint32_t>(pred.ilo);
  const uint32_t h = pred.ihi > kU32Max
                         ? std::numeric_limits<uint32_t>::max()
                         : static_cast<uint32_t>(pred.ihi);
  return pred.kernels->range_word_u32(block, l, h);
}

inline uint64_t PredicateWord(const uint32_t* block,
                              EqualsCodePredicate& pred) {
  return pred.kernels->range_word_u32(block, pred.code, pred.code);
}

template <typename T, typename Pred>
void FilterFullTyped(const T* data, uint32_t n, const NullMask& nulls,
                     Pred& pred, std::vector<uint64_t>& words) {
  const bool check_nulls = !nulls.empty();
  const uint32_t full_words = n >> 6;
  for (uint32_t w = 0; w < full_words; ++w) {
    uint64_t bits = PredicateWord(data + (static_cast<size_t>(w) << 6), pred);
    if (check_nulls) bits &= ~NullWord(nulls, w);
    words[w] = bits;
  }
  for (uint32_t r = full_words << 6; r < n; ++r) {
    if (!nulls.IsMissing(r) && pred(data[r])) {
      words[r >> 6] |= 1ULL << (r & 63);
    }
  }
}

template <typename T, typename Pred>
void FilterDenseTyped(const T* data, const std::vector<uint64_t>& member_words,
                      uint32_t universe, const NullMask& nulls, Pred& pred,
                      std::vector<uint64_t>& words) {
  const bool check_nulls = !nulls.empty();
  for (size_t w = 0; w < member_words.size(); ++w) {
    uint64_t members = member_words[w];
    if (members == 0) continue;
    uint32_t base = static_cast<uint32_t>(w << 6);
    if (members == ~0ULL && base + 64 <= universe) {
      // Fully-set word (run-structured zoom-in filters): same branchless
      // block as the full scan.
      uint64_t bits = PredicateWord(data + base, pred);
      if (check_nulls) bits &= ~NullWord(nulls, w);
      words[w] = bits;
      continue;
    }
    uint64_t present =
        check_nulls ? members & ~NullWord(nulls, w) : members;
    uint64_t bits = 0;
    // Partially-set word: the gather expansion evaluates the predicate over
    // the member positions without a serial ctz chain.
    ForEachSetBit(present, 0, [&](uint32_t bit) {
      bits |= static_cast<uint64_t>(pred(data[base + bit]) ? 1 : 0) << bit;
    });
    words[w] = bits;
  }
}

template <typename T, typename Pred>
void FilterSparseTyped(const T* data, const std::vector<uint32_t>& rows,
                       const NullMask& nulls, Pred& pred,
                       std::vector<uint64_t>& words) {
  const bool check_nulls = !nulls.empty();
  for (uint32_t r : rows) {
    if (check_nulls && nulls.IsMissing(r)) continue;
    if (pred(data[r])) words[r >> 6] |= 1ULL << (r & 63);
  }
}

template <typename T, typename Pred>
void FilterTyped(const T* data, const IMembershipSet& base,
                 const NullMask& nulls, Pred& pred,
                 std::vector<uint64_t>& words) {
  switch (base.kind()) {
    case IMembershipSet::Kind::kFull:
      FilterFullTyped(data, base.size(), nulls, pred, words);
      return;
    case IMembershipSet::Kind::kDense:
      FilterDenseTyped(data, base.bitmap_words(), base.universe_size(), nulls,
                       pred, words);
      return;
    case IMembershipSet::Kind::kSparse:
      FilterSparseTyped(data, base.sparse_rows(), nulls, pred, words);
      return;
  }
}

}  // namespace scan_internal

/// Builds the membership set of `base` rows where `col` is present and
/// `pred(native value)` holds: the typed filter path behind the
/// spreadsheet's zoom-in / equality / regex gestures (§5.6). One dispatch on
/// layout × membership selects a loop that assembles membership words 64
/// rows at a time (branchless predicate, null mask ANDed per word) — no
/// per-row std::function or virtual accessor calls — and the result picks
/// the dense or sparse representation by the same density cutoff as
/// FilterMembership.
///
/// `pred` must be callable with every native value type (int32_t, double,
/// int64_t, uint32_t dictionary code); use a generic lambda, with
/// `if constexpr` dispatch when only one layout is meaningful. It may be
/// *evaluated* on missing cells (NaN, kMissingCode) inside a 64-row block —
/// the result for those rows is discarded via the null-mask AND — so it must
/// be a pure function that tolerates any representable input.
template <typename Pred>
MembershipPtr FilterColumnMembership(const IColumn& col,
                                     const IMembershipSet& base, Pred&& pred) {
  const uint32_t universe = base.universe_size();
  col.PrepareScan(base);
  std::vector<uint64_t> words((universe + 63) / 64, 0);
  if (const double* raw = col.RawDouble()) {
    scan_internal::FilterTyped(raw, base, col.null_mask(), pred, words);
  } else if (const int32_t* raw32 = col.RawInt()) {
    scan_internal::FilterTyped(raw32, base, col.null_mask(), pred, words);
  } else if (const int64_t* raw64 = col.RawDate()) {
    scan_internal::FilterTyped(raw64, base, col.null_mask(), pred, words);
  } else if (const uint32_t* codes = col.RawCodes()) {
    scan_internal::FilterTyped(codes, base, col.null_mask(), pred, words);
  }
  uint64_t hits = 0;
  for (uint64_t w : words) hits += static_cast<uint64_t>(__builtin_popcountll(w));
  double density =
      universe == 0 ? 0.0 : static_cast<double>(hits) / universe;
  if (density < kSparseDensityCutoff) {
    std::vector<uint32_t> rows;
    rows.reserve(hits);
    for (size_t w = 0; w < words.size(); ++w) {
      uint64_t bits = words[w];
      while (bits != 0) {
        int bit = __builtin_ctzll(bits);
        rows.push_back(static_cast<uint32_t>((w << 6) + bit));
        bits &= bits - 1;
      }
    }
    return std::make_shared<SparseMembership>(std::move(rows), universe);
  }
  return std::make_shared<DenseMembership>(std::move(words), universe);
}

/// Rows whose numeric view (GetDouble semantics: native value, or the
/// dictionary code for string layouts) lies in [lo, hi]. Full 64-row blocks
/// evaluate through the runtime-dispatched SIMD word kernels; integer
/// layouts compare in integer space (exact beyond 2^53 — see
/// scan_internal::RangePredicate).
inline MembershipPtr FilterRangeMembership(const IColumn& col,
                                           const IMembershipSet& base,
                                           double lo, double hi) {
  scan_internal::RangePredicate pred(lo, hi);
  return FilterColumnMembership(col, base, pred);
}

/// Rows of a dictionary-code column whose code equals `code`.
inline MembershipPtr FilterEqualsCodeMembership(const IColumn& col,
                                                const IMembershipSet& base,
                                                uint32_t code) {
  scan_internal::EqualsCodePredicate pred(code);
  return FilterColumnMembership(col, base, pred);
}

/// Rows of a dictionary-code column whose code is marked in `match` (one
/// byte per dictionary entry — the memoized per-code verdict table).
inline MembershipPtr FilterMatchedCodesMembership(
    const IColumn& col, const IMembershipSet& base,
    const std::vector<uint8_t>& match) {
  return FilterColumnMembership(col, base, [&match](auto v) {
    if constexpr (std::is_same_v<decltype(v), uint32_t>) {
      return v < match.size() && match[v] != 0;
    } else {
      (void)v;
      return false;
    }
  });
}

/// Devirtualized per-row accessor for multi-column scans (2D histograms,
/// trellis, correlation): binds the column's raw layout once, then answers
/// per-row queries with an inlined switch on a small enum — predictable
/// branches, no virtual dispatch. Shares the scan layer's missing policy
/// (null-mask bit, NaN, kMissingCode).
class RawCursor {
 public:
  explicit RawCursor(const IColumn* col) {
    if (col == nullptr) return;
    nulls_ = &col->null_mask();
    if ((f64_ = col->RawDouble()) != nullptr) {
      layout_ = Layout::kF64;
    } else if ((i32_ = col->RawInt()) != nullptr) {
      layout_ = Layout::kI32;
    } else if ((i64_ = col->RawDate()) != nullptr) {
      layout_ = Layout::kI64;
    } else if ((codes_ = col->RawCodes()) != nullptr) {
      layout_ = Layout::kCodes;
      dict_limit_ = col->Dictionary().size();
    }
  }

  bool valid() const { return layout_ != Layout::kNone; }
  bool is_codes() const { return layout_ == Layout::kCodes; }

  /// True when the row is missing under the central policy (including NaN
  /// in double columns).
  bool IsMissing(uint32_t row) const {
    switch (layout_) {
      case Layout::kF64:
        return nulls_->IsMissing(row) || std::isnan(f64_[row]);
      case Layout::kI32:
      case Layout::kI64:
        return nulls_->IsMissing(row);
      case Layout::kCodes:
        // Out-of-range codes (kMissingCode, or corrupt mapped data) are
        // missing — same policy as StringColumn::IsMissing and CodeFilter.
        return codes_[row] >= dict_limit_;
      case Layout::kNone:
        return true;
    }
    return true;
  }

  /// Numeric view of a present row (dictionary code for string layouts,
  /// mirroring IColumn::GetDouble). Only valid when !IsMissing(row).
  double AsDouble(uint32_t row) const {
    switch (layout_) {
      case Layout::kF64:
        return f64_[row];
      case Layout::kI32:
        return static_cast<double>(i32_[row]);
      case Layout::kI64:
        return static_cast<double>(i64_[row]);
      case Layout::kCodes:
        return static_cast<double>(codes_[row]);
      case Layout::kNone:
        return 0.0;
    }
    return 0.0;
  }

  /// Dictionary code of a row; only valid for code layouts.
  uint32_t Code(uint32_t row) const { return codes_[row]; }

 private:
  // kNone: a null column, every row missing.
  enum class Layout { kNone, kF64, kI32, kI64, kCodes };

  Layout layout_ = Layout::kNone;
  const double* f64_ = nullptr;
  const int32_t* i32_ = nullptr;
  const int64_t* i64_ = nullptr;
  const uint32_t* codes_ = nullptr;
  uint32_t dict_limit_ = 0;
  const NullMask* nulls_ = nullptr;
};

}  // namespace hillview

#endif  // HILLVIEW_STORAGE_SCAN_H_
