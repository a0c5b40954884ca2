#include "storage/sort_key.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "storage/simd_dispatch.h"

namespace hillview {

namespace {

constexpr uint64_t kMissingKey = std::numeric_limits<uint64_t>::max();

/// Packed-component sentinels: the all-ones 32-bit component is reserved for
/// missing, so present encodings saturate one below it.
constexpr uint32_t kMissingComponent = std::numeric_limits<uint32_t>::max();
constexpr uint32_t kMaxComponent = kMissingComponent - 1;

/// Order-preserving bias for 32-bit integers, widened so present keys never
/// reach kMissingKey.
inline uint64_t EncodeI32(int32_t v) {
  return static_cast<uint64_t>(static_cast<uint32_t>(v) ^ 0x80000000u) << 32;
}

/// The layouts a column can contribute to a packed 32+32 key.
enum class NarrowLayout { kNone, kI32, kI64, kCodes };

NarrowLayout NarrowLayoutOf(const IColumn& col) {
  if (col.RawInt() != nullptr) return NarrowLayout::kI32;
  if (col.RawDate() != nullptr) return NarrowLayout::kI64;
  if (col.RawCodes() != nullptr) return NarrowLayout::kCodes;
  return NarrowLayout::kNone;
}

}  // namespace

SortKeyPlan::SortKeyPlan(const Table& table, const RecordOrder& order) {
  Plan(table, order);
  if (valid_) keys_ = BuildKeys();  // finalizes encodings on the way
}

SortKeyPlan::SortKeyPlan(const Table& table, const RecordOrder& order,
                         DeferKeysTag) {
  Plan(table, order);
}

/// Derives the packed transform for one component: `enc = (v - min) >> shift`
/// over the column's present-value range, monotone by construction and
/// injective (exact) when shift == 0. Dictionary codes are already 32-bit
/// ordinals and need no transform.
static void ComputePackTransformImpl(const IColumn& col, int64_t* min,
                                     uint32_t* shift, bool* exact) {
  *min = 0;
  *shift = 0;
  *exact = true;
  if (col.RawCodes() != nullptr) return;  // codes are the component already
  const NullMask& nulls = col.null_mask();
  const bool check_nulls = !nulls.empty();
  const uint32_t n = col.size();
  bool any = false;
  int64_t lo = 0, hi = 0;
  auto reduce = [&](const auto* raw) {
    for (uint32_t r = 0; r < n; ++r) {
      if (check_nulls && nulls.IsMissing(r)) continue;
      int64_t v = raw[r];
      if (!any) {
        lo = hi = v;
        any = true;
      } else {
        lo = std::min(lo, v);
        hi = std::max(hi, v);
      }
    }
  };
  // No-null columns reduce through the runtime-dispatched min/max kernels;
  // integer min/max is order-insensitive, so the result is exact either way.
  if (const int32_t* raw = col.RawInt()) {
    if (!check_nulls && n > 0) {
      GetScanKernels().minmax_i32(raw, n, &lo, &hi);
      any = true;
    } else {
      reduce(raw);
    }
  } else if (const int64_t* raw64 = col.RawDate()) {
    if (!check_nulls && n > 0) {
      GetScanKernels().minmax_i64(raw64, n, &lo, &hi);
      any = true;
    } else {
      reduce(raw64);
    }
  }
  if (!any) return;  // all missing: encode is never consulted
  *min = lo;
  uint64_t range =
      static_cast<uint64_t>(hi) - static_cast<uint64_t>(lo);  // two's complement
  while ((range >> *shift) > kMaxComponent) ++*shift;
  *exact = (*shift == 0);
}

void SortKeyPlan::Plan(const Table& table, const RecordOrder& order) {
  // Stage 1, deliberately O(columns) not O(rows): bind the first order
  // column that exists (mirroring RowComparator's skip-unknown policy), the
  // candidate second column, and the tie tail. Everything data-derived
  // (min/shift transforms, exactness, final shape) waits for
  // FinalizeEncodings(), so a cache lookup costs no column scan.
  const auto& orientations = order.orientations();
  size_t i = 0;
  ColumnPtr first;
  for (; i < orientations.size(); ++i) {
    first = table.GetColumnOrNull(orientations[i].column);
    if (first != nullptr) break;
  }
  if (first == nullptr) return;
  first_index_ = i;
  universe_ = first->size();
  first_.column = first;
  first_.kind = first->kind();
  first_.ascending = orientations[i].ascending;
  first_.orientation_index = i;
  first_orient_ = orientations[i];

  ColumnPtr second;
  size_t second_orientation = 0;
  for (size_t j = i + 1; j < orientations.size(); ++j) {
    ColumnPtr c = table.GetColumnOrNull(orientations[j].column);
    if (c == nullptr) continue;
    if (second == nullptr) {
      second = c;
      second_orientation = j;
    }
    rest_.push_back(orientations[j]);
  }

  // Candidate packed 32+32 shape: both leading columns narrow. Whether
  // packing actually engages depends on the first column's value range
  // (FinalizeEncodings); the candidacy alone fixes the cache identity.
  if (second != nullptr &&
      NarrowLayoutOf(*first) != NarrowLayout::kNone &&
      NarrowLayoutOf(*second) != NarrowLayout::kNone) {
    candidate_packed_ = true;
    second_.column = second;
    second_.kind = second->kind();
    second_.ascending = orientations[second_orientation].ascending;
    second_.orientation_index = second_orientation;
    second_orient_ = orientations[second_orientation];
  } else if (first->RawDouble() == nullptr && first->RawInt() == nullptr &&
             first->RawDate() == nullptr && first->RawCodes() == nullptr) {
    return;  // generic layout: no raw array to encode from
  }

  key_columns_ = candidate_packed_ ? std::vector<ColumnPtr>{first, second}
                                   : std::vector<ColumnPtr>{first};
  valid_ = true;
}

void SortKeyPlan::FinalizeShape() {
  // Packed 32+32 shape requires the first column's transform exact — a lossy
  // high half would let the low half override the true first-column order,
  // so inexact first columns fall back to the single shape.
  if (candidate_packed_) {
    ComputePackTransformImpl(*first_.column, &first_.min, &first_.shift,
                             &first_.exact);
    if (first_.exact) {
      ComputePackTransformImpl(*second_.column, &second_.min, &second_.shift,
                               &second_.exact);
      packed_ = true;
    } else {
      // Reset: the single shape has its own exactness rules.
      first_.min = 0;
      first_.shift = 0;
      first_.exact = true;
    }
  }
}

void SortKeyPlan::FinalizeEncodings() {
  if (encodings_ready_ || !valid_) return;
  FinalizeShape();
  if (!packed_) {
    if (const int64_t* raw64 = first_.column->RawDate()) {
      // INT64_MAX collides with the reserved missing key; if present, the
      // encoding saturates and key ties must re-compare the first column.
      // (BuildKeys detects this inside the key pass instead — this scan is
      // only for callers that want the shape without materializing keys.)
      const NullMask& nulls = first_.column->null_mask();
      const bool check_nulls = !nulls.empty();
      for (uint32_t r = 0; r < universe_; ++r) {
        if (raw64[r] == std::numeric_limits<int64_t>::max() &&
            !(check_nulls && nulls.IsMissing(r))) {
          first_.exact = false;
          break;
        }
      }
    }
  }
  DeriveTieOrder();
  encodings_ready_ = true;
}

void SortKeyPlan::DeriveTieOrder() {
  tie_order_.clear();
  if (packed_) {
    exact_ = second_.exact;  // the first component is exact by construction
    if (!second_.exact) tie_order_.push_back(second_orient_);
    tie_order_.insert(tie_order_.end(), rest_.begin() + 1, rest_.end());
  } else {
    exact_ = first_.exact;
    if (!exact_) tie_order_.push_back(first_orient_);
    tie_order_.insert(tie_order_.end(), rest_.begin(), rest_.end());
  }
}

SortKeyPlan::EncodingSnapshot SortKeyPlan::encodings() const {
  EncodingSnapshot s;
  s.packed = packed_;
  s.first_min = first_.min;
  s.first_shift = first_.shift;
  s.first_exact = first_.exact;
  s.second_min = second_.min;
  s.second_shift = second_.shift;
  s.second_exact = second_.exact;
  return s;
}

void SortKeyPlan::AdoptEncodings(const EncodingSnapshot& snapshot) {
  if (!valid_ || encodings_ready_) return;
  packed_ = snapshot.packed && candidate_packed_;
  first_.min = snapshot.first_min;
  first_.shift = snapshot.first_shift;
  first_.exact = snapshot.first_exact;
  second_.min = snapshot.second_min;
  second_.shift = snapshot.second_shift;
  second_.exact = snapshot.second_exact;
  DeriveTieOrder();
  encodings_ready_ = true;
}

bool SortKeyPlan::BuildSingleKeys(std::vector<uint64_t>& keys) const {
  const IColumn& col = *first_.column;
  const uint32_t n = universe_;
  const NullMask& nulls = col.null_mask();
  const bool check_nulls = !nulls.empty();
  bool saturated = false;

  // The numeric layouts encode through the runtime-dispatched kernels
  // (simd_dispatch.h), which produce exactly EncodeF64/EncodeI32/EncodeI64
  // over every row; missing rows are then stamped with the missing key, one
  // ctz per set null bit.
  const ScanKernels& kern = GetScanKernels();
  auto stamp_missing = [&keys, &nulls, n] {
    const uint64_t* words = nulls.word_data();
    const size_t num_words = nulls.num_words();
    for (size_t w = 0; w < num_words; ++w) {
      uint64_t m = words[w];
      const uint32_t base = static_cast<uint32_t>(w << 6);
      while (m != 0) {
        const uint32_t r = base + static_cast<uint32_t>(__builtin_ctzll(m));
        if (r < n) keys[r] = kMissingKey;
        m &= m - 1;
      }
    }
  };

  if (const double* raw = col.RawDouble()) {
    if (n > 0) kern.encode_keys_f64(raw, n, keys.data());  // NaN -> missing
    if (check_nulls) stamp_missing();
  } else if (const int32_t* raw32 = col.RawInt()) {
    if (n > 0) kern.encode_keys_i32(raw32, n, keys.data());
    if (check_nulls) stamp_missing();
  } else if (const int64_t* raw64 = col.RawDate()) {
    // INT64_MAX collides with the missing key: the kernel saturates it to
    // kMissingKey - 1 and reports it, so key ties re-compare the first
    // column.
    if (n > 0) saturated = kern.encode_keys_i64(raw64, n, keys.data());
    if (check_nulls) {
      stamp_missing();
      if (saturated) {
        // The bulk pass encodes missing slots too, so their garbage can
        // raise the flag; re-verify against the null mask before giving up
        // key exactness.
        saturated = false;
        for (uint32_t r = 0; r < n; ++r) {
          if (raw64[r] == std::numeric_limits<int64_t>::max() &&
              !nulls.IsMissing(r)) {
            saturated = true;
            break;
          }
        }
      }
    }
  } else if (const uint32_t* codes = col.RawCodes()) {
    // Dictionary codes: missing is in the code stream (kMissingCode is the
    // max uint32, strictly below kMissingKey after widening — but missing
    // must map to the missing key explicitly so descending complements
    // place it first).
    for (uint32_t r = 0; r < n; ++r) {
      uint32_t c = codes[r];
      keys[r] = c == StringColumn::kMissingCode
                    ? kMissingKey
                    : static_cast<uint64_t>(c);
    }
  }

  if (!first_.ascending) {
    // Complementing reverses the key order and sends the missing key to 0,
    // exactly reproducing `ascending ? c : -c` over missing-last CompareRows.
    for (auto& k : keys) k = ~k;
  }
  return saturated;
}

namespace {

/// Writes one packed component into its 32-bit half of every key. The first
/// component initializes the key, the second ORs into it.
void EncodePackedComponentInto(const SortKeyPlan::Component& c, uint32_t n,
                               int half_shift, bool init,
                               std::vector<uint64_t>& keys) {
  const IColumn& col = *c.column;
  auto put = [&](uint32_t r, uint32_t e) {
    if (!c.ascending) e = ~e;  // per-column direction (missing moves first)
    uint64_t part = static_cast<uint64_t>(e) << half_shift;
    if (init) {
      keys[r] = part;
    } else {
      keys[r] |= part;
    }
  };
  if (const uint32_t* codes = col.RawCodes()) {
    for (uint32_t r = 0; r < n; ++r) {
      uint32_t code = codes[r];
      put(r, code == StringColumn::kMissingCode ? kMissingComponent : code);
    }
    return;
  }
  const NullMask& nulls = col.null_mask();
  const bool check_nulls = !nulls.empty();
  const uint64_t min = static_cast<uint64_t>(c.min);
  if (const int32_t* raw = col.RawInt()) {
    for (uint32_t r = 0; r < n; ++r) {
      if (check_nulls && nulls.IsMissing(r)) {
        put(r, kMissingComponent);
        continue;
      }
      uint64_t diff =
          static_cast<uint64_t>(static_cast<int64_t>(raw[r])) - min;
      put(r, static_cast<uint32_t>(diff >> c.shift));
    }
    return;
  }
  if (const int64_t* raw64 = col.RawDate()) {
    for (uint32_t r = 0; r < n; ++r) {
      if (check_nulls && nulls.IsMissing(r)) {
        put(r, kMissingComponent);
        continue;
      }
      uint64_t diff = static_cast<uint64_t>(raw64[r]) - min;
      put(r, static_cast<uint32_t>(diff >> c.shift));
    }
    return;
  }
}

}  // namespace

void SortKeyPlan::BuildPackedKeys(std::vector<uint64_t>& keys) const {
  EncodePackedComponentInto(first_, universe_, 32, /*init=*/true, keys);
  EncodePackedComponentInto(second_, universe_, 0, /*init=*/false, keys);
}

SortKeyPlan::KeysPtr SortKeyPlan::BuildKeys() {
  auto keys = std::make_shared<std::vector<uint64_t>>(universe_, 0);
  if (encodings_ready_) {
    if (packed_) {
      BuildPackedKeys(*keys);
    } else {
      BuildSingleKeys(*keys);
    }
    return keys;
  }
  // Cold build: fix the encodings on the way. The packed transforms need
  // their min/max pre-pass before any key can be encoded, but the single
  // shape's only data-derived decision (INT64_MAX saturation) is detected
  // inside the key pass itself — one fused scan, not two.
  FinalizeShape();
  if (packed_) {
    BuildPackedKeys(*keys);
  } else if (BuildSingleKeys(*keys)) {
    first_.exact = false;
  }
  DeriveTieOrder();
  encodings_ready_ = true;
  return keys;
}

std::optional<std::pair<uint32_t, bool>> SortKeyPlan::EncodePackedCell(
    const Component& c, const Value& v) const {
  uint32_t enc = 0;
  bool value_exact = true;
  if (std::holds_alternative<std::monostate>(v)) {
    // Missing is its own component value: rows match it exactly.
    enc = kMissingComponent;
  } else if (IsStringKind(c.kind)) {
    const auto* s = std::get_if<std::string>(&v);
    if (s == nullptr) return std::nullopt;
    // The dictionary is sorted, so the insertion point partitions the codes;
    // exact only when the value is itself a dictionary entry.
    const StringDictionary& dict = c.column->Dictionary();
    uint64_t idx = dict.LowerBound(*s);
    value_exact = idx < dict.size() && dict[static_cast<uint32_t>(idx)] == *s;
    if (idx > kMaxComponent) {
      idx = kMaxComponent;
      value_exact = false;
    }
    enc = static_cast<uint32_t>(idx);
  } else {
    // Narrow numeric component: accept only values with an exact integer
    // view (mirroring EncodeStartCell's conservatism about lossy doubles).
    const auto* pi = std::get_if<int64_t>(&v);
    const auto* pd = std::get_if<double>(&v);
    if (pi == nullptr && pd == nullptr) return std::nullopt;
    if (pd != nullptr && std::isnan(*pd)) return std::nullopt;
    std::optional<int64_t> i;
    if (pi != nullptr) {
      i = *pi;
    } else if (*pd >= -9.2e18 && *pd <= 9.2e18 &&
               static_cast<double>(static_cast<int64_t>(*pd)) == *pd) {
      i = static_cast<int64_t>(*pd);
    }
    if (!i.has_value()) return std::nullopt;
    if (c.kind == DataKind::kDate && pi == nullptr &&
        (*i > (1LL << 53) || *i < -(1LL << 53))) {
      // A double-derived view beyond 2^53 is lossy against int64 rows: the
      // virtual fallback would compare as doubles and could disagree.
      return std::nullopt;
    }
    if (*i < c.min) {
      enc = 0;  // below every present row: only the bottom bucket re-compares
      value_exact = false;
    } else {
      uint64_t diff = static_cast<uint64_t>(*i) - static_cast<uint64_t>(c.min);
      uint64_t e = diff >> c.shift;
      if (e > kMaxComponent) {
        enc = kMaxComponent;  // above every present row
        value_exact = false;
      } else {
        enc = static_cast<uint32_t>(e);
        value_exact = (c.shift == 0);
      }
    }
  }
  if (!c.ascending) enc = ~enc;
  return std::make_pair(enc, value_exact);
}

std::optional<SortKeyPlan::StartKeyBand> SortKeyPlan::EncodeStartKey(
    const std::vector<Value>& cells) const {
  if (!valid_ || !encodings_ready_) return std::nullopt;
  if (!packed_) {
    if (first_index_ >= cells.size()) return std::nullopt;
    auto enc = EncodeStartCell(cells[first_index_]);
    if (!enc.has_value()) return std::nullopt;
    return StartKeyBand{*enc, *enc};
  }
  if (first_.orientation_index >= cells.size()) return std::nullopt;
  auto e0 = EncodePackedCell(first_, cells[first_.orientation_index]);
  if (!e0.has_value()) return std::nullopt;
  uint64_t hi = static_cast<uint64_t>(e0->first) << 32;
  if (!e0->second || second_.orientation_index >= cells.size()) {
    // First component ambiguous (or no second cell): keys within the whole
    // low half of this high component need the full comparison. Strictly
    // outside it the first column alone decides.
    return StartKeyBand{hi, hi | 0xFFFFFFFFull};
  }
  auto e1 = EncodePackedCell(second_, cells[second_.orientation_index]);
  if (!e1.has_value()) return StartKeyBand{hi, hi | 0xFFFFFFFFull};
  // First component exact: equal high halves mean equal first-column values,
  // so the second component's monotone order applies and the band collapses
  // to a point (an inexact second component just re-compares on key
  // equality, which the point band already requires).
  uint64_t key = hi | e1->first;
  return StartKeyBand{key, key};
}

std::optional<uint64_t> SortKeyPlan::EncodeStartCell(const Value& v) const {
  if (!valid_ || !encodings_ready_ || packed_) return std::nullopt;
  uint64_t enc = 0;
  if (std::holds_alternative<std::monostate>(v)) {
    enc = kMissingKey;
  } else if (IsStringKind(first_.kind)) {
    const auto* s = std::get_if<std::string>(&v);
    if (s == nullptr) return std::nullopt;
    // The dictionary is sorted, so the insertion point partitions the codes:
    // codes below it are lexicographically smaller than *s, codes at or
    // above are >= — and the `==` case falls back to a full compare anyway.
    const StringDictionary& dict = first_.column->Dictionary();
    enc = dict.LowerBound(*s);
  } else {
    // Numeric layouts: accept only values that embed exactly in the column's
    // key space; anything else falls back to per-row virtual compares.
    const auto* pi = std::get_if<int64_t>(&v);
    const auto* pd = std::get_if<double>(&v);
    if (pi == nullptr && pd == nullptr) return std::nullopt;
    if (pd != nullptr && std::isnan(*pd)) return std::nullopt;
    // The integer view of the value, when it has one that is exact.
    std::optional<int64_t> i;
    if (pi != nullptr) {
      i = *pi;
    } else if (*pd >= -9.2e18 && *pd <= 9.2e18 &&
               static_cast<double>(static_cast<int64_t>(*pd)) == *pd) {
      i = static_cast<int64_t>(*pd);
    }
    switch (first_.kind) {
      case DataKind::kDouble: {
        if (pi != nullptr && (*pi > (1LL << 53) || *pi < -(1LL << 53))) {
          return std::nullopt;  // int64 that may not round-trip via double
        }
        enc = EncodeF64(pd != nullptr ? *pd : static_cast<double>(*pi));
        break;
      }
      case DataKind::kInt:
        if (!i.has_value()) return std::nullopt;
        if (*i < std::numeric_limits<int32_t>::min() ||
            *i > std::numeric_limits<int32_t>::max()) {
          return std::nullopt;
        }
        enc = EncodeI32(static_cast<int32_t>(*i));
        break;
      case DataKind::kDate:
        if (!i.has_value()) return std::nullopt;
        // A double-derived view beyond 2^53 is lossy against int64 rows:
        // CompareValues would compare as doubles, so the exact integer
        // threshold could disagree with the fallback comparison.
        if (pi == nullptr && (*i > (1LL << 53) || *i < -(1LL << 53))) {
          return std::nullopt;
        }
        enc = EncodeI64(*i);
        if (enc == kMissingKey) return std::nullopt;  // INT64_MAX saturates
        break;
      default:
        return std::nullopt;
    }
  }
  return first_.ascending ? enc : ~enc;
}

std::string SortKeyPlan::CacheKey() const {
  // Candidate-shape tag + per-component column object identity and
  // direction, all stage-1 facts, so a lookup needs no column scan. Column
  // data is immutable, so the object pointer is the layout fingerprint
  // (final shape and transforms are deterministic per column data — one
  // candidate key maps to exactly one snapshot), and the cache re-validates
  // liveness through key_columns() before serving, which rules out recycled
  // allocations. Tail columns are deliberately excluded: they do not
  // influence the key vector, so orders differing only in their tie tail
  // share one entry.
  std::string key = candidate_packed_ ? "c2" : "s1";
  auto append_component = [&key](const Component& c) {
    key += '|';
    key += std::to_string(
        reinterpret_cast<uintptr_t>(static_cast<const void*>(c.column.get())));
    key += c.ascending ? '+' : '-';
  };
  append_component(first_);
  if (candidate_packed_) append_component(second_);
  return key;
}

}  // namespace hillview
