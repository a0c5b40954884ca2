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

/// True when the column can contribute to a packed 32+32 key.
bool IsNarrow(const IColumn& col) {
  return col.RawInt() != nullptr || col.RawDate() != nullptr ||
         col.RawCodes() != nullptr;
}

/// Derives the packed transform for one component: `enc = (v - min) >> shift`
/// over the column's present-value range, monotone by construction and
/// injective (exact) when shift == 0. Dictionary codes are already 32-bit
/// ordinals and need no transform.
SortKeyPlan::Transform PackTransform(const IColumn& col) {
  SortKeyPlan::Transform t;
  if (col.RawCodes() != nullptr) return t;  // codes are the component already
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
  if (!any) return t;  // all missing: encode is never consulted
  t.min = lo;
  uint64_t range =
      static_cast<uint64_t>(hi) - static_cast<uint64_t>(lo);  // two's complement
  while ((range >> t.shift) > kMaxComponent) ++t.shift;
  t.exact = (t.shift == 0);
  return t;
}

/// Writes the single-shape keys of column `c` for rows [0, n). Returns true
/// when an INT64_MAX date saturated (the encoding is then inexact).
bool BuildSingleKeys(const SortKeyPlan::Component& c, uint32_t n,
                     std::vector<uint64_t>& keys) {
  const IColumn& col = *c.column;
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
      uint32_t code = codes[r];
      keys[r] = code == StringColumn::kMissingCode
                    ? kMissingKey
                    : static_cast<uint64_t>(code);
    }
  }

  if (!c.orientation.ascending) {
    // Complementing reverses the key order and sends the missing key to 0,
    // exactly reproducing `ascending ? c : -c` over missing-last CompareRows.
    for (auto& k : keys) k = ~k;
  }
  return saturated;
}

/// Writes one packed component into its 32-bit half of every key. The first
/// component initializes the key, the second ORs into it.
void EncodePackedComponentInto(const SortKeyPlan::Component& c,
                               const SortKeyPlan::Transform& t, uint32_t n,
                               int half_shift, bool init,
                               std::vector<uint64_t>& keys) {
  const IColumn& col = *c.column;
  auto put = [&](uint32_t r, uint32_t e) {
    if (!c.orientation.ascending) e = ~e;  // missing moves first
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
  const uint64_t min = static_cast<uint64_t>(t.min);
  if (const int32_t* raw = col.RawInt()) {
    for (uint32_t r = 0; r < n; ++r) {
      if (check_nulls && nulls.IsMissing(r)) {
        put(r, kMissingComponent);
        continue;
      }
      uint64_t diff =
          static_cast<uint64_t>(static_cast<int64_t>(raw[r])) - min;
      put(r, static_cast<uint32_t>(diff >> t.shift));
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
      put(r, static_cast<uint32_t>(diff >> t.shift));
    }
    return;
  }
}

/// 32-bit packed encoding of one start cell for component `c`; second ==
/// true when equal components imply equal values (drives band width).
std::optional<std::pair<uint32_t, bool>> EncodePackedCell(
    const SortKeyPlan::Component& c, const SortKeyPlan::Transform& t,
    const Value& v) {
  const DataKind kind = c.column->kind();
  uint32_t enc = 0;
  bool value_exact = true;
  if (std::holds_alternative<std::monostate>(v)) {
    // Missing is its own component value: rows match it exactly.
    enc = kMissingComponent;
  } else if (IsStringKind(kind)) {
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
    if (kind == DataKind::kDate && pi == nullptr &&
        (*i > (1LL << 53) || *i < -(1LL << 53))) {
      // A double-derived view beyond 2^53 is lossy against int64 rows: the
      // virtual fallback would compare as doubles and could disagree.
      return std::nullopt;
    }
    if (*i < t.min) {
      enc = 0;  // below every present row: only the bottom bucket re-compares
      value_exact = false;
    } else {
      uint64_t diff = static_cast<uint64_t>(*i) - static_cast<uint64_t>(t.min);
      uint64_t e = diff >> t.shift;
      if (e > kMaxComponent) {
        enc = kMaxComponent;  // above every present row
        value_exact = false;
      } else {
        enc = static_cast<uint32_t>(e);
        value_exact = (t.shift == 0);
      }
    }
  }
  if (!c.orientation.ascending) enc = ~enc;
  return std::make_pair(enc, value_exact);
}

}  // namespace

SortKeyPlan::SortKeyPlan(const Table& table, const RecordOrder& order) {
  // O(columns), not O(rows): everything data-derived waits for BuildKeys(),
  // so a cache lookup costs no column scan.
  const auto& orientations = order.orientations();
  for (size_t i = 0; i < orientations.size(); ++i) {
    ColumnPtr column = table.GetColumnOrNull(orientations[i].column);
    if (column == nullptr) continue;
    if (first_.column == nullptr) {
      first_ = Component{column, orientations[i], i};
      continue;
    }
    if (second_.column == nullptr) {
      second_ = Component{column, orientations[i], i};
    }
    rest_.push_back(orientations[i]);
  }
  if (!valid()) return;
  // Candidate packed 32+32 shape: both leading columns narrow. Whether
  // packing actually engages depends on the first column's value range
  // (BuildKeys); the candidacy alone fixes the cache identity.
  candidate_packed_ = second_.column != nullptr &&
                      IsNarrow(*first_.column) && IsNarrow(*second_.column);
  key_columns_.push_back(first_.column);
  if (candidate_packed_) key_columns_.push_back(second_.column);
}

SortKeyPlan::KeysPtr SortKeyPlan::BuildKeys() {
  const uint32_t n = first_.column->size();  // the universe
  auto keys = std::make_shared<std::vector<uint64_t>>(n, 0);
  Encodings encodings;
  // The packed transforms need their min/max pre-pass before any key can be
  // encoded, and pack only when the first one is exact: a lossy high half
  // would let the low half override the true first-column order. The single
  // shape's one data-derived decision (INT64_MAX saturation) is detected
  // inside the key pass itself.
  if (candidate_packed_) {
    const Transform first = PackTransform(*first_.column);
    if (first.exact) {
      encodings.packed = true;
      encodings.first = first;
      encodings.second = PackTransform(*second_.column);
    }
  }
  if (encodings.packed) {
    EncodePackedComponentInto(first_, encodings.first, n, 32, /*init=*/true,
                              *keys);
    EncodePackedComponentInto(second_, encodings.second, n, 0,
                              /*init=*/false, *keys);
  } else {
    encodings.first.exact = !BuildSingleKeys(first_, n, *keys);
  }
  Adopt(keys, encodings);
  return keys;
}

void SortKeyPlan::Adopt(KeysPtr keys, const Encodings& encodings) {
  keys_ = std::move(keys);
  encodings_ = encodings;
  // Key ties re-compare an inexactly encoded column, then the columns after
  // the encoded prefix.
  tie_order_.clear();
  if (!exact()) {
    tie_order_.push_back(packed() ? second_.orientation : first_.orientation);
  }
  tie_order_.insert(tie_order_.end(), rest_.begin() + (packed() ? 1 : 0),
                    rest_.end());
}

std::optional<SortKeyPlan::StartKeyBand> SortKeyPlan::EncodeStartKey(
    const std::vector<Value>& cells) const {
  if (!built() || first_.orientation_index >= cells.size()) {
    return std::nullopt;
  }
  if (!packed()) {
    auto enc = EncodeStartCell(cells[first_.orientation_index]);
    if (!enc.has_value()) return std::nullopt;
    return StartKeyBand{*enc, *enc};
  }
  auto e0 = EncodePackedCell(first_, encodings_.first,
                             cells[first_.orientation_index]);
  if (!e0.has_value()) return std::nullopt;
  uint64_t hi = static_cast<uint64_t>(e0->first) << 32;
  if (!e0->second || second_.orientation_index >= cells.size()) {
    // First component ambiguous (or no second cell): keys within the whole
    // low half of this high component need the full comparison. Strictly
    // outside it the first column alone decides.
    return StartKeyBand{hi, hi | 0xFFFFFFFFull};
  }
  auto e1 = EncodePackedCell(second_, encodings_.second,
                             cells[second_.orientation_index]);
  if (!e1.has_value()) return StartKeyBand{hi, hi | 0xFFFFFFFFull};
  // First component exact: equal high halves mean equal first-column values,
  // so the second component's monotone order applies and the band collapses
  // to a point (an inexact second component just re-compares on key
  // equality, which the point band already requires).
  uint64_t key = hi | e1->first;
  return StartKeyBand{key, key};
}

std::optional<uint64_t> SortKeyPlan::EncodeStartCell(const Value& v) const {
  if (!built() || packed()) return std::nullopt;
  const DataKind kind = first_.column->kind();
  uint64_t enc = 0;
  if (std::holds_alternative<std::monostate>(v)) {
    enc = kMissingKey;
  } else if (IsStringKind(kind)) {
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
    switch (kind) {
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
  return first_.orientation.ascending ? enc : ~enc;
}

std::string SortKeyPlan::CacheKey() const {
  // Candidate-shape tag + per-component column object identity and
  // direction, all fixed when the plan binds, so a lookup needs no column
  // scan. Column data is immutable, so the object pointer is the layout
  // fingerprint (encodings are deterministic per column data — one
  // candidate key maps to exactly one Encodings), and the cache re-validates
  // liveness through key_columns() before serving, which rules out recycled
  // allocations. Tail columns are deliberately excluded: they do not
  // influence the key vector, so orders differing only in their tie tail
  // share one entry.
  std::string key = candidate_packed_ ? "c2" : "s1";
  auto append_component = [&key](const Component& c) {
    key += '|';
    key += std::to_string(
        reinterpret_cast<uintptr_t>(static_cast<const void*>(c.column.get())));
    key += c.orientation.ascending ? '+' : '-';
  };
  append_component(first_);
  if (candidate_packed_) append_component(second_);
  return key;
}

}  // namespace hillview
