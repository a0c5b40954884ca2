#ifndef HILLVIEW_STORAGE_COLUMN_H_
#define HILLVIEW_STORAGE_COLUMN_H_

#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "storage/column_storage.h"
#include "storage/value.h"
#include "util/random.h"
#include "util/status.h"

namespace hillview {

class IMembershipSet;

/// Bitmap of missing values. Empty mask means "no value is missing", which is
/// the common case and costs nothing.
///
/// Like column payloads, the bitmap sits behind the storage-backend seam:
/// either an owned word vector (builders, streaming reads) or a zero-copy
/// view over the null-words segment of a mapped columnar file. Views are
/// immutable — SetMissing is only legal on owned masks.
class NullMask {
 public:
  NullMask() = default;

  /// Owned mask from prebuilt words (file readers). `count` must equal the
  /// number of set bits.
  NullMask(std::vector<uint64_t> words, uint64_t count)
      : words_(std::move(words)), count_(count) {}

  /// Zero-copy view over mapped null words; `keeper` keeps the mapping (or
  /// other backing storage) alive for the lifetime of the mask.
  NullMask(const uint64_t* words, size_t num_words, uint64_t count,
           std::shared_ptr<const void> keeper)
      : view_(words),
        view_words_(num_words),
        keeper_(std::move(keeper)),
        count_(count) {}

  /// Marks `row` missing, growing the bitmap as needed. Idempotent: marking
  /// an already-missing row leaves count() unchanged. Owned masks only.
  void SetMissing(uint32_t row) {
    size_t word = row >> 6;
    if (word >= words_.size()) words_.resize(word + 1, 0);
    uint64_t bit = 1ULL << (row & 63);
    if ((words_[word] & bit) == 0) {
      words_[word] |= bit;
      ++count_;
    }
  }

  bool IsMissing(uint32_t row) const {
    size_t word = row >> 6;
    if (word >= num_words()) return false;
    return (word_data()[word] >> (row & 63)) & 1;
  }

  bool empty() const { return count_ == 0; }
  uint64_t count() const { return count_; }
  bool is_view() const { return view_ != nullptr; }

  /// Heap bytes (views report 0; their words live in the mapped file).
  size_t MemoryBytes() const { return words_.size() * sizeof(uint64_t); }
  size_t MappedBytes() const { return view_words_ * sizeof(uint64_t); }

  const uint64_t* word_data() const {
    return view_ != nullptr ? view_ : words_.data();
  }
  size_t num_words() const {
    return view_ != nullptr ? view_words_ : words_.size();
  }

 private:
  std::vector<uint64_t> words_;
  const uint64_t* view_ = nullptr;
  size_t view_words_ = 0;
  std::shared_ptr<const void> keeper_;
  uint64_t count_ = 0;
};

/// Read-only columnar data. The in-memory representation follows §6: plain
/// arrays of base types to minimize allocator pressure; string columns use
/// dictionary encoding for compression. Payloads sit behind ColumnStorage,
/// so the arrays are either heap-resident or mapped from a columnar file —
/// interchangeable under the scan layer.
///
/// Scans (vizketch summarize functions) should prefer the Raw* fast paths and
/// fall back to the virtual per-row accessors only for generic code paths
/// (row materialization, sorting comparisons, CSV output).
class IColumn {
 public:
  virtual ~IColumn() = default;

  virtual DataKind kind() const = 0;
  virtual uint32_t size() const = 0;
  virtual bool IsMissing(uint32_t row) const = 0;

  /// Numeric conversion used by charts (§4.3: "a value that can be readily
  /// converted to a real number"). For string kinds this is the dictionary
  /// code, which respects alphabetical order (dictionaries are sorted).
  virtual double GetDouble(uint32_t row) const = 0;

  /// Materializes a cell; used only for small outputs (next-items, render).
  virtual Value GetValue(uint32_t row) const = 0;

  /// Renders a cell as text (dates render as their millisecond count; the
  /// render layer owns pretty date formatting).
  virtual std::string GetString(uint32_t row) const = 0;

  /// Three-way row comparison with missing-last ordering.
  virtual int CompareRows(uint32_t a, uint32_t b) const = 0;

  /// Hash of the cell value, stable across partitions (used by heavy hitters
  /// and distinct-count sketches). Missing hashes to a fixed sentinel.
  virtual uint64_t HashRow(uint32_t row, uint64_t seed) const = 0;

  /// Heap-resident bytes (soft-state accounting; mapped payloads report 0).
  virtual size_t MemoryBytes() const = 0;

  /// File bytes served via mmap (0 for heap-resident columns).
  virtual size_t MappedBytes() const { return 0; }

  virtual const NullMask& null_mask() const = 0;

  /// Storage-backend hook the scan layer calls once per scan, before walking
  /// rows: mapped columns translate the membership shape into madvise
  /// prefetch (MADV_SEQUENTIAL for full/dense scans, batched MADV_WILLNEED
  /// page ranges for sparse row lists). Heap columns do nothing.
  virtual void PrepareScan(const IMembershipSet& members) const {
    (void)members;
  }

  // Fast-path raw accessors. Every column has exactly one of these physical
  // representations and returns nullptr from the other three (an empty one
  // may return nullptr from all four: it has no row to read). The scan
  // layer and the sort keys rely on this and keep no per-row fallback.
  virtual const int32_t* RawInt() const { return nullptr; }
  virtual const double* RawDouble() const { return nullptr; }
  virtual const int64_t* RawDate() const { return nullptr; }
  virtual const uint32_t* RawCodes() const { return nullptr; }

  /// For dictionary-encoded columns: the sorted dictionary; empty otherwise.
  virtual const StringDictionary& Dictionary() const {
    static const StringDictionary kEmpty;
    return kEmpty;
  }
};

using ColumnPtr = std::shared_ptr<const IColumn>;

namespace internal_column {

/// Shared implementation for the three numeric physical layouts.
template <typename T, DataKind KIND>
class NumericColumn final : public IColumn {
 public:
  NumericColumn(std::vector<T> data, NullMask nulls)
      : data_(std::move(data)), nulls_(std::move(nulls)) {
    // The central missing policy (storage/scan.h) treats NaN as missing.
    // Folding NaN into the null mask at construction makes every consumer —
    // scans, sort comparisons, Value materialization, file writers — agree,
    // instead of each virtual accessor re-deciding; it also keeps
    // CompareRows a strict weak ordering (raw NaN comparisons are not).
    if constexpr (std::is_same_v<T, double>) {
      const T* raw = data_.data();
      for (uint32_t row = 0; row < data_.size(); ++row) {
        if (std::isnan(raw[row])) nulls_.SetMissing(row);
      }
    }
  }

  /// Mapped-backend constructor. No NaN folding pass: touching every value
  /// here would fault the whole file in and defeat the lazy mapping. The
  /// columnar writer serialized the source column's already-folded mask, so
  /// the invariant holds for well-formed files; scan.h's Emit still routes
  /// any stray NaN in a corrupt file to OnMissing.
  NumericColumn(ColumnStorage<T> data, NullMask nulls)
      : data_(std::move(data)), nulls_(std::move(nulls)) {}

  DataKind kind() const override { return KIND; }
  uint32_t size() const override { return static_cast<uint32_t>(data_.size()); }
  bool IsMissing(uint32_t row) const override { return nulls_.IsMissing(row); }

  double GetDouble(uint32_t row) const override {
    return static_cast<double>(data_[row]);
  }

  Value GetValue(uint32_t row) const override {
    if (IsMissing(row)) return std::monostate{};
    if constexpr (std::is_same_v<T, double>) {
      return data_[row];
    } else {
      return static_cast<int64_t>(data_[row]);
    }
  }

  std::string GetString(uint32_t row) const override {
    return ValueToString(GetValue(row));
  }

  int CompareRows(uint32_t a, uint32_t b) const override {
    bool ma = IsMissing(a), mb = IsMissing(b);
    if (ma || mb) return ma == mb ? 0 : (ma ? 1 : -1);
    if (data_[a] != data_[b]) return data_[a] < data_[b] ? -1 : 1;
    return 0;
  }

  uint64_t HashRow(uint32_t row, uint64_t seed) const override {
    if (IsMissing(row)) return MixSeed(seed, 0x6d697373);  // "miss"
    if constexpr (std::is_same_v<T, double>) {
      double d = data_[row];
      uint64_t bits;
      static_assert(sizeof(bits) == sizeof(d));
      __builtin_memcpy(&bits, &d, sizeof(bits));
      return MixSeed(seed, bits);
    } else {
      return MixSeed(seed, static_cast<uint64_t>(data_[row]));
    }
  }

  size_t MemoryBytes() const override {
    return data_.HeapBytes() + nulls_.MemoryBytes();
  }

  size_t MappedBytes() const override {
    return data_.MappedBytes() + nulls_.MappedBytes();
  }

  const NullMask& null_mask() const override { return nulls_; }

  void PrepareScan(const IMembershipSet& members) const override {
    if (data_.mapped()) AdviseForScan(data_.segment(), members, sizeof(T));
  }

  const int32_t* RawInt() const override {
    if constexpr (std::is_same_v<T, int32_t>) return data_.data();
    return nullptr;
  }
  const double* RawDouble() const override {
    if constexpr (std::is_same_v<T, double>) return data_.data();
    return nullptr;
  }
  const int64_t* RawDate() const override {
    if constexpr (std::is_same_v<T, int64_t>) return data_.data();
    return nullptr;
  }

 private:
  ColumnStorage<T> data_;
  NullMask nulls_;
};

}  // namespace internal_column

using Int32Column = internal_column::NumericColumn<int32_t, DataKind::kInt>;
using DoubleColumn = internal_column::NumericColumn<double, DataKind::kDouble>;
using DateColumn = internal_column::NumericColumn<int64_t, DataKind::kDate>;

/// Dictionary-encoded string column (kString or kCategory). The dictionary is
/// sorted, so code order equals alphabetical order and GetDouble (the code)
/// can drive equi-width string bucketing directly.
class StringColumn final : public IColumn {
 public:
  static constexpr uint32_t kMissingCode = std::numeric_limits<uint32_t>::max();

  StringColumn(DataKind kind, std::vector<uint32_t> codes,
               std::vector<std::string> dictionary)
      : kind_(kind),
        codes_(std::move(codes)),
        dict_(std::move(dictionary)) {
    // Missing rows are encoded in the code stream (kMissingCode); derive the
    // bitmap once so generic null-mask consumers see the same missing rows
    // as IsMissing().
    const uint32_t* raw = codes_.data();
    uint32_t limit = dict_.size();
    for (uint32_t row = 0; row < codes_.size(); ++row) {
      if (raw[row] >= limit) nulls_.SetMissing(row);
    }
  }

  /// Storage-backend constructor (mapped or pre-decoded): codes, dictionary
  /// and null mask arrive ready-made. `nulls` must mark exactly the rows
  /// whose code is out of dictionary range (the writer guarantees this for
  /// well-formed files; every accessor also clamps, so a corrupt file
  /// degrades to extra missing values, never out-of-bounds reads).
  StringColumn(DataKind kind, ColumnStorage<uint32_t> codes,
               StringDictionary dict, NullMask nulls)
      : kind_(kind),
        codes_(std::move(codes)),
        dict_(std::move(dict)),
        nulls_(std::move(nulls)) {}

  DataKind kind() const override { return kind_; }
  uint32_t size() const override {
    return static_cast<uint32_t>(codes_.size());
  }

  /// Central corrupt-tolerant policy: any code at or beyond the dictionary
  /// is missing. kMissingCode (max uint32) is simply the canonical such code.
  bool IsMissing(uint32_t row) const override {
    return codes_[row] >= dict_.size();
  }

  double GetDouble(uint32_t row) const override {
    return static_cast<double>(codes_[row]);
  }

  Value GetValue(uint32_t row) const override {
    if (IsMissing(row)) return std::monostate{};
    return std::string(dict_[codes_[row]]);
  }

  std::string GetString(uint32_t row) const override {
    if (IsMissing(row)) return "";
    return std::string(dict_[codes_[row]]);
  }

  std::string_view GetStringView(uint32_t row) const {
    if (IsMissing(row)) return {};
    return dict_[codes_[row]];
  }

  int CompareRows(uint32_t a, uint32_t b) const override {
    uint32_t ca = codes_[a], cb = codes_[b];
    // Clamp out-of-range codes to the missing sentinel so all missing rows
    // compare equal (and last) even in a corrupt file.
    uint32_t limit = dict_.size();
    if (ca >= limit) ca = kMissingCode;
    if (cb >= limit) cb = kMissingCode;
    if (ca != cb) return ca < cb ? -1 : 1;
    return 0;
  }

  uint64_t HashRow(uint32_t row, uint64_t seed) const override {
    if (IsMissing(row)) return MixSeed(seed, 0x6d697373);
    std::string_view s = dict_[codes_[row]];
    return HashBytes(s.data(), s.size(), seed);
  }

  size_t MemoryBytes() const override {
    return codes_.HeapBytes() + nulls_.MemoryBytes() + dict_.MemoryBytes();
  }

  size_t MappedBytes() const override {
    return codes_.MappedBytes() + nulls_.MappedBytes() + dict_.MappedBytes();
  }

  const NullMask& null_mask() const override { return nulls_; }

  void PrepareScan(const IMembershipSet& members) const override {
    if (codes_.mapped()) {
      AdviseForScan(codes_.segment(), members, sizeof(uint32_t));
    }
  }

  const uint32_t* RawCodes() const override { return codes_.data(); }
  const StringDictionary& Dictionary() const override { return dict_; }

  uint32_t dictionary_size() const { return dict_.size(); }

 private:
  DataKind kind_;
  ColumnStorage<uint32_t> codes_;
  StringDictionary dict_;
  NullMask nulls_;
};

/// Appends values of any kind and produces an immutable column. Builders are
/// how every loader (CSV, generators, derived-column maps) creates data.
class ColumnBuilder {
 public:
  explicit ColumnBuilder(DataKind kind) : kind_(kind) {}

  DataKind kind() const { return kind_; }
  uint32_t size() const { return count_; }

  void AppendInt(int32_t v);
  void AppendDouble(double v);
  void AppendDate(int64_t millis);
  void AppendString(std::string_view v);
  void AppendMissing();
  /// Appends a materialized value; its alternative must match the kind.
  void AppendValue(const Value& v);

  /// Builds the immutable column. For string kinds this sorts the dictionary
  /// and remaps codes so that code order equals alphabetical order.
  ColumnPtr Finish();

 private:
  DataKind kind_;
  uint32_t count_ = 0;
  NullMask nulls_;
  std::vector<int32_t> ints_;
  std::vector<double> doubles_;
  std::vector<int64_t> dates_;
  std::vector<uint32_t> codes_;
  std::vector<std::string> dict_;
  // Dictionary lookup during building (string -> provisional code).
  struct DictIndex;
  std::shared_ptr<DictIndex> dict_index_;
};

}  // namespace hillview

#endif  // HILLVIEW_STORAGE_COLUMN_H_
