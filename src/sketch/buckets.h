#ifndef HILLVIEW_SKETCH_BUCKETS_H_
#define HILLVIEW_SKETCH_BUCKETS_H_

#include <algorithm>
#include <cmath>
#include <string>
#include <string_view>
#include <vector>

#include "storage/column.h"
#include "util/serialize.h"

namespace hillview {

/// Equi-width numeric bucketing over [min, max]: B intervals of equal width;
/// values equal to max land in the last bucket (the paper's [x0, x1) range
/// with the conventional closed top bucket). Out-of-range values return -1.
class NumericBuckets {
 public:
  NumericBuckets() = default;
  NumericBuckets(double min, double max, int count)
      : min_(min),
        max_(max),
        count_(std::max(1, count)),
        width_((max_ - min_) / count_),
        scale_(max_ > min_ ? count_ / (max_ - min_) : 0.0) {}

  /// The histogram kernels' rule (scan_kernels.inc), so every sketch puts a
  /// value in the same bucket: one multiply by scale(), truncated, with the
  /// top-bucket fixup.
  int IndexOf(double v) const {
    // NaN compares false against both bounds, so without this check it would
    // reach the cast below with an undefined result; the scan layer treats
    // NaN as missing before bucketing, this guards every other caller.
    if (std::isnan(v)) return -1;
    if (v < min_ || v > max_) return -1;
    return std::min(static_cast<int>((v - min_) * scale_), count_ - 1);
  }

  double LowBoundary(int bucket) const { return min_ + width_ * bucket; }
  double HighBoundary(int bucket) const { return min_ + width_ * (bucket + 1); }

  double min() const { return min_; }
  double max() const { return max_; }
  int count() const { return count_; }
  /// Buckets per unit of value; 0 for a degenerate [min, min] range.
  double scale() const { return scale_; }

  void Serialize(ByteWriter* w) const {
    w->WriteDouble(min_);
    w->WriteDouble(max_);
    w->WriteI32(count_);
  }
  static Status Deserialize(ByteReader* r, NumericBuckets* out) {
    double min = 0, max = 0;
    int32_t count = 0;
    HV_RETURN_IF_ERROR(r->ReadDouble(&min));
    HV_RETURN_IF_ERROR(r->ReadDouble(&max));
    HV_RETURN_IF_ERROR(r->ReadI32(&count));
    *out = NumericBuckets(min, max, count);
    return Status::OK();
  }

 private:
  double min_ = 0;
  double max_ = 1;
  int count_ = 1;
  double width_ = 1;
  double scale_ = 1;
};

/// Buckets over strings in alphabetical order (§B.1 "equi-width buckets for
/// string data"). Bucket i covers [boundary[i], boundary[i+1]); the last
/// bucket is unbounded above unless `max_inclusive` is set, in which case it
/// covers [boundary[B-1], max_inclusive]. Strings below boundary[0] return -1.
class StringBuckets {
 public:
  StringBuckets() = default;
  explicit StringBuckets(std::vector<std::string> boundaries,
                         std::string max_inclusive = "",
                         bool has_max = false)
      : boundaries_(std::move(boundaries)),
        max_(std::move(max_inclusive)),
        has_max_(has_max) {}

  int IndexOf(std::string_view s) const {
    if (boundaries_.empty()) return -1;
    if (s < boundaries_[0]) return -1;
    if (has_max_ && s > max_) return -1;
    // Last boundary <= s.
    auto it = std::upper_bound(boundaries_.begin(), boundaries_.end(), s);
    return static_cast<int>(it - boundaries_.begin()) - 1;
  }

  int count() const { return static_cast<int>(boundaries_.size()); }
  const std::vector<std::string>& boundaries() const { return boundaries_; }

  /// Precomputes the bucket of every dictionary code of `col` so scans map
  /// code -> bucket with one array load. The dictionary is partition-local,
  /// which is why the mapping cannot be shipped with the sketch.
  std::vector<int> MapDictionary(const IColumn& col) const {
    const auto& dict = col.Dictionary();
    std::vector<int> map(dict.size());
    for (size_t i = 0; i < dict.size(); ++i) {
      map[i] = IndexOf(dict[i]);
    }
    return map;
  }

  void Serialize(ByteWriter* w) const {
    w->WriteU32(static_cast<uint32_t>(boundaries_.size()));
    for (const auto& b : boundaries_) w->WriteString(b);
    w->WriteString(max_);
    w->WriteBool(has_max_);
  }
  static Status Deserialize(ByteReader* r, StringBuckets* out) {
    uint32_t n = 0;
    // Each boundary carries at least its length prefix; a corrupt count
    // must not drive a giant allocation.
    HV_RETURN_IF_ERROR(r->ReadCount(&n, /*min_element_bytes=*/4));
    std::vector<std::string> boundaries(n);
    for (auto& b : boundaries) HV_RETURN_IF_ERROR(r->ReadString(&b));
    std::string max;
    bool has_max = false;
    HV_RETURN_IF_ERROR(r->ReadString(&max));
    HV_RETURN_IF_ERROR(r->ReadBool(&has_max));
    *out = StringBuckets(std::move(boundaries), std::move(max), has_max);
    return Status::OK();
  }

 private:
  std::vector<std::string> boundaries_;
  std::string max_;
  bool has_max_ = false;
};

/// Either numeric or string bucketing, selected by the column kind.
class Buckets {
 public:
  Buckets() = default;
  Buckets(NumericBuckets b) : numeric_(std::move(b)), is_numeric_(true) {}  // NOLINT
  Buckets(StringBuckets b) : string_(std::move(b)), is_numeric_(false) {}   // NOLINT

  bool is_numeric() const { return is_numeric_; }
  int count() const {
    return is_numeric_ ? numeric_.count() : string_.count();
  }
  const NumericBuckets& numeric() const { return numeric_; }
  const StringBuckets& string() const { return string_; }

  void Serialize(ByteWriter* w) const {
    w->WriteBool(is_numeric_);
    if (is_numeric_) {
      numeric_.Serialize(w);
    } else {
      string_.Serialize(w);
    }
  }
  static Status Deserialize(ByteReader* r, Buckets* out) {
    bool is_numeric = false;
    HV_RETURN_IF_ERROR(r->ReadBool(&is_numeric));
    if (is_numeric) {
      NumericBuckets b;
      HV_RETURN_IF_ERROR(NumericBuckets::Deserialize(r, &b));
      *out = Buckets(std::move(b));
    } else {
      StringBuckets b;
      HV_RETURN_IF_ERROR(StringBuckets::Deserialize(r, &b));
      *out = Buckets(std::move(b));
    }
    return Status::OK();
  }

 private:
  NumericBuckets numeric_;
  StringBuckets string_;
  bool is_numeric_ = true;
};

}  // namespace hillview

#endif  // HILLVIEW_SKETCH_BUCKETS_H_
