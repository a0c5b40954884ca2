#include "sketch/histogram.h"

#include <algorithm>
#include <cassert>
#include <numeric>
#include <string>

#include "storage/scan.h"

namespace hillview {

int64_t HistogramResult::TotalCount() const {
  return std::accumulate(counts.begin(), counts.end(), int64_t{0});
}

void HistogramResult::Serialize(ByteWriter* w) const {
  w->WriteWords(counts);
  w->WriteI64(missing);
  w->WriteI64(out_of_range);
  w->WriteI64(rows_scanned);
  w->WriteDouble(sample_rate);
}

Status HistogramResult::Deserialize(ByteReader* r, HistogramResult* out) {
  HV_RETURN_IF_ERROR(r->ReadWords(&out->counts));
  HV_RETURN_IF_ERROR(r->ReadI64(&out->missing));
  HV_RETURN_IF_ERROR(r->ReadI64(&out->out_of_range));
  HV_RETURN_IF_ERROR(r->ReadI64(&out->rows_scanned));
  HV_RETURN_IF_ERROR(r->ReadDouble(&out->sample_rate));
  return Status::OK();
}

HistogramResult MergeHistograms(const HistogramResult& left,
                                const HistogramResult& right) {
  if (left.IsZero()) return right;
  if (right.IsZero()) return left;
  assert(left.counts.size() == right.counts.size());
  HistogramResult out = left;
  for (size_t i = 0; i < out.counts.size(); ++i) {
    out.counts[i] += right.counts[i];
  }
  out.missing += right.missing;
  out.out_of_range += right.out_of_range;
  out.rows_scanned += right.rows_scanned;
  out.sample_rate = std::max(left.sample_rate, right.sample_rate);
  return out;
}

namespace {

// Whether `summary` is zero or holds one count per bucket of `buckets`.
Status CheckHistogramShape(const HistogramResult& summary,
                           const Buckets& buckets) {
  if (summary.IsZero() ||
      summary.counts.size() == static_cast<size_t>(buckets.count())) {
    return Status::OK();
  }
  return Status::InvalidArgument(
      std::to_string(summary.counts.size()) + " counts for " +
      std::to_string(buckets.count()) + " buckets");
}

// Equi-width tally over native numeric values. The scan layer never forwards
// NaN (it counts as missing), so OnValue only sees orderable doubles; ±inf
// clamps out and lands in the out-of-range slot.
//
// The hot loop is branchless: the value is clamped into [min, max] (minsd /
// maxsd), the bucket index comes from one multiply, and out-of-range rows
// select a trailing overflow slot via cmov, so every row ends as exactly one
// unconditional `++slots[i]`. Missing accumulates in a visitor-local field;
// everything is flushed into the result once after the scan.
//
// All-present runs arrive through OnBlock (scan.h's block protocol) and
// tally via the runtime-dispatched hist_index kernels: the kernel fills a
// small index buffer (count = out-of-range, count + 1 = NaN, mirroring the
// per-row arithmetic bit for bit), and the increment loop stays scalar —
// bucket counts are integers, so the result is identical to the per-row
// path in any order.
struct NumericTally {
  double min;
  double max;
  double scale;  // NumericBuckets::scale()
  int count;
  std::vector<int64_t> slots;  // [0, count) buckets, [count] out-of-range,
                               // [count + 1] NaN-missing (block path only)
  int64_t* slot = nullptr;     // cached slots.data(): keeps the loop in registers
  int64_t missing = 0;

  explicit NumericTally(const NumericBuckets& buckets)
      : min(buckets.min()),
        max(buckets.max()),
        scale(buckets.scale()),
        count(buckets.count()),
        slots(static_cast<size_t>(buckets.count()) + 2, 0),
        slot(slots.data()) {}

  template <typename T>
  void OnValue(uint32_t /*row*/, T value) {
    double v = static_cast<double>(value);
    double clamped = std::min(std::max(v, min), max);
    int idx = static_cast<int>((clamped - min) * scale);
    if (idx >= count) idx = count - 1;  // v == max lands in the top bucket
    bool in_range = (v >= min) & (v <= max);
    ++slot[in_range ? idx : count];
  }

  void OnMissing(uint32_t /*row*/) { ++missing; }

  template <typename T>
  void TallyBlock(const T* values, uint32_t n,
                  void (*kernel)(const T*, uint32_t, double, double, double,
                                 int32_t, uint32_t*)) {
    // Chunked so the index buffer stays in L1 while the kernel streams the
    // values.
    uint32_t idx[512];
    for (uint32_t at = 0; at < n; at += 512) {
      const uint32_t len = n - at < 512 ? n - at : 512;
      kernel(values + at, len, min, max, scale, count, idx);
      for (uint32_t i = 0; i < len; ++i) ++slot[idx[i]];
    }
  }

  void OnBlock(uint32_t /*base*/, const double* values, uint32_t n) {
    TallyBlock(values, n, GetScanKernels().hist_index_f64);
  }

  void OnBlock(uint32_t /*base*/, const int32_t* values, uint32_t n) {
    TallyBlock(values, n, GetScanKernels().hist_index_i32);
  }

  // Every visited row landed in exactly one slot or in `missing`.
  void Flush(HistogramResult* result) const {
    int64_t tallied = 0;
    for (int b = 0; b < count; ++b) {
      result->counts[b] += slots[b];
      tallied += slots[b];
    }
    result->out_of_range += slots[count];
    result->missing += missing + slots[count + 1];
    result->rows_scanned += tallied + slots[count] + missing + slots[count + 1];
  }
};

// Tally over dictionary codes. The code -> slot map is precomputed with
// out-of-range codes pointing at a trailing overflow slot, so the per-row
// work is one load and one unconditional increment.
struct StringTally {
  const uint32_t* code_to_slot;
  int count;
  std::vector<int64_t> slots;  // [0, count) buckets, [count] out-of-range
  int64_t* slot;               // cached slots.data()
  int64_t missing = 0;

  StringTally(const uint32_t* code_to_slot, int count)
      : code_to_slot(code_to_slot),
        count(count),
        slots(static_cast<size_t>(count) + 1, 0),
        slot(slots.data()) {}

  void OnValue(uint32_t /*row*/, uint32_t code) { ++slot[code_to_slot[code]]; }

  void OnMissing(uint32_t /*row*/) { ++missing; }

  void Flush(HistogramResult* result) const {
    int64_t tallied = 0;
    for (int b = 0; b < count; ++b) {
      result->counts[b] += slots[b];
      tallied += slots[b];
    }
    result->out_of_range += slots[count];
    result->missing += missing;
    result->rows_scanned += tallied + slots[count] + missing;
  }
};

}  // namespace

void TallyHistogram(const Table& table, const std::string& column,
                    const Buckets& buckets, double rate, uint64_t seed,
                    HistogramResult* result) {
  result->counts.assign(buckets.count(), 0);
  result->sample_rate = rate < 1.0 ? rate : 1.0;
  ColumnPtr col = table.GetColumnOrNull(column);
  if (col == nullptr) return;  // Unknown column summarizes to zero counts.
  const IMembershipSet& members = *table.members();

  if (buckets.is_numeric()) {
    NumericTally tally(buckets.numeric());
    ScanColumn(*col, members, rate, seed, tally);
    tally.Flush(result);
    return;
  }

  // String buckets: map each dictionary code to its bucket once, then scan
  // the code array.
  if (col->RawCodes() == nullptr) {
    return;  // Numeric column with string buckets: zero.
  }
  std::vector<int> code_to_bucket = buckets.string().MapDictionary(*col);
  std::vector<uint32_t> code_to_slot(code_to_bucket.size());
  for (size_t i = 0; i < code_to_bucket.size(); ++i) {
    code_to_slot[i] = code_to_bucket[i] < 0
                          ? static_cast<uint32_t>(buckets.count())
                          : static_cast<uint32_t>(code_to_bucket[i]);
  }
  StringTally tally(code_to_slot.data(), buckets.count());
  ScanColumn(*col, members, rate, seed, tally);
  tally.Flush(result);
}

std::string StreamingHistogramSketch::name() const {
  return "histogram-streaming(" + column_ + "," +
         std::to_string(buckets_.count()) + ")";
}

HistogramResult StreamingHistogramSketch::Zero() const {
  return HistogramResult{};
}

HistogramResult StreamingHistogramSketch::Summarize(const Table& table,
                                                    uint64_t seed) const {
  (void)seed;
  HistogramResult result;
  TallyHistogram(table, column_, buckets_, 1.0, 0, &result);
  return result;
}

Status StreamingHistogramSketch::CheckShape(
    const HistogramResult& summary) const {
  return CheckHistogramShape(summary, buckets_);
}

HistogramResult StreamingHistogramSketch::Merge(
    const HistogramResult& left, const HistogramResult& right) const {
  return MergeHistograms(left, right);
}

std::string SampledHistogramSketch::name() const {
  return "histogram-sampled(" + column_ + "," +
         std::to_string(buckets_.count()) + "," + std::to_string(rate_) + ")";
}

HistogramResult SampledHistogramSketch::Zero() const {
  return HistogramResult{};
}

HistogramResult SampledHistogramSketch::Summarize(const Table& table,
                                                  uint64_t seed) const {
  HistogramResult result;
  TallyHistogram(table, column_, buckets_, rate_, seed, &result);
  return result;
}

Status SampledHistogramSketch::CheckShape(
    const HistogramResult& summary) const {
  return CheckHistogramShape(summary, buckets_);
}

HistogramResult SampledHistogramSketch::Merge(
    const HistogramResult& left, const HistogramResult& right) const {
  return MergeHistograms(left, right);
}

}  // namespace hillview
