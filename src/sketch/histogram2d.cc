#include "sketch/histogram2d.h"

#include <cassert>
#include <string>

#include "sketch/bucket_mapper.h"
#include "storage/scan.h"

namespace hillview {

void Histogram2DResult::Serialize(ByteWriter* w) const {
  w->WriteI32(x_buckets);
  w->WriteI32(y_buckets);
  w->WriteWords(xy);
  w->WriteWords(x_counts);
  w->WriteI64(missing_x);
  w->WriteI64(missing_y);
  w->WriteI64(out_of_range);
  w->WriteI64(rows_scanned);
  w->WriteDouble(sample_rate);
}

Status Histogram2DResult::Deserialize(ByteReader* r, Histogram2DResult* out) {
  HV_RETURN_IF_ERROR(r->ReadI32(&out->x_buckets));
  HV_RETURN_IF_ERROR(r->ReadI32(&out->y_buckets));
  HV_RETURN_IF_ERROR(r->ReadWords(&out->xy));
  HV_RETURN_IF_ERROR(r->ReadWords(&out->x_counts));
  // Merges index one operand by the other's lengths.
  if (out->x_buckets < 0 || out->y_buckets < 0 ||
      out->xy.size() != static_cast<uint64_t>(out->x_buckets) *
                            static_cast<uint64_t>(out->y_buckets) ||
      out->x_counts.size() != static_cast<size_t>(out->x_buckets) ||
      (out->xy.empty() && !out->x_counts.empty())) {
    return Status::InvalidArgument("2D counts do not fit their buckets");
  }
  HV_RETURN_IF_ERROR(r->ReadI64(&out->missing_x));
  HV_RETURN_IF_ERROR(r->ReadI64(&out->missing_y));
  HV_RETURN_IF_ERROR(r->ReadI64(&out->out_of_range));
  HV_RETURN_IF_ERROR(r->ReadI64(&out->rows_scanned));
  HV_RETURN_IF_ERROR(r->ReadDouble(&out->sample_rate));
  return Status::OK();
}

Histogram2DResult MergeHistogram2D(const Histogram2DResult& left,
                                   const Histogram2DResult& right) {
  if (left.IsZero()) return right;
  if (right.IsZero()) return left;
  assert(left.x_buckets == right.x_buckets);
  assert(left.y_buckets == right.y_buckets);
  Histogram2DResult out = left;
  for (size_t i = 0; i < out.xy.size(); ++i) out.xy[i] += right.xy[i];
  for (size_t i = 0; i < out.x_counts.size(); ++i) {
    out.x_counts[i] += right.x_counts[i];
  }
  out.missing_x += right.missing_x;
  out.missing_y += right.missing_y;
  out.out_of_range += right.out_of_range;
  out.rows_scanned += right.rows_scanned;
  out.sample_rate = std::max(left.sample_rate, right.sample_rate);
  return out;
}

namespace {

// Whether `g` is zero or a grid of `x` by `y` buckets (Deserialize has
// checked that its vectors fit the shape it declares).
Status CheckGridShape(const Histogram2DResult& g, int x, int y) {
  if (g.IsZero() || (g.x_buckets == x && g.y_buckets == y)) {
    return Status::OK();
  }
  return Status::InvalidArgument(
      std::to_string(g.x_buckets) + "x" + std::to_string(g.y_buckets) +
      " counts for " + std::to_string(x) + "x" + std::to_string(y) +
      " buckets");
}

// Initializes the grid shape of a 2D result.
void InitGrid(int bx, int by, double rate, Histogram2DResult* out) {
  out->x_buckets = bx;
  out->y_buckets = by;
  out->xy.assign(static_cast<size_t>(bx) * by, 0);
  out->x_counts.assign(bx, 0);
  out->sample_rate = rate < 1.0 ? rate : 1.0;
}

// Tallies one row into a 2D grid given precomputed bucket indexes.
inline void TallyPair(int ix, int iy, Histogram2DResult* out) {
  if (ix == BucketMapper::kMissing) {
    ++out->missing_x;
    return;
  }
  if (ix == BucketMapper::kOutOfRange) {
    ++out->out_of_range;
    return;
  }
  if (iy == BucketMapper::kMissing) {
    ++out->missing_y;
    ++out->x_counts[ix];
    return;
  }
  if (iy == BucketMapper::kOutOfRange) {
    ++out->out_of_range;
    return;
  }
  ++out->x_counts[ix];
  ++out->xy[static_cast<size_t>(ix) * out->y_buckets + iy];
}

}  // namespace

std::string Histogram2DSketch::name() const {
  return "histogram2d(" + x_column_ + "x" + y_column_ + "," +
         std::to_string(x_buckets_.count()) + "x" +
         std::to_string(y_buckets_.count()) + "," + std::to_string(rate_) +
         ")";
}

Histogram2DResult Histogram2DSketch::Summarize(const Table& table,
                                               uint64_t seed) const {
  Histogram2DResult result;
  // A grid without cells (a string axis with no values) is the zero
  // summary: bar totals beside an empty grid would read as zero to every
  // merge, and decoders reject them.
  if (x_buckets_.count() == 0 || y_buckets_.count() == 0) return result;
  InitGrid(x_buckets_.count(), y_buckets_.count(), rate_, &result);
  ColumnPtr xcol = table.GetColumnOrNull(x_column_);
  ColumnPtr ycol = table.GetColumnOrNull(y_column_);
  if (xcol == nullptr || ycol == nullptr) return result;
  BucketMapper x_map(xcol.get(), x_buckets_);
  BucketMapper y_map(ycol.get(), y_buckets_);
  if (!x_map.valid() || !y_map.valid()) return result;

  auto tally = [&](uint32_t row) {
    ++result.rows_scanned;
    TallyPair(x_map.BucketOf(row), y_map.BucketOf(row), &result);
  };
  ScanRows(*table.members(), rate_, seed, tally);
  return result;
}

Status Histogram2DSketch::CheckShape(const Histogram2DResult& summary) const {
  return CheckGridShape(summary, x_buckets_.count(), y_buckets_.count());
}

Histogram2DResult Histogram2DSketch::Merge(
    const Histogram2DResult& left, const Histogram2DResult& right) const {
  return MergeHistogram2D(left, right);
}

void TrellisResult::Serialize(ByteWriter* w) const {
  w->WriteU32(static_cast<uint32_t>(groups.size()));
  for (const auto& g : groups) g.Serialize(w);
  w->WriteI64(missing_w);
  w->WriteI64(out_of_range_w);
}

Status TrellisResult::Deserialize(ByteReader* r, TrellisResult* out) {
  uint32_t n = 0;
  // Each group serializes two bucket counts, two vectors and five scalars —
  // well above 16 bytes even when empty.
  HV_RETURN_IF_ERROR(r->ReadCount(&n, /*min_element_bytes=*/16));
  out->groups.resize(n);
  for (auto& g : out->groups) {
    HV_RETURN_IF_ERROR(Histogram2DResult::Deserialize(r, &g));
  }
  HV_RETURN_IF_ERROR(r->ReadI64(&out->missing_w));
  HV_RETURN_IF_ERROR(r->ReadI64(&out->out_of_range_w));
  return Status::OK();
}

std::string TrellisSketch::name() const {
  return "trellis(" + w_column_ + "," + x_column_ + "x" + y_column_ + "," +
         std::to_string(w_buckets_.count()) + "x" +
         std::to_string(x_buckets_.count()) + "x" +
         std::to_string(y_buckets_.count()) + ")";
}

TrellisResult TrellisSketch::Summarize(const Table& table,
                                       uint64_t seed) const {
  TrellisResult result;
  // As in Histogram2DSketch: grids without cells make the zero summary.
  if (x_buckets_.count() == 0 || y_buckets_.count() == 0) return result;
  result.groups.resize(w_buckets_.count());
  for (auto& g : result.groups) {
    InitGrid(x_buckets_.count(), y_buckets_.count(), rate_, &g);
  }
  ColumnPtr wcol = table.GetColumnOrNull(w_column_);
  ColumnPtr xcol = table.GetColumnOrNull(x_column_);
  ColumnPtr ycol = table.GetColumnOrNull(y_column_);
  if (wcol == nullptr || xcol == nullptr || ycol == nullptr) return result;
  BucketMapper w_map(wcol.get(), w_buckets_);
  BucketMapper x_map(xcol.get(), x_buckets_);
  BucketMapper y_map(ycol.get(), y_buckets_);
  if (!w_map.valid() || !x_map.valid() || !y_map.valid()) return result;

  auto tally = [&](uint32_t row) {
    int iw = w_map.BucketOf(row);
    if (iw == BucketMapper::kMissing) {
      ++result.missing_w;
      return;
    }
    if (iw == BucketMapper::kOutOfRange) {
      ++result.out_of_range_w;
      return;
    }
    Histogram2DResult& g = result.groups[iw];
    ++g.rows_scanned;
    TallyPair(x_map.BucketOf(row), y_map.BucketOf(row), &g);
  };
  ScanRows(*table.members(), rate_, seed, tally);
  return result;
}

Status TrellisSketch::CheckShape(const TrellisResult& summary) const {
  if (summary.IsZero()) return Status::OK();
  if (summary.groups.size() != static_cast<size_t>(w_buckets_.count())) {
    return Status::InvalidArgument(
        std::to_string(summary.groups.size()) + " groups for " +
        std::to_string(w_buckets_.count()) + " buckets");
  }
  for (const Histogram2DResult& group : summary.groups) {
    HV_RETURN_IF_ERROR(
        CheckGridShape(group, x_buckets_.count(), y_buckets_.count()));
  }
  return Status::OK();
}

TrellisResult TrellisSketch::Merge(const TrellisResult& left,
                                   const TrellisResult& right) const {
  if (left.IsZero()) return right;
  if (right.IsZero()) return left;
  assert(left.groups.size() == right.groups.size());
  TrellisResult out = left;
  for (size_t i = 0; i < out.groups.size(); ++i) {
    out.groups[i] = MergeHistogram2D(out.groups[i], right.groups[i]);
  }
  out.missing_w += right.missing_w;
  out.out_of_range_w += right.out_of_range_w;
  return out;
}

}  // namespace hillview
