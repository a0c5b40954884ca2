#include "sketch/quantile.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <string_view>

#include "storage/scan.h"
#include "storage/sort_key.h"
#include "storage/sort_key_cache.h"

namespace hillview {

namespace {

/// First word of every quantile payload; a buffer that does not start with
/// it is rejected before any of its counts is trusted.
constexpr uint32_t kQuantileWireMagic = 0x4B4C4C32;  // "2LLK" little-endian

/// Column tag of a column that ships a class per cell; the tags below it
/// name the KeyClass every cell of the column has.
constexpr uint8_t kPerCellClassesTag = 4;

/// Seed streams (MixSeed) for the deterministic coins: compaction parity
/// and the rate-reconciling subsample of a merge.
constexpr uint64_t kCompactStream = 0xC09AC7;
constexpr uint64_t kSubsampleStream = 0x5AB5A9;
constexpr uint64_t kSummarySeedStream = 0x9B1E55ED;

/// Largest weight exponent (and log₂ of the largest per-payload total
/// weight) the wire accepts. Real totals are display-sized (≈ V² sampled
/// rows), so 2^44 is astronomically generous, while the cap keeps any
/// realistic number of individually-valid hostile payloads from composing
/// into uint64 overflow in TotalWeight/weighted selection downstream.
constexpr unsigned kMaxWeightExponent = 44;

/// Coin seed for a summary's compaction / thinning randomness. Mixing the
/// summary's content (total weight, item count) into the seed decorrelates
/// parities across merge-tree nodes even when the XOR-combined seeds
/// collapse (two equal seeds cancel) while staying a pure function of the
/// merge inputs (replay- and wire-stable) and invariant under operand swap
/// (commutativity).
uint64_t CoinSeed(const QuantileResult& r, uint64_t stream) {
  uint64_t content = r.TotalWeight() ^ (static_cast<uint64_t>(r.size()) << 32);
  return MixSeed(MixSeed(r.seed, content), stream);
}

std::string_view StringAt(std::string_view pool, uint64_t word) {
  return pool.substr(word >> 32, word & 0xFFFFFFFFu);
}

template <typename T>
int ThreeWay(T a, T b) {
  return a < b ? -1 : (b < a ? 1 : 0);
}

double NumberAt(KeyClass cls, uint64_t word) {
  return cls == KeyClass::kInt ? static_cast<double>(DecodeI64(word))
                               : DecodeF64(word);
}

/// CompareValues over two encoded cells (of one summary or of two).
int CompareCells(KeyClass ca, uint64_t wa, std::string_view pool_a,
                 KeyClass cb, uint64_t wb, std::string_view pool_b) {
  // CompareValues' cross-class ranks: numbers, then strings, then missing.
  auto rank = [](KeyClass cls) {
    return cls == KeyClass::kString ? 1 : (cls == KeyClass::kMissing ? 2 : 0);
  };
  const int ra = rank(ca), rb = rank(cb);
  if (ra != rb) return ra < rb ? -1 : 1;
  if (ra == 2) return 0;
  if (ra == 1) {
    return ThreeWay(StringAt(pool_a, wa).compare(StringAt(pool_b, wb)), 0);
  }
  if (ca == cb) return ThreeWay(wa, wb);
  // An int against a double compares as doubles, as CompareValues does.
  return ThreeWay(NumberAt(ca, wa), NumberAt(cb, wb));
}

/// Compares items of two summaries under the sketch's order. Each column's
/// mode is bound once per merge: a column whose cells share one numeric
/// class on both sides compares words; any other compares cell by cell.
class ItemComparator {
 public:
  ItemComparator(const RecordOrder& order, const QuantileResult& a,
                 const QuantileResult& b)
      : pool_a_(a.pool), pool_b_(b.pool) {
    const auto& orientations = order.orientations();
    const size_t m = std::min(
        {orientations.size(), a.columns.size(), b.columns.size()});
    for (size_t c = 0; c < m; ++c) {
      const QuantileColumn& x = a.columns[c];
      const QuantileColumn& y = b.columns[c];
      const bool words = x.classes.empty() && y.classes.empty() &&
                         x.kind == y.kind && x.kind != KeyClass::kString;
      columns_.push_back({x.words.data(), y.words.data(), &x, &y, words,
                          orientations[c].ascending});
    }
  }

  /// Three-way comparison of a's item i against b's item j.
  int Compare(uint32_t i, uint32_t j) const {
    for (const BoundColumn& col : columns_) {
      const uint64_t wa = col.a_words[i];
      const uint64_t wb = col.b_words[j];
      const int c = col.words ? ThreeWay(wa, wb)
                              : CompareCells(col.a->ClassAt(i), wa, pool_a_,
                                             col.b->ClassAt(j), wb, pool_b_);
      if (c != 0) return col.ascending ? c : -c;
    }
    return 0;
  }

 private:
  struct BoundColumn {
    const uint64_t* a_words;
    const uint64_t* b_words;
    const QuantileColumn* a;
    const QuantileColumn* b;
    bool words;  // one numeric class on both sides: compare words
    bool ascending;
  };
  std::string_view pool_a_;
  std::string_view pool_b_;
  std::vector<BoundColumn> columns_;
};

/// Appends a string to a summary's pool and returns its word.
uint64_t AppendString(std::string* pool, std::string_view s) {
  const uint64_t word = uint64_t{pool->size()} << 32 | s.size();
  pool->append(s);
  return word;
}

/// The canonical column: per-cell classes only while the cells hold two
/// classes or more.
void DropUniformClasses(QuantileColumn* column) {
  auto& classes = column->classes;
  if (classes.empty()) return;
  if (std::all_of(classes.begin(), classes.end(),
                  [&](KeyClass cls) { return cls == classes.front(); })) {
    column->kind = classes.front();
    classes.clear();
  }
}

/// Gathers one order column's cells for `rows`, in order, straight from the
/// table column's arrays; a column the table lacks reads as all missing.
void GatherTableColumn(const IColumn* col, const std::vector<uint32_t>& rows,
                       QuantileColumn* column, std::string* pool) {
  column->kind = KeyClass::kMissing;
  column->words.assign(rows.size(), 0);
  if (col == nullptr) return;
  column->classes.assign(rows.size(), KeyClass::kMissing);
  // Each layout fills the present cells; missing ones keep (kMissing, 0).
  auto fill = [&](KeyClass cls, auto present, auto word) {
    column->kind = cls;  // the class of an empty column
    for (size_t k = 0; k < rows.size(); ++k) {
      if (!present(rows[k])) continue;
      column->classes[k] = cls;
      column->words[k] = word(rows[k]);
    }
  };
  const NullMask& nulls = col->null_mask();
  auto not_null = [&nulls](uint32_t row) { return !nulls.IsMissing(row); };
  switch (col->kind()) {
    case DataKind::kInt:
      fill(KeyClass::kInt, not_null, [v = col->RawInt()](uint32_t row) {
        return EncodeI64(v[row]);
      });
      break;
    case DataKind::kDate:
      fill(KeyClass::kInt, not_null, [v = col->RawDate()](uint32_t row) {
        return EncodeI64(v[row]);
      });
      break;
    case DataKind::kDouble: {
      const double* v = col->RawDouble();
      // NaN is missing (a mapped file's mask may not fold it).
      fill(
          KeyClass::kDouble,
          [&](uint32_t row) { return not_null(row) && !std::isnan(v[row]); },
          [v](uint32_t row) { return EncodeF64(v[row]); });
      break;
    }
    case DataKind::kString:
    case DataKind::kCategory: {
      const uint32_t* codes = col->RawCodes();
      const StringDictionary& dict = col->Dictionary();
      // Any code past the dictionary is missing, as StringColumn reads it.
      fill(
          KeyClass::kString,
          [&](uint32_t row) { return codes[row] < dict.size(); },
          [&](uint32_t row) { return AppendString(pool, dict[codes[row]]); });
      break;
    }
  }
  DropUniformClasses(column);
}

/// Gathers `(*out)[k] = from[k] < na ? a[from[k]] : b[from[k] - na]`, the
/// merged order applied to one array of each side, without a branch per item
/// (a merge interleaves its sides unpredictably).
template <typename T>
void GatherBySide(const T* a, const T* b, size_t na,
                  const std::vector<uint32_t>& from, std::vector<T>* out) {
  const T* sides[2] = {a, b};
  out->resize(from.size());
  for (size_t k = 0; k < from.size(); ++k) {
    const size_t right = from[k] >= na;
    (*out)[k] = sides[right][from[k] - right * na];
  }
}

/// Gathers column `c` of a merge through `from`, the merged order as indices
/// into the concatenation of a's and b's items.
void GatherMergedColumn(const QuantileResult& a, const QuantileResult& b,
                        size_t c, const std::vector<uint32_t>& from,
                        QuantileResult* out) {
  const QuantileColumn& x = a.columns[c];
  const QuantileColumn& y = b.columns[c];
  QuantileColumn& column = out->columns[c];
  const size_t na = a.size();
  GatherBySide(x.words.data(), y.words.data(), na, from, &column.words);
  column.kind = x.kind;
  if (x.classes.empty() && y.classes.empty() && x.kind == y.kind) {
    if (x.kind != KeyClass::kString) return;  // words move as they are
  } else {
    // A uniform side's classes, spelled out per cell for the gather.
    std::vector<KeyClass> x_classes, y_classes;
    if (x.classes.empty()) x_classes.assign(na, x.kind);
    if (y.classes.empty()) y_classes.assign(b.size(), y.kind);
    GatherBySide(x.classes.empty() ? x_classes.data() : x.classes.data(),
                 y.classes.empty() ? y_classes.data() : y.classes.data(), na,
                 from, &column.classes);
    DropUniformClasses(&column);
  }
  if (column.classes.empty() && column.kind != KeyClass::kString) return;
  // String cells move their bytes into the merged summary's pool.
  for (size_t k = 0; k < from.size(); ++k) {
    if (column.ClassAt(k) != KeyClass::kString) continue;
    const std::string& pool = from[k] < na ? a.pool : b.pool;
    column.words[k] =
        AppendString(&out->pool, StringAt(pool, column.words[k]));
  }
}

Status InvalidQuantile(const char* what) {
  return Status::InvalidArgument(std::string("QuantileResult: ") + what);
}

/// Cell guards for the wire format: every word must be one that Summarize
/// and Merge could have produced, so merges and KeyAtQuantile never read
/// outside the pool and word order stays value order.
Status ValidateCells(const QuantileColumn& column, size_t pool_size) {
  for (size_t i = 0; i < column.words.size(); ++i) {
    const uint64_t word = column.words[i];
    switch (column.ClassAt(i)) {
      case KeyClass::kInt:
        break;
      case KeyClass::kDouble: {
        // NaN is missing, and -0.0 travels as +0.0.
        const double d = DecodeF64(word);
        if (std::isnan(d) || EncodeF64(d) != word) {
          return InvalidQuantile("double word is NaN or not canonical");
        }
        break;
      }
      case KeyClass::kString:
        if ((word >> 32) + (word & 0xFFFFFFFFu) > pool_size) {
          return InvalidQuantile("string view outside the pool");
        }
        break;
      case KeyClass::kMissing:
        if (word != 0) return InvalidQuantile("missing cell with a word");
        break;
      default:
        return InvalidQuantile("unknown cell class");
    }
  }
  return Status::OK();
}

/// True for the columns whose words ship through the codec's word form:
/// ints and dates, whose sorted or clustered values cost a byte or two as
/// runs or deltas. Doubles, strings, missing cells and mixed columns ship
/// raw words.
bool CodedWords(const QuantileColumn& column) {
  return column.classes.empty() && column.kind == KeyClass::kInt;
}

/// Scalar guards for the wire format: a byzantine worker must not smuggle
/// NaN/out-of-range scalars into the root's merge state, where they would
/// poison every later query.
Status ValidateScalars(const QuantileResult& q) {
  if (std::isnan(q.rate) || q.rate <= 0.0 || q.rate > 1.0) {
    return InvalidQuantile("rate out of (0, 1]");
  }
  if (q.max_size < 0) return InvalidQuantile("negative max_size");
  // Same cap rationale as the weights: a legitimate ledger sums compacted
  // level weights, orders of magnitude below 2^44, while uncapped hostile
  // values would wrap KllErrorLedger::Add at a later merge hop and zero
  // the reported error bound.
  if (q.error.worst > (uint64_t{1} << kMaxWeightExponent)) {
    return InvalidQuantile("error ledger over cap");
  }
  if (std::isnan(q.error.variance) || std::isinf(q.error.variance) ||
      q.error.variance < 0.0) {
    return InvalidQuantile("error variance out of range");
  }
  return Status::OK();
}

}  // namespace

uint64_t QuantileResult::TotalWeight() const {
  return std::accumulate(weights.begin(), weights.end(), uint64_t{0});
}

Value QuantileResult::Cell(size_t column, size_t item) const {
  const QuantileColumn& col = columns[column];
  const uint64_t word = col.words[item];
  switch (col.ClassAt(item)) {
    case KeyClass::kInt:
      return DecodeI64(word);
    case KeyClass::kDouble:
      return DecodeF64(word);
    case KeyClass::kString:
      return std::string(StringAt(pool, word));
    case KeyClass::kMissing:
      break;
  }
  return std::monostate{};
}

std::vector<Value> QuantileResult::Key(size_t item) const {
  std::vector<Value> key;
  key.reserve(columns.size());
  for (size_t c = 0; c < columns.size(); ++c) key.push_back(Cell(c, item));
  return key;
}

std::optional<std::vector<Value>> QuantileResult::KeyAtQuantile(
    double q) const {
  size_t idx = KllSelectIndex(weights, q);
  if (idx == static_cast<size_t>(-1)) return std::nullopt;
  return Key(idx);
}

double QuantileResult::RankErrorBound() const {
  return KllRankErrorBound(error, TotalWeight());
}

void QuantileResult::Serialize(ByteWriter* w) const {
  w->WriteU32(kQuantileWireMagic);
  w->WriteU32(static_cast<uint32_t>(size()));
  w->WriteU32(static_cast<uint32_t>(columns.size()));
  // Fresh partition summaries are all unit weight; eliding the weight array
  // then keeps their wire cost to the keys alone (the simulated cluster
  // charges these bytes as root bandwidth). A summary without columns ships
  // its weights regardless, so every item costs at least one byte.
  const bool unit =
      !columns.empty() &&
      std::all_of(weights.begin(), weights.end(),
                  [](uint64_t weight) { return weight == 1; });
  w->WriteBool(!unit);
  w->WriteString(pool);
  for (const QuantileColumn& column : columns) {
    if (column.classes.empty()) {
      w->WriteU8(static_cast<uint8_t>(column.kind));
    } else {
      // Sorted items keep a column's missing cells together, so its classes
      // come in few runs.
      w->WriteU8(kPerCellClassesTag);
      std::vector<uint64_t> classes(column.classes.size());
      std::transform(column.classes.begin(), column.classes.end(),
                     classes.begin(),
                     [](KeyClass cls) { return static_cast<uint64_t>(cls); });
      w->WriteWords(classes);
    }
    if (CodedWords(column)) {
      w->WriteWords(column.words);
    } else {
      w->WritePodVector(column.words);
    }
  }
  if (!unit) {
    // Weights are powers of two by construction (unit at birth, doubled by
    // compaction, unchanged by rate thinning), so one exponent byte per
    // item suffices.
    for (uint64_t weight : weights) {
      w->WriteU8(static_cast<uint8_t>(std::bit_width(weight) - 1));
    }
  }
  w->WriteDouble(rate);
  w->WriteI32(max_size);
  w->WriteU64(seed);
  w->WriteU64(error.worst);
  w->WriteDouble(error.variance);
}

Status QuantileResult::Deserialize(ByteReader* r, QuantileResult* out) {
  uint32_t magic = 0;
  HV_RETURN_IF_ERROR(r->ReadU32(&magic));
  if (magic != kQuantileWireMagic) return InvalidQuantile("bad magic word");
  *out = QuantileResult{};

  uint32_t n = 0;
  HV_RETURN_IF_ERROR(r->ReadU32(&n));
  uint32_t m = 0;
  // A column costs at least its tag and a word array's length.
  HV_RETURN_IF_ERROR(r->ReadCount(&m, /*min_element_bytes=*/3));
  bool has_weights = false;
  HV_RETURN_IF_ERROR(r->ReadBool(&has_weights));
  // A coded column may spend no byte on an item: its length draws on the
  // reader's word budget. Items need a column or a weight to travel in, and
  // each weight costs an exponent byte.
  if (n > 0 && ((m == 0 && !has_weights) ||
                (has_weights && n > r->Remaining()))) {
    return Status::OutOfRange("truncated serialized message");
  }
  HV_RETURN_IF_ERROR(r->ReadString(&out->pool));
  out->columns.resize(m);
  std::vector<uint64_t> classes;
  for (QuantileColumn& column : out->columns) {
    uint8_t tag = 0;
    HV_RETURN_IF_ERROR(r->ReadU8(&tag));
    if (tag > kPerCellClassesTag) return InvalidQuantile("unknown column tag");
    if (tag == kPerCellClassesTag) {
      HV_RETURN_IF_ERROR(r->ReadWords(&classes));
      if (classes.size() != n) {
        return InvalidQuantile("class array length differs from item count");
      }
      column.classes.resize(n);
      for (size_t i = 0; i < n; ++i) {
        if (classes[i] > static_cast<uint64_t>(KeyClass::kMissing)) {
          return InvalidQuantile("unknown cell class");
        }
        column.classes[i] = static_cast<KeyClass>(classes[i]);
      }
    } else {
      column.kind = static_cast<KeyClass>(tag);
    }
    if (CodedWords(column)) {
      HV_RETURN_IF_ERROR(r->ReadWords(&column.words));
    } else {
      // A raw word array costs 8 bytes an item.
      if (n > r->Remaining() / sizeof(uint64_t)) {
        return Status::OutOfRange("truncated serialized message");
      }
      HV_RETURN_IF_ERROR(r->ReadPodVector(&column.words));
    }
    if (column.words.size() != n) {
      return InvalidQuantile("column length differs from item count");
    }
    HV_RETURN_IF_ERROR(ValidateCells(column, out->pool.size()));
  }
  if (has_weights) {
    if (r->Remaining() < n) {
      return Status::OutOfRange("truncated serialized message");
    }
    out->weights.resize(n);
    uint64_t total = 0;
    for (auto& weight : out->weights) {
      uint8_t exponent = 0;
      HV_RETURN_IF_ERROR(r->ReadU8(&exponent));
      if (exponent > kMaxWeightExponent) {
        return InvalidQuantile("weight exponent over cap");
      }
      weight = uint64_t{1} << exponent;
      total += weight;
      if (total > (uint64_t{1} << kMaxWeightExponent)) {
        return InvalidQuantile("total weight over cap");
      }
    }
  } else {
    out->weights.assign(n, 1);
  }
  HV_RETURN_IF_ERROR(r->ReadDouble(&out->rate));
  HV_RETURN_IF_ERROR(r->ReadI32(&out->max_size));
  HV_RETURN_IF_ERROR(r->ReadU64(&out->seed));
  HV_RETURN_IF_ERROR(r->ReadU64(&out->error.worst));
  HV_RETURN_IF_ERROR(r->ReadDouble(&out->error.variance));
  return ValidateScalars(*out);
}

std::string QuantileSketch::name() const {
  std::string n = "quantile(";
  for (const auto& o : order_.orientations()) {
    n += o.column;
    n += o.ascending ? "+" : "-";
  }
  n += ',';
  n += std::to_string(rate_);
  // The budget shapes the summary (Summarize compacts past it), so it must
  // disambiguate the computation-cache / redo-log key.
  n += ',';
  n += std::to_string(max_size_);
  n += ')';
  return n;
}

QuantileResult QuantileSketch::Summarize(const Table& table, uint64_t seed,
                                         const SketchContext& context) const {
  QuantileResult result;
  result.rate = rate_;
  result.max_size = max_size_;
  result.seed = MixSeed(seed, kSummarySeedStream);

  std::vector<uint32_t> rows;
  ScanRows(*table.members(), rate_, seed,
           [&](uint32_t row) { rows.push_back(row); });

  // A low-rate scroll-bar sample of a huge partition sorts faster through
  // the virtual comparator than it could ever amortize a cold key build;
  // keys resident in the worker's sort-key cache are free (KeyedPlan).
  if (std::optional<SortKeyPlan> plan =
          KeyedPlan(context.key_cache, table, order_, rows.size())) {
    // Devirtualized path: sort (normalized key, row) pairs — a plain
    // integer sort when the key order is total; ties (multi-column orders,
    // inexact packed components) fall back to the virtual comparator within
    // equal-key runs.
    KeyComparator cmp(table, *plan);
    std::vector<std::pair<uint64_t, uint32_t>> keyed;
    keyed.reserve(rows.size());
    for (uint32_t row : rows) keyed.emplace_back(cmp.Key(row), row);
    if (plan->TotalOrder()) {
      std::sort(keyed.begin(), keyed.end());
    } else {
      std::sort(keyed.begin(), keyed.end(),
                [&](const std::pair<uint64_t, uint32_t>& a,
                    const std::pair<uint64_t, uint32_t>& b) {
                  if (a.first != b.first) return a.first < b.first;
                  return cmp.Less(a.second, b.second);
                });
    }
    for (size_t i = 0; i < keyed.size(); ++i) rows[i] = keyed[i].second;
  } else {
    RowComparator comparator(table, order_);
    std::sort(rows.begin(), rows.end(),
              [&](uint32_t a, uint32_t b) { return comparator.Less(a, b); });
  }

  result.weights.assign(rows.size(), 1);
  // A single oversized partition compacts the same way a merge would (the
  // old code let Summarize exceed the cap and only decimated on merge).
  if (max_size_ > 0 && static_cast<int>(rows.size()) > max_size_) {
    Random coin(CoinSeed(result, kCompactStream));
    std::vector<uint32_t> kept;
    KllCompactToBudget(&result.weights, max_size_, &coin, &result.error,
                       &kept);
    KllApplyKept(&rows, kept);
  }

  const auto& orientations = order_.orientations();
  result.columns.resize(orientations.size());
  for (size_t c = 0; c < orientations.size(); ++c) {
    ColumnPtr col = table.GetColumnOrNull(orientations[c].column);
    GatherTableColumn(col.get(), rows, &result.columns[c], &result.pool);
  }
  return result;
}

QuantileResult QuantileSketch::Merge(const QuantileResult& left,
                                     const QuantileResult& right) const {
  if (left.IsZero()) return right;
  if (right.IsZero()) return left;
  QuantileResult out;
  out.max_size = std::max(left.max_size, right.max_size);
  out.seed = left.seed ^ right.seed;
  out.error = left.error;
  out.error.Add(right.error);
  // Partitions sampled at unequal rates cannot be concatenated as-is: every
  // retained key of the denser side represents fewer underlying rows, so
  // the old `rate = max(...)` over-represented that side and biased every
  // quantile toward it. Reconcile on the *common* (minimum) rate instead,
  // Bernoulli-thinning the denser side's items down to it — for unit-weight
  // items this is exactly a sample at the common rate. The coin is seeded
  // from the thinned side's own seed, so Merge stays commutative.
  out.rate = std::min(left.rate, right.rate);
  auto kept_items = [&](const QuantileResult& side) {
    std::vector<uint32_t> kept;
    if (side.rate <= out.rate) {  // already at the common rate
      kept.resize(side.size());
      std::iota(kept.begin(), kept.end(), 0);
    } else {
      Random coin(CoinSeed(side, kSubsampleStream));
      KllSubsampleIndices(side.size(), out.rate / side.rate, &coin, &kept);
    }
    return kept;
  };

  // Plan the merged order over item indices, gather the weights, compact
  // them, and only then gather each column through the surviving indices.
  ItemComparator cmp(order_, left, right);
  std::vector<uint32_t> from;
  KllMergeOrder(
      kept_items(left), kept_items(right),
      static_cast<uint32_t>(left.size()),
      [&cmp](uint32_t i, uint32_t j) { return cmp.Compare(i, j) > 0; },
      &from);
  GatherBySide(left.weights.data(), right.weights.data(), left.size(), from,
               &out.weights);
  if (out.max_size > 0 && static_cast<int>(from.size()) > out.max_size) {
    Random coin(CoinSeed(out, kCompactStream));
    std::vector<uint32_t> kept;
    KllCompactToBudget(&out.weights, out.max_size, &coin, &out.error, &kept);
    KllApplyKept(&from, kept);
  }

  out.columns.resize(std::min(left.columns.size(), right.columns.size()));
  for (size_t c = 0; c < out.columns.size(); ++c) {
    GatherMergedColumn(left, right, c, from, &out);
  }
  return out;
}

}  // namespace hillview
