// Randomized property suite: every sketch must *distribute* — summarizing
// one partition must equal merging summaries of any shard split, in any
// merge order, across a serialize → deserialize round trip (the §4.1
// contract: Summarize(D1 ⊎ D2) == Merge(Summarize(D1), Summarize(D2)), with
// Zero() as identity and commutative Merge). These are the invariants the
// whole cluster rests on: partials arrive from workers in arbitrary order
// and cross a (simulated) wire before merging.
//
// Each case draws a random mixed-kind table (nulls, NaN, ±inf, duplicate
// and tie-heavy values), a random shard split, and a randomized sketch
// configuration (orders, directions, start keys, bucket geometry). Failures
// shrink the row set greedily and report the minimal failing case with its
// seed, so reproduction is one seed away.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <functional>
#include <limits>
#include <numeric>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "sketch/find_text.h"
#include "sketch/heavy_hitters.h"
#include "sketch/morsel.h"
#include "sketch/histogram.h"
#include "sketch/histogram2d.h"
#include "sketch/hyperloglog.h"
#include "sketch/next_items.h"
#include "sketch/pca.h"
#include "sketch/quantile.h"
#include "sketch/range_moments.h"
#include "sketch/string_quantiles.h"
#include "storage/membership.h"
#include "storage/table.h"
#include "test_util.h"
#include "util/random.h"
#include "util/serialize.h"
#include "util/thread_pool.h"

namespace hillview {
namespace {

// ---------------------------------------------------------------------------
// Random data: five columns covering every DataKind, with missing values,
// NaN/±inf doubles, and deliberately tie-heavy distributions.

struct TestData {
  std::vector<std::optional<int32_t>> i;
  std::vector<std::optional<double>> d;
  std::vector<std::optional<int64_t>> t;
  std::vector<std::optional<std::string>> s;
  std::vector<std::optional<std::string>> c;

  size_t n() const { return i.size(); }
};

TestData MakeData(size_t n, Random& rng) {
  TestData data;
  data.i.reserve(n);
  data.d.reserve(n);
  data.t.reserve(n);
  data.s.reserve(n);
  data.c.reserve(n);
  for (size_t r = 0; r < n; ++r) {
    data.i.push_back(rng.NextUint64(10) == 0
                         ? std::nullopt
                         : std::optional<int32_t>(static_cast<int32_t>(
                               rng.NextUint64(101)) - 50));
    // Doubles: ~8% missing, ~6% NaN (missing under the central policy),
    // ~2% ±inf, and integer-rounded values ~40% of the time to force ties.
    uint64_t roll = rng.NextUint64(100);
    if (roll < 8) {
      data.d.push_back(std::nullopt);
    } else if (roll < 14) {
      data.d.push_back(std::numeric_limits<double>::quiet_NaN());
    } else if (roll < 16) {
      data.d.push_back(roll % 2 == 0
                           ? std::numeric_limits<double>::infinity()
                           : -std::numeric_limits<double>::infinity());
    } else {
      double v = (rng.NextDouble() - 0.5) * 200.0;
      if (roll < 56) v = std::floor(v);
      if (v == 0.0) v = 0.0;  // never materialize -0.0 in source data
      data.d.push_back(v);
    }
    data.t.push_back(rng.NextUint64(10) == 0
                         ? std::nullopt
                         : std::optional<int64_t>(
                               1'500'000'000'000LL +
                               static_cast<int64_t>(rng.NextUint64(1000)) *
                                   86'400'000LL));
    data.s.push_back(rng.NextUint64(8) == 0
                         ? std::nullopt
                         : std::optional<std::string>(
                               "w" + std::to_string(rng.NextUint64(30))));
    data.c.push_back(
        rng.NextUint64(20) == 0
            ? std::nullopt
            : std::optional<std::string>(
                  std::string(1, static_cast<char>('A' + rng.NextUint64(8)))));
  }
  return data;
}

TablePtr BuildTable(const TestData& data, const std::vector<uint32_t>& rows) {
  ColumnBuilder bi(DataKind::kInt);
  ColumnBuilder bd(DataKind::kDouble);
  ColumnBuilder bt(DataKind::kDate);
  ColumnBuilder bs(DataKind::kString);
  ColumnBuilder bc(DataKind::kCategory);
  for (uint32_t r : rows) {
    if (data.i[r]) bi.AppendInt(*data.i[r]); else bi.AppendMissing();
    if (data.d[r]) bd.AppendDouble(*data.d[r]); else bd.AppendMissing();
    if (data.t[r]) bt.AppendDate(*data.t[r]); else bt.AppendMissing();
    if (data.s[r]) bs.AppendString(*data.s[r]); else bs.AppendMissing();
    if (data.c[r]) bc.AppendString(*data.c[r]); else bc.AppendMissing();
  }
  return Table::Create(Schema({{"i", DataKind::kInt},
                               {"d", DataKind::kDouble},
                               {"t", DataKind::kDate},
                               {"s", DataKind::kString},
                               {"c", DataKind::kCategory}}),
                       {bi.Finish(), bd.Finish(), bt.Finish(), bs.Finish(),
                        bc.Finish()});
}

// ---------------------------------------------------------------------------
// Equality helpers. Exact for counting summaries; floating-point sums
// (moments, correlation accumulators) tolerate re-association error.

bool ApproxEq(double a, double b) {
  if (a == b) return true;  // also covers ±inf, which the tolerance cannot
  // ±inf data legitimately drives accumulators to NaN (inf + -inf); two NaN
  // accumulators are the same summary.
  if (std::isnan(a) && std::isnan(b)) return true;
  return std::abs(a - b) <= 1e-9 * (1.0 + std::abs(a) + std::abs(b));
}

#define EQ_FIELD(f)                                             \
  do {                                                          \
    if (!(a.f == b.f)) {                                        \
      *why = #f " differs";                                     \
      return false;                                             \
    }                                                           \
  } while (false)

#define EQ_APPROX_VEC(f)                                        \
  do {                                                          \
    if (a.f.size() != b.f.size()) {                             \
      *why = #f " size differs";                                \
      return false;                                             \
    }                                                           \
    for (size_t z = 0; z < a.f.size(); ++z) {                   \
      if (!ApproxEq(a.f[z], b.f[z])) {                          \
        *why = #f " differs at " + std::to_string(z);           \
        return false;                                           \
      }                                                         \
    }                                                           \
  } while (false)

bool EqHistogram(const HistogramResult& a, const HistogramResult& b,
                 std::string* why) {
  EQ_FIELD(counts);
  EQ_FIELD(missing);
  EQ_FIELD(out_of_range);
  EQ_FIELD(rows_scanned);
  EQ_FIELD(sample_rate);
  return true;
}

bool EqHistogram2D(const Histogram2DResult& a, const Histogram2DResult& b,
                   std::string* why) {
  EQ_FIELD(x_buckets);
  EQ_FIELD(y_buckets);
  EQ_FIELD(xy);
  EQ_FIELD(x_counts);
  EQ_FIELD(missing_x);
  EQ_FIELD(missing_y);
  EQ_FIELD(out_of_range);
  EQ_FIELD(rows_scanned);
  EQ_FIELD(sample_rate);
  return true;
}

bool EqTrellis(const TrellisResult& a, const TrellisResult& b,
               std::string* why) {
  EQ_FIELD(missing_w);
  EQ_FIELD(out_of_range_w);
  if (a.groups.size() != b.groups.size()) {
    *why = "groups size differs";
    return false;
  }
  for (size_t g = 0; g < a.groups.size(); ++g) {
    if (!EqHistogram2D(a.groups[g], b.groups[g], why)) {
      *why = "group " + std::to_string(g) + ": " + *why;
      return false;
    }
  }
  return true;
}

bool EqHeavyHitters(const HeavyHittersResult& a, const HeavyHittersResult& b,
                    std::string* why) {
  EQ_FIELD(rows_counted);
  EQ_FIELD(missing);
  EQ_FIELD(sample_rate);
  EQ_FIELD(max_size);
  // Item order is representation detail; compare as value -> count maps
  // (distinct values render to distinct strings for our test data).
  auto as_map = [](const HeavyHittersResult& r) {
    std::vector<std::pair<std::string, int64_t>> m;
    for (const auto& item : r.items) {
      m.emplace_back(ValueToString(item.value), item.count);
    }
    std::sort(m.begin(), m.end());
    return m;
  };
  if (as_map(a) != as_map(b)) {
    *why = "items differ";
    return false;
  }
  return true;
}

bool EqHll(const HllResult& a, const HllResult& b, std::string* why) {
  EQ_FIELD(registers);
  EQ_FIELD(missing);
  return true;
}

bool EqKeyLists(const std::vector<std::vector<Value>>& a,
                const std::vector<std::vector<Value>>& b, std::string* why) {
  if (a.size() != b.size()) {
    *why = "key count differs (" + std::to_string(a.size()) + " vs " +
           std::to_string(b.size()) + ")";
    return false;
  }
  for (size_t z = 0; z < a.size(); ++z) {
    if (a[z] != b[z]) {
      *why = "key " + std::to_string(z) + " differs";
      return false;
    }
  }
  return true;
}

/// Every item's key of a quantile summary, materialized.
std::vector<std::vector<Value>> QuantileKeys(const QuantileResult& r) {
  std::vector<std::vector<Value>> keys;
  keys.reserve(r.size());
  for (size_t i = 0; i < r.size(); ++i) keys.push_back(r.Key(i));
  return keys;
}

bool EqQuantile(const QuantileResult& a, const QuantileResult& b,
                std::string* why) {
  EQ_FIELD(rate);
  EQ_FIELD(max_size);
  EQ_FIELD(weights);
  return EqKeyLists(QuantileKeys(a), QuantileKeys(b), why);
}

bool EqBottomK(const BottomKResult& a, const BottomKResult& b,
               std::string* why) {
  EQ_FIELD(items);
  EQ_FIELD(k);
  EQ_FIELD(complete);
  return true;
}

bool EqRange(const RangeResult& a, const RangeResult& b, std::string* why) {
  EQ_FIELD(present_count);
  EQ_FIELD(missing_count);
  EQ_FIELD(is_string);
  EQ_FIELD(is_integral);
  EQ_FIELD(min_string);
  EQ_FIELD(max_string);
  if (a.present_count > 0 && !a.is_string) {
    if (!(a.min == b.min) || !(a.max == b.max)) {
      *why = "min/max differ";
      return false;
    }
  }
  EQ_APPROX_VEC(moments);
  return true;
}

/// Next-items invariance covers the key (sort-order) cells and the duplicate
/// counts. Display cells of a duplicate group come from *some* member of the
/// group — the whole scan keeps the globally first row, a merge keeps the
/// left partial's representative — so they are intentionally excluded (see
/// the RowSnapshot contract in sketch/next_items.h).
bool EqNextItemsKeyed(const NextItemsResult& a, const NextItemsResult& b,
                      int num_key_columns, std::string* why) {
  if (a.rows_before != b.rows_before) {
    *why = "rows_before differs";
    return false;
  }
  if (a.rows.size() != b.rows.size()) {
    *why = "row count differs (" + std::to_string(a.rows.size()) + " vs " +
           std::to_string(b.rows.size()) + ")";
    return false;
  }
  for (size_t z = 0; z < a.rows.size(); ++z) {
    const auto& va = a.rows[z].values;
    const auto& vb = b.rows[z].values;
    size_t keys = std::min<size_t>(num_key_columns, va.size());
    if (va.size() != vb.size() ||
        !std::equal(va.begin(), va.begin() + keys, vb.begin())) {
      *why = "row " + std::to_string(z) + " key values differ";
      return false;
    }
    if (a.rows[z].count != b.rows[z].count) {
      *why = "row " + std::to_string(z) + " count differs (" +
             std::to_string(a.rows[z].count) + " vs " +
             std::to_string(b.rows[z].count) + ")";
      return false;
    }
  }
  return true;
}

bool EqFind(const FindResult& a, const FindResult& b, std::string* why) {
  EQ_FIELD(match_count);
  EQ_FIELD(matches_before);
  EQ_FIELD(first_match);
  return true;
}

bool EqCorrelation(const CorrelationResult& a, const CorrelationResult& b,
                   std::string* why) {
  EQ_FIELD(m);
  EQ_FIELD(count);
  EQ_FIELD(skipped);
  EQ_APPROX_VEC(sums);
  EQ_APPROX_VEC(products);
  return true;
}

#undef EQ_FIELD
#undef EQ_APPROX_VEC

// ---------------------------------------------------------------------------
// The harness: whole ≡ in-order merge ≡ shuffled/right-associated merge ≡
// wire round-tripped merge, for one (data, split, sketch) case.

template <typename R, typename EqFn>
std::optional<std::string> CheckOnce(const Sketch<R>& sketch,
                                     const TestData& data,
                                     const std::vector<uint32_t>& active,
                                     const std::vector<int>& label, int k,
                                     uint64_t seed, const EqFn& eq) {
  TablePtr whole = BuildTable(data, active);
  R whole_sum = sketch.Summarize(*whole, MixSeed(seed, 0xA11));

  std::vector<R> partials;
  partials.reserve(k);
  for (int p = 0; p < k; ++p) {
    std::vector<uint32_t> rows;
    for (uint32_t r : active) {
      if (label[r] == p) rows.push_back(r);
    }
    partials.push_back(
        sketch.Summarize(*BuildTable(data, rows), MixSeed(seed, p)));
  }

  std::string why;
  R merged = sketch.Zero();
  for (const auto& p : partials) merged = sketch.Merge(merged, p);
  if (!eq(whole_sum, merged, &why)) {
    return "whole != in-order merge: " + why;
  }

  // Shuffled AND right-folded with swapped operands: exercises
  // commutativity and a different association than the in-order fold.
  std::vector<int> perm(k);
  std::iota(perm.begin(), perm.end(), 0);
  Random shuffle_rng(MixSeed(seed, 0x5F0));
  for (int z = k - 1; z > 0; --z) {
    std::swap(perm[z], perm[shuffle_rng.NextUint64(z + 1)]);
  }
  R shuffled = sketch.Zero();
  for (int idx : perm) shuffled = sketch.Merge(partials[idx], shuffled);
  if (!eq(whole_sum, shuffled, &why)) {
    return "whole != shuffled merge: " + why;
  }

  // Wire round trip: each partial must survive Serialize → Deserialize
  // exactly (this is what workers actually send).
  R wire = sketch.Zero();
  for (const auto& p : partials) {
    ByteWriter w;
    p.Serialize(&w);
    std::vector<uint8_t> bytes = w.Take();
    ByteReader r(bytes);
    R decoded;
    Status st = R::Deserialize(&r, &decoded);
    if (!st.ok()) return "deserialize failed: " + st.ToString();
    if (!r.AtEnd()) return "deserialize left trailing bytes";
    wire = sketch.Merge(wire, decoded);
  }
  if (!eq(whole_sum, wire, &why)) {
    return "whole != wire-round-trip merge: " + why;
  }
  return std::nullopt;
}

/// Greedy half-removal shrink: keeps the original split labels of the
/// surviving rows, so the shrunk case is a genuine sub-case of the failure.
template <typename Fails>
std::vector<uint32_t> Shrink(std::vector<uint32_t> active,
                             const Fails& fails) {
  bool progress = true;
  while (progress && active.size() > 1) {
    progress = false;
    size_t half = active.size() / 2;
    std::vector<uint32_t> first(active.begin(), active.begin() + half);
    std::vector<uint32_t> second(active.begin() + half, active.end());
    if (fails(second)) {
      active = std::move(second);
      progress = true;
    } else if (fails(first)) {
      active = std::move(first);
      progress = true;
    }
  }
  return active;
}

template <typename R, typename EqFn>
void RunProperty(
    const char* name, int cases,
    const std::function<SketchPtr<R>(const TestData&, const TablePtr&,
                                     Random&)>& make_sketch,
    const EqFn& eq) {
  const uint64_t name_hash = HashBytes(name, std::strlen(name), 0x9E37);
  for (int c = 0; c < cases; ++c) {
    const uint64_t seed = MixSeed(name_hash, static_cast<uint64_t>(c));
    Random rng(seed);
    const size_t n = 40 + rng.NextUint64(360);
    TestData data = MakeData(n, rng);
    const int k = 1 + static_cast<int>(rng.NextUint64(5));
    std::vector<int> label(n);
    for (auto& l : label) l = static_cast<int>(rng.NextUint64(k));
    std::vector<uint32_t> active(n);
    std::iota(active.begin(), active.end(), 0);

    TablePtr whole = BuildTable(data, active);
    SketchPtr<R> sketch = make_sketch(data, whole, rng);

    auto msg = CheckOnce(*sketch, data, active, label, k, seed, eq);
    if (!msg.has_value()) continue;

    auto fails = [&](const std::vector<uint32_t>& rows) {
      return CheckOnce(*sketch, data, rows, label, k, seed, eq).has_value();
    };
    std::vector<uint32_t> minimal = Shrink(active, fails);
    auto min_msg = CheckOnce(*sketch, data, minimal, label, k, seed, eq);
    std::ostringstream rows_str;
    for (size_t z = 0; z < minimal.size() && z < 16; ++z) {
      rows_str << (z ? "," : "") << minimal[z];
    }
    FAIL() << name << " case " << c << " (seed 0x" << std::hex << seed
           << std::dec << ", n=" << n << ", splits=" << k << "): "
           << *msg << "\n  shrunk to " << minimal.size()
           << " rows [" << rows_str.str() << "]: "
           << (min_msg.has_value() ? *min_msg : *msg);
  }
}

// ---------------------------------------------------------------------------
// Random sketch configuration helpers.

/// Buckets for the category column "c" (values "A".."H") by *string
/// boundaries*, the way the spreadsheet's bucket planner does it. Bucketing
/// a string column by dictionary code would not distribute: codes are
/// partition-local (each shard builds its own dictionary).
Buckets CategoryBuckets(int num_buckets, Random& rng) {
  int stride = std::max<int>(1, 8 / num_buckets);
  std::vector<std::string> bounds;
  char first = static_cast<char>('A' + rng.NextUint64(2));
  for (int z = 0; z < num_buckets; ++z) {
    char b = static_cast<char>(first + stride * z);
    if (b > 'H') break;
    bounds.push_back(std::string(1, b));
  }
  return Buckets(StringBuckets(std::move(bounds), "H", /*has_max=*/true));
}

RecordOrder RandomOrder(Random& rng) {
  static const char* kCols[] = {"i", "d", "t", "s", "c"};
  int num = 1 + static_cast<int>(rng.NextUint64(2));
  std::vector<ColumnSortOrientation> orientations;
  uint64_t first = rng.NextUint64(5);
  orientations.push_back({kCols[first], rng.NextUint64(2) == 0});
  if (num == 2) {
    uint64_t second = (first + 1 + rng.NextUint64(4)) % 5;
    orientations.push_back({kCols[second], rng.NextUint64(2) == 0});
  }
  return RecordOrder(std::move(orientations));
}

std::optional<std::vector<Value>> MaybeStartKey(const RecordOrder& order,
                                                const TablePtr& whole,
                                                Random& rng) {
  if (rng.NextUint64(2) == 0) return std::nullopt;
  uint32_t row = static_cast<uint32_t>(rng.NextUint64(whole->num_rows()));
  return whole->GetRow(row, order.ColumnNames());
}

// ---------------------------------------------------------------------------
// One TEST per sketch family, ≥100 randomized (sketch, split, seed) cases
// each.

constexpr int kCases = 100;

TEST(SketchProperty, StreamingHistogramDistributes) {
  RunProperty<HistogramResult>(
      "streaming-histogram", kCases,
      [](const TestData&, const TablePtr&, Random& rng) {
        double lo = -120.0 + rng.NextDouble() * 60.0;
        double hi = lo + 20.0 + rng.NextDouble() * 180.0;
        int buckets = 1 + static_cast<int>(rng.NextUint64(9));
        return std::make_shared<StreamingHistogramSketch>(
            "d", Buckets(NumericBuckets(lo, hi, buckets)));
      },
      EqHistogram);
}

TEST(SketchProperty, SampledHistogramAtFullRateDistributes) {
  RunProperty<HistogramResult>(
      "sampled-histogram", kCases,
      [](const TestData&, const TablePtr&, Random& rng) {
        int buckets = 1 + static_cast<int>(rng.NextUint64(9));
        return std::make_shared<SampledHistogramSketch>(
            "i", Buckets(NumericBuckets(-55, 55, buckets)), /*rate=*/1.0);
      },
      EqHistogram);
}

TEST(SketchProperty, Histogram2DDistributes) {
  RunProperty<Histogram2DResult>(
      "histogram2d", kCases,
      [](const TestData&, const TablePtr&, Random& rng) {
        int xb = 1 + static_cast<int>(rng.NextUint64(7));
        int yb = 1 + static_cast<int>(rng.NextUint64(4));
        return std::make_shared<Histogram2DSketch>(
            "i", Buckets(NumericBuckets(-55, 55, xb)), "c",
            CategoryBuckets(yb, rng));
      },
      EqHistogram2D);
}

TEST(SketchProperty, TrellisDistributes) {
  RunProperty<TrellisResult>(
      "trellis", kCases,
      [](const TestData&, const TablePtr&, Random& rng) {
        int wb = 1 + static_cast<int>(rng.NextUint64(4));
        return std::make_shared<TrellisSketch>(
            "c", CategoryBuckets(wb, rng), "i",
            Buckets(NumericBuckets(-55, 55, 5)), "d",
            Buckets(NumericBuckets(-110, 110, 4)));
      },
      EqTrellis);
}

TEST(SketchProperty, MisraGriesDistributesInExactRegime) {
  // With K well above the distinct-value count Misra-Gries never evicts, so
  // counts are exact and split invariance must hold exactly.
  RunProperty<HeavyHittersResult>(
      "misra-gries", kCases,
      [](const TestData&, const TablePtr&, Random&) {
        return std::make_shared<MisraGriesSketch>("c", 32);
      },
      EqHeavyHitters);
}

TEST(SketchProperty, SampledHeavyHittersAtFullRateDistributes) {
  RunProperty<HeavyHittersResult>(
      "sampled-heavy-hitters", kCases,
      [](const TestData&, const TablePtr&, Random&) {
        return std::make_shared<SampledHeavyHittersSketch>("c", 16,
                                                           /*rate=*/1.0);
      },
      EqHeavyHitters);
}

TEST(SketchProperty, HyperLogLogDistributes) {
  RunProperty<HllResult>(
      "hyperloglog", kCases,
      [](const TestData&, const TablePtr&, Random& rng) {
        int precision = 6 + static_cast<int>(rng.NextUint64(5));
        return std::make_shared<HyperLogLogSketch>("s", precision);
      },
      EqHll);
}

TEST(SketchProperty, QuantileDistributes) {
  RunProperty<QuantileResult>(
      "quantile", kCases,
      [](const TestData&, const TablePtr&, Random& rng) {
        return std::make_shared<QuantileSketch>(RandomOrder(rng),
                                                /*rate=*/1.0,
                                                /*max_size=*/1 << 20);
      },
      EqQuantile);
}

// ---------------------------------------------------------------------------
// Statistical two-sample bounds for sampled / compacting quantile summaries.
// Exact equality only holds while nothing randomizes; once rate < 1 (the
// whole-table reference samples under a different seed than the partials)
// and the KLL budget forces compaction (randomized parities, merge-tree
// dependent), the right contract is distributional: the weighted empirical
// CDFs must agree within a KS-style two-sample bound plus each summary's own
// compaction error ledger.

/// Fraction of a summary's total weight (its materialized `keys` with their
/// `weights`) strictly below `key`, ranked by CompareKeyCells, the
/// reference order the sketch's column-wise compares must reproduce.
double WeightedFractionBelow(const std::vector<std::vector<Value>>& keys,
                             const std::vector<uint64_t>& weights,
                             const RecordOrder& order,
                             const std::vector<Value>& key) {
  uint64_t below = 0, total = 0;
  for (size_t i = 0; i < keys.size(); ++i) {
    total += weights[i];
    if (CompareKeyCells(order, keys[i], key) < 0) below += weights[i];
  }
  return total == 0 ? 0.0 : static_cast<double>(below) / total;
}

/// Max rank distance between the two weighted empirical CDFs, evaluated at
/// every retained key of either summary (where the sup is attained).
double QuantileRankDistance(const QuantileResult& a, const QuantileResult& b,
                            const RecordOrder& order) {
  const std::vector<std::vector<Value>> a_keys = QuantileKeys(a);
  const std::vector<std::vector<Value>> b_keys = QuantileKeys(b);
  auto distance_at = [&](const std::vector<Value>& key) {
    return std::abs(WeightedFractionBelow(a_keys, a.weights, order, key) -
                    WeightedFractionBelow(b_keys, b.weights, order, key));
  };
  double d = 0;
  for (const auto& key : a_keys) d = std::max(d, distance_at(key));
  for (const auto& key : b_keys) d = std::max(d, distance_at(key));
  return d;
}

/// The acceptance threshold: a two-sample KS term over the effective sample
/// sizes (total weights), both summaries' compaction error bounds, and a
/// granularity term (a weight-w item quantizes the CDF in steps of w/W).
double QuantileRankBound(const QuantileResult& a, const QuantileResult& b) {
  auto granularity = [](const QuantileResult& r) {
    uint64_t max_w = 0;
    for (uint64_t w : r.weights) max_w = std::max(max_w, w);
    uint64_t total = r.TotalWeight();
    return total == 0 ? 0.0 : static_cast<double>(max_w) / total;
  };
  double wa = std::max<uint64_t>(1, a.TotalWeight());
  double wb = std::max<uint64_t>(1, b.TotalWeight());
  double ks = 3.0 * std::sqrt(0.5 * (1.0 / wa + 1.0 / wb));
  return ks + a.RankErrorBound() + b.RankErrorBound() + granularity(a) +
         granularity(b);
}

bool QuantileWithinRankBound(const QuantileResult& a, const QuantileResult& b,
                             const RecordOrder& order, std::string* why) {
  double d = QuantileRankDistance(a, b, order);
  double bound = QuantileRankBound(a, b);
  if (d <= bound) return true;
  *why = "rank distance " + std::to_string(d) + " exceeds bound " +
         std::to_string(bound);
  return false;
}

TEST(SketchPropertyStatistical, SampledQuantileMergesWithinRankBound) {
  constexpr int kStatCases = 20;
  const uint64_t name_hash = HashBytes("stat-quantile", 13, 0x9E37);
  for (int c = 0; c < kStatCases; ++c) {
    const uint64_t seed = MixSeed(name_hash, static_cast<uint64_t>(c));
    Random rng(seed);
    const size_t n = 2500 + rng.NextUint64(2500);
    TestData data = MakeData(n, rng);
    const int k = 2 + static_cast<int>(rng.NextUint64(4));
    std::vector<int> label(n);
    for (auto& l : label) l = static_cast<int>(rng.NextUint64(k));
    std::vector<uint32_t> active(n);
    std::iota(active.begin(), active.end(), 0);
    TablePtr whole = BuildTable(data, active);

    RecordOrder order = RandomOrder(rng);
    const double rate = 0.25 + 0.5 * rng.NextDouble();
    const int budget = 128 + static_cast<int>(rng.NextUint64(128));
    QuantileSketch sketch(order, rate, budget);

    QuantileResult whole_sum = sketch.Summarize(*whole, MixSeed(seed, 0xA11));
    std::vector<QuantileResult> partials;
    uint64_t partial_weight = 0;
    for (int p = 0; p < k; ++p) {
      std::vector<uint32_t> rows;
      for (uint32_t r : active) {
        if (label[r] == p) rows.push_back(r);
      }
      partials.push_back(
          sketch.Summarize(*BuildTable(data, rows), MixSeed(seed, p)));
      partial_weight += partials.back().TotalWeight();
    }

    QuantileResult merged = sketch.Zero();
    for (const auto& p : partials) merged = sketch.Merge(merged, p);
    // Compaction redistributes weight but never loses it (equal rates, so
    // no subsample fires): the merge-tree shape cannot shrink the sample.
    ASSERT_EQ(merged.TotalWeight(), partial_weight) << "case " << c;
    ASSERT_LE(merged.size(), static_cast<size_t>(budget)) << "case " << c;

    std::vector<int> perm(k);
    std::iota(perm.begin(), perm.end(), 0);
    Random shuffle_rng(MixSeed(seed, 0x5F0));
    for (int z = k - 1; z > 0; --z) {
      std::swap(perm[z], perm[shuffle_rng.NextUint64(z + 1)]);
    }
    QuantileResult shuffled = sketch.Zero();
    for (int idx : perm) shuffled = sketch.Merge(partials[idx], shuffled);

    // The wire fold replays the in-order merge tree; seeds and error
    // ledgers round-trip, so the compaction coins are identical and the
    // result must be *exactly* the in-order merge — this is what lets a
    // heal re-run a crashed tree deterministically.
    QuantileResult wire = sketch.Zero();
    for (const auto& p : partials) {
      ByteWriter w;
      p.Serialize(&w);
      std::vector<uint8_t> bytes = w.Take();
      ByteReader r(bytes);
      QuantileResult decoded;
      ASSERT_TRUE(QuantileResult::Deserialize(&r, &decoded).ok())
          << "case " << c;
      ASSERT_TRUE(r.AtEnd()) << "case " << c;
      wire = sketch.Merge(wire, decoded);
    }
    std::string why;
    ASSERT_TRUE(EqQuantile(merged, wire, &why))
        << "case " << c << " (seed 0x" << std::hex << seed << std::dec
        << "): wire round trip broke merge determinism: " << why;

    // Associativity in distribution: a different merge tree over the SAME
    // partials differs only by compaction randomness, so the tight bound
    // (no sampling term between them beyond the ledgers) must hold; the
    // whole-table reference adds its independent sampling noise on top.
    ASSERT_TRUE(QuantileWithinRankBound(merged, shuffled, order, &why))
        << "case " << c << " (seed 0x" << std::hex << seed << std::dec
        << ", n=" << n << ", k=" << k << ", rate=" << rate
        << ", budget=" << budget << "): in-order vs shuffled: " << why;
    ASSERT_TRUE(QuantileWithinRankBound(whole_sum, merged, order, &why))
        << "case " << c << " (seed 0x" << std::hex << seed << std::dec
        << ", n=" << n << ", k=" << k << ", rate=" << rate
        << ", budget=" << budget << "): whole vs merged: " << why;
    ASSERT_TRUE(QuantileWithinRankBound(whole_sum, shuffled, order, &why))
        << "case " << c << " (seed 0x" << std::hex << seed << std::dec
        << ", n=" << n << ", k=" << k << ", rate=" << rate
        << ", budget=" << budget << "): whole vs shuffled: " << why;
  }
}

TEST(SketchProperty, BottomKStringsDistributes) {
  RunProperty<BottomKResult>(
      "bottomk-strings", kCases,
      [](const TestData&, const TablePtr&, Random& rng) {
        // k small enough that truncation (and the complete flag) engage.
        int k = 4 + static_cast<int>(rng.NextUint64(24));
        return std::make_shared<BottomKStringsSketch>("s", k);
      },
      EqBottomK);
}

TEST(SketchProperty, RangeMomentsDistributes) {
  RunProperty<RangeResult>(
      "range-moments", kCases,
      [](const TestData&, const TablePtr&, Random& rng) {
        static const char* kCols[] = {"d", "i", "s"};
        int moments = 1 + static_cast<int>(rng.NextUint64(4));
        return std::make_shared<RangeSketch>(kCols[rng.NextUint64(3)],
                                             moments);
      },
      EqRange);
}

TEST(SketchProperty, NextItemsDistributes) {
  // The factory records each case's key-column count for the equality
  // check (display cells of merged duplicate groups are representative-
  // dependent and excluded — see EqNextItemsKeyed).
  auto key_columns = std::make_shared<int>(0);
  RunProperty<NextItemsResult>(
      "next-items", kCases,
      [key_columns](const TestData&, const TablePtr& whole, Random& rng) {
        RecordOrder order = RandomOrder(rng);
        *key_columns = static_cast<int>(order.orientations().size());
        auto start = MaybeStartKey(order, whole, rng);
        int k = 1 + static_cast<int>(rng.NextUint64(15));
        return std::make_shared<NextItemsSketch>(
            order, std::vector<std::string>{"c"}, std::move(start), k);
      },
      [key_columns](const NextItemsResult& a, const NextItemsResult& b,
                    std::string* why) {
        return EqNextItemsKeyed(a, b, *key_columns, why);
      });
}

TEST(SketchProperty, FindTextDistributes) {
  RunProperty<FindResult>(
      "find-text", kCases,
      [](const TestData&, const TablePtr& whole, Random& rng) {
        RecordOrder order = RandomOrder(rng);
        StringFilter filter;
        switch (rng.NextUint64(3)) {
          case 0:
            filter.mode = StringFilter::Mode::kSubstring;
            filter.text = "w" + std::to_string(rng.NextUint64(3));
            break;
          case 1:
            filter.mode = StringFilter::Mode::kExact;
            filter.text = "w" + std::to_string(rng.NextUint64(30));
            break;
          default:
            filter.mode = StringFilter::Mode::kRegex;
            filter.text = "^w[0-" + std::to_string(1 + rng.NextUint64(8)) +
                          "]$";
            break;
        }
        filter.case_sensitive = rng.NextUint64(2) == 0;
        auto start = MaybeStartKey(order, whole, rng);
        return std::make_shared<FindTextSketch>(
            order, std::vector<std::string>{"s", "c"}, filter,
            std::move(start));
      },
      EqFind);
}

TEST(SketchProperty, CorrelationDistributes) {
  RunProperty<CorrelationResult>(
      "correlation", kCases,
      [](const TestData&, const TablePtr&, Random&) {
        return std::make_shared<CorrelationSketch>(
            std::vector<std::string>{"i", "d"}, /*rate=*/1.0);
      },
      EqCorrelation);
}

// ---------------------------------------------------------------------------
// Cluster-path properties: the distribution law must hold end to end through
// the simulated cluster — random worker counts and partition splits, a
// worker restart landing mid-stream (i.e. between the workers' sort-key
// cache fill and its reuse), and lineage healing must all reproduce the
// 1-partition result. Deterministic sketch families compare exactly;
// sampled/compacting ones pass a statistical `eq` (the KS-style rank bound
// above) and scale `rows_base`/`rows_spread` up so the bound is meaningful.

template <typename R, typename EqFn>
void RunClusterProperty(
    const char* name, int cases,
    const std::function<SketchPtr<R>(const TestData&, const TablePtr&,
                                     Random&)>& make_sketch,
    const EqFn& eq, size_t rows_base = 60, size_t rows_spread = 240) {
  const uint64_t name_hash = HashBytes(name, std::strlen(name), 0xC1A5);
  for (int c = 0; c < cases; ++c) {
    const uint64_t seed = MixSeed(name_hash, static_cast<uint64_t>(c));
    Random rng(seed);
    const size_t n = rows_base + rng.NextUint64(rows_spread);
    TestData data = MakeData(n, rng);
    const int parts = 1 + static_cast<int>(rng.NextUint64(6));
    std::vector<int> label(n);
    for (auto& l : label) l = static_cast<int>(rng.NextUint64(parts));
    std::vector<uint32_t> active(n);
    std::iota(active.begin(), active.end(), 0);
    TablePtr whole = BuildTable(data, active);

    std::vector<TablePtr> partitions;
    for (int p = 0; p < parts; ++p) {
      std::vector<uint32_t> rows;
      for (uint32_t r : active) {
        if (label[r] == p) rows.push_back(r);
      }
      partitions.push_back(BuildTable(data, rows));
    }
    const int workers = 1 + static_cast<int>(rng.NextUint64(4));
    const int threads = 1 + static_cast<int>(rng.NextUint64(2));
    auto tc = testing::TestCluster::Create(partitions, workers, threads);
    ASSERT_NE(tc, nullptr);

    SketchPtr<R> sketch = make_sketch(data, whole, rng);
    R expected = sketch->Summarize(*whole, MixSeed(seed, 0xA11));
    std::string why;

    auto first = tc->root->RunSketch<R>("data", sketch);
    if (!first.ok() || !eq(expected, first.value(), &why)) {
      FAIL() << name << " case " << c << " (seed 0x" << std::hex << seed
             << std::dec << ", n=" << n << ", parts=" << parts
             << ", workers=" << workers << "): cluster != whole: "
             << (first.ok() ? why : first.status().ToString());
    }

    // Crash a worker from inside the partial-result stream: the restart
    // lands between the sort-key cache fill (first run) and its intended
    // reuse, dropping that worker's datasets and key cache mid-merge. The
    // stream may complete or fail with Unavailable; either way the healing
    // path must reproduce the reference afterwards.
    const int victim = static_cast<int>(rng.NextUint64(workers));
    auto stream = tc->root->RunSketchStream<R>("data", sketch);
    std::atomic<bool> restarted{false};
    stream->Subscribe([&](const PartialResult<R>&) {
      if (!restarted.exchange(true)) tc->root->RestartWorker(victim);
    });
    (void)stream->BlockingLast();
    EXPECT_TRUE(restarted.load());
    EXPECT_GE(tc->workers[victim]->restart_count(), 1);

    auto healed = tc->root->RunSketch<R>("data", sketch);
    if (!healed.ok() || !eq(expected, healed.value(), &why)) {
      FAIL() << name << " case " << c << " (seed 0x" << std::hex << seed
             << std::dec << ", n=" << n << ", parts=" << parts
             << ", workers=" << workers
             << "): post-restart cluster != whole: "
             << (healed.ok() ? why : healed.status().ToString());
    }
  }
}

constexpr int kClusterCases = 12;

TEST(SketchPropertyCluster, NextItemsMatchesSinglePartitionAcrossRestarts) {
  auto key_columns = std::make_shared<int>(0);
  RunClusterProperty<NextItemsResult>(
      "cluster-next-items", kClusterCases,
      [key_columns](const TestData&, const TablePtr& whole, Random& rng) {
        RecordOrder order = RandomOrder(rng);
        *key_columns = static_cast<int>(order.orientations().size());
        auto start = MaybeStartKey(order, whole, rng);
        int k = 1 + static_cast<int>(rng.NextUint64(15));
        return std::make_shared<NextItemsSketch>(
            order, std::vector<std::string>{"c"}, std::move(start), k);
      },
      [key_columns](const NextItemsResult& a, const NextItemsResult& b,
                    std::string* why) {
        return EqNextItemsKeyed(a, b, *key_columns, why);
      });
}

TEST(SketchPropertyCluster, QuantileMatchesSinglePartitionAcrossRestarts) {
  RunClusterProperty<QuantileResult>(
      "cluster-quantile", kClusterCases,
      [](const TestData&, const TablePtr&, Random& rng) {
        return std::make_shared<QuantileSketch>(RandomOrder(rng),
                                                /*rate=*/1.0,
                                                /*max_size=*/1 << 20);
      },
      EqQuantile);
}

TEST(SketchPropertyCluster, SampledQuantileHealsWithinRankBound) {
  // The crash/heal path for a *compacting, sampled* quantile summary:
  // cluster partials sample under engine-mixed seeds and the merge tree over
  // the wire is whatever order partials arrive in, so the reference
  // comparison is the statistical rank bound, not exact equality. The
  // restart mid-stream then exercises lineage healing with randomized
  // compaction in play.
  auto order_holder = std::make_shared<RecordOrder>();
  RunClusterProperty<QuantileResult>(
      "cluster-quantile-sampled", 6,
      [order_holder](const TestData&, const TablePtr&, Random& rng) {
        *order_holder = RandomOrder(rng);
        return std::make_shared<QuantileSketch>(*order_holder, /*rate=*/0.5,
                                                /*max_size=*/160);
      },
      [order_holder](const QuantileResult& a, const QuantileResult& b,
                     std::string* why) {
        return QuantileWithinRankBound(a, b, *order_holder, why);
      },
      /*rows_base=*/2400, /*rows_spread=*/1600);
}

TEST(SketchPropertyCluster, HistogramMatchesSinglePartitionAcrossRestarts) {
  RunClusterProperty<HistogramResult>(
      "cluster-histogram", kClusterCases,
      [](const TestData&, const TablePtr&, Random& rng) {
        double lo = -120.0 + rng.NextDouble() * 60.0;
        double hi = lo + 20.0 + rng.NextDouble() * 180.0;
        int buckets = 1 + static_cast<int>(rng.NextUint64(9));
        return std::make_shared<StreamingHistogramSketch>(
            "d", Buckets(NumericBuckets(lo, hi, buckets)));
      },
      EqHistogram);
}

// ---------------------------------------------------------------------------
// Morsel byte-identity (sketch/morsel.h): for every sketch family that
// declares MorselMergeExact(), fanning one partition across a pool in
// cache-sized morsels must produce a summary whose *serialized bytes* equal
// the single-thread Summarize — not just semantically equal. Cache keys and
// healed re-runs assume summaries are a pure function of (sketch, table,
// seed); intra-worker parallelism must be invisible to both.

template <typename R>
std::vector<uint8_t> SummaryBytes(const R& summary) {
  ByteWriter w;
  summary.Serialize(&w);
  return w.Take();
}

/// Restores the production morsel threshold even when an assertion bails
/// out of the test early.
struct MorselRowsGuard {
  explicit MorselRowsGuard(uint32_t rows) { SetMorselMinRowsForTest(rows); }
  ~MorselRowsGuard() { SetMorselMinRowsForTest(0); }
};

template <typename R>
void RunMorselByteIdentity(
    const char* name, int cases, bool expect_exact,
    const std::function<SketchPtr<R>(const TestData&, const TablePtr&,
                                     Random&)>& make_sketch) {
  const uint64_t name_hash = HashBytes(name, std::strlen(name), 0x30D5);
  // 64-row morsels against a few-hundred-row table: dozens of morsels, so a
  // broken decomposition or merge order cannot hide. The pool is wider than
  // the morsel count is deep to encourage genuinely interleaved execution.
  MorselRowsGuard guard(/*rows=*/64);
  ThreadPool pool(4);
  SketchContext fanned;
  fanned.aux_pool = &pool;
  for (int c = 0; c < cases; ++c) {
    const uint64_t seed = MixSeed(name_hash, static_cast<uint64_t>(c));
    Random rng(seed);
    const size_t n = 256 + rng.NextUint64(1024);
    TestData data = MakeData(n, rng);
    std::vector<uint32_t> active(n);
    std::iota(active.begin(), active.end(), 0);
    TablePtr whole = BuildTable(data, active);
    SketchPtr<R> sketch = make_sketch(data, whole, rng);
    ASSERT_EQ(sketch->MorselMergeExact(), expect_exact) << name;

    // Full membership: the common leaf shape.
    std::vector<uint8_t> serial =
        SummaryBytes(sketch->Summarize(*whole, seed, {}));
    std::vector<uint8_t> morsel =
        SummaryBytes(SummarizeWithMorsels(*sketch, *whole, seed, fanned));
    ASSERT_EQ(serial, morsel)
        << name << " case " << c << " (seed 0x" << std::hex << seed
        << std::dec << ", n=" << n << "): full-membership morsel summary "
        << "is not byte-identical to single-thread";

    // A filtered leaf: SliceMembership must slice sparse and dense
    // representations identically to the serial scan over the same rows.
    std::vector<uint32_t> kept;
    for (uint32_t r = 0; r < n; ++r) {
      if (rng.NextUint64(3) != 0) kept.push_back(r);
    }
    TablePtr filtered = whole->WithMembership(std::make_shared<SparseMembership>(
        kept, static_cast<uint32_t>(n)));
    std::vector<uint8_t> serial_f =
        SummaryBytes(sketch->Summarize(*filtered, seed, {}));
    std::vector<uint8_t> morsel_f =
        SummaryBytes(SummarizeWithMorsels(*sketch, *filtered, seed, fanned));
    ASSERT_EQ(serial_f, morsel_f)
        << name << " case " << c << " (seed 0x" << std::hex << seed
        << std::dec << ", n=" << n << ", kept=" << kept.size()
        << "): filtered-membership morsel summary differs";
  }
}

constexpr int kMorselCases = 40;

TEST(SketchMorsel, StreamingHistogramByteIdentical) {
  RunMorselByteIdentity<HistogramResult>(
      "morsel-streaming-histogram", kMorselCases, /*expect_exact=*/true,
      [](const TestData&, const TablePtr&, Random& rng) {
        double lo = -120.0 + rng.NextDouble() * 60.0;
        double hi = lo + 20.0 + rng.NextDouble() * 180.0;
        int buckets = 1 + static_cast<int>(rng.NextUint64(9));
        return std::make_shared<StreamingHistogramSketch>(
            "d", Buckets(NumericBuckets(lo, hi, buckets)));
      });
}

TEST(SketchMorsel, SampledHistogramAtFullRateByteIdentical) {
  RunMorselByteIdentity<HistogramResult>(
      "morsel-sampled-histogram", kMorselCases, /*expect_exact=*/true,
      [](const TestData&, const TablePtr&, Random& rng) {
        int buckets = 1 + static_cast<int>(rng.NextUint64(9));
        return std::make_shared<SampledHistogramSketch>(
            "i", Buckets(NumericBuckets(-55, 55, buckets)), /*rate=*/1.0);
      });
}

TEST(SketchMorsel, Histogram2DByteIdentical) {
  RunMorselByteIdentity<Histogram2DResult>(
      "morsel-histogram2d", kMorselCases, /*expect_exact=*/true,
      [](const TestData&, const TablePtr&, Random& rng) {
        int xb = 1 + static_cast<int>(rng.NextUint64(7));
        int yb = 1 + static_cast<int>(rng.NextUint64(4));
        return std::make_shared<Histogram2DSketch>(
            "i", Buckets(NumericBuckets(-55, 55, xb)), "c",
            CategoryBuckets(yb, rng));
      });
}

TEST(SketchMorsel, TrellisByteIdentical) {
  RunMorselByteIdentity<TrellisResult>(
      "morsel-trellis", kMorselCases, /*expect_exact=*/true,
      [](const TestData&, const TablePtr&, Random& rng) {
        int wb = 1 + static_cast<int>(rng.NextUint64(4));
        return std::make_shared<TrellisSketch>(
            "c", CategoryBuckets(wb, rng), "i",
            Buckets(NumericBuckets(-55, 55, 5)), "d",
            Buckets(NumericBuckets(-110, 110, 4)));
      });
}

TEST(SketchMorsel, HyperLogLogByteIdentical) {
  RunMorselByteIdentity<HllResult>(
      "morsel-hyperloglog", kMorselCases, /*expect_exact=*/true,
      [](const TestData&, const TablePtr&, Random& rng) {
        int precision = 6 + static_cast<int>(rng.NextUint64(5));
        return std::make_shared<HyperLogLogSketch>("s", precision);
      });
}

// Sketches that do NOT declare exact morsel merging must fall straight
// through to the plain summarize — same bytes because it IS the same call.
TEST(SketchMorsel, NonExactSketchFallsThrough) {
  RunMorselByteIdentity<QuantileResult>(
      "morsel-quantile-fallthrough", /*cases=*/10, /*expect_exact=*/false,
      [](const TestData&, const TablePtr&, Random& rng) {
        return std::make_shared<QuantileSketch>(RandomOrder(rng),
                                                /*rate=*/1.0,
                                                /*max_size=*/1 << 20);
      });
}

// Sampled sketches below full rate must not fan out: per-morsel sampling
// draws a different row subset than a single whole-partition pass.
TEST(SketchMorsel, SampledBelowFullRateIsNotExact) {
  EXPECT_FALSE(SampledHistogramSketch("i", Buckets(NumericBuckets(-55, 55, 4)),
                                      /*rate=*/0.5)
                   .MorselMergeExact());
  EXPECT_TRUE(SampledHistogramSketch("i", Buckets(NumericBuckets(-55, 55, 4)),
                                     /*rate=*/1.0)
                  .MorselMergeExact());
}

// PlanMorselRanges / SliceMembership unit coverage: 64-aligned ranges that
// tile the universe exactly, and slices that agree with the base set.
TEST(SketchMorsel, PlanMorselRangesTilesUniverse) {
  auto ranges = PlanMorselRanges(/*universe_size=*/1000, /*morsel_rows=*/256);
  ASSERT_EQ(ranges.size(), 4u);
  uint32_t expect_begin = 0;
  for (const auto& r : ranges) {
    EXPECT_EQ(r.first, expect_begin);
    EXPECT_EQ(r.first % 64, 0u);
    EXPECT_LT(r.first, r.second);
    expect_begin = r.second;
  }
  EXPECT_EQ(ranges.back().second, 1000u);
  EXPECT_TRUE(PlanMorselRanges(0, 256).empty());
}

TEST(SketchMorsel, SliceMembershipMatchesBaseAcrossRepresentations) {
  const uint32_t universe = 517;  // deliberately not a multiple of 64
  Random rng(0x511CEu);
  std::vector<uint32_t> sparse_rows;
  std::vector<uint64_t> dense_words((universe + 63) / 64, 0);
  for (uint32_t r = 0; r < universe; ++r) {
    if (rng.NextUint64(3) == 0) sparse_rows.push_back(r);
    if (rng.NextUint64(2) == 0) dense_words[r >> 6] |= 1ULL << (r & 63);
  }
  std::vector<MembershipPtr> bases = {
      std::make_shared<FullMembership>(universe),
      std::make_shared<DenseMembership>(dense_words, universe),
      std::make_shared<SparseMembership>(sparse_rows, universe)};
  for (const auto& base : bases) {
    for (auto [begin, end] : {std::pair<uint32_t, uint32_t>{0, 64},
                              {64, 512}, {448, universe}, {0, universe},
                              {192, 192}}) {
      MembershipPtr slice = SliceMembership(*base, begin, end);
      ASSERT_NE(slice, nullptr);
      EXPECT_EQ(slice->universe_size(), universe);
      std::vector<uint32_t> expect, got;
      ForEachRow(*base, [&](uint32_t r) {
        if (r >= begin && r < end) expect.push_back(r);
      });
      ForEachRow(*slice, [&](uint32_t r) { got.push_back(r); });
      EXPECT_EQ(got, expect) << "slice [" << begin << "," << end << ")";
    }
  }
}

}  // namespace
}  // namespace hillview
