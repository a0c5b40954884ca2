#include "sketch/quantile.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>

#include "storage/scan.h"
#include "storage/sort_key.h"
#include "storage/sort_key_cache.h"

namespace hillview {

namespace {

/// First word of every quantile payload; a buffer that does not start with
/// it is rejected before any of its counts is trusted.
constexpr uint32_t kQuantileWireMagic = 0x4B4C4C31;  // "1LLK" little-endian

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
  uint64_t content =
      r.TotalWeight() ^ (static_cast<uint64_t>(r.keys.size()) << 32);
  return MixSeed(MixSeed(r.seed, content), stream);
}

Status InvalidQuantile(const char* what) {
  return Status::InvalidArgument(std::string("QuantileResult: ") + what);
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
  uint64_t total = 0;
  for (uint64_t w : weights) total += w;
  return total;
}

const std::vector<Value>* QuantileResult::KeyAtQuantile(double q) const {
  size_t idx = KllSelectIndex(weights, q);
  if (idx == static_cast<size_t>(-1)) return nullptr;
  return &keys[idx];
}

double QuantileResult::RankErrorBound() const {
  return KllRankErrorBound(error, TotalWeight());
}

void QuantileResult::Serialize(ByteWriter* w) const {
  w->WriteU32(kQuantileWireMagic);
  w->WriteU32(static_cast<uint32_t>(keys.size()));
  // Fresh partition summaries are all unit weight; eliding the weight array
  // then keeps their wire cost to the keys alone (the simulated cluster
  // charges these bytes as root bandwidth).
  bool unit = true;
  for (uint64_t weight : weights) {
    if (weight != 1) {
      unit = false;
      break;
    }
  }
  w->WriteBool(!unit);
  for (const auto& key : keys) {
    w->WriteU32(static_cast<uint32_t>(key.size()));
    for (const auto& v : key) SerializeValue(v, w);
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

  uint32_t n = 0;
  HV_RETURN_IF_ERROR(r->ReadCount(&n, /*min_element_bytes=*/4));
  bool has_weights = false;
  HV_RETURN_IF_ERROR(r->ReadBool(&has_weights));
  out->keys.resize(n);
  for (auto& key : out->keys) {
    uint32_t m = 0;
    HV_RETURN_IF_ERROR(r->ReadCount(&m, /*min_element_bytes=*/1));
    key.resize(m);
    for (auto& v : key) HV_RETURN_IF_ERROR(DeserializeValue(r, &v));
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

int CompareQuantileKeys(const RecordOrder& order, const std::vector<Value>& a,
                        const std::vector<Value>& b) {
  const auto& orientations = order.orientations();
  for (size_t i = 0; i < orientations.size() && i < a.size() && i < b.size();
       ++i) {
    int c = CompareValues(a[i], b[i]);
    if (c != 0) return orientations[i].ascending ? c : -c;
  }
  return 0;
}

int QuantileSketch::CompareKeys(const std::vector<Value>& a,
                                const std::vector<Value>& b) const {
  return CompareQuantileKeys(order_, a, b);
}

QuantileResult QuantileSketch::Summarize(const Table& table, uint64_t seed,
                                         const SketchContext& context) const {
  QuantileResult result;
  result.rate = rate_;
  result.max_size = max_size_;
  result.seed = MixSeed(seed, kSummarySeedStream);
  std::vector<std::string> names = order_.ColumnNames();

  std::vector<uint32_t> sampled;
  ScanRows(*table.members(), rate_, seed,
           [&](uint32_t row) { sampled.push_back(row); });

  // The keyed sort pays an O(universe) key-materialization pass up front, so
  // a cold build only wins when the sample is a sizable fraction of the
  // universe (KeyedScanProfitable); a low-rate scroll-bar sample of a huge
  // partition sorts faster through the virtual comparator than it could
  // ever amortize full key extraction. Keys already resident in the
  // worker's sort-key cache are free, so a cache hit always sorts keyed.
  // With neither a cache nor a profitable build, skip even planning: its
  // encoding pre-passes read O(universe) on narrow-column orders.
  bool sorted_keyed = false;
  SortKeyCache* cache = context.key_cache ? context.key_cache() : nullptr;
  const bool profitable =
      KeyedScanProfitable(sampled.size(), table.universe_size());
  if (cache != nullptr || profitable) {
    SortKeyPlan plan(table, order_, SortKeyPlan::kDeferKeys);
    SortKeyPlan::KeysPtr keys =
        GetOrBuildKeys(cache, plan, /*build_allowed=*/profitable);
    if (keys != nullptr) {
      plan.AdoptKeys(std::move(keys));
      // Devirtualized path: sort (normalized key, row) pairs — a plain
      // integer sort when the key order is total; ties (multi-column
      // orders, inexact packed components) fall back to the virtual
      // comparator within equal-key runs.
      KeyComparator cmp(table, plan);
      std::vector<std::pair<uint64_t, uint32_t>> keyed;
      keyed.reserve(sampled.size());
      for (uint32_t row : sampled) keyed.emplace_back(cmp.Key(row), row);
      if (plan.TotalOrder()) {
        std::sort(keyed.begin(), keyed.end());
      } else {
        std::sort(keyed.begin(), keyed.end(),
                  [&](const std::pair<uint64_t, uint32_t>& a,
                      const std::pair<uint64_t, uint32_t>& b) {
                    if (a.first != b.first) return a.first < b.first;
                    return cmp.Less(a.second, b.second);
                  });
      }
      result.keys.reserve(keyed.size());
      for (const auto& kr : keyed) {
        result.keys.push_back(table.GetRow(kr.second, names));
      }
      sorted_keyed = true;
    }
  }

  if (!sorted_keyed) {
    RowComparator comparator(table, order_);
    std::sort(sampled.begin(), sampled.end(),
              [&](uint32_t a, uint32_t b) { return comparator.Less(a, b); });
    result.keys.reserve(sampled.size());
    for (uint32_t row : sampled) {
      result.keys.push_back(table.GetRow(row, names));
    }
  }

  result.weights.assign(result.keys.size(), 1);
  // A single oversized partition compacts the same way a merge would (the
  // old code let Summarize exceed the cap and only decimated on merge).
  if (max_size_ > 0 && static_cast<int>(result.keys.size()) > max_size_) {
    Random coin(CoinSeed(result, kCompactStream));
    std::vector<uint32_t> kept;
    KllCompactToBudget(&result.weights, max_size_, &coin, &result.error,
                       &kept);
    KllApplyKept(&result.keys, kept);
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
  QuantileResult thin_store;
  auto thinned = [&](const QuantileResult& side) -> const QuantileResult& {
    if (side.rate <= out.rate) return side;  // already at the common rate
    Random coin(CoinSeed(side, kSubsampleStream));
    std::vector<uint32_t> kept;
    KllSubsampleIndices(side.keys.size(), out.rate / side.rate, &coin, &kept);
    thin_store.keys.reserve(kept.size());
    thin_store.weights.reserve(kept.size());
    for (uint32_t i : kept) {
      thin_store.keys.push_back(side.keys[i]);
      thin_store.weights.push_back(side.weights[i]);
    }
    return thin_store;
  };
  // At most one side is denser than the common (minimum) rate, so a single
  // backing store suffices.
  const QuantileResult& a = thinned(left);
  const QuantileResult& b = thinned(right);

  KllMergeSorted(a.keys, a.weights, b.keys, b.weights, &out.keys,
                 &out.weights,
                 [this](const std::vector<Value>& x,
                        const std::vector<Value>& y) {
                   return CompareKeys(x, y) < 0;
                 });

  if (out.max_size > 0 &&
      static_cast<int>(out.keys.size()) > out.max_size) {
    Random coin(CoinSeed(out, kCompactStream));
    std::vector<uint32_t> kept;
    KllCompactToBudget(&out.weights, out.max_size, &coin, &out.error, &kept);
    KllApplyKept(&out.keys, kept);
  }
  return out;
}

}  // namespace hillview
