// Wire robustness: every summary's Deserialize must survive hostile bytes.
// Truncation at *every* prefix length must return an error Status (each
// deserializer consumes exactly what Serialize wrote, so a strict prefix can
// never satisfy it), and random bit flips must either parse (as garbage) or
// error — never crash, over-allocate, or trip ASan/UBSan. This is the
// contract the simulated cluster relies on when it injects corruption
// (RemoteDataSet drops undecodable messages) and what keeps a byzantine
// worker from taking down the root.

#include <gtest/gtest.h>

#include <cstring>
#include <functional>
#include <limits>
#include <string>
#include <tuple>
#include <vector>

#include "core/any_sketch.h"
#include "sketch/find_text.h"
#include "sketch/heavy_hitters.h"
#include "sketch/histogram.h"
#include "sketch/histogram2d.h"
#include "sketch/hyperloglog.h"
#include "sketch/next_items.h"
#include "sketch/pca.h"
#include "sketch/quantile.h"
#include "sketch/range_moments.h"
#include "sketch/save_as.h"
#include "sketch/string_quantiles.h"
#include "storage/sort_key.h"
#include "render/plan.h"
#include "util/random.h"
#include "util/serialize.h"
#include "workload/flights.h"

namespace hillview {
namespace {

/// Serializes `value`, checks the full buffer round-trips, then attacks it:
/// every truncation must error; `kFlips` random bit flips must never crash
/// (a flipped buffer may parse OK as garbage — that is acceptable; what is
/// not acceptable is UB, a crash, or a giant allocation from a corrupted
/// count, all of which ASan/UBSan turn into failures).
void AttackBytes(const std::vector<uint8_t>& bytes,
                 const std::function<Status(ByteReader*)>& decode,
                 const char* what) {
  ASSERT_FALSE(bytes.empty()) << what;
  {
    ByteReader r(bytes);
    ASSERT_TRUE(decode(&r).ok()) << what;
    EXPECT_TRUE(r.AtEnd()) << what << ": deserialize left trailing bytes";
  }

  for (size_t len = 0; len < bytes.size(); ++len) {
    ByteReader r(bytes.data(), len);
    EXPECT_FALSE(decode(&r).ok()) << what << " parsed OK truncated to " << len
                                  << " of " << bytes.size() << " bytes";
  }

  constexpr int kFlips = 512;
  Random rng(HashBytes(what, std::strlen(what), 0xF1A9));
  for (int f = 0; f < kFlips; ++f) {
    std::vector<uint8_t> mutated = bytes;
    size_t byte = rng.NextUint64(mutated.size());
    mutated[byte] ^= static_cast<uint8_t>(1u << rng.NextUint64(8));
    // Occasionally flip a second bit (length prefixes are multi-byte).
    if (rng.NextUint64(4) == 0) {
      size_t byte2 = rng.NextUint64(mutated.size());
      mutated[byte2] ^= static_cast<uint8_t>(1u << rng.NextUint64(8));
    }
    ByteReader r(mutated);
    (void)decode(&r);  // must not crash; status may be either
  }
}

template <typename R>
void CheckWire(const R& value, const char* what) {
  ByteWriter w;
  value.Serialize(&w);
  AttackBytes(
      w.Take(),
      [](ByteReader* r) {
        R out;
        return R::Deserialize(r, &out);
      },
      what);
}

// --- The codec's forms (util/serialize.h) ----------------------------------

/// Decodes `bytes` with `read` and returns its status.
Status Decode(const std::vector<uint8_t>& bytes,
              const std::function<Status(ByteReader*)>& read) {
  ByteReader r(bytes);
  return read(&r);
}

Status DecodeVarint(const std::vector<uint8_t>& bytes) {
  return Decode(bytes, [](ByteReader* r) {
    uint64_t v = 0;
    return r->ReadVarint(&v);
  });
}

Status DecodeWords(const std::vector<uint8_t>& bytes) {
  return Decode(bytes, [](ByteReader* r) {
    std::vector<uint64_t> v;
    return r->ReadWords(&v);
  });
}

/// Appends `v` as a LEB128 varint: seven bits a byte, low group first.
void AppendVarint(uint64_t v, std::vector<uint8_t>* bytes) {
  while (v >= 0x80) {
    bytes->push_back(static_cast<uint8_t>(v) | 0x80);
    v >>= 7;
  }
  bytes->push_back(static_cast<uint8_t>(v));
}

/// Raw codec bytes: a form tag followed by varints.
std::vector<uint8_t> Coded(CodedForm form,
                           const std::vector<uint64_t>& varints) {
  std::vector<uint8_t> bytes = {static_cast<uint8_t>(form)};
  for (uint64_t v : varints) AppendVarint(v, &bytes);
  return bytes;
}

void Append(const std::vector<uint8_t>& more, std::vector<uint8_t>* bytes) {
  bytes->insert(bytes->end(), more.begin(), more.end());
}

TEST(WireCodec, VarintsRoundTripAtEveryWidth) {
  for (uint64_t v : {uint64_t{0}, uint64_t{1}, uint64_t{127}, uint64_t{128},
                     uint64_t{16383}, uint64_t{16384}, uint64_t{1} << 32,
                     uint64_t{1} << 63,
                     std::numeric_limits<uint64_t>::max()}) {
    std::vector<uint8_t> bytes;
    AppendVarint(v, &bytes);
    EXPECT_EQ(bytes.size(), VarintSize(v)) << v;
    ByteReader r(bytes);
    uint64_t back = 0;
    ASSERT_TRUE(r.ReadVarint(&back).ok()) << v;
    EXPECT_EQ(back, v);
    EXPECT_TRUE(r.AtEnd());
  }
  EXPECT_EQ(VarintSize(std::numeric_limits<uint64_t>::max()),
            static_cast<size_t>(kMaxVarintBytes));
  for (int64_t v : {std::numeric_limits<int64_t>::min(), int64_t{-1},
                    int64_t{0}, int64_t{1},
                    std::numeric_limits<int64_t>::max()}) {
    EXPECT_EQ(ZigZagDecode(ZigZagEncode(v)), v);
  }
  EXPECT_EQ(ZigZagEncode(-1), 1u);
  EXPECT_EQ(ZigZagEncode(1), 2u);
}

TEST(WireCodec, VarintsRejectOverlongAndOverflowingForms) {
  const std::vector<uint8_t> nines(9, 0xFF);
  auto with = [&](std::vector<uint8_t> tail) {
    std::vector<uint8_t> bytes = nines;
    bytes.insert(bytes.end(), tail.begin(), tail.end());
    return bytes;
  };
  const StatusCode kInvalid = StatusCode::kInvalidArgument;
  EXPECT_EQ(DecodeVarint({0x80, 0x00}).code(), kInvalid) << "zero padded";
  EXPECT_EQ(DecodeVarint({0x81, 0x80, 0x00}).code(), kInvalid)
      << "two zero groups";
  EXPECT_EQ(DecodeVarint(with({0x00})).code(), kInvalid) << "10-byte zero tail";
  EXPECT_EQ(DecodeVarint(with({0x02})).code(), kInvalid) << "bit 64 set";
  EXPECT_EQ(DecodeVarint(with({0x81, 0x00})).code(), kInvalid)
      << "an 11th byte";
  EXPECT_EQ(DecodeVarint({0x80}).code(), StatusCode::kOutOfRange)
      << "truncated";
  EXPECT_TRUE(DecodeVarint(with({0x01})).ok()) << "2^64 - 1";
}

TEST(WireCodec, CountsTravelAsWords) {
  // Histogram and heat-map tallies: a sparse heat map's empty cells
  // collapse into runs of zeros; dense tallies travel as deltas.
  std::vector<int64_t> dense = {5, 0, 3, 12, 300, 1, 70000};
  std::vector<int64_t> sparse(8778, 0);
  for (size_t i = 17; i < sparse.size(); i += 61) sparse[i] = 1 + i % 400;
  const std::vector<int64_t> odd = {-1, std::numeric_limits<int64_t>::min(),
                                    std::numeric_limits<int64_t>::max()};
  for (const auto& [counts, form, what] :
       {std::tuple{dense, CodedForm::kWordDeltas, "dense counts"},
        std::tuple{sparse, CodedForm::kWordRuns, "sparse counts"},
        std::tuple{odd, CodedForm::kWordDeltas, "extreme counts"},
        std::tuple{std::vector<int64_t>{}, CodedForm::kWordDeltas,
                   "no counts"},
        std::tuple{std::vector<int64_t>(50, 0), CodedForm::kWordRuns,
                   "all zero"}}) {
    ByteWriter w;
    w.WriteWords(counts);
    std::vector<uint8_t> bytes = w.Take();
    EXPECT_EQ(bytes[0], static_cast<uint8_t>(form)) << what;
    std::vector<int64_t> back;
    ByteReader r(bytes);
    ASSERT_TRUE(r.ReadWords(&back).ok()) << what;
    EXPECT_EQ(back, counts) << what;
    AttackBytes(
        bytes,
        [](ByteReader* reader) {
          std::vector<int64_t> out;
          return reader->ReadWords(&out);
        },
        what);
  }
}

TEST(WireCodec, LengthsOverTheMessageBudgetAreRejectedBeforeAllocating) {
  const StatusCode kInvalid = StatusCode::kInvalidArgument;
  const uint64_t cap = kMaxMessageWords;
  // A run costs a few bytes whatever its length, so only the budget stands
  // between a declared length and the allocation.
  EXPECT_TRUE(DecodeWords(Coded(CodedForm::kWordRuns, {cap, 1, cap, 8})).ok());
  for (uint64_t n : {cap + 1, uint64_t{1} << 62}) {
    EXPECT_EQ(DecodeWords(Coded(CodedForm::kWordRuns, {n, 1, n, 8})).code(),
              kInvalid)
        << n;
    EXPECT_EQ(DecodeWords(Coded(CodedForm::kWordDeltas, {n, 1})).code(),
              kInvalid)
        << n;
  }
  // The budget spans the message: its vectors share it.
  const std::vector<uint8_t> half =
      Coded(CodedForm::kWordRuns, {cap / 2, 1, cap / 2, 0});
  std::vector<uint8_t> bytes;
  for (int i = 0; i < 3; ++i) Append(half, &bytes);
  Append(Coded(CodedForm::kWordDeltas, {0}), &bytes);
  ByteReader r(bytes);
  std::vector<uint64_t> words;
  ASSERT_TRUE(r.ReadWords(&words).ok());
  ASSERT_TRUE(r.ReadWords(&words).ok());
  EXPECT_EQ(r.ReadWords(&words).code(), kInvalid) << "a third half";
  // Each message gets its own budget.
  EXPECT_TRUE(DecodeWords(half).ok());
}

TEST(WireCodec, WordColumnsPickTheSmallerForm) {
  std::vector<uint64_t> runs;  // a sorted Year-like column: few runs
  for (int64_t year = 1999; year < 2004; ++year) {
    runs.insert(runs.end(), 200, EncodeI64(year));
  }
  std::vector<uint64_t> deltas;  // a sorted column of distinct values
  for (int64_t v = -500; v < 500; v += 3) deltas.push_back(EncodeI64(v));
  const std::vector<uint64_t> wraps = {std::numeric_limits<uint64_t>::max(),
                                       0, uint64_t{1} << 63, 7, 7};
  for (const auto& [words, form, what] :
       {std::tuple{runs, CodedForm::kWordRuns, "word runs"},
        std::tuple{deltas, CodedForm::kWordDeltas, "word deltas"},
        std::tuple{wraps, CodedForm::kWordDeltas, "wrapping deltas"},
        std::tuple{std::vector<uint64_t>{}, CodedForm::kWordDeltas,
                   "no words"}}) {
    ByteWriter w;
    w.WriteWords(words);
    std::vector<uint8_t> bytes = w.Take();
    EXPECT_EQ(bytes[0], static_cast<uint8_t>(form)) << what;
    std::vector<uint64_t> back;
    ByteReader r(bytes);
    ASSERT_TRUE(r.ReadWords(&back).ok()) << what;
    EXPECT_EQ(back, words) << what;
    AttackBytes(
        bytes,
        [](ByteReader* reader) {
          std::vector<uint64_t> out;
          return reader->ReadWords(&out);
        },
        what);
  }
}

TEST(WireCodec, WordRunsMustSumToTheDeclaredLength) {
  const StatusCode kInvalid = StatusCode::kInvalidArgument;
  const CodedForm kRuns = CodedForm::kWordRuns;
  // n, runs, (length, zigzag delta)...
  EXPECT_TRUE(DecodeWords(Coded(kRuns, {4, 2, 3, 2, 1, 4})).ok());
  EXPECT_EQ(DecodeWords(Coded(kRuns, {4, 2, 2, 2, 1, 4})).code(), kInvalid)
      << "runs one short";
  EXPECT_EQ(DecodeWords(Coded(kRuns, {4, 2, 3, 2, 2, 4})).code(), kInvalid)
      << "runs past the end";
  EXPECT_EQ(DecodeWords(Coded(kRuns, {4, 2, 0, 2, 4, 4})).code(), kInvalid)
      << "an empty run";
  EXPECT_EQ(DecodeWords(Coded(kRuns, {1, 2, 1, 2, 1, 4})).code(), kInvalid)
      << "more runs than words";
  // A sparse tally: zeros, one count, zeros.
  EXPECT_TRUE(DecodeWords(Coded(kRuns, {5, 3, 1, 0, 1, 6, 3, 5})).ok());
  EXPECT_EQ(DecodeWords(Coded(kRuns, {5, 3, 1, 0, 1, 6, 2, 5})).code(),
            kInvalid)
      << "sparse runs one short";
  EXPECT_EQ(DecodeWords(Coded(static_cast<CodedForm>(9), {1, 1})).code(),
            kInvalid)
      << "unknown form";
}

TEST(WireRobustness, Histogram2DSparse) {
  // O11's shape: a 133x66 heat map with few nonzero cells, whose empty
  // cells ship as runs of zeros.
  Histogram2DResult g;
  g.x_buckets = 133;
  g.y_buckets = 66;
  g.xy.assign(133 * 66, 0);
  g.x_counts.assign(133, 0);
  for (int i = 0; i < 147; ++i) {
    const int x = (i * 37) % 133;
    const int y = (i * 11) % 66;
    g.xy[static_cast<size_t>(x) * 66 + y] += 1 + i;
    g.x_counts[x] += 1 + i;
  }
  g.rows_scanned = 99999;
  CheckWire(g, "Histogram2DResult(sparse)");
  ByteWriter w;
  g.Serialize(&w);
  EXPECT_LT(w.size(), 1000u);
  ByteReader r(w.bytes());
  Histogram2DResult back;
  ASSERT_TRUE(Histogram2DResult::Deserialize(&r, &back).ok());
  EXPECT_EQ(back.xy, g.xy);
  EXPECT_EQ(back.x_counts, g.x_counts);
}

TEST(WireRobustness, Histogram) {
  HistogramResult h;
  h.counts = {5, 0, 3, 12};
  h.missing = 2;
  h.out_of_range = 1;
  h.rows_scanned = 23;
  h.sample_rate = 0.5;
  CheckWire(h, "HistogramResult");
}

Histogram2DResult MakeGrid() {
  Histogram2DResult g;
  g.x_buckets = 2;
  g.y_buckets = 3;
  g.xy = {1, 0, 4, 2, 2, 0};
  g.x_counts = {6, 4};
  g.missing_x = 1;
  g.missing_y = 2;
  g.out_of_range = 3;
  g.rows_scanned = 16;
  g.sample_rate = 1.0;
  return g;
}

TEST(WireRobustness, Histogram2D) { CheckWire(MakeGrid(), "Histogram2DResult"); }

TEST(WireRobustness, Trellis) {
  TrellisResult t;
  t.groups = {MakeGrid(), MakeGrid()};
  t.missing_w = 4;
  t.out_of_range_w = 1;
  CheckWire(t, "TrellisResult");
}

/// Serializes `value` and decodes it as its own type.
template <typename R>
Status Redecode(const R& value) {
  ByteWriter w;
  value.Serialize(&w);
  ByteReader r(w.bytes());
  R back;
  return R::Deserialize(&r, &back);
}

/// Serializes `value` and decodes it the way the root decodes a worker's
/// summary: for the sketch that asked for it.
template <typename R>
Status RedecodeFor(const std::shared_ptr<const Sketch<R>>& sketch,
                   const R& value) {
  const AnySketch erased = AnySketch::Wrap<R>(sketch);
  return erased.Deserialize(erased.Serialize(AnySummary::Wrap<R>(value)))
      .status();
}

// Merges index the right operand by the left one's lengths, so a count
// vector that does not fit the buckets of the sketch that asked for it is
// refused where the root decodes it. The zero summary always fits.
TEST(WireRobustness, HistogramCountsMustFitTheSketchBuckets) {
  auto sketch = std::make_shared<StreamingHistogramSketch>(
      "x", Buckets(NumericBuckets(0, 8, 8)));
  HistogramResult two;
  two.counts = {1, 2};
  two.rows_scanned = 3;
  EXPECT_TRUE(Redecode(two).ok());  // well-formed on its own
  EXPECT_EQ(RedecodeFor<HistogramResult>(sketch, two).code(),
            StatusCode::kInvalidArgument);
  HistogramResult eight;
  eight.counts.assign(8, 1);
  EXPECT_TRUE(RedecodeFor<HistogramResult>(sketch, eight).ok());
  EXPECT_TRUE(RedecodeFor<HistogramResult>(sketch, HistogramResult{}).ok());
  auto sampled = std::make_shared<SampledHistogramSketch>(
      "x", Buckets(NumericBuckets(0, 8, 8)), 0.5);
  EXPECT_FALSE(RedecodeFor<HistogramResult>(sampled, two).ok());
}

TEST(WireRobustness, Histogram2DCountsMustFitTheirBuckets) {
  ASSERT_TRUE(Redecode(MakeGrid()).ok());
  Histogram2DResult cell_short = MakeGrid();
  cell_short.xy.pop_back();
  EXPECT_EQ(Redecode(cell_short).code(), StatusCode::kInvalidArgument);
  Histogram2DResult bar_short = MakeGrid();
  bar_short.x_counts.pop_back();
  EXPECT_FALSE(Redecode(bar_short).ok());
  Histogram2DResult negative = MakeGrid();
  negative.x_buckets = -2;
  negative.y_buckets = -3;
  EXPECT_FALSE(Redecode(negative).ok());
  Histogram2DResult bars_only;  // zero by its cells, not by its bars
  bars_only.x_buckets = 2;
  bars_only.x_counts = {1, 2};
  EXPECT_FALSE(Redecode(bars_only).ok());
  EXPECT_TRUE(Redecode(Histogram2DResult{}).ok());

  // A well-formed 2x2 grid for a 2x3 sketch.
  auto sketch = std::make_shared<Histogram2DSketch>(
      "x", Buckets(NumericBuckets(0, 1, 2)), "y",
      Buckets(NumericBuckets(0, 1, 3)));
  Histogram2DResult narrow;
  narrow.x_buckets = 2;
  narrow.y_buckets = 2;
  narrow.xy = {1, 0, 4, 2};
  narrow.x_counts = {1, 6};
  ASSERT_TRUE(Redecode(narrow).ok());
  EXPECT_FALSE(RedecodeFor<Histogram2DResult>(sketch, narrow).ok());
  EXPECT_TRUE(RedecodeFor<Histogram2DResult>(sketch, MakeGrid()).ok());
  EXPECT_TRUE(
      RedecodeFor<Histogram2DResult>(sketch, Histogram2DResult{}).ok());
}

TEST(WireRobustness, TrellisGroupsMustFitTheirBuckets) {
  TrellisResult cell_short;
  cell_short.groups = {MakeGrid(), MakeGrid()};
  cell_short.groups[1].xy.pop_back();
  EXPECT_FALSE(Redecode(cell_short).ok());

  auto sketch = std::make_shared<TrellisSketch>(
      "w", Buckets(NumericBuckets(0, 1, 2)), "x",
      Buckets(NumericBuckets(0, 1, 2)), "y", Buckets(NumericBuckets(0, 1, 3)));
  TrellisResult fits;
  fits.groups = {MakeGrid(), Histogram2DResult{}};
  EXPECT_TRUE(RedecodeFor<TrellisResult>(sketch, fits).ok());
  EXPECT_TRUE(RedecodeFor<TrellisResult>(sketch, TrellisResult{}).ok());
  TrellisResult extra_group = fits;
  extra_group.groups.push_back(MakeGrid());
  EXPECT_FALSE(RedecodeFor<TrellisResult>(sketch, extra_group).ok());
  TrellisResult wide_group = fits;
  wide_group.groups[1] = MakeGrid();
  wide_group.groups[1].y_buckets = 2;
  wide_group.groups[1].xy = {1, 0, 4, 2};
  EXPECT_FALSE(RedecodeFor<TrellisResult>(sketch, wide_group).ok());
}

TEST(WireRobustness, HeavyHitters) {
  HeavyHittersResult hh;
  // One item per Value alternative, so every tag crosses the wire.
  hh.items = {{Value(std::string("AA")), 31},
              {Value(static_cast<int64_t>(7)), 12},
              {Value(2.5), 9},
              {Value(std::monostate{}), 3}};
  hh.rows_counted = 55;
  hh.missing = 3;
  hh.sample_rate = 1.0;
  hh.max_size = 8;
  CheckWire(hh, "HeavyHittersResult");
}

TEST(WireRobustness, HyperLogLog) {
  HllResult hll;
  hll.registers.assign(64, 0);
  for (size_t z = 0; z < hll.registers.size(); z += 3) {
    hll.registers[z] = static_cast<uint8_t>(z % 17);
  }
  hll.missing = 6;
  CheckWire(hll, "HllResult");
}

/// One string cell's word: `offset << 32 | length` into the summary's pool.
uint64_t PoolView(uint64_t offset, uint64_t length) {
  return offset << 32 | length;
}

TEST(WireRobustness, Quantile) {
  // Keys (1.5, "aa"), (-4, missing), (3.25, "zz"): an int and doubles in
  // one column, strings and a missing cell in the other, so both columns
  // carry per-cell classes.
  QuantileResult q;
  q.pool = "aazz";
  QuantileColumn numbers;
  numbers.classes = {KeyClass::kDouble, KeyClass::kInt, KeyClass::kDouble};
  numbers.words = {EncodeF64(1.5), EncodeI64(-4), EncodeF64(3.25)};
  QuantileColumn strings;
  strings.classes = {KeyClass::kString, KeyClass::kMissing, KeyClass::kString};
  strings.words = {PoolView(0, 2), 0, PoolView(2, 2)};
  q.columns = {numbers, strings};
  q.weights = {1, 1, 1};  // unit weights serialize in the elided form
  q.rate = 0.25;
  q.max_size = 100;
  CheckWire(q, "QuantileResult");

  ByteWriter w;
  q.Serialize(&w);
  std::vector<uint8_t> bytes = w.Take();
  ByteReader r(bytes);
  QuantileResult out;
  ASSERT_TRUE(QuantileResult::Deserialize(&r, &out).ok());
  EXPECT_EQ(out.Key(0),
            (std::vector<Value>{Value(1.5), Value(std::string("aa"))}));
  EXPECT_EQ(out.Key(1),
            (std::vector<Value>{Value(int64_t{-4}), Value(std::monostate{})}));
  EXPECT_EQ(out.Key(2),
            (std::vector<Value>{Value(3.25), Value(std::string("zz"))}));
}

TEST(WireRobustness, QuantileIntColumns) {
  // O4's shape: sorted int columns whose words travel as runs (Year) or as
  // deltas (a distinct sorted key), beside a double column with missing
  // cells whose classes travel as runs.
  QuantileResult q;
  QuantileColumn year;
  year.kind = KeyClass::kInt;
  QuantileColumn id;
  id.kind = KeyClass::kInt;
  QuantileColumn delay;
  for (int i = 0; i < 300; ++i) {
    year.words.push_back(EncodeI64(1999 + i / 100));
    id.words.push_back(EncodeI64(-50 + 3 * i));
    const bool missing = i % 100 >= 95;
    delay.classes.push_back(missing ? KeyClass::kMissing : KeyClass::kDouble);
    delay.words.push_back(missing ? 0 : EncodeF64(0.5 * (i % 100)));
  }
  q.columns = {year, id, delay};
  q.weights.assign(300, 1);
  q.rate = 0.5;
  q.max_size = 600;
  CheckWire(q, "QuantileResult(int columns)");

  ByteWriter w;
  q.Serialize(&w);
  // Two coded int columns and the class runs cost far less than a word an
  // item: the double column's raw words dominate.
  EXPECT_LT(w.size(), 300u * 8 + 1200);
  ByteReader r(w.bytes());
  QuantileResult out;
  ASSERT_TRUE(QuantileResult::Deserialize(&r, &out).ok());
  for (size_t c = 0; c < q.columns.size(); ++c) {
    EXPECT_EQ(out.columns[c].kind, q.columns[c].kind) << c;
    EXPECT_EQ(out.columns[c].classes, q.columns[c].classes) << c;
    EXPECT_EQ(out.columns[c].words, q.columns[c].words) << c;
  }
}

TEST(WireRobustness, QuantileWeighted) {
  QuantileResult q;
  QuantileColumn doubles;
  doubles.kind = KeyClass::kDouble;
  doubles.words = {EncodeF64(1.5), EncodeF64(2.5), EncodeF64(9.0)};
  q.columns = {doubles};
  q.weights = {1, 4, 2};  // a compacted summary carries explicit weights
  q.rate = 0.5;
  q.max_size = 3;
  q.seed = 0xD00DFEED;
  q.error.worst = 3;
  q.error.variance = 5.0;
  CheckWire(q, "QuantileResult(weighted)");

  ByteWriter w;
  q.Serialize(&w);
  std::vector<uint8_t> bytes = w.Take();
  ByteReader r(bytes);
  QuantileResult out;
  ASSERT_TRUE(QuantileResult::Deserialize(&r, &out).ok());
  EXPECT_EQ(out.weights, q.weights);
  EXPECT_EQ(out.seed, q.seed);
  EXPECT_EQ(out.error.worst, q.error.worst);
  EXPECT_DOUBLE_EQ(out.error.variance, q.error.variance);
}

/// One hand-built column of a quantile payload: its tag (a KeyClass, or 4
/// for per-cell classes, which are then written as a word column), its
/// classes and words. An int column's words travel as a word column (runs
/// or zigzag deltas); every other column's as raw 8-byte words.
struct WireColumn {
  uint8_t tag;
  std::vector<uint8_t> classes;
  std::vector<uint64_t> words;
};

constexpr uint8_t kPerCellTag = 4;

/// Serializes a quantile payload in the column-wise layout from raw parts,
/// so each guard can be hit in isolation: `items` need not match the
/// columns, and `exponents` (empty: unit weights, elided) travel as given.
std::vector<uint8_t> QuantileBytes(uint32_t items, const std::string& pool,
                                   const std::vector<WireColumn>& columns,
                                   const std::vector<uint8_t>& exponents,
                                   double rate = 0.5, int32_t max_size = 8,
                                   double error_variance = 0.0,
                                   uint64_t error_worst = 0,
                                   bool magic = true) {
  ByteWriter w;
  if (magic) w.WriteU32(0x4B4C4C32);  // the column-wise format's magic
  w.WriteU32(items);
  w.WriteU32(static_cast<uint32_t>(columns.size()));
  w.WriteBool(!exponents.empty());
  w.WriteString(pool);
  for (const WireColumn& column : columns) {
    w.WriteU8(column.tag);
    if (column.tag == kPerCellTag) {
      w.WriteWords(std::vector<uint64_t>(column.classes.begin(),
                                         column.classes.end()));
    }
    if (column.tag == static_cast<uint8_t>(KeyClass::kInt)) {
      w.WriteWords(column.words);
    } else {
      w.WritePodVector(column.words);
    }
  }
  for (uint8_t exponent : exponents) w.WriteU8(exponent);
  w.WriteDouble(rate);
  w.WriteI32(max_size);
  w.WriteU64(/*seed=*/1);
  w.WriteU64(error_worst);
  w.WriteDouble(error_variance);
  return w.Take();
}

/// A double column holding 0, 1, 2, ... — `n` well-formed cells.
WireColumn DoubleColumn(size_t n) {
  WireColumn column{static_cast<uint8_t>(KeyClass::kDouble), {}, {}};
  for (size_t i = 0; i < n; ++i) {
    column.words.push_back(EncodeF64(static_cast<double>(i)));
  }
  return column;
}

TEST(WireRobustness, QuantileWithoutMagicWordIsRejected) {
  // Summaries are soft state and never persisted, so every quantile payload
  // opens with the magic word. One that does not — here the column-wise
  // layout of two keys without it — is rejected whole and at every prefix.
  std::vector<uint8_t> bytes =
      QuantileBytes(2, "", {DoubleColumn(2)}, {}, 0.125, 64, 0.0, 0,
                    /*magic=*/false);

  for (size_t len = 0; len <= bytes.size(); ++len) {
    ByteReader prefix(bytes.data(), len);
    QuantileResult out;
    EXPECT_FALSE(QuantileResult::Deserialize(&prefix, &out).ok())
        << "payload without the magic word parsed OK at length " << len;
  }
}

/// Serializes a syntactically well-formed weighted quantile payload with
/// caller-chosen scalars (weights travel as power-of-two exponent bytes),
/// so each hostile-scalar guard can be hit in isolation.
std::vector<uint8_t> WeightedQuantileBytes(double rate, int32_t max_size,
                                           std::vector<uint8_t> exponents,
                                           double error_variance,
                                           uint64_t error_worst = 0) {
  const uint32_t n = static_cast<uint32_t>(exponents.size());
  return QuantileBytes(n, "", {DoubleColumn(n)}, exponents, rate, max_size,
                       error_variance, error_worst);
}

TEST(WireRobustness, QuantileRejectsHostileScalars) {
  auto reject = [](const std::vector<uint8_t>& bytes, const char* what) {
    ByteReader r(bytes);
    QuantileResult out;
    Status st = QuantileResult::Deserialize(&r, &out);
    ASSERT_FALSE(st.ok()) << what;
    EXPECT_EQ(st.code(), StatusCode::kInvalidArgument) << what;
  };
  const double nan = std::numeric_limits<double>::quiet_NaN();
  reject(WeightedQuantileBytes(nan, 8, {0, 0}, 0.0), "NaN rate");
  reject(WeightedQuantileBytes(-0.5, 8, {0, 0}, 0.0), "negative rate");
  reject(WeightedQuantileBytes(0.0, 8, {0, 0}, 0.0), "zero rate");
  reject(WeightedQuantileBytes(1.5, 8, {0, 0}, 0.0), "rate above 1");
  reject(WeightedQuantileBytes(0.5, -3, {0, 0}, 0.0), "negative max_size");
  reject(WeightedQuantileBytes(0.5, 8, {0, 45}, 0.0),
         "weight exponent over the 2^44 cap");
  reject(WeightedQuantileBytes(0.5, 8, {44, 44}, 0.0),
         "total weight over the 2^44 cap");
  reject(WeightedQuantileBytes(0.5, 8, {0, 0}, nan), "NaN error variance");
  reject(WeightedQuantileBytes(0.5, 8, {0, 0}, -2.0),
         "negative error variance");
  reject(WeightedQuantileBytes(0.5, 8, {0, 0}, 0.0,
                               /*error_worst=*/uint64_t{1} << 63),
         "error ledger over the 2^44 cap");

  // A well-formed weighted payload with sane scalars still parses.
  std::vector<uint8_t> good = WeightedQuantileBytes(0.5, 8, {0, 1}, 4.0);
  ByteReader gr(good);
  QuantileResult ok;
  ASSERT_TRUE(QuantileResult::Deserialize(&gr, &ok).ok());
  EXPECT_TRUE(gr.AtEnd());
  EXPECT_EQ(ok.weights, (std::vector<uint64_t>{1, 2}));
}

TEST(WireRobustness, QuantileRejectsMalformedColumns) {
  auto reject = [](const std::vector<uint8_t>& bytes, StatusCode code,
                   const char* what) {
    ByteReader r(bytes);
    QuantileResult out;
    Status st = QuantileResult::Deserialize(&r, &out);
    ASSERT_FALSE(st.ok()) << what;
    EXPECT_EQ(st.code(), code) << what;
  };
  const auto kInt = static_cast<uint8_t>(KeyClass::kInt);
  const auto kString = static_cast<uint8_t>(KeyClass::kString);
  const auto kMissing = static_cast<uint8_t>(KeyClass::kMissing);
  const WireColumn ints{kInt, {}, {EncodeI64(-2), EncodeI64(7)}};
  const WireColumn strings{
      kPerCellTag, {kString, kMissing}, {PoolView(1, 2), 0}};

  // A valid three-column payload: the hand-built bytes are exactly what
  // Serialize writes, it parses, and every strict prefix is rejected.
  std::vector<uint8_t> valid =
      QuantileBytes(2, "abc", {ints, strings, DoubleColumn(2)}, {});
  {
    ByteReader r(valid);
    QuantileResult out;
    ASSERT_TRUE(QuantileResult::Deserialize(&r, &out).ok());
    EXPECT_TRUE(r.AtEnd());
    EXPECT_EQ(out.Key(0), (std::vector<Value>{Value(int64_t{-2}),
                                              Value(std::string("bc")),
                                              Value(0.0)}));
    ByteWriter w;
    out.Serialize(&w);
    EXPECT_EQ(w.bytes(), valid);
  }
  for (size_t len = 0; len < valid.size(); ++len) {
    ByteReader prefix(valid.data(), len);
    QuantileResult out;
    EXPECT_FALSE(QuantileResult::Deserialize(&prefix, &out).ok())
        << "valid payload parsed OK truncated to " << len;
  }

  const StatusCode kInvalid = StatusCode::kInvalidArgument;
  reject(QuantileBytes(3, "abc", {ints, strings}, {}), kInvalid,
         "column length differs from the item count");
  reject(QuantileBytes(2, "abc",
                       {ints, {kPerCellTag, {kString}, {PoolView(1, 2), 0}}},
                       {}),
         kInvalid, "class array length differs from the item count");
  reject(QuantileBytes(2, "", {{5, {}, {0, 0}}}, {}), kInvalid,
         "unknown column tag");
  reject(QuantileBytes(2, "", {{kPerCellTag, {kInt, 9}, {0, 0}}}, {}),
         kInvalid, "unknown cell class");
  reject(QuantileBytes(2, "abc", {{kString, {}, {PoolView(0, 3),
                                                  PoolView(2, 2)}}},
                       {}),
         kInvalid, "string view running past the pool");
  reject(QuantileBytes(2, "abc", {{kString, {}, {PoolView(0, 3),
                                                  PoolView(9, 0)}}},
                       {}),
         kInvalid, "string view starting past the pool");
  reject(QuantileBytes(2, "", {{kMissing, {}, {0, 1}}}, {}), kInvalid,
         "missing cell with a word");
  const auto kDouble = static_cast<uint8_t>(KeyClass::kDouble);
  const uint64_t nan_word =
      EncodeF64(1.0) | 0x7FF8000000000000;  // quiet NaN bits, sign clear
  reject(QuantileBytes(2, "", {{kDouble, {}, {EncodeF64(1.0), nan_word}}},
                       {}),
         kInvalid, "NaN double word");
  reject(QuantileBytes(2, "",
                       {{kDouble, {}, {EncodeF64(1.0), ~(uint64_t{1} << 63)}}},
                       {}),
         kInvalid, "-0.0 double word");
  // An int column may cost no byte per item, so the bound needs a column
  // of raw words.
  reject(QuantileBytes(1000, "", {DoubleColumn(2)}, {}),
         StatusCode::kOutOfRange,
         "item count whose columns cannot fit in the remaining bytes");
  reject(QuantileBytes(1000, "", {ints}, {}), kInvalid,
         "int column shorter than the item count");
  const uint32_t over = static_cast<uint32_t>(kMaxMessageWords) + 1;
  reject(QuantileBytes(over, "",
                       {{kInt, {}, std::vector<uint64_t>(over, EncodeI64(7))}},
                       {}),
         kInvalid, "int column over the message's word budget");
  reject(QuantileBytes(2, "", {}, {}), StatusCode::kOutOfRange,
         "items without columns or weights");
}

TEST(WireRobustness, QuantileColumnsShareOneWordBudget) {
  // An int column of n equal words is a single run of about ten bytes. A
  // frame of a thousand of them declares a thousand times n words; the
  // reader's budget stops the decode once the columns so far hold
  // kMaxMessageWords words, not at a thousand times n.
  const uint64_t n = kMaxMessageWords / 4;
  const uint32_t columns = 1000;
  ByteWriter header;
  header.WriteU32(0x4B4C4C32);  // the column-wise format's magic
  header.WriteU32(static_cast<uint32_t>(n));
  header.WriteU32(columns);
  header.WriteBool(false);
  header.WriteString("");
  std::vector<uint8_t> bytes = header.Take();
  std::vector<uint8_t> column = {static_cast<uint8_t>(KeyClass::kInt)};
  Append(Coded(CodedForm::kWordRuns, {n, 1, n, ZigZagEncode(7)}), &column);
  for (uint32_t c = 0; c < columns; ++c) Append(column, &bytes);
  ByteWriter tail;
  tail.WriteDouble(0.5);
  tail.WriteI32(8);
  tail.WriteU64(1);
  tail.WriteU64(0);
  tail.WriteDouble(0.0);
  Append(tail.Take(), &bytes);
  EXPECT_LT(bytes.size(), 12u * columns + 64);

  ByteReader r(bytes);
  QuantileResult out;
  Status st = QuantileResult::Deserialize(&r, &out);
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(st.message(), "word vectors over the message's cap");
}

TEST(WireRobustness, TrellisGroupsShareOneWordBudget) {
  // An empty 1024x256 heat map costs 64 bytes, its cells a run of zeros,
  // but decodes to 2^18 cells. A trellis of a thousand of them is stopped
  // by the message's word budget at its fourth group.
  Histogram2DResult empty;
  empty.x_buckets = 1024;
  empty.y_buckets = 256;
  empty.xy.assign(size_t{1024} * 256, 0);
  empty.x_counts.assign(1024, 0);
  ByteWriter group;
  empty.Serialize(&group);
  ASSERT_LE(group.size(), 64u);
  const uint32_t groups = 1000;
  ByteWriter head;
  head.WriteU32(groups);
  std::vector<uint8_t> bytes = head.Take();
  for (uint32_t g = 0; g < groups; ++g) Append(group.bytes(), &bytes);
  ByteWriter tail;
  tail.WriteI64(0);
  tail.WriteI64(0);
  Append(tail.Take(), &bytes);

  ByteReader r(bytes);
  TrellisResult out;
  Status st = TrellisResult::Deserialize(&r, &out);
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(st.message(), "word vectors over the message's cap");

  // Three such groups fit the budget and decode.
  std::vector<uint8_t> three = {3, 0, 0, 0};
  for (int g = 0; g < 3; ++g) Append(group.bytes(), &three);
  Append(std::vector<uint8_t>(16, 0), &three);
  ByteReader r3(three);
  ASSERT_TRUE(TrellisResult::Deserialize(&r3, &out).ok());
  EXPECT_EQ(out.groups.size(), 3u);
  EXPECT_EQ(out.groups[2].xy, empty.xy);
}

TEST(WireRobustness, BottomKStrings) {
  BottomKResult bk;
  bk.items = {{11u, "apple"}, {42u, "banana"}, {97u, ""}};
  bk.k = 8;
  bk.complete = false;
  CheckWire(bk, "BottomKResult");
}

TEST(WireRobustness, RangeMoments) {
  RangeResult range;
  range.min = -3.5;
  range.max = 99.0;
  range.min_string = "alpha";
  range.max_string = "omega";
  range.is_string = false;
  range.is_integral = true;
  range.present_count = 90;
  range.missing_count = 10;
  range.moments = {450.0, 12345.0, -42.0};
  CheckWire(range, "RangeResult");
}

TEST(WireRobustness, Count) {
  CountResult count;
  count.rows = 123456789;
  CheckWire(count, "CountResult");
}

TEST(WireRobustness, NextItems) {
  NextItemsResult ni;
  RowSnapshot row1;
  row1.values = {Value(std::string("UA")), Value(static_cast<int64_t>(3)),
                 Value(0.5), Value(std::monostate{})};
  row1.count = 7;
  RowSnapshot row2;
  row2.values = {Value(std::string("")), Value(static_cast<int64_t>(-1)),
                 Value(-2.5), Value(std::string("x"))};
  row2.count = 1;
  ni.rows = {row1, row2};
  ni.rows_before = 41;
  CheckWire(ni, "NextItemsResult");
}

TEST(WireRobustness, FindText) {
  FindResult fr;
  fr.match_count = 17;
  fr.matches_before = 4;
  fr.first_match = std::vector<Value>{Value(std::string("w3")),
                                      Value(static_cast<int64_t>(9))};
  CheckWire(fr, "FindResult");

  FindResult no_match;
  no_match.match_count = 0;
  CheckWire(no_match, "FindResult(empty)");
}

TEST(WireRobustness, Correlation) {
  CorrelationResult corr;
  corr.m = 2;
  corr.count = 50;
  corr.sums = {10.0, -3.0};
  corr.products = {120.0, 4.5, 4.5, 80.0};
  corr.skipped = 5;
  CheckWire(corr, "CorrelationResult");
}

TEST(WireRobustness, SaveAs) {
  SaveResult save;
  save.partitions_written = 3;
  save.rows_written = 30000;
  save.errors = {"disk full", ""};
  CheckWire(save, "SaveResult");
}

// --- Flights summaries decode cell for cell ---------------------------------

/// The fixed-width layout every word vector replaced (one 8-byte word per
/// count, key word and class byte), as a reference the decoded summaries
/// must match exactly.
std::vector<uint8_t> FixedWidth(const HistogramResult& h) {
  ByteWriter w;
  w.WritePodVector(h.counts);
  w.WriteI64(h.missing);
  w.WriteI64(h.out_of_range);
  w.WriteI64(h.rows_scanned);
  w.WriteDouble(h.sample_rate);
  return w.Take();
}

std::vector<uint8_t> FixedWidth(const Histogram2DResult& g) {
  ByteWriter w;
  w.WriteI32(g.x_buckets);
  w.WriteI32(g.y_buckets);
  w.WritePodVector(g.xy);
  w.WritePodVector(g.x_counts);
  w.WriteI64(g.missing_x);
  w.WriteI64(g.missing_y);
  w.WriteI64(g.out_of_range);
  w.WriteI64(g.rows_scanned);
  w.WriteDouble(g.sample_rate);
  return w.Take();
}

std::vector<uint8_t> FixedWidth(const QuantileResult& q) {
  ByteWriter w;
  for (const QuantileColumn& column : q.columns) {
    // A per-cell column's `kind` is unused, and no layout carries it.
    const KeyClass kind =
        column.classes.empty() ? column.kind : KeyClass::kMissing;
    w.WriteU8(static_cast<uint8_t>(kind));
    w.WritePodVector(column.classes);
    w.WritePodVector(column.words);
  }
  w.WriteString(q.pool);
  w.WritePodVector(q.weights);
  w.WriteDouble(q.rate);
  w.WriteI32(q.max_size);
  w.WriteU64(q.seed);
  w.WriteU64(q.error.worst);
  w.WriteDouble(q.error.variance);
  return w.Take();
}

/// Serializes `summary`, decodes it, and checks the decoded summary against
/// the original in the fixed-width layout.
template <typename R>
void ExpectDecodesCellForCell(const R& summary, const std::string& what) {
  ByteWriter w;
  summary.Serialize(&w);
  ByteReader r(w.bytes());
  R back;
  ASSERT_TRUE(R::Deserialize(&r, &back).ok()) << what;
  EXPECT_TRUE(r.AtEnd()) << what;
  EXPECT_EQ(FixedWidth(back), FixedWidth(summary)) << what;
  EXPECT_LE(w.size(), FixedWidth(summary).size() + 16) << what;
}

/// Summarizes every partition and their merge (the workers' and the root's
/// summaries) and checks that each one decodes cell for cell.
template <typename R>
void ExpectSketchDecodes(const Sketch<R>& sketch,
                         const std::vector<TablePtr>& partitions) {
  R merged = sketch.Zero();
  for (size_t p = 0; p < partitions.size(); ++p) {
    R summary = sketch.Summarize(*partitions[p], MixSeed(7, p));
    ExpectDecodesCellForCell(summary,
                             sketch.name() + " partition " + std::to_string(p));
    merged = sketch.Merge(merged, summary);
  }
  ExpectDecodesCellForCell(merged, sketch.name() + " merged");
}

template <typename R>
R SummarizeAll(const Sketch<R>& sketch,
               const std::vector<TablePtr>& partitions) {
  R merged = sketch.Zero();
  for (const TablePtr& t : partitions) {
    merged = sketch.Merge(merged, sketch.Summarize(*t, 0));
  }
  return merged;
}

TEST(WireRoundTrip, FlightsSummariesDecodeCellForCell) {
  // The coded summaries of O4-O7, O10 and O11 (Fig 5) on flights
  // partitions, planned as the spreadsheet plans them for a 400x200 screen.
  std::vector<TablePtr> partitions;
  for (uint64_t p = 0; p < 4; ++p) {
    partitions.push_back(workload::GenerateFlights(5000, MixSeed(23, p)));
  }
  const ScreenResolution screen{400, 200};
  auto numeric = [&](const std::string& column, int count) {
    return Buckets(PlanNumericBuckets(
        SummarizeAll(RangeSketch(column), partitions), count));
  };
  auto strings = [&](const std::string& column, int count) {
    return Buckets(PlanStringBuckets(
        SummarizeAll(BottomKStringsSketch(column), partitions),
        SummarizeAll(RangeSketch(column), partitions), count));
  };

  // O4: the scroll-bar quantile over five order columns, three of them ints.
  const RecordOrder order5({{"Year", true},
                            {"Month", true},
                            {"DayOfMonth", true},
                            {"DepDelay", true},
                            {"Distance", true}});
  ExpectSketchDecodes(QuantileSketch(order5, 0.5, 20002), partitions);
  ExpectSketchDecodes(QuantileSketch(RecordOrder({{"FlightDate", false}}), 1.0,
                                     20002),
                      partitions);
  // O5-O7: histograms and CDFs, numeric and string.
  const int bars = HistogramBucketCount(screen);
  ExpectSketchDecodes(
      StreamingHistogramSketch("DepDelay", numeric("DepDelay", bars)),
      partitions);
  ExpectSketchDecodes(
      SampledHistogramSketch("ArrDelay", numeric("ArrDelay", bars), 0.3),
      partitions);
  ExpectSketchDecodes(
      StreamingHistogramSketch("DepDelay", numeric("DepDelay", screen.width)),
      partitions);
  ExpectSketchDecodes(
      StreamingHistogramSketch("Origin", strings("Origin", bars)), partitions);
  // O10: a stacked histogram; O11: a heat map.
  ExpectSketchDecodes(
      Histogram2DSketch("CrsDepTime", numeric("CrsDepTime", bars), "Airline",
                        strings("Airline", ChartDefaults::kMaxStackColors)),
      partitions);
  ExpectSketchDecodes(
      Histogram2DSketch("DepDelay",
                        numeric("DepDelay", HeatMapBucketsX(screen)),
                        "ArrDelay",
                        numeric("ArrDelay", HeatMapBucketsY(screen))),
      partitions);
}

}  // namespace
}  // namespace hillview
