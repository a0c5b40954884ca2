// Tests for the unified vectorized scan layer (storage/scan.h): every cell of
// the dispatch matrix (layout × membership × nulls × sampling) must agree
// with a reference scan built from the virtual per-row accessors, and the
// central missing policy (null-mask bit, NaN, kMissingCode) must hold.

#include "storage/scan.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>
#include <vector>

#include "storage/bit_gather.h"
#include "storage/column.h"
#include "storage/membership.h"
#include "storage/sort_key.h"
#include "test_util.h"

namespace hillview {
namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

// Collects everything a scan delivers. Rows may arrive slightly out of order
// within a 64-row word (dense scans split each word into missing and present
// lanes), so comparisons sort first.
struct Collector {
  std::vector<std::pair<uint32_t, double>> values;
  std::vector<uint32_t> missing;

  template <typename T>
  void OnValue(uint32_t row, T v) {
    values.emplace_back(row, static_cast<double>(v));
  }
  void OnMissing(uint32_t row) { missing.push_back(row); }

  void Sort() {
    std::sort(values.begin(), values.end());
    std::sort(missing.begin(), missing.end());
  }
};

// Reference scan: virtual accessors over IMembershipSet::Contains, with the
// same missing policy the scan layer promises.
Collector ReferenceScan(const IColumn& col, const IMembershipSet& members) {
  Collector ref;
  for (uint32_t row = 0; row < members.universe_size(); ++row) {
    if (!members.Contains(row)) continue;
    double v = col.GetDouble(row);
    if (col.IsMissing(row) || std::isnan(v)) {
      ref.missing.push_back(row);
    } else {
      ref.values.emplace_back(row, v);
    }
  }
  ref.Sort();
  return ref;
}

// A 200-row column of each physical layout, with missing rows straddling the
// 64-row word boundaries (rows 63, 64, 127) plus a NaN for doubles (row 130).
ColumnPtr MakeColumn(DataKind kind) {
  ColumnBuilder b(kind);
  for (uint32_t r = 0; r < 200; ++r) {
    if (r == 63 || r == 64 || r == 127) {
      b.AppendMissing();
      continue;
    }
    switch (kind) {
      case DataKind::kInt:
        b.AppendInt(static_cast<int32_t>(r));
        break;
      case DataKind::kDouble:
        b.AppendDouble(r == 130 ? kNaN : static_cast<double>(r));
        break;
      case DataKind::kDate:
        b.AppendDate(static_cast<int64_t>(r) * 1000);
        break;
      case DataKind::kString:
      case DataKind::kCategory:
        b.AppendString("s" + std::to_string(r % 37));
        break;
    }
  }
  return b.Finish();
}

MembershipPtr MakeMembership(IMembershipSet::Kind kind, uint32_t universe) {
  switch (kind) {
    case IMembershipSet::Kind::kFull:
      return std::make_shared<FullMembership>(universe);
    case IMembershipSet::Kind::kDense: {
      std::vector<uint64_t> words((universe + 63) / 64, 0);
      for (uint32_t r = 0; r < universe; ++r) {
        if (r % 3 != 1) words[r >> 6] |= 1ULL << (r & 63);
      }
      return std::make_shared<DenseMembership>(std::move(words), universe);
    }
    case IMembershipSet::Kind::kSparse: {
      std::vector<uint32_t> rows;
      for (uint32_t r = 0; r < universe; r += 7) rows.push_back(r);
      return std::make_shared<SparseMembership>(std::move(rows), universe);
    }
  }
  return nullptr;
}

class ScanMatrixTest
    : public ::testing::TestWithParam<
          std::tuple<DataKind, IMembershipSet::Kind>> {};

TEST_P(ScanMatrixTest, StreamingScanMatchesReference) {
  auto [kind, mkind] = GetParam();
  ColumnPtr col = MakeColumn(kind);
  MembershipPtr members = MakeMembership(mkind, col->size());
  Collector got;
  ScanColumn(*col, *members, 1.0, 0, got);
  got.Sort();
  Collector ref = ReferenceScan(*col, *members);
  EXPECT_EQ(got.values, ref.values);
  EXPECT_EQ(got.missing, ref.missing);
}

TEST_P(ScanMatrixTest, SampledScanIsDeterministicAndVisitsOnlyMembers) {
  auto [kind, mkind] = GetParam();
  ColumnPtr col = MakeColumn(kind);
  MembershipPtr members = MakeMembership(mkind, col->size());
  Collector a, b;
  ScanColumn(*col, *members, 0.5, 42, a);
  ScanColumn(*col, *members, 0.5, 42, b);
  a.Sort();
  b.Sort();
  EXPECT_EQ(a.values, b.values);
  EXPECT_EQ(a.missing, b.missing);
  EXPECT_GT(a.values.size() + a.missing.size(), 0u);
  EXPECT_LT(a.values.size() + a.missing.size(), members->size());
  Collector ref = ReferenceScan(*col, *members);
  for (const auto& [row, v] : a.values) {
    EXPECT_TRUE(members->Contains(row));
    auto it = std::lower_bound(ref.values.begin(), ref.values.end(),
                               std::make_pair(row, v));
    ASSERT_NE(it, ref.values.end());
    EXPECT_EQ(it->second, v);
  }
  for (uint32_t row : a.missing) EXPECT_TRUE(members->Contains(row));
}

INSTANTIATE_TEST_SUITE_P(
    AllLayoutsAllMemberships, ScanMatrixTest,
    ::testing::Combine(::testing::Values(DataKind::kInt, DataKind::kDouble,
                                         DataKind::kDate, DataKind::kString),
                       ::testing::Values(IMembershipSet::Kind::kFull,
                                         IMembershipSet::Kind::kDense,
                                         IMembershipSet::Kind::kSparse)));

TEST(Scan, NaNIsDeliveredAsMissing) {
  ColumnBuilder b(DataKind::kDouble);
  b.AppendDouble(1.0);
  b.AppendDouble(kNaN);
  b.AppendDouble(3.0);
  b.AppendMissing();
  ColumnPtr col = b.Finish();
  FullMembership members(col->size());
  Collector got;
  ScanColumn(*col, members, 1.0, 0, got);
  got.Sort();
  ASSERT_EQ(got.values.size(), 2u);
  EXPECT_EQ(got.values[0], (std::pair<uint32_t, double>{0, 1.0}));
  EXPECT_EQ(got.values[1], (std::pair<uint32_t, double>{2, 3.0}));
  EXPECT_EQ(got.missing, (std::vector<uint32_t>{1, 3}));
}

TEST(Scan, InfinitiesAreDeliveredAsValues) {
  ColumnBuilder b(DataKind::kDouble);
  b.AppendDouble(std::numeric_limits<double>::infinity());
  b.AppendDouble(-std::numeric_limits<double>::infinity());
  ColumnPtr col = b.Finish();
  FullMembership members(col->size());
  Collector got;
  ScanColumn(*col, members, 1.0, 0, got);
  EXPECT_EQ(got.values.size(), 2u);
  EXPECT_TRUE(got.missing.empty());
}

TEST(Scan, ZeroRateScansNothing) {
  ColumnPtr col = MakeColumn(DataKind::kDouble);
  FullMembership members(col->size());
  Collector got;
  ScanColumn(*col, members, 0.0, 0, got);
  EXPECT_TRUE(got.values.empty());
  EXPECT_TRUE(got.missing.empty());
}

TEST(Scan, ScanRowsStreamsAndSamples) {
  MembershipPtr members = MakeMembership(IMembershipSet::Kind::kDense, 200);
  std::vector<uint32_t> all;
  ScanRows(*members, 1.0, 0, [&](uint32_t r) { all.push_back(r); });
  EXPECT_EQ(all.size(), members->size());
  std::vector<uint32_t> sampled;
  ScanRows(*members, 0.25, 7, [&](uint32_t r) { sampled.push_back(r); });
  EXPECT_LT(sampled.size(), all.size());
  for (uint32_t r : sampled) EXPECT_TRUE(members->Contains(r));
}

TEST(RawCursor, MissingPolicyAcrossLayouts) {
  // Double: null bit and NaN are both missing.
  ColumnBuilder d(DataKind::kDouble);
  d.AppendDouble(1.5);
  d.AppendMissing();
  d.AppendDouble(kNaN);
  ColumnPtr dc = d.Finish();
  RawCursor dcur(dc.get());
  ASSERT_TRUE(dcur.valid());
  EXPECT_FALSE(dcur.IsMissing(0));
  EXPECT_TRUE(dcur.IsMissing(1));
  EXPECT_TRUE(dcur.IsMissing(2));
  EXPECT_EQ(dcur.AsDouble(0), 1.5);

  // Int: null bit only.
  ColumnBuilder i(DataKind::kInt);
  i.AppendInt(7);
  i.AppendMissing();
  ColumnPtr ic = i.Finish();
  RawCursor icur(ic.get());
  EXPECT_FALSE(icur.IsMissing(0));
  EXPECT_TRUE(icur.IsMissing(1));
  EXPECT_EQ(icur.AsDouble(0), 7.0);

  // String: kMissingCode.
  ColumnBuilder s(DataKind::kString);
  s.AppendString("a");
  s.AppendMissing();
  ColumnPtr sc = s.Finish();
  RawCursor scur(sc.get());
  ASSERT_TRUE(scur.is_codes());
  EXPECT_FALSE(scur.IsMissing(0));
  EXPECT_TRUE(scur.IsMissing(1));
  EXPECT_EQ(scur.Code(0), 0u);

  RawCursor null_cursor(nullptr);
  EXPECT_FALSE(null_cursor.valid());
}

TEST(NullMask, SetMissingIsIdempotent) {
  NullMask mask;
  mask.SetMissing(5);
  mask.SetMissing(5);
  mask.SetMissing(5);
  EXPECT_EQ(mask.count(), 1u);
  EXPECT_TRUE(mask.IsMissing(5));
  mask.SetMissing(64);
  mask.SetMissing(64);
  EXPECT_EQ(mask.count(), 2u);
}

// The null mask must agree with IsMissing for every column kind, so generic
// ---------------------------------------------------------------------------
// Sort-key encoders (storage/sort_key.h): normalized keys must order rows
// exactly like the virtual RowComparator, across the layout × null ×
// direction matrix — the reference-scan pattern applied to ordering.

/// One random column per layout, with nulls optionally present and the
/// nasty values of that layout (NaN/±inf doubles, INT64_MAX dates,
/// duplicate-heavy ints and strings).
ColumnPtr MakeOrderColumn(DataKind kind, bool with_nulls, uint64_t seed,
                          uint32_t n) {
  Random rng(seed);
  ColumnBuilder b(kind);
  for (uint32_t r = 0; r < n; ++r) {
    if (with_nulls && rng.NextUint64(7) == 0) {
      b.AppendMissing();
      continue;
    }
    switch (kind) {
      case DataKind::kInt:
        b.AppendInt(static_cast<int32_t>(rng.NextUint64(41)) - 20);
        break;
      case DataKind::kDouble: {
        uint64_t roll = rng.NextUint64(20);
        if (roll == 0) {
          b.AppendDouble(kNaN);
        } else if (roll == 1) {
          b.AppendDouble(std::numeric_limits<double>::infinity());
        } else if (roll == 2) {
          b.AppendDouble(-std::numeric_limits<double>::infinity());
        } else if (roll == 3) {
          b.AppendDouble(0.0);
        } else {
          b.AppendDouble((rng.NextDouble() - 0.5) * 1e6);
        }
        break;
      }
      case DataKind::kDate: {
        uint64_t roll = rng.NextUint64(16);
        if (roll == 0) {
          b.AppendDate(std::numeric_limits<int64_t>::max());  // saturates
        } else if (roll == 1) {
          b.AppendDate(std::numeric_limits<int64_t>::min());
        } else {
          b.AppendDate(static_cast<int64_t>(rng.NextUint64(1000)) -
                       500);
        }
        break;
      }
      default:
        b.AppendString("v" + std::to_string(rng.NextUint64(25)));
        break;
    }
  }
  return b.Finish();
}

int Sign(int c) { return c < 0 ? -1 : (c > 0 ? 1 : 0); }

// ---------------------------------------------------------------------------
// Typed filter loops (FilterColumnMembership): the word-at-a-time predicate
// bitmaps must keep exactly the rows the virtual per-row path keeps, across
// layout × membership × nulls, including partial trailing words.

TEST(FilterColumnMembership, AgreesWithVirtualFilterAcrossMatrix) {
  // 203 rows: not a multiple of 64, so every loop exercises its tail.
  constexpr uint32_t kRows = 203;
  uint64_t seed = 0xF117;
  for (DataKind kind : {DataKind::kInt, DataKind::kDouble, DataKind::kDate,
                        DataKind::kString}) {
    for (bool with_nulls : {false, true}) {
      ColumnPtr col = MakeOrderColumn(kind, with_nulls, ++seed, kRows);
      TablePtr table = Table::Create(Schema({{"k", kind}}), {col});
      // Base membership shapes: full, dense (drop every 3rd row, plus one
      // fully-set run), sparse (every 13th row).
      std::vector<MembershipPtr> bases;
      bases.push_back(std::make_shared<FullMembership>(kRows));
      bases.push_back(FilterMembership(
          *bases[0], [](uint32_t r) { return r < 64 || r % 3 != 0; }));
      bases.push_back(
          FilterMembership(*bases[0], [](uint32_t r) { return r % 13 == 0; }));
      for (const auto& base : bases) {
        // Predicate mirroring a range gesture over the numeric view.
        double lo = -400.0, hi = 600.0;
        MembershipPtr typed = FilterRangeMembership(*col, *base, lo, hi);
        const IColumn* c = col.get();
        MembershipPtr reference =
            FilterMembership(*base, [c, lo, hi](uint32_t r) {
              if (c->IsMissing(r)) return false;
              double v = c->GetDouble(r);
              return v >= lo && v <= hi;
            });
        ASSERT_EQ(typed->size(), reference->size())
            << "kind=" << static_cast<int>(kind) << " nulls=" << with_nulls
            << " base=" << static_cast<int>(base->kind());
        for (uint32_t r = 0; r < kRows; ++r) {
          EXPECT_EQ(typed->Contains(r), reference->Contains(r))
              << "kind=" << static_cast<int>(kind)
              << " nulls=" << with_nulls
              << " base=" << static_cast<int>(base->kind()) << " row=" << r;
        }
      }
    }
  }
}


TEST(SortKey, KeysAgreeWithRowComparatorAcrossMatrix) {
  constexpr uint32_t kRows = 192;
  uint64_t seed = 0x50F7;
  for (DataKind kind : {DataKind::kInt, DataKind::kDouble, DataKind::kDate,
                        DataKind::kString, DataKind::kCategory}) {
    for (bool with_nulls : {false, true}) {
      for (bool ascending : {true, false}) {
        ColumnPtr col = MakeOrderColumn(kind, with_nulls, ++seed, kRows);
        TablePtr table = Table::Create(Schema({{"k", kind}}), {col});
        RecordOrder order({{"k", ascending}});
        SortKeyPlan plan(*table, order);
        ASSERT_TRUE(plan.valid())
            << "kind=" << static_cast<int>(kind) << " nulls=" << with_nulls;
        plan.BuildKeys();
        KeyComparator keyed(*table, plan);
        RowComparator reference(*table, order);
        for (uint32_t a = 0; a < kRows; ++a) {
          for (uint32_t d = 1; d < 32; ++d) {
            uint32_t b2 = (a + d * 7) % kRows;
            EXPECT_EQ(Sign(keyed.Compare(a, b2)),
                      Sign(reference.Compare(a, b2)))
                << "kind=" << static_cast<int>(kind)
                << " nulls=" << with_nulls << " asc=" << ascending
                << " rows " << a << "," << b2;
            EXPECT_EQ(keyed.Less(a, b2),
                      [&] {
                        int c = reference.Compare(a, b2);
                        return c != 0 ? c < 0 : a < b2;
                      }())
                << "Less mismatch rows " << a << "," << b2;
          }
        }
      }
    }
  }
}

TEST(SortKey, MultiColumnTiesFallBackToVirtualTail) {
  constexpr uint32_t kRows = 160;
  // Duplicate-heavy leading column so the tie path is hot.
  ColumnPtr first = MakeOrderColumn(DataKind::kInt, true, 0xAB1, kRows);
  ColumnPtr second = MakeOrderColumn(DataKind::kDouble, true, 0xAB2, kRows);
  TablePtr table = Table::Create(
      Schema({{"a", DataKind::kInt}, {"b", DataKind::kDouble}}),
      {first, second});
  for (bool asc_a : {true, false}) {
    for (bool asc_b : {true, false}) {
      RecordOrder order({{"a", asc_a}, {"b", asc_b}});
      SortKeyPlan plan(*table, order);
      ASSERT_TRUE(plan.valid());
      plan.BuildKeys();
      EXPECT_FALSE(plan.TotalOrder());
      KeyComparator keyed(*table, plan);
      RowComparator reference(*table, order);
      for (uint32_t a = 0; a < kRows; ++a) {
        for (uint32_t d = 1; d < 24; ++d) {
          uint32_t b2 = (a + d * 11) % kRows;
          EXPECT_EQ(Sign(keyed.Compare(a, b2)),
                    Sign(reference.Compare(a, b2)))
              << asc_a << asc_b << " rows " << a << "," << b2;
        }
      }
    }
  }
}

TEST(SortKey, SaturatedInt64StaysConsistent) {
  // INT64_MAX collides with the reserved missing key; the plan must fall
  // back to tie-checking the first column rather than merging it with
  // missing rows.
  ColumnBuilder b(DataKind::kDate);
  b.AppendDate(std::numeric_limits<int64_t>::max());
  b.AppendDate(std::numeric_limits<int64_t>::max() - 1);
  b.AppendMissing();
  b.AppendDate(0);
  TablePtr table = Table::Create(Schema({{"t", DataKind::kDate}}),
                                 {b.Finish()});
  for (bool ascending : {true, false}) {
    RecordOrder order({{"t", ascending}});
    SortKeyPlan plan(*table, order);
    ASSERT_TRUE(plan.valid());
    plan.BuildKeys();
    EXPECT_FALSE(plan.exact());
    KeyComparator keyed(*table, plan);
    RowComparator reference(*table, order);
    for (uint32_t a = 0; a < 4; ++a) {
      for (uint32_t b2 = 0; b2 < 4; ++b2) {
        EXPECT_EQ(Sign(keyed.Compare(a, b2)), Sign(reference.Compare(a, b2)))
            << "asc=" << ascending << " rows " << a << "," << b2;
      }
    }
  }
}

TEST(SortKey, UnknownColumnInvalidatesPlan) {
  TablePtr table = testing::MakeDoubleTable("x", {1.0, 2.0});
  SortKeyPlan plan(*table, RecordOrder({{"nope", true}}));
  EXPECT_FALSE(plan.valid());
}

// ---------------------------------------------------------------------------
// Bit-gather (storage/bit_gather.h): the word-compress expansion must agree
// with the ctz walk for every word shape.

TEST(BitGather, ExpandMatchesCtzWalk) {
  Random rng(0xB17);
  std::vector<uint64_t> words = {0,
                                 1,
                                 1ULL << 63,
                                 ~0ULL,
                                 0x8000000000000001ULL,
                                 0xAAAAAAAAAAAAAAAAULL,
                                 0x5555555555555555ULL,
                                 0xEEEEEEEEEEEEEEEEULL,  // the strided shape
                                 0x00FF00FF00FF00FFULL};
  for (int i = 0; i < 200; ++i) words.push_back(rng.NextUint64());
  for (uint64_t word : words) {
    for (uint32_t base : {0u, 64u, 4096u}) {
      uint32_t out[64];
      int n = ExpandBitIndices(word, base, out);
      std::vector<uint32_t> got(out, out + n);
      std::vector<uint32_t> ref;
      uint64_t bits = word;
      while (bits != 0) {
        ref.push_back(base + static_cast<uint32_t>(__builtin_ctzll(bits)));
        bits &= bits - 1;
      }
      EXPECT_EQ(got, ref) << "word=" << std::hex << word;
    }
  }
}

// ---------------------------------------------------------------------------
// Packed two-column sort keys: when both leading order columns are narrow
// (int32 / date / dictionary codes), the plan packs them into one 32+32 key
// and multi-column ties resolve without the virtual comparator. The packed
// comparisons must agree with RowComparator across layouts × directions ×
// nulls, including inexact (range-shifted) second components.

/// A duplicate-heavy narrow column of the given kind; `wide` dates span more
/// than 2^32 so their packed component is range-shifted (inexact).
ColumnPtr MakeNarrowColumn(DataKind kind, bool wide, bool with_nulls,
                           uint64_t seed, uint32_t n) {
  Random rng(seed);
  ColumnBuilder b(kind);
  for (uint32_t r = 0; r < n; ++r) {
    if (with_nulls && rng.NextUint64(6) == 0) {
      b.AppendMissing();
      continue;
    }
    switch (kind) {
      case DataKind::kInt:
        b.AppendInt(static_cast<int32_t>(rng.NextUint64(13)) - 6);
        break;
      case DataKind::kDate:
        if (wide) {
          // Milliseconds over ~3 years: range >> 2^32, so the 32-bit packed
          // component must shift (inexact) and ties fall back virtually.
          b.AppendDate(1'500'000'000'000LL +
                       static_cast<int64_t>(rng.NextUint64(100'000'000'000ULL)));
        } else {
          b.AppendDate(static_cast<int64_t>(rng.NextUint64(11)) - 5);
        }
        break;
      default:
        b.AppendString("v" + std::to_string(rng.NextUint64(9)));
        break;
    }
  }
  return b.Finish();
}

TEST(SortKeyPacked, TwoNarrowColumnsAgreeWithRowComparator) {
  constexpr uint32_t kRows = 180;
  uint64_t s = 0x9ACC;
  struct Case {
    DataKind first, second;
    bool second_wide;
  };
  std::vector<Case> cases = {
      {DataKind::kInt, DataKind::kInt, false},
      {DataKind::kInt, DataKind::kDate, true},   // inexact second component
      {DataKind::kInt, DataKind::kString, false},
      {DataKind::kDate, DataKind::kInt, false},  // narrow dates pack exactly
      {DataKind::kString, DataKind::kDate, true},
      {DataKind::kString, DataKind::kString, false},
      {DataKind::kCategory, DataKind::kInt, false},
  };
  for (const auto& c : cases) {
    for (bool with_nulls : {false, true}) {
      for (bool asc_a : {true, false}) {
        for (bool asc_b : {true, false}) {
          ColumnPtr first =
              MakeNarrowColumn(c.first, false, with_nulls, ++s, kRows);
          ColumnPtr second =
              MakeNarrowColumn(c.second, c.second_wide, with_nulls, ++s,
                               kRows);
          TablePtr table = Table::Create(
              Schema({{"a", c.first}, {"b", c.second}}), {first, second});
          RecordOrder order({{"a", asc_a}, {"b", asc_b}});
          SortKeyPlan plan(*table, order);
          ASSERT_TRUE(plan.valid());
          plan.BuildKeys();
          EXPECT_TRUE(plan.packed())
              << "first=" << static_cast<int>(c.first)
              << " second=" << static_cast<int>(c.second);
          if (!c.second_wide) {
            // Both components exact and no tail: the packed key (plus row
            // id) is the whole record order.
            EXPECT_TRUE(plan.TotalOrder());
          } else {
            EXPECT_FALSE(plan.exact());
            EXPECT_FALSE(plan.TotalOrder());
          }
          KeyComparator keyed(*table, plan);
          RowComparator reference(*table, order);
          for (uint32_t a = 0; a < kRows; ++a) {
            for (uint32_t d = 1; d < 24; ++d) {
              uint32_t b2 = (a + d * 11) % kRows;
              EXPECT_EQ(Sign(keyed.Compare(a, b2)),
                        Sign(reference.Compare(a, b2)))
                  << "first=" << static_cast<int>(c.first)
                  << " second=" << static_cast<int>(c.second)
                  << " nulls=" << with_nulls << " asc=" << asc_a << asc_b
                  << " rows " << a << "," << b2;
            }
          }
        }
      }
    }
  }
}

TEST(SortKeyPacked, WideFirstColumnFallsBackToSingleShape) {
  // A first column whose range exceeds 32 bits must NOT pack: a lossy high
  // half would let the low half override the true first-column order.
  constexpr uint32_t kRows = 120;
  ColumnPtr first = MakeNarrowColumn(DataKind::kDate, true, true, 0x71DE, kRows);
  ColumnPtr second = MakeNarrowColumn(DataKind::kInt, false, true, 2, kRows);
  TablePtr table = Table::Create(
      Schema({{"t", DataKind::kDate}, {"i", DataKind::kInt}}),
      {first, second});
  RecordOrder order({{"t", true}, {"i", false}});
  SortKeyPlan plan(*table, order);
  ASSERT_TRUE(plan.valid());
  plan.BuildKeys();
  EXPECT_FALSE(plan.packed());
  KeyComparator keyed(*table, plan);
  RowComparator reference(*table, order);
  for (uint32_t a = 0; a < kRows; ++a) {
    for (uint32_t b2 = 0; b2 < kRows; ++b2) {
      EXPECT_EQ(Sign(keyed.Compare(a, b2)), Sign(reference.Compare(a, b2)))
          << "rows " << a << "," << b2;
    }
  }
}

TEST(SortKeyPacked, StartKeyBandPartitionsRows) {
  // EncodeStartKey's band contract on packed plans: keys strictly below the
  // band precede the start key, keys strictly above follow it, under the
  // full record order.
  constexpr uint32_t kRows = 160;
  uint64_t s = 0xBA4D;
  for (bool second_wide : {false, true}) {
    for (bool asc_a : {true, false}) {
      ColumnPtr first =
          MakeNarrowColumn(DataKind::kInt, false, true, ++s, kRows);
      ColumnPtr second =
          MakeNarrowColumn(DataKind::kDate, second_wide, true, ++s, kRows);
      TablePtr table = Table::Create(
          Schema({{"a", DataKind::kInt}, {"b", DataKind::kDate}}),
          {first, second});
      RecordOrder order({{"a", asc_a}, {"b", true}});
      SortKeyPlan plan(*table, order);
      ASSERT_TRUE(plan.valid());
      plan.BuildKeys();
      ASSERT_TRUE(plan.packed());
      for (uint32_t start_row = 0; start_row < kRows; start_row += 13) {
        std::vector<Value> key = table->GetRow(start_row, {"a", "b"});
        auto band = plan.EncodeStartKey(key);
        if (!band.has_value()) continue;  // fallback path, always correct
        EXPECT_LE(band->below, band->above);
        RowKeyComparator cmp(*table, order, key);
        for (uint32_t r = 0; r < kRows; ++r) {
          int ref = cmp.Compare(r);
          uint64_t rk = plan.keys()[r];
          if (rk < band->below) {
            EXPECT_LT(ref, 0) << "wide=" << second_wide << " asc=" << asc_a
                              << " start=" << start_row << " row=" << r;
          } else if (rk > band->above) {
            EXPECT_GT(ref, 0) << "wide=" << second_wide << " asc=" << asc_a
                              << " start=" << start_row << " row=" << r;
          }
          // Inside the band there is no guarantee; callers re-compare.
        }
      }
    }
  }
}

TEST(SortKeyPacked, SingleShapeBandMatchesEncodeStartCell) {
  // On non-packed plans EncodeStartKey collapses to the EncodeStartCell
  // point threshold.
  TablePtr table = testing::MakeDoubleTable("x", {5.0, 1.0, 9.0, 3.0});
  RecordOrder order({{"x", true}});
  SortKeyPlan plan(*table, order);
  ASSERT_TRUE(plan.valid());
  plan.BuildKeys();
  ASSERT_FALSE(plan.packed());
  std::vector<Value> cells{Value(3.0)};
  auto band = plan.EncodeStartKey(cells);
  auto point = plan.EncodeStartCell(cells[0]);
  ASSERT_TRUE(band.has_value());
  ASSERT_TRUE(point.has_value());
  EXPECT_EQ(band->below, *point);
  EXPECT_EQ(band->above, *point);
}

TEST(SortKey, StartCellThresholdPartitionsRows) {
  constexpr uint32_t kRows = 160;
  uint64_t seed = 0x57A7;
  for (DataKind kind : {DataKind::kInt, DataKind::kDouble, DataKind::kDate,
                        DataKind::kString}) {
    for (bool ascending : {true, false}) {
      ColumnPtr col = MakeOrderColumn(kind, true, ++seed, kRows);
      TablePtr table = Table::Create(Schema({{"k", kind}}), {col});
      RecordOrder order({{"k", ascending}});
      SortKeyPlan plan(*table, order);
      ASSERT_TRUE(plan.valid());
      plan.BuildKeys();
      // Start keys: materialized cells of real rows, plus values absent
      // from the data (for strings, one lexicographically between codes).
      std::vector<Value> candidates;
      for (uint32_t r = 0; r < kRows; r += 17) {
        const Value cell = table->GetRow(r, {"k"})[0];
        candidates.push_back(cell);
      }
      candidates.emplace_back(std::monostate{});
      if (IsStringKind(kind)) {
        candidates.emplace_back(std::string("v2a"));  // between v2/v20
      } else if (kind == DataKind::kInt) {
        candidates.emplace_back(static_cast<int64_t>(7));
      } else if (kind == DataKind::kDouble) {
        candidates.emplace_back(1234.5);
      } else {
        candidates.emplace_back(static_cast<int64_t>(123));
      }
      for (const Value& v : candidates) {
        auto enc = plan.EncodeStartCell(v);
        if (!enc.has_value()) continue;  // fallback path, always correct
        RowKeyComparator cmp(*table, order, {v});
        for (uint32_t r = 0; r < kRows; ++r) {
          int ref = cmp.Compare(r);
          uint64_t rk = plan.keys()[r];
          if (rk < *enc) {
            EXPECT_LT(ref, 0) << "kind=" << static_cast<int>(kind)
                              << " asc=" << ascending << " row=" << r;
          } else if (rk > *enc) {
            EXPECT_GT(ref, 0) << "kind=" << static_cast<int>(kind)
                              << " asc=" << ascending << " row=" << r;
          }
          // rk == *enc carries no guarantee; callers re-compare fully.
        }
      }
    }
  }
}

// null-mask consumers (the scan layer's dense AND-loops in particular) see
// the same missing rows as per-row accessors.
TEST(NullMask, AgreesWithIsMissingAcrossAllColumnKinds) {
  for (DataKind kind : {DataKind::kInt, DataKind::kDouble, DataKind::kDate,
                        DataKind::kString, DataKind::kCategory}) {
    ColumnPtr col = MakeColumn(kind);
    uint64_t missing_rows = 0;
    for (uint32_t r = 0; r < col->size(); ++r) {
      bool is_missing = col->IsMissing(r);
      EXPECT_EQ(col->null_mask().IsMissing(r), is_missing)
          << "kind=" << static_cast<int>(kind) << " row=" << r;
      if (is_missing) ++missing_rows;
    }
    EXPECT_EQ(col->null_mask().count(), missing_rows)
        << "kind=" << static_cast<int>(kind);
  }
}

// ---------------------------------------------------------------------------
// SIMD kernel equivalence (storage/simd_dispatch.h): the active kernel table
// — AVX2 where the CPU has it, scalar otherwise — must be bit-identical to
// the scalar reference on adversarial inputs (NaN, ±inf, ±0.0, INT64_MAX,
// denormals, saturating bounds). On machines without AVX2 both tables are
// the same functions and these tests pass trivially; the CI forced-scalar
// lane covers the other direction (scalar correctness under AVX2 hardware).

class KernelPair : public ::testing::Test {
 protected:
  const ScanKernels& scalar_ = GetScanKernelsFor(SimdLevel::kScalar);
  const ScanKernels& active_ = GetScanKernels();
};

TEST_F(KernelPair, ScalarTableIsScalar) {
  EXPECT_STREQ(scalar_.name, "scalar");
}

TEST_F(KernelPair, RangeWordsMatch) {
  Random rng(0x5EED01);
  for (int iter = 0; iter < 200; ++iter) {
    double f64[64];
    int32_t i32[64];
    int64_t i64[64];
    uint32_t u32[64];
    for (int r = 0; r < 64; ++r) {
      uint64_t roll = rng.NextUint64(20);
      double v = (rng.NextDouble() - 0.5) * 400.0;
      if (roll == 0) v = std::numeric_limits<double>::quiet_NaN();
      if (roll == 1) v = std::numeric_limits<double>::infinity();
      if (roll == 2) v = -std::numeric_limits<double>::infinity();
      if (roll == 3) v = rng.NextUint64(2) ? 0.0 : -0.0;
      f64[r] = v;
      i32[r] = static_cast<int32_t>(rng.NextUint64()) >> (rng.NextUint64(28));
      i64[r] = static_cast<int64_t>(rng.NextUint64()) >> (rng.NextUint64(60));
      if (roll == 4) i64[r] = std::numeric_limits<int64_t>::max();
      if (roll == 5) i64[r] = std::numeric_limits<int64_t>::min();
      u32[r] = static_cast<uint32_t>(rng.NextUint64()) >> (rng.NextUint64(28));
    }
    double lo = (rng.NextDouble() - 0.5) * 300.0;
    double hi = lo + rng.NextDouble() * 200.0;
    EXPECT_EQ(scalar_.range_word_f64(f64, lo, hi),
              active_.range_word_f64(f64, lo, hi));
    // NaN bounds match nothing in both paths.
    EXPECT_EQ(scalar_.range_word_f64(f64, kNaN, hi),
              active_.range_word_f64(f64, kNaN, hi));
    int64_t ilo = static_cast<int64_t>(lo);
    int64_t ihi = static_cast<int64_t>(hi);
    EXPECT_EQ(scalar_.range_word_i32(i32, ilo, ihi),
              active_.range_word_i32(i32, ilo, ihi));
    EXPECT_EQ(scalar_.range_word_i64(i64, ilo, ihi),
              active_.range_word_i64(i64, ilo, ihi));
    EXPECT_EQ(scalar_.range_word_i64(i64, std::numeric_limits<int64_t>::min(),
                                     std::numeric_limits<int64_t>::max()),
              active_.range_word_i64(i64, std::numeric_limits<int64_t>::min(),
                                     std::numeric_limits<int64_t>::max()));
    uint32_t ulo = static_cast<uint32_t>(rng.NextUint64(1000));
    uint32_t uhi = ulo + static_cast<uint32_t>(rng.NextUint64(1u << 30));
    EXPECT_EQ(scalar_.range_word_u32(u32, ulo, uhi),
              active_.range_word_u32(u32, ulo, uhi));
    // Empty interval (lo > hi) matches nothing.
    EXPECT_EQ(active_.range_word_i64(i64, 1, 0), 0u);
    EXPECT_EQ(active_.range_word_u32(u32, 5, 4), 0u);
  }
}

TEST_F(KernelPair, HistogramIndicesMatch) {
  Random rng(0x5EED02);
  for (int iter = 0; iter < 100; ++iter) {
    const uint32_t n = 1 + static_cast<uint32_t>(rng.NextUint64(200));
    std::vector<double> f64(n);
    std::vector<int32_t> i32(n);
    for (uint32_t r = 0; r < n; ++r) {
      uint64_t roll = rng.NextUint64(12);
      double v = (rng.NextDouble() - 0.5) * 400.0;
      if (roll == 0) v = std::numeric_limits<double>::quiet_NaN();
      if (roll == 1) v = std::numeric_limits<double>::infinity();
      if (roll == 2) v = -std::numeric_limits<double>::infinity();
      f64[r] = v;
      i32[r] = static_cast<int32_t>(rng.NextUint64(200)) - 100;
    }
    const double min = -90.0 + rng.NextDouble() * 20.0;
    const double max = min + 50.0 + rng.NextDouble() * 120.0;
    const int32_t count = 1 + static_cast<int32_t>(rng.NextUint64(30));
    const double scale = count / (max - min);
    std::vector<uint32_t> a(n, 0xAAu), b(n, 0xBBu);
    scalar_.hist_index_f64(f64.data(), n, min, max, scale, count, a.data());
    active_.hist_index_f64(f64.data(), n, min, max, scale, count, b.data());
    EXPECT_EQ(a, b) << "f64 iter " << iter;
    scalar_.hist_index_i32(i32.data(), n, min, max, scale, count, a.data());
    active_.hist_index_i32(i32.data(), n, min, max, scale, count, b.data());
    EXPECT_EQ(a, b) << "i32 iter " << iter;
    // Sentinel sanity: every index is in [0, count+1].
    for (uint32_t r = 0; r < n; ++r) {
      EXPECT_LE(a[r], static_cast<uint32_t>(count) + 1);
    }
  }
}

TEST_F(KernelPair, MinMaxMatch) {
  Random rng(0x5EED03);
  for (int iter = 0; iter < 100; ++iter) {
    const uint32_t n = 1 + static_cast<uint32_t>(rng.NextUint64(100));
    std::vector<int32_t> i32(n);
    std::vector<int64_t> i64(n);
    for (uint32_t r = 0; r < n; ++r) {
      i32[r] = static_cast<int32_t>(rng.NextUint64());
      i64[r] = static_cast<int64_t>(rng.NextUint64());
      if (rng.NextUint64(16) == 0) {
        i64[r] = rng.NextUint64(2) ? std::numeric_limits<int64_t>::max()
                                   : std::numeric_limits<int64_t>::min();
      }
    }
    int64_t lo_a = 0, hi_a = 0, lo_b = 0, hi_b = 0;
    scalar_.minmax_i32(i32.data(), n, &lo_a, &hi_a);
    active_.minmax_i32(i32.data(), n, &lo_b, &hi_b);
    EXPECT_EQ(lo_a, lo_b);
    EXPECT_EQ(hi_a, hi_b);
    scalar_.minmax_i64(i64.data(), n, &lo_a, &hi_a);
    active_.minmax_i64(i64.data(), n, &lo_b, &hi_b);
    EXPECT_EQ(lo_a, lo_b);
    EXPECT_EQ(hi_a, hi_b);
  }
}

TEST_F(KernelPair, SortKeyEncodingsMatch) {
  Random rng(0x5EED04);
  for (int iter = 0; iter < 100; ++iter) {
    const uint32_t n = 1 + static_cast<uint32_t>(rng.NextUint64(150));
    std::vector<double> f64(n);
    std::vector<int32_t> i32(n);
    std::vector<int64_t> i64(n);
    bool want_saturation = rng.NextUint64(2) == 0;
    for (uint32_t r = 0; r < n; ++r) {
      uint64_t roll = rng.NextUint64(10);
      double v = (rng.NextDouble() - 0.5) * 1e6;
      if (roll == 0) v = std::numeric_limits<double>::quiet_NaN();
      if (roll == 1) v = std::numeric_limits<double>::infinity();
      if (roll == 2) v = -std::numeric_limits<double>::infinity();
      if (roll == 3) v = rng.NextUint64(2) ? 0.0 : -0.0;
      if (roll == 4) v = 5e-324;  // denormal
      f64[r] = v;
      i32[r] = static_cast<int32_t>(rng.NextUint64());
      i64[r] = static_cast<int64_t>(rng.NextUint64());
      if (want_saturation && roll == 5) {
        i64[r] = std::numeric_limits<int64_t>::max();
      }
    }
    std::vector<uint64_t> a(n, 1), b(n, 2);
    scalar_.encode_keys_f64(f64.data(), n, a.data());
    active_.encode_keys_f64(f64.data(), n, b.data());
    EXPECT_EQ(a, b) << "f64 iter " << iter;
    // ±0.0 collapse to one key; NaN sorts last.
    scalar_.encode_keys_i32(i32.data(), n, a.data());
    active_.encode_keys_i32(i32.data(), n, b.data());
    EXPECT_EQ(a, b) << "i32 iter " << iter;
    bool sat_a = scalar_.encode_keys_i64(i64.data(), n, a.data());
    bool sat_b = active_.encode_keys_i64(i64.data(), n, b.data());
    EXPECT_EQ(a, b) << "i64 iter " << iter;
    EXPECT_EQ(sat_a, sat_b) << "i64 saturation flag, iter " << iter;
    bool has_max = std::find(i64.begin(), i64.end(),
                             std::numeric_limits<int64_t>::max()) != i64.end();
    EXPECT_EQ(sat_a, has_max);
  }
  // Order preservation spot checks on the f64 encoding.
  double ordered[5] = {-std::numeric_limits<double>::infinity(), -1.5, -0.0,
                       2.5, std::numeric_limits<double>::infinity()};
  uint64_t keys[5];
  active_.encode_keys_f64(ordered, 5, keys);
  EXPECT_TRUE(std::is_sorted(keys, keys + 5));
  double zeros[2] = {0.0, -0.0};
  uint64_t zero_keys[2];
  active_.encode_keys_f64(zeros, 2, zero_keys);
  EXPECT_EQ(zero_keys[0], zero_keys[1]);
  double nan_val[1] = {kNaN};
  uint64_t nan_key[1];
  active_.encode_keys_f64(nan_val, 1, nan_key);
  EXPECT_EQ(nan_key[0], std::numeric_limits<uint64_t>::max());
}

TEST_F(KernelPair, ForceScalarFallbackLookupIsScalar) {
  // GetScanKernelsFor on a level the CPU lacks must hand back the scalar
  // table rather than faulting; asking for kScalar is always scalar.
  const ScanKernels& k = GetScanKernelsFor(SimdLevel::kAvx2);
  EXPECT_TRUE(std::string(k.name) == "avx2" ||
              std::string(k.name) == "scalar");
  EXPECT_STREQ(SimdLevelName(SimdLevel::kScalar), "scalar");
  EXPECT_STREQ(SimdLevelName(SimdLevel::kAvx2), "avx2");
}

// RangePredicate's double→integer bound conversion: closed integer bounds
// [ceil(lo), floor(hi)] with saturation at ±2^63, exact beyond 2^53, and an
// always-false encoding for empty intersections.
using scan_internal::RangePredicate;

TEST(RangePredicateBounds, IntegerConversionEdges) {
  {
    RangePredicate p(-2.5, 3.5);
    EXPECT_EQ(p.ilo, -2);
    EXPECT_EQ(p.ihi, 3);
  }
  {
    RangePredicate p(2.0, 2.0);  // single integer point
    EXPECT_EQ(p.ilo, 2);
    EXPECT_EQ(p.ihi, 2);
  }
  {
    RangePredicate p(2.1, 2.9);  // no integer inside
    EXPECT_GT(p.ilo, p.ihi);
    EXPECT_FALSE(p(int64_t{0}));
    EXPECT_FALSE(p(int64_t{2}));
    EXPECT_FALSE(p(int64_t{3}));
  }
  {
    // Saturation: bounds beyond ±2^63 clamp to the full int64 range.
    RangePredicate p(-1e300, 1e300);
    EXPECT_EQ(p.ilo, std::numeric_limits<int64_t>::min());
    EXPECT_EQ(p.ihi, std::numeric_limits<int64_t>::max());
    EXPECT_TRUE(p(std::numeric_limits<int64_t>::max()));
    EXPECT_TRUE(p(std::numeric_limits<int64_t>::min()));
  }
  {
    // Entirely above / below the int64 range: empty for integers.
    RangePredicate above(1e300, 2e300);
    EXPECT_GT(above.ilo, above.ihi);
    RangePredicate below(-2e300, -1e300);
    EXPECT_GT(below.ilo, below.ihi);
  }
  {
    // NaN bounds: empty.
    RangePredicate p(kNaN, 10.0);
    EXPECT_GT(p.ilo, p.ihi);
    EXPECT_FALSE(p(1.0));
  }
  {
    // Exactness beyond 2^53: a double bound of 2^62 is representable; the
    // closed bound must include exactly values <= 2^62.
    const double two62 = 4611686018427387904.0;
    RangePredicate p(0.0, two62);
    EXPECT_EQ(p.ihi, int64_t{1} << 62);
    EXPECT_TRUE(p(int64_t{1} << 62));
    EXPECT_FALSE(p((int64_t{1} << 62) + 1));
  }
}

}  // namespace
}  // namespace hillview
