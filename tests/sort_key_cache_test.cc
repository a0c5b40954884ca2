// Tests for the worker-resident sort-key cache (storage/sort_key_cache.h):
// hit/miss/eviction accounting, the byte budget, staleness validation
// against dead columns, and the soft-state Clear() contract — plus the
// plan lifecycle the cache is built on (bound, then built or adopted).

#include "storage/sort_key_cache.h"

#include <gtest/gtest.h>

#include <atomic>
#include <limits>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "storage/sort_key.h"
#include "storage/table.h"
#include "test_util.h"

namespace hillview {
namespace {

using testing::MakeDoubleTable;

TablePtr MakeTable(uint32_t n, uint64_t salt = 0) {
  std::vector<double> values(n);
  for (uint32_t r = 0; r < n; ++r) {
    values[r] = static_cast<double>((r * 2654435761u + salt) % 1000);
  }
  return MakeDoubleTable("x", values);
}

TEST(SortKeyPlanDeferred, CacheKeyStableAcrossPlansAndTieTails) {
  TablePtr t = MakeTable(100);
  RecordOrder order({{"x", true}});
  SortKeyPlan a(*t, order);
  SortKeyPlan b(*t, order);
  EXPECT_EQ(a.CacheKey(), b.CacheKey());
  // Orders differing only in unencoded tie-tail columns share keys. ("y"
  // is unknown, so it is skipped entirely; the key column is still "x".)
  SortKeyPlan c(*t, RecordOrder({{"x", true}, {"y", true}}));
  ASSERT_TRUE(c.valid());
  EXPECT_EQ(a.CacheKey(), c.CacheKey());
  // Direction is part of the key: descending keys are complemented.
  SortKeyPlan d(*t, RecordOrder({{"x", false}}));
  EXPECT_NE(a.CacheKey(), d.CacheKey());
  // A different table (different column objects) never collides.
  TablePtr t2 = MakeTable(100);
  SortKeyPlan e(*t2, order);
  EXPECT_NE(a.CacheKey(), e.CacheKey());
}

TEST(SortKeyCache, MissThenHitThenClear) {
  TablePtr t = MakeTable(300);
  RecordOrder order({{"x", true}});
  SortKeyCache cache;
  SortKeyPlan plan(*t, order);
  ASSERT_TRUE(plan.valid());

  EXPECT_EQ(cache.GetOrBuild(plan, /*build_allowed=*/false), nullptr);
  EXPECT_EQ(cache.Snapshot().misses, 1);
  EXPECT_EQ(cache.Snapshot().hits, 0);

  auto keys = cache.GetOrBuild(plan, /*build_allowed=*/true);
  EXPECT_EQ(cache.Snapshot().entries, 1u);
  EXPECT_EQ(cache.Snapshot().bytes_used, 300u * sizeof(uint64_t));

  auto cached = cache.GetOrBuild(plan, /*build_allowed=*/false);
  ASSERT_NE(cached, nullptr);
  EXPECT_EQ(cached.get(), keys.get());  // the same vector, not a copy
  EXPECT_EQ(cache.Snapshot().hits, 1);

  cache.Clear();
  EXPECT_EQ(cache.Snapshot().entries, 0u);
  EXPECT_EQ(cache.Snapshot().bytes_used, 0u);
  EXPECT_EQ(cache.GetOrBuild(plan, /*build_allowed=*/false), nullptr);
  EXPECT_EQ(cache.Snapshot().misses, 3);
}

TEST(SortKeyCache, ClearInvalidatesInFlightPuts) {
  // A crash/eviction (Clear) racing an in-flight Summarize must win: the
  // build that began before the Clear still serves its caller, but its keys
  // stay out of the LRU, so evicted soft state cannot sneak back into the
  // byte budget.
  TablePtr t = MakeTable(250);
  SortKeyCache cache;
  SortKeyPlan plan(*t, RecordOrder({{"x", true}}));
  cache.SetInFlightHookForTest([&cache] { cache.Clear(); });  // mid-build
  auto keys = cache.GetOrBuild(plan, /*build_allowed=*/true);
  ASSERT_NE(keys, nullptr);
  EXPECT_EQ(keys->size(), 250u);
  EXPECT_EQ(cache.Snapshot().entries, 0u);
  EXPECT_EQ(cache.Snapshot().bytes_used, 0u);
  // A build that no Clear() races is accepted again.
  cache.SetInFlightHookForTest(nullptr);
  cache.GetOrBuild(plan, /*build_allowed=*/true);
  EXPECT_EQ(cache.Snapshot().entries, 1u);
}

TEST(SortKeyCache, HitRestoresEncodingsWithoutPrePasses) {
  // Packed-candidate orders need O(n) pre-passes to finalize their shape; a
  // cache hit must restore that shape from the entry's encodings instead.
  ColumnBuilder a(DataKind::kInt);
  ColumnBuilder b(DataKind::kDate);
  for (int r = 0; r < 200; ++r) {
    a.AppendInt(r % 7);
    b.AppendDate(r % 5);
  }
  TablePtr t = Table::Create(
      Schema({{"a", DataKind::kInt}, {"b", DataKind::kDate}}),
      {a.Finish(), b.Finish()});
  RecordOrder order({{"a", true}, {"b", false}});
  SortKeyCache cache;
  SortKeyPlan filler(*t, order);
  auto built = cache.GetOrBuild(filler, /*build_allowed=*/true);
  ASSERT_TRUE(filler.packed());

  SortKeyPlan reader(*t, order);
  EXPECT_FALSE(reader.built());
  auto keys = cache.GetOrBuild(reader, /*build_allowed=*/false);
  ASSERT_NE(keys, nullptr);
  EXPECT_TRUE(reader.built());
  EXPECT_TRUE(reader.packed());
  EXPECT_EQ(reader.TotalOrder(), filler.TotalOrder());
  EXPECT_EQ(reader.exact(), filler.exact());
  EXPECT_EQ(reader.keys(), *built);
}

/// The order columns' cells a start key may carry for column `name`: every
/// present value, missing, a value between present ones and values outside
/// them.
std::vector<Value> StartCells(const Table& table, const std::string& name) {
  std::vector<Value> cells(1);  // missing
  for (uint32_t r = 0; r < table.num_rows(); ++r) {
    const Value v = table.GetRow(r, {name})[0];
    cells.push_back(v);
    if (const auto* i = std::get_if<int64_t>(&v)) {
      cells.emplace_back(*i - 1);  // between: no two values adjacent
    } else if (const auto* d = std::get_if<double>(&v)) {
      cells.emplace_back(*d + 0.25);
    } else if (const auto* str = std::get_if<std::string>(&v)) {
      cells.emplace_back(*str + "a");
    }
  }
  if (IsStringKind(table.GetColumnOrNull(name)->kind())) {
    cells.emplace_back(std::string());
    cells.emplace_back(std::string("zzz"));
  } else {
    constexpr int64_t kFar = 1'000'000'000'000'000;
    for (int64_t outside : {-kFar, kFar}) {
      cells.emplace_back(outside);
      cells.emplace_back(static_cast<double>(outside));
    }
  }
  return cells;
}

TEST(SortKeyCache, HitRestoresExactlyWhatABuildMakes) {
  // For every key shape, a plan adopted from the cache must be
  // indistinguishable from one built by BuildKeys: the same keys, shape,
  // exactness, tie order and start-key bands.
  constexpr int kRows = 96;
  ColumnBuilder i(DataKind::kInt), d(DataKind::kDouble), s(DataKind::kString);
  ColumnBuilder t(DataKind::kDate), w(DataKind::kDate), m(DataKind::kDate);
  for (int r = 0; r < kRows; ++r) {
    if (r % 9 == 4) {
      i.AppendMissing();
    } else {
      i.AppendInt((r * 7 % 13) * 10 - 60);
    }
    if (r % 10 == 3) {
      d.AppendMissing();
    } else {
      d.AppendDouble((r % 11) * 1.5 - 4);
    }
    if (r % 8 == 5) {
      s.AppendMissing();
    } else {
      s.AppendString("v" + std::to_string(r % 9));
    }
    t.AppendDate((r % 5) * 100 - 200);
    // Milliseconds over more than 2^32: a shifted packed component.
    w.AppendDate(1'500'000'000'000LL + r * 700'000'000LL);
    if (r % 7 == 6) {
      m.AppendMissing();
    } else {
      m.AppendDate(r == 3 ? std::numeric_limits<int64_t>::max() : r * 1000);
    }
  }
  TablePtr table = Table::Create(
      Schema({{"i", DataKind::kInt},
              {"d", DataKind::kDouble},
              {"s", DataKind::kString},
              {"t", DataKind::kDate},
              {"w", DataKind::kDate},
              {"m", DataKind::kDate}}),
      {i.Finish(), d.Finish(), s.Finish(), t.Finish(), w.Finish(),
       m.Finish()});
  struct Shape {
    std::vector<std::string> columns;
    bool packed;
    bool exact;
  };
  const std::vector<Shape> shapes = {
      {{"i"}, false, true},            // single exact, int32
      {{"d"}, false, true},            // single exact, double
      {{"s"}, false, true},            // single exact, codes
      {{"m"}, false, false},           // single saturated (INT64_MAX)
      {{"i", "t"}, true, true},        // packed exact
      {{"i", "w", "d"}, true, false},  // packed, shifted second component
  };
  for (const Shape& shape : shapes) {
    for (bool ascending : {true, false}) {
      SCOPED_TRACE(shape.columns[0] + std::to_string(shape.columns.size()) +
                   (ascending ? "+" : "-"));
      std::vector<ColumnSortOrientation> orientations;
      for (const auto& c : shape.columns) orientations.push_back({c, ascending});
      const RecordOrder order(orientations);
      SortKeyPlan built(*table, order);
      built.BuildKeys();
      SortKeyCache cache;
      SortKeyPlan filler(*table, order);
      ASSERT_NE(cache.GetOrBuild(filler, /*build_allowed=*/true), nullptr);
      SortKeyPlan adopted(*table, order);
      ASSERT_NE(cache.GetOrBuild(adopted, /*build_allowed=*/false), nullptr);
      ASSERT_EQ(cache.Snapshot().hits, 1);

      EXPECT_EQ(built.packed(), shape.packed);
      EXPECT_EQ(built.exact(), shape.exact);
      EXPECT_EQ(adopted.keys(), built.keys());
      EXPECT_EQ(adopted.packed(), built.packed());
      EXPECT_EQ(adopted.exact(), built.exact());
      EXPECT_EQ(adopted.TotalOrder(), built.TotalOrder());
      ASSERT_EQ(adopted.tie_order().size(), built.tie_order().size());
      for (size_t o = 0; o < built.tie_order().size(); ++o) {
        EXPECT_EQ(adopted.tie_order()[o].column, built.tie_order()[o].column);
        EXPECT_EQ(adopted.tie_order()[o].ascending,
                  built.tie_order()[o].ascending);
      }

      // Start keys: every member row's key cells, then row 0's cells with
      // one position swapped for each candidate cell of that column.
      std::vector<std::vector<Value>> starts;
      for (uint32_t r = 0; r < table->num_rows(); ++r) {
        starts.push_back(table->GetRow(r, shape.columns));
      }
      for (size_t p = 0; p < shape.columns.size(); ++p) {
        for (const Value& cell : StartCells(*table, shape.columns[p])) {
          std::vector<Value> start = table->GetRow(0, shape.columns);
          start[p] = cell;
          starts.push_back(std::move(start));
        }
      }
      int embedded = 0;
      for (const auto& start : starts) {
        auto want = built.EncodeStartKey(start);
        auto got = adopted.EncodeStartKey(start);
        ASSERT_EQ(got.has_value(), want.has_value());
        if (!want.has_value()) continue;
        ++embedded;
        EXPECT_EQ(got->below, want->below);
        EXPECT_EQ(got->above, want->above);
      }
      EXPECT_GT(embedded, kRows / 2);
    }
  }
}

TEST(SortKeyCache, GetOrBuildKeysFillsOnceAndHonorsTheGate) {
  TablePtr t = MakeTable(200);
  SortKeyCache cache;
  RecordOrder order({{"x", true}});
  SortKeyPlan plan(*t, order);
  // Build not allowed (the caller's density gate said no) and nothing
  // cached: no keys, and nothing inserted.
  EXPECT_EQ(GetOrBuildKeys(&cache, plan, /*build_allowed=*/false), nullptr);
  EXPECT_EQ(cache.Snapshot().entries, 0u);
  auto first = GetOrBuildKeys(&cache, plan, /*build_allowed=*/true);
  ASSERT_NE(first, nullptr);
  SortKeyPlan again(*t, order);
  // A hit serves cached keys even when a build would not be allowed.
  auto second = GetOrBuildKeys(&cache, again, /*build_allowed=*/false);
  EXPECT_EQ(first.get(), second.get());
  EXPECT_EQ(cache.Snapshot().misses, 2);
  EXPECT_EQ(cache.Snapshot().hits, 1);
  // Cache-less callers build directly (when allowed).
  SortKeyPlan lone(*t, order);
  EXPECT_EQ(GetOrBuildKeys(nullptr, lone, /*build_allowed=*/false), nullptr);
  EXPECT_NE(GetOrBuildKeys(nullptr, lone, /*build_allowed=*/true), nullptr);
}

TEST(SortKeyCache, ConcurrentMissesCoalesceOnOneBuilder) {
  // Regression for the duplicated-build window: two threads missing on the
  // same plan used to both run the O(n) key pass. GetOrBuild must elect one
  // builder and park the rest; the test hook holds the build open until
  // every other thread is provably parked, so the coalescing assertion is
  // deterministic, not a race we usually win.
  TablePtr t = MakeTable(4000);
  RecordOrder order({{"x", true}});
  SortKeyCache cache;
  constexpr int kThreads = 6;
  cache.SetInFlightHookForTest([&cache] {
    while (cache.Snapshot().waiters < kThreads - 1) std::this_thread::yield();
  });
  std::vector<SortKeyCache::KeysPtr> results(kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&, i] {
      SortKeyPlan plan(*t, order);
      results[i] = cache.GetOrBuild(plan, /*build_allowed=*/true);
    });
  }
  for (auto& thread : threads) thread.join();

  ASSERT_NE(results[0], nullptr);
  for (int i = 1; i < kThreads; ++i) {
    EXPECT_EQ(results[i].get(), results[0].get())
        << "thread " << i << " built a duplicate key vector";
  }
  EXPECT_EQ(cache.Snapshot().entries, 1u);
  EXPECT_EQ(cache.Snapshot().misses, kThreads);         // every thread's first lookup
  EXPECT_EQ(cache.Snapshot().hits, kThreads - 1);       // waiters adopting the build
  EXPECT_EQ(cache.Snapshot().coalesced_builds, kThreads - 1);
  EXPECT_EQ(cache.Snapshot().waiters, 0);

  // A later caller is an ordinary hit, not a coalesced one.
  SortKeyPlan later(*t, order);
  EXPECT_NE(cache.GetOrBuild(later, /*build_allowed=*/false), nullptr);
  EXPECT_EQ(cache.Snapshot().coalesced_builds, kThreads - 1);
}

TEST(SortKeyCache, WaitersAdoptBuildsTooLargeToCache) {
  // A key vector over the whole byte budget is never inserted (Put declines
  // it), but parked waiters must still adopt the builder's result from the
  // in-flight slot — otherwise every waiter would retry as the next builder
  // and the single-flight path would *serialize* N full O(n) key passes.
  TablePtr t = MakeTable(600);
  RecordOrder order({{"x", true}});
  SortKeyCache cache(/*max_bytes=*/100 * sizeof(uint64_t));  // 600 > 100
  constexpr int kThreads = 3;
  cache.SetInFlightHookForTest([&cache] {
    while (cache.Snapshot().waiters < kThreads - 1) std::this_thread::yield();
  });
  std::vector<SortKeyCache::KeysPtr> results(kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&, i] {
      SortKeyPlan plan(*t, order);
      results[i] = cache.GetOrBuild(plan, /*build_allowed=*/true);
    });
  }
  for (auto& thread : threads) thread.join();

  ASSERT_NE(results[0], nullptr);
  for (int i = 1; i < kThreads; ++i) {
    EXPECT_EQ(results[i].get(), results[0].get());
  }
  EXPECT_EQ(cache.Snapshot().entries, 0u);  // still uncacheable
  EXPECT_EQ(cache.Snapshot().coalesced_builds, kThreads - 1);
}

TEST(SortKeyCache, ThrowingBuildReElectsAParkedWaiter) {
  // The first builder's key pass throws (from the in-flight hook, which runs
  // inside the build's try). Its flight must be released, not stranded: a
  // parked waiter is re-elected and builds, the other waiters adopt that
  // second build, and nothing is left waiting.
  TablePtr t = MakeTable(300);
  RecordOrder order({{"x", true}});
  SortKeyCache cache;
  constexpr int kWaiters = 3;
  std::atomic<int> builds{0};
  cache.SetInFlightHookForTest([&] {
    const int build = builds.fetch_add(1);
    // Each build holds until the others are parked on its flight.
    const int parked = build == 0 ? kWaiters : kWaiters - 1;
    while (cache.Snapshot().waiters < parked) std::this_thread::yield();
    if (build == 0) throw std::runtime_error("key pass failed");
  });
  std::thread failing([&] {
    SortKeyPlan plan(*t, order);
    EXPECT_THROW(cache.GetOrBuild(plan, /*build_allowed=*/true),
                 std::runtime_error);
  });
  while (builds.load() == 0) std::this_thread::yield();
  std::vector<SortKeyCache::KeysPtr> results(kWaiters);
  std::vector<std::thread> waiters;
  waiters.reserve(kWaiters);
  for (int i = 0; i < kWaiters; ++i) {
    waiters.emplace_back([&, i] {
      SortKeyPlan plan(*t, order);
      results[i] = cache.GetOrBuild(plan, /*build_allowed=*/true);
    });
  }
  failing.join();
  for (auto& thread : waiters) thread.join();

  EXPECT_EQ(builds.load(), 2);
  ASSERT_NE(results[0], nullptr);
  EXPECT_EQ(results[0]->size(), 300u);
  for (int i = 1; i < kWaiters; ++i) {
    EXPECT_EQ(results[i].get(), results[0].get()) << "waiter " << i;
  }
  SortKeyCache::Stats stats = cache.Snapshot();
  EXPECT_EQ(stats.waiters, 0);
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_EQ(stats.coalesced_builds, kWaiters - 1);
  EXPECT_EQ(stats.misses, kWaiters + 1);
  SortKeyPlan later(*t, order);
  EXPECT_EQ(cache.GetOrBuild(later, /*build_allowed=*/false).get(),
            results[0].get());
}

TEST(SortKeyCache, GetOrBuildWithoutPermissionOrFlightReturnsNull) {
  TablePtr t = MakeTable(100);
  SortKeyCache cache;
  SortKeyPlan plan(*t, RecordOrder({{"x", true}}));
  // No cached entry, no in-flight build, and the density gate said no:
  // the caller falls back to the virtual comparator path.
  EXPECT_EQ(cache.GetOrBuild(plan, /*build_allowed=*/false), nullptr);
  EXPECT_EQ(cache.Snapshot().entries, 0u);
  EXPECT_EQ(cache.Snapshot().misses, 1);
}

TEST(SortKeyCache, ByteBudgetEvictsLeastRecentlyUsed) {
  // Budget fits two 100-row key vectors but not three.
  SortKeyCache cache(/*max_bytes=*/2 * 100 * sizeof(uint64_t));
  TablePtr a = MakeTable(100, 1), b = MakeTable(100, 2), c = MakeTable(100, 3);
  RecordOrder order({{"x", true}});
  SortKeyPlan pa(*a, order);
  SortKeyPlan pb(*b, order);
  SortKeyPlan pc(*c, order);
  cache.GetOrBuild(pa, /*build_allowed=*/true);
  cache.GetOrBuild(pb, /*build_allowed=*/true);
  EXPECT_EQ(cache.Snapshot().entries, 2u);
  // Touch a so b becomes the LRU victim.
  EXPECT_NE(cache.GetOrBuild(pa, /*build_allowed=*/false), nullptr);
  cache.GetOrBuild(pc, /*build_allowed=*/true);
  EXPECT_EQ(cache.Snapshot().entries, 2u);
  EXPECT_EQ(cache.Snapshot().evictions, 1);
  EXPECT_NE(cache.GetOrBuild(pa, /*build_allowed=*/false), nullptr);
  EXPECT_NE(cache.GetOrBuild(pc, /*build_allowed=*/false), nullptr);
  EXPECT_EQ(cache.GetOrBuild(pb, /*build_allowed=*/false), nullptr);  // gone
  // An entry larger than the whole budget is not cached at all.
  TablePtr big = MakeTable(500, 4);
  SortKeyPlan pbig(*big, order);
  cache.GetOrBuild(pbig, /*build_allowed=*/true);
  EXPECT_EQ(cache.GetOrBuild(pbig, /*build_allowed=*/false), nullptr);
}

TEST(SortKeyCache, DeadColumnsAreNeverServed) {
  SortKeyCache cache;
  RecordOrder order({{"x", true}});
  {
    TablePtr t = MakeTable(150);
    SortKeyPlan plan(*t, order);
    cache.GetOrBuild(plan, /*build_allowed=*/true);
    EXPECT_EQ(cache.Snapshot().entries, 1u);
  }
  // The table (and its columns) died; even if a new column were allocated at
  // the same address, the expired weak reference blocks the stale entry.
  // We can't force an address collision portably, so assert the guard
  // machinery: a fresh same-shape table must miss, and the stale entry is
  // dropped when a lookup would have matched it only by address reuse.
  TablePtr fresh = MakeTable(150);
  SortKeyPlan plan(*fresh, order);
  EXPECT_EQ(cache.GetOrBuild(plan, /*build_allowed=*/false), nullptr);
  EXPECT_EQ(cache.Snapshot().misses, 2);
}

TEST(SortKeyCache, FilterDerivedTablesShareTheParentEntry) {
  // Derived tables share column objects and differ only in membership; keys
  // cover the whole universe, so a zoomed view hits the pre-zoom entry.
  TablePtr t = MakeTable(400);
  TablePtr zoomed = t->Filter([](uint32_t r) { return r % 2 == 0; });
  RecordOrder order({{"x", true}});
  SortKeyCache cache;
  SortKeyPlan full_plan(*t, order);
  cache.GetOrBuild(full_plan, /*build_allowed=*/true);
  SortKeyPlan zoom_plan(*zoomed, order);
  EXPECT_EQ(zoom_plan.CacheKey(), full_plan.CacheKey());
  EXPECT_NE(cache.GetOrBuild(zoom_plan, /*build_allowed=*/false), nullptr);
  EXPECT_EQ(cache.Snapshot().hits, 1);
}

}  // namespace
}  // namespace hillview
