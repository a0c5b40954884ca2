// Tests for the worker-resident sort-key cache (storage/sort_key_cache.h):
// hit/miss/eviction accounting, the byte budget, staleness validation
// against dead columns, and the soft-state Clear() contract — plus the
// deferred-materialization plan API the cache is built on.

#include "storage/sort_key_cache.h"

#include <gtest/gtest.h>

#include <atomic>
#include <limits>
#include <stdexcept>
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

TEST(SortKeyPlanDeferred, BuildMatchesEagerConstruction) {
  TablePtr t = MakeTable(500);
  RecordOrder order({{"x", true}});
  SortKeyPlan eager(*t, order);
  SortKeyPlan deferred(*t, order, SortKeyPlan::kDeferKeys);
  ASSERT_TRUE(eager.valid());
  ASSERT_TRUE(deferred.valid());
  ASSERT_TRUE(eager.has_keys());
  EXPECT_FALSE(deferred.has_keys());
  deferred.AdoptKeys(deferred.BuildKeys());
  ASSERT_TRUE(deferred.has_keys());
  EXPECT_EQ(eager.keys(), deferred.keys());
}

TEST(SortKeyPlanDeferred, CacheKeyStableAcrossPlansAndTieTails) {
  TablePtr t = MakeTable(100);
  RecordOrder order({{"x", true}});
  SortKeyPlan a(*t, order, SortKeyPlan::kDeferKeys);
  SortKeyPlan b(*t, order, SortKeyPlan::kDeferKeys);
  EXPECT_EQ(a.CacheKey(), b.CacheKey());
  // Orders differing only in unencoded tie-tail columns share keys. ("y"
  // is unknown, so it is skipped entirely; the key column is still "x".)
  SortKeyPlan c(*t, RecordOrder({{"x", true}, {"y", true}}),
                SortKeyPlan::kDeferKeys);
  ASSERT_TRUE(c.valid());
  EXPECT_EQ(a.CacheKey(), c.CacheKey());
  // Direction is part of the key: descending keys are complemented.
  SortKeyPlan d(*t, RecordOrder({{"x", false}}), SortKeyPlan::kDeferKeys);
  EXPECT_NE(a.CacheKey(), d.CacheKey());
  // A different table (different column objects) never collides.
  TablePtr t2 = MakeTable(100);
  SortKeyPlan e(*t2, order, SortKeyPlan::kDeferKeys);
  EXPECT_NE(a.CacheKey(), e.CacheKey());
}

TEST(SortKeyPlanDeferred, FinalizeEncodingsMatchesColdBuildDecisions) {
  // The standalone shape pass and the fused cold-build pass must reach
  // identical decisions — here for the nastiest case, an INT64_MAX date
  // (saturated, inexact single shape).
  ColumnBuilder b(DataKind::kDate);
  b.AppendDate(std::numeric_limits<int64_t>::max());
  b.AppendDate(0);
  b.AppendMissing();
  TablePtr t = Table::Create(Schema({{"t", DataKind::kDate}}), {b.Finish()});
  RecordOrder order({{"t", true}});
  SortKeyPlan standalone(*t, order, SortKeyPlan::kDeferKeys);
  standalone.FinalizeEncodings();
  SortKeyPlan fused(*t, order, SortKeyPlan::kDeferKeys);
  fused.AdoptKeys(fused.BuildKeys());
  EXPECT_TRUE(standalone.encodings_ready());
  EXPECT_TRUE(fused.encodings_ready());
  EXPECT_FALSE(fused.exact());
  EXPECT_EQ(standalone.exact(), fused.exact());
  EXPECT_EQ(standalone.packed(), fused.packed());
  EXPECT_EQ(standalone.TotalOrder(), fused.TotalOrder());
  EXPECT_EQ(standalone.tie_order().size(), fused.tie_order().size());
}

TEST(SortKeyCache, MissThenHitThenClear) {
  TablePtr t = MakeTable(300);
  RecordOrder order({{"x", true}});
  SortKeyCache cache;
  SortKeyPlan plan(*t, order, SortKeyPlan::kDeferKeys);
  ASSERT_TRUE(plan.valid());

  EXPECT_EQ(cache.GetOrBuild(plan, /*build_allowed=*/false), nullptr);
  EXPECT_EQ(cache.Snapshot().misses, 1);
  EXPECT_EQ(cache.Snapshot().hits, 0);

  auto keys = plan.BuildKeys();
  cache.Put(plan, keys, cache.generation());
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
  EXPECT_EQ(cache.Snapshot().misses, 2);
}

TEST(SortKeyCache, ClearInvalidatesInFlightPuts) {
  // A crash/eviction (Clear) racing an in-flight Summarize must win: the
  // Put carrying a pre-Clear generation is discarded, so evicted soft state
  // cannot sneak back into the byte budget.
  TablePtr t = MakeTable(250);
  SortKeyCache cache;
  SortKeyPlan plan(*t, RecordOrder({{"x", true}}), SortKeyPlan::kDeferKeys);
  uint64_t generation = cache.generation();
  auto keys = plan.BuildKeys();
  cache.Clear();  // the memory manager fires mid-scan
  cache.Put(plan, keys, generation);
  EXPECT_EQ(cache.Snapshot().entries, 0u);
  EXPECT_EQ(cache.Snapshot().bytes_used, 0u);
  // A Put under the current generation is accepted again.
  cache.Put(plan, keys, cache.generation());
  EXPECT_EQ(cache.Snapshot().entries, 1u);
}

TEST(SortKeyCache, HitRestoresEncodingsWithoutPrePasses) {
  // Packed-candidate orders need O(n) pre-passes to finalize their shape; a
  // cache hit must restore that shape from the stored snapshot instead.
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
  SortKeyPlan filler(*t, order, SortKeyPlan::kDeferKeys);
  auto built = filler.BuildKeys();
  cache.Put(filler, built, cache.generation());
  ASSERT_TRUE(filler.packed());

  SortKeyPlan reader(*t, order, SortKeyPlan::kDeferKeys);
  EXPECT_FALSE(reader.encodings_ready());
  auto keys = cache.GetOrBuild(reader, /*build_allowed=*/false);
  ASSERT_NE(keys, nullptr);
  EXPECT_TRUE(reader.encodings_ready());
  EXPECT_TRUE(reader.packed());
  EXPECT_EQ(reader.TotalOrder(), filler.TotalOrder());
  EXPECT_EQ(reader.exact(), filler.exact());
  reader.AdoptKeys(keys);
  EXPECT_EQ(reader.keys(), *built);
}

TEST(SortKeyCache, EncodingSnapshotSurvivesUncacheableKeys) {
  // A very wide view whose key vector exceeds the whole byte budget is never
  // cached — but its packed-transform min/max pre-pass decisions are tiny
  // and live in the encoding side-cache, so a rescan skips the O(n)
  // pre-passes even though it must rebuild the keys.
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
  SortKeyCache cache(/*max_bytes=*/10 * sizeof(uint64_t));  // 200 > 10
  SortKeyPlan filler(*t, order, SortKeyPlan::kDeferKeys);
  cache.Put(filler, filler.BuildKeys(), cache.generation());
  ASSERT_TRUE(filler.packed());
  EXPECT_EQ(cache.Snapshot().entries, 0u);  // keys refused: over budget

  SortKeyPlan reader(*t, order, SortKeyPlan::kDeferKeys);
  EXPECT_FALSE(reader.encodings_ready());
  // Still a key miss...
  EXPECT_EQ(cache.GetOrBuild(reader, /*build_allowed=*/false), nullptr);
  EXPECT_TRUE(reader.encodings_ready());  // ...but the shape was adopted
  EXPECT_EQ(cache.Snapshot().encoding_hits, 1);
  EXPECT_EQ(reader.packed(), filler.packed());
  EXPECT_EQ(reader.TotalOrder(), filler.TotalOrder());
  EXPECT_EQ(reader.exact(), filler.exact());
  // Snapshots are soft state like everything else: Clear() drops them.
  cache.Clear();
  SortKeyPlan later(*t, order, SortKeyPlan::kDeferKeys);
  EXPECT_EQ(cache.GetOrBuild(later, /*build_allowed=*/false), nullptr);
  EXPECT_FALSE(later.encodings_ready());
}

TEST(SortKeyCache, GetOrBuildKeysFillsOnceAndHonorsTheGate) {
  TablePtr t = MakeTable(200);
  SortKeyCache cache;
  RecordOrder order({{"x", true}});
  SortKeyPlan plan(*t, order, SortKeyPlan::kDeferKeys);
  // Build not allowed (the caller's density gate said no) and nothing
  // cached: no keys, and nothing inserted.
  EXPECT_EQ(GetOrBuildKeys(&cache, plan, /*build_allowed=*/false), nullptr);
  EXPECT_EQ(cache.Snapshot().entries, 0u);
  auto first = GetOrBuildKeys(&cache, plan, /*build_allowed=*/true);
  ASSERT_NE(first, nullptr);
  SortKeyPlan again(*t, order, SortKeyPlan::kDeferKeys);
  // A hit serves cached keys even when a build would not be allowed.
  auto second = GetOrBuildKeys(&cache, again, /*build_allowed=*/false);
  EXPECT_EQ(first.get(), second.get());
  EXPECT_EQ(cache.Snapshot().misses, 2);
  EXPECT_EQ(cache.Snapshot().hits, 1);
  // Cache-less callers build directly (when allowed).
  SortKeyPlan lone(*t, order, SortKeyPlan::kDeferKeys);
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
      SortKeyPlan plan(*t, order, SortKeyPlan::kDeferKeys);
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
  SortKeyPlan later(*t, order, SortKeyPlan::kDeferKeys);
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
      SortKeyPlan plan(*t, order, SortKeyPlan::kDeferKeys);
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
    SortKeyPlan plan(*t, order, SortKeyPlan::kDeferKeys);
    EXPECT_THROW(cache.GetOrBuild(plan, /*build_allowed=*/true),
                 std::runtime_error);
  });
  while (builds.load() == 0) std::this_thread::yield();
  std::vector<SortKeyCache::KeysPtr> results(kWaiters);
  std::vector<std::thread> waiters;
  waiters.reserve(kWaiters);
  for (int i = 0; i < kWaiters; ++i) {
    waiters.emplace_back([&, i] {
      SortKeyPlan plan(*t, order, SortKeyPlan::kDeferKeys);
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
  SortKeyPlan later(*t, order, SortKeyPlan::kDeferKeys);
  EXPECT_EQ(cache.GetOrBuild(later, /*build_allowed=*/false).get(),
            results[0].get());
}

TEST(SortKeyCache, GetOrBuildWithoutPermissionOrFlightReturnsNull) {
  TablePtr t = MakeTable(100);
  SortKeyCache cache;
  SortKeyPlan plan(*t, RecordOrder({{"x", true}}), SortKeyPlan::kDeferKeys);
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
  SortKeyPlan pa(*a, order, SortKeyPlan::kDeferKeys);
  SortKeyPlan pb(*b, order, SortKeyPlan::kDeferKeys);
  SortKeyPlan pc(*c, order, SortKeyPlan::kDeferKeys);
  cache.Put(pa, pa.BuildKeys(), cache.generation());
  cache.Put(pb, pb.BuildKeys(), cache.generation());
  EXPECT_EQ(cache.Snapshot().entries, 2u);
  // Touch a so b becomes the LRU victim.
  EXPECT_NE(cache.GetOrBuild(pa, /*build_allowed=*/false), nullptr);
  cache.Put(pc, pc.BuildKeys(), cache.generation());
  EXPECT_EQ(cache.Snapshot().entries, 2u);
  EXPECT_EQ(cache.Snapshot().evictions, 1);
  EXPECT_NE(cache.GetOrBuild(pa, /*build_allowed=*/false), nullptr);
  EXPECT_NE(cache.GetOrBuild(pc, /*build_allowed=*/false), nullptr);
  EXPECT_EQ(cache.GetOrBuild(pb, /*build_allowed=*/false), nullptr);  // gone
  // An entry larger than the whole budget is not cached at all.
  TablePtr big = MakeTable(500, 4);
  SortKeyPlan pbig(*big, order, SortKeyPlan::kDeferKeys);
  cache.Put(pbig, pbig.BuildKeys(), cache.generation());
  EXPECT_EQ(cache.GetOrBuild(pbig, /*build_allowed=*/false), nullptr);
}

TEST(SortKeyCache, DeadColumnsAreNeverServed) {
  SortKeyCache cache;
  RecordOrder order({{"x", true}});
  {
    TablePtr t = MakeTable(150);
    SortKeyPlan plan(*t, order, SortKeyPlan::kDeferKeys);
    cache.Put(plan, plan.BuildKeys(), cache.generation());
    EXPECT_EQ(cache.Snapshot().entries, 1u);
  }
  // The table (and its columns) died; even if a new column were allocated at
  // the same address, the expired weak reference blocks the stale entry.
  // We can't force an address collision portably, so assert the guard
  // machinery: a fresh same-shape table must miss, and the stale entry is
  // dropped when a lookup would have matched it only by address reuse.
  TablePtr fresh = MakeTable(150);
  SortKeyPlan plan(*fresh, order, SortKeyPlan::kDeferKeys);
  EXPECT_EQ(cache.GetOrBuild(plan, /*build_allowed=*/false), nullptr);
  EXPECT_EQ(cache.Snapshot().misses, 1);
}

TEST(SortKeyCache, FilterDerivedTablesShareTheParentEntry) {
  // Derived tables share column objects and differ only in membership; keys
  // cover the whole universe, so a zoomed view hits the pre-zoom entry.
  TablePtr t = MakeTable(400);
  TablePtr zoomed = t->Filter([](uint32_t r) { return r % 2 == 0; });
  RecordOrder order({{"x", true}});
  SortKeyCache cache;
  SortKeyPlan full_plan(*t, order, SortKeyPlan::kDeferKeys);
  cache.Put(full_plan, full_plan.BuildKeys(), cache.generation());
  SortKeyPlan zoom_plan(*zoomed, order, SortKeyPlan::kDeferKeys);
  EXPECT_EQ(zoom_plan.CacheKey(), full_plan.CacheKey());
  EXPECT_NE(cache.GetOrBuild(zoom_plan, /*build_allowed=*/false), nullptr);
  EXPECT_EQ(cache.Snapshot().hits, 1);
}

}  // namespace
}  // namespace hillview
