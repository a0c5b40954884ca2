// Concurrency stress suite: hammers the capability-annotated primitives and
// caches under real thread contention. Labeled `concurrency` (not tier1) so
// the TSan CI lane can crank the iteration counts via HILLVIEW_STRESS_ITERS
// while default builds stay fast. Every test is deterministic in its
// assertions — the randomness is only in the interleavings the scheduler
// produces, which is exactly what ThreadSanitizer inspects.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <functional>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "cluster/root.h"
#include "core/computation_cache.h"
#include "core/dataset.h"
#include "sketch/histogram.h"
#include "sketch/morsel.h"
#include "sketch/next_items.h"
#include "sketch/range_moments.h"
#include "storage/sort_key.h"
#include "storage/sort_key_cache.h"
#include "storage/table.h"
#include "test_util.h"
#include "util/thread_pool.h"

namespace hillview {
namespace {

using testing::MakeDoubleTable;
using testing::SplitValues;
using testing::TestCluster;
using testing::UniformDoubles;

/// Iteration multiplier: 1 by default (fast local runs), raised by the TSan
/// CI lane (HILLVIEW_STRESS_ITERS=20) where the point is to expose the
/// sanitizer to as many interleavings as the time budget allows.
int StressIters() {
  const char* env = std::getenv("HILLVIEW_STRESS_ITERS");
  if (env == nullptr) return 1;
  int iters = std::atoi(env);
  return iters < 1 ? 1 : iters;
}

TablePtr MakeTable(uint32_t n, uint64_t salt = 0) {
  std::vector<double> values(n);
  for (uint32_t r = 0; r < n; ++r) {
    values[r] = static_cast<double>((r * 2654435761u + salt) % 1000);
  }
  return MakeDoubleTable("x", values);
}

// Many threads race GetOrBuild on the same plan while another thread
// repeatedly Clear()s the cache (the crash/eviction path). Single-flight
// must hold: every caller gets a usable key vector, and no interleaving
// corrupts the in-flight table or loses a waiter.
TEST(ConcurrencyStress, SortKeyCacheGetOrBuildVsClear) {
  const int rounds = 8 * StressIters();
  for (int round = 0; round < rounds; ++round) {
    TablePtr t = MakeTable(2000, static_cast<uint64_t>(round));
    RecordOrder order({{"x", true}});
    SortKeyCache cache;
    constexpr int kThreads = 8;

    std::atomic<bool> stop{false};
    std::thread clearer([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        cache.Clear();
        std::this_thread::yield();
      }
    });

    std::atomic<int> served{0};
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int i = 0; i < kThreads; ++i) {
      threads.emplace_back([&] {
        for (int iter = 0; iter < 20; ++iter) {
          SortKeyPlan plan(*t, order);
          auto keys = cache.GetOrBuild(plan, /*build_allowed=*/true);
          ASSERT_NE(keys, nullptr);
          ASSERT_EQ(keys->size(), 2000u);
          served.fetch_add(1, std::memory_order_relaxed);
        }
      });
    }
    for (auto& th : threads) th.join();
    stop = true;
    clearer.join();

    EXPECT_EQ(served.load(), kThreads * 20);
    // Counter invariant: every logical call recorded at least one hit or
    // miss (a coalesced call records its initial miss plus the hit when it
    // adopts the builder's vector, so the sum can exceed the call count),
    // and no waiter is left parked.
    auto stats = cache.Snapshot();
    EXPECT_GE(stats.hits + stats.misses, kThreads * 20);
    EXPECT_EQ(stats.waiters, 0);
  }
}

// Insert/evict/lookup/Snapshot hammer on a tiny-LRU ComputationCache: the
// map, LRU list and counters share one capability, so any torn update shows
// up as a TSan report or a broken Snapshot invariant.
TEST(ConcurrencyStress, ComputationCacheInsertEvictLookup) {
  const int rounds = 4 * StressIters();
  for (int round = 0; round < rounds; ++round) {
    ComputationCache cache(/*max_entries=*/8);
    constexpr int kThreads = 6;
    constexpr int kOpsPerThread = 400;

    std::atomic<int64_t> lookups{0};
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int i = 0; i < kThreads; ++i) {
      threads.emplace_back([&, i] {
        for (int op = 0; op < kOpsPerThread; ++op) {
          std::string key = ComputationCache::Key(
              "ds", "sketch" + std::to_string((i * 7 + op) % 32), 0);
          if (op % 3 == 0) {
            lookups.fetch_add(1);
            testing::CacheInsert(cache, key, AnySummary::Wrap<int>(op));
          } else if (op % 3 == 1) {
            lookups.fetch_add(1);
            auto hit = testing::CacheLookup(cache, key);
            if (hit.has_value()) {
              // A served summary must be intact, never a torn entry.
              ASSERT_NE(hit->TryAs<int>(), nullptr);
            }
          } else {
            auto stats = cache.Snapshot();
            ASSERT_LE(stats.entries, 8u);
            ASSERT_GE(stats.hits, 0);
            ASSERT_GE(stats.misses, 0);
          }
        }
      });
    }
    for (auto& th : threads) th.join();

    auto stats = cache.Snapshot();
    EXPECT_LE(stats.entries, 8u);
    // Every lookup (inserts look up first) counts exactly one outcome.
    EXPECT_EQ(stats.hits + stats.misses + stats.coalesced_hits,
              lookups.load());
  }
}

// Regression for the shutdown/submit race: Submit must reliably report
// acceptance. Every task the pool accepted runs exactly once, every rejected
// Submit returns false, and once Shutdown() has returned no Submit ever
// succeeds again.
TEST(ConcurrencyStress, ThreadPoolSubmitDuringShutdown) {
  const int rounds = 20 * StressIters();
  for (int round = 0; round < rounds; ++round) {
    auto pool = std::make_unique<ThreadPool>(3);
    std::atomic<int> executed{0};
    std::atomic<int> accepted{0};
    std::atomic<bool> start{false};

    constexpr int kSubmitters = 4;
    std::vector<std::thread> submitters;
    submitters.reserve(kSubmitters);
    for (int i = 0; i < kSubmitters; ++i) {
      submitters.emplace_back([&] {
        while (!start.load(std::memory_order_acquire)) std::this_thread::yield();
        for (int s = 0; s < 50; ++s) {
          if (pool->Submit([&] {
                executed.fetch_add(1, std::memory_order_relaxed);
              })) {
            accepted.fetch_add(1, std::memory_order_relaxed);
          }
        }
      });
    }

    start.store(true, std::memory_order_release);
    if (round % 2 == 0) std::this_thread::yield();
    pool->Shutdown();  // races the submitters; drains whatever was accepted

    // After Shutdown has returned the pool must refuse all work.
    EXPECT_FALSE(pool->Submit([] {}));

    for (auto& th : submitters) th.join();
    pool.reset();  // joins: every accepted task has now run
    EXPECT_EQ(executed.load(), accepted.load());
    EXPECT_LE(accepted.load(), kSubmitters * 50);
  }
}

// Progressive partial-result streaming from a real execution tree: subscriber
// callbacks, the aggregation window timer and leaf completions all touch the
// Stream's guarded state from different threads. Progress must stay monotone
// and the final summary exact.
TEST(ConcurrencyStress, ParallelDataSetProgressiveStreaming) {
  const int rounds = 6 * StressIters();
  for (int round = 0; round < rounds; ++round) {
    ThreadPool pool(4);
    std::vector<DataSetPtr> children;
    constexpr int kParts = 12;
    for (int i = 0; i < kParts; ++i) {
      children.push_back(LocalDataSet::FromTable(MakeDoubleTable(
          "x", UniformDoubles(200, 0, 1, static_cast<uint64_t>(i)))));
    }
    ParallelDataSet::Options options;
    options.aggregation_window_ms = (round % 2 == 0) ? 0.0 : 1.0;
    options.progressive = true;
    ParallelDataSet parallel(std::move(children), &pool, options);

    auto stream =
        RunTypedSketch<CountResult>(parallel, std::make_shared<CountSketch>());
    std::vector<double> progress;
    Mutex mu;
    stream->Subscribe([&](const PartialResult<CountResult>& p) {
      MutexLock lock(mu);
      progress.push_back(p.progress);
    });
    auto last = stream->BlockingLast();
    ASSERT_TRUE(stream->final_status().ok());
    ASSERT_TRUE(last.has_value());
    EXPECT_EQ(last->value.rows, kParts * 200);

    MutexLock lock(mu);
    ASSERT_FALSE(progress.empty());
    for (size_t i = 1; i < progress.size(); ++i) {
      ASSERT_GE(progress[i], progress[i - 1]) << "tick " << i;
    }
    EXPECT_DOUBLE_EQ(progress.back(), 1.0);
  }
}

/// Paces worker crashes against the queries they race. A restart may land
/// only once every querier has finished a query that began after the
/// previous restart, so no query spans more than one crash — which a single
/// heal mends, well inside the default retry budget — however the threads
/// are scheduled. Unpaced, crashes outrun heals on many cores and barely
/// land at all on one.
class CrashPacer {
 public:
  explicit CrashPacer(int queriers)
      : caught_up_(static_cast<size_t>(queriers), -1) {}

  /// The restart count a query starts under; its epoch.
  int64_t BeginQuery() const EXCLUDES(mutex_) {
    MutexLock lock(mutex_);
    return restarts_;
  }

  /// Records that `querier` finished a query begun in `epoch`.
  void EndQuery(int querier, int64_t epoch) EXCLUDES(mutex_) {
    MutexLock lock(mutex_);
    caught_up_[static_cast<size_t>(querier)] = epoch;
  }

  /// Stops waiting on `querier`, which will start no more queries.
  void Retire(int querier) { EndQuery(querier, kRetired); }

  /// Restarts the next worker in rotation if some querier is still running
  /// and every querier has caught up with the previous restart. Holding the
  /// lock across Restart() keeps any query from reading the new epoch before
  /// the crash has landed.
  void TryRestart(const std::vector<cluster::WorkerPtr>& workers)
      EXCLUDES(mutex_) {
    MutexLock lock(mutex_);
    bool any_running = false;
    for (int64_t epoch : caught_up_) {
      if (epoch < restarts_) return;
      any_running |= epoch != kRetired;
    }
    if (!any_running) return;
    workers[static_cast<size_t>(restarts_) % workers.size()]->Restart();
    ++restarts_;
  }

  int64_t restarts() const EXCLUDES(mutex_) {
    MutexLock lock(mutex_);
    return restarts_;
  }

 private:
  static constexpr int64_t kRetired = std::numeric_limits<int64_t>::max();

  mutable Mutex mutex_;
  std::vector<int64_t> caught_up_ GUARDED_BY(mutex_);
  int64_t restarts_ GUARDED_BY(mutex_) = 0;
};

constexpr int kQueriers = 3;
constexpr int kQueryIters = 10;
constexpr int64_t kMinRestarts = 8;

/// Races kQueriers threads, each running `query(querier, iteration)`,
/// against an evictor on `workers`. Evictions (the memory manager dropping
/// tables and key caches) run free; crash-restarts are paced by a
/// CrashPacer. Every querier runs at least kQueryIters queries and keeps
/// going until kMinRestarts restarts have landed, so each round crashes
/// workers under live queries on one CPU as on many. Returns the round's
/// restart count.
int64_t RaceQueriesAgainstCrashes(
    const std::vector<cluster::WorkerPtr>& workers,
    const std::function<void(int, int)>& query) {
  CrashPacer pacer(kQueriers);
  std::atomic<bool> stop{false};
  std::thread evictor([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      for (const auto& w : workers) w->EvictCaches();
      pacer.TryRestart(workers);
      std::this_thread::yield();
    }
  });

  std::vector<std::thread> queriers;
  queriers.reserve(kQueriers);
  for (int q = 0; q < kQueriers; ++q) {
    queriers.emplace_back([&, q] {
      for (int iter = 0;
           iter < kQueryIters || pacer.restarts() < kMinRestarts; ++iter) {
        const int64_t epoch = pacer.BeginQuery();
        query(q, iter);
        pacer.EndQuery(q, epoch);
      }
      pacer.Retire(q);
    });
  }
  for (auto& th : queriers) th.join();
  stop = true;
  evictor.join();
  return pacer.restarts();
}

// Worker soft-state teardown racing in-flight queries: EvictCaches() and
// Restart() fire while sorted-scroll sketches stream through the workers'
// sort-key caches. Results must stay correct (lineage heals restarts)
// and the cache's generation check must keep evicted state from resurfacing.
TEST(ConcurrencyStress, WorkerEvictCachesRacingSummarize) {
  const int rounds = 4 * StressIters();
  for (int round = 0; round < rounds; ++round) {
    auto values = UniformDoubles(8000, 0, 100, 17 + round);
    std::vector<TablePtr> partitions;
    for (const auto& chunk : SplitValues(values, 4)) {
      partitions.push_back(MakeDoubleTable("x", chunk));
    }
    auto tc = TestCluster::Create(partitions, /*workers=*/2, /*threads=*/2);
    ASSERT_NE(tc, nullptr);

    auto scroll_at = [](double start) {
      return std::make_shared<NextItemsSketch>(
          RecordOrder({{"x", true}}), std::vector<std::string>{},
          std::optional<std::vector<Value>>{{Value(start)}}, 20);
    };

    // Reference run before any interference.
    auto expected = tc->root->RunSketch<NextItemsResult>("data",
                                                         scroll_at(50.0));
    ASSERT_TRUE(expected.ok());

    // Crashes drop datasets (lineage heals them on demand); evictions
    // drop tables and key caches.
    const int64_t restarts =
        RaceQueriesAgainstCrashes(tc->workers, [&](int q, int iter) {
          double start = 25.0 * (1 + (q + iter) % 3);  // 25 / 50 / 75
          auto r = tc->root->RunSketch<NextItemsResult>("data",
                                                        scroll_at(start));
          ASSERT_TRUE(r.ok()) << r.status().ToString();
          if (start == 50.0) {
            ASSERT_EQ(r.value().rows.size(), expected.value().rows.size());
            ASSERT_EQ(r.value().rows_before, expected.value().rows_before);
          }
        });
    EXPECT_GE(restarts, kMinRestarts);
    RecordProperty("round" + std::to_string(round) + "_restarts",
                   std::to_string(restarts));
  }
}

// Morsel fan-out racing worker teardown: with the morsel threshold lowered,
// every streaming-histogram summarize splits its partition into dozens of
// morsels that run on the worker's own pool (shared with the partition
// tasks, via ParallelApply's caller participation) while EvictCaches() and
// Restart() rip the soft state out from under them. Results must stay exact
// and byte-stable: the morsel merge is deterministic, so every query returns
// the identical histogram no matter the interleaving.
TEST(ConcurrencyStress, MorselFanOutRacingEvictAndRestart) {
  SetMorselMinRowsForTest(64);
  const int rounds = 4 * StressIters();
  for (int round = 0; round < rounds; ++round) {
    auto values = UniformDoubles(8000, 0, 100, 23 + round);
    std::vector<TablePtr> partitions;
    for (const auto& chunk : SplitValues(values, 4)) {
      partitions.push_back(MakeDoubleTable("x", chunk));
    }
    auto tc = TestCluster::Create(partitions, /*workers=*/2, /*threads=*/2);
    ASSERT_NE(tc, nullptr);

    auto make_sketch = [] {
      return std::make_shared<StreamingHistogramSketch>(
          "x", Buckets(NumericBuckets(0, 100, 16)));
    };

    // Reference run before any interference; morsels are already active
    // here, so this also pins the byte-deterministic merge order.
    auto expected =
        tc->root->RunSketch<HistogramResult>("data", make_sketch());
    ASSERT_TRUE(expected.ok());

    const int64_t restarts =
        RaceQueriesAgainstCrashes(tc->workers, [&](int, int) {
          auto r = tc->root->RunSketch<HistogramResult>("data", make_sketch());
          ASSERT_TRUE(r.ok()) << r.status().ToString();
          ASSERT_EQ(r.value().counts, expected.value().counts);
          ASSERT_EQ(r.value().missing, expected.value().missing);
          ASSERT_EQ(r.value().rows_scanned, expected.value().rows_scanned);
        });
    EXPECT_GE(restarts, kMinRestarts);
    RecordProperty("round" + std::to_string(round) + "_restarts",
                   std::to_string(restarts));
  }
  SetMorselMinRowsForTest(0);
}

}  // namespace
}  // namespace hillview
