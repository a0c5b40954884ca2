#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "util/random.h"
#include "util/serialize.h"
#include "util/single_flight_lru.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace hillview {
namespace {

TEST(Status, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(Status, CarriesCodeAndMessage) {
  Status s = Status::IoError("disk on fire");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kIoError);
  EXPECT_EQ(s.message(), "disk on fire");
  EXPECT_EQ(s.ToString(), "IoError: disk on fire");
}

TEST(Status, AllCodesHaveNames) {
  for (int c = 0; c <= static_cast<int>(StatusCode::kInternal); ++c) {
    EXPECT_STRNE(StatusCodeName(static_cast<StatusCode>(c)), "Unknown");
  }
}

TEST(Result, HoldsValue) {
  Result<int> r(42);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 42);
  EXPECT_EQ(r.value_or(-1), 42);
}

TEST(Result, HoldsError) {
  Result<int> r(Status::NotFound("nope"));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(r.value_or(-1), -1);
}

Result<int> Doubler(Result<int> in) {
  HV_ASSIGN_OR_RETURN(int v, in);
  return v * 2;
}

TEST(Result, AssignOrReturnMacro) {
  EXPECT_EQ(Doubler(21).value(), 42);
  EXPECT_FALSE(Doubler(Status::Internal("x")).ok());
}

TEST(Random, Deterministic) {
  Random a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.NextUint64(), b.NextUint64());
}

TEST(Random, DifferentSeedsDiffer) {
  Random a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.NextUint64() == b.NextUint64()) ++same;
  }
  EXPECT_EQ(same, 0);
}

TEST(Random, BoundedIsInRange) {
  Random rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.NextUint64(10), 10u);
  }
}

TEST(Random, BoundedIsRoughlyUniform) {
  Random rng(11);
  std::vector<int> counts(8, 0);
  const int kTrials = 80000;
  for (int i = 0; i < kTrials; ++i) ++counts[rng.NextUint64(8)];
  for (int c : counts) {
    EXPECT_NEAR(c, kTrials / 8, kTrials / 8 * 0.1);
  }
}

TEST(Random, DoubleInUnitInterval) {
  Random rng(13);
  for (int i = 0; i < 1000; ++i) {
    double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Random, GeometricSkipMeanMatchesRate) {
  // Bernoulli(p) sampling via geometric skips: the expected gap between
  // samples is 1/p, so skip mean should be 1/p - 1.
  Random rng(17);
  const double p = 0.01;
  const int kTrials = 20000;
  double total = 0;
  for (int i = 0; i < kTrials; ++i) {
    total += static_cast<double>(rng.NextGeometricSkip(p));
  }
  double mean = total / kTrials;
  EXPECT_NEAR(mean, 1.0 / p - 1.0, 5.0);
}

TEST(Random, GeometricSkipEdgeRates) {
  Random rng(19);
  EXPECT_EQ(rng.NextGeometricSkip(1.0), 0u);
  EXPECT_EQ(rng.NextGeometricSkip(1.5), 0u);
  EXPECT_EQ(rng.NextGeometricSkip(0.0), ~0ULL);
}

TEST(Random, MixSeedSpreads) {
  std::set<uint64_t> seen;
  for (uint64_t i = 0; i < 1000; ++i) seen.insert(MixSeed(42, i));
  EXPECT_EQ(seen.size(), 1000u);
}

TEST(Random, HashBytesStable) {
  std::string s = "hello world";
  EXPECT_EQ(HashBytes(s.data(), s.size()), HashBytes(s.data(), s.size()));
  EXPECT_NE(HashBytes(s.data(), s.size()), HashBytes(s.data(), s.size(), 1));
}

TEST(Serialize, RoundTripScalars) {
  ByteWriter w;
  w.WriteU8(200);
  w.WriteU32(123456);
  w.WriteU64(1ULL << 40);
  w.WriteI32(-7);
  w.WriteI64(-(1LL << 40));
  w.WriteDouble(3.25);
  w.WriteBool(true);
  w.WriteString("spreadsheet");

  ByteReader r(w.bytes());
  uint8_t u8;
  uint32_t u32;
  uint64_t u64;
  int32_t i32;
  int64_t i64;
  double d;
  bool b;
  std::string s;
  ASSERT_TRUE(r.ReadU8(&u8).ok());
  ASSERT_TRUE(r.ReadU32(&u32).ok());
  ASSERT_TRUE(r.ReadU64(&u64).ok());
  ASSERT_TRUE(r.ReadI32(&i32).ok());
  ASSERT_TRUE(r.ReadI64(&i64).ok());
  ASSERT_TRUE(r.ReadDouble(&d).ok());
  ASSERT_TRUE(r.ReadBool(&b).ok());
  ASSERT_TRUE(r.ReadString(&s).ok());
  EXPECT_EQ(u8, 200);
  EXPECT_EQ(u32, 123456u);
  EXPECT_EQ(u64, 1ULL << 40);
  EXPECT_EQ(i32, -7);
  EXPECT_EQ(i64, -(1LL << 40));
  EXPECT_EQ(d, 3.25);
  EXPECT_TRUE(b);
  EXPECT_EQ(s, "spreadsheet");
  EXPECT_TRUE(r.AtEnd());
}

TEST(Serialize, RoundTripPodVector) {
  ByteWriter w;
  std::vector<int64_t> v = {1, -2, 3000000000LL};
  w.WritePodVector(v);
  ByteReader r(w.bytes());
  std::vector<int64_t> out;
  ASSERT_TRUE(r.ReadPodVector(&out).ok());
  EXPECT_EQ(out, v);
}

TEST(Serialize, TruncationDetected) {
  ByteWriter w;
  w.WriteU64(99);
  ByteReader r(w.bytes().data(), 3);  // cut short
  uint64_t v;
  EXPECT_EQ(r.ReadU64(&v).code(), StatusCode::kOutOfRange);
}

TEST(Serialize, TruncatedStringDetected) {
  ByteWriter w;
  w.WriteString("abcdef");
  ByteReader r(w.bytes().data(), 6);
  std::string s;
  EXPECT_FALSE(r.ReadString(&s).ok());
}

TEST(ThreadPool, RunsAllTasks) {
  ThreadPool pool(4);
  std::atomic<int> count{0};
  for (int i = 0; i < 100; ++i) {
    pool.Submit([&count] { count.fetch_add(1); });
  }
  pool.Wait();
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPool, WaitIsReusable) {
  ThreadPool pool(2);
  std::atomic<int> count{0};
  pool.Submit([&count] { count.fetch_add(1); });
  pool.Wait();
  EXPECT_EQ(count.load(), 1);
  pool.Submit([&count] { count.fetch_add(1); });
  pool.Wait();
  EXPECT_EQ(count.load(), 2);
}

TEST(ThreadPool, ParallelismIsReal) {
  // Two tasks that each wait for the other can only finish with >= 2
  // threads actually running concurrently.
  ThreadPool pool(2);
  std::atomic<int> arrived{0};
  auto rendezvous = [&arrived] {
    arrived.fetch_add(1);
    while (arrived.load() < 2) std::this_thread::yield();
  };
  pool.Submit(rendezvous);
  pool.Submit(rendezvous);
  pool.Wait();
  EXPECT_EQ(arrived.load(), 2);
}

TEST(ThreadPool, ShutdownIsIdempotent) {
  ThreadPool pool(2);
  pool.Submit([] {});
  pool.Shutdown();
  pool.Shutdown();
}

// A cache shaped like ComputationCache and SortKeyCache: one mutex guards
// the protocol, and every call takes it.
class IntCache {
 public:
  using Lru = SingleFlightLru<int>;
  using Outcome = Lru::Outcome;

  IntCache() : lru_(/*budget=*/16) {}

  Outcome Get(const std::string& key, int* value, bool may_own = true) {
    MutexLock lock(mutex_);
    return lru_.Acquire(mutex_, key, may_own,
                        [value](int v) { *value = v; });
  }
  bool Finish(const std::string& key, std::optional<int> value) {
    MutexLock lock(mutex_);
    return lru_.Finish(key, value, /*cost=*/1);
  }
  void Clear() {
    MutexLock lock(mutex_);
    lru_.Clear();
  }
  Lru::Counters counters() {
    MutexLock lock(mutex_);
    return lru_.counters();
  }
  size_t size() {
    MutexLock lock(mutex_);
    return lru_.size();
  }
  void AwaitWaiters(int64_t n) {
    while (counters().waiters < n) std::this_thread::yield();
  }

 private:
  Mutex mutex_;
  Lru lru_ GUARDED_BY(mutex_);
};

// N waiters are parked on a flight whose owner finishes empty (a degraded,
// cancelled or failed computation). Exactly one waiter is re-elected owner;
// the others park again on its flight and adopt its value.
TEST(SingleFlightLru, EmptyFinishReElectsExactlyOneParkedWaiter) {
  IntCache cache;
  int unused = 0;
  ASSERT_EQ(cache.Get("k", &unused), IntCache::Outcome::kOwner);
  constexpr int kWaiters = 5;
  std::vector<IntCache::Outcome> outcomes(kWaiters);
  std::vector<int> values(kWaiters, -1);
  std::vector<std::thread> threads;
  threads.reserve(kWaiters);
  for (int i = 0; i < kWaiters; ++i) {
    threads.emplace_back([&, i] {
      outcomes[i] = cache.Get("k", &values[i]);
      if (outcomes[i] != IntCache::Outcome::kOwner) return;
      // Publish only once every other waiter has parked on this flight, so
      // each of them must adopt rather than find the value cached.
      cache.AwaitWaiters(kWaiters - 1);
      EXPECT_TRUE(cache.Finish("k", 42));
    });
  }
  cache.AwaitWaiters(kWaiters);
  EXPECT_TRUE(cache.Finish("k", std::nullopt));
  for (auto& thread : threads) thread.join();

  int owners = 0;
  for (int i = 0; i < kWaiters; ++i) {
    if (outcomes[i] == IntCache::Outcome::kOwner) {
      ++owners;
    } else {
      EXPECT_EQ(outcomes[i], IntCache::Outcome::kCoalesced) << "waiter " << i;
      EXPECT_EQ(values[i], 42) << "waiter " << i;
    }
  }
  EXPECT_EQ(owners, 1);
  IntCache::Lru::Counters c = cache.counters();
  EXPECT_EQ(c.owners, 2);
  EXPECT_EQ(c.coalesced, kWaiters - 1);
  EXPECT_EQ(c.misses, kWaiters + 1);
  EXPECT_EQ(c.hits, 0);
  EXPECT_EQ(c.waiters, 0);
  EXPECT_EQ(cache.Get("k", &unused), IntCache::Outcome::kHit);
  EXPECT_EQ(unused, 42);
}

// A lookup-only caller never parks on a flight (this test would hang if it
// did), and a flight that began before a Clear() serves its waiters but
// leaves its value out of the LRU.
TEST(SingleFlightLru, LookupOnlyNeverParksAndClearFencesTheFlight) {
  IntCache cache;
  int value = -1;
  ASSERT_EQ(cache.Get("k", &value), IntCache::Outcome::kOwner);
  EXPECT_EQ(cache.Get("k", &value, /*may_own=*/false),
            IntCache::Outcome::kMiss);
  IntCache::Outcome waiter_outcome = IntCache::Outcome::kMiss;
  int waiter_value = -1;
  std::thread waiter(
      [&] { waiter_outcome = cache.Get("k", &waiter_value); });
  cache.AwaitWaiters(1);
  cache.Clear();
  EXPECT_FALSE(cache.Finish("k", 7));
  waiter.join();
  EXPECT_EQ(waiter_outcome, IntCache::Outcome::kCoalesced);
  EXPECT_EQ(waiter_value, 7);
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.Get("k", &value), IntCache::Outcome::kOwner);
  EXPECT_FALSE(cache.Finish("absent", 1));  // no flight: a no-op
}

// The budget is a caller-supplied cost: least recently used entries go
// first, and a value costing more than the whole budget is never cached.
TEST(SingleFlightLru, CostBudgetEvictsLeastRecentlyUsed) {
  Mutex mutex;
  SingleFlightLru<int> lru(/*budget=*/10);
  MutexLock lock(mutex);
  lru.Put("a", 1, 4);
  lru.Put("b", 2, 4);
  int value = 0;
  auto take = [&value](int v) { value = v; };
  EXPECT_EQ(lru.Acquire(mutex, "a", /*may_own=*/false, take),
            SingleFlightLru<int>::Outcome::kHit);  // b is now LRU
  lru.Put("c", 3, 4);
  EXPECT_EQ(lru.size(), 2u);
  EXPECT_EQ(lru.cost(), 8u);
  EXPECT_EQ(lru.counters().evictions, 1);
  EXPECT_EQ(lru.Acquire(mutex, "b", /*may_own=*/false, take),
            SingleFlightLru<int>::Outcome::kMiss);
  lru.Put("huge", 4, 11);
  EXPECT_EQ(lru.size(), 2u);
  lru.EvictIf([](int v) { return v == 3; });
  EXPECT_EQ(lru.size(), 1u);
  EXPECT_EQ(lru.counters().evictions, 2);
}

}  // namespace
}  // namespace hillview
