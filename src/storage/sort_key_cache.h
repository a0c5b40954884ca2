#ifndef HILLVIEW_STORAGE_SORT_KEY_CACHE_H_
#define HILLVIEW_STORAGE_SORT_KEY_CACHE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "storage/sort_key.h"
#include "util/single_flight_lru.h"
#include "util/thread_annotations.h"

namespace hillview {

/// Worker-resident cache of built sort keys, the auxiliary structure behind
/// repeated scrolls and zooms of the same sorted view: the first
/// order-based sketch over a (table, order) pair pays the O(universe)
/// SortKeyPlan::BuildKeys pass, every later one adopts the vector and its
/// encodings (§5.4's memoization argument applied below the summary level).
/// Because keys cover the whole universe independent of membership,
/// filter-derived tables that share their parent's columns hit the same
/// entry — a zoom-in scroll reuses the pre-zoom keys.
///
/// This is soft state in the §5.8 sense: Worker::Restart() (crash) and
/// Worker::EvictCaches() (memory manager) both Clear() it, and everything it
/// held is reconstructible by re-running BuildKeys. Memory is bounded by a
/// byte budget (keys are 8 bytes × universe rows — entry counts would be
/// meaningless), evicting least-recently-used entries.
///
/// Entries are keyed by SortKeyPlan::CacheKey() — column object identity
/// plus direction and shape — and additionally hold weak references to the
/// key columns: an entry whose columns have been destroyed is dropped on
/// lookup, so a recycled allocation can never be served stale keys.
///
/// Thread-safe: worker pools summarize partitions concurrently; one mutex
/// guards the SingleFlightLru of built keys and every counter. The only way
/// in is GetOrBuild(), which is *single-flight*: the first thread to miss
/// builds, later threads for the same plan park and adopt the builder's
/// result instead of re-running the O(n) key pass (`coalesced_builds`
/// observes this). A build that raced Clear() still serves its waiters but
/// stays out of the LRU.
class SortKeyCache {
 public:
  using KeysPtr = SortKeyPlan::KeysPtr;

  /// Default byte budget: 128 MB ≈ keys for 16M rows × 8 hot views.
  static constexpr size_t kDefaultMaxBytes = 128u << 20;

  /// One consistent observability snapshot, taken under the lock: reading
  /// counters through individual getters could interleave with a concurrent
  /// scan and report e.g. a hit total from before an eviction next to an
  /// eviction total from after it. A call that adopts another thread's
  /// build counts a miss, a hit and a coalesced build.
  struct Stats {
    size_t entries = 0;
    size_t bytes_used = 0;
    int64_t hits = 0;
    int64_t misses = 0;
    int64_t evictions = 0;
    /// Misses served by another thread's in-flight build instead of a second
    /// O(n) key pass.
    int64_t coalesced_builds = 0;
    /// Threads currently parked on an in-flight build (test observability).
    int64_t waiters = 0;
  };

  explicit SortKeyCache(size_t max_bytes = kDefaultMaxBytes)
      : keys_(max_bytes) {}

  /// Leaves `plan` built and returns its keys: a hit adopts the cached
  /// vector and encodings, skipping every O(n) pass; otherwise the first
  /// caller builds (when `build_allowed`) while concurrent callers for the
  /// same plan that would also have built wait and adopt the builder's
  /// result, even one too large for the budget. Returns nullptr, leaving
  /// the plan unbuilt, when nothing is cached and building is not allowed —
  /// without waiting on an in-flight build, because such callers
  /// (low-density scans) finish faster on the virtual comparator path than
  /// any O(universe) key pass they could wait for.
  KeysPtr GetOrBuild(SortKeyPlan& plan, bool build_allowed) EXCLUDES(mutex_);

  /// Drops everything (crash-restart / cache eviction, §5.8); a build in
  /// flight still serves its waiters, but its keys stay out of the LRU.
  void Clear() EXCLUDES(mutex_);

  /// All counters and sizes, read atomically under the lock. Soft-state
  /// regression tests assert a repeat scroll hits and an eviction resets to
  /// a miss.
  Stats Snapshot() const EXCLUDES(mutex_);

  /// Test hook: invoked by the building thread (unlocked) after it has
  /// registered as the in-flight builder and before it starts the key pass,
  /// so a threaded test can hold the build open until waiters have parked.
  void SetInFlightHookForTest(std::function<void()> hook) EXCLUDES(mutex_);

 private:
  /// A built plan's keys and encodings, with weak references to the columns
  /// they were derived from: an entry whose columns died (and whose
  /// addresses may have been recycled) is never served.
  struct Cached {
    KeysPtr keys;
    SortKeyPlan::Encodings encodings;
    std::vector<std::weak_ptr<const IColumn>> columns;
  };
  using Lru = SingleFlightLru<Cached>;

  /// True when every column `c` was derived from is the live object `plan`
  /// bound.
  static bool Live(const Cached& c, const SortKeyPlan& plan);
  static bool Dead(const Cached& c);

  mutable Mutex mutex_;
  Lru keys_ GUARDED_BY(mutex_);
  std::function<void()> in_flight_hook_ GUARDED_BY(mutex_);
};

/// The one cache-consult sequence shared by every keyed sketch path:
/// cached keys if present (free regardless of density), else a
/// single-flight build when `build_allowed` (the caller's density gate) —
/// concurrent misses on the same plan coalesce on one builder instead of
/// each running the O(n) key pass. `cache` may be null (tests, benches,
/// standalone callers); the plan is then built directly when allowed.
inline SortKeyPlan::KeysPtr GetOrBuildKeys(SortKeyCache* cache,
                                           SortKeyPlan& plan,
                                           bool build_allowed) {
  if (!plan.valid()) return nullptr;
  if (cache == nullptr) {
    return build_allowed ? plan.BuildKeys() : nullptr;
  }
  return cache->GetOrBuild(plan, build_allowed);
}

/// Materializing keys costs O(universe), so a cold build pays off only when
/// the scan touches at least 1 in 2^kKeyedScanDensityShift universe rows.
inline constexpr uint32_t kKeyedScanDensityShift = 4;  // >= 1/16 of universe

/// The keyed-path decision of the order sketches (next-items, quantile): a
/// built plan for `order` over `table` when a scan of `scan_rows` rows
/// should compare through sort keys, nullopt when it should use the
/// virtual comparator. Keys resident in `cache` are free, so a hit goes
/// keyed at any density; a cold build runs only past the density gate.
inline std::optional<SortKeyPlan> KeyedPlan(SortKeyCache* cache,
                                            const Table& table,
                                            const RecordOrder& order,
                                            uint64_t scan_rows) {
  SortKeyPlan plan(table, order);
  const bool profitable =
      scan_rows >= (table.universe_size() >> kKeyedScanDensityShift);
  if (GetOrBuildKeys(cache, plan, profitable) == nullptr) return std::nullopt;
  return plan;
}

}  // namespace hillview

#endif  // HILLVIEW_STORAGE_SORT_KEY_CACHE_H_
