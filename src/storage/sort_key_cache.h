#ifndef HILLVIEW_STORAGE_SORT_KEY_CACHE_H_
#define HILLVIEW_STORAGE_SORT_KEY_CACHE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "storage/sort_key.h"
#include "util/single_flight_lru.h"
#include "util/thread_annotations.h"

namespace hillview {

/// Worker-resident cache of materialized sort-key columns, the auxiliary
/// structure behind repeated scrolls and zooms of the same sorted view: the
/// first order-based sketch over a (table, order) pair pays the O(universe)
/// key-extraction pass, every later one reuses the vector (§5.4's
/// memoization argument applied below the summary level). Because keys cover
/// the whole universe independent of membership, filter-derived tables that
/// share their parent's columns hit the same entry — a zoom-in scroll reuses
/// the pre-zoom keys.
///
/// This is soft state in the §5.8 sense: Worker::Restart() (crash) and
/// Worker::EvictCaches() (memory manager) both Clear() it, and everything it
/// held is reconstructible by re-running SortKeyPlan::BuildKeys. Memory is
/// bounded by a byte budget (keys are 8 bytes × universe rows — entry counts
/// would be meaningless), evicting least-recently-used entries.
///
/// Entries are keyed by SortKeyPlan::CacheKey() — column object identity
/// plus direction and shape — and additionally hold weak references to the
/// key columns: an entry whose columns have been destroyed is dropped on
/// lookup, so a recycled allocation can never be served stale keys.
///
/// Thread-safe: worker pools summarize partitions concurrently; one mutex
/// guards the SingleFlightLru of key vectors, the encoding side-cache and
/// every counter. Concurrent misses on the same plan are *single-flight*
/// through GetOrBuild(): the first thread builds, later threads park and
/// adopt the builder's vector instead of re-running the O(n) key pass (the
/// `coalesced_builds` counter observes this). Direct Puts may still race
/// benignly; the second replaces the first with an identical vector.
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
    /// Key misses that still skipped the O(n) encoding pre-passes (packed
    /// min/max scans) by adopting a snapshot from the encoding side-cache —
    /// the saving for views whose key vectors are too large to cache.
    int64_t encoding_hits = 0;
  };

  explicit SortKeyCache(size_t max_bytes = kDefaultMaxBytes)
      : keys_(max_bytes) {}

  /// Inserts (or replaces) the keys for `plan` (whose encodings must be
  /// finalized), evicting LRU entries beyond the byte budget. Vectors
  /// larger than the whole budget are not cached. `generation` is the value
  /// of generation() read before the key build: a Clear() in between (crash
  /// / memory-manager eviction racing an in-flight Summarize) invalidates
  /// the insert, so evicted state cannot sneak back into the budget.
  void Put(const SortKeyPlan& plan, KeysPtr keys, uint64_t generation)
      EXCLUDES(mutex_);

  /// The single-flight consult path: cached keys if present (a hit adopts
  /// the entry's encoding snapshot into `plan`, so the caller skips both the
  /// key build and the O(n) encoding pre-passes); otherwise the first caller
  /// builds (when `build_allowed`) while concurrent callers for the same
  /// plan that would also have built wait and adopt the builder's result.
  /// Returns nullptr when nothing is cached and building is not allowed —
  /// without waiting on an in-flight build, because such callers
  /// (low-density scans) finish faster on the virtual comparator path than
  /// any O(universe) key pass they could wait for. A Clear() racing the
  /// build discards the insert as usual; waiters are still served from the
  /// flight and later callers rebuild.
  KeysPtr GetOrBuild(SortKeyPlan& plan, bool build_allowed) EXCLUDES(mutex_);

  /// Drops everything (crash-restart / cache eviction, §5.8) and bumps the
  /// generation so racing Puts are discarded.
  void Clear() EXCLUDES(mutex_);

  /// Monotone counter incremented by Clear(); read it before building keys
  /// and pass it to Put.
  uint64_t generation() const EXCLUDES(mutex_);

  /// All counters and sizes, read atomically under the lock. Soft-state
  /// regression tests assert a repeat scroll hits and an eviction resets to
  /// a miss.
  Stats Snapshot() const EXCLUDES(mutex_);

  /// Test hook: invoked by the building thread (unlocked) after it has
  /// registered as the in-flight builder and before it starts the key pass,
  /// so a threaded test can hold the build open until waiters have parked.
  void SetInFlightHookForTest(std::function<void()> hook) EXCLUDES(mutex_);

 private:
  /// A plan's finalized encodings with weak references to the columns they
  /// were derived from: an entry whose columns died (and whose addresses may
  /// have been recycled) is never served.
  struct Encodings {
    SortKeyPlan::EncodingSnapshot snapshot;
    std::vector<std::weak_ptr<const IColumn>> columns;
  };
  struct Cached {
    KeysPtr keys;
    Encodings encodings;
  };
  using Lru = SingleFlightLru<Cached>;

  static Encodings EncodingsOf(const SortKeyPlan& plan);
  /// True when every column `e` was derived from is the live object `plan`
  /// bound.
  static bool Live(const Encodings& e, const SortKeyPlan& plan);
  static bool Dead(const Encodings& e);

  /// Encoding snapshots are O(components) — a few dozen bytes — so they get
  /// their own side-cache outside the byte budget: even when a key vector is
  /// too large to cache (or was evicted), a rescan of the same very wide
  /// table skips the packed-transform min/max pre-passes. Capped by entry
  /// count; dead entries are swept when it is full.
  static constexpr size_t kMaxEncodingEntries = 256;

  /// Evicts entries whose columns died: they can never be served again, so
  /// they must not squat on the byte budget. Runs before every insert.
  void DropDeadEntriesLocked() REQUIRES(mutex_);
  /// Saves `plan`'s finalized encodings in the side-cache.
  void RecordEncodingsLocked(const std::string& key, const SortKeyPlan& plan)
      REQUIRES(mutex_);
  /// Adopts a live side-cached snapshot into `plan` (a key miss that still
  /// skips the O(n) encoding pre-passes).
  void AdoptEncodingsLocked(const std::string& key, SortKeyPlan& plan)
      REQUIRES(mutex_);

  mutable Mutex mutex_;
  Lru keys_ GUARDED_BY(mutex_);
  std::unordered_map<std::string, Encodings> encodings_ GUARDED_BY(mutex_);
  int64_t encoding_hits_ GUARDED_BY(mutex_) = 0;
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

}  // namespace hillview

#endif  // HILLVIEW_STORAGE_SORT_KEY_CACHE_H_
