#ifndef HILLVIEW_CORE_COMPUTATION_CACHE_H_
#define HILLVIEW_CORE_COMPUTATION_CACHE_H_

#include <cstdint>
#include <optional>
#include <string>
#include <utility>

#include "core/any_sketch.h"
#include "util/single_flight_lru.h"
#include "util/thread_annotations.h"

namespace hillview {

/// Cache of sketch results, "indexed by what mergeable summary was used and
/// what dataset was operated on" (§5.4). Summaries are tiny by construction,
/// so a large number can be cached; eviction is LRU. Only deterministic
/// sketches should be cached (randomized ones are keyed with their seed via
/// the sketch name, so caching them is safe but rarely useful).
///
/// Multi-tenant sharing is the SingleFlightLru protocol at cost 1 per entry:
/// when N sessions race the same key, exactly one becomes the flight owner
/// and computes; the others park and adopt its result (`coalesced_hits`). An
/// owner that finishes WITHOUT a publishable value — degraded coverage,
/// cancellation, an error — releases the flight empty and a waiter is
/// re-elected, so a partial result is never served across sessions and a
/// cancelled winner never starves the losers.
///
/// Thread-safe: one mutex guards the protocol state and every counter;
/// stats are only exposed as a single locked Snapshot().
class ComputationCache {
 public:
  /// One consistent observability snapshot, taken under the lock. Every
  /// GetOrBeginCompute counts exactly one hit, miss or coalesced hit.
  struct Stats {
    size_t entries = 0;
    int64_t hits = 0;
    /// Calls elected owner: computations started.
    int64_t misses = 0;
    int64_t evictions = 0;
    /// Waiters that adopted another caller's in-flight result instead of
    /// recomputing (cross-session single-flight sharing).
    int64_t coalesced_hits = 0;
  };

  explicit ComputationCache(size_t max_entries = 4096)
      : summaries_(max_entries) {}

  /// Cache key for one seeded run. Sketch names do not always encode the
  /// seed (e.g. SampledHistogramSketch), so the seed must be part of the key
  /// or a cached randomized summary could be served for a different seed.
  static std::string Key(const std::string& dataset_id,
                         const std::string& sketch_name, uint64_t seed) {
    return dataset_id + "#" + sketch_name + "@" + std::to_string(seed);
  }

  /// Single-flight lookup: a cached or adopted value is returned
  /// (*owner = false; `*coalesced` says which). Otherwise the caller is the
  /// owner (*owner = true, returns nullopt) and MUST later call
  /// FinishCompute exactly once, on every path.
  std::optional<AnySummary> GetOrBeginCompute(const std::string& key,
                                              bool* owner,
                                              bool* coalesced = nullptr)
      EXCLUDES(mutex_) {
    std::optional<AnySummary> value;
    MutexLock lock(mutex_);
    const auto outcome =
        summaries_.Acquire(mutex_, key, /*may_own=*/true,
                           [&value](const AnySummary& s) { value = s; });
    *owner = outcome == Lru::Outcome::kOwner;
    if (coalesced != nullptr) *coalesced = outcome == Lru::Outcome::kCoalesced;
    return value;
  }

  /// Completes a flight begun by GetOrBeginCompute. A value publishes the
  /// result to the cache and to every parked waiter; nullopt releases the
  /// flight empty (degraded results are never cached, and never served to
  /// another session).
  void FinishCompute(const std::string& key, std::optional<AnySummary> value)
      EXCLUDES(mutex_) {
    MutexLock lock(mutex_);
    summaries_.Finish(key, std::move(value), /*cost=*/1);
  }

  void Clear() EXCLUDES(mutex_) {
    MutexLock lock(mutex_);
    summaries_.Clear();
  }

  /// All counters and the entry count, read atomically under the lock.
  Stats Snapshot() const EXCLUDES(mutex_) {
    MutexLock lock(mutex_);
    const Lru::Counters& c = summaries_.counters();
    return Stats{summaries_.size(), c.hits, c.owners, c.evictions,
                 c.coalesced};
  }

 private:
  using Lru = SingleFlightLru<AnySummary>;

  mutable Mutex mutex_;
  Lru summaries_ GUARDED_BY(mutex_);
};

}  // namespace hillview

#endif  // HILLVIEW_CORE_COMPUTATION_CACHE_H_
