#ifndef HILLVIEW_CORE_COMPUTATION_CACHE_H_
#define HILLVIEW_CORE_COMPUTATION_CACHE_H_

#include <cstdint>
#include <list>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>

#include "core/any_sketch.h"
#include "util/thread_annotations.h"

namespace hillview {

/// Cache of sketch results, "indexed by what mergeable summary was used and
/// what dataset was operated on" (§5.4). Summaries are tiny by construction,
/// so a large number can be cached; eviction is LRU. Only deterministic
/// sketches should be cached (randomized ones are keyed with their seed via
/// the sketch name, so caching them is safe but rarely useful).
///
/// Multi-tenant sharing happens through the single-flight protocol
/// (GetOrBeginCompute / FinishCompute, the same shape as
/// SortKeyCache::GetOrBuild): when N sessions race the same key, exactly one
/// becomes the flight owner and computes; the others park and adopt its
/// result (`coalesced_hits`). An owner that finishes WITHOUT a publishable
/// value — degraded coverage, cancellation, an error — releases the flight
/// empty and the waiters re-elect a new owner, so a partial result is never
/// served across sessions and a cancelled winner never starves the losers.
///
/// Thread-safe: one capability-annotated mutex guards the map, the LRU list,
/// the in-flight table and every counter; stats are only exposed as a single
/// locked Snapshot() so multi-counter reads can never tear against a
/// concurrent scan.
class ComputationCache {
 public:
  /// One consistent observability snapshot, taken under the lock.
  struct Stats {
    size_t entries = 0;
    int64_t hits = 0;
    int64_t misses = 0;
    int64_t evictions = 0;
    /// Waiters that adopted another caller's in-flight result instead of
    /// recomputing (cross-session single-flight sharing).
    int64_t coalesced_hits = 0;
  };

  explicit ComputationCache(size_t max_entries = 4096)
      : max_entries_(max_entries) {}

  /// Cache key for one seeded run. Sketch names do not always encode the
  /// seed (e.g. SampledHistogramSketch), so the seed must be part of the key
  /// or a cached randomized summary could be served for a different seed.
  static std::string Key(const std::string& dataset_id,
                         const std::string& sketch_name, uint64_t seed) {
    return dataset_id + "#" + sketch_name + "@" + std::to_string(seed);
  }

  /// Single-flight lookup. Outcomes:
  ///   - cached value present: returns it (*owner = false; a hit).
  ///   - miss, no flight for this key: the caller is elected owner
  ///     (*owner = true, returns nullopt) and MUST later call FinishCompute
  ///     exactly once, on every path (success, degraded, cancelled, error).
  ///   - miss, flight in progress: parks until the owner finishes; a
  ///     published value is adopted (*owner = false, *coalesced = true), an
  ///     empty finish loops to re-elect — possibly making this caller the
  ///     new owner.
  std::optional<AnySummary> GetOrBeginCompute(const std::string& key,
                                              bool* owner,
                                              bool* coalesced = nullptr)
      EXCLUDES(mutex_) {
    MutexLock lock(mutex_);
    if (coalesced != nullptr) *coalesced = false;
    for (;;) {
      auto it = entries_.find(key);
      if (it != entries_.end()) {
        lru_.splice(lru_.begin(), lru_, it->second.lru_position);
        ++hits_;
        *owner = false;
        return it->second.summary;
      }
      auto flight_it = flights_.find(key);
      if (flight_it == flights_.end()) {
        ++misses_;
        flights_[key] = std::make_shared<Flight>();
        *owner = true;
        return std::nullopt;
      }
      std::shared_ptr<Flight> flight = flight_it->second;
      while (!flight->done) flight_cv_.Wait(mutex_);
      if (flight->result.has_value()) {
        ++coalesced_hits_;
        *owner = false;
        if (coalesced != nullptr) *coalesced = true;
        return flight->result;
      }
      // The owner finished empty (degraded / cancelled / failed): loop and
      // try again — this waiter may become the next owner.
    }
  }

  /// Completes a flight begun by GetOrBeginCompute. A value publishes the
  /// result to the cache AND to every parked waiter; nullopt releases the
  /// flight empty (degraded results are never cached, and never served to
  /// another session). Tolerates a missing flight so defensive
  /// double-finishes are harmless.
  void FinishCompute(const std::string& key, std::optional<AnySummary> value)
      EXCLUDES(mutex_) {
    MutexLock lock(mutex_);
    auto it = flights_.find(key);
    if (it == flights_.end()) return;
    std::shared_ptr<Flight> flight = it->second;
    flights_.erase(it);
    flight->done = true;
    flight->result = value;  // waiters adopt from the flight, not the LRU
    if (value.has_value()) PutLocked(key, std::move(*value));
    flight_cv_.NotifyAll();
  }

  void Clear() EXCLUDES(mutex_) {
    MutexLock lock(mutex_);
    entries_.clear();
    lru_.clear();
  }

  /// All counters and the entry count, read atomically under the lock.
  Stats Snapshot() const EXCLUDES(mutex_) {
    MutexLock lock(mutex_);
    return Stats{entries_.size(), hits_, misses_, evictions_,
                 coalesced_hits_};
  }

 private:
  struct Entry {
    AnySummary summary;
    std::list<std::string>::iterator lru_position;
  };

  /// One in-flight computation; waiters park on flight_cv_ and hold the
  /// shared_ptr so the owner can drop the map entry while they drain.
  struct Flight {
    bool done = false;
    std::optional<AnySummary> result;
  };

  void PutLocked(const std::string& key, AnySummary summary) REQUIRES(mutex_) {
    auto it = entries_.find(key);
    if (it != entries_.end()) {
      it->second.summary = std::move(summary);
      lru_.splice(lru_.begin(), lru_, it->second.lru_position);
      return;
    }
    lru_.push_front(key);
    entries_[key] = Entry{std::move(summary), lru_.begin()};
    if (entries_.size() > max_entries_) {
      entries_.erase(lru_.back());
      lru_.pop_back();
      ++evictions_;
    }
  }

  mutable Mutex mutex_;
  CondVar flight_cv_;
  size_t max_entries_;
  std::unordered_map<std::string, Entry> entries_ GUARDED_BY(mutex_);
  std::unordered_map<std::string, std::shared_ptr<Flight>> flights_
      GUARDED_BY(mutex_);
  std::list<std::string> lru_ GUARDED_BY(mutex_);  // front = most recent
  int64_t hits_ GUARDED_BY(mutex_) = 0;
  int64_t misses_ GUARDED_BY(mutex_) = 0;
  int64_t evictions_ GUARDED_BY(mutex_) = 0;
  int64_t coalesced_hits_ GUARDED_BY(mutex_) = 0;
};

}  // namespace hillview

#endif  // HILLVIEW_CORE_COMPUTATION_CACHE_H_
