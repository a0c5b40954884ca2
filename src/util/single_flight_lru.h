#ifndef HILLVIEW_UTIL_SINGLE_FLIGHT_LRU_H_
#define HILLVIEW_UTIL_SINGLE_FLIGHT_LRU_H_

#include <cstddef>
#include <cstdint>
#include <iterator>
#include <list>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>

#include "util/thread_annotations.h"

namespace hillview {

/// The single-flight protocol of Hillview's soft-state caches (the root's
/// summary cache of §5.4, each worker's sort-key cache): an LRU of values
/// under a cost budget plus a table of computations in flight, so identical
/// requests that miss together pay for one computation.
///
///   - Hit: a cached value that passes the caller's validity check is served
///     (one that fails it is dropped, counted as an eviction).
///   - Miss, nothing in flight: the caller is elected owner and MUST call
///     Finish exactly once, on every path (success, failure, unwinding).
///   - Miss, flight in progress: the caller parks, then adopts the owner's
///     value, even one too large for the budget.
///   - Owner finishes empty or unwinds: the waiters look again, and the first
///     to retake the lock is elected the next owner.
///   - Lookup-only callers (`may_own == false`) never park and never own.
///   - Clear() bumps a generation: a flight begun before it still serves its
///     waiters, but its value stays out of the LRU.
///
/// Not self-locking: the owning cache declares this member GUARDED_BY its one
/// Mutex, so the analysis checks that every call runs under that lock, and
/// passes the mutex to Acquire, the only call that parks. The owner's other
/// state shares the lock, so its Snapshot() stays one consistent read.
template <typename V>
class SingleFlightLru {
 public:
  enum class Outcome { kHit, kCoalesced, kOwner, kMiss };

  struct Counters {
    int64_t hits = 0;       // calls served from the LRU
    int64_t misses = 0;     // calls whose first look found no valid entry
    int64_t owners = 0;     // elections: computations started
    int64_t coalesced = 0;  // calls that adopted an owner's value
    int64_t evictions = 0;  // entries dropped by the budget or as invalid
    int64_t waiters = 0;    // calls parked on an unfinished flight
  };

  struct AlwaysValid {
    bool operator()(const V&) const { return true; }
  };

  explicit SingleFlightLru(size_t budget) : budget_(budget) {}

  /// Runs the protocol for `key`. `mu` is the owner's lock, held on entry and
  /// on return and released only while parked. `valid(value)` vets a cached
  /// entry; `take(value)` copies out what the caller needs on kHit and
  /// kCoalesced. Both run under the lock, so neither may touch guarded state.
  /// A hit is one hash lookup and one LRU splice.
  template <typename Take, typename Valid = AlwaysValid>
  Outcome Acquire(Mutex& mu, const std::string& key, bool may_own,
                  const Take& take, const Valid& valid = Valid())
      REQUIRES(mu) {
    for (bool first = true;; first = false) {
      auto it = entries_.find(key);
      if (it != entries_.end()) {
        if (valid(it->second.value)) {
          lru_.splice(lru_.begin(), lru_, it->second.lru_position);
          ++counters_.hits;
          take(it->second.value);
          return Outcome::kHit;
        }
        Evict(it);
      }
      if (first) ++counters_.misses;
      if (!may_own) return Outcome::kMiss;
      auto flight_it = flights_.find(key);
      if (flight_it == flights_.end()) {
        flights_.emplace(key, std::make_shared<Flight>(generation_));
        ++counters_.owners;
        return Outcome::kOwner;
      }
      // Waiters hold the flight, so the owner can drop it from the table.
      std::shared_ptr<Flight> flight = flight_it->second;
      ++flight->waiters;
      ++counters_.waiters;
      while (!flight->done) cv_.Wait(mu);
      if (flight->value.has_value()) {
        ++counters_.coalesced;
        take(*flight->value);
        return Outcome::kCoalesced;
      }
    }
  }

  /// Completes the flight the caller owns. A value enters the LRU at `cost`
  /// (unless a Clear() intervened) and is adopted by every parked waiter;
  /// nullopt releases the flight empty, so a waiter is re-elected. Returns
  /// whether the flight began after the last Clear(). A finish without a
  /// flight is a no-op, so a defensive double finish is harmless.
  bool Finish(const std::string& key, std::optional<V> value, size_t cost) {
    auto it = flights_.find(key);
    if (it == flights_.end()) return false;
    std::shared_ptr<Flight> flight = std::move(it->second);
    flights_.erase(it);
    const bool current = flight->generation == generation_;
    if (current && value.has_value()) Put(key, *value, cost);
    flight->value = std::move(value);
    flight->done = true;
    counters_.waiters -= flight->waiters;
    cv_.NotifyAll();
    return current;
  }

  /// Inserts or replaces `key` as the most recent entry, then evicts least
  /// recently used ones beyond the budget. A value costing more than the
  /// whole budget is not cached: it would evict everything for one entry.
  void Put(const std::string& key, V value, size_t cost) {
    if (cost > budget_) return;
    auto [it, inserted] = entries_.try_emplace(key);
    if (inserted) {
      lru_.push_front(key);
      it->second.lru_position = lru_.begin();
    } else {
      used_ -= it->second.cost;
      lru_.splice(lru_.begin(), lru_, it->second.lru_position);
    }
    it->second.value = std::move(value);
    it->second.cost = cost;
    used_ += cost;
    while (used_ > budget_) Evict(entries_.find(lru_.back()));
  }

  /// Evicts every entry whose value satisfies `dead`.
  template <typename Pred>
  void EvictIf(const Pred& dead) {
    for (auto it = entries_.begin(); it != entries_.end();) {
      auto next = std::next(it);
      if (dead(it->second.value)) Evict(it);
      it = next;
    }
  }

  /// Drops every entry (flights keep running) and bumps the generation.
  void Clear() {
    entries_.clear();
    lru_.clear();
    used_ = 0;
    ++generation_;
  }

  size_t size() const { return entries_.size(); }
  size_t cost() const { return used_; }
  const Counters& counters() const { return counters_; }

 private:
  struct Entry {
    V value;
    size_t cost = 0;
    std::list<std::string>::iterator lru_position;
  };
  using Map = std::unordered_map<std::string, Entry>;

  struct Flight {
    explicit Flight(uint64_t g) : generation(g) {}
    const uint64_t generation;
    int64_t waiters = 0;
    bool done = false;
    std::optional<V> value;
  };

  void Evict(typename Map::iterator it) {
    used_ -= it->second.cost;
    lru_.erase(it->second.lru_position);
    entries_.erase(it);
    ++counters_.evictions;
  }

  const size_t budget_;
  size_t used_ = 0;
  uint64_t generation_ = 0;
  Map entries_;
  std::list<std::string> lru_;  // front = most recent
  std::unordered_map<std::string, std::shared_ptr<Flight>> flights_;
  CondVar cv_;
  Counters counters_;
};

}  // namespace hillview

#endif  // HILLVIEW_UTIL_SINGLE_FLIGHT_LRU_H_
