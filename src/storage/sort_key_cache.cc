#include "storage/sort_key_cache.h"

#include <utility>

namespace hillview {

bool SortKeyCache::Live(const Cached& c, const SortKeyPlan& plan) {
  // An expired weak_ptr means the column died and the address may have been
  // recycled: the entry must not be served.
  const auto& plan_columns = plan.key_columns();
  if (c.columns.size() != plan_columns.size()) return false;
  for (size_t i = 0; i < plan_columns.size(); ++i) {
    auto locked = c.columns[i].lock();
    if (locked == nullptr || locked.get() != plan_columns[i].get()) {
      return false;
    }
  }
  return true;
}

bool SortKeyCache::Dead(const Cached& c) {
  for (const auto& column : c.columns) {
    if (column.expired()) return true;
  }
  return false;
}

SortKeyCache::KeysPtr SortKeyCache::GetOrBuild(SortKeyPlan& plan,
                                               bool build_allowed) {
  if (!plan.valid()) return nullptr;
  const std::string key = plan.CacheKey();
  KeysPtr keys;
  SortKeyPlan::Encodings encodings;
  std::function<void()> hook;
  {
    MutexLock lock(mutex_);
    // A caller whose density gate said "don't build" never parks on another
    // thread's build: its cheap comparator sort (a low-rate sample over a
    // huge partition) finishes long before an O(universe) key pass would.
    const Lru::Outcome outcome = keys_.Acquire(
        mutex_, key, /*may_own=*/build_allowed,
        [&](const Cached& c) {
          keys = c.keys;
          encodings = c.encodings;
        },
        [&plan](const Cached& c) { return Live(c, plan); });
    if (outcome == Lru::Outcome::kMiss) return nullptr;
    if (outcome == Lru::Outcome::kOwner) hook = in_flight_hook_;
  }
  if (keys != nullptr) {  // a hit, or an adopted build
    plan.Adopt(keys, encodings);
    return keys;
  }
  // This thread is the elected builder; the key pass runs unlocked.
  try {
    if (hook) hook();
    keys = plan.BuildKeys();
  } catch (...) {
    // Never strand the flight: waiters would park forever and every later
    // scroll of this view would park behind them.
    MutexLock lock(mutex_);
    keys_.Finish(key, std::nullopt, 0);
    throw;
  }
  Cached built{keys, plan.encodings(),
               std::vector<std::weak_ptr<const IColumn>>(
                   plan.key_columns().begin(), plan.key_columns().end())};
  MutexLock lock(mutex_);
  // Entries whose columns died can never be served again, so they must not
  // squat on the byte budget. Entries per (columns, order) view number
  // dozens, not thousands, so the sweep is trivial next to the key build.
  keys_.EvictIf(Dead);
  // Waiters adopt from the flight, so they are served even when the vector
  // is too large to cache or a Clear() raced the build.
  keys_.Finish(key, std::move(built), keys->size() * sizeof(uint64_t));
  return keys;
}

void SortKeyCache::SetInFlightHookForTest(std::function<void()> hook) {
  MutexLock lock(mutex_);
  in_flight_hook_ = std::move(hook);
}

void SortKeyCache::Clear() {
  MutexLock lock(mutex_);
  keys_.Clear();
}

SortKeyCache::Stats SortKeyCache::Snapshot() const {
  MutexLock lock(mutex_);
  const Lru::Counters& c = keys_.counters();
  Stats stats;
  stats.entries = keys_.size();
  stats.bytes_used = keys_.cost();
  stats.hits = c.hits + c.coalesced;
  stats.misses = c.misses;
  stats.evictions = c.evictions;
  stats.coalesced_builds = c.coalesced;
  stats.waiters = c.waiters;
  return stats;
}

}  // namespace hillview
