#include "storage/sort_key_cache.h"

#include <iterator>
#include <utility>

namespace hillview {

SortKeyCache::Encodings SortKeyCache::EncodingsOf(const SortKeyPlan& plan) {
  return Encodings{plan.encodings(),
                   std::vector<std::weak_ptr<const IColumn>>(
                       plan.key_columns().begin(), plan.key_columns().end())};
}

bool SortKeyCache::Live(const Encodings& e, const SortKeyPlan& plan) {
  // An expired weak_ptr means the column died and the address may have been
  // recycled: the entry must not be served.
  const auto& plan_columns = plan.key_columns();
  if (e.columns.size() != plan_columns.size()) return false;
  for (size_t i = 0; i < plan_columns.size(); ++i) {
    auto locked = e.columns[i].lock();
    if (locked == nullptr || locked.get() != plan_columns[i].get()) {
      return false;
    }
  }
  return true;
}

bool SortKeyCache::Dead(const Encodings& e) {
  for (const auto& column : e.columns) {
    if (column.expired()) return true;
  }
  return false;
}

void SortKeyCache::Put(const SortKeyPlan& plan, KeysPtr keys,
                       uint64_t generation) {
  if (!plan.valid() || !plan.encodings_ready() || keys == nullptr) return;
  const std::string key = plan.CacheKey();
  const size_t bytes = keys->size() * sizeof(uint64_t);
  MutexLock lock(mutex_);
  if (generation != keys_.generation()) return;  // raced a Clear(): stale
  DropDeadEntriesLocked();
  // The encodings are worth keeping even when the keys are not cacheable:
  // later scans of the same view then skip the packed min/max pre-passes.
  RecordEncodingsLocked(key, plan);
  keys_.Put(key, Cached{std::move(keys), EncodingsOf(plan)}, bytes);
}

void SortKeyCache::DropDeadEntriesLocked() {
  // Entries per (columns, order) view number dozens, not thousands, so the
  // sweep is trivial next to the key build that precedes every insert.
  keys_.EvictIf([](const Cached& c) { return Dead(c.encodings); });
}

void SortKeyCache::RecordEncodingsLocked(const std::string& key,
                                         const SortKeyPlan& plan) {
  if (encodings_.size() >= kMaxEncodingEntries &&
      encodings_.find(key) == encodings_.end()) {
    for (auto it = encodings_.begin(); it != encodings_.end();) {
      it = Dead(it->second) ? encodings_.erase(it) : std::next(it);
    }
    // Still full after the sweep: drop an arbitrary live entry. Snapshots
    // cost one O(n) pre-pass to rebuild, so recency bookkeeping is not
    // worth carrying for a cap this size.
    if (encodings_.size() >= kMaxEncodingEntries) {
      encodings_.erase(encodings_.begin());
    }
  }
  encodings_[key] = EncodingsOf(plan);
}

void SortKeyCache::AdoptEncodingsLocked(const std::string& key,
                                        SortKeyPlan& plan) {
  auto it = encodings_.find(key);
  if (it == encodings_.end()) return;
  if (!Live(it->second, plan)) {
    encodings_.erase(it);
    return;
  }
  plan.AdoptEncodings(it->second.snapshot);
  ++encoding_hits_;
}

SortKeyCache::KeysPtr SortKeyCache::GetOrBuild(SortKeyPlan& plan,
                                               bool build_allowed) {
  if (!plan.valid()) return nullptr;
  const std::string key = plan.CacheKey();
  KeysPtr keys;
  std::function<void()> hook;
  {
    MutexLock lock(mutex_);
    // A caller whose density gate said "don't build" never parks on another
    // thread's build: its cheap comparator sort (a low-rate sample over a
    // huge partition) finishes long before an O(universe) key pass would.
    const Lru::Outcome outcome = keys_.Acquire(
        mutex_, key, /*may_own=*/build_allowed,
        [&](const Cached& c) {
          plan.AdoptEncodings(c.encodings.snapshot);
          keys = c.keys;
        },
        [&plan](const Cached& c) { return Live(c.encodings, plan); });
    if (keys != nullptr) return keys;  // a hit, or an adopted build
    AdoptEncodingsLocked(key, plan);
    if (outcome == Lru::Outcome::kMiss) return nullptr;
    hook = in_flight_hook_;
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
  MutexLock lock(mutex_);
  DropDeadEntriesLocked();
  // Waiters adopt from the flight, so they are served even when the vector
  // is too large to cache or a Clear() raced the build.
  if (keys_.Finish(key, Cached{keys, EncodingsOf(plan)},
                   keys->size() * sizeof(uint64_t))) {
    RecordEncodingsLocked(key, plan);
  }
  return keys;
}

void SortKeyCache::SetInFlightHookForTest(std::function<void()> hook) {
  MutexLock lock(mutex_);
  in_flight_hook_ = std::move(hook);
}

void SortKeyCache::Clear() {
  MutexLock lock(mutex_);
  keys_.Clear();
  encodings_.clear();
}

uint64_t SortKeyCache::generation() const {
  MutexLock lock(mutex_);
  return keys_.generation();
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
  stats.encoding_hits = encoding_hits_;
  return stats;
}

}  // namespace hillview
