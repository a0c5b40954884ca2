#include "storage/sort_key_cache.h"

#include <iterator>
#include <utility>

namespace hillview {

SortKeyCache::KeysPtr SortKeyCache::LookupLocked(const std::string& key,
                                                 SortKeyPlan& plan,
                                                 bool count_miss) {
  auto it = entries_.find(key);
  if (it == entries_.end()) {
    if (count_miss) ++misses_;
    AdoptEncodingsLocked(key, plan);
    return nullptr;
  }
  // Validate liveness: every column the entry was built from must still be
  // the exact object the querying plan bound. An expired weak_ptr means the
  // column died and the address may have been recycled; drop the entry.
  const auto& plan_columns = plan.key_columns();
  bool live = it->second.columns.size() == plan_columns.size();
  for (size_t i = 0; live && i < plan_columns.size(); ++i) {
    auto locked = it->second.columns[i].lock();
    live = locked != nullptr && locked.get() == plan_columns[i].get();
  }
  if (!live) {
    bytes_used_ -= it->second.bytes;
    lru_.erase(it->second.lru_position);
    entries_.erase(it);
    ++evictions_;
    if (count_miss) ++misses_;
    // Dead columns also invalidate the side-cached snapshot (same key, same
    // liveness rule) — no adoption attempt.
    encoding_entries_.erase(key);
    return nullptr;
  }
  lru_.splice(lru_.begin(), lru_, it->second.lru_position);
  ++hits_;
  plan.AdoptEncodings(it->second.encodings);
  return it->second.keys;
}

void SortKeyCache::Put(const SortKeyPlan& plan, KeysPtr keys,
                       uint64_t generation) {
  if (!plan.valid() || !plan.encodings_ready() || keys == nullptr) return;
  const size_t bytes = keys->size() * sizeof(uint64_t);
  const std::string key = plan.CacheKey();
  std::vector<std::weak_ptr<const IColumn>> columns(
      plan.key_columns().begin(), plan.key_columns().end());
  MutexLock lock(mutex_);
  if (generation != generation_) return;  // raced a Clear(): state is stale
  // The encodings are worth keeping even when the keys are not cacheable:
  // later scans of the same view then skip the packed min/max pre-passes.
  RecordEncodingsLocked(key, plan);
  if (bytes > max_bytes_) return;  // would evict the whole cache for one view
  auto it = entries_.find(key);
  if (it != entries_.end()) {
    bytes_used_ -= it->second.bytes;
    it->second.keys = std::move(keys);
    it->second.encodings = plan.encodings();
    it->second.columns = std::move(columns);
    it->second.bytes = bytes;
    bytes_used_ += bytes;
    lru_.splice(lru_.begin(), lru_, it->second.lru_position);
    EvictOverBudgetLocked();
    return;
  }
  lru_.push_front(key);
  entries_[key] = Entry{std::move(keys), plan.encodings(), std::move(columns),
                        bytes, lru_.begin()};
  bytes_used_ += bytes;
  DropDeadEntriesLocked();
  EvictOverBudgetLocked();
}

void SortKeyCache::DropDeadEntriesLocked() {
  // Entries whose source columns died can never be served again (their
  // pointer-derived key cannot match a live plan, and the liveness check
  // would reject them) — e.g. keys built by a scan that raced an eviction
  // and finished against the pre-eviction table. Sweeping them on insert
  // keeps dead state from squatting on the byte budget. Entry counts are
  // per-(columns, order) view — dozens, not thousands — so the sweep is
  // trivial next to the key build that preceded the Put.
  for (auto it = entries_.begin(); it != entries_.end();) {
    bool live = true;
    for (const auto& column : it->second.columns) {
      if (column.expired()) {
        live = false;
        break;
      }
    }
    if (live) {
      ++it;
      continue;
    }
    bytes_used_ -= it->second.bytes;
    lru_.erase(it->second.lru_position);
    it = entries_.erase(it);
    ++evictions_;
  }
}

void SortKeyCache::RecordEncodingsLocked(const std::string& key,
                                         const SortKeyPlan& plan) {
  if (encoding_entries_.size() >= kMaxEncodingEntries &&
      encoding_entries_.find(key) == encoding_entries_.end()) {
    for (auto it = encoding_entries_.begin();
         it != encoding_entries_.end();) {
      bool dead = false;
      for (const auto& column : it->second.columns) {
        if (column.expired()) {
          dead = true;
          break;
        }
      }
      it = dead ? encoding_entries_.erase(it) : std::next(it);
    }
    // Still full after the sweep: drop an arbitrary live entry. Snapshots
    // cost one O(n) pre-pass to rebuild, so recency bookkeeping is not
    // worth carrying for a cap this size.
    if (encoding_entries_.size() >= kMaxEncodingEntries) {
      encoding_entries_.erase(encoding_entries_.begin());
    }
  }
  encoding_entries_[key] =
      EncodingEntry{plan.encodings(),
                    std::vector<std::weak_ptr<const IColumn>>(
                        plan.key_columns().begin(), plan.key_columns().end())};
}

bool SortKeyCache::AdoptEncodingsLocked(const std::string& key,
                                        SortKeyPlan& plan) {
  auto it = encoding_entries_.find(key);
  if (it == encoding_entries_.end()) return false;
  const auto& plan_columns = plan.key_columns();
  bool live = it->second.columns.size() == plan_columns.size();
  for (size_t i = 0; live && i < plan_columns.size(); ++i) {
    auto locked = it->second.columns[i].lock();
    live = locked != nullptr && locked.get() == plan_columns[i].get();
  }
  if (!live) {
    encoding_entries_.erase(it);
    return false;
  }
  plan.AdoptEncodings(it->second.encodings);
  ++encoding_hits_;
  return true;
}

SortKeyCache::KeysPtr SortKeyCache::GetOrBuild(SortKeyPlan& plan,
                                               bool build_allowed) {
  if (!plan.valid()) return nullptr;
  const std::string key = plan.CacheKey();
  bool first_lookup = true;
  // Each round holds the lock for lookup / parking / builder election, then
  // releases it for the build itself — structured as one scoped lock per
  // round so the analysis can verify the handoff (the pre-annotation code
  // wove a single unique_lock through all three phases).
  while (true) {
    std::shared_ptr<InFlightBuild> build;
    uint64_t generation = 0;
    std::function<void()> hook;
    {
      MutexLock lock(mutex_);
      // Retry rounds (after a failed in-flight build) are the same logical
      // call — they must not inflate the miss counter a second time.
      KeysPtr cached = LookupLocked(key, plan, first_lookup);
      first_lookup = false;
      if (cached != nullptr) return cached;
      auto it = in_flight_.find(key);
      if (it != in_flight_.end()) {
        // Someone is already paying for this exact build. Callers that would
        // have built anyway park until it lands; callers whose density gate
        // said "don't build" fall back to the virtual path immediately — for
        // them (a low-rate sample over a huge partition) the cheap comparator
        // sort finishes long before an O(universe) key pass would, so parking
        // would be a latency regression, not a saving.
        if (!build_allowed) return nullptr;
        // The result is adopted from the in-flight slot, not the cache, so
        // waiters are served even when the vector was too large to cache or
        // a Clear() raced the insert.
        std::shared_ptr<InFlightBuild> in_flight = it->second;
        ++waiters_;
        while (!in_flight->done) build_done_.Wait(mutex_);
        --waiters_;
        if (in_flight->keys != nullptr) {
          plan.AdoptEncodings(in_flight->encodings);
          ++hits_;
          ++coalesced_builds_;
          return in_flight->keys;
        }
        // The build unwound without producing keys; loop and possibly become
        // the next builder.
        continue;
      }
      if (!build_allowed) return nullptr;
      build = std::make_shared<InFlightBuild>();
      in_flight_[key] = build;
      generation = generation_;
      hook = in_flight_hook_;
    }
    // This thread is the elected builder; the key pass runs unlocked.
    KeysPtr keys;
    try {
      if (hook) hook();
      keys = plan.BuildKeys();
      Put(plan, keys, generation);  // generation-checked vs Clear() races
    } catch (...) {
      // Never strand the in-flight marker: waiters would park forever and
      // every later scroll of this view would park behind them.
      MutexLock lock(mutex_);
      build->done = true;
      in_flight_.erase(key);
      build_done_.NotifyAll();
      throw;
    }
    MutexLock lock(mutex_);
    build->done = true;
    build->keys = keys;
    build->encodings = plan.encodings();
    in_flight_.erase(key);
    build_done_.NotifyAll();
    return keys;
  }
}

void SortKeyCache::SetInFlightHookForTest(std::function<void()> hook) {
  MutexLock lock(mutex_);
  in_flight_hook_ = std::move(hook);
}

void SortKeyCache::EvictOverBudgetLocked() {
  while (bytes_used_ > max_bytes_ && !lru_.empty()) {
    auto it = entries_.find(lru_.back());
    bytes_used_ -= it->second.bytes;
    entries_.erase(it);
    lru_.pop_back();
    ++evictions_;
  }
}

void SortKeyCache::Clear() {
  MutexLock lock(mutex_);
  entries_.clear();
  lru_.clear();
  encoding_entries_.clear();
  bytes_used_ = 0;
  ++generation_;
}

uint64_t SortKeyCache::generation() const {
  MutexLock lock(mutex_);
  return generation_;
}

SortKeyCache::Stats SortKeyCache::Snapshot() const {
  MutexLock lock(mutex_);
  Stats stats;
  stats.entries = entries_.size();
  stats.bytes_used = bytes_used_;
  stats.hits = hits_;
  stats.misses = misses_;
  stats.evictions = evictions_;
  stats.coalesced_builds = coalesced_builds_;
  stats.waiters = waiters_;
  stats.encoding_hits = encoding_hits_;
  return stats;
}

}  // namespace hillview
