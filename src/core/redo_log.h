#ifndef HILLVIEW_CORE_REDO_LOG_H_
#define HILLVIEW_CORE_REDO_LOG_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "util/thread_annotations.h"

namespace hillview {

/// One logged root operation. The seed makes randomized vizketches
/// reproducible (§5.8).
struct RedoLogEntry {
  int64_t index = 0;
  std::string kind;         // "load", "map", "sketch"
  std::string description;  // operation parameters, human readable
  uint64_t seed = 0;
};

/// One session's record of its exploration (§5.7): every load, map and
/// query it ran, in order, with the heals its queries triggered. It holds
/// text, not code: what rebuilds a lost dataset is the Cluster's lineage
/// record, shared by every session (Cluster::Heal).
///
/// Thread-safe: the entries and counters are guarded by one annotated mutex.
class RedoLog {
 public:
  /// Read atomically under the lock (like the caches' Snapshot); perfbench
  /// reads these fields by name.
  struct Stats {
    int64_t entries = 0;
    int64_t replays_started = 0;   // heals this session's queries ran
    int64_t entries_replayed = 0;  // datasets those heals rebuilt
  };

  /// Appends an entry; returns its index.
  int64_t Append(std::string kind, std::string description, uint64_t seed)
      EXCLUDES(mutex_) {
    MutexLock lock(mutex_);
    const auto index = static_cast<int64_t>(entries_.size());
    entries_.push_back({index, std::move(kind), std::move(description), seed});
    return index;
  }

  /// Counts one heal that rebuilt `rebuilt` datasets.
  void RecordHeal(int64_t rebuilt) EXCLUDES(mutex_) {
    MutexLock lock(mutex_);
    ++replays_started_;
    entries_replayed_ += rebuilt;
  }

  int64_t Size() const EXCLUDES(mutex_) {
    MutexLock lock(mutex_);
    return static_cast<int64_t>(entries_.size());
  }

  std::vector<RedoLogEntry> Entries() const EXCLUDES(mutex_) {
    MutexLock lock(mutex_);
    return entries_;
  }

  /// Renders the log as text ("<index> <kind> seed=<seed> <description>"),
  /// the persisted form.
  std::string ToText() const EXCLUDES(mutex_);

  /// The heal counters plus the entry count, read atomically.
  Stats Snapshot() const EXCLUDES(mutex_) {
    MutexLock lock(mutex_);
    return Stats{static_cast<int64_t>(entries_.size()), replays_started_,
                 entries_replayed_};
  }

 private:
  mutable Mutex mutex_;
  std::vector<RedoLogEntry> entries_ GUARDED_BY(mutex_);
  int64_t replays_started_ GUARDED_BY(mutex_) = 0;
  int64_t entries_replayed_ GUARDED_BY(mutex_) = 0;
};

}  // namespace hillview

#endif  // HILLVIEW_CORE_REDO_LOG_H_
