#include "cluster/cluster.h"

#include <unordered_map>

#include "cluster/root.h"
#include "util/thread_annotations.h"

namespace hillview {
namespace cluster {

/// One holder's pin on a derived id; the last copy of its handle drops it.
struct PinnedId::Pin {
  Pin(std::weak_ptr<DataSetRegistry> registry, std::string dataset_id)
      : registry(std::move(registry)), dataset_id(std::move(dataset_id)) {}
  Pin(const Pin&) = delete;
  Pin& operator=(const Pin&) = delete;
  ~Pin();

  const std::weak_ptr<DataSetRegistry> registry;
  const std::string dataset_id;
};

/// The lineage records, their pins and the workers the ids live on, behind
/// the one mutex a heal holds. Held by the Cluster; every pin reaches it
/// through a weak pointer.
class DataSetRegistry : public std::enable_shared_from_this<DataSetRegistry> {
 public:
  explicit DataSetRegistry(std::vector<WorkerPtr> workers)
      : workers_(std::move(workers)) {}

  PinnedId Record(const std::string& dataset_id, Cluster::Lineage lineage)
      EXCLUDES(mutex_) {
    MutexLock lock(mutex_);
    Entry& entry = entries_[dataset_id];
    if (lineage.parent.empty()) {
      entry.lineage = std::move(lineage);
      return PinnedId(dataset_id, nullptr);
    }
    if (entry.pins++ == 0) entry.pins_parent = PinLocked(lineage.parent);
    entry.lineage = std::move(lineage);
    return Handle(dataset_id);
  }

  PinnedId Pin(const std::string& dataset_id) EXCLUDES(mutex_) {
    MutexLock lock(mutex_);
    return PinLocked(dataset_id) ? Handle(dataset_id)
                                 : PinnedId(dataset_id, nullptr);
  }

  /// Drops one pin of a derived id. The last one erases the id's lineage,
  /// drops it from every worker and releases its parent in turn.
  void Release(std::string dataset_id) EXCLUDES(mutex_) {
    MutexLock lock(mutex_);
    for (;;) {
      auto it = entries_.find(dataset_id);
      if (it == entries_.end() || it->second.lineage.parent.empty() ||
          --it->second.pins > 0) {
        return;
      }
      const bool pins_parent = it->second.pins_parent;
      std::string parent = std::move(it->second.lineage.parent);
      entries_.erase(it);
      for (const WorkerPtr& worker : workers_) worker->Drop(dataset_id);
      if (!pins_parent) return;
      dataset_id = std::move(parent);
    }
  }

  int Heal(const std::string& dataset_id) EXCLUDES(mutex_) {
    MutexLock lock(mutex_);
    int rebuilt = 0;
    for (size_t w = 0; w < workers_.size(); ++w) {
      HealOn(w, dataset_id, &rebuilt);
    }
    return rebuilt;
  }

  std::vector<int> Partitions(const std::string& dataset_id) const
      EXCLUDES(mutex_) {
    MutexLock lock(mutex_);
    auto it = entries_.find(dataset_id);
    while (it != entries_.end() && !it->second.lineage.parent.empty()) {
      it = entries_.find(it->second.lineage.parent);
    }
    if (it == entries_.end()) return {};
    std::vector<int> per_worker(workers_.size(), 0);
    for (size_t p = 0; p < it->second.lineage.loaders.size(); ++p) {
      ++per_worker[p % per_worker.size()];
    }
    return per_worker;
  }

 private:
  struct Entry {
    Cluster::Lineage lineage;
    /// Holders of a derived id: handles and derived children. Base ids
    /// keep 0 and are never dropped.
    int pins = 0;
    /// Whether this id holds a pin on its parent (a recorded derived one).
    bool pins_parent = false;
  };

  /// Adds a pin to a recorded derived id; whether there was one to pin.
  bool PinLocked(const std::string& dataset_id) REQUIRES(mutex_) {
    auto it = entries_.find(dataset_id);
    if (it == entries_.end() || it->second.lineage.parent.empty()) {
      return false;
    }
    ++it->second.pins;
    return true;
  }

  /// A handle that releases one pin of `dataset_id` taken by its caller.
  PinnedId Handle(const std::string& dataset_id) {
    return PinnedId(dataset_id, std::make_shared<const PinnedId::Pin>(
                                    weak_from_this(), dataset_id));
  }

  /// Heal's step on one worker: whether `dataset_id` is present there
  /// afterwards.
  bool HealOn(size_t w, const std::string& dataset_id, int* rebuilt)
      REQUIRES(mutex_) {
    Worker& worker = *workers_[w];
    if (worker.GetDataSet(dataset_id).ok()) return true;
    auto it = entries_.find(dataset_id);
    if (it == entries_.end()) return false;
    const Cluster::Lineage& lineage = it->second.lineage;
    if (lineage.parent.empty()) {
      // Round-robin placement: the paper allows arbitrary horizontal
      // partitioning (§2), so it needs no keying.
      std::vector<LocalDataSet::Loader> loaders;
      for (size_t p = w; p < lineage.loaders.size(); p += workers_.size()) {
        loaders.push_back(lineage.loaders[p]);
      }
      worker.RegisterBase(dataset_id, std::move(loaders));
    } else if (!HealOn(w, lineage.parent, rebuilt) ||
               !worker.ApplyMap(lineage.parent, dataset_id, lineage.map)
                    .ok()) {
      return false;
    }
    ++*rebuilt;
    return true;
  }

  const std::vector<WorkerPtr> workers_;
  /// Held across a heal and a release, so concurrent heals of one id
  /// rebuild it once and no release drops an id a heal is rebuilding.
  mutable Mutex mutex_;
  std::unordered_map<std::string, Entry> entries_ GUARDED_BY(mutex_);
};

PinnedId::Pin::~Pin() {
  if (auto live = registry.lock()) live->Release(dataset_id);
}

Cluster::Cluster(std::vector<WorkerPtr> workers, SimulatedNetwork* network,
                 Options options)
    : workers_(std::move(workers)),
      network_(network),
      options_(options),
      health_(static_cast<int>(workers_.size()), options.health),
      scheduler_(options.scheduler, &health_),
      registry_(std::make_shared<DataSetRegistry>(workers_)) {}

Cluster::~Cluster() {
  // Abandoned attempts (deadline misses, degraded completions, superseded
  // renders) leave worker pool tasks running after their query returned;
  // those tasks reach back into the health tracker and the network. Drain
  // every pool before any member dies so stragglers cannot dangle.
  for (auto& worker : workers_) worker->Drain();
}

std::shared_ptr<RootSession> Cluster::OpenSession() {
  const int id = next_session_id_.fetch_add(1, std::memory_order_relaxed);
  // Not make_shared: the session constructor is private to keep Cluster the
  // only issuer of session ids.
  return std::shared_ptr<RootSession>(new RootSession(this, id));
}

PinnedId Cluster::Record(const std::string& dataset_id, Lineage lineage) {
  return registry_->Record(dataset_id, std::move(lineage));
}

PinnedId Cluster::Pin(const std::string& dataset_id) {
  return registry_->Pin(dataset_id);
}

int Cluster::Heal(const std::string& dataset_id) {
  return registry_->Heal(dataset_id);
}

std::vector<int> Cluster::Partitions(const std::string& dataset_id) const {
  return registry_->Partitions(dataset_id);
}

}  // namespace cluster
}  // namespace hillview
