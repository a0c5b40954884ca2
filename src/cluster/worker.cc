#include "cluster/worker.h"

namespace hillview {
namespace cluster {

void Worker::Put(const std::string& dataset_id,
                 std::vector<std::shared_ptr<LocalDataSet>> leaves) {
  std::vector<DataSetPtr> children(leaves.begin(), leaves.end());
  Partitions& partitions = datasets_[dataset_id];
  partitions.tree = std::make_shared<ParallelDataSet>(std::move(children),
                                                      &pool_, aggregation_);
  partitions.leaves = std::move(leaves);
}

void Worker::RegisterBase(const std::string& dataset_id,
                          std::vector<LocalDataSet::Loader> loaders) {
  std::vector<std::shared_ptr<LocalDataSet>> leaves;
  leaves.reserve(loaders.size());
  for (auto& loader : loaders) {
    leaves.push_back(LocalDataSet::FromLoader(std::move(loader)));
  }
  MutexLock lock(mutex_);
  Put(dataset_id, std::move(leaves));
}

Status Worker::ApplyMap(const std::string& parent_id,
                        const std::string& new_id, const TableMap& map) {
  MutexLock lock(mutex_);
  auto it = datasets_.find(parent_id);
  if (it == datasets_.end()) {
    return Status::Unavailable("worker " + name_ + ": no dataset '" +
                               parent_id + "'");
  }
  std::vector<std::shared_ptr<LocalDataSet>> leaves;
  leaves.reserve(it->second.leaves.size());
  for (const auto& parent : it->second.leaves) {
    leaves.push_back(parent->Map(map));
  }
  Put(new_id, std::move(leaves));
  return Status::OK();
}

void Worker::Drop(const std::string& dataset_id) {
  Partitions dropped;  // freed after the unlock
  MutexLock lock(mutex_);
  auto it = datasets_.find(dataset_id);
  if (it == datasets_.end()) return;
  dropped = std::move(it->second);
  datasets_.erase(it);
}

Result<DataSetPtr> Worker::GetDataSet(const std::string& dataset_id) {
  MutexLock lock(mutex_);
  auto it = datasets_.find(dataset_id);
  if (it == datasets_.end()) {
    return Status::Unavailable("worker " + name_ + ": no dataset '" +
                               dataset_id + "'");
  }
  return it->second.tree;
}

void Worker::Restart() {
  // "Restarting the node after a failure is equivalent to deleting all
  // cached datasets" (§5.8) — and all derived auxiliary structures with
  // them: the sort-key cache is soft state too.
  key_cache_.Clear();
  MutexLock lock(mutex_);
  datasets_.clear();
  ++restart_count_;
}

void Worker::EvictCaches() {
  // The memory-manager eviction path drops every reconstructible byte the
  // worker holds: materialized tables and the sort-key columns derived from
  // them (which would otherwise pin freed tables' key vectors uselessly).
  key_cache_.Clear();
  MutexLock lock(mutex_);
  for (auto& [id, partitions] : datasets_) {
    for (auto& leaf : partitions.leaves) leaf->Evict();
  }
}

int64_t Worker::restart_count() const {
  MutexLock lock(mutex_);
  return restart_count_;
}

void Worker::RecordCorruptMessageDropped() {
  MutexLock lock(mutex_);
  ++corrupt_messages_dropped_;
}

int64_t Worker::corrupt_messages_dropped() const {
  MutexLock lock(mutex_);
  return corrupt_messages_dropped_;
}

}  // namespace cluster
}  // namespace hillview
