#include "cluster/cluster.h"

#include "cluster/root.h"

namespace hillview {
namespace cluster {

Cluster::Cluster(std::vector<WorkerPtr> workers, SimulatedNetwork* network,
                 Options options)
    : workers_(std::move(workers)),
      network_(network),
      options_(options),
      health_(static_cast<int>(workers_.size()), options.health),
      scheduler_(options.scheduler, &health_) {}

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

void Cluster::Record(const std::string& dataset_id, Lineage lineage) {
  MutexLock lock(mutex_);
  lineage_[dataset_id] = std::move(lineage);
}

int Cluster::Heal(const std::string& dataset_id) {
  MutexLock lock(mutex_);
  int rebuilt = 0;
  for (size_t w = 0; w < workers_.size(); ++w) HealOn(w, dataset_id, &rebuilt);
  return rebuilt;
}

bool Cluster::HealOn(size_t w, const std::string& dataset_id, int* rebuilt) {
  Worker& worker = *workers_[w];
  if (worker.GetDataSet(dataset_id).ok()) return true;
  auto it = lineage_.find(dataset_id);
  if (it == lineage_.end()) return false;
  const Lineage& lineage = it->second;
  if (lineage.parent.empty()) {
    // Round-robin placement: the paper allows arbitrary horizontal
    // partitioning (§2), so it needs no keying.
    std::vector<std::shared_ptr<LocalDataSet>> partitions;
    for (size_t p = w; p < lineage.loaders.size(); p += workers_.size()) {
      partitions.push_back(LocalDataSet::FromLoader(
          dataset_id + "[" + std::to_string(p) + "]", lineage.loaders[p]));
    }
    worker.RegisterBase(dataset_id, std::move(partitions));
  } else if (!HealOn(w, lineage.parent, rebuilt) ||
             !worker.ApplyMap(lineage.parent, dataset_id, lineage.map,
                              lineage.op_name)
                  .ok()) {
    return false;
  }
  ++*rebuilt;
  return true;
}

std::vector<int> Cluster::Partitions(const std::string& dataset_id) const {
  MutexLock lock(mutex_);
  auto it = lineage_.find(dataset_id);
  while (it != lineage_.end() && !it->second.parent.empty()) {
    it = lineage_.find(it->second.parent);
  }
  if (it == lineage_.end()) return {};
  std::vector<int> per_worker(workers_.size(), 0);
  for (size_t p = 0; p < it->second.loaders.size(); ++p) {
    ++per_worker[p % per_worker.size()];
  }
  return per_worker;
}

}  // namespace cluster
}  // namespace hillview
