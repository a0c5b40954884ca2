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

void Cluster::RecordPartitions(const std::string& dataset_id,
                               std::vector<int> per_worker) {
  MutexLock lock(mutex_);
  partitions_[dataset_id] = std::move(per_worker);
}

std::vector<int> Cluster::Partitions(const std::string& dataset_id) const {
  MutexLock lock(mutex_);
  auto it = partitions_.find(dataset_id);
  return it == partitions_.end() ? std::vector<int>() : it->second;
}

}  // namespace cluster
}  // namespace hillview
