#ifndef HILLVIEW_CLUSTER_CLUSTER_H_
#define HILLVIEW_CLUSTER_CLUSTER_H_

#include <atomic>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "cluster/network.h"
#include "cluster/remote_dataset.h"
#include "cluster/scheduler.h"
#include "cluster/worker.h"
#include "cluster/worker_health.h"
#include "core/computation_cache.h"
#include "core/dataset.h"

namespace hillview {
namespace cluster {

class RootSession;
class DataSetRegistry;  // cluster.cc

/// A dataset id and a pin on it (see Cluster): while some copy of the handle
/// lives, a derived id keeps its lineage and its data on every worker.
/// Copies share one pin, and the last copy's destruction releases it. A
/// handle on a base id, or on an id the cluster does not know, pins nothing.
/// A handle may outlive its Cluster; its release is then a no-op.
class PinnedId {
 public:
  PinnedId() = default;

  const std::string& id() const { return id_; }

 private:
  friend class DataSetRegistry;  // the only issuer of pins
  struct Pin;                    // cluster.cc: releases in its destructor

  PinnedId(std::string id, std::shared_ptr<const Pin> pin)
      : id_(std::move(id)), pin_(std::move(pin)) {}

  std::string id_;
  std::shared_ptr<const Pin> pin_;
};

/// The shared serving substrate of the multi-tenant root (Fig 1's web
/// server, split from the per-user state): one Cluster owns the workers, the
/// simulated interconnect, the per-worker health tracker, the root-resident
/// shared ComputationCache, the fair query scheduler, and the lineage of
/// every dataset id. Tenants attach via OpenSession(), which hands out thin
/// per-session handles (RootSession) carrying only what is genuinely
/// per-user: a redo log of that user's exploration, render generations, and
/// a session id for per-tenant byte accounting.
///
/// What is shared and why:
///  - **Workers + network + health**: physical resources; the paper's
///    economic claim (§7) is precisely that many users multiplex them.
///  - **ComputationCache**: keyed by (dataset id, sketch name, seed), so two
///    sessions rendering the same view are served one computation —
///    single-flighted, and never populated with degraded (coverage < 1)
///    results (see ComputationCache::GetOrBeginCompute).
///  - **QueryScheduler**: deficit-round-robin fairness and admission control
///    across the sessions' queries.
///  - **Lineage**: one record per dataset id — a base id's partition
///    loaders, or a derived id's parent and map — from which Heal rebuilds
///    what a restarted worker lost, on that worker only (§5.7), and from
///    which a degraded merge weighs a restarted worker by the partitions it
///    should hold rather than by what it still knows.
///
/// Every worker byte is soft state (§5.7), and a derived id lives only
/// while something pins it (PinnedId): a Spreadsheet view (copies share one
/// pin), a running query (from its start until it settles), or a derived
/// child's own lineage, which pins its parent. When the last pin goes, the
/// Cluster erases the id's lineage, drops the id from every worker
/// (Worker::Drop) and releases the parent, all under the mutex a heal
/// holds, so a release and a heal never interleave. Base ids (LoadDataSet)
/// are never dropped, and neither are shared-cache entries: an id names its
/// lineage, so a view derived again hits the summaries cached for it.
///
/// Sessions share the worker-side dataset namespace: dataset ids are
/// cluster-global, so any session's query heals any id, and loading an id
/// that is already live leaves it in place. Cross-session cache keys only
/// collide — by design — when dataset id, sketch and seed all match.
///
/// Lifetime: the Cluster must outlive every RootSession it opened and every
/// query they run. Its destructor quiesces the deployment by draining all
/// worker pools, so in-flight RPC machinery (retry drivers, health reports)
/// from abandoned attempts cannot outlive the members it touches.
class Cluster {
 public:
  struct Options {
    ParallelDataSet::Options aggregation;
    /// Query re-runs after an Unavailable failure, each preceded by a Heal
    /// of the queried id. A query whose budget is spent, or that failed any
    /// other retriable way, gets one degraded pass that tolerates lost
    /// workers and returns a coverage-marked partial result (§5.7).
    int max_replay_retries = 2;
    /// Per-RPC deadline/retry policy built into every machine-boundary edge
    /// (RemoteDataSet): the only place transport faults are retried.
    RpcPolicy rpc{/*deadline_ms=*/0.0, /*max_retries=*/2,
                  /*backoff_base_ms=*/1.0, /*backoff_cap_ms=*/50.0};
    /// Circuit-breaker tuning for the per-worker health tracker.
    WorkerHealth::Options health;
    /// Fair-scheduling and admission-control tuning.
    QueryScheduler::Options scheduler;
  };

  Cluster(std::vector<WorkerPtr> workers, SimulatedNetwork* network)
      : Cluster(std::move(workers), network, Options{}) {}
  Cluster(std::vector<WorkerPtr> workers, SimulatedNetwork* network,
          Options options);

  /// Quiesces the deployment: drains every worker pool so no straggler task
  /// can dangle — and so the last reference to a Worker is never dropped on
  /// that worker's own pool thread (a self-join in its destructor).
  ~Cluster();

  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  /// Opens a new tenant session with a fresh session id. Sessions are cheap:
  /// a redo log, render generations, and forwarding pointers.
  std::shared_ptr<RootSession> OpenSession();

  int num_workers() const { return static_cast<int>(workers_.size()); }
  const std::vector<WorkerPtr>& workers() const { return workers_; }
  SimulatedNetwork* network() { return network_; }
  WorkerHealth& health() { return health_; }
  ComputationCache& shared_cache() { return shared_cache_; }
  QueryScheduler& scheduler() { return scheduler_; }
  const Options& options() const { return options_; }
  /// Sessions opened so far (session ids are 0..n-1).
  int sessions_opened() const { return next_session_id_.load(); }

  /// A number no earlier call returned. An op name that cannot describe
  /// its map (an arbitrary function) carries one, so two such maps of one
  /// parent derive distinct dataset ids, cache keys and lineage records.
  uint64_t NextOpSerial() {
    return next_op_serial_.fetch_add(1, std::memory_order_relaxed);
  }

  /// How to rebuild one dataset id: a base id's partition loaders (loader
  /// p on worker p % num_workers), or a derived id's parent and map.
  struct Lineage {
    std::vector<LocalDataSet::Loader> loaders;
    std::string parent;  // empty for a base id
    TableMap map;
  };

  /// Records (or replaces) the lineage of `dataset_id`. A derived id comes
  /// back pinned, with one more pin if it was live already; a fresh one
  /// pins its parent. A base id comes back unpinned: it is never dropped.
  PinnedId Record(const std::string& dataset_id, Lineage lineage);

  /// Pins `dataset_id` for the handle's lifetime if it is a live derived
  /// id; any other id comes back unpinned.
  PinnedId Pin(const std::string& dataset_id);

  /// Ensures `dataset_id` is present: on each worker that lacks it, rebuilds
  /// its missing ancestors and then it, on that worker only. Returns how
  /// many datasets it rebuilt, summed over workers. An id without a recorded
  /// base rebuilds nothing, and a worker that restarts again mid-heal is
  /// left to the next query attempt to find.
  int Heal(const std::string& dataset_id);

  /// Partitions per worker of `dataset_id` (a derived id has its base's),
  /// or empty for an id without a recorded base (a released one included).
  std::vector<int> Partitions(const std::string& dataset_id) const;

 private:
  std::vector<WorkerPtr> workers_;
  SimulatedNetwork* network_;
  Options options_;
  WorkerHealth health_;
  ComputationCache shared_cache_;
  QueryScheduler scheduler_;
  std::atomic<int> next_session_id_{0};
  std::atomic<uint64_t> next_op_serial_{0};
  /// The lineage records and their pins. Pins reach it weakly, so one that
  /// outlives the Cluster finds it gone.
  std::shared_ptr<DataSetRegistry> registry_;
};

}  // namespace cluster
}  // namespace hillview

#endif  // HILLVIEW_CLUSTER_CLUSTER_H_
