#ifndef HILLVIEW_CLUSTER_REMOTE_DATASET_H_
#define HILLVIEW_CLUSTER_REMOTE_DATASET_H_

#include <memory>
#include <string>

#include "cluster/network.h"
#include "cluster/worker.h"
#include "cluster/worker_health.h"
#include "core/dataset.h"

namespace hillview {
namespace cluster {

/// Root-side proxy for a dataset hosted on one worker: the machine-boundary
/// edge of the execution tree (Fig 1). Every partial summary crossing this
/// edge is serialized with the sketch's wire format, checksummed, charged to
/// the SimulatedNetwork, and deserialized on the other side — so byte
/// accounting and wire-format round-trips are faithful even though both
/// "machines" share a process.
///
/// The reference is soft (§5.7): if the worker restarted and no longer has
/// the dataset, RunSketch completes with Unavailable and the root heals the
/// id on that worker (Cluster::Heal) before its next attempt.
///
/// Fault handling (options.rpc): each attempt is bounded by a deadline — a
/// leaf that produced no final summary in time completes kDeadlineExceeded —
/// and deadline misses are retried here with capped exponential backoff and
/// deterministic seeded jitter, which is safe because sketches are pure
/// functions of (data, seed). Transport losses (dropped requests, dropped or
/// corrupted summaries) surface as deadline misses and heal the same way.
/// This is the only transport retry: a deadline miss that outlasts it makes
/// the root degrade the query rather than re-run it. Unavailable is NOT
/// retried here: it means soft state is gone and only the root's lineage
/// heal can rebuild it.
///
/// When constructed with a WorkerHealth tracker and worker index, the proxy
/// consults the circuit breaker before each RPC (fast-failing Unavailable
/// while the breaker is open) and reports each RPC's terminal outcome back.
class RemoteDataSet final : public IDataSet {
 public:
  /// `num_partitions` is the count the root assigned to this worker, or -1
  /// when the root never recorded it; NumPartitions() then asks the worker.
  RemoteDataSet(WorkerPtr worker, std::string dataset_id,
                SimulatedNetwork* network, int worker_index = -1,
                WorkerHealth* health = nullptr, int num_partitions = -1)
      : worker_(std::move(worker)),
        dataset_id_(std::move(dataset_id)),
        id_("remote:" + worker_->name() + "/" + dataset_id_),
        network_(network),
        worker_index_(worker_index),
        health_(health),
        num_partitions_(num_partitions) {}

  const std::string& id() const override { return id_; }

  StreamPtr<PartialResult<AnySummary>> RunSketch(
      const AnySketch& sketch, const SketchOptions& options) override;

  /// Remote map: instructs the worker to derive a new dataset; returns a
  /// proxy to it. The map closure crossing the boundary is charged a nominal
  /// request size (closures are code, not data).
  DataSetPtr Map(TableMap map, const std::string& op_name) override;

  int NumPartitions() const override;

  void Evict() override { worker_->EvictCaches(); }

  const std::string& dataset_id() const { return dataset_id_; }
  const WorkerPtr& worker() const { return worker_; }

 private:
  WorkerPtr worker_;
  std::string dataset_id_;
  std::string id_;
  SimulatedNetwork* network_;
  int worker_index_;       // channel id for fault injection; -1 = untracked
  WorkerHealth* health_;   // root's breaker; may be null (no gating)
  int num_partitions_;     // -1 = unrecorded: ask the worker
};

}  // namespace cluster
}  // namespace hillview

#endif  // HILLVIEW_CLUSTER_REMOTE_DATASET_H_
