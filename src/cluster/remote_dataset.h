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

/// Deadline/retry policy of a machine-boundary edge (RemoteDataSet), the
/// only place transport faults are retried. Retrying is safe because
/// sketches are pure functions of (data, seed): re-running one is
/// idempotent, and merging a duplicate summary is harmless.
struct RpcPolicy {
  /// Per-attempt deadline: a leaf that produced no final summary within
  /// this window completes kDeadlineExceeded. 0 disables deadlines.
  double deadline_ms = 0.0;
  /// Retries per RPC after the first attempt (kDeadlineExceeded only).
  int max_retries = 0;
  /// Capped exponential backoff between attempts: attempt n sleeps
  /// min(cap, base * 2^(n-1)), scaled by deterministic seeded jitter.
  double backoff_base_ms = 1.0;
  double backoff_cap_ms = 50.0;
};

/// Root-side proxy for a dataset hosted on one worker: the machine-boundary
/// edge of the execution tree (Fig 1). Every partial summary crossing this
/// edge is serialized with the sketch's wire format, checksummed, charged to
/// the SimulatedNetwork (and to the edge's session), and deserialized on the
/// other side — so byte accounting and wire-format round-trips are faithful
/// even though both "machines" share a process.
///
/// The edge is built with everything only it reads: its worker and that
/// worker's index (the fault-injection channel and breaker slot), the
/// partitions the root assigned to the worker (its merge weight, which
/// never depends on what a restarted worker still knows), the root's
/// breaker, the RPC policy, and the session charged for its bytes.
///
/// The reference is soft (§5.7): if the worker restarted and no longer has
/// the dataset, RunSketch completes with Unavailable and the root heals the
/// id on that worker (Cluster::Heal) before its next attempt.
///
/// Fault handling (RpcPolicy): each attempt is bounded by a deadline — a
/// leaf that produced no final summary in time completes kDeadlineExceeded —
/// and deadline misses are retried here with capped exponential backoff and
/// deterministic seeded jitter, which is safe because sketches are pure
/// functions of (data, seed). Transport losses (dropped requests, dropped or
/// corrupted summaries) surface as deadline misses and heal the same way.
/// This is the only transport retry: a deadline miss that outlasts it makes
/// the root degrade the query rather than re-run it. Unavailable is NOT
/// retried here: it means soft state is gone and only the root's lineage
/// heal can rebuild it. The proxy consults the circuit breaker before each
/// RPC (fast-failing Unavailable while it is open) and reports each RPC's
/// terminal outcome back.
class RemoteDataSet final
    : public IDataSet,
      public std::enable_shared_from_this<RemoteDataSet> {
 public:
  RemoteDataSet(WorkerPtr worker, int worker_index, std::string dataset_id,
                int num_partitions, SimulatedNetwork* network,
                WorkerHealth& health, RpcPolicy rpc, int session_id)
      : worker_(std::move(worker)),
        worker_index_(worker_index),
        dataset_id_(std::move(dataset_id)),
        num_partitions_(num_partitions),
        network_(network),
        health_(health),
        rpc_(rpc),
        session_id_(session_id) {}

  StreamPtr<PartialResult<AnySummary>> RunSketch(
      const AnySketch& sketch, const SketchOptions& options) override;

  int NumPartitions() const override { return num_partitions_; }

 private:
  class RpcDriver;  // one RPC's attempts (remote_dataset.cc)

  const WorkerPtr worker_;
  const int worker_index_;  // fault-injection channel and breaker slot
  const std::string dataset_id_;
  const int num_partitions_;
  SimulatedNetwork* const network_;
  WorkerHealth& health_;
  const RpcPolicy rpc_;
  const int session_id_;  // charged for the edge's bytes
};

}  // namespace cluster
}  // namespace hillview

#endif  // HILLVIEW_CLUSTER_REMOTE_DATASET_H_
