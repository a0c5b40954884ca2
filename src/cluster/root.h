#ifndef HILLVIEW_CLUSTER_ROOT_H_
#define HILLVIEW_CLUSTER_ROOT_H_

#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "cluster/cluster.h"
#include "cluster/remote_dataset.h"
#include "core/redo_log.h"

namespace hillview {
namespace cluster {

/// One tenant's handle on a shared Cluster (obtained via
/// Cluster::OpenSession): the per-user slice of the root node. The session
/// owns only genuinely per-user state — its redo log (the text record of
/// ITS exploration, §5.7), its render generations, and its session id
/// (built into each query's RPC edges, which charge their bytes to it in the
/// SimulatedNetwork for per-tenant accounting). Workers, the health tracker,
/// the shared
/// ComputationCache, the fair scheduler and the lineage that heals lost
/// datasets live on the Cluster and are shared by all sessions.
///
/// Every query is a stream of partial results (§5.3); RunSketch is that
/// stream's last value. One query object owns a stream's whole life:
///  - **Cache.** A cacheable RunSketch first asks the shared cache's
///    single-flight protocol. A hit (or another session's adopted in-flight
///    result) is complete and needs no query; on a miss the query owns the
///    flight and publishes only a full-coverage final result, so a degraded
///    one never reaches another session.
///  - **Grant.** The cluster's QueryScheduler may shed the query
///    (Unavailable) and orders it against other sessions' queries by
///    deficit round robin. The query holds its one grant across all its
///    attempts until it settles, and is charged the bytes it moved.
///  - **Ladder.** Transport faults are retried only at the RPC edge
///    (RemoteDataSet). Soft-state loss (kUnavailable) heals the queried id
///    (Cluster::Heal) and starts a new attempt while the budget lasts; any
///    other retriable failure, or a spent budget, gets exactly one degraded
///    pass that merges over the survivors and reports the coverage instead
///    of an error. While any breaker is open, every attempt is degraded from
///    its start. A retried attempt's partials reach the caller only once
///    they catch up with the progress already shown. An id without lineage
///    (never loaded, or released) settles Unavailable before any request,
///    grant or heal.
///
/// Cancellation contract: BeginRender(view) starts a new render generation
/// for a view and supersedes the previous one — the old generation's token
/// flips, its queries settle Status::Cancelled (checked at morsel
/// boundaries, at partial-result emission in the merger, between attempts
/// and while queued in the scheduler), and cancelled queries never poison
/// the shared cache or the health stats. A superseded query keeps its grant
/// until it settles; a blocking caller returns at once.
///
/// A running query keeps its session alive and pins its dataset id, so it
/// may settle, with full coverage after a heal, after its caller dropped
/// stream, view and session. The Cluster must outlive every query.
class RootSession : public std::enable_shared_from_this<RootSession> {
 public:
  /// Per-query fault-handling + serving observability, filled in by
  /// RunSketch when the caller passes a stats out-param.
  struct QueryStats {
    double coverage = 1.0;    // partitions merged / total partitions
    int replay_heals = 0;     // heals this query triggered
    bool degraded = false;    // coverage < 1.0
    bool from_cache = false;  // served from the shared computation cache
    bool coalesced = false;   // adopted another caller's in-flight result
  };

  /// Registers a base dataset: `partition_loaders[i]` produces micropartition
  /// i, assigned to worker i % num_workers. Records the loaders as the id's
  /// lineage, then heals it: a worker that lost it later re-registers its
  /// own share ("the recursion ends when data is read from disk"), and one
  /// that holds it keeps it. Dataset ids are cluster-global: sessions loading
  /// the same id share the worker-side data and the shared cache's keyspace
  /// (by design — that is what makes cross-session cache hits possible).
  /// Logged.
  Status LoadDataSet(const std::string& dataset_id,
                     std::vector<LocalDataSet::Loader> partition_loaders);

  /// Derives `<parent>/<op_name>` on every worker by a deterministic
  /// per-partition map (filtering / new columns, §5.6) and records it as the
  /// id's lineage, so a query of the id heals it after a restart. Returns
  /// the derived id already pinned (see Cluster): it lives while the handle,
  /// a copy of it, a running query of it or a derived child does, and the
  /// last release drops it from every worker. Mapping an id that is live
  /// rebuilds it on every worker and adds a pin. Returns Unavailable where
  /// a worker lost the parent, after releasing what it recorded: the map
  /// itself does not heal. Logged.
  Result<PinnedId> MapDataSet(const std::string& parent_id, TableMap map,
                              const std::string& op_name);

  /// Runs a sketch to completion: the last value of its query stream (see
  /// the class comment). Its caller reads no partial, so each worker sends
  /// only its final summary. Shared-cache lookup when `cacheable`
  /// (identical concurrent queries are single-flighted across sessions).
  /// The seed is logged. `stats` (optional) receives what the fault
  /// machinery did. `token` (optional, typically from BeginRender) cancels
  /// the query when its render is superseded; it then returns
  /// Status::Cancelled at once.
  template <typename R>
  Result<R> RunSketch(const std::string& dataset_id, SketchPtr<R> sketch,
                      uint64_t seed = 0, bool cacheable = false,
                      QueryStats* stats = nullptr,
                      CancellationTokenPtr token = {}) {
    HV_ASSIGN_OR_RETURN(
        AnySummary summary,
        RunErased(dataset_id, AnySketch::Wrap<R>(std::move(sketch)), seed,
                  cacheable, std::move(token), stats));
    return summary.As<R>();
  }

  /// Progressive variant: the query's stream of partial results itself. It
  /// is admitted, heals, degrades and is charged like RunSketch (never
  /// cached); a degraded stream's values carry their coverage. Returns once
  /// the query is granted (or has settled: shed, cancelled, failed).
  template <typename R>
  StreamPtr<PartialResult<R>> RunSketchStream(const std::string& dataset_id,
                                              SketchPtr<R> sketch,
                                              uint64_t seed = 0,
                                              CancellationTokenPtr token = {}) {
    return TypedStream<R>(
        RunErasedStream(dataset_id, AnySketch::Wrap<R>(std::move(sketch)),
                        seed, std::move(token)));
  }

  /// Starts a new render generation for `view_id` and returns its
  /// cancellation token. The previous generation's token (if any) is
  /// cancelled: a scroll that arrives before the last render finished
  /// supersedes it, and the superseded query settles Status::Cancelled. Pass
  /// the token to RunSketch / RunSketchStream.
  CancellationTokenPtr BeginRender(const std::string& view_id)
      EXCLUDES(render_mutex_);

  /// The current render generation of a view (0 before the first
  /// BeginRender); observability for tests.
  int render_generation(const std::string& view_id) const
      EXCLUDES(render_mutex_);

  /// Simulates a crash of worker `index` (drops all its soft state).
  void RestartWorker(int index) { cluster_->workers()[index]->Restart(); }

  /// Hook fired just before each query re-run (after a heal, and
  /// before the degraded pass), with the 0-based attempt number that failed
  /// and its status, on whichever thread settled that attempt. Tests use it
  /// to crash workers *between* the attempts of one query.
  void set_retry_hook(std::function<void(int, const Status&)> hook) {
    retry_hook_ = std::move(hook);
  }

  int session_id() const { return session_id_; }
  Cluster* cluster() { return cluster_; }
  RedoLog& redo_log() { return redo_log_; }

 private:
  friend class Cluster;  // sole issuer of sessions (OpenSession)

  RootSession(Cluster* cluster, int session_id)
      : cluster_(cluster), session_id_(session_id) {}

  class Query;  // one query's whole life (root.cc)

  Result<AnySummary> RunErased(const std::string& dataset_id,
                               AnySketch sketch, uint64_t seed,
                               bool cacheable, CancellationTokenPtr token,
                               QueryStats* stats);

  StreamPtr<PartialResult<AnySummary>> RunErasedStream(
      const std::string& dataset_id, AnySketch sketch, uint64_t seed,
      CancellationTokenPtr token);

  /// The SketchOptions every node of a query's tree reads: its seed,
  /// cancellation token and whether its caller reads partials. What only
  /// the RPC edges read (the deployment's RpcPolicy, this session's id) is
  /// built into them by GetRootDataSet.
  SketchOptions QueryOptions(uint64_t seed, CancellationTokenPtr token,
                             bool partials) const;

  /// The root execution tree for a dataset: a ParallelDataSet over one
  /// RemoteDataSet per worker, weighted by `partitions` (the root's record,
  /// one count per worker). `tolerant` completes the merge over the
  /// survivors when workers fail (degraded mode).
  DataSetPtr GetRootDataSet(const std::string& dataset_id,
                            const std::vector<int>& partitions, bool tolerant);

  struct RenderState {
    int generation = 0;
    CancellationTokenPtr token;
  };

  Cluster* const cluster_;
  const int session_id_;
  RedoLog redo_log_;
  std::function<void(int, const Status&)> retry_hook_;
  mutable Mutex render_mutex_;
  std::unordered_map<std::string, RenderState> renders_
      GUARDED_BY(render_mutex_);
};

}  // namespace cluster
}  // namespace hillview

#endif  // HILLVIEW_CLUSTER_ROOT_H_
