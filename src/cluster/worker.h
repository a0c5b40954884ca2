#ifndef HILLVIEW_CLUSTER_WORKER_H_
#define HILLVIEW_CLUSTER_WORKER_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/dataset.h"
#include "storage/sort_key_cache.h"
#include "util/thread_annotations.h"
#include "util/thread_pool.h"

namespace hillview {
namespace cluster {

/// One simulated worker server: hosts micropartition leaf datasets behind a
/// private thread pool (its "cores"). The worker owns its partitions: per
/// dataset id it keeps the typed LocalDataSet leaves, which it alone maps
/// (ApplyMap) and evicts (EvictCaches), and the ParallelDataSet fan-out over
/// them that queries run (GetDataSet). Workers are stateless in the paper's
/// sense (§5.8): everything they hold is soft state reconstructible from the
/// root's lineage record (Cluster::Heal), and Restart() models a
/// crash-restart by dropping all of it.
class Worker {
 public:
  /// `aggregation` configures the worker's internal ParallelDataSet fan-out
  /// over its micropartitions. Chaos tests set progressive=false so exactly
  /// one summary crosses the wire per query attempt — which makes the
  /// per-channel message counts (and hence the seeded fault schedule)
  /// deterministic.
  Worker(std::string name, int num_threads,
         ParallelDataSet::Options aggregation = {})
      : name_(std::move(name)),
        pool_(num_threads),
        aggregation_(aggregation) {}

  const std::string& name() const { return name_; }
  ThreadPool* pool() { return &pool_; }

  /// Pool for intra-sketch helper work (morsel fan-out, find-text dictionary
  /// matching): the SAME pool that runs partition summaries, so a worker
  /// under full morsel fan-out still runs exactly its configured threads —
  /// its "cores" — instead of oversubscribing 2× (the old separate aux pool).
  /// Sharing is deadlock-free because all intra-sketch fan-out goes through
  /// ParallelApply, where the calling thread participates: a summarize
  /// blocked on its helper chunks is itself draining those chunks, even when
  /// every pool thread is inside its own fan-out.
  ThreadPool* aux_pool() { return &pool_; }

  /// Worker-resident sort-key cache (see storage/sort_key_cache.h): reused
  /// across scrolls of the same sorted view, handed to sketches via
  /// SketchContext at the machine boundary. Soft state — Restart() and
  /// EvictCaches() both drop it.
  SortKeyCache* key_cache() { return &key_cache_; }

  /// Blocks until every queued/running pool task has finished: quiesces the
  /// worker. Cluster teardown calls this for the whole deployment so
  /// straggler tasks from abandoned attempts (deadline misses, superseded
  /// renders, degraded completions) cannot outlive what they touch.
  void Drain() { pool_.Wait(); }

  /// Registers the worker's share of a base (repository-backed) dataset,
  /// one loader per partition. Partitions are micropartitions (§5.3); each
  /// becomes a leaf on this worker's pool, whose data loads lazily from its
  /// loader. Cluster::Heal calls it only where the id is missing, so a live
  /// dataset is never swapped.
  void RegisterBase(const std::string& dataset_id,
                    std::vector<LocalDataSet::Loader> loaders)
      EXCLUDES(mutex_);

  /// Derives `new_id` from `parent_id` by mapping each of its partitions
  /// (§5.6), replacing any dataset under `new_id`. The result is lazy soft
  /// state. Fails with Unavailable if the parent is gone (e.g. after a
  /// restart); Cluster::Heal rebuilds the parent from its lineage first.
  Status ApplyMap(const std::string& parent_id, const std::string& new_id,
                  const TableMap& map) EXCLUDES(mutex_);

  /// Drops `dataset_id` from this worker and leaves every other id in place:
  /// Cluster calls it when a derived id's last pin goes. Partition tasks
  /// already running on it hold their own references, so a superseded scan
  /// finishes and frees its tables when it ends. A missing id is a no-op.
  void Drop(const std::string& dataset_id) EXCLUDES(mutex_);

  /// The worker-local dataset tree for `dataset_id` (a ParallelDataSet whose
  /// children are its LocalDataSet partitions), or Unavailable.
  Result<DataSetPtr> GetDataSet(const std::string& dataset_id)
      EXCLUDES(mutex_);

  /// Crash-restart: drops every dataset (base and derived) and all cached
  /// tables. "Restarting the node after a failure is equivalent to deleting
  /// all cached datasets" (§5.8).
  void Restart() EXCLUDES(mutex_);

  /// Drops only materialized tables, keeping the dataset structure: the
  /// memory-manager eviction path (§5.7), distinct from a crash. A derived
  /// partition re-runs its map on next access.
  void EvictCaches() EXCLUDES(mutex_);

  int64_t restart_count() const EXCLUDES(mutex_);

  /// Records a summary frame that failed its checksum or did not deserialize
  /// at the machine boundary and was silently dropped there (the retry layer
  /// turns the resulting silence into kDeadlineExceeded), so corrupt
  /// messages are observable, not just absorbed.
  void RecordCorruptMessageDropped() EXCLUDES(mutex_);
  int64_t corrupt_messages_dropped() const EXCLUDES(mutex_);

 private:
  /// One dataset id's partitions on this worker and the fan-out over them.
  struct Partitions {
    std::vector<std::shared_ptr<LocalDataSet>> leaves;
    DataSetPtr tree;
  };

  /// Registers `leaves` under `dataset_id`, replacing what was there.
  void Put(const std::string& dataset_id,
           std::vector<std::shared_ptr<LocalDataSet>> leaves) REQUIRES(mutex_);

  std::string name_;
  SortKeyCache key_cache_;
  ThreadPool pool_;
  ParallelDataSet::Options aggregation_;
  mutable Mutex mutex_;
  std::map<std::string, Partitions> datasets_ GUARDED_BY(mutex_);
  int64_t restart_count_ GUARDED_BY(mutex_) = 0;
  int64_t corrupt_messages_dropped_ GUARDED_BY(mutex_) = 0;
};

using WorkerPtr = std::shared_ptr<Worker>;

}  // namespace cluster
}  // namespace hillview

#endif  // HILLVIEW_CLUSTER_WORKER_H_
