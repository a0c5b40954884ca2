#ifndef HILLVIEW_CORE_DATASET_H_
#define HILLVIEW_CORE_DATASET_H_

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/any_sketch.h"
#include "reactive/observable.h"
#include "storage/table.h"
#include "util/random.h"
#include "util/thread_annotations.h"
#include "util/thread_pool.h"

namespace hillview {

class IDataSet;
using DataSetPtr = std::shared_ptr<IDataSet>;

/// A partition-to-partition transformation (filtering, derived columns —
/// §5.6). Must be deterministic: derived partitions are soft state and are
/// recomputed by re-running the map after eviction or worker restarts.
using TableMap = std::function<Result<TablePtr>(const TablePtr&)>;

/// Options controlling one sketch execution: what every node of the tree
/// reads, copied into each child's options. What only the machine-boundary
/// edge reads (its retry policy, the session charged for its bytes) is built
/// into that edge instead (cluster::RemoteDataSet).
struct SketchOptions {
  /// Root seed; each partition gets MixSeed(seed, partition position). The
  /// seed is recorded in the redo log so replays are deterministic (§5.8).
  uint64_t seed = 0;
  /// Cooperative cancellation (§5.3). May be null. Checked when a queued
  /// leaf task is dequeued, at every morsel boundary inside a summarize
  /// (sketch/morsel.h), and before each partial-result emission in the
  /// ParallelDataSet merger; a flipped token settles the stream with
  /// Status::Cancelled and no further summaries are emitted.
  CancellationTokenPtr cancellation;
  /// Whether the caller reads partial results. A blocking caller
  /// (cluster::RootSession::RunSketch) reads only the final value and sets
  /// this false: every ParallelDataSet merger of the query, on the workers
  /// and at the root, then emits only its final summary, so each worker
  /// sends one frame. A merger emits partials only when both this and its
  /// own Options::progressive allow them.
  bool partials = true;
  /// Worker-local pool provider for intra-partition parallelism, forwarded
  /// to sketches via SketchContext (cluster::RemoteDataSet injects the
  /// receiving worker's own pool). May be empty; sketches then run their
  /// helper work inline.
  std::function<ThreadPool*()> aux_pool;
  /// Worker-resident sort-key cache provider, forwarded the same way
  /// (cluster::RemoteDataSet injects the receiving worker's cache). May be
  /// empty; order-based sketches then rebuild keys per scan.
  std::function<SortKeyCache*()> key_cache;
};

/// A distributed dataset: the Partitioned Data Set abstraction from Sketch
/// [14] that Hillview builds on (§5.7), reduced to what the execution tree
/// runs: a sketch over its partitions, and how many there are. Concrete
/// shapes: a single partition (LocalDataSet), a fan-out over children
/// (ParallelDataSet), or a proxy to another machine (cluster::RemoteDataSet).
///
/// All data reachable from a dataset is soft state: partitions may be
/// evicted at any time and are reconstructed on demand from their loaders
/// (reload from a repository) or by re-running maps (§5.7). Whoever holds
/// the partitions (a cluster::Worker) maps and evicts them; the tree only
/// reads them.
class IDataSet {
 public:
  virtual ~IDataSet() = default;

  /// Runs a sketch over every partition, merging summaries toward this node
  /// and streaming monotone partial results (§5.3). The returned stream
  /// completes with the final summary at progress 1.0, or with an error /
  /// cancelled status.
  virtual StreamPtr<PartialResult<AnySummary>> RunSketch(
      const AnySketch& sketch, const SketchOptions& options) = 0;

  /// Number of leaf partitions below this node: its weight in a merge.
  virtual int NumPartitions() const = 0;
};

/// Exposes a type-erased partial-result stream as a typed one, forwarding
/// progress and coverage with every summary.
template <typename R>
StreamPtr<PartialResult<R>> TypedStream(
    const StreamPtr<PartialResult<AnySummary>>& erased) {
  auto typed = std::make_shared<Stream<PartialResult<R>>>();
  // Progress-only partials (empty summary) must still reach subscribers:
  // progress bars advance on every tick, not only on ticks that happen to
  // carry a merged summary. An empty tick re-emits the last summary seen
  // (or the zero summary R{} before any arrives).
  auto last_value = std::make_shared<R>();
  erased->Subscribe(
      [typed, last_value](const PartialResult<AnySummary>& p) {
        if (!p.value.empty()) *last_value = p.value.As<R>();
        typed->OnNext(PartialResult<R>{p.progress, *last_value, p.coverage});
      },
      [typed](const Status& s) { typed->OnComplete(s); });
  return typed;
}

/// Runs a typed sketch and exposes a typed partial-result stream.
template <typename R>
StreamPtr<PartialResult<R>> RunTypedSketch(IDataSet& dataset,
                                           SketchPtr<R> sketch,
                                           const SketchOptions& options = {}) {
  return TypedStream<R>(
      dataset.RunSketch(AnySketch::Wrap<R>(std::move(sketch)), options));
}

/// Blocks for a sketch's final result; the common path for tests, examples
/// and benchmarks that do not care about progressive updates.
template <typename R>
Result<R> SketchAndWait(IDataSet& dataset, SketchPtr<R> sketch,
                        const SketchOptions& options = {}) {
  auto erased = dataset.RunSketch(AnySketch::Wrap<R>(std::move(sketch)),
                                  options);
  // Track the last real summary ourselves (not via RunTypedSketch, which
  // substitutes R{} on progress-only ticks): a stream that completes OK
  // without ever carrying a summary must stay distinguishable from one
  // whose final summary happens to equal R{}.
  auto last_summary = std::make_shared<std::optional<R>>();
  erased->Subscribe([last_summary](const PartialResult<AnySummary>& p) {
    if (!p.value.empty()) *last_summary = p.value.As<R>();
  });
  (void)erased->BlockingLast();
  Status status = erased->final_status();
  if (!status.ok()) return status;
  if (!last_summary->has_value()) {
    return Status::Internal("sketch produced no result");
  }
  return **last_summary;
}

/// A single partition with reconstructible contents. The loader runs on
/// first access (or after eviction) and its result is cached; this is the
/// leaf of every execution tree and the data cache of §5.4.
class LocalDataSet final : public IDataSet,
                           public std::enable_shared_from_this<LocalDataSet> {
 public:
  using Loader = std::function<Result<TablePtr>()>;

  /// Dataset backed by a loader (e.g. read a file); contents are soft.
  static std::shared_ptr<LocalDataSet> FromLoader(Loader loader);

  /// Dataset pinned to an in-memory table (tests, generators). Eviction is a
  /// no-op since the loader just returns the same table.
  static std::shared_ptr<LocalDataSet> FromTable(TablePtr table);

  StreamPtr<PartialResult<AnySummary>> RunSketch(
      const AnySketch& sketch, const SketchOptions& options) override;

  int NumPartitions() const override { return 1; }

  /// Derives a partition by applying `map` to this one, lazily: it
  /// materializes on first access and may be evicted (§5.6). The derived
  /// partition keeps this one alive and reads it through GetTable().
  std::shared_ptr<LocalDataSet> Map(TableMap map);

  /// Drops the materialized table; the loader runs again on next access.
  void Evict() EXCLUDES(mutex_);

  /// Materializes (or returns the cached) partition table.
  Result<TablePtr> GetTable() EXCLUDES(mutex_);

  /// This partition's summary: cancellation is checked before the table
  /// loads and again after the scan, and a cancelled scan returns
  /// Cancelled rather than a summary that may cover part of the partition.
  /// RunSketch and ParallelDataSet's pool tasks both run it. The options'
  /// aux_pool and key_cache providers are resolved once, here, into the
  /// SketchContext's plain pointers.
  Result<AnySummary> Summarize(const AnySketch& sketch,
                               const SketchOptions& options);

  /// True if the partition is currently materialized in memory.
  bool IsMaterialized() const EXCLUDES(mutex_);

  /// Number of times the loader ran (observability for cache tests).
  int load_count() const EXCLUDES(mutex_);

 private:
  explicit LocalDataSet(Loader loader) : loader_(std::move(loader)) {}

  Loader loader_;
  mutable Mutex mutex_;
  TablePtr cached_ GUARDED_BY(mutex_);
  int load_count_ GUARDED_BY(mutex_) = 0;
};

/// Aggregation over children (§5.3's execution tree): distributes sketches
/// to children, merges their summaries, and emits partial results batched in
/// an aggregation window. Leaf children execute on the shared thread pool —
/// one leaf per micropartition, "a thread pool that serves leafs with work
/// to do".
class ParallelDataSet final : public IDataSet {
 public:
  struct Options {
    /// Partial results arriving within this window are merged before being
    /// propagated (§5.3: "aggregation nodes wait for 0.1 seconds").
    double aggregation_window_ms = 100.0;
    /// Emit a partial result after every child completion when true; the
    /// window still rate-limits. False emits only the final result, as does
    /// a query whose SketchOptions::partials is false.
    bool progressive = true;
    /// Degraded-mode aggregation (§5.7: "the root returns the results
    /// obtained from the remaining machines"): when true, a child completing
    /// with a tolerable fault (Unavailable, DeadlineExceeded) is marked lost
    /// instead of failing the whole query — its summaries are excluded, the
    /// merge completes over the survivors, and the emitted coverage drops
    /// accordingly. Any other error, and every error when false, still fails
    /// the aggregation strictly.
    bool tolerate_child_failures = false;
  };

  ParallelDataSet(std::vector<DataSetPtr> children, ThreadPool* pool)
      : ParallelDataSet(std::move(children), pool, Options{}) {}

  ParallelDataSet(std::vector<DataSetPtr> children, ThreadPool* pool,
                  Options options);

  StreamPtr<PartialResult<AnySummary>> RunSketch(
      const AnySketch& sketch, const SketchOptions& options) override;

  int NumPartitions() const override;

  const std::vector<DataSetPtr>& children() const { return children_; }

 private:
  std::vector<DataSetPtr> children_;
  ThreadPool* pool_;
  Options options_;
};

}  // namespace hillview

#endif  // HILLVIEW_CORE_DATASET_H_
