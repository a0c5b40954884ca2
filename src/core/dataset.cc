#include "core/dataset.h"

#include <algorithm>

#include "util/stopwatch.h"

namespace hillview {

std::shared_ptr<LocalDataSet> LocalDataSet::FromLoader(Loader loader) {
  return std::shared_ptr<LocalDataSet>(new LocalDataSet(std::move(loader)));
}

std::shared_ptr<LocalDataSet> LocalDataSet::FromTable(TablePtr table) {
  return FromLoader([table]() -> Result<TablePtr> { return table; });
}

Result<TablePtr> LocalDataSet::GetTable() {
  MutexLock lock(mutex_);
  if (cached_ != nullptr) return cached_;
  ++load_count_;
  auto result = loader_();
  if (result.ok()) cached_ = result.value();
  return result;
}

bool LocalDataSet::IsMaterialized() const {
  MutexLock lock(mutex_);
  return cached_ != nullptr;
}

int LocalDataSet::load_count() const {
  MutexLock lock(mutex_);
  return load_count_;
}

void LocalDataSet::Evict() {
  MutexLock lock(mutex_);
  cached_ = nullptr;
}

Result<AnySummary> LocalDataSet::Summarize(const AnySketch& sketch,
                                           const SketchOptions& options) {
  const CancellationTokenPtr& cancel = options.cancellation;
  if (cancel != nullptr && cancel->IsCancelled()) {
    return Status::Cancelled("cancelled before start");
  }
  HV_ASSIGN_OR_RETURN(TablePtr table, GetTable());
  AnySummary summary = sketch.Summarize(
      *table, options.seed,
      SketchContext{
          /*aux_pool=*/options.aux_pool ? options.aux_pool() : nullptr,
          /*key_cache=*/options.key_cache ? options.key_cache() : nullptr,
          /*cancellation=*/cancel});
  if (cancel != nullptr && cancel->IsCancelled()) {
    // Superseded mid-scan: the morsel fan-out may have abandoned ranges, so
    // the summary can be incomplete and must not be emitted where a merger
    // would take it for the partition's total.
    return Status::Cancelled("cancelled during summarize");
  }
  return summary;
}

StreamPtr<PartialResult<AnySummary>> LocalDataSet::RunSketch(
    const AnySketch& sketch, const SketchOptions& options) {
  auto stream = std::make_shared<Stream<PartialResult<AnySummary>>>();
  Result<AnySummary> summary = Summarize(sketch, options);
  if (summary.ok()) {
    stream->OnNext(PartialResult<AnySummary>{1.0, summary.Take()});
  }
  stream->OnComplete(summary.status());
  return stream;
}

std::shared_ptr<LocalDataSet> LocalDataSet::Map(TableMap map) {
  return FromLoader([parent = shared_from_this(),
                     map = std::move(map)]() -> Result<TablePtr> {
    HV_ASSIGN_OR_RETURN(TablePtr table, parent->GetTable());
    return map(table);
  });
}

ParallelDataSet::ParallelDataSet(std::vector<DataSetPtr> children,
                                 ThreadPool* pool, Options options)
    : children_(std::move(children)), pool_(pool), options_(options) {}

int ParallelDataSet::NumPartitions() const {
  int n = 0;
  for (const auto& child : children_) n += child->NumPartitions();
  return n;
}

namespace {

/// Shared state of one in-flight tree aggregation: latest summary and
/// progress per child, merged and emitted under the aggregation window.
struct Merger {
  Merger(AnySketch sketch, int num_children, std::vector<double> weights,
         ParallelDataSet::Options options, CancellationTokenPtr cancel,
         StreamPtr<PartialResult<AnySummary>> out)
      : sketch(std::move(sketch)),
        latest(num_children),
        progress(num_children, 0.0),
        failed(num_children, false),
        child_coverage(num_children, 1.0),
        weights(std::move(weights)),
        options(options),
        cancel(std::move(cancel)),
        out(std::move(out)) {
    total_weight = 0;
    for (double w : this->weights) total_weight += w;
  }

  AnySummary MergeAllLocked() REQUIRES(mutex) {
    AnySummary merged;
    for (const auto& s : latest) {
      if (s.empty()) continue;
      merged = merged.empty() ? s : sketch.Merge(merged, s);
    }
    return merged.empty() ? sketch.Zero() : merged;
  }

  /// Partition-weighted progress. When no child holds a partition, each
  /// child weighs the same instead, so the tree still progresses to 1.
  double ProgressLocked() const REQUIRES(mutex) {
    double p = 0;
    for (size_t i = 0; i < progress.size(); ++i) {
      p += progress[i] * (total_weight > 0 ? weights[i] : 1.0);
    }
    return p / (total_weight > 0 ? total_weight : progress.size());
  }

  /// Weighted fraction of leaf partitions still contributing: a lost child
  /// contributes zero, a live one forwards whatever coverage its own subtree
  /// reported. Ratios of small integer weights stay exact in floating point
  /// (e.g. 6/8), so tests can assert coverage with plain equality. A tree
  /// that holds no partition loses none.
  double CoverageLocked() const REQUIRES(mutex) {
    if (total_weight <= 0) return 1.0;
    double c = 0;
    for (size_t i = 0; i < failed.size(); ++i) {
      if (!failed[i]) c += child_coverage[i] * weights[i];
    }
    return c / total_weight;
  }

  // Emissions happen under the merger lock: partial results must reach the
  // stream in monotone progress order, and OnNext itself is cheap (the
  // stream buffers or invokes the subscriber synchronously).
  void Update(int child, const PartialResult<AnySummary>& partial)
      EXCLUDES(mutex) {
    MutexLock lock(mutex);
    if (cancel != nullptr && cancel->IsCancelled()) {
      // Partial-result emission is a cancellation point: a superseded render
      // settles Cancelled on the spot instead of streaming stale partials
      // while its remaining children finish. Late child events after this
      // are dropped by the completed stream.
      out->OnComplete(Status::Cancelled("render superseded"));
      return;
    }
    if (failed[child]) return;  // a dead child's late partials are discarded
    latest[child] = partial.value;
    progress[child] = partial.progress;
    child_coverage[child] = partial.coverage;
    if (options.progressive &&
        (!emitted_any ||
         since_emit.ElapsedMillis() >= options.aggregation_window_ms)) {
      PartialResult<AnySummary> emit;
      emit.progress = ProgressLocked();
      emit.value = MergeAllLocked();
      emit.coverage = CoverageLocked();
      emitted_any = true;
      since_emit.Restart();
      out->OnNext(std::move(emit));
    }
  }

  void Complete(int child, const Status& status) EXCLUDES(mutex) {
    MutexLock lock(mutex);
    if (cancel != nullptr && cancel->IsCancelled()) {
      // Settle immediately; per-child bookkeeping still runs below so the
      // merger's counters stay consistent for any straggling children (their
      // emissions are no-ops on the completed stream).
      out->OnComplete(Status::Cancelled("render superseded"));
    }
    ++completed;
    if (!status.ok()) {
      if (options.tolerate_child_failures && IsTransient(status)) {
        // Degraded mode: the child is lost, not the query. Exclude whatever
        // it already contributed — a partial summary from a dead machine
        // must not be mistaken for its full partition.
        failed[child] = true;
        latest[child] = AnySummary{};
        progress[child] = 1.0;  // "done": nothing further will arrive
        if (first_tolerated_error.ok()) first_tolerated_error = status;
      } else if (first_error.ok()) {
        first_error = status;
      }
    }
    if (completed != static_cast<int>(latest.size())) return;
    if (!first_error.ok()) {
      out->OnComplete(first_error);
      return;
    }
    const double coverage = CoverageLocked();
    if (coverage <= 0) {
      // Nothing survived; a degraded result over zero partitions is not a
      // result. Surface the first fault so the caller can heal or give up.
      out->OnComplete(first_tolerated_error.ok()
                          ? Status::Unavailable("no partition survived")
                          : first_tolerated_error);
      return;
    }
    PartialResult<AnySummary> final_emit;
    final_emit.progress = 1.0;
    final_emit.value = MergeAllLocked();
    final_emit.coverage = coverage;
    out->OnNext(std::move(final_emit));
    out->OnComplete(Status::OK());
  }

  AnySketch sketch;
  Mutex mutex;
  std::vector<AnySummary> latest GUARDED_BY(mutex);
  std::vector<double> progress GUARDED_BY(mutex);
  // Degraded-mode bookkeeping: which children were declared lost, and the
  // coverage each live child's subtree last reported.
  std::vector<bool> failed GUARDED_BY(mutex);
  std::vector<double> child_coverage GUARDED_BY(mutex);
  Status first_tolerated_error GUARDED_BY(mutex);
  const std::vector<double> weights;
  double total_weight;
  const ParallelDataSet::Options options;
  const CancellationTokenPtr cancel;  // immutable after construction
  const StreamPtr<PartialResult<AnySummary>> out;
  Stopwatch since_emit GUARDED_BY(mutex);
  bool emitted_any GUARDED_BY(mutex) = false;
  int completed GUARDED_BY(mutex) = 0;
  Status first_error GUARDED_BY(mutex);
};

}  // namespace

StreamPtr<PartialResult<AnySummary>> ParallelDataSet::RunSketch(
    const AnySketch& sketch, const SketchOptions& options) {
  auto stream = std::make_shared<Stream<PartialResult<AnySummary>>>();
  if (children_.empty()) {
    stream->OnNext(PartialResult<AnySummary>{1.0, sketch.Zero()});
    stream->OnComplete(Status::OK());
    return stream;
  }
  // Each child weighs the partitions it holds; one that holds none (a
  // worker beyond the partition count) weighs nothing.
  std::vector<double> weights;
  weights.reserve(children_.size());
  for (const auto& child : children_) {
    weights.push_back(child->NumPartitions());
  }
  Options merge_options = options_;
  merge_options.progressive = options_.progressive && options.partials;
  auto merger = std::make_shared<Merger>(sketch, children_.size(),
                                         std::move(weights), merge_options,
                                         options.cancellation, stream);

  for (size_t i = 0; i < children_.size(); ++i) {
    SketchOptions child_options = options;
    child_options.seed = MixSeed(options.seed, i);
    auto leaf = std::dynamic_pointer_cast<LocalDataSet>(children_[i]);
    if (leaf != nullptr && pool_ != nullptr) {
      // Leaf partitions run on the worker's thread pool (§5.3). The token is
      // checked when the task is dequeued: cancellation "removes" work that
      // has not started, while started work runs to completion.
      int child_index = static_cast<int>(i);
      bool submitted =
          pool_->Submit([merger, leaf, sketch, child_options, child_index] {
            Result<AnySummary> summary = leaf->Summarize(sketch, child_options);
            if (summary.ok()) {
              merger->Update(child_index,
                             PartialResult<AnySummary>{1.0, summary.Take()});
            }
            merger->Complete(child_index, summary.status());
          });
      if (!submitted) {
        // A shut-down pool drops the task; completing the child here keeps
        // the stream from hanging forever (the worker is going away, so
        // Unavailable tells the root to replay elsewhere).
        merger->Complete(child_index,
                         Status::Unavailable("worker pool shut down"));
      }
      continue;
    }
    // Inner node (or no pool): recurse; the child stream is asynchronous.
    auto child_stream = children_[i]->RunSketch(sketch, child_options);
    int child_index = static_cast<int>(i);
    child_stream->Subscribe(
        [merger, child_index](const PartialResult<AnySummary>& p) {
          merger->Update(child_index, p);
        },
        [merger, child_index](const Status& s) {
          merger->Complete(child_index, s);
        });
  }
  return stream;
}

}  // namespace hillview
