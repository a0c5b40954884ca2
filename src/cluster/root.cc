#include "cluster/root.h"

#include <optional>
#include <utility>

namespace hillview {
namespace cluster {

Status RootSession::LoadDataSet(
    const std::string& dataset_id,
    std::vector<LocalDataSet::Loader> partition_loaders) {
  const size_t partitions = partition_loaders.size();
  cluster_->Record(dataset_id, {std::move(partition_loaders), "", {}});
  cluster_->Heal(dataset_id);
  redo_log_.Append("load",
                   dataset_id + " (" + std::to_string(partitions) +
                       " partitions)",
                   0);
  return Status::OK();
}

Result<PinnedId> RootSession::MapDataSet(const std::string& parent_id,
                                         TableMap map,
                                         const std::string& op_name) {
  std::string new_id = parent_id + "/" + op_name;
  // Pinned before any worker holds it, so no release slips in between; a
  // failed map releases the pin on return.
  PinnedId derived = cluster_->Record(new_id, {{}, parent_id, map});
  for (const auto& worker : cluster_->workers()) {
    HV_RETURN_IF_ERROR(worker->ApplyMap(parent_id, new_id, map));
  }
  redo_log_.Append("map", parent_id + " -> " + new_id, 0);
  return derived;
}

SketchOptions RootSession::QueryOptions(uint64_t seed,
                                        CancellationTokenPtr token,
                                        bool partials) const {
  SketchOptions options;
  options.seed = seed;
  options.cancellation = std::move(token);
  options.partials = partials;
  return options;
}

DataSetPtr RootSession::GetRootDataSet(const std::string& dataset_id,
                                       const std::vector<int>& partitions,
                                       bool tolerant) {
  const std::vector<WorkerPtr>& workers = cluster_->workers();
  std::vector<DataSetPtr> children;
  children.reserve(workers.size());
  for (size_t w = 0; w < workers.size(); ++w) {
    // Every machine-boundary edge knows its worker index (the fault-injection
    // channel id) and reports RPC outcomes to the shared health tracker, so
    // the breaker learns from all sessions' traffic regardless of degraded
    // mode. Its merge weight is the root's record, never a question to a
    // worker that may have restarted.
    children.push_back(std::make_shared<RemoteDataSet>(
        workers[w], static_cast<int>(w), dataset_id, partitions[w],
        cluster_->network(), cluster_->health(), cluster_->options().rpc,
        session_id_));
  }
  ParallelDataSet::Options aggregation = cluster_->options().aggregation;
  aggregation.tolerate_child_failures = tolerant;
  // The root aggregation node; children recurse into the workers' own
  // parallel trees (nullptr pool: remote children schedule on worker pools).
  return std::make_shared<ParallelDataSet>(std::move(children), nullptr,
                                           aggregation);
}

CancellationTokenPtr RootSession::BeginRender(const std::string& view_id) {
  MutexLock lock(render_mutex_);
  RenderState& render = renders_[view_id];
  // Supersede the previous generation: its in-flight query (if any) observes
  // the flip at its next poll point and settles Status::Cancelled.
  if (render.token != nullptr) render.token->Cancel();
  ++render.generation;
  render.token = std::make_shared<CancellationToken>();
  return render.token;
}

int RootSession::render_generation(const std::string& view_id) const {
  MutexLock lock(render_mutex_);
  auto it = renders_.find(view_id);
  return it == renders_.end() ? 0 : it->second.generation;
}

/// The ladder runs as a completion continuation: each attempt's stream
/// settles into OnAttemptDone, which settles the query or starts the next
/// attempt. The callbacks of the attempt in flight own the query, so it lives
/// as long as some attempt can still settle it, on whichever thread that is.
class RootSession::Query : public std::enable_shared_from_this<Query> {
 public:
  /// `flight_key` is the shared-cache flight this query owns, or empty.
  /// `partials` is whether the caller reads the stream's partial results.
  Query(std::shared_ptr<RootSession> session, std::string dataset_id,
        AnySketch sketch, uint64_t seed, CancellationTokenPtr token,
        std::string flight_key, bool partials)
      : session_(std::move(session)),
        cluster_(session_->cluster_),
        dataset_id_(std::move(dataset_id)),
        sketch_(std::move(sketch)),
        seed_(seed),
        token_(std::move(token)),
        partials_(partials),
        flight_key_(std::move(flight_key)),
        pin_(cluster_->Pin(dataset_id_)),
        partitions_(cluster_->Partitions(dataset_id_)) {}

  /// Runs on the caller's thread, which admission may block; returns once
  /// the first attempt is under way or the query has settled.
  void Start() EXCLUDES(mutex_) {
    session_->redo_log_.Append("sketch", dataset_id_ + "#" + sketch_.name(),
                               seed_);
    if (partitions_.empty()) {
      // No lineage (never loaded, or released): no heal can build the id,
      // and a tree without partition weights would pass an empty merge off
      // as full coverage.
      Settle(Status::Unavailable("no dataset '" + dataset_id_ + "'"));
      return;
    }
    Result<QueryScheduler::Grant> grant =
        cluster_->scheduler().Admit(session_->session_id_, token_);
    if (!grant.ok()) {  // shed, or superseded while queued: never runs
      Settle(grant.status());
      return;
    }
    {
      MutexLock lock(mutex_);
      grant_ = grant.Take();
      bytes_up_before_ =
          cluster_->network()->SessionSnapshot(session_->session_id_).bytes_up;
    }
    RunAttempt();
  }

  const StreamPtr<PartialResult<AnySummary>>& stream() const { return out_; }

  /// What the fault machinery did; final once stream() has completed.
  QueryStats stats() const EXCLUDES(mutex_) {
    MutexLock lock(mutex_);
    return stats_;
  }

 private:
  /// Called with no lock held: an attempt may settle synchronously (a
  /// breaker fast-fail, a worker that lost the dataset), re-entering
  /// OnAttemptDone on this thread.
  void RunAttempt() EXCLUDES(mutex_) {
    if (token_ != nullptr && token_->IsCancelled()) {
      Settle(Status::Cancelled("render superseded"));
      return;
    }
    bool tolerant = false;
    {
      MutexLock lock(mutex_);
      last_.reset();
      tolerant = degraded_pass_ || cluster_->health().AnyOpen();
    }
    auto attempt =
        session_->GetRootDataSet(dataset_id_, partitions_, tolerant)
            ->RunSketch(sketch_,
                        session_->QueryOptions(seed_, token_, partials_));
    auto self = shared_from_this();
    attempt->Subscribe(
        [self](const PartialResult<AnySummary>& p) { self->OnPartial(p); },
        [self](const Status& s) { self->OnAttemptDone(s); });
  }

  void OnPartial(const PartialResult<AnySummary>& p) EXCLUDES(mutex_) {
    {
      MutexLock lock(mutex_);
      last_ = p;
      // A retried attempt restarts at progress 0.
      if (p.progress < shown_progress_) return;
      shown_progress_ = p.progress;
    }
    out_->OnNext(p);
  }

  void OnAttemptDone(const Status& status) EXCLUDES(mutex_) {
    int failed_attempt = -1;
    bool heal = false;
    {
      MutexLock lock(mutex_);
      if (IsTransient(status) && !degraded_pass_) {
        // Every earlier retry was a heal: the degraded pass is the last.
        failed_attempt = stats_.replay_heals;
        heal = status.code() == StatusCode::kUnavailable &&
               stats_.replay_heals < cluster_->options().max_replay_retries;
        if (heal) {
          ++stats_.replay_heals;
        } else {
          degraded_pass_ = true;
        }
      }
    }
    if (failed_attempt < 0) {
      Settle(status);
      return;
    }
    if (heal) {
      // Lazy heal (§5.7): rebuild what the workers lost, on those workers
      // only. One that dies again mid-heal fails the next attempt, which
      // heals again while the budget lasts.
      session_->redo_log_.RecordHeal(cluster_->Heal(dataset_id_));
    }
    if (session_->retry_hook_) session_->retry_hook_(failed_attempt, status);
    RunAttempt();
  }

  /// Publishes a full-coverage result to the cache flight (anything else
  /// releases it empty, so a waiting session recomputes), charges the bytes
  /// the query moved to its session, frees the grant, releases its pin on
  /// the dataset id, and only then completes the stream.
  void Settle(Status status) EXCLUDES(mutex_) {
    std::optional<AnySummary> publish;
    std::string flight_key;
    QueryScheduler::Grant grant;
    PinnedId pin;
    uint64_t bytes_up_before = 0;
    {
      MutexLock lock(mutex_);
      if (status.ok() && !last_.has_value()) {
        status = Status::Internal("sketch completed without a result");
      }
      if (status.ok()) {
        stats_.coverage = last_->coverage;
        stats_.degraded = last_->coverage < 1.0;
        if (!stats_.degraded) publish = last_->value;
      }
      flight_key.swap(flight_key_);
      grant = std::move(grant_);
      pin = std::move(pin_);
      bytes_up_before = bytes_up_before_;
    }
    if (!flight_key.empty()) {
      cluster_->shared_cache().FinishCompute(flight_key, std::move(publish));
    }
    if (grant != nullptr) {
      // Approximate when a session overlaps its own queries: fairness
      // tracks the per-session trend, not exact attribution.
      const uint64_t bytes_up =
          cluster_->network()->SessionSnapshot(session_->session_id_).bytes_up;
      cluster_->scheduler().ChargeCost(
          session_->session_id_,
          static_cast<int64_t>(bytes_up - bytes_up_before));
      grant.reset();
    }
    // The last pin of a view dropped before its query settled: the id
    // leaves every worker now, and the stream's caller finds it gone.
    pin = PinnedId();
    out_->OnComplete(status);
  }

  const std::shared_ptr<RootSession> session_;
  Cluster* const cluster_;
  const std::string dataset_id_;
  const AnySketch sketch_;
  const uint64_t seed_;
  const CancellationTokenPtr token_;
  const bool partials_;
  const StreamPtr<PartialResult<AnySummary>> out_ =
      std::make_shared<Stream<PartialResult<AnySummary>>>();

  mutable Mutex mutex_;
  std::string flight_key_ GUARDED_BY(mutex_);
  QueryScheduler::Grant grant_ GUARDED_BY(mutex_);
  /// Keeps a derived id (and its lineage, which heals it) until Settle.
  PinnedId pin_ GUARDED_BY(mutex_);
  /// The id's partitions per worker, read once it is pinned: every
  /// attempt's merge weights. Empty for an id without lineage.
  const std::vector<int> partitions_;
  uint64_t bytes_up_before_ GUARDED_BY(mutex_) = 0;
  bool degraded_pass_ GUARDED_BY(mutex_) = false;
  double shown_progress_ GUARDED_BY(mutex_) = 0.0;
  /// The current attempt's latest partial.
  std::optional<PartialResult<AnySummary>> last_ GUARDED_BY(mutex_);
  QueryStats stats_ GUARDED_BY(mutex_);
};

Result<AnySummary> RootSession::RunErased(const std::string& dataset_id,
                                          AnySketch sketch, uint64_t seed,
                                          bool cacheable,
                                          CancellationTokenPtr token,
                                          QueryStats* stats) {
  QueryStats unused;
  QueryStats& q = stats != nullptr ? *stats : unused;
  q = QueryStats{};
  std::string flight_key;
  if (cacheable) {
    if (token != nullptr && token->IsCancelled()) {
      return Status::Cancelled("render superseded before start");
    }
    // Single-flight across sessions. A hit (cached, or adopted from another
    // session's identical query in flight) is complete — the cache holds
    // only full-coverage results — and needs no query: building one costs
    // more than the lookup, and a dashboard of cached views pays it on every
    // chart. A miss makes this caller the flight's owner.
    flight_key = ComputationCache::Key(dataset_id, sketch.name(), seed);
    bool owner = false;
    std::optional<AnySummary> hit = cluster_->shared_cache().GetOrBeginCompute(
        flight_key, &owner, &q.coalesced);
    if (hit.has_value()) {
      q.from_cache = true;
      return *std::move(hit);
    }
  }
  auto query = std::make_shared<Query>(shared_from_this(), dataset_id,
                                       std::move(sketch), seed, token,
                                       std::move(flight_key),
                                       /*partials=*/false);
  query->Start();
  std::optional<PartialResult<AnySummary>> last =
      query->stream()->BlockingLast(token);
  // Superseded: the caller settles now; the query settles Cancelled on its
  // own and frees its grant then.
  if (token != nullptr && token->IsCancelled()) {
    return Status::Cancelled("render superseded");
  }
  q = query->stats();
  HV_RETURN_IF_ERROR(query->stream()->final_status());
  return last->value;
}

StreamPtr<PartialResult<AnySummary>> RootSession::RunErasedStream(
    const std::string& dataset_id, AnySketch sketch, uint64_t seed,
    CancellationTokenPtr token) {
  auto query = std::make_shared<Query>(shared_from_this(), dataset_id,
                                       std::move(sketch), seed,
                                       std::move(token), std::string(),
                                       /*partials=*/true);
  query->Start();
  return query->stream();
}

}  // namespace cluster
}  // namespace hillview
