#include "cluster/root.h"

#include <optional>

namespace hillview {
namespace cluster {

namespace {

/// Retriable at the query level: soft-state loss (heals via replay) and
/// transport/deadline faults the RPC edge could not heal (degrade). Anything
/// else — including Cancelled — is final and fails the query immediately.
bool Retriable(const Status& s) {
  return s.code() == StatusCode::kUnavailable ||
         s.code() == StatusCode::kDeadlineExceeded;
}

/// Settles a single-flight cache flight on every exit path. The owner
/// publishes a value only for full-coverage successes; everything else
/// (degraded, cancelled, shed, failed) releases the flight empty so a
/// waiting session recomputes instead of adopting a partial result.
class FlightGuard {
 public:
  FlightGuard(ComputationCache* cache, std::string key, bool active)
      : cache_(cache), key_(std::move(key)), active_(active) {}
  ~FlightGuard() {
    if (active_) cache_->FinishCompute(key_, std::move(value_));
  }
  void Publish(AnySummary value) { value_ = std::move(value); }

  FlightGuard(const FlightGuard&) = delete;
  FlightGuard& operator=(const FlightGuard&) = delete;

 private:
  ComputationCache* cache_;
  std::string key_;
  bool active_;
  std::optional<AnySummary> value_;
};

}  // namespace

Status RootSession::LoadDataSet(
    const std::string& dataset_id,
    std::vector<LocalDataSet::Loader> partition_loaders) {
  auto do_register = [this, dataset_id, partition_loaders]() -> Status {
    const std::vector<WorkerPtr>& ws = cluster_->workers();
    // Round-robin partition assignment: the paper allows arbitrary
    // horizontal partitioning (§2), so placement needs no keying.
    std::vector<std::vector<std::shared_ptr<LocalDataSet>>> per_worker(
        ws.size());
    for (size_t p = 0; p < partition_loaders.size(); ++p) {
      size_t w = p % ws.size();
      per_worker[w].push_back(LocalDataSet::FromLoader(
          dataset_id + "[" + std::to_string(p) + "]", partition_loaders[p]));
    }
    for (size_t w = 0; w < ws.size(); ++w) {
      HV_RETURN_IF_ERROR(
          ws[w]->RegisterBase(dataset_id, std::move(per_worker[w])));
    }
    return Status::OK();
  };
  HV_RETURN_IF_ERROR(do_register());
  redo_log_.Append("load",
                   dataset_id + " (" +
                       std::to_string(partition_loaders.size()) +
                       " partitions)",
                   0, do_register);
  return Status::OK();
}

Result<std::string> RootSession::MapDataSet(const std::string& parent_id,
                                            TableMap map,
                                            const std::string& op_name) {
  std::string new_id = parent_id + "/" + op_name;
  auto do_map = [this, parent_id, new_id, map, op_name]() -> Status {
    for (const auto& worker : cluster_->workers()) {
      HV_RETURN_IF_ERROR(worker->ApplyMap(parent_id, new_id, map, op_name));
    }
    return Status::OK();
  };
  HV_RETURN_IF_ERROR(do_map());
  redo_log_.Append("map", parent_id + " -> " + new_id, 0, do_map);
  return new_id;
}

SketchOptions RootSession::QueryOptions(uint64_t seed,
                                        CancellationTokenPtr token) const {
  SketchOptions options;
  options.seed = seed;
  options.rpc = cluster_->options().rpc;
  options.cancellation = std::move(token);
  options.session_id = session_id_;
  return options;
}

DataSetPtr RootSession::GetRootDataSet(const std::string& dataset_id,
                                       bool tolerant) {
  const std::vector<WorkerPtr>& workers = cluster_->workers();
  std::vector<DataSetPtr> children;
  children.reserve(workers.size());
  for (size_t w = 0; w < workers.size(); ++w) {
    // Every machine-boundary edge knows its worker index (the fault-injection
    // channel id) and reports RPC outcomes to the shared health tracker, so
    // the breaker learns from all sessions' traffic regardless of degraded
    // mode.
    children.push_back(std::make_shared<RemoteDataSet>(
        workers[w], dataset_id, cluster_->network(), static_cast<int>(w),
        &cluster_->health()));
  }
  ParallelDataSet::Options aggregation = cluster_->options().aggregation;
  aggregation.tolerate_child_failures =
      aggregation.tolerate_child_failures || tolerant;
  // The root aggregation node; children recurse into the workers' own
  // parallel trees (nullptr pool: remote children schedule on worker pools).
  return std::make_shared<ParallelDataSet>(
      "root/" + dataset_id, std::move(children), nullptr, aggregation);
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

Result<AnySummary> RootSession::RunErased(const std::string& dataset_id,
                                          const AnySketch& sketch,
                                          uint64_t seed, bool cacheable,
                                          CancellationTokenPtr token,
                                          QueryStats* stats) {
  QueryStats local_stats;
  QueryStats& q = stats != nullptr ? *stats : local_stats;
  q = QueryStats{};
  ComputationCache& cache = cluster_->shared_cache();
  const std::string cache_key =
      ComputationCache::Key(dataset_id, sketch.name(), seed);

  bool flight_owner = false;
  if (cacheable) {
    if (token != nullptr && token->IsCancelled()) {
      return Status::Cancelled("render superseded before start");
    }
    // Single-flight across sessions: a hit (cached, or adopted from another
    // session's concurrent identical query) returns without computing; a
    // miss elects this query the flight owner. The cache only ever holds
    // full-coverage results, so a hit is always complete.
    bool coalesced = false;
    auto hit = cache.GetOrBeginCompute(cache_key, &flight_owner, &coalesced);
    if (hit.has_value()) {
      q.from_cache = true;
      q.coalesced = coalesced;
      return *hit;
    }
  }
  FlightGuard flight(&cache, cache_key, flight_owner);

  redo_log_.Append("sketch", dataset_id + "#" + sketch.name(), seed);

  // The attempt loop runs inside a scheduler grant: admission control may
  // shed it (Unavailable) or the render may be superseded while queued
  // (Cancelled) — in both cases the query never executes.
  const SimulatedNetwork::SessionTraffic before =
      cluster_->network()->SessionSnapshot(session_id_);
  Result<AnySummary> outcome = Status::Internal("query did not run");
  bool ran = false;
  Status scheduled = cluster_->scheduler().Execute(
      session_id_, token,
      [&]() -> Status {
        outcome = RunAttempts(dataset_id, sketch, seed, token, &q);
        return outcome.status();
      },
      &ran);
  if (!ran) return scheduled;

  // Charge the root-received bytes this query moved to the session's DRR
  // account (approximate when one session overlaps its own queries — the
  // fairness target is the per-session trend, not exact attribution).
  const SimulatedNetwork::SessionTraffic after =
      cluster_->network()->SessionSnapshot(session_id_);
  cluster_->scheduler().ChargeCost(
      session_id_, static_cast<int64_t>(after.bytes_up - before.bytes_up));

  if (outcome.ok() && !q.degraded && flight_owner) {
    // Publish to the shared cache and to any waiting session. Degraded
    // results are NEVER published: after the cluster heals, the same query
    // must recompute at full coverage, not serve the partial view forever —
    // and another session must never adopt this tenant's partial result.
    flight.Publish(outcome.value());
  }
  return outcome;
}

Result<AnySummary> RootSession::RunAttempts(const std::string& dataset_id,
                                            const AnySketch& sketch,
                                            uint64_t seed,
                                            const CancellationTokenPtr& token,
                                            QueryStats* stats) {
  QueryStats& q = *stats;
  const Cluster::Options& opts = cluster_->options();
  // Backstop against a truly hung worker whose stream never completes at all
  // — distinct from (and far above) the per-RPC deadline, which handles
  // merely late or lost responses. 0 = no backstop (then the wait is a plain
  // completion wait, cancellation-aware when there is a token).
  const SketchOptions::RpcPolicy& rpc = opts.rpc;
  const double backstop_ms =
      rpc.deadline_ms > 0
          ? (rpc.deadline_ms * (rpc.max_retries + 1) +
             rpc.backoff_cap_ms * rpc.max_retries) *
                    10.0 +
                1000.0
          : 0.0;

  bool degraded_pass = false;
  for (int attempt = 0;; ++attempt) {
    if (token != nullptr && token->IsCancelled()) {
      return Status::Cancelled("render superseded");
    }
    // Degrade as soon as a breaker is open: the breaker's verdict is the
    // signal that asking that worker again is pointless, so the merge should
    // complete over the survivors (§5.7). The degraded pass also tolerates
    // losses regardless of breaker state.
    const bool tolerant = degraded_pass || cluster_->health().AnyOpen();
    auto stream = GetRootDataSet(dataset_id, tolerant)
                      ->RunSketch(sketch, QueryOptions(seed, token));
    bool backstop_fired = false;
    bool cancelled = false;
    std::optional<PartialResult<AnySummary>> last =
        stream->BlockingLastFor(backstop_ms, &backstop_fired, token,
                                &cancelled);
    if (cancelled) {
      // Superseded mid-flight: abandon the stream (stragglers complete into
      // a stream nobody reads) and settle immediately — the whole point of
      // generation-tagged cancellation is not waiting out slow renders.
      return Status::Cancelled("render superseded");
    }
    const Status status = backstop_fired
                              ? Status::DeadlineExceeded(
                                    "query exceeded its completion backstop")
                              : stream->final_status();
    if (status.ok()) {
      if (!last.has_value()) {
        return Status::Internal("sketch completed without a result");
      }
      q.coverage = last->coverage;
      q.degraded = last->coverage < 1.0;
      return last->value;
    }
    if (!Retriable(status) || degraded_pass) return status;

    if (status.code() == StatusCode::kUnavailable &&
        q.replay_heals < opts.max_replay_retries) {
      // Lazy replay (§5.7): re-execute the logged operations to rebuild the
      // missing soft state, then retry the query.
      ++q.replay_heals;
      Status replayed = redo_log_.ReplayAll();
      // A retriable replay failure (e.g. a worker died again mid-heal) is
      // just another failure of this attempt: it already consumed a slot in
      // the replay budget, so loop and heal again rather than giving up.
      if (!replayed.ok() && !Retriable(replayed)) return replayed;
    } else {
      // The RPC edge already retried transport faults, or the replay budget
      // is spent. Last resort: accept losing the failed workers and complete
      // over the survivors, marking the coverage.
      degraded_pass = true;
    }
    if (retry_hook_) retry_hook_(attempt, status);
  }
}

}  // namespace cluster
}  // namespace hillview
