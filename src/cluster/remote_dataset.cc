#include "cluster/remote_dataset.h"

#include <algorithm>
#include <cstring>
#include <thread>
#include <vector>

#include "util/random.h"
#include "util/stopwatch.h"

namespace hillview {
namespace cluster {

namespace {

/// Nominal wire size of a request descriptor (operation id, dataset id,
/// seed, framing). Requests are tiny compared to summaries; this constant
/// only keeps the downstream counters non-zero and honest.
constexpr uint64_t kRequestOverheadBytes = 64;

/// Per-summary frame overhead: the progress field plus the 64-bit payload
/// checksum. The checksum matters for fault injection: a bit-flipped payload
/// can still deserialize into a plausible summary, so corruption detection
/// cannot rely on the decoder alone.
constexpr uint64_t kFrameOverheadBytes = sizeof(double) + sizeof(uint64_t);

/// Deterministically flips one payload bit chosen by the verdict's corrupt
/// seed — the simulated in-transit corruption.
void CorruptBytes(std::vector<uint8_t>* bytes, uint64_t corrupt_seed) {
  if (bytes->empty()) return;
  Random rng(corrupt_seed);
  const uint64_t bit = rng.NextUint64(bytes->size() * 8);
  (*bytes)[bit / 8] ^= static_cast<uint8_t>(1u << (bit % 8));
}

/// Capped exponential backoff with deterministic seeded jitter in
/// [0.5, 1.0)x. Pure in (seed, worker, attempt): replays of the same seeded
/// schedule back off identically.
double BackoffMs(const RpcPolicy& rpc, uint64_t seed, int worker,
                 int attempt) {
  double ms = rpc.backoff_base_ms;
  for (int i = 1; i < attempt; ++i) ms *= 2.0;
  ms = std::min(ms, rpc.backoff_cap_ms);
  Random rng(MixSeed(MixSeed(seed, static_cast<uint64_t>(worker) + 1),
                     static_cast<uint64_t>(attempt)));
  return ms * (0.5 + 0.5 * rng.NextDouble());
}

/// True for statuses the retry layer may act on by re-running the sketch.
/// Only deadline misses retry *here*; Unavailable means soft state is gone
/// and must heal via the root's lineage record instead.
bool IsDeadline(const Status& s) {
  return s.code() == StatusCode::kDeadlineExceeded;
}

}  // namespace

/// One remote sketch RPC with deadline + bounded retry, reading its worker,
/// channel, breaker, policy and session from the edge it runs on. Each
/// attempt gets an epoch number; events from a superseded attempt (late
/// partials of a timed-out run) are rejected by epoch so the output stream
/// only ever sees one coherent attempt. Retrying a sketch is safe: sketches
/// are pure functions of (data, seed), so a re-run returns byte-identical
/// summaries.
///
/// Lifetime: shared_from_this keeps the driver (and with it the edge) alive
/// inside the worker stream's callbacks; when the last attempt settles, the
/// callbacks' copies are the only remaining owners and the driver dies with
/// its worker stream.
class RemoteDataSet::RpcDriver
    : public std::enable_shared_from_this<RpcDriver> {
 public:
  RpcDriver(std::shared_ptr<const RemoteDataSet> edge, AnySketch sketch,
            SketchOptions options, StreamPtr<PartialResult<AnySummary>> out)
      : edge_(std::move(edge)),
        sketch_(std::move(sketch)),
        options_(std::move(options)),
        out_(std::move(out)) {}

  void Start() EXCLUDES(mutex_) {
    int epoch;
    {
      MutexLock lock(mutex_);
      epoch = attempt_;
      attempt_watch_.Restart();
    }
    RunAttempt(epoch);
  }

 private:
  void RunAttempt(int epoch) EXCLUDES(mutex_) {
    const FaultVerdict down = edge_->network_->SendDown(
        kRequestOverheadBytes + sketch_.name().size(), edge_->worker_index_,
        edge_->session_id_);
    if (down.action == FaultAction::kDrop ||
        down.action == FaultAction::kCorrupt) {
      // The request never arrives intact: the worker stays silent and the
      // attempt's deadline (eventually) fires. The simulation settles the
      // miss immediately instead of wall-clock-waiting for it. A corrupted
      // request is a dropped one the worker could at least count.
      if (down.action == FaultAction::kCorrupt) {
        edge_->worker_->RecordCorruptMessageDropped();
      }
      SettleAttempt(epoch,
                    Status::DeadlineExceeded("request lost in transit"));
      return;
    }
    // kDuplicate on a request is coalesced: running the same pure sketch
    // twice on the worker would double simulated work but return identical
    // bytes, so the model delivers it once.

    Worker* worker = edge_->worker_.get();
    auto dataset = worker->GetDataSet(edge_->dataset_id_);
    if (!dataset.ok()) {
      // Soft state is gone (worker restarted): not retriable here — only
      // the root's heal can rebuild the dataset.
      SettleAttempt(epoch, dataset.status());
      return;
    }
    // This is the machine boundary: from here on the sketch runs on the
    // worker, so hand it the worker's own pool for intra-partition helper
    // work (find-text dictionary matching) and the worker's sort-key cache.
    // The captures are raw pointers on purpose — the providers only run
    // inside Summarize on the worker's pool, which the worker drains before
    // dying, and a shared_ptr here could make a task closure the last owner
    // and destroy the Worker from its own pool thread (a self-join).
    SketchOptions worker_options = options_;
    worker_options.aux_pool = [worker] { return worker->aux_pool(); };
    worker_options.key_cache = [worker] { return worker->key_cache(); };
    auto worker_stream = dataset.value()->RunSketch(sketch_, worker_options);
    auto self = shared_from_this();
    worker_stream->Subscribe(
        [self, epoch](const PartialResult<AnySummary>& p) {
          self->OnPartial(epoch, p);
        },
        [self, epoch](const Status& s) { self->OnWorkerComplete(epoch, s); });
  }

  void OnPartial(int epoch, const PartialResult<AnySummary>& p)
      EXCLUDES(mutex_) {
    {
      MutexLock lock(mutex_);
      if (epoch != attempt_ || settled_) return;  // stale attempt's event
    }
    // Cross the machine boundary: serialize, checksum, charge, deserialize.
    std::vector<uint8_t> bytes = sketch_.Serialize(p.value);
    const uint64_t checksum = HashBytes(bytes.data(), bytes.size());
    const FaultVerdict up = edge_->network_->SendUp(
        bytes.size() + kFrameOverheadBytes, edge_->worker_index_,
        edge_->session_id_);
    if (up.action == FaultAction::kDrop) {
      // The summary vanishes; the attempt's silence becomes a deadline miss
      // when the worker stream completes without a final summary delivered.
      return;
    }
    if (up.action == FaultAction::kCorrupt) {
      CorruptBytes(&bytes, up.corrupt_seed);
    }
    if (HashBytes(bytes.data(), bytes.size()) != checksum) {
      // Checksum catches the in-transit corruption even when the payload
      // would still deserialize. Corrupt messages are dropped, counted, and
      // healed by the retry layer (the silence turns into a deadline miss).
      edge_->worker_->RecordCorruptMessageDropped();
      return;
    }
    auto decoded = sketch_.Deserialize(bytes);
    if (!decoded.ok()) {
      edge_->worker_->RecordCorruptMessageDropped();
      return;
    }
    const double deadline_ms = edge_->rpc_.deadline_ms;
    bool late = false;
    {
      MutexLock lock(mutex_);
      if (epoch != attempt_ || settled_) return;
      if (deadline_ms > 0 && attempt_watch_.ElapsedMillis() > deadline_ms) {
        // The summary arrived, but late: the deadline already passed. Treat
        // the attempt as missed and discard the late message (the retry —
        // pure and seeded — will reproduce it).
        late = true;
      } else if (p.progress >= 1.0) {
        saw_final_ = true;
      }
    }
    if (late) {
      SettleAttempt(epoch, Status::DeadlineExceeded(
                               "summary arrived after the deadline"));
      return;
    }
    PartialResult<AnySummary> delivered{p.progress, decoded.Take(),
                                        p.coverage};
    out_->OnNext(delivered);
    if (up.action == FaultAction::kDuplicate) {
      // Idempotent delivery: merging the same summary twice is harmless
      // because the merger's per-child update is replacement, not addition.
      out_->OnNext(delivered);
    }
  }

  void OnWorkerComplete(int epoch, const Status& s) EXCLUDES(mutex_) {
    bool missing_final;
    {
      MutexLock lock(mutex_);
      if (epoch != attempt_ || settled_) return;
      missing_final = s.ok() && !saw_final_;
    }
    if (missing_final) {
      // The worker finished but its final summary never made it across
      // (dropped or corrupted in transit): from the root's side this is
      // indistinguishable from a slow worker, and it heals the same way.
      SettleAttempt(epoch,
                    Status::DeadlineExceeded("final summary lost in transit"));
      return;
    }
    SettleAttempt(epoch, s);
  }

  void SettleAttempt(int epoch, const Status& status) EXCLUDES(mutex_) {
    int next_epoch = -1;
    {
      MutexLock lock(mutex_);
      if (epoch != attempt_ || settled_) return;
      if (IsDeadline(status) && attempt_ < edge_->rpc_.max_retries) {
        ++attempt_;
        saw_final_ = false;
        attempt_watch_.Restart();
        next_epoch = attempt_;
      } else {
        settled_ = true;
      }
    }
    if (next_epoch > 0) {
      const double backoff = BackoffMs(edge_->rpc_, options_.seed,
                                       edge_->worker_index_, next_epoch);
      if (backoff > 0) {
        std::this_thread::sleep_for(
            std::chrono::duration<double, std::milli>(backoff));
      }
      RunAttempt(next_epoch);
      return;
    }
    FinishRpc(status);
  }

  void FinishRpc(const Status& status) {
    if (status.code() == StatusCode::kDeadlineExceeded) {
      // Only unresponsiveness feeds the breaker: a deadline means the
      // worker never answered despite the per-RPC retry budget.
      edge_->health_.RecordFailure(edge_->worker_index_);
    } else if (status.code() == StatusCode::kCancelled) {
      // A superseded render says nothing about the worker either way:
      // recording success would let a flood of cancelled scrolls hold a
      // genuinely dead worker's breaker closed, and recording failure
      // would poison health with client-side churn. Cancellation is
      // health-neutral.
    } else {
      // Any response — including Unavailable (soft state lost after a
      // crash, healable by the root) or an application error — proves the
      // worker is alive. Counting healable Unavailable as breaker failure
      // would trip the circuit on a worker that a heal is about to fix,
      // and a half-open probe answered with Unavailable must still close
      // the breaker or every later request fast-fails forever.
      edge_->health_.RecordSuccess(edge_->worker_index_);
    }
    out_->OnComplete(status);
  }

  const std::shared_ptr<const RemoteDataSet> edge_;
  const AnySketch sketch_;
  const SketchOptions options_;
  StreamPtr<PartialResult<AnySummary>> out_;

  Mutex mutex_;
  int attempt_ GUARDED_BY(mutex_) = 0;   // current attempt epoch
  bool settled_ GUARDED_BY(mutex_) = false;
  bool saw_final_ GUARDED_BY(mutex_) = false;  // final summary delivered
  Stopwatch attempt_watch_ GUARDED_BY(mutex_);
};

StreamPtr<PartialResult<AnySummary>> RemoteDataSet::RunSketch(
    const AnySketch& sketch, const SketchOptions& options) {
  auto out = std::make_shared<Stream<PartialResult<AnySummary>>>();
  if (options.cancellation != nullptr && options.cancellation->IsCancelled()) {
    // Already superseded: don't spend network bytes or a breaker probe on a
    // render nobody will look at.
    out->OnComplete(Status::Cancelled("cancelled before dispatch"));
    return out;
  }
  if (!health_.AllowRequest(worker_index_)) {
    // Circuit open: fast-fail without burning the deadline+retry budget on a
    // known-dead worker. Unavailable keeps the healing semantics — a heal
    // can still resurrect it, and a degraded merger counts it as lost.
    out->OnComplete(Status::Unavailable(
        "worker " + worker_->name() + ": circuit breaker open"));
    return out;
  }
  auto driver =
      std::make_shared<RpcDriver>(shared_from_this(), sketch, options, out);
  driver->Start();
  return out;
}

}  // namespace cluster
}  // namespace hillview
