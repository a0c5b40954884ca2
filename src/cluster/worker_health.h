#ifndef HILLVIEW_CLUSTER_WORKER_HEALTH_H_
#define HILLVIEW_CLUSTER_WORKER_HEALTH_H_

#include <vector>

#include "util/thread_annotations.h"

namespace hillview {
namespace cluster {

/// Per-worker health tracker at the root: a consecutive-failure circuit
/// breaker with half-open probing. "Failure" here means unresponsiveness
/// (a deadline despite the per-RPC retry budget) — an error *response* such
/// as Unavailable proves the worker is alive and records success, since
/// soft-state loss heals from lineage and must not trip the circuit.
/// While a worker's breaker is open the root
/// fast-fails RPCs to it inside the execution tree, so a degraded merger can
/// complete over the survivors instead of burning its whole deadline+retry
/// budget on a machine that is known-dead (§5.7: "the root returns the
/// results obtained from the remaining machines").
///
/// Probing is count-based, not wall-clock-based: after `open_uses_before_probe`
/// fast-failed uses the breaker goes half-open and lets exactly one probe RPC
/// through. Success closes the breaker; failure re-opens it. Counting uses
/// instead of elapsed time keeps recovery behavior deterministic under the
/// seeded fault plans (no wall clock anywhere in the fault path).
///
/// Thread-safe: one annotated mutex guards all per-worker state; stats are
/// exposed only through a locked Snapshot() like the caches.
class WorkerHealth {
 public:
  struct Options {
    int failure_threshold = 3;       // consecutive failures that trip a breaker
    int open_uses_before_probe = 2;  // fast-fails before a half-open probe
  };

  enum class State {
    kClosed,    // healthy: requests flow
    kOpen,      // tripped: requests fast-fail
    kHalfOpen,  // one probe in flight; its outcome decides
  };

  /// One consistent observability snapshot, taken under the lock.
  struct Stats {
    int64_t successes = 0;
    int64_t failures = 0;
    int64_t trips = 0;       // closed -> open transitions
    int64_t probes = 0;      // half-open probe RPCs admitted
    int64_t fast_fails = 0;  // requests rejected while open
  };

  explicit WorkerHealth(int num_workers)
      : WorkerHealth(num_workers, Options()) {}
  WorkerHealth(int num_workers, Options options)
      : options_(options), workers_(static_cast<size_t>(num_workers)) {}

  /// Gate called before each RPC to `worker`. Returns true to let the request
  /// through (closed, or admitted as the half-open probe), false to fast-fail
  /// it with Unavailable.
  bool AllowRequest(int worker) EXCLUDES(mutex_) {
    MutexLock lock(mutex_);
    PerWorker& w = workers_[static_cast<size_t>(worker)];
    switch (w.state) {
      case State::kClosed:
        return true;
      case State::kHalfOpen:
        // A probe is already in flight; everyone else keeps fast-failing
        // until its outcome is recorded.
        ++stats_.fast_fails;
        return false;
      case State::kOpen:
        ++w.open_uses;
        if (w.open_uses >= options_.open_uses_before_probe) {
          w.state = State::kHalfOpen;
          ++stats_.probes;
          return true;
        }
        ++stats_.fast_fails;
        return false;
    }
    return true;  // unreachable
  }

  /// Records the outcome of an admitted request. Success closes the breaker
  /// and resets the failure run; a tolerable failure extends the run and may
  /// trip the breaker (or re-open a half-open one).
  void RecordSuccess(int worker) EXCLUDES(mutex_) {
    MutexLock lock(mutex_);
    PerWorker& w = workers_[static_cast<size_t>(worker)];
    ++stats_.successes;
    w.consecutive_failures = 0;
    w.open_uses = 0;
    w.state = State::kClosed;
  }

  void RecordFailure(int worker) EXCLUDES(mutex_) {
    MutexLock lock(mutex_);
    PerWorker& w = workers_[static_cast<size_t>(worker)];
    ++stats_.failures;
    ++w.consecutive_failures;
    if (w.state == State::kHalfOpen) {
      // The probe failed: straight back to open, wait out another use window.
      w.state = State::kOpen;
      w.open_uses = 0;
    } else if (w.state == State::kClosed &&
               w.consecutive_failures >= options_.failure_threshold) {
      w.state = State::kOpen;
      w.open_uses = 0;
      ++stats_.trips;
    }
  }

  State state(int worker) const EXCLUDES(mutex_) {
    MutexLock lock(mutex_);
    return workers_[static_cast<size_t>(worker)].state;
  }

  bool AnyOpen() const EXCLUDES(mutex_) {
    MutexLock lock(mutex_);
    for (const PerWorker& w : workers_) {
      if (w.state != State::kClosed) return true;
    }
    return false;
  }

  int num_open() const EXCLUDES(mutex_) {
    MutexLock lock(mutex_);
    int open = 0;
    for (const PerWorker& w : workers_) {
      if (w.state != State::kClosed) ++open;
    }
    return open;
  }

  Stats Snapshot() const EXCLUDES(mutex_) {
    MutexLock lock(mutex_);
    return stats_;
  }

  /// Forgets all history (stats included); used between test scenarios.
  void Reset() EXCLUDES(mutex_) {
    MutexLock lock(mutex_);
    for (PerWorker& w : workers_) w = PerWorker{};
    stats_ = Stats{};
  }

  int num_workers() const { return static_cast<int>(workers_.size()); }

 private:
  struct PerWorker {
    State state = State::kClosed;
    int consecutive_failures = 0;
    int open_uses = 0;  // fast-fail count since the breaker opened
  };

  const Options options_;
  mutable Mutex mutex_;
  std::vector<PerWorker> workers_ GUARDED_BY(mutex_);
  Stats stats_ GUARDED_BY(mutex_);
};

}  // namespace cluster
}  // namespace hillview

#endif  // HILLVIEW_CLUSTER_WORKER_HEALTH_H_
