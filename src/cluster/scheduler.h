#ifndef HILLVIEW_CLUSTER_SCHEDULER_H_
#define HILLVIEW_CLUSTER_SCHEDULER_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>

#include "cluster/worker_health.h"
#include "util/cancellation.h"
#include "util/status.h"
#include "util/thread_annotations.h"

namespace hillview {
namespace cluster {

/// Fair query scheduler for the multi-tenant serving layer: every session's
/// queries pass through Admit(), which admits, queues and grants them a
/// dispatch slot so that N concurrent sessions share the workers predictably
/// instead of racing unthrottled into the same pools.
///
/// Design:
///
///  - **Per-session FIFO queues.** A session's own queries run in submission
///    order; ordering across sessions is the scheduler's to choose.
///  - **Deficit round-robin grants.** Dispatch slots (at most
///    `dispatch_concurrency` queries running at once) are granted by DRR over
///    the non-empty session queues: each visit adds `quantum_bytes` to a
///    session's deficit, and the session at the head of the rotation is
///    served when its deficit covers its byte-cost estimate. Costs are the
///    root-received bytes a session's queries actually moved (charged after
///    the fact via ChargeCost, smoothed into a per-session EWMA estimate), so
///    a tenant issuing heavy scans is visited just as often but granted
///    proportionally fewer slots — bandwidth fairness, not slot fairness.
///  - **Admission control.** A query is shed with Status::Unavailable —
///    before consuming a queue slot — when its session already has
///    `max_in_flight_per_session` queries queued+running, when the dispatch
///    pool is saturated and the global queue has `max_queued_total` waiters,
///    or when every worker's circuit breaker is open (the cluster cannot
///    answer, so queueing would only convert overload into latency).
///  - **Cancellation while queued.** A waiter whose render token flips leaves
///    the queue immediately and returns Status::Cancelled without ever
///    being granted; a granted query handles the token itself downstream
///    and keeps its slot until it settles Cancelled.
///
/// Caller-threaded by design: Admit waits for the grant on the submitting
/// thread, so the scheduler owns no threads and shuts down trivially (no
/// pool to drain). The query itself may settle on any thread; that thread
/// releases the grant.
///
/// Thread-safe: one capability-annotated mutex guards every queue, counter
/// and DRR account; stats are exposed only through a locked Snapshot().
class QueryScheduler {
 public:
  struct Options {
    /// Queries running concurrently across all sessions. Bounds the fan-in
    /// pressure on the worker pools: each granted query fans out to every
    /// worker, so this is the multiprogramming level of the cluster.
    int dispatch_concurrency = 4;
    /// Per-session budget of queued+running queries; one tenant's burst
    /// sheds before it can occupy every slot (admission, not queueing).
    int max_in_flight_per_session = 8;
    /// Global bound on waiters once the dispatch pool is saturated; beyond
    /// it new queries shed instead of growing the queue without bound.
    int max_queued_total = 64;
    /// DRR quantum: deficit credit per rotation visit. Smaller quanta
    /// interleave sessions more finely; larger ones amortize heavy queries.
    int64_t quantum_bytes = 64 * 1024;
  };

  /// One consistent observability snapshot, taken under the lock.
  struct Stats {
    int64_t submitted = 0;
    int64_t completed = 0;
    int64_t shed_session_budget = 0;  // session over its in-flight budget
    int64_t shed_queue_full = 0;      // saturated pool + full global queue
    int64_t shed_unhealthy = 0;       // every breaker open on arrival
    int64_t cancelled_in_queue = 0;   // token flipped before the grant
    int64_t max_running = 0;          // peak concurrent grants observed
  };

  /// `health` may be null (no breaker-informed admission); otherwise
  /// arrivals shed while every worker's breaker is open.
  QueryScheduler(Options options, WorkerHealth* health)
      : options_(options), health_(health) {}

  QueryScheduler(const QueryScheduler&) = delete;
  QueryScheduler& operator=(const QueryScheduler&) = delete;

  /// One admitted query's dispatch slot: move-only, and releasing it —
  /// reset() or destruction — frees the slot for the next waiter.
  struct Releaser {
    int session_id = 0;
    void operator()(QueryScheduler* scheduler) const {
      scheduler->Release(session_id);
    }
  };
  using Grant = std::unique_ptr<QueryScheduler, Releaser>;

  /// Admits and queues a query, then blocks the calling thread until it is
  /// granted a dispatch slot. Returns the grant; or Unavailable when
  /// admission shed the query; or Cancelled when `cancel` flipped first.
  Result<Grant> Admit(int session_id, const CancellationTokenPtr& cancel)
      EXCLUDES(mutex_);

  /// Admit, run `query` on the calling thread, release. Returns the query's
  /// own status, or Admit's when the query never ran.
  Status Execute(int session_id, const CancellationTokenPtr& cancel,
                 const std::function<Status()>& query) EXCLUDES(mutex_);

  /// Charges the bytes a completed query actually moved to its session's
  /// DRR account by folding them into the session's EWMA cost estimate,
  /// which prices that session's FUTURE grants (estimates-only accounting:
  /// the deficit already paid at grant time is not retro-settled — simpler,
  /// and the estimate converges within a few queries). Safe to call with 0
  /// (keeps the estimate decaying toward cheap).
  void ChargeCost(int session_id, int64_t cost_bytes) EXCLUDES(mutex_);

  Stats Snapshot() const EXCLUDES(mutex_);

  /// The DRR cost estimate currently used for a session's grants
  /// (observability; `quantum_bytes` for a session never charged).
  int64_t CostEstimate(int session_id) const EXCLUDES(mutex_);

 private:
  /// One queued query. Heap-allocated and shared between the waiting thread
  /// and the queue; a waiter that leaves (cancelled) erases its own ticket.
  struct Ticket {
    bool granted = false;
  };
  using TicketPtr = std::shared_ptr<Ticket>;

  struct SessionState {
    std::deque<TicketPtr> queue;
    int in_flight = 0;        // queued + running, for the admission budget
    int64_t deficit = 0;      // DRR credit toward the next grant
    int64_t cost_estimate;    // EWMA of charged byte costs
  };

  /// Frees a granted slot (the Grant's Releaser).
  void Release(int session_id) EXCLUDES(mutex_);

  /// Grants dispatch slots to queued tickets while capacity allows, in DRR
  /// order. Called whenever capacity or queues change; notifies waiters.
  void GrantLocked() REQUIRES(mutex_);

  /// The next session to serve per DRR, or sessions_.end() when every queue
  /// is empty or no queue's deficit can cover its estimate within one full
  /// rotation of credit top-ups.
  std::map<int, SessionState>::iterator PickSessionLocked() REQUIRES(mutex_);

  const Options options_;
  WorkerHealth* const health_;

  mutable Mutex mutex_;
  CondVar cv_;
  std::map<int, SessionState> sessions_ GUARDED_BY(mutex_);
  /// DRR rotation cursor: the session id served most recently; the rotation
  /// resumes strictly after it (map order, wrapping).
  int rr_cursor_ GUARDED_BY(mutex_) = -1;
  int running_ GUARDED_BY(mutex_) = 0;
  int queued_total_ GUARDED_BY(mutex_) = 0;
  Stats stats_ GUARDED_BY(mutex_);
};

}  // namespace cluster
}  // namespace hillview

#endif  // HILLVIEW_CLUSTER_SCHEDULER_H_
