#include "cluster/scheduler.h"

#include <algorithm>

namespace hillview {
namespace cluster {

namespace {

/// Cost estimates are clamped to [1, 64 quanta]: the floor keeps an
/// all-cached session from a free-for-all (a zero estimate would grant it
/// every slot), and the ceiling bounds how many rotation passes a grant can
/// take, so PickSessionLocked always terminates in at most kMaxPasses.
constexpr int64_t kMinEstimateBytes = 1;
constexpr int64_t kEstimateQuantaCap = 64;

/// How often a queued waiter re-polls its cancellation token. Nobody
/// notifies the scheduler condvar when a token flips (cancellation can
/// originate anywhere), so the wait is sliced.
constexpr double kCancelPollMs = 2.0;

}  // namespace

Result<QueryScheduler::Grant> QueryScheduler::Admit(
    int session_id, const CancellationTokenPtr& cancel) {
  MutexLock lock(mutex_);
  ++stats_.submitted;
  if (cancel != nullptr && cancel->IsCancelled()) {
    ++stats_.cancelled_in_queue;
    return Status::Cancelled("render superseded before dispatch");
  }
  // Admission control, cheapest signal first. Shedding happens before the
  // query consumes a queue slot: under overload the tenant gets an
  // immediate Unavailable to back off on, not unbounded latency.
  if (health_ != nullptr && health_->num_workers() > 0 &&
      health_->num_open() >= health_->num_workers()) {
    ++stats_.shed_unhealthy;
    return Status::Unavailable(
        "admission control: every worker circuit breaker is open");
  }
  auto [session_it, inserted] = sessions_.try_emplace(session_id);
  SessionState& s = session_it->second;
  if (inserted) s.cost_estimate = options_.quantum_bytes;
  if (s.in_flight >= options_.max_in_flight_per_session) {
    ++stats_.shed_session_budget;
    return Status::Unavailable(
        "admission control: session exceeded its in-flight budget");
  }
  if (running_ >= options_.dispatch_concurrency &&
      queued_total_ >= options_.max_queued_total) {
    ++stats_.shed_queue_full;
    return Status::Unavailable(
        "admission control: cluster saturated and queue full");
  }

  auto ticket = std::make_shared<Ticket>();
  s.queue.push_back(ticket);
  ++s.in_flight;
  ++queued_total_;
  GrantLocked();
  while (!ticket->granted) {
    if (cancel != nullptr && cancel->IsCancelled()) {
      // Leave the queue without running: a superseded render settles
      // Cancelled immediately. Erase the ticket here, under the lock, so the
      // queue only ever holds live waiters.
      for (auto it = s.queue.begin(); it != s.queue.end(); ++it) {
        if (*it == ticket) {
          s.queue.erase(it);
          --queued_total_;
          break;
        }
      }
      --s.in_flight;
      ++stats_.cancelled_in_queue;
      return Status::Cancelled("render superseded while queued");
    }
    if (cancel != nullptr) {
      cv_.WaitFor(mutex_, kCancelPollMs);
    } else {
      cv_.Wait(mutex_);
    }
  }
  return Grant(this, Releaser{session_id});
}

Status QueryScheduler::Execute(int session_id,
                               const CancellationTokenPtr& cancel,
                               const std::function<Status()>& query) {
  Result<Grant> grant = Admit(session_id, cancel);
  if (!grant.ok()) return grant.status();
  return query();  // on the caller's thread; the grant releases on return
}

void QueryScheduler::Release(int session_id) {
  MutexLock lock(mutex_);
  auto it = sessions_.find(session_id);
  if (it != sessions_.end()) --it->second.in_flight;
  --running_;
  ++stats_.completed;
  GrantLocked();
}

void QueryScheduler::ChargeCost(int session_id, int64_t cost_bytes) {
  MutexLock lock(mutex_);
  auto it = sessions_.find(session_id);
  if (it == sessions_.end()) return;
  SessionState& s = it->second;
  // Grants deduct the estimate, not the (then-unknown) actual, so fairness
  // tracks the estimate's convergence: a 3/4 EWMA follows a session's
  // workload shift within a few queries without thrashing on one outlier.
  const int64_t next =
      (3 * s.cost_estimate + std::max<int64_t>(0, cost_bytes)) / 4;
  s.cost_estimate =
      std::min(kEstimateQuantaCap * options_.quantum_bytes,
               std::max(kMinEstimateBytes, next));
}

QueryScheduler::Stats QueryScheduler::Snapshot() const {
  MutexLock lock(mutex_);
  return stats_;
}

int64_t QueryScheduler::CostEstimate(int session_id) const {
  MutexLock lock(mutex_);
  auto it = sessions_.find(session_id);
  return it == sessions_.end() ? options_.quantum_bytes
                               : it->second.cost_estimate;
}

void QueryScheduler::GrantLocked() {
  bool granted_any = false;
  while (running_ < options_.dispatch_concurrency) {
    auto session_it = PickSessionLocked();
    if (session_it == sessions_.end()) break;
    SessionState& s = session_it->second;
    TicketPtr ticket = std::move(s.queue.front());
    s.queue.pop_front();
    --queued_total_;
    ticket->granted = true;
    granted_any = true;
    // Pay for the grant with the current estimate; an emptied queue forfeits
    // leftover credit (classic DRR: no banking while idle, so a returning
    // session cannot burst past the others on saved-up deficit).
    s.deficit -= s.cost_estimate;
    if (s.queue.empty()) s.deficit = 0;
    ++running_;
    stats_.max_running =
        std::max(stats_.max_running, static_cast<int64_t>(running_));
  }
  if (granted_any) cv_.NotifyAll();
}

std::map<int, QueryScheduler::SessionState>::iterator
QueryScheduler::PickSessionLocked() {
  bool any_waiting = false;
  for (auto& [id, s] : sessions_) {
    if (!s.queue.empty()) {
      any_waiting = true;
      break;
    }
  }
  if (!any_waiting) return sessions_.end();
  // Rotate over non-empty queues starting strictly after the cursor, adding
  // one quantum of credit per visit; serve the first session whose deficit
  // covers its estimate. Estimates are clamped to kEstimateQuantaCap quanta,
  // so some session must qualify within that many full rotations.
  for (int64_t pass = 0; pass <= kEstimateQuantaCap; ++pass) {
    auto it = sessions_.upper_bound(rr_cursor_);
    for (size_t visited = 0; visited < sessions_.size(); ++visited) {
      if (it == sessions_.end()) it = sessions_.begin();
      auto current = it++;
      SessionState& s = current->second;
      if (s.queue.empty()) continue;
      s.deficit += options_.quantum_bytes;
      if (s.deficit >= s.cost_estimate) {
        rr_cursor_ = current->first;
        return current;
      }
    }
  }
  return sessions_.end();  // unreachable: estimates are capped
}

}  // namespace cluster
}  // namespace hillview
