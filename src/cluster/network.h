#ifndef HILLVIEW_CLUSTER_NETWORK_H_
#define HILLVIEW_CLUSTER_NETWORK_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <thread>
#include <utility>

#include "cluster/fault_injection.h"
#include "util/thread_annotations.h"

namespace hillview {
namespace cluster {

/// Byte-level model of the cluster interconnect. Every message crossing a
/// simulated machine boundary is serialized and counted here; the
/// root-received byte counter reproduces the paper's bandwidth measurement
/// (Fig 5 bottom: "how many bytes the root node received").
///
/// Optionally sleeps a fixed latency per message (plus any latency spike the
/// fault injector adds), so tests can widen the window in which a query is
/// in flight.
///
/// Thread-safe: counters are relaxed atomics (independent monotone tallies);
/// the delay model is guarded by a mutex so set_model() can retune a live
/// deployment without racing in-flight Delay() reads; the per-session
/// traffic map has its own mutex (sends from different sessions contend only
/// on a map update, never on the delay sleep).
class SimulatedNetwork {
 public:
  struct Model {
    double latency_ms = 0.0;  // per message
  };

  /// Per-session traffic tally: what one tenant's queries moved over the
  /// interconnect. The max/min ratio of `bytes_up` across sessions running
  /// identical workloads is the scheduler's bandwidth-fairness measure.
  struct SessionTraffic {
    uint64_t bytes_up = 0;
    uint64_t bytes_down = 0;
    uint64_t messages_up = 0;
    uint64_t messages_down = 0;
  };

  SimulatedNetwork() = default;
  explicit SimulatedNetwork(Model model) : model_(model) {}

  /// Replaces the delay model (counters are preserved). The class is
  /// neither copyable nor movable (atomic counters), so deployments that
  /// construct the network before choosing a model configure it here.
  void set_model(Model model) EXCLUDES(model_mutex_) {
    MutexLock lock(model_mutex_);
    model_ = model;
  }

  /// Installs (or, with nullptr, removes) a fault injector. Subsequent sends
  /// that identify their worker endpoint are judged against its FaultPlan;
  /// sends with worker == -1 (untracked callers) always deliver.
  void InstallFaultInjector(FaultInjectorPtr injector)
      EXCLUDES(model_mutex_) {
    MutexLock lock(model_mutex_);
    injector_ = std::move(injector);
  }

  FaultInjectorPtr fault_injector() const EXCLUDES(model_mutex_) {
    MutexLock lock(model_mutex_);
    return injector_;
  }

  /// Records a request flowing root -> worker and returns the fault verdict
  /// for it. Byte/message counters tally on send — before faults — because
  /// the sender paid the bandwidth regardless of what happens in transit
  /// (duplicates are charged once: the copy is a delivery-side event).
  /// `session` >= 0 additionally charges that tenant's traffic tally.
  FaultVerdict SendDown(uint64_t bytes, int worker = -1, int session = -1)
      EXCLUDES(model_mutex_, traffic_mutex_) {
    messages_down_.fetch_add(1, std::memory_order_relaxed);
    bytes_down_.fetch_add(bytes, std::memory_order_relaxed);
    if (session >= 0) {
      MutexLock lock(traffic_mutex_);
      SessionTraffic& t = session_traffic_[session];
      ++t.messages_down;
      t.bytes_down += bytes;
    }
    const FaultVerdict verdict = JudgeSend(worker, Direction::kDown);
    Delay(verdict.extra_latency_ms);
    return verdict;
  }

  /// Records a (partial) summary flowing worker -> root; same contract as
  /// SendDown.
  FaultVerdict SendUp(uint64_t bytes, int worker = -1, int session = -1)
      EXCLUDES(model_mutex_, traffic_mutex_) {
    messages_up_.fetch_add(1, std::memory_order_relaxed);
    bytes_up_.fetch_add(bytes, std::memory_order_relaxed);
    if (session >= 0) {
      MutexLock lock(traffic_mutex_);
      SessionTraffic& t = session_traffic_[session];
      ++t.messages_up;
      t.bytes_up += bytes;
    }
    const FaultVerdict verdict = JudgeSend(worker, Direction::kUp);
    Delay(verdict.extra_latency_ms);
    return verdict;
  }

  uint64_t bytes_received_by_root() const { return bytes_up_.load(); }
  uint64_t bytes_sent_by_root() const { return bytes_down_.load(); }
  uint64_t messages_up() const { return messages_up_.load(); }
  uint64_t messages_down() const { return messages_down_.load(); }

  /// One session's traffic tally (zeros for a session never seen), read
  /// atomically under the traffic lock.
  SessionTraffic SessionSnapshot(int session) const EXCLUDES(traffic_mutex_) {
    MutexLock lock(traffic_mutex_);
    auto it = session_traffic_.find(session);
    return it == session_traffic_.end() ? SessionTraffic{} : it->second;
  }

  /// Every tagged session's tally, for fairness sweeps across tenants.
  std::map<int, SessionTraffic> AllSessionTraffic() const
      EXCLUDES(traffic_mutex_) {
    MutexLock lock(traffic_mutex_);
    return session_traffic_;
  }

  void Reset() EXCLUDES(traffic_mutex_) {
    bytes_up_ = 0;
    bytes_down_ = 0;
    messages_up_ = 0;
    messages_down_ = 0;
    MutexLock lock(traffic_mutex_);
    session_traffic_.clear();
  }

 private:
  FaultVerdict JudgeSend(int worker, Direction direction)
      EXCLUDES(model_mutex_) {
    if (worker < 0) return FaultVerdict{};  // untracked endpoint: no faults
    FaultInjectorPtr injector;
    {
      MutexLock lock(model_mutex_);
      injector = injector_;
    }
    if (!injector) return FaultVerdict{};
    return injector->Judge(worker, direction);
  }

  void Delay(double extra_latency_ms) EXCLUDES(model_mutex_) {
    Model model;
    {
      // Copy under the lock; the sleep itself must not serialize senders.
      MutexLock lock(model_mutex_);
      model = model_;
    }
    const double ms = model.latency_ms + extra_latency_ms;
    if (ms > 0) {
      std::this_thread::sleep_for(
          std::chrono::duration<double, std::milli>(ms));
    }
  }

  mutable Mutex model_mutex_;
  Model model_ GUARDED_BY(model_mutex_);
  FaultInjectorPtr injector_ GUARDED_BY(model_mutex_);
  mutable Mutex traffic_mutex_;
  std::map<int, SessionTraffic> session_traffic_ GUARDED_BY(traffic_mutex_);
  std::atomic<uint64_t> bytes_up_{0};
  std::atomic<uint64_t> bytes_down_{0};
  std::atomic<uint64_t> messages_up_{0};
  std::atomic<uint64_t> messages_down_{0};
};

}  // namespace cluster
}  // namespace hillview

#endif  // HILLVIEW_CLUSTER_NETWORK_H_
