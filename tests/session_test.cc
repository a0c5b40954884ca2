// Multi-tenant serving suite: N RootSessions sharing one Cluster — the
// shared-cache single-flight protocol, generation-tagged render
// cancellation, admission control, DRR fairness accounting, and the
// degraded-result cache guard, all raced across real threads. Labeled both
// `tier1` (the regression gate) and `concurrency` (the TSan lane): sessions
// racing on the shared cache and scheduler are exactly the interleavings
// TSan should watch.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "cluster/fault_injection.h"
#include "cluster/root.h"
#include "cluster/scheduler.h"
#include "cluster/worker_health.h"
#include "reactive/observable.h"
#include "sketch/histogram.h"
#include "sketch/range_moments.h"
#include "test_util.h"
#include "util/stopwatch.h"

namespace hillview {
namespace {

using cluster::Cluster;
using cluster::Direction;
using cluster::FaultInjector;
using cluster::FaultPlan;
using cluster::QueryScheduler;
using cluster::RootSession;
using cluster::ScriptedFault;
using cluster::SimulatedNetwork;
using cluster::Worker;
using cluster::WorkerHealth;
using testing::MakeDoubleTable;
using testing::SplitValues;
using testing::UniformDoubles;

constexpr int kWorkers = 2;
constexpr int kPartitions = 4;

/// A shared deployment plus `num_sessions` tenant handles. The dataset is
/// loaded once (dataset ids are cluster-global); every session queries it.
struct MultiTenant {
  std::vector<cluster::WorkerPtr> workers;
  SimulatedNetwork network;
  std::unique_ptr<Cluster> cluster;
  std::vector<std::shared_ptr<RootSession>> sessions;

  static std::unique_ptr<MultiTenant> Create(
      const std::vector<TablePtr>& partitions, int num_sessions,
      Cluster::Options options = {},
      SimulatedNetwork::Model net_model = {}) {
    auto mt = std::make_unique<MultiTenant>();
    mt->network.set_model(net_model);
    ParallelDataSet::Options worker_aggregation;
    worker_aggregation.progressive = false;  // deterministic message counts
    for (int w = 0; w < kWorkers; ++w) {
      mt->workers.push_back(std::make_shared<Worker>(
          "worker" + std::to_string(w), 2, worker_aggregation));
    }
    mt->cluster =
        std::make_unique<Cluster>(mt->workers, &mt->network, options);
    for (int s = 0; s < num_sessions; ++s) {
      mt->sessions.push_back(mt->cluster->OpenSession());
    }
    std::vector<LocalDataSet::Loader> loaders;
    for (const auto& table : partitions) {
      loaders.push_back([table]() -> Result<TablePtr> { return table; });
    }
    if (!mt->sessions[0]->LoadDataSet("data", loaders).ok()) return nullptr;
    return mt;
  }
};

/// Chaos-style options: deadlines on (muted workers settle as
/// kDeadlineExceeded through the simulation, not the wall clock), zero
/// backoff, non-progressive root aggregation.
Cluster::Options FaultOptions() {
  Cluster::Options options;
  options.aggregation.aggregation_window_ms = 0;
  options.rpc.deadline_ms = 5000;
  options.rpc.max_retries = 4;
  options.rpc.backoff_base_ms = 0.0;
  options.rpc.backoff_cap_ms = 0.0;
  return options;
}

std::vector<TablePtr> Partitions(std::vector<double>* all_values) {
  auto values = UniformDoubles(8000, 0, 100, 777);
  if (all_values != nullptr) *all_values = values;
  std::vector<TablePtr> partitions;
  for (const auto& chunk : SplitValues(values, kPartitions)) {
    partitions.push_back(MakeDoubleTable("x", chunk));
  }
  return partitions;
}

SketchPtr<HistogramResult> TestSketch() {
  return std::make_shared<StreamingHistogramSketch>(
      "x", Buckets(NumericBuckets(0, 100, 16)));
}

std::vector<uint8_t> SummaryBytes(const HistogramResult& r) {
  return AnySketch::Wrap<HistogramResult>(TestSketch())
      .Serialize(AnySummary::Wrap<HistogramResult>(r));
}

TEST(Session, ClusterHandsOutDistinctSessionIds) {
  auto mt = MultiTenant::Create(Partitions(nullptr), /*num_sessions=*/3);
  ASSERT_NE(mt, nullptr);
  EXPECT_EQ(mt->sessions[0]->session_id(), 0);
  EXPECT_EQ(mt->sessions[1]->session_id(), 1);
  EXPECT_EQ(mt->sessions[2]->session_id(), 2);
  EXPECT_EQ(mt->cluster->sessions_opened(), 3);
  // All sessions share the cluster substrate.
  EXPECT_EQ(mt->sessions[0]->cluster(), mt->cluster.get());
  EXPECT_EQ(mt->sessions[1]->cluster(), mt->cluster.get());
  EXPECT_EQ(mt->sessions[2]->cluster(), mt->cluster.get());
}

// N sessions race the SAME cacheable query: single-flight must elect exactly
// one owner (one miss, one computation); everyone else adopts its result —
// as a coalesced in-flight hit or a plain cache hit, depending on arrival
// time — and every session sees byte-identical output.
TEST(Session, IdenticalQueriesAreSingleFlightedAcrossSessions) {
  constexpr int kSessions = 4;
  std::vector<double> all_values;
  SimulatedNetwork::Model model;
  model.latency_ms = 2.0;  // widen the in-flight window so waiters coalesce
  auto mt = MultiTenant::Create(Partitions(&all_values), kSessions, {},
                                model);
  ASSERT_NE(mt, nullptr);

  std::vector<Result<HistogramResult>> results(
      kSessions, Result<HistogramResult>(Status::OK()));
  std::vector<RootSession::QueryStats> stats(kSessions);
  std::vector<std::thread> threads;
  for (int s = 0; s < kSessions; ++s) {
    threads.emplace_back([&, s]() {
      results[s] = mt->sessions[s]->RunSketch<HistogramResult>(
          "data", TestSketch(), /*seed=*/0, /*cacheable=*/true, &stats[s]);
    });
  }
  for (auto& t : threads) t.join();

  HistogramResult reference = TestSketch()->Summarize(
      *MakeDoubleTable("x", all_values), 0);
  int served_without_computing = 0;
  for (int s = 0; s < kSessions; ++s) {
    ASSERT_TRUE(results[s].ok()) << results[s].status().ToString();
    EXPECT_EQ(SummaryBytes(results[s].value()), SummaryBytes(reference));
    if (stats[s].from_cache) ++served_without_computing;
  }
  // Exactly one session computed; the other three were served shared state.
  EXPECT_EQ(served_without_computing, kSessions - 1);
  auto cache = mt->cluster->shared_cache().Snapshot();
  EXPECT_EQ(cache.misses, 1);
  EXPECT_EQ(cache.hits + cache.coalesced_hits, kSessions - 1);
  EXPECT_EQ(cache.entries, 1u);
}

// Sessions issuing DISTINCT queries concurrently never cross results: each
// gets its own answer, and the shared cache holds one entry per key.
TEST(Session, DistinctQueriesAcrossSessionsStayIsolated) {
  constexpr int kSessions = 3;
  std::vector<double> all_values;
  auto mt = MultiTenant::Create(Partitions(&all_values), kSessions);
  ASSERT_NE(mt, nullptr);

  auto sketch_for = [](int s) {
    return std::make_shared<StreamingHistogramSketch>(
        "x", Buckets(NumericBuckets(0, 100, 8 + 4 * s)));
  };
  std::vector<Result<HistogramResult>> results(
      kSessions, Result<HistogramResult>(Status::OK()));
  std::vector<std::thread> threads;
  for (int s = 0; s < kSessions; ++s) {
    threads.emplace_back([&, s]() {
      results[s] = mt->sessions[s]->RunSketch<HistogramResult>(
          "data", sketch_for(s), /*seed=*/0, /*cacheable=*/true);
    });
  }
  for (auto& t : threads) t.join();

  TablePtr whole = MakeDoubleTable("x", all_values);
  for (int s = 0; s < kSessions; ++s) {
    ASSERT_TRUE(results[s].ok()) << results[s].status().ToString();
    HistogramResult reference = sketch_for(s)->Summarize(*whole, 0);
    ASSERT_EQ(results[s].value().counts.size(), reference.counts.size());
    EXPECT_EQ(results[s].value().counts, reference.counts);
  }
  EXPECT_EQ(mt->cluster->shared_cache().Snapshot().entries,
            static_cast<size_t>(kSessions));
}

// The render-cancellation contract end to end: a scroll that supersedes an
// in-flight render settles that render Status::Cancelled quickly, without
// poisoning the shared cache or the health stats; the winning generation
// then computes a result byte-identical to a solo run (and, because the
// cancelled owner released its single-flight empty, the winner re-elects
// and publishes normally).
TEST(Session, SupersededRenderIsCancelledWithoutPoisoningSharedState) {
  std::vector<double> all_values;
  SimulatedNetwork::Model model;
  model.latency_ms = 20.0;  // per message: the render is in flight for ~80ms
  auto mt = MultiTenant::Create(Partitions(&all_values), /*num_sessions=*/1,
                                {}, model);
  ASSERT_NE(mt, nullptr);
  RootSession& session = *mt->sessions[0];

  CancellationTokenPtr gen1 = session.BeginRender("histogram-view");
  EXPECT_EQ(session.render_generation("histogram-view"), 1);

  Result<HistogramResult> loser = Status::OK();
  RootSession::QueryStats loser_stats;
  std::thread render([&]() {
    loser = session.RunSketch<HistogramResult>(
        "data", TestSketch(), /*seed=*/0, /*cacheable=*/true, &loser_stats,
        gen1);
  });
  // Let the render get in flight, then scroll: the new generation supersedes.
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  Stopwatch settle;
  CancellationTokenPtr gen2 = session.BeginRender("histogram-view");
  render.join();
  EXPECT_EQ(session.render_generation("histogram-view"), 2);
  EXPECT_TRUE(gen1->IsCancelled());
  EXPECT_FALSE(gen2->IsCancelled());

  ASSERT_FALSE(loser.ok());
  EXPECT_EQ(loser.status().code(), StatusCode::kCancelled);
  // Settling must not wait out the slow render's full network schedule.
  EXPECT_LT(settle.ElapsedMillis(), 5000.0);
  // A cancelled query poisons nothing: no cached partial, no health marks.
  EXPECT_EQ(mt->cluster->shared_cache().Snapshot().entries, 0u);
  auto health = mt->cluster->health().Snapshot();
  EXPECT_EQ(health.failures, 0);
  EXPECT_EQ(health.trips, 0);

  // The winning generation computes the full result and may publish it.
  RootSession::QueryStats winner_stats;
  auto winner = session.RunSketch<HistogramResult>(
      "data", TestSketch(), /*seed=*/0, /*cacheable=*/true, &winner_stats,
      gen2);
  ASSERT_TRUE(winner.ok()) << winner.status().ToString();
  EXPECT_FALSE(winner_stats.from_cache);  // the loser cached nothing
  HistogramResult reference = TestSketch()->Summarize(
      *MakeDoubleTable("x", all_values), 0);
  EXPECT_EQ(SummaryBytes(winner.value()), SummaryBytes(reference));
  EXPECT_EQ(mt->cluster->shared_cache().Snapshot().entries, 1u);
}

// A token that is already cancelled short-circuits before any work — on both
// the cacheable path (checked before the single-flight) and the uncached
// path (checked at scheduler admission).
TEST(Session, AlreadyCancelledTokenShortCircuits) {
  auto mt = MultiTenant::Create(Partitions(nullptr), /*num_sessions=*/1);
  ASSERT_NE(mt, nullptr);
  RootSession& session = *mt->sessions[0];
  CancellationTokenPtr stale = session.BeginRender("view");
  (void)session.BeginRender("view");  // supersede immediately

  auto cached = session.RunSketch<HistogramResult>(
      "data", TestSketch(), /*seed=*/0, /*cacheable=*/true, nullptr, stale);
  ASSERT_FALSE(cached.ok());
  EXPECT_EQ(cached.status().code(), StatusCode::kCancelled);

  auto uncached = session.RunSketch<HistogramResult>(
      "data", TestSketch(), /*seed=*/0, /*cacheable=*/false, nullptr, stale);
  ASSERT_FALSE(uncached.ok());
  EXPECT_EQ(uncached.status().code(), StatusCode::kCancelled);
  // Neither run touched the workers or the cache.
  EXPECT_EQ(mt->cluster->shared_cache().Snapshot().entries, 0u);
  EXPECT_GE(mt->cluster->scheduler().Snapshot().cancelled_in_queue, 1);
}

// Admission control at the scheduler, deterministically gated: a session
// over its in-flight budget is shed, and once the dispatch pool is
// saturated with a full queue, other sessions are shed too — both with
// Unavailable, both WITHOUT running the query.
TEST(Session, AdmissionControlShedsWhenSaturated) {
  QueryScheduler::Options options;
  options.dispatch_concurrency = 1;
  options.max_in_flight_per_session = 1;
  options.max_queued_total = 0;
  QueryScheduler scheduler(options, /*health=*/nullptr);

  std::atomic<bool> started{false};
  std::atomic<bool> release{false};
  std::thread occupant([&]() {
    Status s = scheduler.Execute(/*session_id=*/0, nullptr, [&]() {
      started.store(true);
      while (!release.load()) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      return Status::OK();
    });
    EXPECT_TRUE(s.ok());
  });
  while (!started.load()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  // Same session again: over its in-flight budget.
  bool ran = false;
  auto run = [&ran]() {
    ran = true;
    return Status::OK();
  };
  Status own_budget = scheduler.Execute(0, nullptr, run);
  EXPECT_EQ(own_budget.code(), StatusCode::kUnavailable);
  EXPECT_FALSE(ran);

  // Another session: the pool is saturated and the queue is full.
  Status queue_full = scheduler.Execute(1, nullptr, run);
  EXPECT_EQ(queue_full.code(), StatusCode::kUnavailable);
  EXPECT_FALSE(ran);

  release.store(true);
  occupant.join();
  auto stats = scheduler.Snapshot();
  EXPECT_EQ(stats.submitted, 3);
  EXPECT_EQ(stats.completed, 1);
  EXPECT_EQ(stats.shed_session_budget, 1);
  EXPECT_EQ(stats.shed_queue_full, 1);
  EXPECT_EQ(stats.max_running, 1);
}

// When every worker breaker is open the cluster cannot answer at all:
// queueing would only turn overload into latency, so arrivals shed.
TEST(Session, AdmissionControlShedsWhenEveryBreakerIsOpen) {
  WorkerHealth::Options health_options;
  health_options.failure_threshold = 1;
  WorkerHealth health(/*num_workers=*/2, health_options);
  health.RecordFailure(0);
  health.RecordFailure(1);
  ASSERT_EQ(health.num_open(), 2);

  QueryScheduler scheduler({}, &health);
  bool ran = false;
  Status s = scheduler.Execute(0, nullptr, [&ran]() {
    ran = true;
    return Status::OK();
  });
  EXPECT_EQ(s.code(), StatusCode::kUnavailable);
  EXPECT_FALSE(ran);
  EXPECT_EQ(scheduler.Snapshot().shed_unhealthy, 1);
}

// DRR cost accounting: a session starts at one quantum, converges toward
// what its queries actually move (EWMA), and is clamped so one outlier can
// neither zero out nor blow up its estimate.
TEST(Session, SchedulerCostEstimateConvergesAndClamps) {
  QueryScheduler::Options options;
  options.quantum_bytes = 1000;
  QueryScheduler scheduler(options, nullptr);
  // Sessions materialize on first Execute.
  (void)scheduler.Execute(7, nullptr, []() { return Status::OK(); });
  EXPECT_EQ(scheduler.CostEstimate(7), 1000);

  for (int i = 0; i < 64; ++i) scheduler.ChargeCost(7, 1 << 30);
  EXPECT_EQ(scheduler.CostEstimate(7), 64 * 1000);  // clamped at 64 quanta

  for (int i = 0; i < 256; ++i) scheduler.ChargeCost(7, 0);
  EXPECT_GE(scheduler.CostEstimate(7), 1);  // floored, never free
  EXPECT_LE(scheduler.CostEstimate(7), 4);
}

// The per-session network tally: two tenants running the same workload move
// the same bytes (the scheduler's bandwidth-fairness measure reads exactly
// this), and the tally is attributed per session id.
TEST(Session, PerSessionTrafficIsAttributedAndFair) {
  auto mt = MultiTenant::Create(Partitions(nullptr), /*num_sessions=*/2);
  ASSERT_NE(mt, nullptr);
  for (int s = 0; s < 2; ++s) {
    auto result = mt->sessions[s]->RunSketch<HistogramResult>(
        "data", TestSketch(), /*seed=*/0, /*cacheable=*/false);
    ASSERT_TRUE(result.ok());
  }
  auto traffic = mt->network.AllSessionTraffic();
  ASSERT_EQ(traffic.size(), 2u);
  auto a = mt->network.SessionSnapshot(0);
  auto b = mt->network.SessionSnapshot(1);
  EXPECT_GT(a.bytes_up, 0u);
  EXPECT_GT(a.bytes_down, 0u);
  // Identical workloads, non-progressive aggregation: byte-for-byte fair.
  EXPECT_EQ(a.bytes_up, b.bytes_up);
  EXPECT_EQ(a.messages_up, b.messages_up);
}

// The shared-health contract under faults: each of session A's queries
// against a muted worker records two breaker failures (its first attempt and
// its degraded pass), so A's second query trips the breaker. Session B then
// sees the SAME breaker verdict — it degrades on its first attempt, where
// the dead worker fast-fails without an RPC — with identical coverage. And
// the degraded-result guard holds across tenants: A's partial result is
// never served to B from the shared cache.
TEST(Session, BreakerVerdictAndDegradedGuardAreSharedAcrossSessions) {
  std::vector<double> all_values;
  Cluster::Options options = FaultOptions();
  // Enough open uses that B's query fast-fails instead of probing.
  options.health.open_uses_before_probe = 3;
  auto mt = MultiTenant::Create(Partitions(&all_values), /*num_sessions=*/2,
                                options);
  ASSERT_NE(mt, nullptr);
  WorkerHealth& health = mt->cluster->health();
  constexpr int kDead = 1;
  FaultPlan plan;
  plan.schedule.push_back(ScriptedFault::Mute(kDead, Direction::kUp, 0,
                                              ScriptedFault::kForever));
  mt->network.InstallFaultInjector(std::make_shared<FaultInjector>(plan));

  RootSession::QueryStats a_stats;
  Result<HistogramResult> a = Status::OK();
  for (int q = 0; q < 2; ++q) {
    a = mt->sessions[0]->RunSketch<HistogramResult>(
        "data", TestSketch(), /*seed=*/0, /*cacheable=*/true, &a_stats);
    ASSERT_TRUE(a.ok()) << a.status().ToString();
    EXPECT_TRUE(a_stats.degraded);
    EXPECT_EQ(a_stats.coverage, 0.5);  // worker 1 held partitions 1 and 3
  }
  EXPECT_EQ(health.Snapshot().failures, 3);
  EXPECT_EQ(health.Snapshot().trips, 1);
  EXPECT_EQ(health.Snapshot().fast_fails, 1);
  EXPECT_EQ(health.state(kDead), WorkerHealth::State::kOpen);

  // Session B: the shared breaker is already open, so B degrades on its
  // FIRST attempt — a fast-fail, no RPC and no breaker failure of its own —
  // and is NOT served A's partial result from the shared cache.
  RootSession::QueryStats b_stats;
  auto b = mt->sessions[1]->RunSketch<HistogramResult>(
      "data", TestSketch(), /*seed=*/0, /*cacheable=*/true, &b_stats);
  ASSERT_TRUE(b.ok()) << b.status().ToString();
  EXPECT_TRUE(b_stats.degraded);
  EXPECT_FALSE(b_stats.from_cache);
  EXPECT_EQ(b_stats.coverage, a_stats.coverage);
  EXPECT_EQ(health.Snapshot().failures, 3);
  EXPECT_EQ(health.Snapshot().fast_fails, 2);
  EXPECT_EQ(health.Snapshot().probes, 0);
  EXPECT_EQ(health.Snapshot().trips, 1);
  EXPECT_EQ(mt->cluster->shared_cache().Snapshot().entries, 0u);
  EXPECT_EQ(SummaryBytes(a.value()), SummaryBytes(b.value()));
}

/// Holds every summarize until the test opens it, so a query over a
/// GatedSketch stays in flight for exactly as long as the test needs.
class Gate {
 public:
  void Open() {
    MutexLock lock(mu_);
    open_ = true;
    cv_.NotifyAll();
  }
  void Wait() {
    MutexLock lock(mu_);
    ++arrived_;
    cv_.NotifyAll();
    while (!open_) cv_.Wait(mu_);
  }
  /// Blocks until `n` summarizes wait at the gate: once every partition's
  /// has started, a cancellation has nothing left to catch in a queue.
  void AwaitArrivals(int n) {
    MutexLock lock(mu_);
    while (arrived_ < n) cv_.Wait(mu_);
  }

 private:
  Mutex mu_;
  CondVar cv_;
  bool open_ GUARDED_BY(mu_) = false;
  int arrived_ GUARDED_BY(mu_) = 0;
};

class GatedSketch final : public Sketch<HistogramResult> {
 public:
  explicit GatedSketch(std::shared_ptr<Gate> gate) : gate_(std::move(gate)) {}
  std::string name() const override { return inner_->name(); }
  HistogramResult Zero() const override { return inner_->Zero(); }
  HistogramResult Summarize(const Table& table, uint64_t seed) const override {
    gate_->Wait();
    return inner_->Summarize(table, seed);
  }
  HistogramResult Merge(const HistogramResult& left,
                        const HistogramResult& right) const override {
    return inner_->Merge(left, right);
  }

 private:
  const SketchPtr<HistogramResult> inner_ = TestSketch();
  const std::shared_ptr<Gate> gate_;
};

// A stream holds its dispatch slot until it settles. With one slot, a query
// issued while a stream is in flight waits, and is granted only after the
// stream's final value went out; a stream superseded by a new render frees
// its slot when it settles Cancelled, which is what lets the new render's
// stream in.
TEST(Session, StreamHoldsItsGrantUntilItSettles) {
  Cluster::Options options;
  options.scheduler.dispatch_concurrency = 1;
  std::vector<double> all_values;
  auto mt = MultiTenant::Create(Partitions(&all_values), /*num_sessions=*/1,
                                options);
  ASSERT_NE(mt, nullptr);
  RootSession& session = *mt->sessions[0];
  QueryScheduler& scheduler = mt->cluster->scheduler();
  const std::vector<uint8_t> reference = SummaryBytes(
      TestSketch()->Summarize(*MakeDoubleTable("x", all_values), 0));
  // Waits until `n` queries have reached admission, then gives a query that
  // could be granted at once the time to be.
  auto await_queued = [&](int64_t n) {
    Stopwatch waited;
    while (scheduler.Snapshot().submitted < n &&
           waited.ElapsedMillis() < 5000) {
      std::this_thread::yield();
    }
    EXPECT_EQ(scheduler.Snapshot().submitted, n);
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  };

  auto gate = std::make_shared<Gate>();
  auto first = session.RunSketchStream<HistogramResult>(
      "data", std::make_shared<GatedSketch>(gate));
  std::atomic<double> first_progress{0.0};
  first->Subscribe([&](const PartialResult<HistogramResult>& p) {
    first_progress.store(p.progress);
  });
  std::atomic<bool> granted{false};
  std::thread second([&]() {
    Status s = scheduler.Execute(session.session_id(), nullptr, [&]() {
      EXPECT_EQ(first_progress.load(), 1.0);
      granted.store(true);
      return Status::OK();
    });
    EXPECT_TRUE(s.ok());
  });
  await_queued(2);
  EXPECT_FALSE(granted.load());  // queued behind the stream in flight
  gate->Open();
  second.join();
  EXPECT_TRUE(granted.load());
  auto first_last = first->BlockingLast();
  ASSERT_TRUE(first->final_status().ok());
  EXPECT_EQ(SummaryBytes(first_last->value), reference);

  gate = std::make_shared<Gate>();
  CancellationTokenPtr gen1 = session.BeginRender("view");
  auto superseded = session.RunSketchStream<HistogramResult>(
      "data", std::make_shared<GatedSketch>(gate), 0, gen1);
  gate->AwaitArrivals(kPartitions);
  CancellationTokenPtr gen2 = session.BeginRender("view");
  StreamPtr<PartialResult<HistogramResult>> shown;
  std::thread render([&]() {
    shown = session.RunSketchStream<HistogramResult>("data", TestSketch(), 0,
                                                     gen2);
  });
  await_queued(4);
  EXPECT_EQ(scheduler.Snapshot().completed, 2);  // the superseded one holds
  gate->Open();
  render.join();
  (void)superseded->BlockingLast();
  EXPECT_EQ(superseded->final_status().code(), StatusCode::kCancelled);
  auto shown_last = shown->BlockingLast();
  ASSERT_TRUE(shown->final_status().ok());
  EXPECT_EQ(SummaryBytes(shown_last->value), reference);

  auto stats = scheduler.Snapshot();
  EXPECT_EQ(stats.submitted, 4);
  EXPECT_EQ(stats.completed, 4);
  EXPECT_EQ(stats.max_running, 1);
  EXPECT_EQ(stats.cancelled_in_queue, 0);
}

// A stream whose caller walks away — a superseded render, its stream and
// its session all dropped while the query is still in flight — settles on
// its own: it keeps the session alive until then, touches no freed state
// (the ASan lane checks this), frees its grant, and then lets the session
// go.
TEST(Session, StreamSettlesAfterCallerAndSessionAreGone) {
  auto mt = MultiTenant::Create(Partitions(nullptr), /*num_sessions=*/2);
  ASSERT_NE(mt, nullptr);
  auto gate = std::make_shared<Gate>();
  std::weak_ptr<RootSession> gone = mt->sessions[1];
  {
    CancellationTokenPtr token = mt->sessions[1]->BeginRender("view");
    auto stream = mt->sessions[1]->RunSketchStream<HistogramResult>(
        "data", std::make_shared<GatedSketch>(gate), /*seed=*/0, token);
    gate->AwaitArrivals(kPartitions);
    (void)mt->sessions[1]->BeginRender("view");  // supersede it
  }
  mt->sessions.pop_back();
  EXPECT_FALSE(gone.expired());  // the query in flight holds it
  EXPECT_EQ(mt->cluster->scheduler().Snapshot().completed, 0);
  gate->Open();
  for (auto& worker : mt->workers) worker->Drain();
  EXPECT_TRUE(gone.expired());
  auto stats = mt->cluster->scheduler().Snapshot();
  EXPECT_EQ(stats.submitted, 1);
  EXPECT_EQ(stats.completed, 1);
}

// Sessions derive and drop identical and distinct views of one parent while
// another thread restarts workers, so pins, releases, maps and heals of one
// id interleave. A map that meets a restarted worker fails Unavailable (it
// does not heal); a query of the parent heals it and the map is retried.
// Every query of a view answers in full, and once every view is dropped no
// id is left on any worker or on record. HILLVIEW_STRESS_ITERS multiplies
// the rounds.
TEST(Session, DerivedViewsRacingRestartsAnswerInFull) {
  const char* env = std::getenv("HILLVIEW_STRESS_ITERS");
  const int rounds = 2 * std::max(1, env == nullptr ? 1 : std::atoi(env));
  constexpr int kSessions = 3;
  constexpr int kViewsPerSession = 60;
  std::vector<double> values;
  Cluster::Options options;
  options.max_replay_retries = 1000;  // restarts are paced; never degrade
  for (int round = 0; round < rounds; ++round) {
    auto mt = MultiTenant::Create(Partitions(&values), kSessions, options);
    ASSERT_NE(mt, nullptr);
    // Even views are the same for every session; odd ones are its own.
    auto bounds = [](int session, int view) {
      const double lo = 10.0 * (view % 5) + (view % 2 == 0 ? 0 : session + 1);
      return std::make_pair(lo, lo + 30.0);
    };
    std::mutex ids_mutex;
    std::set<std::string> ids;
    std::atomic<bool> stop{false};
    std::atomic<int64_t> restarts{0};
    std::thread restarter([&] {
      for (int w = 0; !stop.load(); w = (w + 1) % kWorkers) {
        mt->workers[w]->Restart();
        restarts.fetch_add(1);
        std::this_thread::sleep_for(std::chrono::microseconds(500));
      }
    });
    std::vector<std::thread> threads;
    for (int s = 0; s < kSessions; ++s) {
      threads.emplace_back([&, s] {
        RootSession& session = *mt->sessions[s];
        for (int v = 0; v < kViewsPerSession; ++v) {
          const auto [lo, hi] = bounds(s, v);
          TableMap filter = [lo, hi](const TablePtr& t) -> Result<TablePtr> {
            return t->Filter([t, lo, hi](uint32_t r) {
              const double x = t->column(0)->GetDouble(r);
              return x >= lo && x < hi;
            });
          };
          const std::string op = "range(" + std::to_string(lo) + ")";
          Result<cluster::PinnedId> view =
              session.MapDataSet("data", filter, op);
          while (!view.ok()) {
            ASSERT_EQ(view.status().code(), StatusCode::kUnavailable);
            ASSERT_TRUE(session
                            .RunSketch<CountResult>(
                                "data", std::make_shared<CountSketch>())
                            .ok());
            view = session.MapDataSet("data", filter, op);
          }
          {
            std::lock_guard<std::mutex> lock(ids_mutex);
            ids.insert(view.value().id());
          }
          RootSession::QueryStats stats;
          auto count = session.RunSketch<CountResult>(
              view.value().id(), std::make_shared<CountSketch>(), /*seed=*/0,
              /*cacheable=*/false, &stats);
          ASSERT_TRUE(count.ok()) << count.status().ToString();
          EXPECT_EQ(stats.coverage, 1.0);
          int64_t expected = 0;
          for (double x : values) expected += x >= lo && x < hi ? 1 : 0;
          EXPECT_EQ(count.value().rows, expected);
        }
      });
    }
    for (auto& thread : threads) thread.join();
    stop = true;
    restarter.join();
    EXPECT_GE(restarts.load(), 1);
    RecordProperty("round" + std::to_string(round) + "_restarts",
                   std::to_string(restarts.load()));
    for (const auto& id : ids) {
      EXPECT_TRUE(mt->cluster->Partitions(id).empty()) << id;
      for (const auto& worker : mt->workers) {
        EXPECT_FALSE(worker->GetDataSet(id).ok()) << id;
      }
    }
  }
}

// BlockingLast with a cancellation token settles promptly when the token
// flips mid-wait — the reactive-layer primitive under every render
// cancellation — and immediately when the token was already flipped. The
// stream itself is left running.
TEST(Session, BlockingLastSettlesOnCancellation) {
  Stream<int> stream;
  stream.OnNext(7);
  auto token = std::make_shared<CancellationToken>();
  std::thread canceller([&]() {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    token->Cancel();
  });
  auto last = stream.BlockingLast(token);
  canceller.join();
  EXPECT_TRUE(token->IsCancelled());
  EXPECT_FALSE(stream.IsDone());
  ASSERT_TRUE(last.has_value());  // the last partial is still handed back
  EXPECT_EQ(*last, 7);

  // Already-cancelled: returns without waiting at all.
  auto again = stream.BlockingLast(token);
  EXPECT_FALSE(stream.IsDone());
  ASSERT_TRUE(again.has_value());
  EXPECT_EQ(*again, 7);
}

}  // namespace
}  // namespace hillview
