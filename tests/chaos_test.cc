// Chaos suite: drives seeded fault plans (drops, corruption, duplication,
// worker mutes) through the simulated cluster and checks the end-to-end
// robustness contract — every query either heals to a byte-identical result
// or completes degraded with a coverage fraction exactly matching the
// surviving partition set. Labeled `chaos` (not tier1) so the chaos CI lane
// can crank iteration counts via HILLVIEW_CHAOS_ITERS while default builds
// stay fast.
//
// Determinism discipline: workers run with progressive=false aggregation, so
// exactly one summary crosses the wire per worker per attempt and the
// per-channel message counts — hence the counter-indexed fault schedule —
// are reproducible. No test sleeps or reads the wall clock; dropped and late
// messages settle through the simulation's own deadline machinery.

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "cluster/fault_injection.h"
#include "cluster/root.h"
#include "cluster/worker_health.h"
#include "sketch/histogram.h"
#include "sketch/range_moments.h"
#include "test_util.h"

namespace hillview {
namespace {

using cluster::Cluster;
using cluster::Direction;
using cluster::FaultAction;
using cluster::FaultInjector;
using cluster::FaultPlan;
using cluster::FaultVerdict;
using cluster::RootSession;
using cluster::ScriptedFault;
using cluster::WorkerHealth;
using testing::MakeDoubleTable;
using testing::SplitValues;
using testing::TestCluster;
using testing::UniformDoubles;

/// Iteration multiplier: 1 by default (fast local runs), raised by the chaos
/// CI lane (HILLVIEW_CHAOS_ITERS) to sweep more seeded schedules.
int ChaosIters() {
  const char* env = std::getenv("HILLVIEW_CHAOS_ITERS");
  if (env == nullptr) return 1;
  int iters = std::atoi(env);
  return iters < 1 ? 1 : iters;
}

constexpr int kWorkers = 4;
constexpr int kPartitions = 8;

/// Deployment options for chaos runs: deadlines on (so lost messages become
/// kDeadlineExceeded), zero backoff (faults settle through the simulation,
/// not the wall clock), generous per-RPC retry budget.
Cluster::Options ChaosOptions() {
  Cluster::Options options;
  options.aggregation.aggregation_window_ms = 0;
  options.rpc.deadline_ms = 5000;
  options.rpc.max_retries = 8;
  options.rpc.backoff_base_ms = 0.0;
  options.rpc.backoff_cap_ms = 0.0;
  return options;
}

/// A chaos cluster: kWorkers workers over `partitions`, workers aggregating
/// with progressive=false (one up-message per worker per attempt — the
/// deterministic-message-count configuration).
std::unique_ptr<TestCluster> MakeChaosCluster(
    const std::vector<TablePtr>& partitions,
    Cluster::Options options = ChaosOptions()) {
  ParallelDataSet::Options worker_aggregation;
  worker_aggregation.progressive = false;
  return TestCluster::Create(partitions, kWorkers, /*threads_per_worker=*/2,
                             options, worker_aggregation);
}

/// The fixed chaos dataset: kPartitions partitions of uniform doubles.
/// Partition p lives on worker p % kWorkers (the root's round-robin).
std::vector<TablePtr> ChaosPartitions(std::vector<double>* all_values) {
  auto values = UniformDoubles(16000, 0, 100, 4242);
  if (all_values != nullptr) *all_values = values;
  std::vector<TablePtr> partitions;
  for (const auto& chunk : SplitValues(values, kPartitions)) {
    partitions.push_back(MakeDoubleTable("x", chunk));
  }
  return partitions;
}

SketchPtr<HistogramResult> ChaosSketch() {
  return std::make_shared<StreamingHistogramSketch>(
      "x", Buckets(NumericBuckets(0, 100, 32)));
}

/// Serialized bytes of a histogram summary — the "byte-identical" oracle.
std::vector<uint8_t> SummaryBytes(const HistogramResult& r) {
  return AnySketch::Wrap<HistogramResult>(ChaosSketch())
      .Serialize(AnySummary::Wrap<HistogramResult>(r));
}

/// The fault-free reference: a single-machine summarize over `values`
/// (histogram merge is additive, so this equals any merge order).
HistogramResult Reference(const std::vector<double>& values) {
  return ChaosSketch()->Summarize(*MakeDoubleTable("x", values), 0);
}

/// Values surviving the loss of `dead_worker` (partitions p % kWorkers ==
/// dead_worker removed), in partition round-robin layout.
std::vector<double> SurvivingValues(const std::vector<double>& all,
                                    int dead_worker) {
  auto chunks = SplitValues(all, kPartitions);
  std::vector<double> out;
  for (int p = 0; p < kPartitions; ++p) {
    if (p % kWorkers == dead_worker) continue;
    out.insert(out.end(), chunks[p].begin(), chunks[p].end());
  }
  return out;
}

// Two injectors built from the same plan must return the very same verdict
// sequence per channel, regardless of how the channels interleave — the
// verdict is a pure function of (seed, worker, direction, channel index).
TEST(Chaos, FaultPlanVerdictsAreDeterministic) {
  FaultPlan plan;
  plan.seed = 99;
  plan.up.drop = 0.3;
  plan.up.corrupt = 0.2;
  plan.up.duplicate = 0.2;
  plan.up.latency_spike = 0.25;
  plan.up.latency_spike_ms = 3.0;
  plan.down.drop = 0.15;
  plan.schedule.push_back(ScriptedFault::DropNth(1, Direction::kUp, 2));

  FaultInjector a(plan);
  FaultInjector b(plan);
  // `a` judges worker-major, `b` index-major: per-channel sequences must
  // still agree element-for-element.
  std::vector<std::vector<FaultVerdict>> verdicts_a(kWorkers);
  for (int w = 0; w < kWorkers; ++w) {
    for (int i = 0; i < 32; ++i) {
      verdicts_a[w].push_back(a.Judge(w, Direction::kUp));
    }
  }
  for (int i = 0; i < 32; ++i) {
    for (int w = 0; w < kWorkers; ++w) {
      const FaultVerdict got = b.Judge(w, Direction::kUp);
      const FaultVerdict want = verdicts_a[w][static_cast<size_t>(i)];
      EXPECT_EQ(static_cast<int>(got.action), static_cast<int>(want.action))
          << "worker " << w << " index " << i;
      EXPECT_EQ(got.extra_latency_ms, want.extra_latency_ms);
      EXPECT_EQ(got.corrupt_seed, want.corrupt_seed);
    }
  }
  EXPECT_EQ(a.ChannelCount(0, Direction::kUp), 32u);
  EXPECT_EQ(a.ChannelCount(0, Direction::kDown), 0u);
  EXPECT_EQ(a.Snapshot().judged, b.Snapshot().judged);
  EXPECT_EQ(a.Snapshot().dropped, b.Snapshot().dropped);
  EXPECT_EQ(a.Snapshot().corrupted, b.Snapshot().corrupted);
  EXPECT_EQ(a.Snapshot().duplicated, b.Snapshot().duplicated);
  EXPECT_EQ(a.Snapshot().latency_spikes, b.Snapshot().latency_spikes);
  EXPECT_GE(a.Snapshot().scripted_hits, 1u);
}

// Dropping the first summary coming up from one worker forces exactly one
// per-RPC retry; the retried sketch is pure, so the query result is
// byte-identical to the fault-free run and the query level sees no fault.
TEST(Chaos, ScriptedDropOfNthUpMessageHealsViaRpcRetry) {
  std::vector<double> all_values;
  auto tc = MakeChaosCluster(ChaosPartitions(&all_values));
  ASSERT_NE(tc, nullptr);
  FaultPlan plan;
  plan.schedule.push_back(ScriptedFault::DropNth(1, Direction::kUp, 0));
  auto injector = std::make_shared<FaultInjector>(plan);
  tc->network.InstallFaultInjector(injector);

  RootSession::QueryStats stats;
  auto result = tc->root->RunSketch<HistogramResult>(
      "data", ChaosSketch(), /*seed=*/0, /*cacheable=*/false, &stats);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(SummaryBytes(result.value()), SummaryBytes(Reference(all_values)));
  EXPECT_EQ(stats.coverage, 1.0);
  EXPECT_FALSE(stats.degraded);
  // Healed below the query level: the RPC retried; the query neither
  // replayed nor degraded.
  EXPECT_EQ(stats.replay_heals, 0);
  EXPECT_EQ(injector->Snapshot().dropped, 1u);
  // The retry succeeded, so the worker's breaker recorded a success and
  // never tripped.
  EXPECT_EQ(tc->cluster->health().Snapshot().failures, 0);
  EXPECT_EQ(tc->cluster->health().Snapshot().trips, 0);
  EXPECT_EQ(tc->cluster->health().state(1), WorkerHealth::State::kClosed);
}

// A dropped request (down direction) settles through the simulation — the
// worker stays silent, the attempt completes kDeadlineExceeded immediately,
// and the retry delivers. No wall-clock deadline wait is involved.
TEST(Chaos, ScriptedDropOfRequestHealsViaRpcRetry) {
  std::vector<double> all_values;
  auto tc = MakeChaosCluster(ChaosPartitions(&all_values));
  ASSERT_NE(tc, nullptr);
  FaultPlan plan;
  plan.schedule.push_back(ScriptedFault::DropNth(2, Direction::kDown, 0));
  auto injector = std::make_shared<FaultInjector>(plan);
  tc->network.InstallFaultInjector(injector);

  auto result = tc->root->RunSketch<HistogramResult>("data", ChaosSketch());
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(SummaryBytes(result.value()), SummaryBytes(Reference(all_values)));
  EXPECT_EQ(injector->Snapshot().dropped, 1u);
}

// A corrupted summary frame fails its checksum at the machine boundary: it
// is dropped there, counted on the worker, and the silence heals as a
// deadline miss — the query still returns the exact fault-free bytes.
TEST(Chaos, CorruptedSummaryIsDroppedCountedAndHealed) {
  std::vector<double> all_values;
  auto tc = MakeChaosCluster(ChaosPartitions(&all_values));
  ASSERT_NE(tc, nullptr);
  FaultPlan plan;
  plan.schedule.push_back(ScriptedFault::CorruptNth(1, Direction::kUp, 0));
  auto injector = std::make_shared<FaultInjector>(plan);
  tc->network.InstallFaultInjector(injector);

  EXPECT_EQ(tc->workers[1]->corrupt_messages_dropped(), 0);
  auto result = tc->root->RunSketch<HistogramResult>("data", ChaosSketch());
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(SummaryBytes(result.value()), SummaryBytes(Reference(all_values)));
  EXPECT_EQ(injector->Snapshot().corrupted, 1u);
  EXPECT_EQ(tc->workers[1]->corrupt_messages_dropped(), 1);
  EXPECT_EQ(tc->workers[0]->corrupt_messages_dropped(), 0);
}

// Duplicate delivery is harmless by construction: the merger's per-child
// update is replacement, not addition, so a duplicated summary cannot be
// double-counted.
TEST(Chaos, DuplicatedSummaryMergesIdempotently) {
  std::vector<double> all_values;
  auto tc = MakeChaosCluster(ChaosPartitions(&all_values));
  ASSERT_NE(tc, nullptr);
  FaultPlan plan;
  plan.schedule.push_back(ScriptedFault{/*worker=*/3, Direction::kUp,
                                        /*begin=*/0, /*end=*/1,
                                        FaultAction::kDuplicate});
  auto injector = std::make_shared<FaultInjector>(plan);
  tc->network.InstallFaultInjector(injector);

  auto result = tc->root->RunSketch<HistogramResult>("data", ChaosSketch());
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(SummaryBytes(result.value()), SummaryBytes(Reference(all_values)));
  EXPECT_EQ(injector->Snapshot().duplicated, 1u);
}

// A worker muted forever exhausts its per-RPC retry budget twice per query —
// on the first attempt and again on the degraded pass — and the query
// completes degraded: the merge covers exactly the surviving partitions (6
// of 8 → coverage 0.75, exact in floating point), the summary equals the
// survivors-only reference, and the degraded result is never admitted to
// the computation cache. Two breaker failures per query means the default
// threshold of three trips the breaker during the second query.
TEST(Chaos, MutedWorkerDegradesWithExactCoverageAndIsNeverCached) {
  constexpr int kDead = 2;
  std::vector<double> all_values;
  auto tc = MakeChaosCluster(ChaosPartitions(&all_values));
  ASSERT_NE(tc, nullptr);
  WorkerHealth& health = tc->cluster->health();
  ComputationCache& cache = tc->cluster->shared_cache();
  FaultPlan plan;
  plan.schedule.push_back(ScriptedFault::Mute(kDead, Direction::kUp, 0,
                                              ScriptedFault::kForever));
  tc->network.InstallFaultInjector(std::make_shared<FaultInjector>(plan));

  RootSession::QueryStats stats;
  auto degraded = tc->root->RunSketch<HistogramResult>(
      "data", ChaosSketch(), /*seed=*/0, /*cacheable=*/true, &stats);
  ASSERT_TRUE(degraded.ok()) << degraded.status().ToString();
  EXPECT_TRUE(stats.degraded);
  EXPECT_EQ(stats.coverage, 6.0 / 8.0);
  EXPECT_EQ(SummaryBytes(degraded.value()),
            SummaryBytes(Reference(SurvivingValues(all_values, kDead))));
  EXPECT_EQ(health.Snapshot().failures, 2);
  EXPECT_EQ(health.Snapshot().trips, 0);
  EXPECT_EQ(health.state(kDead), WorkerHealth::State::kClosed);
  // Degraded results are never cached: the cache stays empty and a repeat of
  // the same cacheable query recomputes (degraded again) instead of hitting.
  // The repeat's first attempt is the third consecutive failure and trips
  // the breaker; its degraded pass then fast-fails the dead worker.
  EXPECT_EQ(cache.Snapshot().entries, 0u);
  RootSession::QueryStats again;
  auto repeat = tc->root->RunSketch<HistogramResult>(
      "data", ChaosSketch(), /*seed=*/0, /*cacheable=*/true, &again);
  ASSERT_TRUE(repeat.ok());
  EXPECT_FALSE(again.from_cache);
  EXPECT_TRUE(again.degraded);
  EXPECT_EQ(again.coverage, 6.0 / 8.0);
  EXPECT_EQ(cache.Snapshot().hits, 0);
  EXPECT_EQ(cache.Snapshot().entries, 0u);
  EXPECT_EQ(health.Snapshot().failures, 3);
  EXPECT_EQ(health.Snapshot().trips, 1);
  EXPECT_EQ(health.Snapshot().fast_fails, 1);
  EXPECT_EQ(health.state(kDead), WorkerHealth::State::kOpen);

  // Once the fault clears, the breaker's next use is its half-open probe
  // (the default budget is two open uses); the probe succeeds and closes
  // the breaker, and the full-coverage result is allowed into the cache —
  // proving no stale degraded entry ever shadowed it.
  tc->network.InstallFaultInjector(nullptr);
  RootSession::QueryStats healed_stats;
  auto healed = tc->root->RunSketch<HistogramResult>(
      "data", ChaosSketch(), /*seed=*/0, /*cacheable=*/true, &healed_stats);
  ASSERT_TRUE(healed.ok());
  EXPECT_FALSE(healed_stats.degraded);
  EXPECT_EQ(healed_stats.coverage, 1.0);
  EXPECT_EQ(SummaryBytes(healed.value()), SummaryBytes(Reference(all_values)));
  EXPECT_EQ(health.Snapshot().probes, 1);
  EXPECT_EQ(health.Snapshot().fast_fails, 1);
  EXPECT_EQ(health.state(kDead), WorkerHealth::State::kClosed);
  EXPECT_EQ(cache.Snapshot().entries, 1u);
}

// Recovery choreography, step by step: the breaker trips during the second
// faulty query; while it is open the worker fast-fails (degraded coverage
// even though the network healed), then the half-open probe admits one RPC
// whose success closes the breaker and restores full coverage.
TEST(Chaos, RecoveredWorkerClosesBreakerViaHalfOpenProbe) {
  constexpr int kDead = 1;
  std::vector<double> all_values;
  Cluster::Options options = ChaosOptions();
  options.health.open_uses_before_probe = 3;
  auto tc = MakeChaosCluster(ChaosPartitions(&all_values), options);
  ASSERT_NE(tc, nullptr);
  WorkerHealth& health = tc->cluster->health();
  FaultPlan plan;
  plan.schedule.push_back(ScriptedFault::Mute(kDead, Direction::kUp, 0,
                                              ScriptedFault::kForever));
  tc->network.InstallFaultInjector(std::make_shared<FaultInjector>(plan));

  // Queries 1 and 2 (network faulty) complete degraded. Query 1 records two
  // failures (its first attempt and its degraded pass); query 2's first
  // attempt records the third, which trips the breaker, and its degraded
  // pass spends one open use as a fast-fail.
  RootSession::QueryStats stats;
  for (int q = 0; q < 2; ++q) {
    auto faulty = tc->root->RunSketch<HistogramResult>(
        "data", ChaosSketch(), /*seed=*/0, /*cacheable=*/false, &stats);
    ASSERT_TRUE(faulty.ok()) << faulty.status().ToString();
    EXPECT_TRUE(stats.degraded);
    EXPECT_EQ(stats.coverage, 6.0 / 8.0);
  }
  EXPECT_EQ(health.Snapshot().failures, 3);
  EXPECT_EQ(health.Snapshot().trips, 1);
  EXPECT_EQ(health.Snapshot().fast_fails, 1);
  EXPECT_EQ(health.state(kDead), WorkerHealth::State::kOpen);

  // The fault clears — but the breaker remembers.
  tc->network.InstallFaultInjector(nullptr);

  // Query 3: still inside the open-use window, the worker fast-fails without
  // any RPC; the query stays degraded at the same exact coverage.
  auto q3 = tc->root->RunSketch<HistogramResult>(
      "data", ChaosSketch(), /*seed=*/0, /*cacheable=*/false, &stats);
  ASSERT_TRUE(q3.ok());
  EXPECT_TRUE(stats.degraded);
  EXPECT_EQ(stats.coverage, 6.0 / 8.0);
  EXPECT_EQ(SummaryBytes(q3.value()),
            SummaryBytes(Reference(SurvivingValues(all_values, kDead))));
  EXPECT_EQ(health.Snapshot().fast_fails, 2);

  // Query 4: the open-use budget is spent, so the breaker goes half-open and
  // admits one probe RPC; it succeeds, the breaker closes, coverage is full
  // and the bytes match the fault-free reference.
  auto q4 = tc->root->RunSketch<HistogramResult>(
      "data", ChaosSketch(), /*seed=*/0, /*cacheable=*/false, &stats);
  ASSERT_TRUE(q4.ok());
  EXPECT_FALSE(stats.degraded);
  EXPECT_EQ(stats.coverage, 1.0);
  EXPECT_EQ(SummaryBytes(q4.value()), SummaryBytes(Reference(all_values)));
  EXPECT_EQ(health.state(kDead), WorkerHealth::State::kClosed);
  EXPECT_EQ(health.Snapshot().probes, 1);
  EXPECT_EQ(health.Snapshot().fast_fails, 2);
  EXPECT_EQ(health.Snapshot().trips, 1);
}

// The breaker state machine in isolation: closed → (threshold failures) →
// open → (open-use budget) → half-open → probe outcome decides.
TEST(Chaos, BreakerStateMachineTripsProbesAndRecovers) {
  WorkerHealth::Options options;
  options.failure_threshold = 2;
  options.open_uses_before_probe = 2;
  WorkerHealth health(/*num_workers=*/2, options);

  EXPECT_TRUE(health.AllowRequest(0));
  health.RecordFailure(0);
  EXPECT_TRUE(health.AllowRequest(0));
  health.RecordFailure(0);  // second consecutive failure: trips
  EXPECT_EQ(health.state(0), WorkerHealth::State::kOpen);
  EXPECT_EQ(health.Snapshot().trips, 1);
  EXPECT_TRUE(health.AnyOpen());
  EXPECT_EQ(health.num_open(), 1);

  // Open: fast-fail once, then the second use goes half-open as the probe.
  EXPECT_FALSE(health.AllowRequest(0));
  EXPECT_TRUE(health.AllowRequest(0));
  EXPECT_EQ(health.state(0), WorkerHealth::State::kHalfOpen);
  // While the probe is in flight everyone else fast-fails.
  EXPECT_FALSE(health.AllowRequest(0));

  // Probe fails: straight back to open, a fresh open-use window.
  health.RecordFailure(0);
  EXPECT_EQ(health.state(0), WorkerHealth::State::kOpen);
  EXPECT_FALSE(health.AllowRequest(0));
  EXPECT_TRUE(health.AllowRequest(0));  // next probe
  health.RecordSuccess(0);              // probe succeeds: closed
  EXPECT_EQ(health.state(0), WorkerHealth::State::kClosed);
  EXPECT_FALSE(health.AnyOpen());

  // The untouched worker never left closed.
  EXPECT_EQ(health.state(1), WorkerHealth::State::kClosed);
  EXPECT_EQ(health.Snapshot().probes, 2);

  health.Reset();
  EXPECT_EQ(health.Snapshot().trips, 0);
  EXPECT_EQ(health.Snapshot().probes, 0);
}

// The acceptance sweep: many seeded random fault schedules (probabilistic
// drops/corruption/duplication on both directions, sometimes one worker
// muted for good), each run twice on a fresh cluster — once through the
// blocking RunSketch and once through RunSketchStream, which share one
// ladder. Every query must either heal byte-identical to the fault-free
// reference, or — exactly when a worker was muted — complete degraded with
// coverage equal to the surviving partition fraction and the survivors-only
// bytes.
TEST(Chaos, RandomSchedulesHealOrDegradeExactly) {
  const int kSeeds = 50 * ChaosIters();
  std::vector<double> all_values;
  auto partitions = ChaosPartitions(&all_values);
  const std::vector<uint8_t> full_bytes = SummaryBytes(Reference(all_values));
  std::vector<std::vector<uint8_t>> survivor_bytes;
  for (int w = 0; w < kWorkers; ++w) {
    survivor_bytes.push_back(
        SummaryBytes(Reference(SurvivingValues(all_values, w))));
  }

  int muted_runs = 0;
  for (int seed = 0; seed < kSeeds; ++seed) {
    Random rng(static_cast<uint64_t>(seed) * 7919 + 1);
    FaultPlan plan;
    plan.seed = static_cast<uint64_t>(seed);
    plan.up.drop = 0.20 * rng.NextDouble();
    plan.up.corrupt = 0.10 * rng.NextDouble();
    plan.up.duplicate = 0.20 * rng.NextDouble();
    plan.down.drop = 0.10 * rng.NextDouble();
    int victim = -1;
    if (rng.NextDouble() < 0.5) {
      victim = static_cast<int>(rng.NextUint64(kWorkers));
      plan.schedule.push_back(ScriptedFault::Mute(
          victim, Direction::kUp, 0, ScriptedFault::kForever));
      ++muted_runs;
    }

    for (bool streamed : {false, true}) {
      SCOPED_TRACE("chaos seed " + std::to_string(seed) +
                   (streamed ? " (stream)" : " (blocking)"));
      auto tc = MakeChaosCluster(partitions);
      ASSERT_NE(tc, nullptr);
      tc->network.InstallFaultInjector(std::make_shared<FaultInjector>(plan));

      HistogramResult value;
      double coverage = 0;
      if (streamed) {
        auto stream =
            tc->root->RunSketchStream<HistogramResult>("data", ChaosSketch());
        auto last = stream->BlockingLast();
        ASSERT_TRUE(stream->final_status().ok())
            << stream->final_status().ToString();
        ASSERT_TRUE(last.has_value());
        value = last->value;
        coverage = last->coverage;
      } else {
        RootSession::QueryStats stats;
        auto result = tc->root->RunSketch<HistogramResult>(
            "data", ChaosSketch(), /*seed=*/0, /*cacheable=*/false, &stats);
        ASSERT_TRUE(result.ok()) << result.status().ToString();
        EXPECT_EQ(stats.degraded, victim >= 0);
        value = result.value();
        coverage = stats.coverage;
      }
      if (victim < 0) {
        EXPECT_EQ(coverage, 1.0);
        EXPECT_EQ(SummaryBytes(value), full_bytes);
      } else {
        EXPECT_EQ(coverage, 6.0 / 8.0);
        EXPECT_EQ(SummaryBytes(value),
                  survivor_bytes[static_cast<size_t>(victim)]);
      }
    }
  }
  // The 50/50 victim coin must have landed on both sides; otherwise the
  // sweep silently lost half its assertions.
  EXPECT_GT(muted_runs, 0);
  EXPECT_LT(muted_runs, kSeeds);
}

}  // namespace
}  // namespace hillview
