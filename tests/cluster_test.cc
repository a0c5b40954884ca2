#include <gtest/gtest.h>

#include <atomic>

#include "cluster/root.h"
#include "sketch/find_text.h"
#include "sketch/histogram.h"
#include "sketch/next_items.h"
#include "sketch/range_moments.h"
#include "test_util.h"
#include "util/stopwatch.h"

namespace hillview {
namespace {

using cluster::RootSession;
using cluster::SimulatedNetwork;
using cluster::Worker;
using testing::MakeDoubleTable;
using testing::MakeStringTable;
using testing::SplitValues;
using testing::TestCluster;
using testing::UniformDoubles;

TEST(Cluster, SketchMatchesSingleMachineResult) {
  auto values = UniformDoubles(20000, 0, 100, 81);
  std::vector<TablePtr> partitions;
  for (const auto& chunk : SplitValues(values, 8)) {
    partitions.push_back(MakeDoubleTable("x", chunk));
  }
  auto tc = TestCluster::Create(partitions, /*workers=*/3, /*threads=*/2);
  ASSERT_NE(tc, nullptr);

  auto sketch = std::make_shared<StreamingHistogramSketch>(
      "x", Buckets(NumericBuckets(0, 100, 16)));
  auto result = tc->root->RunSketch<HistogramResult>("data", sketch);
  ASSERT_TRUE(result.ok());

  HistogramResult expected =
      sketch->Summarize(*MakeDoubleTable("x", values), 0);
  EXPECT_EQ(result.value().counts, expected.counts);
}

TEST(Cluster, RootReceivesSmallSummaries) {
  auto values = UniformDoubles(100000, 0, 1, 82);
  std::vector<TablePtr> partitions;
  for (const auto& chunk : SplitValues(values, 8)) {
    partitions.push_back(MakeDoubleTable("x", chunk));
  }
  auto tc = TestCluster::Create(partitions, 4, 2);
  auto sketch = std::make_shared<StreamingHistogramSketch>(
      "x", Buckets(NumericBuckets(0, 1, 50)));
  ASSERT_TRUE(tc->root->RunSketch<HistogramResult>("data", sketch).ok());
  uint64_t up = tc->network.bytes_received_by_root();
  EXPECT_GT(up, 0u);
  // 50-bucket histogram ≈ 440B/summary; even with per-worker partials the
  // total stays orders of magnitude below the 800 KB raw column.
  EXPECT_LT(up, 100000u);
  EXPECT_GT(tc->network.messages_up(), 0u);
  EXPECT_GT(tc->network.bytes_sent_by_root(), 0u);
}

TEST(Cluster, MapThenSketch) {
  auto values = UniformDoubles(10000, 0, 1, 83);
  std::vector<TablePtr> partitions;
  for (const auto& chunk : SplitValues(values, 4)) {
    partitions.push_back(MakeDoubleTable("x", chunk));
  }
  auto tc = TestCluster::Create(partitions, 2, 2);
  auto derived = tc->root->MapDataSet(
      "data",
      [](const TablePtr& t) -> Result<TablePtr> {
        return t->Filter(
            [t](uint32_t r) { return t->column(0)->GetDouble(r) < 0.25; });
      },
      "q1");
  ASSERT_TRUE(derived.ok());
  auto count = tc->root->RunSketch<CountResult>(
      derived.value().id(), std::make_shared<CountSketch>());
  ASSERT_TRUE(count.ok());
  EXPECT_NEAR(count.value().rows, 2500, 300);
}

// An id without lineage, never loaded or released, has nothing a heal could
// rebuild and no partition weights a degraded merge could report coverage
// by: its queries settle Unavailable before any request or heal, blocking
// or streamed, and also when a breaker is open and the first attempt would
// already be degraded.
TEST(Cluster, UnknownDatasetIsUnavailable) {
  auto tc = TestCluster::Create(
      {MakeDoubleTable("x", {1.0}), MakeDoubleTable("x", {2.0})}, 2, 1);
  std::string released;
  {
    auto derived = tc->root->MapDataSet(
        "data", [](const TablePtr& t) -> Result<TablePtr> { return t; },
        "all");
    ASSERT_TRUE(derived.ok());
    released = derived.value().id();
    ASSERT_TRUE(tc->root->RunSketch<CountResult>(
                            released, std::make_shared<CountSketch>())
                    .ok());
  }
  ASSERT_TRUE(tc->cluster->Partitions(released).empty());

  for (bool breaker_open : {false, true}) {
    if (breaker_open) {
      for (int i = 0; i < cluster::WorkerHealth::Options{}.failure_threshold;
           ++i) {
        tc->cluster->health().RecordFailure(1);
      }
      ASSERT_TRUE(tc->cluster->health().AnyOpen());
    }
    for (const std::string& id : {std::string("nope"), released}) {
      SCOPED_TRACE(id + (breaker_open ? ", breaker open" : ""));
      const uint64_t down = tc->network.messages_down();
      const int64_t heals = tc->root->redo_log().Snapshot().replays_started;
      RootSession::QueryStats stats;
      auto result = tc->root->RunSketch<CountResult>(
          id, std::make_shared<CountSketch>(), /*seed=*/0,
          /*cacheable=*/false, &stats);
      EXPECT_EQ(result.status().code(), StatusCode::kUnavailable);
      EXPECT_EQ(stats.replay_heals, 0);

      auto stream = tc->root->RunSketchStream<CountResult>(
          id, std::make_shared<CountSketch>());
      EXPECT_FALSE(stream->BlockingLast().has_value());
      EXPECT_EQ(stream->final_status().code(), StatusCode::kUnavailable);

      EXPECT_EQ(tc->network.messages_down(), down);
      EXPECT_EQ(tc->root->redo_log().Snapshot().replays_started, heals);
    }
  }
}

TEST(Cluster, WorkerRestartHealsViaRedoLogReplay) {
  auto values = UniformDoubles(10000, 0, 1, 84);
  std::vector<TablePtr> partitions;
  for (const auto& chunk : SplitValues(values, 6)) {
    partitions.push_back(MakeDoubleTable("x", chunk));
  }
  auto tc = TestCluster::Create(partitions, 3, 2);

  // Create a derived dataset, then crash one worker.
  auto derived = tc->root->MapDataSet(
      "data",
      [](const TablePtr& t) -> Result<TablePtr> {
        return t->Filter(
            [t](uint32_t r) { return t->column(0)->GetDouble(r) >= 0.5; });
      },
      "upper");
  ASSERT_TRUE(derived.ok());
  auto before = tc->root->RunSketch<CountResult>(
      derived.value().id(), std::make_shared<CountSketch>());
  ASSERT_TRUE(before.ok());

  tc->root->RestartWorker(1);
  EXPECT_EQ(tc->workers[1]->restart_count(), 1);

  // The query heals transparently: RunSketch rebuilds the base and the map
  // on worker 1 from their lineage and retries.
  auto after = tc->root->RunSketch<CountResult>(
      derived.value().id(), std::make_shared<CountSketch>());
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  EXPECT_EQ(after.value().rows, before.value().rows);
  EXPECT_GE(tc->root->redo_log().Size(), 2);

  // A stream issued right after a crash heals the same way: it is the same
  // query, so it heals and restarts instead of failing Unavailable.
  const int64_t replays = tc->root->redo_log().Snapshot().replays_started;
  tc->root->RestartWorker(2);
  auto stream = tc->root->RunSketchStream<CountResult>(
      derived.value().id(), std::make_shared<CountSketch>());
  auto last = stream->BlockingLast();
  ASSERT_TRUE(stream->final_status().ok())
      << stream->final_status().ToString();
  ASSERT_TRUE(last.has_value());
  EXPECT_EQ(last->progress, 1.0);
  EXPECT_EQ(last->coverage, 1.0);
  EXPECT_EQ(last->value.rows, before.value().rows);
  EXPECT_EQ(tc->root->redo_log().Snapshot().replays_started, replays + 1);
}

/// Loaders that build a fresh table on every call, as a repository read
/// does, and count the calls: only running them rebuilds lost data.
std::vector<LocalDataSet::Loader> CountingLoaders(
    const std::vector<std::vector<double>>& chunks,
    const std::shared_ptr<std::atomic<int>>& runs) {
  std::vector<LocalDataSet::Loader> loaders;
  for (const auto& chunk : chunks) {
    loaders.push_back([chunk, runs]() -> Result<TablePtr> {
      runs->fetch_add(1);
      return MakeDoubleTable("x", chunk);
    });
  }
  return loaders;
}

// Dataset ids and their lineage are cluster-global: a session that never
// loaded the dataset heals it after a restart like the one that did, and
// loading an id that is already live leaves it in place.
TEST(Cluster, RestartHealsForASessionThatDidNotLoad) {
  auto values = UniformDoubles(8000, 0, 1, 96);
  std::vector<TablePtr> partitions;
  for (const auto& chunk : SplitValues(values, 4)) {
    partitions.push_back(MakeDoubleTable("x", chunk));
  }
  auto tc = TestCluster::Create(partitions, /*workers=*/2, /*threads=*/2);
  ASSERT_NE(tc, nullptr);
  auto other = tc->cluster->OpenSession();

  tc->root->RestartWorker(1);
  RootSession::QueryStats stats;
  auto count = other->RunSketch<CountResult>(
      "data", std::make_shared<CountSketch>(), /*seed=*/0,
      /*cacheable=*/false, &stats);
  ASSERT_TRUE(count.ok()) << count.status().ToString();
  EXPECT_EQ(count.value().rows, 8000);
  EXPECT_EQ(stats.coverage, 1.0);
  EXPECT_FALSE(stats.degraded);
  EXPECT_EQ(stats.replay_heals, 1);
  EXPECT_EQ(other->redo_log().Snapshot().entries_replayed, 1);

  const DataSetPtr live = tc->workers[0]->GetDataSet("data").value();
  std::vector<LocalDataSet::Loader> loaders;
  for (const auto& table : partitions) {
    loaders.push_back([table]() -> Result<TablePtr> { return table; });
  }
  ASSERT_TRUE(tc->cluster->OpenSession()->LoadDataSet("data", loaders).ok());
  EXPECT_EQ(tc->workers[0]->GetDataSet("data").value(), live);
}

// A heal rebuilds only what the restarted worker lost: it runs that
// worker's loaders alone, and the healthy worker keeps its tables and the
// sort keys built over them, so its repeat sort is a hit.
TEST(Cluster, RestartHealRunsOnlyTheRestartedWorkersLoaders) {
  auto runs = std::make_shared<std::atomic<int>>(0);
  auto tc = TestCluster::Create({}, /*workers=*/2, /*threads=*/2);
  ASSERT_NE(tc, nullptr);
  auto chunks = SplitValues(UniformDoubles(20000, 0, 100, 97), 4);
  ASSERT_TRUE(
      tc->root->LoadDataSet("counted", CountingLoaders(chunks, runs)).ok());
  auto scroll = std::make_shared<NextItemsSketch>(
      RecordOrder({{"x", true}}), std::vector<std::string>{},
      std::optional<std::vector<Value>>{{Value(50.0)}}, 20);
  auto before = tc->root->RunSketch<NextItemsResult>("counted", scroll);
  ASSERT_TRUE(before.ok());
  EXPECT_EQ(runs->load(), 4);
  const SortKeyCache::Stats healthy = tc->workers[0]->key_cache()->Snapshot();
  EXPECT_EQ(healthy.misses, 2);

  tc->root->RestartWorker(1);
  auto after = tc->root->RunSketch<NextItemsResult>("counted", scroll);
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  EXPECT_EQ(runs->load(), 6);  // worker 1's two partitions, not all four
  const SortKeyCache::Stats kept = tc->workers[0]->key_cache()->Snapshot();
  EXPECT_EQ(kept.misses, healthy.misses);
  EXPECT_GE(kept.hits, healthy.hits + 2);
  EXPECT_EQ(kept.evictions, 0);
  ASSERT_EQ(after.value().rows.size(), before.value().rows.size());
  for (size_t i = 0; i < before.value().rows.size(); ++i) {
    EXPECT_EQ(after.value().rows[i].values, before.value().rows[i].values);
  }
  EXPECT_EQ(after.value().rows_before, before.value().rows_before);
}

// The lineage of a base id is its loaders alone: a heal of the base after
// any number of maps derived from it rebuilds one dataset, not every map
// the session ever ran.
TEST(Cluster, HealOfABaseRebuildsOnlyTheBase) {
  auto values = UniformDoubles(8000, 0, 1, 98);
  std::vector<TablePtr> partitions;
  for (const auto& chunk : SplitValues(values, 4)) {
    partitions.push_back(MakeDoubleTable("x", chunk));
  }
  auto tc = TestCluster::Create(partitions, /*workers=*/2, /*threads=*/2);
  ASSERT_NE(tc, nullptr);
  constexpr int kMaps = 3;
  std::vector<cluster::PinnedId> maps;  // live, so the heal could see them
  for (int i = 0; i < kMaps; ++i) {
    const double cut = (i + 1) / 4.0;
    auto derived = tc->root->MapDataSet(
        "data",
        [cut](const TablePtr& t) -> Result<TablePtr> {
          return t->Filter([t, cut](uint32_t r) {
            return t->column(0)->GetDouble(r) < cut;
          });
        },
        "below" + std::to_string(i));
    ASSERT_TRUE(derived.ok());
    maps.push_back(derived.Take());
  }

  tc->root->RestartWorker(1);
  RootSession::QueryStats stats;
  auto count = tc->root->RunSketch<CountResult>(
      "data", std::make_shared<CountSketch>(), /*seed=*/0,
      /*cacheable=*/false, &stats);
  ASSERT_TRUE(count.ok()) << count.status().ToString();
  EXPECT_EQ(count.value().rows, 8000);
  EXPECT_EQ(stats.replay_heals, 1);
  EXPECT_EQ(tc->root->redo_log().Snapshot().entries_replayed, 1);
}

// A query of a derived id two maps deep after a restart rebuilds the base
// and both maps on the restarted worker only: the healthy workers keep the
// very datasets they held, and the answer is byte-identical.
TEST(Cluster, DerivedIdTwoLevelsDeepHealsOnTheRestartedWorkerOnly) {
  auto runs = std::make_shared<std::atomic<int>>(0);
  auto tc = TestCluster::Create({}, /*workers=*/3, /*threads=*/2);
  ASSERT_NE(tc, nullptr);
  auto chunks = SplitValues(UniformDoubles(12000, 0, 100, 99), 6);
  ASSERT_TRUE(
      tc->root->LoadDataSet("counted", CountingLoaders(chunks, runs)).ok());
  auto range = [](double lo, double hi) -> TableMap {
    return [lo, hi](const TablePtr& t) -> Result<TablePtr> {
      return t->Filter([t, lo, hi](uint32_t r) {
        const double x = t->column(0)->GetDouble(r);
        return x >= lo && x < hi;
      });
    };
  };
  auto upper = tc->root->MapDataSet("counted", range(25, 100), "upper");
  ASSERT_TRUE(upper.ok());
  auto middle =
      tc->root->MapDataSet(upper.value().id(), range(0, 75), "middle");
  ASSERT_TRUE(middle.ok());

  auto sketch = std::make_shared<StreamingHistogramSketch>(
      "x", Buckets(NumericBuckets(0, 100, 20)));
  auto bytes_of = [&](const HistogramResult& r) {
    return AnySketch::Wrap<HistogramResult>(sketch).Serialize(
        AnySummary::Wrap<HistogramResult>(r));
  };
  auto reference =
      tc->root->RunSketch<HistogramResult>(middle.value().id(), sketch);
  ASSERT_TRUE(reference.ok());
  EXPECT_EQ(runs->load(), 6);
  std::vector<DataSetPtr> held;
  for (int w : {0, 2}) {
    held.push_back(tc->workers[w]->GetDataSet(middle.value().id()).value());
  }

  tc->root->RestartWorker(1);
  RootSession::QueryStats stats;
  auto healed = tc->root->RunSketch<HistogramResult>(
      middle.value().id(), sketch, /*seed=*/0, /*cacheable=*/false, &stats);
  ASSERT_TRUE(healed.ok()) << healed.status().ToString();
  EXPECT_EQ(stats.coverage, 1.0);
  EXPECT_EQ(bytes_of(healed.value()), bytes_of(reference.value()));
  EXPECT_EQ(runs->load(), 8);  // worker 1's two of six partitions
  EXPECT_EQ(tc->root->redo_log().Snapshot().entries_replayed, 3);
  EXPECT_EQ(tc->workers[0]->GetDataSet(middle.value().id()).value(), held[0]);
  EXPECT_EQ(tc->workers[2]->GetDataSet(middle.value().id()).value(), held[1]);
}

// A progressive stream whose first attempt fails after showing partials
// (a restarted worker answers Unavailable while the others stream) is
// retried from progress 0. The retry's partials are held back until they
// catch up, so the caller never sees progress go backwards, and the stream
// still ends on the full, exact result.
TEST(Cluster, RetriedStreamProgressIsMonotone) {
  auto values = UniformDoubles(16000, 0, 1, 95);
  std::vector<TablePtr> partitions;
  for (const auto& chunk : SplitValues(values, 8)) {
    partitions.push_back(MakeDoubleTable("x", chunk));
  }
  cluster::Cluster::Options options;
  options.aggregation.aggregation_window_ms = 0;  // emit every partial
  auto tc = TestCluster::Create(partitions, /*workers=*/4, /*threads=*/1,
                                options);
  ASSERT_NE(tc, nullptr);
  int retries = 0;
  tc->root->set_retry_hook([&](int, const Status&) { ++retries; });
  tc->root->RestartWorker(3);

  auto stream = tc->root->RunSketchStream<CountResult>(
      "data", std::make_shared<CountSketch>());
  std::vector<double> progress;
  stream->Subscribe([&progress](const PartialResult<CountResult>& p) {
    progress.push_back(p.progress);
  });
  auto last = stream->BlockingLast();
  ASSERT_TRUE(stream->final_status().ok())
      << stream->final_status().ToString();
  EXPECT_EQ(retries, 1);
  ASSERT_TRUE(last.has_value());
  EXPECT_EQ(last->value.rows, static_cast<int64_t>(values.size()));
  // The failed attempt showed the three live workers' partials; the retry
  // adds at least its final value.
  ASSERT_GE(progress.size(), 4u);
  for (size_t i = 1; i < progress.size(); ++i) {
    EXPECT_LE(progress[i - 1], progress[i]) << "partial " << i;
  }
  EXPECT_EQ(progress.back(), 1.0);
}

// Satellite of the fault-injection PR: a repeated-crash ladder. A *different*
// worker is restarted between every retry attempt of one query, so each
// attempt fails on freshly lost soft state and each heal has to rebuild
// again. The query must still converge, with full coverage and a
// final summary byte-identical to the fault-free run — the §5.8 determinism
// contract under serial crashes, not just a single one.
TEST(Cluster, RepeatedCrashLadderHealsByteIdentical) {
  auto values = UniformDoubles(12000, 0, 100, 94);
  std::vector<TablePtr> partitions;
  for (const auto& chunk : SplitValues(values, 6)) {
    partitions.push_back(MakeDoubleTable("x", chunk));
  }
  cluster::Cluster::Options options;
  options.max_replay_retries = 8;  // the ladder burns five heals
  auto tc = TestCluster::Create(partitions, /*workers=*/3, /*threads=*/2,
                                options);
  ASSERT_NE(tc, nullptr);

  auto sketch = std::make_shared<StreamingHistogramSketch>(
      "x", Buckets(NumericBuckets(0, 100, 24)));
  auto bytes_of = [&](const HistogramResult& r) {
    return AnySketch::Wrap<HistogramResult>(sketch).Serialize(
        AnySummary::Wrap<HistogramResult>(r));
  };
  auto reference = tc->root->RunSketch<HistogramResult>("data", sketch);
  ASSERT_TRUE(reference.ok());

  // The hook fires after each heal, just before the next attempt: restarting
  // there re-damages the freshly healed state, so the next attempt fails
  // again on a different machine. Four rungs, rotating across all workers.
  int restarts = 0;
  tc->root->set_retry_hook([&](int /*attempt*/, const Status&) {
    if (restarts < 4) {
      tc->root->RestartWorker((restarts + 1) % 3);
      ++restarts;
    }
  });
  tc->root->RestartWorker(0);  // the initial crash that starts the ladder

  RootSession::QueryStats stats;
  auto healed = tc->root->RunSketch<HistogramResult>(
      "data", sketch, /*seed=*/0, /*cacheable=*/false, &stats);
  ASSERT_TRUE(healed.ok()) << healed.status().ToString();
  EXPECT_EQ(restarts, 4);
  EXPECT_EQ(stats.replay_heals, 5);  // one per rung plus the final heal
  EXPECT_FALSE(stats.degraded);
  EXPECT_EQ(stats.coverage, 1.0);
  EXPECT_EQ(bytes_of(healed.value()), bytes_of(reference.value()));
  // Rotating crashes never produced the consecutive-failure run a breaker
  // trip requires: every worker healed before failing again.
  EXPECT_EQ(tc->cluster->health().Snapshot().trips, 0);
}

// A degraded result over a restarted worker weighs each worker by the
// partitions the root assigned it. The restarted worker has lost the
// dataset: asked itself, it would answer 1 partition instead of 4, and the
// 400 surviving rows of 800 would report coverage 4/5 instead of 1/2. Both
// ways into the degraded pass must get it right: no replay budget, and a
// budget spent because the worker crashes again before every re-run.
TEST(Cluster, DegradedCoverageOverRestartedWorkerUsesAssignedPartitions) {
  std::vector<TablePtr> partitions;
  for (int p = 0; p < 8; ++p) {
    partitions.push_back(MakeDoubleTable("x", std::vector<double>(100, p)));
  }
  for (bool recrash : {false, true}) {
    SCOPED_TRACE(recrash ? "default budget, re-crashed before every re-run"
                         : "no replay budget");
    cluster::Cluster::Options options;
    if (!recrash) options.max_replay_retries = 0;
    auto tc = TestCluster::Create(partitions, /*workers=*/2, /*threads=*/2,
                                  options);
    ASSERT_NE(tc, nullptr);
    if (recrash) {
      tc->root->set_retry_hook(
          [&tc](int, const Status&) { tc->root->RestartWorker(1); });
    }
    tc->root->RestartWorker(1);
    RootSession::QueryStats stats;
    auto count = tc->root->RunSketch<CountResult>(
        "data", std::make_shared<CountSketch>(), /*seed=*/0,
        /*cacheable=*/false, &stats);
    ASSERT_TRUE(count.ok()) << count.status().ToString();
    EXPECT_TRUE(stats.degraded);
    EXPECT_EQ(stats.coverage, 0.5);
    EXPECT_EQ(count.value().rows, 400);
  }
}

TEST(Cluster, DegradedCoverageIgnoresAWorkerThatHoldsNoPartition) {
  // 3 partitions on 4 workers: worker 3 holds none, so it weighs nothing.
  // Losing worker 0's partition leaves 2 of 3, not 3 of 4 workers.
  std::vector<TablePtr> partitions;
  for (int p = 0; p < 3; ++p) {
    partitions.push_back(MakeDoubleTable("x", std::vector<double>(100, p)));
  }
  cluster::Cluster::Options options;
  options.max_replay_retries = 0;
  auto tc = TestCluster::Create(partitions, /*workers=*/4, /*threads=*/1,
                                options);
  ASSERT_NE(tc, nullptr);
  tc->root->RestartWorker(0);
  RootSession::QueryStats stats;
  auto count = tc->root->RunSketch<CountResult>(
      "data", std::make_shared<CountSketch>(), /*seed=*/0,
      /*cacheable=*/false, &stats);
  ASSERT_TRUE(count.ok()) << count.status().ToString();
  EXPECT_TRUE(stats.degraded);
  EXPECT_EQ(stats.coverage, 2.0 / 3.0);
  EXPECT_EQ(count.value().rows, 200);
}

TEST(Cluster, ZeroPartitionDataSetCountsNoRowsAtFullCoverage) {
  // No worker holds a partition: the tree still completes, with progress
  // 1.0 and coverage 1.0, instead of failing as "no partition survived".
  cluster::Cluster::Options options;
  options.aggregation.aggregation_window_ms = 0;  // emit every partial
  auto tc = TestCluster::Create({}, /*workers=*/2, /*threads=*/1, options);
  ASSERT_NE(tc, nullptr);
  RootSession::QueryStats stats;
  auto count = tc->root->RunSketch<CountResult>(
      "data", std::make_shared<CountSketch>(), /*seed=*/0,
      /*cacheable=*/false, &stats);
  ASSERT_TRUE(count.ok()) << count.status().ToString();
  EXPECT_FALSE(stats.degraded);
  EXPECT_EQ(stats.coverage, 1.0);
  EXPECT_EQ(count.value().rows, 0);

  auto stream = tc->root->RunSketchStream<CountResult>(
      "data", std::make_shared<CountSketch>());
  std::vector<PartialResult<CountResult>> partials;
  stream->Subscribe([&partials](const PartialResult<CountResult>& p) {
    partials.push_back(p);
  });
  stream->BlockingLast();
  ASSERT_TRUE(stream->final_status().ok())
      << stream->final_status().ToString();
  ASSERT_FALSE(partials.empty());
  for (const auto& p : partials) {
    EXPECT_GE(p.progress, 0.0);
    EXPECT_LE(p.progress, 1.0);
    EXPECT_EQ(p.coverage, 1.0);
  }
  EXPECT_EQ(partials.back().progress, 1.0);
}

TEST(Cluster, FindTextParallelDictionaryAgreesWithInline) {
  // Each partition's dictionary exceeds the parallel-matching threshold
  // (4096 distinct strings), so on the cluster path MatchDictionary chunks
  // across the worker's aux pool — the result must equal the inline
  // (pool-less) single-table path bit for bit.
  constexpr int kDistinct = 6000;
  constexpr int kRowsPerPartition = 9000;
  std::vector<std::string> all_values;
  std::vector<TablePtr> partitions;
  for (int p = 0; p < 2; ++p) {
    std::vector<std::string> values;
    for (int r = 0; r < kRowsPerPartition; ++r) {
      values.push_back("v" + std::to_string((r * 7 + p) % kDistinct));
    }
    all_values.insert(all_values.end(), values.begin(), values.end());
    partitions.push_back(MakeStringTable("s", values));
  }
  auto tc = TestCluster::Create(partitions, /*workers=*/2, /*threads=*/2);
  ASSERT_NE(tc, nullptr);

  StringFilter filter;
  filter.text = "v12";
  filter.mode = StringFilter::Mode::kSubstring;
  filter.case_sensitive = true;
  auto sketch = std::make_shared<FindTextSketch>(
      RecordOrder({{"s", true}}), std::vector<std::string>{"s"}, filter,
      std::nullopt);
  auto clustered = tc->root->RunSketch<FindResult>("data", sketch);
  ASSERT_TRUE(clustered.ok()) << clustered.status().ToString();

  FindResult inline_result =
      sketch->Summarize(*MakeStringTable("s", all_values), 0);
  EXPECT_EQ(clustered.value().match_count, inline_result.match_count);
  EXPECT_GT(clustered.value().match_count, 0);
  ASSERT_TRUE(clustered.value().first_match.has_value());
  EXPECT_EQ(*clustered.value().first_match, *inline_result.first_match);
}

TEST(Cluster, SampledSketchIsDeterministicAcrossRestart) {
  // §5.8: replays must be deterministic, including randomized vizketches —
  // the seed comes from the log, the per-partition seed from tree position.
  auto values = UniformDoubles(40000, 0, 1, 85);
  std::vector<TablePtr> partitions;
  for (const auto& chunk : SplitValues(values, 8)) {
    partitions.push_back(MakeDoubleTable("x", chunk));
  }
  auto tc = TestCluster::Create(partitions, 2, 2);
  auto sketch = std::make_shared<SampledHistogramSketch>(
      "x", Buckets(NumericBuckets(0, 1, 10)), 0.05);
  auto r1 = tc->root->RunSketch<HistogramResult>("data", sketch, /*seed=*/7);
  ASSERT_TRUE(r1.ok());

  tc->root->RestartWorker(0);
  auto r2 = tc->root->RunSketch<HistogramResult>("data", sketch, /*seed=*/7);
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(r1.value().counts, r2.value().counts);
}

TEST(Cluster, ComputationCacheServesRepeatedQueries) {
  auto values = UniformDoubles(5000, 0, 10, 86);
  std::vector<TablePtr> partitions;
  for (const auto& chunk : SplitValues(values, 4)) {
    partitions.push_back(MakeDoubleTable("x", chunk));
  }
  auto tc = TestCluster::Create(partitions, 2, 2);
  auto sketch = std::make_shared<RangeSketch>("x");
  auto r1 = tc->root->RunSketch<RangeResult>("data", sketch, 0, true);
  ASSERT_TRUE(r1.ok());
  uint64_t bytes_after_first = tc->network.bytes_received_by_root();
  auto r2 = tc->root->RunSketch<RangeResult>("data", sketch, 0, true);
  ASSERT_TRUE(r2.ok());
  // Second run is a cache hit: no new network traffic.
  EXPECT_EQ(tc->network.bytes_received_by_root(), bytes_after_first);
  EXPECT_EQ(tc->cluster->shared_cache().Snapshot().hits, 1);
  EXPECT_DOUBLE_EQ(r2.value().min, r1.value().min);
}

// Regression: the cache key used to be dataset + sketch name only, but
// SampledHistogramSketch::name() omits the seed, so a cached summary computed
// under one seed could be served for a different seed. The seed is now part
// of the key: two seeds populate two entries, and only an exact
// (dataset, sketch, seed) repeat hits.
TEST(Cluster, CacheKeysRandomizedSketchesBySeed) {
  auto values = UniformDoubles(20000, 0, 1, 90);
  std::vector<TablePtr> partitions;
  for (const auto& chunk : SplitValues(values, 4)) {
    partitions.push_back(MakeDoubleTable("x", chunk));
  }
  auto tc = TestCluster::Create(partitions, 2, 2);
  auto sketch = std::make_shared<SampledHistogramSketch>(
      "x", Buckets(NumericBuckets(0, 1, 10)), 0.1);

  auto r7 = tc->root->RunSketch<HistogramResult>("data", sketch, /*seed=*/7,
                                                 /*cacheable=*/true);
  ASSERT_TRUE(r7.ok());
  auto r8 = tc->root->RunSketch<HistogramResult>("data", sketch, /*seed=*/8,
                                                 /*cacheable=*/true);
  ASSERT_TRUE(r8.ok());
  EXPECT_EQ(tc->cluster->shared_cache().Snapshot().entries, 2u);
  EXPECT_EQ(tc->cluster->shared_cache().Snapshot().hits, 0);

  // A repeat of seed 7 hits the cache and returns the seed-7 summary.
  auto again = tc->root->RunSketch<HistogramResult>("data", sketch, /*seed=*/7,
                                                    /*cacheable=*/true);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(tc->cluster->shared_cache().Snapshot().hits, 1);
  EXPECT_EQ(again.value().counts, r7.value().counts);
}

TEST(ComputationCache, CountsEvictions) {
  ComputationCache cache(/*max_entries=*/2);
  testing::CacheInsert(cache, "a", AnySummary::Wrap<int>(1));
  testing::CacheInsert(cache, "b", AnySummary::Wrap<int>(2));
  EXPECT_EQ(cache.Snapshot().evictions, 0);
  testing::CacheInsert(cache, "c", AnySummary::Wrap<int>(3));
  EXPECT_EQ(cache.Snapshot().evictions, 1);
  // "a" was the LRU victim.
  EXPECT_FALSE(testing::CacheLookup(cache, "a").has_value());
  EXPECT_TRUE(testing::CacheLookup(cache, "c").has_value());
}

// Regression for the worker-resident sort-key cache (§5.4 soft state below
// the summary level): the first scroll of a sorted view pays one key build
// per partition, a second scroll of the same (table, order) — even at a
// different scroll position — is a pure cache hit, and the memory-manager
// eviction path (§5.8) resets it to a miss.
TEST(Cluster, SortKeyCacheServesRepeatedScrolls) {
  auto values = UniformDoubles(20000, 0, 100, 91);
  std::vector<TablePtr> partitions;
  for (const auto& chunk : SplitValues(values, 4)) {
    partitions.push_back(MakeDoubleTable("x", chunk));
  }
  auto tc = TestCluster::Create(partitions, /*workers=*/2, /*threads=*/2);
  ASSERT_NE(tc, nullptr);

  auto hits = [&] {
    int64_t h = 0;
    for (auto& w : tc->workers) h += w->key_cache()->Snapshot().hits;
    return h;
  };
  auto misses = [&] {
    int64_t m = 0;
    for (auto& w : tc->workers) m += w->key_cache()->Snapshot().misses;
    return m;
  };

  auto scroll_at = [](double start) {
    return std::make_shared<NextItemsSketch>(
        RecordOrder({{"x", true}}), std::vector<std::string>{},
        std::optional<std::vector<Value>>{{Value(start)}}, 20);
  };
  auto r1 = tc->root->RunSketch<NextItemsResult>("data", scroll_at(50.0));
  ASSERT_TRUE(r1.ok());
  EXPECT_EQ(static_cast<int>(r1.value().rows.size()), 20);
  EXPECT_EQ(hits(), 0);
  EXPECT_EQ(misses(), 4);  // one cold key build per partition

  // Second scroll of the same sorted view (different position): every
  // partition reuses its cached key column.
  auto r2 = tc->root->RunSketch<NextItemsResult>("data", scroll_at(75.0));
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(hits(), 4);
  EXPECT_EQ(misses(), 4);

  // Cache eviction drops the soft state; the next scroll is a miss again
  // and transparently rebuilds.
  for (auto& w : tc->workers) w->EvictCaches();
  for (auto& w : tc->workers) EXPECT_EQ(w->key_cache()->Snapshot().entries, 0u);
  auto r3 = tc->root->RunSketch<NextItemsResult>("data", scroll_at(50.0));
  ASSERT_TRUE(r3.ok());
  EXPECT_EQ(hits(), 4);
  EXPECT_EQ(misses(), 8);
  // Same view, same position: results identical before/after eviction.
  ASSERT_EQ(r3.value().rows.size(), r1.value().rows.size());
  for (size_t i = 0; i < r1.value().rows.size(); ++i) {
    EXPECT_EQ(r3.value().rows[i].values, r1.value().rows[i].values);
    EXPECT_EQ(r3.value().rows[i].count, r1.value().rows[i].count);
  }
  EXPECT_EQ(r3.value().rows_before, r1.value().rows_before);
}

TEST(Cluster, EvictionIsTransparent) {
  // Cache eviction (unlike a crash) keeps dataset structure; queries just
  // reload lazily without replay.
  auto values = UniformDoubles(4000, 0, 1, 87);
  std::vector<TablePtr> partitions;
  for (const auto& chunk : SplitValues(values, 4)) {
    partitions.push_back(MakeDoubleTable("x", chunk));
  }
  auto tc = TestCluster::Create(partitions, 2, 1);
  auto c1 = tc->root->RunSketch<CountResult>("data",
                                             std::make_shared<CountSketch>());
  ASSERT_TRUE(c1.ok());
  for (auto& w : tc->workers) w->EvictCaches();
  auto c2 = tc->root->RunSketch<CountResult>("data",
                                             std::make_shared<CountSketch>());
  ASSERT_TRUE(c2.ok());
  EXPECT_EQ(c1.value().rows, c2.value().rows);
}

// Eviction of a derived view drops its materialized partitions on every
// worker; the next query re-runs the view's map once per partition and
// answers as before.
TEST(Cluster, EvictionRerunsDerivedMapsOnEveryPartition) {
  auto values = UniformDoubles(4000, 0, 1, 89);
  std::vector<TablePtr> partitions;
  for (const auto& chunk : SplitValues(values, 6)) {
    partitions.push_back(MakeDoubleTable("x", chunk));
  }
  auto tc = TestCluster::Create(partitions, 3, 2);
  std::atomic<int> maps{0};
  auto derived = tc->root->MapDataSet(
      "data",
      [&maps](const TablePtr& t) -> Result<TablePtr> {
        maps.fetch_add(1);
        return t->Filter(
            [t](uint32_t r) { return t->column(0)->GetDouble(r) < 0.3; });
      },
      "lower");
  ASSERT_TRUE(derived.ok());
  auto sketch = std::make_shared<StreamingHistogramSketch>(
      "x", Buckets(NumericBuckets(0, 1, 10)));
  auto before =
      tc->root->RunSketch<HistogramResult>(derived.value().id(), sketch);
  ASSERT_TRUE(before.ok());
  EXPECT_EQ(maps.load(), 6);

  for (auto& w : tc->workers) w->EvictCaches();
  auto after =
      tc->root->RunSketch<HistogramResult>(derived.value().id(), sketch);
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  EXPECT_EQ(maps.load(), 12);
  EXPECT_EQ(after.value().counts, before.value().counts);
  EXPECT_EQ(tc->root->redo_log().Snapshot().replays_started, 0);
}

TEST(Cluster, ProgressiveStreamDeliversPartials) {
  auto values = UniformDoubles(50000, 0, 1, 88);
  std::vector<TablePtr> partitions;
  for (const auto& chunk : SplitValues(values, 16)) {
    partitions.push_back(MakeDoubleTable("x", chunk));
  }
  // Zero aggregation window so every worker completion propagates.
  cluster::Cluster::Options options;
  options.aggregation.aggregation_window_ms = 0;
  std::vector<cluster::WorkerPtr> workers;
  for (int w = 0; w < 4; ++w) {
    workers.push_back(std::make_shared<Worker>("w" + std::to_string(w), 1));
  }
  SimulatedNetwork network;
  cluster::Cluster deployment(workers, &network, options);
  auto root_session = deployment.OpenSession();
  RootSession& root = *root_session;
  std::vector<LocalDataSet::Loader> loaders;
  for (const auto& t : partitions) {
    loaders.push_back([t]() -> Result<TablePtr> { return t; });
  }
  ASSERT_TRUE(root.LoadDataSet("data", loaders).ok());

  auto stream = root.RunSketchStream<CountResult>(
      "data", std::make_shared<CountSketch>());
  std::atomic<int> partials{0};
  stream->Subscribe(
      [&partials](const PartialResult<CountResult>&) { partials.fetch_add(1); });
  auto last = stream->BlockingLast();
  ASSERT_TRUE(stream->final_status().ok());
  EXPECT_EQ(last->value.rows, 50000);
  EXPECT_GE(partials.load(), 2);
}

// A blocking RunSketch reads only the final value, so on a progressive
// deployment each worker still sends it exactly one frame; a stream of the
// same sketch keeps its partials.
TEST(Cluster, BlockingQueryMovesOneFramePerWorker) {
  auto values = UniformDoubles(40000, 0, 1, 90);
  std::vector<LocalDataSet::Loader> loaders;
  for (const auto& chunk : SplitValues(values, 16)) {
    TablePtr t = MakeDoubleTable("x", chunk);
    loaders.push_back([t]() -> Result<TablePtr> { return t; });
  }
  // Every merger emits on every child completion.
  ParallelDataSet::Options progressive;
  progressive.aggregation_window_ms = 0;
  cluster::Cluster::Options options;
  options.aggregation = progressive;
  std::vector<cluster::WorkerPtr> workers;
  for (int w = 0; w < 4; ++w) {
    workers.push_back(
        std::make_shared<Worker>("w" + std::to_string(w), 1, progressive));
  }
  SimulatedNetwork network;
  cluster::Cluster deployment(workers, &network, options);
  auto root = deployment.OpenSession();
  ASSERT_TRUE(root->LoadDataSet("data", loaders).ok());
  auto sketch = std::make_shared<StreamingHistogramSketch>(
      "x", Buckets(NumericBuckets(0, 1, 20)));

  const uint64_t before = network.messages_up();
  auto blocking = root->RunSketch<HistogramResult>("data", sketch);
  ASSERT_TRUE(blocking.ok());
  EXPECT_EQ(network.messages_up() - before, workers.size());

  const uint64_t stream_before = network.messages_up();
  auto stream = root->RunSketchStream<HistogramResult>("data", sketch);
  std::atomic<int> partials{0};
  stream->Subscribe([&partials](const PartialResult<HistogramResult>& p) {
    if (p.progress < 1.0) partials.fetch_add(1);
  });
  auto last = stream->BlockingLast();
  ASSERT_TRUE(stream->final_status().ok());
  ASSERT_TRUE(last.has_value());
  EXPECT_EQ(last->progress, 1.0);
  EXPECT_EQ(last->value.counts, blocking.value().counts);
  EXPECT_GE(partials.load(), 1);
  EXPECT_GT(network.messages_up() - stream_before, workers.size());
}

TEST(Network, LatencyModelSlowsTransfers) {
  SimulatedNetwork::Model model;
  model.latency_ms = 5;
  SimulatedNetwork network(model);
  Stopwatch watch;
  network.SendUp(100);
  EXPECT_GE(watch.ElapsedMillis(), 4.0);
  EXPECT_EQ(network.bytes_received_by_root(), 100u);
}

}  // namespace
}  // namespace hillview
