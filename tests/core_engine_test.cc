#include <gtest/gtest.h>

#include <atomic>

#include "core/computation_cache.h"
#include "core/dataset.h"
#include "core/redo_log.h"
#include "sketch/histogram.h"
#include "sketch/range_moments.h"
#include "test_util.h"

namespace hillview {
namespace {

using testing::MakeDoubleTable;
using testing::SplitValues;
using testing::UniformDoubles;

std::shared_ptr<ParallelDataSet> MakeParallel(
    const std::vector<std::vector<double>>& chunks, ThreadPool* pool,
    ParallelDataSet::Options options = {}) {
  std::vector<DataSetPtr> children;
  for (size_t i = 0; i < chunks.size(); ++i) {
    children.push_back(
        LocalDataSet::FromTable(MakeDoubleTable("x", chunks[i])));
  }
  return std::make_shared<ParallelDataSet>(std::move(children), pool, options);
}

TEST(LocalDataSet, LoaderRunsOnceAndCaches) {
  std::atomic<int> loads{0};
  auto ds = LocalDataSet::FromLoader([&loads]() -> Result<TablePtr> {
    loads.fetch_add(1);
    return MakeDoubleTable("x", {1, 2, 3});
  });
  EXPECT_FALSE(ds->IsMaterialized());
  ASSERT_TRUE(ds->GetTable().ok());
  ASSERT_TRUE(ds->GetTable().ok());
  EXPECT_EQ(loads.load(), 1);
  EXPECT_TRUE(ds->IsMaterialized());
}

TEST(LocalDataSet, EvictionForcesReload) {
  std::atomic<int> loads{0};
  auto ds = LocalDataSet::FromLoader([&loads]() -> Result<TablePtr> {
    loads.fetch_add(1);
    return MakeDoubleTable("x", {1});
  });
  ASSERT_TRUE(ds->GetTable().ok());
  ds->Evict();
  EXPECT_FALSE(ds->IsMaterialized());
  ASSERT_TRUE(ds->GetTable().ok());
  EXPECT_EQ(loads.load(), 2);
  EXPECT_EQ(ds->load_count(), 2);
}

TEST(LocalDataSet, LoaderErrorPropagates) {
  auto ds = LocalDataSet::FromLoader(
      []() -> Result<TablePtr> { return Status::IoError("gone"); });
  auto sketch = std::make_shared<CountSketch>();
  auto result = SketchAndWait<CountResult>(*ds, sketch);
  EXPECT_EQ(result.status().code(), StatusCode::kIoError);
}

TEST(LocalDataSet, SketchProducesSingleFinalResult) {
  auto ds = LocalDataSet::FromTable(MakeDoubleTable("x", {1, 2, 3}));
  auto result = SketchAndWait<CountResult>(*ds, std::make_shared<CountSketch>());
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().rows, 3);
}

TEST(LocalDataSet, MapIsLazyAndReconstructible) {
  std::atomic<int> maps{0};
  auto base = LocalDataSet::FromTable(MakeDoubleTable("x", {1, 2, 3, 4}));
  auto derived = base->Map([&maps](const TablePtr& t) -> Result<TablePtr> {
    maps.fetch_add(1);
    return t->Filter(
        [&](uint32_t r) { return t->column(0)->GetDouble(r) > 2; });
  });
  EXPECT_EQ(maps.load(), 0);  // not yet materialized
  auto result =
      SketchAndWait<CountResult>(*derived, std::make_shared<CountSketch>());
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().rows, 2);
  EXPECT_EQ(maps.load(), 1);

  derived->Evict();
  result = SketchAndWait<CountResult>(*derived, std::make_shared<CountSketch>());
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().rows, 2);
  EXPECT_EQ(maps.load(), 2);  // recomputed after eviction (§5.7)
}

TEST(ParallelDataSet, SketchEqualsSequentialMerge) {
  auto values = UniformDoubles(20000, 0, 100, 71);
  auto chunks = SplitValues(values, 8);
  ThreadPool pool(4);
  auto parallel = MakeParallel(chunks, &pool);

  auto sketch = std::make_shared<StreamingHistogramSketch>(
      "x", Buckets(NumericBuckets(0, 100, 20)));
  auto result = SketchAndWait<HistogramResult>(*parallel, sketch);
  ASSERT_TRUE(result.ok());

  HistogramResult expected =
      sketch->Summarize(*MakeDoubleTable("x", values), 0);
  EXPECT_EQ(result.value().counts, expected.counts);
}

TEST(ParallelDataSet, EmptyChildrenYieldZero) {
  ThreadPool pool(2);
  ParallelDataSet empty({}, &pool);
  auto result = SketchAndWait<CountResult>(
      empty, std::make_shared<CountSketch>());
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().rows, 0);
}

TEST(ParallelDataSet, ProgressIsMonotoneAndReachesOne) {
  auto values = UniformDoubles(50000, 0, 1, 72);
  auto chunks = SplitValues(values, 16);
  ThreadPool pool(2);
  ParallelDataSet::Options options;
  options.aggregation_window_ms = 0;  // emit every update
  auto parallel = MakeParallel(chunks, &pool, options);

  auto stream = RunTypedSketch<CountResult>(
      *parallel, std::make_shared<CountSketch>());
  std::vector<double> progress;
  std::mutex m;
  stream->Subscribe([&](const PartialResult<CountResult>& p) {
    std::lock_guard<std::mutex> lock(m);
    progress.push_back(p.progress);
  });
  auto last = stream->BlockingLast();
  ASSERT_TRUE(stream->final_status().ok());
  ASSERT_TRUE(last.has_value());
  EXPECT_EQ(last->progress, 1.0);
  EXPECT_EQ(last->value.rows, 50000);
  ASSERT_GE(progress.size(), 2u);  // partial results were emitted
  for (size_t i = 1; i < progress.size(); ++i) {
    EXPECT_GE(progress[i], progress[i - 1]);
  }
}

TEST(ParallelDataSet, AggregationWindowBatchesEmissions) {
  auto values = UniformDoubles(10000, 0, 1, 73);
  auto chunks = SplitValues(values, 32);
  ThreadPool pool(2);
  ParallelDataSet::Options options;
  options.aggregation_window_ms = 10000;  // effectively: only first + final
  auto parallel = MakeParallel(chunks, &pool, options);

  auto stream =
      RunTypedSketch<CountResult>(*parallel, std::make_shared<CountSketch>());
  std::atomic<int> emissions{0};
  stream->Subscribe(
      [&](const PartialResult<CountResult>&) { emissions.fetch_add(1); });
  stream->BlockingLast();
  EXPECT_LE(emissions.load(), 3);
}

TEST(ParallelDataSet, NonProgressiveEmitsOnlyFinal) {
  auto values = UniformDoubles(10000, 0, 1, 74);
  auto chunks = SplitValues(values, 16);
  ThreadPool pool(4);
  ParallelDataSet::Options options;
  options.progressive = false;
  auto parallel = MakeParallel(chunks, &pool, options);
  auto stream =
      RunTypedSketch<CountResult>(*parallel, std::make_shared<CountSketch>());
  std::atomic<int> emissions{0};
  stream->Subscribe(
      [&](const PartialResult<CountResult>&) { emissions.fetch_add(1); });
  auto last = stream->BlockingLast();
  EXPECT_EQ(emissions.load(), 1);
  EXPECT_EQ(last->value.rows, 10000);
}

TEST(ParallelDataSet, CancellationStopsQueuedWork) {
  auto values = UniformDoubles(100000, 0, 1, 75);
  auto chunks = SplitValues(values, 64);
  ThreadPool pool(1);  // force deep queuing
  auto parallel = MakeParallel(chunks, &pool);

  SketchOptions options;
  options.cancellation = std::make_shared<CancellationToken>();
  options.cancellation->Cancel();  // cancel before anything runs
  auto stream = parallel->RunSketch(
      AnySketch::Wrap<CountResult>(std::make_shared<CountSketch>()), options);
  stream->BlockingLast();
  EXPECT_EQ(stream->final_status().code(), StatusCode::kCancelled);
}

TEST(ParallelDataSet, NestedTreeComputesCorrectly) {
  // Two-level tree: root -> 2 aggregation nodes -> 4 leaves each.
  auto values = UniformDoubles(8000, 0, 1, 76);
  auto chunks = SplitValues(values, 8);
  ThreadPool pool(4);
  std::vector<DataSetPtr> mid;
  for (int g = 0; g < 2; ++g) {
    std::vector<DataSetPtr> leaves;
    for (int i = 0; i < 4; ++i) {
      leaves.push_back(
          LocalDataSet::FromTable(MakeDoubleTable("x", chunks[g * 4 + i])));
    }
    mid.push_back(std::make_shared<ParallelDataSet>(std::move(leaves), &pool));
  }
  ParallelDataSet root(std::move(mid), nullptr);
  auto result =
      SketchAndWait<CountResult>(root, std::make_shared<CountSketch>());
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().rows, 8000);
  EXPECT_EQ(root.NumPartitions(), 8);
}

TEST(ParallelDataSet, DeterministicSeedsAcrossRuns) {
  // Sampled sketches get per-partition seeds derived from the root seed, so
  // two runs with the same seed produce identical summaries.
  auto chunks = SplitValues(UniformDoubles(40000, 0, 1, 78), 8);
  ThreadPool pool(4);
  auto parallel = MakeParallel(chunks, &pool);
  auto sketch = std::make_shared<SampledHistogramSketch>(
      "x", Buckets(NumericBuckets(0, 1, 10)), 0.1);
  SketchOptions options;
  options.seed = 42;
  auto r1 = SketchAndWait<HistogramResult>(*parallel, sketch, options);
  auto r2 = SketchAndWait<HistogramResult>(*parallel, sketch, options);
  ASSERT_TRUE(r1.ok());
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(r1.value().counts, r2.value().counts);
  options.seed = 43;
  auto r3 = SketchAndWait<HistogramResult>(*parallel, sketch, options);
  EXPECT_NE(r1.value().counts, r3.value().counts);
}

TEST(ComputationCache, HitMissAndLru) {
  ComputationCache cache(2);
  EXPECT_FALSE(testing::CacheLookup(cache, "a").has_value());
  testing::CacheInsert(cache, "a", AnySummary::Wrap<int>(1));
  testing::CacheInsert(cache, "b", AnySummary::Wrap<int>(2));
  EXPECT_TRUE(testing::CacheLookup(cache, "a").has_value());  // refresh "a"
  testing::CacheInsert(cache, "c", AnySummary::Wrap<int>(3));  // evicts "b"
  EXPECT_TRUE(testing::CacheLookup(cache, "a").has_value());
  EXPECT_FALSE(testing::CacheLookup(cache, "b").has_value());
  EXPECT_TRUE(testing::CacheLookup(cache, "c").has_value());
  EXPECT_EQ(cache.Snapshot().entries, 2u);
  EXPECT_GT(cache.Snapshot().hits, 0);
  EXPECT_GT(cache.Snapshot().misses, 0);
}

TEST(ComputationCache, TypedRoundTrip) {
  ComputationCache cache;
  HistogramResult r;
  r.counts = {1, 2, 3};
  testing::CacheInsert(cache, ComputationCache::Key("ds", "hist", /*seed=*/1),
                       AnySummary::Wrap<HistogramResult>(r));
  auto hit = testing::CacheLookup(
      cache, ComputationCache::Key("ds", "hist", /*seed=*/1));
  EXPECT_FALSE(testing::CacheLookup(
      cache, ComputationCache::Key("ds", "hist", /*seed=*/2)));
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->As<HistogramResult>().counts, r.counts);
}

TEST(RedoLog, AppendsEntriesAndRendersText) {
  RedoLog log;
  EXPECT_EQ(log.Append("load", "data (2 partitions)", 0), 0);
  EXPECT_EQ(log.Append("sketch", "data#hist", 42), 1);
  EXPECT_EQ(log.Size(), 2);
  auto entries = log.Entries();
  ASSERT_EQ(entries.size(), 2u);
  EXPECT_EQ(entries[0].index, 0);
  EXPECT_EQ(entries[0].kind, "load");
  EXPECT_EQ(entries[1].index, 1);
  EXPECT_EQ(entries[1].kind, "sketch");
  EXPECT_EQ(entries[1].description, "data#hist");
  EXPECT_EQ(entries[1].seed, 42u);
  EXPECT_EQ(log.ToText(),
            "0 load seed=0 data (2 partitions)\n1 sketch seed=42 data#hist\n");
  EXPECT_EQ(log.Snapshot().entries, 2);
}

TEST(AnySketchTest, SerializeDeserializeRoundTrip) {
  auto sketch = std::make_shared<StreamingHistogramSketch>(
      "x", Buckets(NumericBuckets(0, 1, 5)));
  AnySketch erased = AnySketch::Wrap<HistogramResult>(sketch);
  TablePtr t = MakeDoubleTable("x", {0.1, 0.2, 0.9});
  AnySummary summary = erased.Summarize(*t, 0);
  std::vector<uint8_t> bytes = erased.Serialize(summary);
  auto back = erased.Deserialize(bytes);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value().As<HistogramResult>().counts,
            summary.As<HistogramResult>().counts);
}

TEST(AnySketchTest, DeserializeRejectsTruncated) {
  auto sketch = std::make_shared<StreamingHistogramSketch>(
      "x", Buckets(NumericBuckets(0, 1, 5)));
  AnySketch erased = AnySketch::Wrap<HistogramResult>(sketch);
  TablePtr t = MakeDoubleTable("x", {0.5});
  std::vector<uint8_t> bytes = erased.Serialize(erased.Summarize(*t, 0));
  bytes.resize(bytes.size() / 2);
  EXPECT_FALSE(erased.Deserialize(bytes).ok());
}

}  // namespace
}  // namespace hillview
