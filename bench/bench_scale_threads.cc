// Reproduces Figure 7: vizketch scalability as leaves (threads) and shards
// grow together — one leaf per shard with a constant number of rows per
// leaf, so ideal scaling is *constant latency*. The sampled vizketch scales
// super-linearly (latency drops) because its global sample size is fixed by
// the display, so each extra leaf does less work (§7.2.2).
//
// The morsel column runs the streaming vizketch with intra-worker
// parallelism enabled (sketch/morsel.h): the pool is sized like a worker's
// cores, so at low leaf counts the idle threads pick up morsels and the
// streaming latency stays near-constant through the physical-core count
// instead of degrading as leaves shrink.

#include <algorithm>
#include <cstdio>
#include <memory>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "core/dataset.h"
#include "sketch/histogram.h"
#include "sketch/sample_size.h"
#include "util/random.h"
#include "util/stopwatch.h"

namespace hillview {
namespace {

uint32_t RowsPerLeaf() {
  double rows = 2'000'000 * bench::BenchScale();
  if (rows < 65536) rows = 65536;
  return static_cast<uint32_t>(rows);
}

TablePtr MakeShard(uint64_t seed, uint32_t rows) {
  Random rng(seed);
  ColumnBuilder b(DataKind::kDouble);
  for (uint32_t i = 0; i < rows; ++i) {
    b.AppendDouble(rng.NextDouble() * 1000.0);
  }
  return Table::Create(Schema({{"x", DataKind::kDouble}}), {b.Finish()});
}

double MedianOfRuns(IDataSet& dataset, const AnySketch& sketch, int runs,
                    ThreadPool* morsel_pool) {
  std::vector<double> times;
  for (int r = 0; r < runs; ++r) {
    SketchOptions options;
    options.seed = r + 1;
    if (morsel_pool != nullptr) {
      options.aux_pool = [morsel_pool] { return morsel_pool; };
    }
    Stopwatch watch;
    auto stream = dataset.RunSketch(sketch, options);
    stream->BlockingLast();
    times.push_back(watch.ElapsedMillis());
  }
  std::sort(times.begin(), times.end());
  return times[times.size() / 2];
}

void Run() {
  const int hw_threads =
      static_cast<int>(std::thread::hardware_concurrency());
  const uint32_t rows_per_leaf = RowsPerLeaf();
  std::printf("hardware threads: %d (scaling flattens beyond this point,\n"
              "like the paper's hyper-threading knee at 16 shards)\n"
              "rows per leaf: %u\n\n",
              hw_threads, rows_per_leaf);
  std::printf("%-12s %16s %16s %18s %14s\n", "leaves", "sampled(ms)",
              "streaming(ms)", "strm+morsel(ms)", "sample_rate");

  Buckets buckets(NumericBuckets(0, 1000, 25));
  for (int leaves : {1, 2, 4, 8, 16, 32}) {
    // Like a worker's cores: at least the hardware threads, so morsels have
    // idle threads to fill at low leaf counts. Leaf tasks and morsels share
    // it, exactly as Worker::aux_pool() shares the partition pool.
    ThreadPool pool(std::max(leaves, hw_threads > 0 ? hw_threads : 1));
    std::vector<DataSetPtr> children;
    for (int l = 0; l < leaves; ++l) {
      children.push_back(
          LocalDataSet::FromTable(MakeShard(MixSeed(5, l), rows_per_leaf)));
    }
    ParallelDataSet::Options options;
    options.progressive = false;
    ParallelDataSet dataset(std::move(children), &pool, options);

    uint64_t total_rows = static_cast<uint64_t>(leaves) * rows_per_leaf;
    double rate =
        SampleRateForSize(HistogramSampleSize(100, 25, 0.1), total_rows);
    AnySketch sampled =
        AnySketch::Wrap<HistogramResult>(std::make_shared<SampledHistogramSketch>(
            "x", buckets, rate));
    AnySketch streaming = AnySketch::Wrap<HistogramResult>(
        std::make_shared<StreamingHistogramSketch>("x", buckets));

    double sampled_ms = MedianOfRuns(dataset, sampled, 3, nullptr);
    double streaming_ms = MedianOfRuns(dataset, streaming, 3, nullptr);
    double morsel_ms = MedianOfRuns(dataset, streaming, 3, &pool);
    std::printf("%-12d %16.1f %16.1f %18.1f %14.4f\n", leaves, sampled_ms,
                streaming_ms, morsel_ms, rate);
    std::printf("METRIC sampled_ms_leaves%d %.2f\n", leaves, sampled_ms);
    std::printf("METRIC streaming_ms_leaves%d %.2f\n", leaves, streaming_ms);
    std::printf("METRIC streaming_morsel_ms_leaves%d %.2f\n", leaves,
                morsel_ms);
  }
  std::printf(
      "\nExpected shape (Fig 7): streaming latency ~constant while leaves <=\n"
      "physical cores; sampled latency *decreases* as leaves grow\n"
      "(super-linear scaling: fixed global sample spread over more data);\n"
      "with morsels the streaming column is near-constant from 1 leaf on.\n");
}

}  // namespace
}  // namespace hillview

int main() {
  hillview::Run();
  return 0;
}
