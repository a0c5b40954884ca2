// Ablation benchmarks for three design choices of the paper:
//
//  A1. Heavy hitters: Misra-Gries vs sampling as K varies. The paper (§B.2)
//      reports the sampled method wins once K >= ~100.
//  A2. Membership-set representation: sampling throughput on full vs dense
//      (bitmap) vs sparse (row list) sets.
//  A3. Progressive aggregation window: emissions and time to the first
//      result at 0 ms / 20 ms / 100 ms / infinite batching (the 0.1 s
//      trade-off of §5.3).
//
// Sizes scale with HILLVIEW_BENCH_SCALE. Each figure is the median of five
// runs and is also printed as a METRIC line, so run_benches.sh records it.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <vector>

#include "bench_common.h"
#include "core/dataset.h"
#include "sketch/heavy_hitters.h"
#include "sketch/histogram.h"
#include "sketch/sample_size.h"
#include "storage/membership.h"
#include "storage/table.h"
#include "util/random.h"
#include "util/stopwatch.h"

namespace hillview {
namespace {

constexpr int kRuns = 5;

/// `base` scaled by HILLVIEW_BENCH_SCALE, and never below `floor`.
uint32_t Scaled(double base, double floor) {
  return static_cast<uint32_t>(std::max(base * bench::BenchScale(), floor));
}

double Median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  return values[values.size() / 2];
}

/// Median wall time of `kRuns` calls of `fn`, in milliseconds.
template <typename Fn>
double MedianMs(Fn&& fn) {
  std::vector<double> times;
  for (int r = 0; r < kRuns; ++r) {
    Stopwatch watch;
    fn(r);
    times.push_back(watch.ElapsedMillis());
  }
  return Median(std::move(times));
}

TablePtr SkewedStringsTable(uint32_t rows) {
  Random rng(0xAB1);
  ColumnBuilder b(DataKind::kCategory);
  for (uint32_t i = 0; i < rows; ++i) {
    // Zipf-ish: value v with probability ~ 1/(v+1).
    uint64_t v = static_cast<uint64_t>(
        std::exp(rng.NextDouble() * std::log(10000.0)));
    b.AppendString("v" + std::to_string(v));
  }
  return Table::Create(Schema({{"s", DataKind::kCategory}}), {b.Finish()});
}

void HeavyHittersAblation() {
  std::printf("=== A1: heavy hitters, Misra-Gries vs sampling (paper: "
              "sampling wins for K >= ~100) ===\n");
  std::printf("%-8s %14s %14s %12s\n", "K", "MG(ms)", "sampled(ms)",
              "sample_n");
  const uint32_t rows = Scaled(2000000, 20000);
  TablePtr t = SkewedStringsTable(rows);
  for (int k : {10, 50, 100, 200, 500}) {
    MisraGriesSketch mg("s", k);
    const double mg_ms = MedianMs([&](int) { (void)mg.Summarize(*t, 0); });

    uint64_t n = HeavyHittersSampleSize(k);
    SampledHeavyHittersSketch sampled("s", k, SampleRateForSize(n, rows));
    const double s_ms =
        MedianMs([&](int) { (void)sampled.Summarize(*t, 1); });
    std::printf("%-8d %14.2f %14.2f %12llu\n", k, mg_ms, s_ms,
                static_cast<unsigned long long>(n));
    std::printf("METRIC hh_k%d_mg_ms %.3f\n", k, mg_ms);
    std::printf("METRIC hh_k%d_sampled_ms %.3f\n", k, s_ms);
  }
  std::printf("\n");
}

void MembershipAblation() {
  std::printf("=== A2: sampling throughput by membership representation ===\n");
  const uint32_t universe = Scaled(8000000, 80000);
  const double kRate = 0.01;
  FullMembership full(universe);
  auto dense = FilterMembership(full, [](uint32_t r) { return r % 2 == 0; });
  auto sparse =
      FilterMembership(full, [](uint32_t r) { return r % 100 == 0; });

  auto measure = [&](const IMembershipSet& m, const char* name) {
    uint64_t sampled = 0;
    const double ms = MedianMs([&](int r) {
      uint64_t count = 0;
      SampleRows(m, kRate, r + 1, [&](uint32_t) { ++count; });
      sampled = count;
    });
    const double ns_per_sample = ms * 1e6 / std::max<uint64_t>(sampled, 1);
    std::printf("%-10s members=%9u sampled=%8llu  time=%8.3f ms  "
                "(%.1f ns/sample)\n",
                name, m.size(), static_cast<unsigned long long>(sampled), ms,
                ns_per_sample);
    std::printf("METRIC membership_%s_ns_per_sample %.2f\n", name,
                ns_per_sample);
  };
  measure(full, "full");
  measure(*dense, "dense");
  measure(*sparse, "sparse");
  std::printf("Expected: cost scales with samples taken, not with universe\n"
              "size; dense pays one membership test per universe skip.\n\n");
}

void AggregationWindowAblation() {
  std::printf("=== A3: progressive aggregation window (§5.3's 0.1 s) ===\n");
  const int kLeaves = 64;
  const uint32_t rows_per_leaf = Scaled(100000, 1000);
  ThreadPool pool(2);  // slow pool => many separate completions
  std::vector<DataSetPtr> children;
  for (int l = 0; l < kLeaves; ++l) {
    Random rng(l);
    ColumnBuilder b(DataKind::kDouble);
    for (uint32_t i = 0; i < rows_per_leaf; ++i) {
      b.AppendDouble(rng.NextDouble());
    }
    children.push_back(LocalDataSet::FromTable(
        Table::Create(Schema({{"x", DataKind::kDouble}}), {b.Finish()})));
  }

  std::printf("%-14s %12s %16s\n", "window(ms)", "emissions",
              "first result(ms)");
  const struct {
    double ms;
    const char* name;
  } kWindows[] = {{0.0, "0"}, {20.0, "20"}, {100.0, "100"}, {1e9, "inf"}};
  for (const auto& window : kWindows) {
    ParallelDataSet::Options options;
    options.aggregation_window_ms = window.ms;
    ParallelDataSet dataset(children, &pool, options);
    auto sketch = std::make_shared<StreamingHistogramSketch>(
        "x", Buckets(NumericBuckets(0, 1, 25)));
    std::vector<double> emissions, first_ms;
    for (int r = 0; r < kRuns; ++r) {
      Stopwatch watch;
      int emitted = 0;
      double first = 0;
      auto stream = RunTypedSketch<HistogramResult>(dataset, sketch);
      stream->Subscribe([&](const PartialResult<HistogramResult>&) {
        if (emitted == 0) first = watch.ElapsedMillis();
        ++emitted;
      });
      stream->BlockingLast();
      emissions.push_back(emitted);
      first_ms.push_back(first);
    }
    const double median_emissions = Median(std::move(emissions));
    const double median_first_ms = Median(std::move(first_ms));
    std::printf("%-14s %12.0f %16.2f\n", window.name, median_emissions,
                median_first_ms);
    std::printf("METRIC window%s_emissions %.0f\n", window.name,
                median_emissions);
    std::printf("METRIC window%s_first_ms %.3f\n", window.name,
                median_first_ms);
  }
  std::printf(
      "Expected: window 0 emits once per completion (max freshness, most\n"
      "messages); larger windows batch partials; infinite emits only the\n"
      "first + final. First results arrive equally fast in all settings.\n");
}

}  // namespace
}  // namespace hillview

int main() {
  hillview::HeavyHittersAblation();
  hillview::MembershipAblation();
  hillview::AggregationWindowAblation();
  return 0;
}
