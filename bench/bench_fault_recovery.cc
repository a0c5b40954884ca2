// Fault-recovery latency and graceful degradation under fixed fault rates
// (the robustness counterpart of the §7 latency figures). Five scenarios on
// one simulated deployment shape:
//
//   baseline   — fault-free query latency (the yardstick)
//   restart    — a worker crash-restarts before each query; the query heals
//                from the dataset's lineage (§5.7), reloading only that
//                worker's partitions, and pays the heal + rerun
//   stream     — the same crash before a progressive RunSketchStream, timed
//                to its final value: a stream is the same query, so it
//                heals the same way
//   rpc-drop   — one worker's first summary is dropped in transit; the
//                per-RPC deadline + retry layer heals below the query level
//   muted      — one worker is muted for good: the first query burns its
//                per-RPC retry budget and degrades, the second trips the
//                circuit breaker; the steady state fast-fails into
//                coverage-marked results
//
// plus a probabilistic drop-rate sweep showing queries keep healing to full
// coverage at 5/10/20% per-message loss. All medians; METRIC lines feed the
// CI bench diff like every other bench.

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <memory>
#include <vector>

#include "bench_common.h"
#include "cluster/fault_injection.h"
#include "cluster/root.h"
#include "core/dataset.h"
#include "sketch/histogram.h"
#include "util/random.h"
#include "util/stopwatch.h"

namespace hillview {
namespace {

using cluster::Direction;
using cluster::FaultInjector;
using cluster::FaultPlan;
using cluster::RootSession;
using cluster::ScriptedFault;
using cluster::SimulatedNetwork;
using cluster::Worker;

constexpr int kWorkers = 4;
constexpr int kPartitions = 16;
constexpr int kRuns = 15;

uint32_t TotalRows() {
  double rows = 2'000'000 * bench::BenchScale();
  if (rows < 160'000) rows = 160'000;
  return static_cast<uint32_t>(rows);
}

/// One deployment: kWorkers workers × 2 threads, kPartitions partitions of
/// uniform doubles, chaos-style fault policy (deadlines on, zero backoff so
/// medians measure recovery work, not configured sleeps).
struct Deployment {
  std::atomic<int64_t> loads{0};  // partition loader runs; outlives the pools
  std::vector<cluster::WorkerPtr> workers;
  SimulatedNetwork network;
  // Sessions must die before the Cluster (its dtor drains worker pools).
  std::unique_ptr<cluster::Cluster> deployment;
  std::shared_ptr<RootSession> root;

  static std::unique_ptr<Deployment> Create() {
    cluster::Cluster::Options options;
    options.aggregation.aggregation_window_ms = 0;
    options.rpc.deadline_ms = 10000;
    options.rpc.max_retries = 4;
    options.rpc.backoff_base_ms = 0.0;
    options.rpc.backoff_cap_ms = 0.0;
    ParallelDataSet::Options worker_aggregation;
    worker_aggregation.progressive = false;

    auto d = std::make_unique<Deployment>();
    for (int w = 0; w < kWorkers; ++w) {
      d->workers.push_back(std::make_shared<Worker>(
          "worker" + std::to_string(w), 2, worker_aggregation));
    }
    d->deployment = std::make_unique<cluster::Cluster>(d->workers,
                                                       &d->network, options);
    d->root = d->deployment->OpenSession();

    const uint32_t rows = TotalRows();
    std::vector<LocalDataSet::Loader> loaders;
    for (int p = 0; p < kPartitions; ++p) {
      loaders.push_back([p, rows, loads = &d->loads]() -> Result<TablePtr> {
        loads->fetch_add(1);
        Random rng(static_cast<uint64_t>(p) + 1);
        ColumnBuilder b(DataKind::kDouble);
        for (uint32_t i = 0; i < rows / kPartitions; ++i) {
          b.AppendDouble(rng.NextDouble() * 1000.0);
        }
        return Table::Create(Schema({{"x", DataKind::kDouble}}),
                             {b.Finish()});
      });
    }
    if (!d->root->LoadDataSet("data", loaders).ok()) return nullptr;
    return d;
  }

  SketchPtr<HistogramResult> MakeSketch() const {
    return std::make_shared<StreamingHistogramSketch>(
        "x", Buckets(NumericBuckets(0, 1000, 50)));
  }

  /// One timed query; returns elapsed ms and fills `stats`.
  double TimedQuery(RootSession::QueryStats* stats) {
    Stopwatch watch;
    auto result = root->RunSketch<HistogramResult>(
        "data", MakeSketch(), /*seed=*/0, /*cacheable=*/false, stats);
    if (!result.ok()) {
      std::fprintf(stderr, "query failed: %s\n",
                   result.status().ToString().c_str());
      std::exit(1);
    }
    return watch.ElapsedMillis();
  }

  /// One timed stream, to its final value; returns elapsed ms.
  double TimedStream() {
    Stopwatch watch;
    auto stream = root->RunSketchStream<HistogramResult>("data", MakeSketch());
    auto last = stream->BlockingLast();
    if (!stream->final_status().ok() || !last.has_value()) {
      std::fprintf(stderr, "stream failed: %s\n",
                   stream->final_status().ToString().c_str());
      std::exit(1);
    }
    return watch.ElapsedMillis();
  }
};

double Median(std::vector<double> xs) {
  std::sort(xs.begin(), xs.end());
  return xs[xs.size() / 2];
}

void Run() {
  std::printf("%u rows, %d partitions over %d workers, %d runs/scenario\n\n",
              TotalRows(), kPartitions, kWorkers, kRuns);
  std::printf("%-22s %12s %10s %16s\n", "scenario", "median(ms)", "coverage",
              "replay_heals");

  // Baseline: fault-free.
  auto d = Deployment::Create();
  if (d == nullptr) std::exit(1);
  RootSession::QueryStats stats;
  std::vector<double> times;
  d->TimedQuery(&stats);  // warm every partition once
  for (int r = 0; r < kRuns; ++r) times.push_back(d->TimedQuery(&stats));
  const double baseline_ms = Median(times);
  std::printf("%-22s %12.3f %10.2f %16s\n", "baseline", baseline_ms,
              stats.coverage, "-");

  // Restart recovery: a rotating worker crashes before each query; the
  // query heals what that worker lost.
  times.clear();
  int replay_heals = 0;
  const int64_t loads_before = d->loads.load();
  for (int r = 0; r < kRuns; ++r) {
    d->root->RestartWorker(r % kWorkers);
    times.push_back(d->TimedQuery(&stats));
    replay_heals += stats.replay_heals;
  }
  const double restart_ms = Median(times);
  const double loads_per_heal =
      static_cast<double>(d->loads.load() - loads_before) /
      std::max(1, replay_heals);
  std::printf("%-22s %12.3f %10.2f %16d\n", "restart+heal", restart_ms,
              stats.coverage, replay_heals);

  // The same crash before a stream: it heals like the blocking query, and
  // its time runs to the final value.
  times.clear();
  for (int r = 0; r < kRuns; ++r) {
    d->root->RestartWorker(r % kWorkers);
    times.push_back(d->TimedStream());
  }
  const double stream_restart_ms = Median(times);
  std::printf("%-22s %12.3f %10s %16s\n", "stream restart+heal",
              stream_restart_ms, "-", "-");

  // Dropped-RPC recovery: a fresh injector per run drops the first summary
  // from worker 1; the per-RPC retry heals without the query noticing.
  times.clear();
  for (int r = 0; r < kRuns; ++r) {
    FaultPlan plan;
    plan.schedule.push_back(ScriptedFault::DropNth(1, Direction::kUp, 0));
    d->network.InstallFaultInjector(std::make_shared<FaultInjector>(plan));
    times.push_back(d->TimedQuery(&stats));
  }
  d->network.InstallFaultInjector(nullptr);
  const double rpc_drop_ms = Median(times);
  std::printf("%-22s %12.3f %10.2f %16s\n", "rpc-drop+retry", rpc_drop_ms,
              stats.coverage, "-");

  // Graceful degradation: one worker muted for good, on a fresh deployment
  // (the breaker above is clean there). The first query spends the worker's
  // RPC budget twice (its first attempt and its degraded pass); the second
  // trips the breaker, after which queries fast-fail or probe into degraded
  // coverage.
  auto dd = Deployment::Create();
  if (dd == nullptr) std::exit(1);
  FaultPlan mute;
  mute.schedule.push_back(
      ScriptedFault::Mute(2, Direction::kUp, 0, ScriptedFault::kForever));
  dd->network.InstallFaultInjector(std::make_shared<FaultInjector>(mute));
  RootSession::QueryStats first_stats;
  const double degraded_first_ms = dd->TimedQuery(&first_stats);
  times.clear();
  for (int r = 0; r < kRuns; ++r) times.push_back(dd->TimedQuery(&stats));
  const double degraded_steady_ms = Median(times);
  std::printf("%-22s %12.3f %10.2f %16d\n", "muted: first",
              degraded_first_ms, first_stats.coverage,
              first_stats.replay_heals);
  std::printf("%-22s %12.3f %10.2f %16s\n", "muted: steady",
              degraded_steady_ms, stats.coverage, "-");
  const double degraded_coverage = stats.coverage;

  // Probabilistic loss sweep: per-message drop probability on both
  // directions; the retry stack must keep healing to full coverage.
  std::printf("\n%-22s %12s %10s\n", "drop rate", "median(ms)", "coverage");
  std::vector<double> sweep_ms;
  std::vector<double> sweep_coverage;
  for (double rate : {0.05, 0.10, 0.20}) {
    times.clear();
    double min_coverage = 1.0;
    for (int r = 0; r < kRuns; ++r) {
      FaultPlan plan;
      plan.seed = static_cast<uint64_t>(r) * 977 + 13;
      plan.up.drop = rate;
      plan.down.drop = rate / 2;
      d->network.InstallFaultInjector(std::make_shared<FaultInjector>(plan));
      times.push_back(d->TimedQuery(&stats));
      min_coverage = std::min(min_coverage, stats.coverage);
    }
    d->network.InstallFaultInjector(nullptr);
    sweep_ms.push_back(Median(times));
    sweep_coverage.push_back(min_coverage);
    std::printf("%-22.2f %12.3f %10.2f\n", rate, sweep_ms.back(),
                min_coverage);
  }

  std::printf("\n");
  std::printf("METRIC baseline_query_ms %.4f\n", baseline_ms);
  std::printf("METRIC recovery_restart_ms %.4f\n", restart_ms);
  std::printf("METRIC restart_loads_per_heal %.4f\n", loads_per_heal);
  std::printf("METRIC stream_restart_ms %.4f\n", stream_restart_ms);
  std::printf("METRIC recovery_dropped_rpc_ms %.4f\n", rpc_drop_ms);
  std::printf("METRIC degraded_first_query_ms %.4f\n", degraded_first_ms);
  std::printf("METRIC degraded_steady_query_ms %.4f\n", degraded_steady_ms);
  std::printf("METRIC degraded_coverage %.4f\n", degraded_coverage);
  std::printf("METRIC drop20_query_ms %.4f\n", sweep_ms.back());
  std::printf("METRIC drop20_min_coverage %.4f\n", sweep_coverage.back());
}

}  // namespace
}  // namespace hillview

int main() {
  hillview::Run();
  return 0;
}
