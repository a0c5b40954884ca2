// Shared declarations of the end-to-end benchmark (perfbench).
//
// The benchmark builds a simulated Hillview deployment from HVCF files spilled
// for one seed, runs one closed-loop workload through the public
// Spreadsheet / RootSession API, checks every answer, and prints one JSON
// record. Nothing here changes the program: every layer is observed from
// outside (spans around the benchmark's own calls, probes through the
// scheduler and worker pools, loader and Sketch wrappers the program already
// accepts, and deltas of its Snapshot() counters).

#ifndef HILLVIEW_PERFBENCH_BENCH_H_
#define HILLVIEW_PERFBENCH_BENCH_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "cluster/cluster.h"
#include "cluster/network.h"
#include "cluster/root.h"
#include "spreadsheet/spreadsheet.h"
#include "util/thread_annotations.h"

namespace perfbench {

using hillview::Result;
using hillview::Status;

enum class Workload { kExplore, kDashboard, kBrush, kRecover };

struct Config {
  Workload workload = Workload::kExplore;
  std::string workload_name;
  uint64_t seed = 0;
  double seconds = 10;
  bool trace = false;
  std::string data_dir;   // where the seed's HVCF partitions are spilled
  uint64_t rows = 1'000'000;
  uint32_t rows_per_partition = 62'500;
  int workers = 2;
  int threads_per_worker = 1;
  int tenants = 1;     // client threads, one RootSession each
  int setup_reps = 15;  // set-ups per run; setup_s is their median
  // > 0: peak_rss_mb is read once tenant 0 has completed this many actions
  // per measured second (or at the end, if it never does).
  double rss_actions_per_s = 0;
};

/// Loader invocations, counted by a wrapper around each partition loader
/// (traced runs only).
struct LoadStats {
  std::atomic<int64_t> loads{0};
  std::atomic<int64_t> nanos{0};
};

/// One simulated deployment: workers, interconnect, the shared Cluster, one
/// RootSession + Spreadsheet per tenant. Members are declared so that the
/// implicit destructor tears down sheets, then sessions, then the Cluster
/// (which drains the worker pools), as the Cluster contract requires.
struct Deployment {
  std::vector<hillview::cluster::WorkerPtr> workers;
  hillview::cluster::SimulatedNetwork network;
  std::unique_ptr<hillview::cluster::Cluster> cluster;
  std::vector<std::shared_ptr<hillview::cluster::RootSession>> sessions;
  std::vector<std::unique_ptr<hillview::Spreadsheet>> sheets;
};

/// Builds the deployment for `config.workload` and loads the spilled
/// partitions as dataset "flights" (session 0 registers it; the dataset is
/// cluster-global). `load_stats` (optional) wraps every loader.
Result<std::unique_ptr<Deployment>> CreateDeployment(
    const Config& config,
    const std::vector<hillview::LocalDataSet::Loader>& loaders,
    LoadStats* load_stats);

/// One user action as the client saw it.
struct Action {
  int tenant = 0;
  int kind = 0;          // operation / view index within the workload
  double ms = 0;         // issue -> final rendered chart
  double done_s = 0;     // completion, seconds after the measured phase began
  double first_partial_ms = -1;  // progressive actions only
  bool answered = false;  // status OK and every check passed
  bool wrong = false;     // an answer came back but failed a check
  bool degraded = false;  // some query of the action had coverage < 1
  bool recovered = false; // the action paid a retry, heal or degraded pass
  int streams = 0;        // progressive streams awaited
  int partials = 0;       // partial results those streams delivered
  int renders = 0;        // brush: renders issued in the gesture
  int cancelled = 0;      // brush: superseded renders that settled Cancelled
  std::string error;
};

// ---------------------------------------------------------------------------
// Tracing: spans kept in memory for the traced phase.

struct Span {
  int64_t id = 0;
  int64_t parent = 0;  // 0 = root
  int64_t action = -1;
  int tenant = 0;
  std::string layer;
  std::string name;
  double start_ms = 0;
  double end_ms = 0;
};

class Tracer {
 public:
  Tracer();
  double NowMs() const;
  int64_t NextId() { return next_id_.fetch_add(1) + 1; }
  void Record(Span span) EXCLUDES(mutex_);
  std::vector<Span> Spans() const EXCLUDES(mutex_);

 private:
  const int64_t origin_ns_;
  std::atomic<int64_t> next_id_{0};
  mutable hillview::Mutex mutex_;
  std::vector<Span> spans_ GUARDED_BY(mutex_);
};

/// RAII span around one call into a layer. A null tracer records nothing and
/// reads no clock, so untraced runs pay nothing. Spans nest per thread: the
/// innermost open span is the parent of the next one.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* layer, const char* name);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  Span span_;
  int64_t saved_parent_ = 0;
};

/// Marks the action every span opened on this thread belongs to.
void SetCurrentAction(int tenant, int64_t action);

// ---------------------------------------------------------------------------
// Workloads.

/// One workload: a warm-up pass that records the reference answers, an
/// optional hook run once before measuring, and one closed-loop action.
class WorkloadRunner {
 public:
  virtual ~WorkloadRunner() = default;
  /// One untimed pass of the workload's own actions; fills the caches and,
  /// on the first call, records the reference answers. Later calls (the
  /// repeated set-ups) must reproduce them.
  virtual Status WarmUp(Deployment& d) = 0;
  /// Called once after the warm-up of the deployment that is measured.
  virtual Status BeginMeasure(Deployment& d) {
    (void)d;
    return Status::OK();
  }
  /// Runs action number `index` of `tenant`; never throws.
  virtual Action RunAction(Deployment& d, int tenant, int64_t index) = 0;
  /// Traced runs: the dataset and vizketch the sketch ladder issues, i.e.
  /// the workload's dominant vizketch.
  virtual std::string LadderName() const = 0;
  /// Traced runs, last: the share of progressive streams that fail under the
  /// workload's faults (recover; 0 where there are none).
  virtual Result<double> StreamFailedShare(Deployment& d) {
    (void)d;
    return 0.0;
  }

  void set_tracer(Tracer* tracer) { tracer_ = tracer; }

 protected:
  Tracer* tracer_ = nullptr;
};

std::unique_ptr<WorkloadRunner> MakeRunner(const Config& config);

/// The sampled heat map of `x` against `y` planned the way
/// Spreadsheet::HeatMap plans it, but returned as a sketch so that the
/// caller chooses the seed.
Result<hillview::SketchPtr<hillview::Histogram2DResult>> SampledHeatMap(
    hillview::Spreadsheet& sheet, const std::string& x, const std::string& y);

// ---------------------------------------------------------------------------
// Per-layer observation (traced runs).

/// Every counter the program already exposes, summed over the deployment.
struct Counters {
  hillview::ComputationCache::Stats cache;
  hillview::cluster::QueryScheduler::Stats scheduler;
  hillview::cluster::WorkerHealth::Stats health;
  hillview::cluster::FaultInjector::Stats faults;
  uint64_t bytes_up = 0, bytes_down = 0, msgs_up = 0, msgs_down = 0;
  std::map<int, hillview::cluster::SimulatedNetwork::SessionTraffic> traffic;
  int64_t redo_entries = 0, replays = 0, entries_replayed = 0;
  int64_t restarts = 0;
  int64_t key_hits = 0, key_misses = 0;
  uint64_t key_bytes = 0;
};

Counters ReadCounters(Deployment& d);

/// Redo-log entries appended since `first_index` (per session), by kind.
std::map<std::string, int64_t> RedoKinds(Deployment& d,
                                         const std::vector<int64_t>& first);

/// Samples grant waits through QueryScheduler::Execute and queue waits of
/// every Worker::pool() from one background thread while it lives.
class Prober {
 public:
  explicit Prober(Deployment* d);
  ~Prober();
  Prober(const Prober&) = delete;
  Prober& operator=(const Prober&) = delete;
  /// Stops sampling and returns (grant waits, pool waits) in ms.
  std::pair<std::vector<double>, std::vector<double>> Stop();
  int64_t scheduler_probes() const { return scheduler_probes_.load(); }

 private:
  void Loop();
  Deployment* d_;
  std::atomic<bool> stop_{false};
  std::atomic<int64_t> scheduler_probes_{0};
  std::vector<double> grant_ms_, pool_ms_;  // written by the probe thread
  std::unique_ptr<std::thread> thread_;
};

/// The sketch ladder's result: the dominant vizketch issued at each layer's
/// entry point, wrapped in a forwarding Sketch that times its Summarize and
/// Merge calls.
struct LadderResult {
  double rung_ms[4] = {0, 0, 0, 0};  // p50 per rung (1 = Summarize ... 4)
  double summarize_ms_per_query = 0;
  double summarize_calls_per_query = 0;
  double merge_ms_per_query = 0;
  double busy_share = 0;
  double dispatch_p50_ms = 0;
  double collect_p50_ms = 0;
  double wasted_share = 0;  // brush: Summarize time of superseded renders
};

Result<LadderResult> RunLadder(const Config& config, Deployment& d,
                               const std::string& ladder);

// ---------------------------------------------------------------------------
// Small statistics helpers.

/// Linear-interpolated quantile of `values` (q in [0, 1]); 0 when empty.
double Quantile(std::vector<double> values, double q);
double Median(std::vector<double> values);

}  // namespace perfbench

#endif  // HILLVIEW_PERFBENCH_BENCH_H_
