// Outside-in observation for traced runs: spans, scheduler and pool probes,
// and the sketch ladder (the workload's dominant vizketch issued at each
// layer's entry point inside a forwarding Sketch).

#include <algorithm>
#include <chrono>
#include <cmath>

#include "bench.h"
#include "render/plan.h"
#include "util/random.h"

namespace perfbench {

using namespace hillview;  // NOLINT(build/namespaces): benchmark-local file

namespace {

using Clock = std::chrono::steady_clock;

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

double MsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

thread_local int64_t t_parent = 0;
thread_local int64_t t_action = -1;
thread_local int t_tenant = 0;

}  // namespace

Tracer::Tracer() : origin_ns_(NowNs()) {}

double Tracer::NowMs() const { return (NowNs() - origin_ns_) / 1e6; }

void Tracer::Record(Span span) {
  MutexLock lock(mutex_);
  spans_.push_back(std::move(span));
}

std::vector<Span> Tracer::Spans() const {
  MutexLock lock(mutex_);
  return spans_;
}

ScopedSpan::ScopedSpan(Tracer* tracer, const char* layer, const char* name)
    : tracer_(tracer) {
  if (tracer_ == nullptr) return;
  span_.id = tracer_->NextId();
  span_.parent = t_parent;
  span_.action = t_action;
  span_.tenant = t_tenant;
  span_.layer = layer;
  span_.name = name;
  span_.start_ms = tracer_->NowMs();
  saved_parent_ = t_parent;
  t_parent = span_.id;
}

ScopedSpan::~ScopedSpan() {
  if (tracer_ == nullptr) return;
  span_.end_ms = tracer_->NowMs();
  t_parent = saved_parent_;
  tracer_->Record(std::move(span_));
}

void SetCurrentAction(int tenant, int64_t action) {
  t_tenant = tenant;
  t_action = action;
}

// ---------------------------------------------------------------------------

Prober::Prober(Deployment* d) : d_(d) {
  thread_ = std::make_unique<std::thread>([this] { Loop(); });
}

Prober::~Prober() { (void)Stop(); }

std::pair<std::vector<double>, std::vector<double>> Prober::Stop() {
  stop_ = true;
  if (thread_ != nullptr && thread_->joinable()) thread_->join();
  return {grant_ms_, pool_ms_};
}

void Prober::Loop() {
  // A session id no tenant uses: the probe queues like one more tenant.
  constexpr int kProbeSession = 1 << 20;
  struct PoolProbe {
    Mutex mu;
    CondVar cv;
    int pending GUARDED_BY(mu) = 0;
    std::vector<double> waits GUARDED_BY(mu);
  };
  while (!stop_) {
    const Clock::time_point asked = Clock::now();
    double granted = -1;
    ++scheduler_probes_;
    (void)d_->cluster->scheduler().Execute(kProbeSession, nullptr, [&] {
      granted = MsBetween(asked, Clock::now());
      return Status::OK();
    });
    if (granted >= 0) grant_ms_.push_back(granted);

    auto probe = std::make_shared<PoolProbe>();
    for (auto& worker : d_->workers) {
      {
        MutexLock lock(probe->mu);
        ++probe->pending;
      }
      const Clock::time_point queued = Clock::now();
      bool accepted = worker->pool()->Submit([probe, queued] {
        MutexLock lock(probe->mu);
        probe->waits.push_back(MsBetween(queued, Clock::now()));
        if (--probe->pending == 0) probe->cv.NotifyAll();
      });
      if (!accepted) {
        MutexLock lock(probe->mu);
        --probe->pending;
      }
    }
    {
      MutexLock lock(probe->mu);
      while (probe->pending > 0) probe->cv.Wait(probe->mu);
      pool_ms_.insert(pool_ms_.end(), probe->waits.begin(),
                      probe->waits.end());
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
}

// ---------------------------------------------------------------------------
// The sketch ladder.

namespace {

/// What a forwarding sketch saw during one query.
struct SketchTimes {
  Mutex mu;
  double summarize_ms GUARDED_BY(mu) = 0;
  int64_t summarize_calls GUARDED_BY(mu) = 0;
  double merge_ms GUARDED_BY(mu) = 0;
  Clock::time_point first_start GUARDED_BY(mu) = Clock::time_point::max();
  Clock::time_point last_end GUARDED_BY(mu) = Clock::time_point::min();

  void Reset() {
    MutexLock lock(mu);
    summarize_ms = merge_ms = 0;
    summarize_calls = 0;
    first_start = Clock::time_point::max();
    last_end = Clock::time_point::min();
  }
};

/// Forwards every call to the wrapped sketch under the same name (so cache
/// keys and the redo log are unchanged) and the same seed (so the answer is
/// unchanged), timing Summarize and Merge.
template <typename R>
class ForwardingSketch final : public Sketch<R> {
 public:
  ForwardingSketch(SketchPtr<R> inner, std::shared_ptr<SketchTimes> times)
      : inner_(std::move(inner)), times_(std::move(times)) {}

  std::string name() const override { return inner_->name(); }
  R Zero() const override { return inner_->Zero(); }
  bool MorselMergeExact() const override { return inner_->MorselMergeExact(); }

  R Summarize(const Table& table, uint64_t seed) const override {
    const Clock::time_point start = Clock::now();
    R out = inner_->Summarize(table, seed);
    Summarized(start);
    return out;
  }

  R Summarize(const Table& table, uint64_t seed,
              const SketchContext& context) const override {
    const Clock::time_point start = Clock::now();
    R out = inner_->Summarize(table, seed, context);
    Summarized(start);
    return out;
  }

  R Merge(const R& left, const R& right) const override {
    const Clock::time_point start = Clock::now();
    R out = inner_->Merge(left, right);
    const double ms = MsBetween(start, Clock::now());
    MutexLock lock(times_->mu);
    times_->merge_ms += ms;
    return out;
  }

 private:
  void Summarized(Clock::time_point start) const {
    const Clock::time_point end = Clock::now();
    MutexLock lock(times_->mu);
    times_->summarize_ms += MsBetween(start, end);
    ++times_->summarize_calls;
    times_->first_start = std::min(times_->first_start, start);
    times_->last_end = std::max(times_->last_end, end);
  }

  SketchPtr<R> inner_;
  std::shared_ptr<SketchTimes> times_;
};

constexpr int kLadderQueries = 15;

/// The first partition table of `dataset_id` on worker 0.
Result<TablePtr> FirstPartition(Deployment& d, const std::string& dataset_id) {
  HV_ASSIGN_OR_RETURN(DataSetPtr local, d.workers[0]->GetDataSet(dataset_id));
  auto* parallel = dynamic_cast<ParallelDataSet*>(local.get());
  if (parallel == nullptr || parallel->children().empty()) {
    return Status::Internal("worker dataset is not a partition fan-out");
  }
  auto* leaf = dynamic_cast<LocalDataSet*>(parallel->children()[0].get());
  if (leaf == nullptr) return Status::Internal("partition is not local");
  return leaf->GetTable();
}

template <typename R>
Result<LadderResult> Ladder(const Config& config, Deployment& d,
                            const std::string& dataset_id, SketchPtr<R> inner,
                            uint64_t seed,
                            const std::function<Status()>& spreadsheet_call) {
  auto times = std::make_shared<SketchTimes>();
  auto sketch = std::make_shared<ForwardingSketch<R>>(inner, times);
  LadderResult out;
  std::vector<double> rung[4];

  // Rung 1: Sketch::Summarize on one partition table.
  HV_ASSIGN_OR_RETURN(TablePtr table, FirstPartition(d, dataset_id));
  for (int i = 0; i < kLadderQueries; ++i) {
    const Clock::time_point start = Clock::now();
    R r = sketch->Summarize(*table, seed);
    rung[0].push_back(MsBetween(start, Clock::now()));
  }

  // Rung 2: the worker-local execution tree, with the worker's pool and
  // sort-key cache handed over as the machine boundary does.
  HV_ASSIGN_OR_RETURN(DataSetPtr local, d.workers[0]->GetDataSet(dataset_id));
  SketchOptions options;
  options.seed = seed;
  cluster::Worker* worker = d.workers[0].get();
  options.aux_pool = [worker] { return worker->aux_pool(); };
  options.key_cache = [worker] { return worker->key_cache(); };
  for (int i = 0; i < kLadderQueries; ++i) {
    const Clock::time_point start = Clock::now();
    HV_RETURN_IF_ERROR(SketchAndWait<R>(*local, sketch, options).status());
    rung[1].push_back(MsBetween(start, Clock::now()));
  }

  // Rung 3: RootSession::RunSketch; the sketch's own timings split it.
  std::vector<double> summarize, calls, merge, busy, dispatch, collect;
  const int threads = config.workers * config.threads_per_worker;
  for (int i = 0; i < kLadderQueries; ++i) {
    times->Reset();
    const Clock::time_point start = Clock::now();
    HV_RETURN_IF_ERROR(d.sessions[0]
                           ->RunSketch<R>(dataset_id, sketch, seed,
                                          /*cacheable=*/false)
                           .status());
    const Clock::time_point end = Clock::now();
    const double wall = MsBetween(start, end);
    rung[2].push_back(wall);
    MutexLock lock(times->mu);
    summarize.push_back(times->summarize_ms);
    calls.push_back(static_cast<double>(times->summarize_calls));
    merge.push_back(times->merge_ms);
    busy.push_back(wall > 0 ? times->summarize_ms / (wall * threads) : 0);
    if (times->summarize_calls > 0) {
      dispatch.push_back(MsBetween(start, times->first_start));
      collect.push_back(MsBetween(times->last_end, end));
    }
  }

  // Rung 4: the Spreadsheet call that issues the same vizketch.
  for (int i = 0; i < kLadderQueries; ++i) {
    const Clock::time_point start = Clock::now();
    HV_RETURN_IF_ERROR(spreadsheet_call());
    rung[3].push_back(MsBetween(start, Clock::now()));
  }

  for (int r = 0; r < 4; ++r) out.rung_ms[r] = Median(rung[r]);
  out.summarize_ms_per_query = Median(summarize);
  out.summarize_calls_per_query = Median(calls);
  out.merge_ms_per_query = Median(merge);
  out.busy_share = Median(busy);
  out.dispatch_p50_ms = Median(dispatch);
  out.collect_p50_ms = Median(collect);
  return out;
}

/// The sampled histogram of `column` over `view`, planned the way
/// Spreadsheet::HistogramStream plans it.
Result<SketchPtr<HistogramResult>> BrushHistogram(Spreadsheet& view,
                                                  const std::string& column) {
  HV_ASSIGN_OR_RETURN(RangeResult range, view.ColumnRange(column));
  const int buckets = HistogramBucketCount(view.screen());
  return SketchPtr<HistogramResult>(std::make_shared<SampledHistogramSketch>(
      column, Buckets(PlanNumericBuckets(range, buckets)),
      SampleRateForSize(HistogramSampleSize(view.screen().height, buckets),
                        static_cast<uint64_t>(range.TotalRows()))));
}

/// Brush's superseded work: gestures issued as the workload issues them
/// (a new render generation, a FilterRange and a stream per render, each
/// render superseding the one before), with every render's sketch wrapped
/// on its own. Returns the Summarize time spent on the renders that were
/// superseded over all Summarize time.
Result<double> SupersededShare(Deployment& d, Spreadsheet& sheet,
                               uint64_t seed) {
  constexpr int kRenders = 4;
  cluster::RootSession& session = *d.sessions[0];
  double wasted = 0, total = 0;
  for (int g = 0; g < kLadderQueries; ++g) {
    std::vector<std::shared_ptr<SketchTimes>> times;
    std::vector<StreamPtr<PartialResult<HistogramResult>>> streams;
    for (int r = 0; r < kRenders; ++r) {
      CancellationTokenPtr token = session.BeginRender("ladder");
      const double lo = 0.5 * g;
      HV_ASSIGN_OR_RETURN(Spreadsheet view,
                          sheet.FilterRange("DepDelay", lo, lo + 15.0 * (r + 1)));
      HV_ASSIGN_OR_RETURN(SketchPtr<HistogramResult> inner,
                          BrushHistogram(view, "DepDelay"));
      times.push_back(std::make_shared<SketchTimes>());
      streams.push_back(session.RunSketchStream<HistogramResult>(
          view.dataset_id(),
          std::make_shared<ForwardingSketch<HistogramResult>>(inner,
                                                              times.back()),
          MixSeed(seed, static_cast<uint64_t>(g * kRenders + r)), token));
    }
    for (auto& stream : streams) (void)stream->BlockingLast();
    // A superseded stream settles before its abandoned summaries end.
    for (auto& worker : d.workers) worker->pool()->Wait();
    for (size_t r = 0; r < times.size(); ++r) {
      MutexLock lock(times[r]->mu);
      total += times[r]->summarize_ms;
      if (r + 1 < times.size()) wasted += times[r]->summarize_ms;
    }
  }
  return total > 0 ? wasted / total : 0.0;
}

}  // namespace

Result<LadderResult> RunLadder(const Config& config, Deployment& d,
                               const std::string& ladder) {
  Spreadsheet& sheet = *d.sheets[0];
  if (ladder == "quantile") {
    // O4's scroll-bar quantile over the five-column order: the explore
    // loop's costliest vizketch, planned the way Spreadsheet::ScrollTo
    // plans it.
    static const RecordOrder kOrder5({{"Year", true},
                                      {"Month", true},
                                      {"DayOfMonth", true},
                                      {"DepDelay", true},
                                      {"Distance", true}});
    HV_ASSIGN_OR_RETURN(int64_t rows, sheet.RowCount());
    const uint64_t sample =
        QuantileSampleSize(std::min(sheet.screen().height, 100));
    auto sketch = std::make_shared<QuantileSketch>(
        kOrder5, SampleRateForSize(sample, static_cast<uint64_t>(rows)),
        static_cast<int>(2 * sample));
    return Ladder<QuantileResult>(
        config, d, "flights", sketch, MixSeed(config.seed, 0x1AD), [&] {
          return sheet
              .ScrollTo(kOrder5, std::vector<std::string>{}, 0.5, 20)
              .status();
        });
  }
  if (ladder == "heat_map") {
    HV_ASSIGN_OR_RETURN(auto sketch,
                        SampledHeatMap(sheet, "CrsDepTime", "Distance"));
    return Ladder<Histogram2DResult>(
        config, d, "flights", sketch, MixSeed(config.seed, 0x1AD), [&] {
          return sheet.HeatMap("CrsDepTime", "Distance").status();
        });
  }
  // brush: the sampled histogram of a filtered view.
  HV_ASSIGN_OR_RETURN(Spreadsheet view, sheet.FilterRange("DepDelay", 0, 60));
  HV_ASSIGN_OR_RETURN(SketchPtr<HistogramResult> sketch,
                      BrushHistogram(view, "DepDelay"));
  HV_ASSIGN_OR_RETURN(
      LadderResult out,
      Ladder<HistogramResult>(
          config, d, view.dataset_id(), sketch, MixSeed(config.seed, 0x1AD),
          [&] {
            auto stream = view.HistogramStream("DepDelay");
            HV_RETURN_IF_ERROR(stream.status());
            (void)stream.value()->BlockingLast();
            return stream.value()->final_status();
          }));
  HV_ASSIGN_OR_RETURN(out.wasted_share,
                      SupersededShare(d, sheet, MixSeed(config.seed, 0x3A5)));
  return out;
}

// ---------------------------------------------------------------------------

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(values.size() - 1, lo + 1);
  return values[lo] + (values[hi] - values[lo]) * (pos - static_cast<double>(lo));
}

double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

}  // namespace perfbench
