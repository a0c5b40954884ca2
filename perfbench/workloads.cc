// The four closed-loop workloads. Every action goes through the public
// Spreadsheet / RootSession API, renders its chart with render/, and has its
// answer checked: deterministic answers (table pages, exact charts, seed-0
// sketches) must equal the bytes of the first warm-up pass, pages must be
// sorted under their order, and every histogram's tallies must add up to the
// rows it scanned, which must equal the view's row count for exact charts and
// lie within a binomial bound of rate x row count for sampled ones.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <optional>
#include <utility>

#include "bench.h"
#include "render/chart.h"
#include "render/plan.h"
#include "workload/operations.h"
#include "util/random.h"
#include "util/serialize.h"

namespace perfbench {

using namespace hillview;  // NOLINT(build/namespaces): benchmark-local file

namespace {

using Clock = std::chrono::steady_clock;

double MsSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

/// Keeps rendered output observable so the compiler cannot drop it.
std::atomic<size_t> g_render_sink{0};

template <typename T>
std::vector<uint8_t> Bytes(const T& value) {
  ByteWriter w;
  value.Serialize(&w);
  return w.Take();
}

std::vector<uint8_t> DoubleBytes(double v) {
  std::vector<uint8_t> out(sizeof(v));
  std::memcpy(out.data(), &v, sizeof(v));
  return out;
}

/// The first failed check of one action.
struct Check {
  std::string failure;
  void Fail(const std::string& why) {
    if (failure.empty()) failure = why;
  }
  bool ok() const { return failure.empty(); }
};

void CheckPage(const NextItemsResult& page, const RecordOrder& order,
               int max_rows, Check* check) {
  const auto& orient = order.orientations();
  if (page.rows.empty() || static_cast<int>(page.rows.size()) > max_rows) {
    check->Fail("page has " + std::to_string(page.rows.size()) + " rows");
    return;
  }
  for (size_t i = 0; i < page.rows.size(); ++i) {
    const RowSnapshot& row = page.rows[i];
    if (row.count < 1 || row.values.size() < orient.size()) {
      check->Fail("malformed page row");
      return;
    }
    if (i == 0) continue;
    const RowSnapshot& prev = page.rows[i - 1];
    int cmp = 0;
    for (size_t c = 0; c < orient.size() && cmp == 0; ++c) {
      cmp = CompareValues(prev.values[c], row.values[c]);
      if (!orient[c].ascending) cmp = -cmp;
    }
    if (cmp >= 0) {
      check->Fail("page rows not strictly sorted under their order");
      return;
    }
  }
}

/// The rows a chart scanned, to be held against its view's row count once
/// the answer's coverage is known (a degraded answer scanned fewer).
struct Scan {
  int64_t rows_scanned = 0;
  double rate = 1;
  int64_t view_rows = 0;
};

/// A chart sampled at `rate` keeps each of the view's rows independently
/// with that probability, so the rows it scanned are binomial: all of them
/// at rate 1, otherwise within 6 standard deviations of rate x view_rows (a
/// false alarm about once in 5e8 checks). `view_rows` comes from a separate
/// seed-0 sketch, so a filter or a sampler that keeps the wrong rows fails
/// here even though the chart's tallies add up.
void CheckScan(const Scan& scan, Check* check) {
  if (!(scan.rate > 0 && scan.rate <= 1)) {
    return check->Fail("sample rate not in (0, 1]");
  }
  const double n = static_cast<double>(scan.view_rows);
  const double slack =
      scan.rate >= 1 ? 0 : 6 * std::sqrt(n * scan.rate * (1 - scan.rate)) + 1;
  if (std::abs(static_cast<double>(scan.rows_scanned) - scan.rate * n) >
      slack) {
    check->Fail("scanned " + std::to_string(scan.rows_scanned) +
                " rows at rate " + std::to_string(scan.rate) + " of a " +
                std::to_string(scan.view_rows) + "-row view");
  }
}

/// Checks that the tallies add up to the rows scanned; returns the scan.
Scan CheckHistogram(const HistogramResult& h, int64_t view_rows,
                    Check* check) {
  const Scan scan{h.rows_scanned, h.sample_rate, view_rows};
  if (h.counts.empty()) {
    check->Fail("histogram has no buckets");
    return scan;
  }
  int64_t total = h.missing + h.out_of_range;
  for (int64_t c : h.counts) {
    if (c < 0) check->Fail("negative histogram count");
    total += c;
  }
  if (total != h.rows_scanned) {
    check->Fail("histogram tallies do not add up to rows scanned");
  }
  return scan;
}

Scan CheckHistogram2D(const Histogram2DResult& h, int64_t view_rows,
                      Check* check) {
  const Scan scan{h.rows_scanned, h.sample_rate, view_rows};
  if (h.x_counts.empty() ||
      h.xy.size() != static_cast<size_t>(h.x_buckets) * h.y_buckets) {
    check->Fail("malformed 2D histogram");
    return scan;
  }
  int64_t bars = 0, cells = 0;
  for (int64_t c : h.x_counts) bars += c;
  for (int64_t c : h.xy) cells += c;
  if (bars + h.missing_x + h.out_of_range != h.rows_scanned ||
      cells + h.missing_y != bars) {
    check->Fail("2D histogram tallies do not add up");
  }
  return scan;
}

/// A range filter on `column` keeps only present values in [lo, hi].
void CheckFiltered(const RangeResult& range, double lo, double hi,
                   Check* check) {
  if (range.missing_count != 0 ||
      (range.present_count > 0 && (range.min < lo || range.max > hi))) {
    check->Fail("filtered view holds values outside [" + std::to_string(lo) +
                ", " + std::to_string(hi) + "]");
  }
}

const RecordOrder& OrderFor(int op) {
  static const RecordOrder kOrder1({{"DepDelay", true}});
  static const RecordOrder kOrder5({{"Year", true},
                                    {"Month", true},
                                    {"DayOfMonth", true},
                                    {"DepDelay", true},
                                    {"Distance", true}});
  static const RecordOrder kOrderString({{"Origin", true}});
  return op == 1 ? kOrder1 : op == 3 ? kOrderString : kOrder5;
}

constexpr int kPageRows = 20;

/// Partial-result observer of one progressive stream. The callback runs on
/// the producer's thread under the stream lock.
struct StreamWatch {
  explicit StreamWatch(Clock::time_point issued) : issued(issued) {}
  const Clock::time_point issued;
  Mutex mu;
  int partials GUARDED_BY(mu) = 0;
  double first_ms GUARDED_BY(mu) = -1;
};

using HistogramStreamPtr = StreamPtr<PartialResult<HistogramResult>>;

std::shared_ptr<StreamWatch> Watch(const HistogramStreamPtr& stream,
                                   Clock::time_point issued) {
  auto watch = std::make_shared<StreamWatch>(issued);
  stream->Subscribe([watch](const PartialResult<HistogramResult>&) {
    MutexLock lock(watch->mu);
    if (watch->partials++ == 0) watch->first_ms = MsSince(watch->issued);
  });
  return watch;
}

/// Shared plumbing: reference answers, checks, spans, renders.
class RunnerBase : public WorkloadRunner {
 public:
  explicit RunnerBase(const Config& config) : config_(config) {}

 protected:
  /// Compares `bytes` with the reference recorded under `key` by the first
  /// warm-up (which records it). The map is written only while warming up,
  /// which is single-threaded, and read-only afterwards.
  void Expect(const std::string& key, std::vector<uint8_t> bytes,
              Check* check) {
    auto it = refs_.find(key);
    if (it == refs_.end()) {
      if (frozen_) return check->Fail("no reference answer for " + key);
      refs_.emplace(key, std::move(bytes));
      return;
    }
    if (it->second != bytes) check->Fail(key + " differs from its reference");
  }

  template <typename F>
  auto Call(const char* layer, const char* name, F&& f) {
    ScopedSpan span(tracer_, layer, name);
    return f();
  }

  /// Render calls run under a "render" span.
  template <typename F>
  void Render(const char* name, F&& f) {
    ScopedSpan span(tracer_, "render", name);
    g_render_sink.fetch_add(f(), std::memory_order_relaxed);
  }

  void RenderPage(const NextItemsResult& page) {
    Render("table", [&] {
      size_t chars = 0;
      for (const auto& row : page.rows) {
        for (const auto& v : row.values) chars += ValueToString(v).size();
      }
      return chars;
    });
  }

  void RenderHist(const HistogramResult& h, const Spreadsheet& sheet) {
    Render("histogram", [&] {
      return RenderHistogram(h, sheet.screen()).bar_heights.size();
    });
  }

  void RenderCdfChart(const HistogramResult& h, const Spreadsheet& sheet) {
    Render("cdf", [&] { return RenderCdf(h, sheet.screen()).pixel_y.size(); });
  }

  /// Awaits a progressive histogram: the first partial stamps the action's
  /// first chart, the final value is returned.
  Status AwaitStream(const HistogramStreamPtr& stream,
                     const std::shared_ptr<StreamWatch>& watch, Action* a,
                     HistogramResult* out) {
    std::optional<PartialResult<HistogramResult>> last;
    {
      ScopedSpan span(tracer_, "reactive", "await");
      last = stream->BlockingLast();
    }
    HV_RETURN_IF_ERROR(stream->final_status());
    if (!last.has_value()) return Status::Internal("stream had no result");
    MutexLock lock(watch->mu);
    ++a->streams;
    a->partials += watch->partials;
    if (last->coverage < 1.0) a->degraded = true;
    *out = last->value;
    return Status::OK();
  }

  static void Settle(Action* a, const Status& status, const Check& check) {
    if (!status.ok()) {
      a->error = status.ToString();
    } else if (!check.ok()) {
      a->wrong = true;
      a->error = check.failure;
    } else {
      a->answered = true;
    }
  }

  const Config config_;
  std::map<std::string, std::vector<uint8_t>> refs_;
  bool frozen_ = false;
};

// ---------------------------------------------------------------------------
// explore: the paper's O1-O11 (Fig 5), one analyst, mirrored from
// workload::RunHillviewOperation so each answer can be rendered and checked.

class ExploreRunner : public RunnerBase {
 public:
  using RunnerBase::RunnerBase;

  Status WarmUp(Deployment& d) override {
    Result<int64_t> rows = d.sheets[0]->RowCount();
    HV_RETURN_IF_ERROR(rows.status());
    if (rows.value() != static_cast<int64_t>(config_.rows)) {
      return Status::Internal("row count " + std::to_string(rows.value()) +
                              " != rows spilled");
    }
    for (int op = 1; op <= workload::kNumOperations; ++op) {
      Action a = RunOp(d, 0, op);
      if (!a.answered) {
        return Status::Internal(std::string("warm-up ") +
                                workload::OperationName(op) + ": " + a.error);
      }
    }
    frozen_ = true;
    return Status::OK();
  }

  Action RunAction(Deployment& d, int tenant, int64_t index) override {
    return RunOp(d, tenant,
                 static_cast<int>(index % workload::kNumOperations) + 1);
  }

  std::string LadderName() const override { return "quantile"; }

 protected:
  bool streams_ = true;  // O5/O6 stream their histogram

  Action RunOp(Deployment& d, int tenant, int op) {
    Action a;
    a.tenant = tenant;
    a.kind = op;
    Spreadsheet& sheet = *d.sheets[static_cast<size_t>(tenant)];
    (void)sheet.TakeViewCoverage();
    Check check;
    double coverage = 1.0;
    Answers answers;
    const Clock::time_point start = Clock::now();
    Status status;
    {
      ScopedSpan span(tracer_, "action", workload::OperationName(op));
      status = DoOp(sheet, op, start, &a, &check, &coverage, &answers);
    }
    a.ms = MsSince(start);
    coverage = std::min(coverage, sheet.TakeViewCoverage());
    a.degraded = a.degraded || coverage < 1.0;
    // A degraded answer covers part of the data; only a full-coverage one
    // can be held to the reference bytes and the view's row count.
    if (status.ok() && !a.degraded) {
      for (auto& [key, bytes] : answers.bytes) {
        Expect(key, std::move(bytes), &check);
      }
      for (const Scan& scan : answers.scans) CheckScan(scan, &check);
    }
    Settle(&a, status, check);
    return a;
  }

 private:
  /// An action's answers, checked once its coverage is known.
  struct Answers {
    std::vector<std::pair<std::string, std::vector<uint8_t>>> bytes;
    std::vector<Scan> scans;
  };

  /// O5/O6: a progressive histogram and a CDF of `column` over a view of
  /// `view_rows` rows. Without streams (recover) the histogram is asked for
  /// through the blocking path, and it is the action's first chart.
  Status ProgressiveHistogram(Spreadsheet& sheet, const std::string& column,
                              int64_t view_rows, Clock::time_point start,
                              Action* a, Check* check, Answers* answers) {
    HistogramResult hist;
    if (streams_) {
      auto stream = Call("spreadsheet", "HistogramStream",
                         [&] { return sheet.HistogramStream(column); });
      HV_RETURN_IF_ERROR(stream.status());
      auto watch = Watch(stream.value(), start);
      HV_RETURN_IF_ERROR(AwaitStream(stream.value(), watch, a, &hist));
      MutexLock lock(watch->mu);
      a->first_partial_ms = watch->first_ms;
    } else {
      auto h = Call("spreadsheet", "Histogram",
                    [&] { return sheet.Histogram(column); });
      HV_RETURN_IF_ERROR(h.status());
      a->first_partial_ms = MsSince(start);
      hist = h.Take();
    }
    answers->scans.push_back(CheckHistogram(hist, view_rows, check));
    RenderHist(hist, sheet);
    auto cdf = Call("spreadsheet", "Cdf", [&] { return sheet.Cdf(column); });
    HV_RETURN_IF_ERROR(cdf.status());
    answers->scans.push_back(CheckHistogram(cdf.value(), view_rows, check));
    RenderCdfChart(cdf.value(), sheet);
    return Status::OK();
  }

  Status DoOp(Spreadsheet& sheet, int op, Clock::time_point start, Action* a,
              Check* check, double* coverage, Answers* answers) {
    const std::string key = workload::OperationName(op);
    const auto rows = static_cast<int64_t>(config_.rows);
    switch (op) {
      case 1:
      case 2:
      case 3:
      case 4: {
        const RecordOrder& order = OrderFor(op);
        auto page =
            op == 4 ? Call("spreadsheet", "ScrollTo",
                           [&] {
                             return sheet.ScrollTo(
                                 order, std::vector<std::string>{}, 0.5,
                                 kPageRows);
                           })
                    : Call("spreadsheet", "TableView", [&] {
                        return sheet.TableView(order,
                                               std::vector<std::string>{},
                                               std::nullopt, kPageRows);
                      });
        HV_RETURN_IF_ERROR(page.status());
        CheckPage(page.value(), order, kPageRows, check);
        // O4's page starts at a sampled quantile, so only its order holds.
        if (op != 4) answers->bytes.emplace_back(key, Bytes(page.value()));
        RenderPage(page.value());
        return Status::OK();
      }
      case 5:
        return ProgressiveHistogram(sheet, "DepDelay", rows, start, a, check,
                                    answers);
      case 6: {
        auto view = Call("spreadsheet", "FilterRange", [&] {
          return sheet.FilterRange("DepDelay", 0, 60);
        });
        HV_RETURN_IF_ERROR(view.status());
        Spreadsheet filtered = view.Take();
        if (!frozen_) {
          // The first warm-up checks the filter once and records the
          // filtered view's row count for every later O6.
          HV_ASSIGN_OR_RETURN(RangeResult kept,
                              filtered.ColumnRange("DepDelay"));
          CheckFiltered(kept, 0, 60, check);
          HV_ASSIGN_OR_RETURN(o6_rows_, filtered.RowCount());
        }
        Status s = ProgressiveHistogram(filtered, "ArrDelay", o6_rows_, start,
                                        a, check, answers);
        *coverage = std::min(*coverage, filtered.TakeViewCoverage());
        return s;
      }
      case 7: {
        auto hist = Call("spreadsheet", "Histogram",
                         [&] { return sheet.Histogram("Origin"); });
        HV_RETURN_IF_ERROR(hist.status());
        answers->scans.push_back(CheckHistogram(hist.value(), rows, check));
        RenderHist(hist.value(), sheet);
        return Status::OK();
      }
      case 8: {
        auto items = Call("spreadsheet", "HeavyHitters", [&] {
          return sheet.HeavyHitters("Origin", 100, /*sampled=*/true);
        });
        HV_RETURN_IF_ERROR(items.status());
        for (size_t i = 0; i < items.value().size(); ++i) {
          if (items.value()[i].count <= 0 ||
              (i > 0 && items.value()[i].count > items.value()[i - 1].count)) {
            check->Fail("heavy hitters not sorted by descending count");
          }
        }
        Render("heavy_hitters", [&] {
          size_t chars = 0;
          for (const auto& item : items.value()) {
            chars += ValueToString(item.value).size();
          }
          return chars;
        });
        return Status::OK();
      }
      case 9: {
        auto distinct = Call("spreadsheet", "DistinctCount",
                             [&] { return sheet.DistinctCount("FlightNumber"); });
        HV_RETURN_IF_ERROR(distinct.status());
        if (!std::isfinite(distinct.value()) || distinct.value() <= 0) {
          check->Fail("distinct count is not a positive number");
        }
        answers->bytes.emplace_back(key, DoubleBytes(distinct.value()));
        return Status::OK();
      }
      case 10: {
        auto stacked = Call("spreadsheet", "StackedHistogram", [&] {
          return sheet.StackedHistogram("CrsDepTime", "Airline");
        });
        HV_RETURN_IF_ERROR(stacked.status());
        answers->scans.push_back(
            CheckHistogram2D(stacked.value(), rows, check));
        Render("stacked_histogram", [&] {
          return RenderStackedHistogram(stacked.value(), sheet.screen(), false)
              .bar_heights.size();
        });
        auto cdf = Call("spreadsheet", "Cdf",
                        [&] { return sheet.Cdf("CrsDepTime"); });
        HV_RETURN_IF_ERROR(cdf.status());
        answers->scans.push_back(CheckHistogram(cdf.value(), rows, check));
        RenderCdfChart(cdf.value(), sheet);
        return Status::OK();
      }
      case 11: {
        auto heat = Call("spreadsheet", "HeatMap", [&] {
          return sheet.HeatMap("DepDelay", "ArrDelay");
        });
        HV_RETURN_IF_ERROR(heat.status());
        answers->scans.push_back(CheckHistogram2D(heat.value(), rows, check));
        Render("heat_map",
               [&] { return RenderHeatMap(heat.value()).color.size(); });
        return Status::OK();
      }
      default:
        return Status::InvalidArgument("unknown operation");
    }
  }

  int64_t o6_rows_ = 0;  // rows of O6's filtered view, from the first warm-up
};

// ---------------------------------------------------------------------------
// recover: the explore loop under a seeded FaultPlan.
//
// Only RootSession::RunSketch retries lost messages and heals a restarted
// worker by replaying the redo log. RunSketchStream does neither, and
// MapDataSet (O6's filter) fails on a restarted worker until a query has
// replayed, so the measured loop asks for O5/O6's histograms through the
// blocking path and restarts a worker just before O1, whose query heals it.
// The stream failures this avoids are measured apart, in the traced run
// (cluster.remote.stream_failed_share).

class RecoverRunner : public ExploreRunner {
 public:
  explicit RecoverRunner(const Config& config) : ExploreRunner(config) {
    streams_ = false;
  }

  /// A worker crash-restarts before every kRestartEvery-th action, an O1.
  static constexpr int64_t kRestartEvery = 2 * workload::kNumOperations;
  /// The stream probe: explore actions with streams, under the same faults,
  /// and a restart before every kProbeRestartEvery-th action whatever it is.
  static constexpr int64_t kProbeActions = 30 * workload::kNumOperations;
  static constexpr int64_t kProbeRestartEvery = 30;

  Status BeginMeasure(Deployment& d) override {
    cluster::FaultPlan plan;
    plan.seed = MixSeed(config_.seed, 0xFA17);
    plan.down.drop = 0.004;
    plan.up.drop = 0.008;
    // One mute window: 12 consecutive summaries from one worker vanish, so
    // three RPCs in a row exhaust their retries (trip), a probe fails, and
    // the next probe closes the breaker again.
    const int muted = static_cast<int>(config_.seed % config_.workers);
    plan.schedule.push_back(cluster::ScriptedFault::Mute(
        muted, cluster::Direction::kUp, 200, 212));
    d.network.InstallFaultInjector(
        std::make_shared<cluster::FaultInjector>(plan));
    return Status::OK();
  }

  Action RunAction(Deployment& d, int tenant, int64_t index) override {
    if (index % kRestartEvery == workload::kNumOperations) {
      const int worker =
          static_cast<int>((index / kRestartEvery) % config_.workers);
      Call("cluster", "RestartWorker",
           [&] { d.sessions[0]->RestartWorker(worker); });
    }
    if (tracer_ == nullptr) return ExploreRunner::RunAction(d, tenant, index);
    // Traced: attribute fault handling to the action that paid for it.
    const Counters before = ReadCounters(d);
    Action a = ExploreRunner::RunAction(d, tenant, index);
    const Counters after = ReadCounters(d);
    a.recovered = a.degraded || after.faults.dropped > before.faults.dropped ||
                  after.replays > before.replays ||
                  after.health.fast_fails > before.health.fast_fails;
    return a;
  }

  Result<double> StreamFailedShare(Deployment& d) override {
    HV_RETURN_IF_ERROR(BeginMeasure(d));  // a fresh injector, same plan
    streams_ = true;
    int64_t streamed = 0, failed = 0;
    for (int64_t i = 0; i < kProbeActions; ++i) {
      if (i % kProbeRestartEvery == kProbeRestartEvery / 2) {
        d.sessions[0]->RestartWorker(
            static_cast<int>((i / kProbeRestartEvery) % config_.workers));
      }
      const int op = static_cast<int>(i % workload::kNumOperations) + 1;
      const Action a = RunOp(d, 0, op);
      if (op == 5 || op == 6) {
        ++streamed;
        failed += a.answered ? 0 : 1;
      }
    }
    streams_ = false;
    return static_cast<double>(failed) / static_cast<double>(streamed);
  }
};

// ---------------------------------------------------------------------------
// dashboard: 4 tenants on one Cluster, four shared exact views and one
// private sampled heat map each.

class DashboardRunner : public RunnerBase {
 public:
  using RunnerBase::RunnerBase;
  // Four shared views to one private one: with an odd number of equally
  // frequent views the median action lies inside one cached view's own
  // latencies, not in the gap between two of them, where it would jump.
  static constexpr int kShared = 4;
  static constexpr int kViews = kShared + 1;

  Status WarmUp(Deployment& d) override {
    for (int t = 0; t < config_.tenants; ++t) {
      for (int v = 0; v < kViews; ++v) {
        Action a = RunView(d, t, v, /*iteration=*/0);
        if (!a.answered) {
          return Status::Internal("warm-up view " + std::to_string(v) + ": " +
                                  a.error);
        }
      }
    }
    frozen_ = true;
    return Status::OK();
  }

  Action RunAction(Deployment& d, int tenant, int64_t index) override {
    // Tenants start at different views so they do not move in lock step.
    return RunView(d, tenant, static_cast<int>((index + tenant) % kViews),
                   index + 1);
  }

  std::string LadderName() const override { return "heat_map"; }

 private:
  Action RunView(Deployment& d, int tenant, int view, int64_t iteration) {
    Action a;
    a.tenant = tenant;
    a.kind = view;
    Spreadsheet& sheet = *d.sheets[static_cast<size_t>(tenant)];
    (void)sheet.TakeViewCoverage();
    const std::string key = "view" + std::to_string(view);
    std::optional<HistogramResult> hist;
    std::optional<Histogram2DResult> grid;
    cluster::RootSession::QueryStats stats;
    const Clock::time_point start = Clock::now();
    Status status;
    {
      ScopedSpan span(tracer_, "action", key.c_str());
      status = [&]() -> Status {
        switch (view) {
          case 0: {
            auto h = Call("spreadsheet", "Histogram", [&] {
              return sheet.Histogram("DepDelay", /*exact=*/true);
            });
            HV_RETURN_IF_ERROR(h.status());
            RenderHist(h.value(), sheet);
            hist = h.Take();
            return Status::OK();
          }
          case 1: {
            auto h = Call("spreadsheet", "Cdf", [&] {
              return sheet.Cdf("Distance", /*exact=*/true);
            });
            HV_RETURN_IF_ERROR(h.status());
            RenderCdfChart(h.value(), sheet);
            hist = h.Take();
            return Status::OK();
          }
          case 2: {
            auto h = Call("spreadsheet", "StackedHistogram", [&] {
              return sheet.StackedHistogram("DayOfWeek", "Airline",
                                            /*exact=*/true);
            });
            HV_RETURN_IF_ERROR(h.status());
            Render("stacked_histogram", [&] {
              return RenderStackedHistogram(h.value(), sheet.screen(), true)
                  .bar_heights.size();
            });
            grid = h.Take();
            return Status::OK();
          }
          case 3: {
            auto h = Call("spreadsheet", "Histogram", [&] {
              return sheet.Histogram("ArrDelay", /*exact=*/true);
            });
            HV_RETURN_IF_ERROR(h.status());
            RenderHist(h.value(), sheet);
            hist = h.Take();
            return Status::OK();
          }
          default: {
            auto h = PrivateHeatMap(d, tenant, iteration, &stats);
            HV_RETURN_IF_ERROR(h.status());
            Render("heat_map",
                   [&] { return RenderHeatMap(h.value()).color.size(); });
            grid = h.Take();
            return Status::OK();
          }
        }
      }();
    }
    a.ms = MsSince(start);
    // No dashboard view is progressive: its first chart is its final one.
    // Recording it for the uncached private class keeps first_partial_p50_ms
    // meaningful here (the per-class latency a mixed median hides).
    if (view == kShared) a.first_partial_ms = a.ms;
    a.degraded = std::min(sheet.TakeViewCoverage(), stats.coverage) < 1.0;
    // Checked after the clock stops: a cached view takes only microseconds.
    Check check;
    if (status.ok()) {
      const auto rows = static_cast<int64_t>(config_.rows);
      const Scan scan = hist ? CheckHistogram(*hist, rows, &check)
                             : CheckHistogram2D(*grid, rows, &check);
      if (!a.degraded) {
        CheckScan(scan, &check);
        if (view < kShared) Expect(key, hist ? Bytes(*hist) : Bytes(*grid), &check);
      }
    }
    Settle(&a, status, check);
    return a;
  }

  /// The tenant's own sampled heat map, issued through RootSession::RunSketch
  /// with a seed drawn from the workload seed, so no two tenants share a
  /// cache key. Departure time and distance have the same range under every
  /// seed (the delay columns' heavy tails do not), so the scan costs the same.
  Result<Histogram2DResult> PrivateHeatMap(
      Deployment& d, int tenant, int64_t iteration,
      cluster::RootSession::QueryStats* stats) {
    HV_ASSIGN_OR_RETURN(
        auto sketch, SampledHeatMap(*d.sheets[static_cast<size_t>(tenant)],
                                    "CrsDepTime", "Distance"));
    const uint64_t seed =
        MixSeed(MixSeed(config_.seed, static_cast<uint64_t>(tenant) + 1),
                static_cast<uint64_t>(iteration));
    return Call("cluster", "RunSketch", [&] {
      return d.sessions[static_cast<size_t>(tenant)]
          ->RunSketch<Histogram2DResult>("flights", sketch, seed,
                                         /*cacheable=*/false, stats);
    });
  }
};

// ---------------------------------------------------------------------------
// brush: one analyst dragging range brushes over numeric histograms.

class BrushRunner : public RunnerBase {
 public:
  using RunnerBase::RunnerBase;

  static constexpr int kRendersPerGesture = 4;
  static constexpr int kDrillEvery = 2;  // every 2nd gesture drills in
  static constexpr int kMaxDepth = 3;    // then the chain resets to the root
  static constexpr int kWarmGestures = kDrillEvery * kMaxDepth;

  Status WarmUp(Deployment& d) override {
    // Every warm-up replays the same gestures, each brushing the middle of
    // its range, so that set-up costs the same under every seed; the
    // measured gestures draw their ranges from the seed.
    rng_ = Random(MixSeed(config_.seed, 0xB2054));
    chain_ = Chain{};
    gesture_ = 0;
    chains_ = 0;
    spans_.clear();
    static const char* kColumns[] = {"DepDelay", "ArrDelay", "Distance",
                                     "AirTime"};
    Spreadsheet& root = *d.sheets[0];
    for (const char* column : kColumns) {
      HV_ASSIGN_OR_RETURN(RangeResult range, root.ColumnRange(column));
      const double sd = std::sqrt(std::max(0.0, range.Variance()));
      spans_.push_back({column, std::max(range.min, range.Mean() - 2 * sd),
                        std::min(range.max, range.Mean() + 2 * sd)});
    }
    for (int g = 0; g < kWarmGestures; ++g) {
      Action a = Gesture(d, /*warm_up=*/true);
      if (!a.answered) return Status::Internal("warm-up gesture: " + a.error);
    }
    return Status::OK();
  }

  Action RunAction(Deployment& d, int tenant, int64_t index) override {
    (void)tenant;
    (void)index;
    return Gesture(d, /*warm_up=*/false);
  }

  std::string LadderName() const override { return "brush_histogram"; }

 private:
  struct ColumnSpan {
    std::string column;
    double lo, hi;
  };
  /// The view the next gesture brushes: the root, or a kept filter.
  struct Chain {
    std::optional<Spreadsheet> base;
    int column = 0;
    double lo = 0, hi = 0;
    int depth = 0;
  };
  struct Pending {
    HistogramStreamPtr stream;
    std::shared_ptr<StreamWatch> watch;
    std::optional<Spreadsheet> view;
  };

  Action Gesture(Deployment& d, bool warm_up) {
    Action a;
    Check check;
    Spreadsheet& root = *d.sheets[0];
    cluster::RootSession& session = *d.sessions[0];
    if (chain_.depth == 0) {
      // Chains take the columns in turn, so every seed brushes the same mix
      // of columns; only the ranges come from the seed.
      chain_.base.reset();
      chain_.column = static_cast<int>(chains_++ % spans_.size());
      chain_.lo = spans_[static_cast<size_t>(chain_.column)].lo;
      chain_.hi = spans_[static_cast<size_t>(chain_.column)].hi;
    }
    a.kind = chain_.depth;
    Spreadsheet& base = chain_.base ? *chain_.base : root;
    const std::string& column = spans_[static_cast<size_t>(chain_.column)].column;
    // A drag: the brush starts at `lo` and its far edge moves right, one
    // render per step, each superseding the one before.
    const double span = chain_.hi - chain_.lo;
    const double u_width = warm_up ? 0.5 : rng_.NextDouble();
    const double u_lo = warm_up ? 0.5 : rng_.NextDouble();
    const double width = span * (0.3 + 0.5 * u_width);
    const double lo = chain_.lo + (span - width) * u_lo;
    std::vector<Pending> renders;
    Clock::time_point last_issue;
    double shown_hi = 0;
    HistogramResult hist;
    Status status;
    {
      ScopedSpan gesture_span(tracer_, "action", "gesture");
      for (int r = 0; r < kRendersPerGesture && status.ok(); ++r) {
        const double hi = lo + width * (r + 1) / kRendersPerGesture;
        const Clock::time_point issued = Clock::now();
        if (r == kRendersPerGesture - 1) {
          last_issue = issued;
          shown_hi = hi;
        }
        auto token = Call("cluster", "BeginRender",
                          [&] { return session.BeginRender("brush"); });
        auto view = Call("spreadsheet", "FilterRange",
                         [&] { return base.FilterRange(column, lo, hi); });
        if (!view.ok()) {
          status = view.status();
          break;
        }
        auto stream = Call("spreadsheet", "HistogramStream", [&] {
          return view.value().HistogramStream(column, token);
        });
        if (!stream.ok()) {
          status = stream.status();
          break;
        }
        renders.push_back(
            {stream.value(), Watch(stream.value(), issued), view.Take()});
      }
      a.renders = static_cast<int>(renders.size());
      if (status.ok()) {
        Pending& shown = renders.back();
        status = AwaitStream(shown.stream, shown.watch, &a, &hist);
        if (status.ok()) {
          RenderHist(hist, *shown.view);
          a.ms = MsSince(last_issue);
          MutexLock lock(shown.watch->mu);
          a.first_partial_ms = shown.watch->first_ms;
        }
      }
      // Only the last render's chart is shown; the superseded ones settle
      // Cancelled, or finished before the next render began.
      const size_t superseded =
          renders.size() == static_cast<size_t>(kRendersPerGesture)
              ? renders.size() - 1
              : renders.size();
      for (size_t r = 0; r < superseded; ++r) {
        ScopedSpan span(tracer_, "reactive", "await_superseded");
        (void)renders[r].stream->BlockingLast();
        Status s = renders[r].stream->final_status();
        if (s.code() == StatusCode::kCancelled) {
          ++a.cancelled;
        } else if (!s.ok() && status.ok()) {
          status = s;
        }
      }
    }
    // Checked after the clock stops, against the shown view's own range:
    // HistogramStream planned from it, so it is a cache hit, and its
    // TotalRows() is the view's exact row count.
    if (status.ok()) {
      Result<RangeResult> range = renders.back().view->ColumnRange(column);
      if (range.ok()) {
        CheckFiltered(range.value(), lo, shown_hi, &check);
        CheckScan(CheckHistogram(hist, range.value().TotalRows(), &check),
                  &check);
      } else {
        status = range.status();
      }
    }
    ++gesture_;
    if (status.ok() && gesture_ % kDrillEvery == 0) {
      if (chain_.depth + 1 >= kMaxDepth) {
        chain_.depth = 0;
      } else {
        chain_.base = renders.back().view;
        chain_.lo = lo;
        chain_.hi = lo + width;
        ++chain_.depth;
      }
    }
    Settle(&a, status, check);
    return a;
  }

  Random rng_{0};
  std::vector<ColumnSpan> spans_;
  Chain chain_;
  int64_t gesture_ = 0;
  int64_t chains_ = 0;
};

}  // namespace

Result<SketchPtr<Histogram2DResult>> SampledHeatMap(Spreadsheet& sheet,
                                                    const std::string& x,
                                                    const std::string& y) {
  HV_ASSIGN_OR_RETURN(RangeResult x_range, sheet.ColumnRange(x));
  HV_ASSIGN_OR_RETURN(RangeResult y_range, sheet.ColumnRange(y));
  HeatMapPlan plan = PlanHeatMap(static_cast<uint64_t>(x_range.TotalRows()),
                                 sheet.screen(), /*exact=*/false);
  return SketchPtr<Histogram2DResult>(std::make_shared<Histogram2DSketch>(
      x, Buckets(PlanNumericBuckets(x_range, plan.x_bins)), y,
      Buckets(PlanNumericBuckets(y_range, plan.y_bins)), plan.sample_rate));
}

std::unique_ptr<WorkloadRunner> MakeRunner(const Config& config) {
  switch (config.workload) {
    case Workload::kExplore:
      return std::make_unique<ExploreRunner>(config);
    case Workload::kDashboard:
      return std::make_unique<DashboardRunner>(config);
    case Workload::kBrush:
      return std::make_unique<BrushRunner>(config);
    case Workload::kRecover:
      return std::make_unique<RecoverRunner>(config);
  }
  return nullptr;
}

}  // namespace perfbench
