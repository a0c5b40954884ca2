// perfbench: runs one workload of the end-to-end benchmark and prints one
// JSON record (context, answer check, metrics) as its last stdout line.
//
//   perfbench --workload explore|dashboard|brush|recover --seed N
//             --seconds S --trace 0|1 --data-dir DIR
//
// --trace 0 measures the end-to-end metrics with tracing off. --trace 1
// measures half the time untraced and half traced on a fresh deployment,
// derives the per-layer metrics from the traced half, runs the sketch
// ladder, and reports traced-minus-untraced as the tracing overhead.

#include <fcntl.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <limits>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "bench.h"
#include "storage/simd_dispatch.h"
#include "workload/flights.h"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double CpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + tv.tv_usec / 1e6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::string Sanitizer() {
#if defined(__SANITIZE_ADDRESS__)
  return "address";
#elif defined(__SANITIZE_THREAD__)
  return "thread";
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
  return "address";
#elif __has_feature(thread_sanitizer)
  return "thread";
#elif __has_feature(memory_sanitizer)
  return "memory";
#else
  return "none";
#endif
#else
  return "none";
#endif
}

// -- Minimal JSON output. ---------------------------------------------------

std::string Num(double v) {
  if (!std::isfinite(v)) v = 0;
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string Str(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

/// An ordered JSON object built field by field.
class Obj {
 public:
  Obj& Add(const std::string& key, const std::string& raw) {
    out_ += (out_.empty() ? "" : ",") + Str(key) + ":" + raw;
    return *this;
  }
  Obj& Num(const std::string& key, double v) { return Add(key, perfbench::Num(v)); }
  Obj& Int(const std::string& key, int64_t v) {
    return Add(key, std::to_string(v));
  }
  Obj& Text(const std::string& key, const std::string& v) {
    return Add(key, Str(v));
  }
  Obj& Bool(const std::string& key, bool v) {
    return Add(key, v ? "true" : "false");
  }
  std::string str() const { return "{" + out_ + "}"; }

 private:
  std::string out_;
};

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

// -- One measured phase. ----------------------------------------------------

// The latency metrics are computed over windows of this many consecutive
// answered actions (in completion order; the last window takes the rest) and
// reported as the median over the windows, so a spell of CPU steal from the
// host's other tenants that covers less than half of the run moves none of
// them. 200 actions leave 10 beyond each window's p95. Rates (actions per
// second, CPU per action) are taken over the whole phase: they are sums, and
// a window holds too few brush chains for their mix of columns and depths to
// even out.
constexpr size_t kWindowActions = 200;

struct Phase {
  std::vector<Action> actions;
  double wall_s = 0;
  double cpu_s = 0;
  uint64_t root_bytes = 0;
  double peak_rss_mb = 0;
};

Phase Measure(const Config& config, Deployment& d, WorkloadRunner& runner,
              double seconds) {
  Phase phase;
  const double cpu_before = CpuSeconds();
  const uint64_t bytes_before = d.network.bytes_received_by_root();
  const Clock::time_point start = Clock::now();
  const Clock::time_point deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  std::vector<std::vector<Action>> per_tenant(
      static_cast<size_t>(config.tenants));
  const auto rss_at = static_cast<int64_t>(config.rss_actions_per_s * seconds);
  auto loop = [&](int tenant) {
    auto& actions = per_tenant[static_cast<size_t>(tenant)];
    for (int64_t i = 0; Clock::now() < deadline; ++i) {
      SetCurrentAction(tenant, i);
      actions.push_back(runner.RunAction(d, tenant, i));
      actions.back().done_s = SecondsSince(start);
      if (tenant == 0 && i + 1 == rss_at) phase.peak_rss_mb = PeakRssMb();
    }
    SetCurrentAction(tenant, -1);
  };
  if (config.tenants == 1) {
    loop(0);
  } else {
    std::vector<std::thread> clients;
    for (int t = 0; t < config.tenants; ++t) clients.emplace_back(loop, t);
    for (auto& c : clients) c.join();
  }
  phase.wall_s = SecondsSince(start);
  phase.cpu_s = CpuSeconds() - cpu_before;
  phase.root_bytes = d.network.bytes_received_by_root() - bytes_before;
  if (phase.peak_rss_mb == 0) phase.peak_rss_mb = PeakRssMb();
  for (auto& actions : per_tenant) {
    phase.actions.insert(phase.actions.end(), actions.begin(), actions.end());
  }
  return phase;
}

struct Tally {
  int64_t attempted = 0, answered = 0, wrong = 0, degraded = 0;
};

Tally Count(const Phase& phase) {
  Tally t;
  for (const Action& a : phase.actions) {
    ++t.attempted;
    t.answered += a.answered;
    t.wrong += a.wrong;
    t.degraded += a.degraded;
  }
  return t;
}

/// The latency metrics of one window of a phase (first_p50_ms is -1 when no
/// action of the window had a first partial chart).
struct Window {
  double p50_ms = 0, p95_ms = 0, first_p50_ms = -1;
  double per_s = 0;  // detail only
};

std::vector<Window> Windows(const Phase& phase) {
  std::vector<const Action*> done;
  for (const Action& a : phase.actions) {
    if (a.answered) done.push_back(&a);
  }
  std::sort(done.begin(), done.end(), [](const Action* x, const Action* y) {
    return x->done_s < y->done_s;
  });
  std::vector<Window> out;
  const size_t windows = std::max<size_t>(1, done.size() / kWindowActions);
  for (size_t w = 0; w < windows && !done.empty(); ++w) {
    const size_t from = w * kWindowActions;
    const size_t to = w + 1 == windows ? done.size() : from + kWindowActions;
    std::vector<double> times, first;
    for (size_t i = from; i < to; ++i) {
      times.push_back(done[i]->ms);
      if (done[i]->first_partial_ms >= 0) {
        first.push_back(done[i]->first_partial_ms);
      }
    }
    const double span_s =
        done[to - 1]->done_s - (from == 0 ? 0.0 : done[from - 1]->done_s);
    out.push_back({Median(times), Quantile(times, 0.95),
                   first.empty() ? -1 : Median(first),
                   span_s > 0 ? static_cast<double>(times.size()) / span_s : 0});
  }
  return out;
}

/// The median over the windows of one window metric, skipping windows
/// where it is undefined (negative).
template <typename F>
double OverWindows(const std::vector<Window>& windows, F field) {
  std::vector<double> values;
  for (const Window& w : windows) {
    if (field(w) >= 0) values.push_back(field(w));
  }
  return Median(values);
}

std::vector<Metric> EndToEnd(const Phase& phase, double setup_s) {
  const Tally t = Count(phase);
  const std::vector<Window> w = Windows(phase);
  const double answered = std::max<int64_t>(1, t.answered);
  const double attempted = std::max<int64_t>(1, t.attempted);
  return {
      {"action_p50_ms",
       OverWindows(w, [](auto& x) { return x.p50_ms; }), "ms"},
      {"action_p95_ms",
       OverWindows(w, [](auto& x) { return x.p95_ms; }), "ms"},
      {"first_partial_p50_ms",
       OverWindows(w, [](auto& x) { return x.first_p50_ms; }), "ms"},
      {"actions_per_s", t.answered / phase.wall_s, "1/s"},
      {"root_kb_per_action", phase.root_bytes / 1024.0 / answered, "KB"},
      {"cpu_ms_per_action", phase.cpu_s * 1e3 / answered, "ms"},
      {"peak_rss_mb", phase.peak_rss_mb, "MB"},
      {"answered_share", t.answered / attempted, "share"},
      {"full_coverage_share", 1.0 - t.degraded / attempted, "share"},
      {"setup_s", setup_s, "s"},
  };
}

/// Per-kind latency and error summary of a phase (stderr / detail only).
std::string Detail(const Phase& phase) {
  std::map<int, std::vector<double>> by_kind;
  std::map<std::string, int> errors;
  int64_t first_samples = 0;
  for (const Action& a : phase.actions) {
    if (a.answered) by_kind[a.kind].push_back(a.ms);
    if (a.answered && a.first_partial_ms >= 0) ++first_samples;
    if (!a.answered) ++errors[a.error.substr(0, 120)];
  }
  Obj kinds;
  for (auto& [kind, times] : by_kind) {
    kinds.Add(std::to_string(kind), Obj()
                                        .Int("n", static_cast<int64_t>(times.size()))
                                        .Num("p50_ms", Median(times))
                                        .Num("p95_ms", Quantile(times, 0.95))
                                        .str());
  }
  Obj errs;
  for (auto& [message, n] : errors) errs.Int(message, n);
  std::string series[4];
  for (const Window& w : Windows(phase)) {
    const double v[4] = {w.p50_ms, w.p95_ms, w.first_p50_ms, w.per_s};
    for (int i = 0; i < 4; ++i) {
      if (!series[i].empty()) series[i] += ',';
      series[i] += perfbench::Num(v[i]);
    }
  }
  const Tally t = Count(phase);
  return Obj()
      .Int("attempted", t.attempted)
      .Int("answered", t.answered)
      .Int("wrong", t.wrong)
      .Int("degraded", t.degraded)
      .Int("first_partial_samples", first_samples)
      .Num("wall_s", phase.wall_s)
      .Add("kinds", kinds.str())
      .Add("errors", errs.str())
      .Add("window_p50_ms", "[" + series[0] + "]")
      .Add("window_p95_ms", "[" + series[1] + "]")
      .Add("window_first_p50_ms", "[" + series[2] + "]")
      .Add("window_actions_per_s", "[" + series[3] + "]")
      .str();
}

// -- Per-layer metrics of the traced phase. ---------------------------------

double Share(double part, double whole) { return whole > 0 ? part / whole : 0; }

std::vector<Metric> PerLayer(const Config& config, const Phase& phase,
                             const Counters& c0, const Counters& c1,
                             const std::map<std::string, int64_t>& kinds,
                             const std::vector<Span>& spans,
                             const std::vector<double>& grant_ms,
                             const std::vector<double>& pool_ms,
                             int64_t scheduler_probes, int64_t query_retries,
                             const LoadStats& loads, const LadderResult& ladder,
                             double stream_failed_share) {
  const double actions = std::max<size_t>(1, phase.actions.size());
  int64_t streams = 0, partials = 0, renders = 0, cancelled = 0;
  for (const Action& a : phase.actions) {
    streams += a.streams;
    partials += a.partials;
    renders += a.renders;
    cancelled += a.cancelled;
  }
  double render_ms = 0;
  for (const Span& s : spans) {
    if (s.layer == "render" && s.action >= 0) render_ms += s.end_ms - s.start_ms;
  }
  const double hits = static_cast<double>(c1.cache.hits - c0.cache.hits);
  const double coalesced =
      static_cast<double>(c1.cache.coalesced_hits - c0.cache.coalesced_hits);
  auto count = [&](const char* kind) {
    auto it = kinds.find(kind);
    return it == kinds.end() ? 0.0 : static_cast<double>(it->second);
  };
  // Every query either is served by the shared cache (hit or adopted from a
  // concurrent flight) or runs, and each run appends a "sketch" redo entry.
  const double queries = hits + coalesced + count("sketch");
  const auto& s0 = c0.scheduler;
  const auto& s1 = c1.scheduler;
  const double shed = static_cast<double>(
      (s1.shed_session_budget - s0.shed_session_budget) +
      (s1.shed_queue_full - s0.shed_queue_full) +
      (s1.shed_unhealthy - s0.shed_unhealthy));
  const double submitted =
      static_cast<double>(s1.submitted - s0.submitted - scheduler_probes);
  // Fairness guard: max/min KB received per tenant session (1 = even).
  double kb_max = 0, kb_min = std::numeric_limits<double>::max();
  for (int t = 0; t < config.tenants; ++t) {
    auto before = c0.traffic.count(t) ? c0.traffic.at(t).bytes_up : 0;
    auto after = c1.traffic.count(t) ? c1.traffic.at(t).bytes_up : 0;
    const double kb = static_cast<double>(after - before) / 1024.0;
    kb_max = std::max(kb_max, kb);
    kb_min = std::min(kb_min, kb);
  }
  const double dropped =
      static_cast<double>(c1.faults.dropped - c0.faults.dropped);
  const double terminal_deadlines =
      static_cast<double>(c1.health.failures - c0.health.failures);
  const double replays = static_cast<double>(c1.replays - c0.replays);
  const double key_lookups = static_cast<double>(
      (c1.key_hits - c0.key_hits) + (c1.key_misses - c0.key_misses));
  const double loads_n = static_cast<double>(loads.loads.load());
  return {
      {"spreadsheet.queries_per_action", queries / actions, "count"},
      {"spreadsheet.maps_per_action", count("map") / actions, "count"},
      {"render.ms_per_action", render_ms / actions, "ms"},
      {"cluster.scheduler.grant_wait_p50_ms", Median(grant_ms), "ms"},
      {"cluster.scheduler.grant_wait_p95_ms", Quantile(grant_ms, 0.95), "ms"},
      {"cluster.scheduler.shed_share", Share(shed, submitted), "share"},
      {"cluster.scheduler.cancelled_in_queue",
       static_cast<double>(s1.cancelled_in_queue - s0.cancelled_in_queue),
       "count"},
      {"cluster.network.msgs_up_per_action",
       static_cast<double>(c1.msgs_up - c0.msgs_up) / actions, "count"},
      {"cluster.network.msgs_down_per_action",
       static_cast<double>(c1.msgs_down - c0.msgs_down) / actions, "count"},
      {"cluster.network.kb_down_per_action",
       static_cast<double>(c1.bytes_down - c0.bytes_down) / 1024.0 / actions,
       "KB"},
      {"cluster.network.session_kb_max_min",
       kb_min > 0 ? kb_max / kb_min : 1.0, "ratio"},
      // Every dropped message costs its RPC either a retry or a terminal
      // deadline (a breaker failure); query-level retries come on top.
      {"cluster.remote.transport_retries",
       std::max(0.0, dropped - terminal_deadlines) +
           static_cast<double>(query_retries),
       "count"},
      {"cluster.remote.replay_heals", replays, "count"},
      {"cluster.remote.stream_failed_share", stream_failed_share, "share"},
      {"cluster.faults.dropped", dropped, "count"},
      {"cluster.health.trips",
       static_cast<double>(c1.health.trips - c0.health.trips), "count"},
      {"cluster.health.fast_fails",
       static_cast<double>(c1.health.fast_fails - c0.health.fast_fails),
       "count"},
      {"cluster.worker.restarts", static_cast<double>(c1.restarts - c0.restarts),
       "count"},
      {"cluster.session.cancelled_share", Share(cancelled, renders), "share"},
      {"core.cache.hit_share", Share(hits, queries), "share"},
      {"core.cache.coalesced_share", Share(coalesced, queries), "share"},
      {"core.cache.evictions",
       static_cast<double>(c1.cache.evictions - c0.cache.evictions), "count"},
      {"core.redo_log.entries",
       static_cast<double>(c1.redo_entries - c0.redo_entries), "count"},
      {"core.redo_log.entries_replayed_per_heal",
       Share(static_cast<double>(c1.entries_replayed - c0.entries_replayed),
             replays),
       "count"},
      {"core.dataset.loads", loads_n, "count"},
      {"reactive.partials_per_stream", Share(partials, streams), "count"},
      {"sketch.summarize_ms_per_query", ladder.summarize_ms_per_query, "ms"},
      {"sketch.summarize_calls_per_query", ladder.summarize_calls_per_query,
       "count"},
      {"sketch.merge_ms_per_query", ladder.merge_ms_per_query, "ms"},
      {"sketch.busy_share", ladder.busy_share, "share"},
      {"sketch.dispatch_p50_ms", ladder.dispatch_p50_ms, "ms"},
      {"sketch.collect_p50_ms", ladder.collect_p50_ms, "ms"},
      {"sketch.wasted_share", ladder.wasted_share, "share"},
      {"storage.key_cache_hit_share",
       Share(static_cast<double>(c1.key_hits - c0.key_hits), key_lookups),
       "share"},
      {"storage.key_cache_mb", static_cast<double>(c1.key_bytes) / (1 << 20),
       "MB"},
      {"storage.load_ms_per_load",
       Share(static_cast<double>(loads.nanos.load()) / 1e6, loads_n), "ms"},
      {"util.pool_wait_p50_ms", Median(pool_ms), "ms"},
      {"util.pool_wait_p95_ms", Quantile(pool_ms, 0.95), "ms"},
  };
}

/// Self time per layer per action: each span minus the part its children
/// cover (children are nested calls on the same thread, so they do not
/// overlap each other).
std::string SelfTimes(const std::vector<Span>& spans, double actions) {
  std::map<int64_t, double> child_ms;
  for (const Span& s : spans) {
    if (s.parent != 0) child_ms[s.parent] += s.end_ms - s.start_ms;
  }
  std::map<std::string, double> self;
  for (const Span& s : spans) {
    if (s.action < 0) continue;
    self[s.layer] += (s.end_ms - s.start_ms) - child_ms[s.id];
  }
  Obj out;
  for (auto& [layer, ms] : self) out.Num(layer, ms / std::max(1.0, actions));
  return out.str();
}

std::string MetricsJson(const std::vector<Metric>& metrics) {
  Obj out;
  for (const Metric& m : metrics) {
    out.Add(m.name, Obj().Num("value", m.value).Text("unit", m.unit).str());
  }
  return out.str();
}

/// Builds and warms up the deployment config.setup_reps times, keeping the
/// last; `*setup_s` is the median. With `loads`, each deployment's loaders
/// count into a fresh LoadStats, and the last one is kept.
Result<std::unique_ptr<Deployment>> SetUp(
    const Config& config,
    const std::vector<hillview::LocalDataSet::Loader>& loaders,
    WorkloadRunner& runner, std::unique_ptr<LoadStats>* loads,
    double* setup_s) {
  std::vector<double> setups;
  std::unique_ptr<Deployment> d;
  for (int rep = 0; rep < config.setup_reps; ++rep) {
    d.reset();
    if (loads != nullptr) *loads = std::make_unique<LoadStats>();
    const Clock::time_point start = Clock::now();
    HV_ASSIGN_OR_RETURN(
        d, CreateDeployment(config, loaders,
                            loads != nullptr ? loads->get() : nullptr));
    HV_RETURN_IF_ERROR(runner.WarmUp(*d));
    setups.push_back(SecondsSince(start));
  }
  *setup_s = Median(setups);
  return d;
}

/// The traced half of a --trace 1 run: a fresh deployment measured with
/// spans, probes and counter snapshots, then the sketch ladder. Returns the
/// per-layer metrics (with the tracing overhead against `untraced`) as JSON.
Result<std::string> TracedHalf(
    const Config& config,
    const std::vector<hillview::LocalDataSet::Loader>& loaders,
    WorkloadRunner& runner, const std::vector<Metric>& untraced, Tally* tally,
    Obj* detail) {
  Tracer tracer;
  std::unique_ptr<LoadStats> loads;
  runner.set_tracer(&tracer);
  double setup_s = 0;
  HV_ASSIGN_OR_RETURN(std::unique_ptr<Deployment> d,
                      SetUp(config, loaders, runner, &loads, &setup_s));
  HV_RETURN_IF_ERROR(runner.BeginMeasure(*d));

  std::atomic<int64_t> query_retries{0};
  std::vector<int64_t> first_entries;
  for (auto& session : d->sessions) {
    session->set_retry_hook([&query_retries](int, const Status& s) {
      if (s.code() == hillview::StatusCode::kDeadlineExceeded) ++query_retries;
    });
    first_entries.push_back(session->redo_log().Snapshot().entries);
  }
  const Counters c0 = ReadCounters(*d);
  Prober prober(d.get());
  Phase traced = Measure(config, *d, runner, config.seconds / 2);
  auto [grant_ms, pool_ms] = prober.Stop();
  const Counters c1 = ReadCounters(*d);
  const auto kinds = RedoKinds(*d, first_entries);
  for (auto& session : d->sessions) session->set_retry_hook(nullptr);
  runner.set_tracer(nullptr);
  d->network.InstallFaultInjector(nullptr);
  HV_ASSIGN_OR_RETURN(LadderResult ladder,
                      RunLadder(config, *d, runner.LadderName()));
  HV_ASSIGN_OR_RETURN(double stream_failed, runner.StreamFailedShare(*d));

  const std::vector<Span> spans = tracer.Spans();
  std::vector<Metric> layers =
      PerLayer(config, traced, c0, c1, kinds, spans, grant_ms, pool_ms,
               prober.scheduler_probes(), query_retries.load(), *loads,
               ladder, stream_failed);
  const std::vector<Metric> traced_e2e = EndToEnd(traced, setup_s);
  for (size_t i = 0; i < untraced.size(); ++i) {
    // The process-wide peak RSS already holds the untraced half's peak, so
    // the traced half's own peak cannot be read apart from it.
    if (untraced[i].name == "peak_rss_mb") continue;
    layers.push_back({"trace.overhead." + untraced[i].name,
                      traced_e2e[i].value - untraced[i].value,
                      untraced[i].unit});
  }
  const Tally t = Count(traced);
  tally->attempted += t.attempted;
  tally->answered += t.answered;
  tally->wrong += t.wrong;
  int64_t recovered = 0;
  for (const Action& a : traced.actions) recovered += a.recovered;
  Obj rungs;
  for (int r = 0; r < 4; ++r) {
    rungs.Num("rung" + std::to_string(r + 1) + "_p50_ms", ladder.rung_ms[r]);
  }
  const double actions = static_cast<double>(traced.actions.size());
  detail->Add("traced", Detail(traced))
      .Add("traced_e2e", MetricsJson(traced_e2e))
      .Add("self_ms_per_action", SelfTimes(spans, actions))
      .Add("ladder", rungs.Text("vizketch", runner.LadderName()).str())
      .Num("recovered_share", Share(static_cast<double>(recovered), actions))
      .Int("spans", static_cast<int64_t>(spans.size()));
  return MetricsJson(layers);
}

int Fail(const char* what, const Status& status) {
  std::fprintf(stderr, "perfbench: %s failed: %s\n", what,
               status.ToString().c_str());
  return 1;
}

int Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "explore|dashboard|brush|recover --seed N --seconds S "
               "--trace 0|1 --data-dir DIR\n",
               why);
  return 2;
}

int Run(int argc, char** argv) {
  Config config;
  std::map<std::string, std::string> args;
  for (int i = 1; i + 1 < argc; i += 2) {
    if (std::strncmp(argv[i], "--", 2) != 0) return Usage("bad argument");
    args[argv[i] + 2] = argv[i + 1];
  }
  if (argc % 2 != 1) return Usage("every flag takes a value");
  static const std::map<std::string, Workload> kWorkloads = {
      {"explore", Workload::kExplore},
      {"dashboard", Workload::kDashboard},
      {"brush", Workload::kBrush},
      {"recover", Workload::kRecover}};
  if (!kWorkloads.count(args["workload"])) return Usage("unknown workload");
  if (args["data-dir"].empty()) return Usage("--data-dir is required");
  config.workload_name = args["workload"];
  config.workload = kWorkloads.at(config.workload_name);
  config.seed = std::strtoull(args["seed"].c_str(), nullptr, 10);
  config.seconds = std::atof(args["seconds"].c_str());
  config.trace = args["trace"] == "1";
  config.data_dir = args["data-dir"];
  if (config.seconds <= 0) return Usage("--seconds must be positive");
  // Two single-thread workers: half the vCPUs of the 4-vCPU machine the
  // bounds were set on. Every query waits for all its workers, so CPU steal
  // on any busy vCPU stalls it; with idle vCPUs left over, 8-second brush
  // runs lost ~3.5% throughput per 1% of steal, against 4-8% with four
  // workers.
  const int nproc = static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
  config.workers = std::min(config.workers, nproc);
  config.tenants = config.workload == Workload::kDashboard ? 4 : 1;
  // Brush's RSS grows with every render and never shrinks, so its peak is
  // read after a fixed number of gestures per measured second, not at the
  // end, where a faster brush would read as a larger peak. 10 is about a
  // fifth of its rate on a calm 4-vCPU host, so even a run that loses a
  // quarter of its CPU to steal (14 gestures/s) gets there.
  if (config.workload == Workload::kBrush) config.rss_actions_per_s = 10;

  const uint64_t partitions =
      (config.rows + config.rows_per_partition - 1) / config.rows_per_partition;
  const std::string context =
      Obj()
          .Text("workload", config.workload_name)
          .Int("seed", static_cast<int64_t>(config.seed))
          .Num("seconds", config.seconds)
          .Bool("trace", config.trace)
          .Int("nproc", nproc)
          .Text("simd", hillview::SimdLevelName(hillview::ActiveSimdLevel()))
          .Text("build_type", PERFBENCH_BUILD_TYPE)
          .Text("compiler", PERFBENCH_COMPILER)
          .Text("cxx_flags", PERFBENCH_CXX_FLAGS)
          .Text("sanitizer", Sanitizer())
          .Int("rows", static_cast<int64_t>(config.rows))
          .Int("partitions", static_cast<int64_t>(partitions))
          .Int("workers", config.workers)
          .Int("threads_per_worker", config.threads_per_worker)
          .Int("tenants", config.tenants)
          .Text("storage", "hvcf-mmap")
          .str();

  // The inputs: the seed's flights partitions, spilled to HVCF and opened
  // through mmap. Spilling is not part of any metric.
  const Clock::time_point spill_start = Clock::now();
  auto loaders = hillview::workload::FlightsFileLoaders(
      config.data_dir, config.rows, config.rows_per_partition,
      hillview::MixSeed(config.seed, 0xF1165), hillview::StorageBackend::kMmap);
  if (!loaders.ok()) return Fail("spill", loaders.status());
  // Flush the fresh files now, so their writeback does not overlap set-up
  // or measurement; the pages stay cached for mmap.
  for (const auto& entry : std::filesystem::directory_iterator(config.data_dir)) {
    const int fd = ::open(entry.path().c_str(), O_RDONLY);
    if (fd >= 0) {
      (void)::fsync(fd);
      ::close(fd);
    }
  }
  const double spill_s = SecondsSince(spill_start);

  std::unique_ptr<WorkloadRunner> runner = MakeRunner(config);
  // setup_s: deployment + LoadDataSet + one warm-up pass, several times.
  double setup_s = 0;
  auto set_up = SetUp(config, loaders.value(), *runner, nullptr, &setup_s);
  if (!set_up.ok()) return Fail("set-up", set_up.status());
  std::unique_ptr<Deployment> d = set_up.Take();
  Status begin = runner->BeginMeasure(*d);
  if (!begin.ok()) return Fail("fault plan", begin);

  Phase untraced =
      Measure(config, *d, *runner, config.trace ? config.seconds / 2 : config.seconds);
  const std::vector<Metric> e2e = EndToEnd(untraced, setup_s);
  Tally tally = Count(untraced);
  Obj detail;
  detail.Num("spill_s", spill_s).Add("untraced", Detail(untraced));
  std::string metrics = MetricsJson(e2e);

  if (config.trace) {
    d.reset();
    Result<std::string> layers =
        TracedHalf(config, loaders.value(), *runner, e2e, &tally, &detail);
    if (!layers.ok()) return Fail("traced run", layers.status());
    metrics = layers.Take();
  }
  d.reset();

  std::printf("%s\n", Obj()
                          .Add("context", context)
                          .Bool("correct", tally.wrong == 0)
                          .Int("attempted", tally.attempted)
                          .Int("failed", tally.attempted - tally.answered)
                          .Add("metrics", metrics)
                          .Add("detail", detail.str())
                          .str()
                          .c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Run(argc, argv); }
