#include <chrono>
#include <string>
#include <utility>

#include "bench.h"

namespace perfbench {

using hillview::LocalDataSet;
using hillview::ParallelDataSet;
using hillview::ScreenResolution;
using hillview::Spreadsheet;
using hillview::TablePtr;
namespace cluster = hillview::cluster;

namespace {

/// The display every tenant renders to (the repository's bench screen).
constexpr ScreenResolution kScreen{400, 200};

cluster::Cluster::Options ClusterOptions(const Config& config) {
  cluster::Cluster::Options options;
  if (config.workload == Workload::kDashboard) {
    // Fewer dispatch slots than tenants: DRR grants sit on the critical path
    // of every uncached query. The queue bound stays above the tenant count,
    // so nothing is shed for want of queue space. One slot runs the private
    // heat maps one at a time: with two, pairs of them overlapped on the
    // workers in or out of step, and their latency switched between two
    // levels ~25% apart for seconds at a time.
    options.scheduler.dispatch_concurrency = 1;
  }
  if (config.workload == Workload::kRecover) {
    // Deadlines far above the slowest healthy RPC (a few ms here): only
    // injected losses ever miss them, never a slow scan.
    options.rpc.deadline_ms = 2000;
    options.rpc.max_retries = 2;
  }
  return options;
}

}  // namespace

Result<std::unique_ptr<Deployment>> CreateDeployment(
    const Config& config, const std::vector<LocalDataSet::Loader>& loaders,
    LoadStats* load_stats) {
  auto d = std::make_unique<Deployment>();
  ParallelDataSet::Options worker_aggregation;
  if (config.workload == Workload::kRecover) {
    // One summary per worker per attempt, so the per-channel message indices
    // (and with them every fault verdict) depend only on the seed.
    worker_aggregation.progressive = false;
  }
  for (int w = 0; w < config.workers; ++w) {
    d->workers.push_back(std::make_shared<cluster::Worker>(
        "worker" + std::to_string(w), config.threads_per_worker,
        worker_aggregation));
  }
  d->cluster = std::make_unique<cluster::Cluster>(d->workers, &d->network,
                                                  ClusterOptions(config));
  for (int t = 0; t < config.tenants; ++t) {
    d->sessions.push_back(d->cluster->OpenSession());
    d->sheets.push_back(std::make_unique<Spreadsheet>(d->sessions.back().get(),
                                                      "flights", kScreen));
  }
  std::vector<LocalDataSet::Loader> wrapped = loaders;
  if (load_stats != nullptr) {
    for (auto& loader : wrapped) {
      loader = [inner = loader, load_stats]() -> Result<TablePtr> {
        auto start = std::chrono::steady_clock::now();
        Result<TablePtr> table = inner();
        load_stats->nanos += std::chrono::duration_cast<std::chrono::nanoseconds>(
                                 std::chrono::steady_clock::now() - start)
                                 .count();
        ++load_stats->loads;
        return table;
      };
    }
  }
  Status loaded = d->sessions[0]->LoadDataSet("flights", std::move(wrapped));
  if (!loaded.ok()) return loaded;
  return d;
}

Counters ReadCounters(Deployment& d) {
  Counters c;
  c.cache = d.cluster->shared_cache().Snapshot();
  c.scheduler = d.cluster->scheduler().Snapshot();
  c.health = d.cluster->health().Snapshot();
  if (auto injector = d.network.fault_injector()) c.faults = injector->Snapshot();
  c.bytes_up = d.network.bytes_received_by_root();
  c.bytes_down = d.network.bytes_sent_by_root();
  c.msgs_up = d.network.messages_up();
  c.msgs_down = d.network.messages_down();
  c.traffic = d.network.AllSessionTraffic();
  for (auto& session : d.sessions) {
    hillview::RedoLog::Stats log = session->redo_log().Snapshot();
    c.redo_entries += log.entries;
    c.replays += log.replays_started;
    c.entries_replayed += log.entries_replayed;
  }
  for (auto& worker : d.workers) {
    c.restarts += worker->restart_count();
    hillview::SortKeyCache::Stats keys = worker->key_cache()->Snapshot();
    c.key_hits += keys.hits;
    c.key_misses += keys.misses;
    c.key_bytes += keys.bytes_used;
  }
  return c;
}

std::map<std::string, int64_t> RedoKinds(Deployment& d,
                                         const std::vector<int64_t>& first) {
  std::map<std::string, int64_t> kinds;
  for (size_t s = 0; s < d.sessions.size(); ++s) {
    for (const auto& entry : d.sessions[s]->redo_log().Entries()) {
      if (s < first.size() && entry.index < first[s]) continue;
      ++kinds[entry.kind];
    }
  }
  return kinds;
}

}  // namespace perfbench
