#ifndef HILLVIEW_TESTS_TEST_UTIL_H_
#define HILLVIEW_TESTS_TEST_UTIL_H_

#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "cluster/root.h"
#include "core/computation_cache.h"
#include "core/dataset.h"
#include "storage/table.h"
#include "util/random.h"

namespace hillview {
namespace testing {

/// Builds a single-column double table named `name`.
inline TablePtr MakeDoubleTable(const std::string& name,
                                const std::vector<double>& values) {
  ColumnBuilder builder(DataKind::kDouble);
  for (double v : values) builder.AppendDouble(v);
  return Table::Create(Schema({{name, DataKind::kDouble}}),
                       {builder.Finish()});
}

inline TablePtr MakeIntTable(const std::string& name,
                             const std::vector<int32_t>& values) {
  ColumnBuilder builder(DataKind::kInt);
  for (int32_t v : values) builder.AppendInt(v);
  return Table::Create(Schema({{name, DataKind::kInt}}), {builder.Finish()});
}

inline TablePtr MakeStringTable(const std::string& name,
                                const std::vector<std::string>& values) {
  ColumnBuilder builder(DataKind::kString);
  for (const auto& v : values) builder.AppendString(v);
  return Table::Create(Schema({{name, DataKind::kString}}),
                       {builder.Finish()});
}

/// Uniform random doubles in [lo, hi), deterministic.
inline std::vector<double> UniformDoubles(size_t n, double lo, double hi,
                                          uint64_t seed) {
  Random rng(seed);
  std::vector<double> out(n);
  for (auto& v : out) v = lo + rng.NextDouble() * (hi - lo);
  return out;
}

/// Splits `values` into `parts` contiguous chunks (for mergeability tests).
inline std::vector<std::vector<double>> SplitValues(
    const std::vector<double>& values, int parts) {
  std::vector<std::vector<double>> out(parts);
  for (size_t i = 0; i < values.size(); ++i) {
    out[i % parts].push_back(values[i]);
  }
  return out;
}

/// A ComputationCache lookup the way the root makes one, through the
/// single-flight protocol: a miss elects the caller, which releases the
/// flight empty. Counts exactly one hit, miss or coalesced hit.
inline std::optional<AnySummary> CacheLookup(ComputationCache& cache,
                                             const std::string& key) {
  bool owner = false;
  std::optional<AnySummary> hit = cache.GetOrBeginCompute(key, &owner);
  if (owner) cache.FinishCompute(key, std::nullopt);
  return hit;
}

/// Computes `value` under `key` the way the root does: it is published only
/// if this caller wins the flight (a present entry is a hit and stays).
inline void CacheInsert(ComputationCache& cache, const std::string& key,
                        AnySummary value) {
  bool owner = false;
  (void)cache.GetOrBeginCompute(key, &owner);
  if (owner) cache.FinishCompute(key, std::move(value));
}

/// An in-process cluster for tests: `workers` workers × `threads` threads,
/// with the dataset "data" pre-loaded from the given partition tables.
/// `options` tunes the deployment's fault policy (deadlines, retry budgets,
/// breaker); `worker_aggregation` configures each worker's internal
/// fan-out (chaos tests set progressive=false for deterministic per-channel
/// message counts).
struct TestCluster {
  std::vector<cluster::WorkerPtr> workers;
  cluster::SimulatedNetwork network;
  // Declaration order matters: sessions (and their queries) must die before
  // the Cluster, whose destructor drains the worker pools.
  std::unique_ptr<cluster::Cluster> cluster;
  std::shared_ptr<cluster::RootSession> root;

  static std::unique_ptr<TestCluster> Create(
      const std::vector<TablePtr>& partitions, int num_workers = 2,
      int threads_per_worker = 2,
      cluster::Cluster::Options options = {},
      ParallelDataSet::Options worker_aggregation = {}) {
    auto tc = std::make_unique<TestCluster>();
    for (int w = 0; w < num_workers; ++w) {
      tc->workers.push_back(std::make_shared<cluster::Worker>(
          "worker" + std::to_string(w), threads_per_worker,
          worker_aggregation));
    }
    tc->cluster = std::make_unique<cluster::Cluster>(
        tc->workers, &tc->network, options);
    tc->root = tc->cluster->OpenSession();
    std::vector<LocalDataSet::Loader> loaders;
    for (const auto& table : partitions) {
      loaders.push_back([table]() -> Result<TablePtr> { return table; });
    }
    Status s = tc->root->LoadDataSet("data", loaders);
    if (!s.ok()) return nullptr;
    return tc;
  }
};

}  // namespace testing
}  // namespace hillview

#endif  // HILLVIEW_TESTS_TEST_UTIL_H_
