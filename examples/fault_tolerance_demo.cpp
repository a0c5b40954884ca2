// Fault-tolerance demo (§5.7–5.8): derived views survive a worker crash via
// the root's lineage record. The demo builds a filtered view, kills a
// worker, re-runs the query, and prints the session's redo log.
//
//   ./examples/fault_tolerance_demo

#include <cstdio>

#include "cluster/root.h"
#include "spreadsheet/spreadsheet.h"
#include "workload/flights.h"

using namespace hillview;

int main() {
  std::vector<cluster::WorkerPtr> workers;
  for (int w = 0; w < 3; ++w) {
    workers.push_back(
        std::make_shared<cluster::Worker>("w" + std::to_string(w), 2));
  }
  cluster::SimulatedNetwork network;
  cluster::Cluster deployment(workers, &network);
  auto session = deployment.OpenSession();
  cluster::RootSession& root = *session;
  if (!root.LoadDataSet("flights",
                        workload::FlightsLoaders(120000, 20000, 3))
           .ok()) {
    return 1;
  }
  Spreadsheet sheet(&root, "flights", {400, 200});

  // Build a chain of derived soft state: filter, then a derived column.
  auto delayed = sheet.FilterRange("DepDelay", 15, 1e9);
  if (!delayed.ok()) return 1;
  auto with_ratio = delayed.value().WithColumn(
      "DelayRatio", DataKind::kDouble, {"DepDelay", "ArrDelay"},
      [](const std::vector<Value>& in) -> Value {
        const auto* dep = std::get_if<double>(&in[0]);
        const auto* arr = std::get_if<double>(&in[1]);
        if (dep == nullptr || arr == nullptr || *dep == 0) {
          return std::monostate{};
        }
        return *arr / *dep;
      });
  if (!with_ratio.ok()) return 1;

  auto before = with_ratio.value().ColumnRange("DelayRatio");
  std::printf("before crash: mean DelayRatio = %.3f over %lld rows\n",
              before.value().Mean(),
              (long long)before.value().present_count);

  // Crash a worker: all its partitions and derived datasets vanish.
  std::printf("\n*** killing worker 1 (drops %s state) ***\n\n",
              workers[1]->name().c_str());
  root.RestartWorker(1);

  // The same query heals transparently: the root notices the missing soft
  // state (Unavailable), rebuilds the base data and the derived view on
  // worker 1 alone from their lineage, and retries. Sketch seeds make
  // randomized vizketches reproducible.
  // Force recomputation rather than a cache hit.
  deployment.shared_cache().Clear();
  auto after = with_ratio.value().ColumnRange("DelayRatio");
  if (!after.ok()) {
    std::printf("recovery failed: %s\n", after.status().ToString().c_str());
    return 1;
  }
  std::printf("after recovery: mean DelayRatio = %.3f over %lld rows\n",
              after.value().Mean(), (long long)after.value().present_count);
  std::printf("results identical: %s\n",
              before.value().present_count == after.value().present_count
                  ? "yes"
                  : "NO (bug!)");

  std::printf("\nredo log (the session's record, §5.7):\n%s",
              root.redo_log().ToText().c_str());
  return 0;
}
