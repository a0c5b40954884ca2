// Quickstart: load a CSV, stand up a single-machine Hillview deployment, and
// render a histogram, a CDF and a table view in the terminal.
//
// This walks the same path a real deployment takes — partition the data,
// register it with a root session, and let two-phase vizketch execution
// produce display-sized summaries — just with one in-process "worker".
//
//   ./examples/quickstart [csv-file]
//
// Without an argument a small demo CSV is generated on the fly.

#include <cstdio>
#include <fstream>

#include "cluster/root.h"
#include "render/chart.h"
#include "spreadsheet/spreadsheet.h"
#include "storage/csv.h"

using namespace hillview;

namespace {

// Writes a tiny demo CSV so the example is runnable with no inputs.
std::string WriteDemoCsv() {
  std::string path = "/tmp/hillview_quickstart_demo.csv";
  std::ofstream out(path);
  out << "city,population,area_km2\n";
  const char* rows[] = {
      "Springfield,167000,110", "Shelbyville,94000,85",
      "Ogdenville,31000,40",    "North Haverbrook,12000,22",
      "Capital City,845000,310", "Brockway,52000,61",
      "Monorail Falls,8000,18",  "East Springfield,44000,52",
  };
  for (const char* row : rows) out << row << "\n";
  return path;
}

}  // namespace

int main(int argc, char** argv) {
  std::string path = argc > 1 ? argv[1] : WriteDemoCsv();
  std::printf("loading %s ...\n", path.c_str());

  // 1. A deployment: one worker with two threads behind a shared Cluster
  //    (workers, health, cache, scheduler, lineage), and one tenant session
  //    that owns the redo log and render generations.
  auto worker = std::make_shared<cluster::Worker>("worker0", 2);
  cluster::SimulatedNetwork network;
  cluster::Cluster deployment({worker}, &network);
  auto session = deployment.OpenSession();
  cluster::RootSession& root = *session;

  // 2. Register the CSV as a (re-loadable) dataset. The loader runs lazily;
  //    if the worker ever drops its state, the file is simply re-read.
  Status s = root.LoadDataSet(
      "csv", {[path]() -> Result<TablePtr> { return ReadCsv(path); }});
  if (!s.ok()) {
    std::fprintf(stderr, "load failed: %s\n", s.ToString().c_str());
    return 1;
  }

  // 3. A spreadsheet over the dataset, targeting a small terminal "screen".
  Spreadsheet sheet(&root, "csv", ScreenResolution{60, 16});

  auto rows = sheet.RowCount();
  if (!rows.ok()) {
    std::fprintf(stderr, "%s\n", rows.status().ToString().c_str());
    return 1;
  }
  std::printf("rows: %lld\n\n", static_cast<long long>(rows.value()));

  // 4. Histogram of the first numeric column.
  std::string numeric_column;
  auto table = worker->GetDataSet("csv");
  // (Schema discovery: in a real deployment the UI gets the schema from a
  // metadata call; here we peek at the first partition.)
  auto hist_col = sheet.ColumnRange("population");
  numeric_column = hist_col.ok() && hist_col.value().present_count > 0
                       ? "population"
                       : "";
  if (!numeric_column.empty()) {
    auto hist = sheet.Histogram(numeric_column, /*exact=*/true);
    if (hist.ok()) {
      HistogramPlot plot =
          RenderHistogram(hist.value(), ScreenResolution{60, 16});
      std::printf("histogram of %s (max bucket = %.0f rows):\n%s\n",
                  numeric_column.c_str(), plot.max_estimated_count,
                  AsciiHistogram(plot, 8).c_str());
    }
    auto cdf = sheet.Cdf(numeric_column, /*exact=*/true);
    if (cdf.ok()) {
      CdfPlot plot = RenderCdf(cdf.value(), ScreenResolution{60, 16});
      std::printf("cdf of %s:\n%s\n", numeric_column.c_str(),
                  AsciiCdf(plot, 8).c_str());
    }
  }

  // 5. A table view: first rows sorted by the numeric column, descending.
  RecordOrder order({{numeric_column.empty() ? "city" : numeric_column,
                      false}});
  auto page = sheet.TableView(order, {"city"}, std::nullopt, 5);
  if (page.ok()) {
    std::printf("top rows by %s:\n", order.orientations()[0].column.c_str());
    for (const auto& row : page.value().rows) {
      std::printf("  %-24s", ValueToString(row.values.back()).c_str());
      std::printf(" %12s", ValueToString(row.values[0]).c_str());
      if (row.count > 1) std::printf("  (x%lld)", (long long)row.count);
      std::printf("\n");
    }
  }

  std::printf("\nroot received %llu bytes over the (simulated) network\n",
              (unsigned long long)network.bytes_received_by_root());
  return 0;
}
