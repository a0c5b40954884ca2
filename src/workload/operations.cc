#include "workload/operations.h"

#include "util/stopwatch.h"
#include "util/thread_annotations.h"

namespace hillview {
namespace workload {

namespace {

const RecordOrder& SortOrder1() {
  static const RecordOrder kOrder({{"DepDelay", true}});
  return kOrder;
}

const RecordOrder& SortOrder5() {
  static const RecordOrder kOrder({{"Year", true},
                                   {"Month", true},
                                   {"DayOfMonth", true},
                                   {"DepDelay", true},
                                   {"Distance", true}});
  return kOrder;
}

const RecordOrder& SortOrderString() {
  static const RecordOrder kOrder({{"Origin", true}});
  return kOrder;
}

constexpr int kPageRows = 20;

/// Runs the chart-with-progressive-updates pattern: a histogram stream whose
/// first emission stamps the first-partial time.
Status RunHistogramWithFirstPartial(Spreadsheet* sheet,
                                    const std::string& column,
                                    const Stopwatch& watch,
                                    OpMeasurement* m) {
  auto stream = sheet->HistogramStream(column);
  HV_RETURN_IF_ERROR(stream.status());
  Mutex mu;
  double first = 0;
  stream.value()->Subscribe([&](const PartialResult<HistogramResult>&) {
    MutexLock lock(mu);
    if (first == 0) first = watch.ElapsedSeconds();
  });
  stream.value()->BlockingLast();
  HV_RETURN_IF_ERROR(stream.value()->final_status());
  MutexLock lock(mu);
  m->first_partial_seconds = first;
  return Status::OK();
}

Status RunHillviewOp(Spreadsheet* sheet, int op, const Stopwatch& watch,
                     OpMeasurement* m) {
  switch (op) {
    case 1:
      return sheet->TableView(SortOrder1(), {}, std::nullopt, kPageRows)
          .status();
    case 2:
      return sheet->TableView(SortOrder5(), {}, std::nullopt, kPageRows)
          .status();
    case 3:
      return sheet->TableView(SortOrderString(), {}, std::nullopt, kPageRows)
          .status();
    case 4:
      return sheet->ScrollTo(SortOrder5(), {}, 0.5, kPageRows).status();
    case 5: {
      HV_RETURN_IF_ERROR(
          RunHistogramWithFirstPartial(sheet, "DepDelay", watch, m));
      return sheet->Cdf("DepDelay").status();
    }
    case 6: {
      auto filtered = sheet->FilterRange("DepDelay", 0, 60);
      HV_RETURN_IF_ERROR(filtered.status());
      Spreadsheet view = filtered.Take();
      HV_RETURN_IF_ERROR(
          RunHistogramWithFirstPartial(&view, "ArrDelay", watch, m));
      return view.Cdf("ArrDelay").status();
    }
    case 7:
      return sheet->Histogram("Origin").status();
    case 8:
      return sheet->HeavyHitters("Origin", 100, /*sampled=*/true).status();
    case 9:
      return sheet->DistinctCount("FlightNumber").status();
    case 10: {
      HV_RETURN_IF_ERROR(
          sheet->StackedHistogram("CrsDepTime", "Airline").status());
      return sheet->Cdf("CrsDepTime").status();
    }
    case 11:
      return sheet->HeatMap("DepDelay", "ArrDelay").status();
    default:
      return Status::InvalidArgument("unknown operation");
  }
}

}  // namespace

const char* OperationName(int op) {
  static const char* kNames[] = {"O1", "O2", "O3", "O4",  "O5", "O6",
                                 "O7", "O8", "O9", "O10", "O11"};
  return (op >= 1 && op <= kNumOperations) ? kNames[op - 1] : "?";
}

const char* OperationDescription(int op) {
  static const char* kDescriptions[] = {
      "Sort, numerical data",
      "Sort 5 columns, numerical data",
      "Sort, string data",
      "Quantile + sort, 5 columns, numerical data",
      "Range + (histogram & cdf), numerical data",
      "Filter + range + (histogram & cdf), numerical data",
      "Distinct + range + histogram, string data",
      "Heavy hitters sampling, string data",
      "Distinct count, numerical data",
      "Range + (stacked histogram & cdf), numerical data",
      "Heatmap, numerical data"};
  return (op >= 1 && op <= kNumOperations) ? kDescriptions[op - 1] : "?";
}

OpMeasurement RunHillviewOperation(Spreadsheet* sheet, int op) {
  OpMeasurement m;
  cluster::SimulatedNetwork* network = sheet->session()->cluster()->network();
  uint64_t bytes_before = network->bytes_received_by_root();
  Stopwatch watch;
  Status s = RunHillviewOp(sheet, op, watch, &m);
  m.seconds = watch.ElapsedSeconds();
  if (m.first_partial_seconds == 0) m.first_partial_seconds = m.seconds;
  m.root_bytes = network->bytes_received_by_root() - bytes_before;
  m.ok = s.ok();
  if (!s.ok()) m.error = s.ToString();
  return m;
}

OpMeasurement RunBaselineOperation(baseline::RowEngine* engine, int op) {
  OpMeasurement m;
  uint64_t bytes = 0;
  Stopwatch watch;
  switch (op) {
    case 1:
      engine->SortTopK(SortOrder1(), 20, &bytes);
      break;
    case 2:
      engine->SortTopK(SortOrder5(), 20, &bytes);
      break;
    case 3:
      engine->SortTopK(SortOrderString(), 20, &bytes);
      break;
    case 4:
      engine->Quantile(SortOrder5(), 0.5, &bytes);
      engine->SortTopK(SortOrder5(), 20, &bytes);
      break;
    case 5:
      // The engine does not know the display geometry, so the front-end
      // requests fine-grained bins (0.1 min) and re-bins client-side.
      engine->MinMax("DepDelay", &bytes);
      engine->GroupByCount("DepDelay", &bytes, 0.1);
      break;
    case 6: {
      int idx = engine->ColumnIndex("DepDelay");
      auto filtered = engine->Filter([idx](const std::vector<Value>& row) {
        const auto* d = std::get_if<double>(&row[idx]);
        return d != nullptr && *d >= 0 && *d <= 60;
      });
      filtered->MinMax("ArrDelay", &bytes);
      filtered->GroupByCount("ArrDelay", &bytes, 0.1);
      break;
    }
    case 7:
      engine->DistinctCount("Origin", &bytes);
      engine->GroupByCount("Origin", &bytes);
      break;
    case 8:
      engine->GroupByCount("Origin", &bytes);
      break;
    case 9:
      engine->DistinctCount("FlightNumber", &bytes);
      break;
    case 10:
      engine->MinMax("CrsDepTime", &bytes);
      engine->GroupByCount2D("CrsDepTime", "Airline", &bytes, 10.0, 0);
      break;
    case 11:
      engine->GroupByCount2D("DepDelay", "ArrDelay", &bytes, 1.0, 1.0);
      break;
    default:
      m.error = "unknown operation";
      return m;
  }
  m.seconds = watch.ElapsedSeconds();
  m.first_partial_seconds = m.seconds;  // no progressive results
  m.root_bytes = bytes;
  m.ok = true;
  return m;
}

}  // namespace workload
}  // namespace hillview
