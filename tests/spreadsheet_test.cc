#include <gtest/gtest.h>

#include <filesystem>
#include <numeric>
#include <utility>

#include "spreadsheet/spreadsheet.h"
#include "storage/columnar_file.h"
#include "test_util.h"
#include "workload/flights.h"

namespace hillview {
namespace {

using workload::FlightsLoaders;

/// Shared fixture: a 4-worker cluster with 80k synthetic flight rows.
class SpreadsheetTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    workers_ = new std::vector<cluster::WorkerPtr>();
    for (int w = 0; w < 4; ++w) {
      workers_->push_back(std::make_shared<cluster::Worker>(
          "w" + std::to_string(w), 2));
    }
    network_ = new cluster::SimulatedNetwork();
    cluster_ = new cluster::Cluster(*workers_, network_);
    session_holder_ = cluster_->OpenSession();
    session_ = session_holder_.get();
    auto loaders = FlightsLoaders(80000, 10000, /*seed=*/2024);
    ASSERT_TRUE(session_->LoadDataSet("flights", loaders).ok());
    sheet_ = new Spreadsheet(session_, "flights", {400, 200});
  }

  static void TearDownTestSuite() {
    delete sheet_;
    session_ = nullptr;
    session_holder_.reset();
    delete cluster_;  // drains worker pools before the network/workers die
    delete network_;
    delete workers_;
    sheet_ = nullptr;
  }

  /// Views `id`, loaded as one partition of the string columns `first` and
  /// `second` holding `rows`.
  static Spreadsheet LoadStringPairs(
      const std::string& id, const std::string& first,
      const std::string& second,
      const std::vector<std::pair<std::string, std::string>>& rows) {
    ColumnBuilder a(DataKind::kString);
    ColumnBuilder b(DataKind::kString);
    for (const auto& [x, y] : rows) {
      a.AppendString(x);
      b.AppendString(y);
    }
    TablePtr table = Table::Create(
        Schema({{first, DataKind::kString}, {second, DataKind::kString}}),
        {a.Finish(), b.Finish()});
    EXPECT_TRUE(session_
                    ->LoadDataSet(id, {[table]() -> Result<TablePtr> {
                                    return table;
                                  }})
                    .ok());
    return Spreadsheet(session_, id, {400, 200});
  }

  /// Rows an exact histogram of `column` counts in `view`.
  static int64_t HistogramTotal(Spreadsheet& view, const std::string& column) {
    auto histogram = view.Histogram(column, /*exact=*/true);
    EXPECT_TRUE(histogram.ok()) << histogram.status().ToString();
    if (!histogram.ok()) return -1;
    const auto& counts = histogram.value().counts;
    return std::accumulate(counts.begin(), counts.end(), int64_t{0});
  }

  static std::vector<cluster::WorkerPtr>* workers_;
  static cluster::SimulatedNetwork* network_;
  static cluster::Cluster* cluster_;
  static std::shared_ptr<cluster::RootSession> session_holder_;
  static cluster::RootSession* session_;
  static Spreadsheet* sheet_;
};

std::vector<cluster::WorkerPtr>* SpreadsheetTest::workers_ = nullptr;
cluster::SimulatedNetwork* SpreadsheetTest::network_ = nullptr;
cluster::Cluster* SpreadsheetTest::cluster_ = nullptr;
std::shared_ptr<cluster::RootSession> SpreadsheetTest::session_holder_;
cluster::RootSession* SpreadsheetTest::session_ = nullptr;
Spreadsheet* SpreadsheetTest::sheet_ = nullptr;

TEST_F(SpreadsheetTest, RowCountAndRange) {
  auto rows = sheet_->RowCount();
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows.value(), 80000);

  auto range = sheet_->ColumnRange("Distance");
  ASSERT_TRUE(range.ok());
  EXPECT_GT(range.value().max, range.value().min);
  EXPECT_GT(range.value().present_count, 0);
}

TEST_F(SpreadsheetTest, NumericHistogramExactVsSampledShape) {
  auto exact = sheet_->Histogram("DepDelay", /*exact=*/true);
  ASSERT_TRUE(exact.ok());
  auto sampled = sheet_->Histogram("DepDelay");
  ASSERT_TRUE(sampled.ok());
  ASSERT_EQ(exact.value().counts.size(), sampled.value().counts.size());
  // Same total mass after scaling, within sampling noise.
  EXPECT_NEAR(sampled.value().TotalCount() / sampled.value().sample_rate,
              static_cast<double>(exact.value().TotalCount()),
              0.05 * exact.value().TotalCount());
  // Cancelled flights have missing DepDelay.
  EXPECT_GT(exact.value().missing, 0);
}

TEST_F(SpreadsheetTest, StringHistogramBucketsPerAirline) {
  auto hist = sheet_->Histogram("Airline", /*exact=*/true);
  ASSERT_TRUE(hist.ok());
  // 18 airlines -> one bucket per distinct value.
  EXPECT_EQ(hist.value().counts.size(), 18u);
  EXPECT_EQ(hist.value().TotalCount(), 80000);
}

TEST_F(SpreadsheetTest, CdfIsMonotoneInCounts) {
  auto cdf = sheet_->Cdf("Distance", /*exact=*/true);
  ASSERT_TRUE(cdf.ok());
  EXPECT_EQ(cdf.value().counts.size(), 400u);  // one per horizontal pixel
  EXPECT_EQ(cdf.value().TotalCount(), 80000);
}

TEST_F(SpreadsheetTest, StackedHistogramAndHeatMap) {
  auto stacked = sheet_->StackedHistogram("DayOfWeek", "Airline", true);
  ASSERT_TRUE(stacked.ok());
  EXPECT_EQ(stacked.value().x_buckets, 7);
  int64_t total = 0;
  for (int64_t c : stacked.value().x_counts) total += c;
  EXPECT_EQ(total, 80000);

  auto heat = sheet_->HeatMap("DepDelay", "ArrDelay");
  ASSERT_TRUE(heat.ok());
  EXPECT_GT(heat.value().x_buckets, 10);
  EXPECT_GT(heat.value().y_buckets, 10);
}

TEST_F(SpreadsheetTest, TrellisGroupsByAirline) {
  auto trellis = sheet_->TrellisHeatMaps("Airline", "DepDelay", "ArrDelay", 4);
  ASSERT_TRUE(trellis.ok());
  EXPECT_EQ(trellis.value().groups.size(), 4u);
}

TEST_F(SpreadsheetTest, TableViewPagination) {
  RecordOrder order({{"Distance", true}});
  auto page1 = sheet_->TableView(order, {"Airline"}, std::nullopt, 10);
  ASSERT_TRUE(page1.ok());
  ASSERT_EQ(page1.value().rows.size(), 10u);
  // Rows sorted ascending by Distance.
  for (size_t i = 1; i < page1.value().rows.size(); ++i) {
    EXPECT_LE(std::get<double>(page1.value().rows[i - 1].values[0]),
              std::get<double>(page1.value().rows[i].values[0]));
  }
  // Page 2 starts strictly after page 1's last row.
  std::vector<Value> last = {page1.value().rows.back().values[0]};
  auto page2 = sheet_->TableView(order, {"Airline"}, last, 10);
  ASSERT_TRUE(page2.ok());
  EXPECT_GT(std::get<double>(page2.value().rows[0].values[0]),
            std::get<double>(page1.value().rows.front().values[0]));
}

TEST_F(SpreadsheetTest, ScrollToMedian) {
  RecordOrder order({{"Distance", true}});
  auto page = sheet_->ScrollTo(order, {}, 0.5, 5);
  ASSERT_TRUE(page.ok());
  ASSERT_FALSE(page.value().rows.empty());
  auto range = sheet_->ColumnRange("Distance");
  double mid = std::get<double>(page.value().rows[0].values[0]);
  // The median of the skewed Distance distribution is strictly inside the
  // range, not at the ends.
  EXPECT_GT(mid, range.value().min);
  EXPECT_LT(mid, range.value().max);
}

TEST_F(SpreadsheetTest, FindTextFindsAirline) {
  RecordOrder order({{"Airline", true}});
  StringFilter filter;
  filter.text = "UA";
  filter.mode = StringFilter::Mode::kExact;
  auto found = sheet_->FindText(order, {"Airline"}, filter, std::nullopt);
  ASSERT_TRUE(found.ok());
  EXPECT_GT(found.value().match_count, 0);
  ASSERT_TRUE(found.value().first_match.has_value());
  EXPECT_EQ((*found.value().first_match)[0], Value(std::string("UA")));
}

TEST_F(SpreadsheetTest, HeavyHittersBothVariantsAgreeOnTop) {
  auto mg = sheet_->HeavyHitters("Airline", 10, /*sampled=*/false);
  auto sampled = sheet_->HeavyHitters("Airline", 10, /*sampled=*/true);
  ASSERT_TRUE(mg.ok());
  ASSERT_TRUE(sampled.ok());
  ASSERT_FALSE(mg.value().empty());
  ASSERT_FALSE(sampled.value().empty());
  // The Zipf-skewed airline distribution has a clear top element.
  EXPECT_EQ(mg.value()[0].value, sampled.value()[0].value);
}

TEST_F(SpreadsheetTest, DistinctCountApproximatesTruth) {
  auto distinct = sheet_->DistinctCount("Airline");
  ASSERT_TRUE(distinct.ok());
  EXPECT_NEAR(distinct.value(), 18, 2);
}

TEST_F(SpreadsheetTest, CorrelationDepArrDelay) {
  auto corr = sheet_->Correlation({"DepDelay", "ArrDelay"}, false);
  ASSERT_TRUE(corr.ok());
  auto matrix = corr.value().CorrelationMatrix();
  // ArrDelay = DepDelay + noise: strong positive correlation.
  EXPECT_GT(matrix[1], 0.5);
}

TEST_F(SpreadsheetTest, FilterEqualsNarrowsRows) {
  auto filtered = sheet_->FilterEquals("Airline", "AA");
  ASSERT_TRUE(filtered.ok());
  auto rows = filtered.value().RowCount();
  ASSERT_TRUE(rows.ok());
  EXPECT_GT(rows.value(), 0);
  EXPECT_LT(rows.value(), 80000);

  auto hist = filtered.value().Histogram("Airline", true);
  ASSERT_TRUE(hist.ok());
  EXPECT_EQ(hist.value().TotalCount(), rows.value());
}

TEST_F(SpreadsheetTest, FilterRangeIsZoomIn) {
  auto range = sheet_->ColumnRange("Distance");
  ASSERT_TRUE(range.ok());
  double lo = range.value().min;
  double hi = (range.value().min + range.value().max) / 4;
  auto zoomed = sheet_->FilterRange("Distance", lo, hi);
  ASSERT_TRUE(zoomed.ok());
  auto zoom_range = zoomed.value().ColumnRange("Distance");
  ASSERT_TRUE(zoom_range.ok());
  EXPECT_GE(zoom_range.value().min, lo);
  EXPECT_LE(zoom_range.value().max, hi);
}

TEST_F(SpreadsheetTest, FilterMatchesRegexNarrowsRows) {
  StringFilter filter;
  filter.text = "^A";  // airlines starting with A
  filter.mode = StringFilter::Mode::kRegex;
  filter.case_sensitive = true;
  auto filtered = sheet_->FilterMatches("Airline", filter);
  ASSERT_TRUE(filtered.ok()) << filtered.status().ToString();
  auto rows = filtered.value().RowCount();
  ASSERT_TRUE(rows.ok());
  EXPECT_GT(rows.value(), 0);
  EXPECT_LT(rows.value(), 80000);

  // Cross-check the typed filter path against FilterEquals: an exact-match
  // filter must keep exactly the rows the equality filter keeps.
  StringFilter exact;
  exact.text = "AA";
  exact.mode = StringFilter::Mode::kExact;
  exact.case_sensitive = true;
  auto via_match = sheet_->FilterMatches("Airline", exact);
  auto via_equals = sheet_->FilterEquals("Airline", "AA");
  ASSERT_TRUE(via_match.ok());
  ASSERT_TRUE(via_equals.ok());
  EXPECT_EQ(via_match.value().RowCount().value_or(-1),
            via_equals.value().RowCount().value_or(-2));
}

TEST_F(SpreadsheetTest, InvalidRegexSurfacesInvalidArgument) {
  StringFilter bad;
  bad.text = "[unclosed";
  bad.mode = StringFilter::Mode::kRegex;

  // Regression: this used to throw std::regex_error out of the sketch /
  // table-map instead of returning a Status.
  RecordOrder order({{"Airline", true}});
  auto found = sheet_->FindText(order, {"Airline"}, bad, std::nullopt);
  ASSERT_FALSE(found.ok());
  EXPECT_EQ(found.status().code(), StatusCode::kInvalidArgument);

  auto filtered = sheet_->FilterMatches("Airline", bad);
  ASSERT_FALSE(filtered.ok());
  EXPECT_EQ(filtered.status().code(), StatusCode::kInvalidArgument);

  // Valid filters on the same surfaces still work afterwards.
  StringFilter good;
  good.text = "UA";
  good.mode = StringFilter::Mode::kExact;
  EXPECT_TRUE(sheet_->FindText(order, {"Airline"}, good, std::nullopt).ok());
}

TEST_F(SpreadsheetTest, WithColumnComputesRatio) {
  auto derived = sheet_->WithColumn(
      "SpeedMph", DataKind::kDouble, {"Distance", "AirTime"},
      [](const std::vector<Value>& in) -> Value {
        const auto* dist = std::get_if<double>(&in[0]);
        const auto* time = std::get_if<double>(&in[1]);
        if (dist == nullptr || time == nullptr || *time <= 0) {
          return std::monostate{};
        }
        return *dist / (*time / 60.0);
      });
  ASSERT_TRUE(derived.ok());
  auto range = derived.value().ColumnRange("SpeedMph");
  ASSERT_TRUE(range.ok());
  EXPECT_GT(range.value().present_count, 0);
  EXPECT_GT(range.value().Mean(), 100);  // planes are fast
  EXPECT_LT(range.value().Mean(), 1500);
}

// Two views that add a column of one name by different functions are
// different datasets: neither is served the other's cached summaries.
TEST_F(SpreadsheetTest, WithColumnViewsOfOneNameStayDistinct) {
  auto constant = [this](double v) {
    return sheet_->WithColumn("Z", DataKind::kDouble, {"DepDelay"},
                              [v](const std::vector<Value>&) -> Value {
                                return v;
                              });
  };
  auto ones = constant(1.0);
  ASSERT_TRUE(ones.ok());
  auto one_range = ones.value().ColumnRange("Z");
  ASSERT_TRUE(one_range.ok());
  auto twos = constant(2.0);
  ASSERT_TRUE(twos.ok());
  auto two_range = twos.value().ColumnRange("Z");
  ASSERT_TRUE(two_range.ok());
  EXPECT_EQ(two_range.value().min, 2.0);
  EXPECT_EQ(two_range.value().max, 2.0);
  // The first view still reads its own column.
  auto again = ones.value().ColumnRange("Z");
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again.value().min, 1.0);
  EXPECT_EQ(again.value().max, 1.0);
}

// Range filters whose bounds differ only past six significant digits are
// different views.
TEST_F(SpreadsheetTest, FilterRangeBoundsBeyondSixDigitsStayDistinct) {
  auto derived = sheet_->WithColumn("V", DataKind::kDouble, {"DepDelay"},
                                    [](const std::vector<Value>&) -> Value {
                                      return 1.0000002;
                                    });
  ASSERT_TRUE(derived.ok());
  auto below = derived.value().FilterRange("V", 0.0, 1.0000001);
  ASSERT_TRUE(below.ok());
  auto none = below.value().RowCount();
  ASSERT_TRUE(none.ok());
  EXPECT_EQ(none.value(), 0);
  auto above = derived.value().FilterRange("V", 0.0, 1.0000003);
  ASSERT_TRUE(above.ok());
  auto all = above.value().RowCount();
  ASSERT_TRUE(all.ok());
  EXPECT_EQ(all.value(), 80000);
}

// Equality filters whose column and value differ only in where '=' falls
// are different views: each counts its own rows, and deriving the second
// leaves the first one's lineage and data alone.
TEST_F(SpreadsheetTest, FilterEqualsOperandsStayDistinct) {
  Spreadsheet sheet = LoadStringPairs("eq-operands", "a", "a=b",
                                      {{"b=c", "x"}, {"y", "c"}, {"z", "c"}});
  auto first = sheet.FilterEquals("a", "b=c");
  ASSERT_TRUE(first.ok());
  auto first_rows = first.value().RowCount();
  ASSERT_TRUE(first_rows.ok());
  EXPECT_EQ(first_rows.value(), 1);
  auto second = sheet.FilterEquals("a=b", "c");
  ASSERT_TRUE(second.ok());
  EXPECT_NE(second.value().dataset_id(), first.value().dataset_id());
  auto second_rows = second.value().RowCount();
  ASSERT_TRUE(second_rows.ok());
  EXPECT_EQ(second_rows.value(), 2);
  EXPECT_EQ(HistogramTotal(first.value(), "a"), 1);
}

// The same for text filters: the column "a~substring/ci:x" searched for "y"
// and the column "a" searched for "x~substring/ci:y" are different views.
TEST_F(SpreadsheetTest, FilterMatchesOperandsStayDistinct) {
  Spreadsheet sheet =
      LoadStringPairs("match-operands", "a", "a~substring/ci:x",
                      {{"x~substring/ci:y", "p"}, {"q", "y"}, {"r", "y"}});
  StringFilter in_a{"x~substring/ci:y", StringFilter::Mode::kSubstring,
                    /*case_sensitive=*/false};
  auto first = sheet.FilterMatches("a", in_a);
  ASSERT_TRUE(first.ok());
  auto first_rows = first.value().RowCount();
  ASSERT_TRUE(first_rows.ok());
  EXPECT_EQ(first_rows.value(), 1);
  StringFilter in_other{"y", StringFilter::Mode::kSubstring,
                        /*case_sensitive=*/false};
  auto second = sheet.FilterMatches("a~substring/ci:x", in_other);
  ASSERT_TRUE(second.ok());
  EXPECT_NE(second.value().dataset_id(), first.value().dataset_id());
  auto second_rows = second.value().RowCount();
  ASSERT_TRUE(second_rows.ok());
  EXPECT_EQ(second_rows.value(), 2);
  EXPECT_EQ(HistogramTotal(first.value(), "a"), 1);
}

TEST_F(SpreadsheetTest, SaveAsRoundTrip) {
  std::string dir = ::testing::TempDir() + "/hv_saveas";
  std::filesystem::create_directories(dir);
  auto filtered = sheet_->FilterEquals("Airline", "DL");
  ASSERT_TRUE(filtered.ok());
  auto saved = filtered.value().SaveAs(dir, "dl");
  ASSERT_TRUE(saved.ok());
  EXPECT_TRUE(saved.value().ok());
  EXPECT_EQ(saved.value().partitions_written, 8);  // 80k/10k partitions

  int64_t reloaded_rows = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    auto t = ReadTableFile(entry.path().string());
    ASSERT_TRUE(t.ok());
    reloaded_rows += t.value()->num_rows();
  }
  auto rows = filtered.value().RowCount();
  EXPECT_EQ(reloaded_rows, rows.value());
  std::filesystem::remove_all(dir);
}

TEST_F(SpreadsheetTest, ProgressiveHistogramStream) {
  auto stream = sheet_->HistogramStream("ArrDelay");
  ASSERT_TRUE(stream.ok());
  auto last = stream.value()->BlockingLast();
  ASSERT_TRUE(stream.value()->final_status().ok());
  ASSERT_TRUE(last.has_value());
  EXPECT_EQ(last->progress, 1.0);
  EXPECT_GT(last->value.TotalCount(), 0);
}

TEST_F(SpreadsheetTest, HistogramViewReportsFullCoverageWhenHealthy) {
  auto view = sheet_->HistogramView("Distance");
  ASSERT_TRUE(view.ok()) << view.status().ToString();
  EXPECT_GT(view.value().value.TotalCount(), 0);
  // Healthy cluster: every partition answered, the view is not partial.
  EXPECT_EQ(view.value().coverage, 1.0);
  EXPECT_FALSE(view.value().partial);
  // The per-query stats surface through the facade too.
  EXPECT_EQ(sheet_->last_query_stats().coverage, 1.0);
  EXPECT_FALSE(sheet_->last_query_stats().degraded);
  // TakeViewCoverage resets the fold.
  EXPECT_EQ(sheet_->TakeViewCoverage(), 1.0);
}

TEST_F(SpreadsheetTest, LastQueryStatsSeesSharedCacheHit) {
  // ColumnRange is deterministic and cacheable; the first call above (or
  // here) populates the shared cache, the second is served from it.
  ASSERT_TRUE(sheet_->ColumnRange("DepDelay").ok());
  ASSERT_TRUE(sheet_->ColumnRange("DepDelay").ok());
  EXPECT_TRUE(sheet_->last_query_stats().from_cache);
  EXPECT_EQ(sheet_->last_query_stats().coverage, 1.0);
}

TEST_F(SpreadsheetTest, SurvivesWorkerRestart) {
  session_->RestartWorker(2);
  // A sampled histogram is never served from the computation cache, so this
  // forces the Unavailable -> heal -> retry path.
  auto hist = sheet_->Histogram("Distance");
  ASSERT_TRUE(hist.ok()) << hist.status().ToString();
  EXPECT_GT(hist.value().TotalCount(), 0);
  EXPECT_EQ(workers_->at(2)->restart_count(), 1);
}

}  // namespace
}  // namespace hillview
