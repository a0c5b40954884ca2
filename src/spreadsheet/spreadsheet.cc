#include "spreadsheet/spreadsheet.h"

#include <algorithm>
#include <cstdio>

#include "storage/scan.h"

namespace hillview {

namespace {

/// Stable operation names for derived datasets; they appear in dataset ids,
/// the redo log, and computation-cache keys, so distinct operations must
/// never share a name. %.17g prints each bound exactly.
std::string RangeOpName(const std::string& column, double lo, double hi) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "[%.17g,%.17g]", lo, hi);
  return "filter-range(" + column + buf + ")";
}

/// A string operand of an operation name, length-prefixed so the name reads
/// back one way only: without it, FilterEquals("a", "b=c") and
/// FilterEquals("a=b", "c") would both name "filter-eq(a=b=c)".
std::string Operand(const std::string& text) {
  return std::to_string(text.size()) + ":" + text;
}

}  // namespace

uint64_t Spreadsheet::NextSeed() {
  return MixSeed(HashBytes(dataset_id().data(), dataset_id().size()),
                 ++seed_counter_);
}

Result<RangeResult> Spreadsheet::ColumnRange(const std::string& column) {
  return Run<RangeResult>(std::make_shared<RangeSketch>(column), /*seed=*/0,
                          /*cacheable=*/true);
}

Result<int64_t> Spreadsheet::RowCount() {
  HV_ASSIGN_OR_RETURN(
      CountResult count,
      Run<CountResult>(std::make_shared<CountSketch>(), /*seed=*/0,
                       /*cacheable=*/true));
  return count.rows;
}

Result<BottomKResult> Spreadsheet::DistinctStrings(const std::string& column) {
  return Run<BottomKResult>(std::make_shared<BottomKStringsSketch>(column),
                            /*seed=*/0, /*cacheable=*/true);
}

Result<Buckets> Spreadsheet::PlanBucketsFor(const std::string& column,
                                            int bucket_count) {
  HV_ASSIGN_OR_RETURN(RangeResult range, ColumnRange(column));
  if (!range.is_string) {
    return Buckets(PlanNumericBuckets(range, bucket_count));
  }
  HV_ASSIGN_OR_RETURN(BottomKResult bottomk, DistinctStrings(column));
  return Buckets(PlanStringBuckets(bottomk, range, bucket_count));
}

Result<HistogramResult> Spreadsheet::Histogram(const std::string& column,
                                               bool exact) {
  HV_ASSIGN_OR_RETURN(RangeResult range, ColumnRange(column));
  int bucket_count = HistogramBucketCount(screen_);
  HV_ASSIGN_OR_RETURN(Buckets buckets, PlanBucketsFor(column, bucket_count));
  if (exact) {
    return Run<HistogramResult>(
        std::make_shared<StreamingHistogramSketch>(column, std::move(buckets)),
        /*seed=*/0, /*cacheable=*/true);
  }
  double rate = SampleRateForSize(
      HistogramSampleSize(screen_.height, buckets.count()),
      static_cast<uint64_t>(range.TotalRows()));
  return Run<HistogramResult>(
      std::make_shared<SampledHistogramSketch>(column, std::move(buckets),
                                               rate),
      NextSeed());
}

Result<Rendered<HistogramResult>> Spreadsheet::HistogramView(
    const std::string& column, bool exact) {
  // Reset the fold so the reported coverage spans exactly this action's
  // queries (range + bucket preparation + the vizketch).
  (void)TakeViewCoverage();
  HV_ASSIGN_OR_RETURN(HistogramResult histogram, Histogram(column, exact));
  Rendered<HistogramResult> view;
  view.value = std::move(histogram);
  view.coverage = TakeViewCoverage();
  view.partial = view.coverage < 1.0;
  return view;
}

Result<HistogramResult> Spreadsheet::Cdf(const std::string& column,
                                         bool exact) {
  HV_ASSIGN_OR_RETURN(RangeResult range, ColumnRange(column));
  HV_ASSIGN_OR_RETURN(Buckets buckets,
                      PlanBucketsFor(column, std::max(1, screen_.width)));
  if (exact) {
    return Run<HistogramResult>(
        std::make_shared<StreamingHistogramSketch>(column, std::move(buckets)),
        /*seed=*/0, /*cacheable=*/true);
  }
  double rate =
      SampleRateForSize(CdfSampleSize(screen_.height),
                        static_cast<uint64_t>(range.TotalRows()));
  return Run<HistogramResult>(
      std::make_shared<SampledHistogramSketch>(column, std::move(buckets),
                                               rate),
      NextSeed());
}

Result<std::pair<HistogramResult, HistogramResult>>
Spreadsheet::HistogramAndCdf(const std::string& column, bool exact) {
  HV_ASSIGN_OR_RETURN(HistogramResult histogram, Histogram(column, exact));
  HV_ASSIGN_OR_RETURN(HistogramResult cdf, Cdf(column, exact));
  return std::make_pair(std::move(histogram), std::move(cdf));
}

Result<Histogram2DResult> Spreadsheet::StackedHistogram(
    const std::string& x_column, const std::string& y_column, bool exact) {
  HV_ASSIGN_OR_RETURN(RangeResult x_range, ColumnRange(x_column));
  int x_count = HistogramBucketCount(screen_);
  HV_ASSIGN_OR_RETURN(Buckets x_buckets, PlanBucketsFor(x_column, x_count));
  HV_ASSIGN_OR_RETURN(Buckets y_buckets,
                      PlanBucketsFor(y_column,
                                     ChartDefaults::kMaxStackColors));
  double rate = 1.0;
  if (!exact) {
    rate = SampleRateForSize(
        StackedHistogramSampleSize(screen_.height, x_buckets.count()),
        static_cast<uint64_t>(x_range.TotalRows()));
  }
  return Run<Histogram2DResult>(
      std::make_shared<Histogram2DSketch>(x_column, std::move(x_buckets),
                                          y_column, std::move(y_buckets),
                                          rate),
      exact ? 0 : NextSeed(), /*cacheable=*/exact);
}

Result<Histogram2DResult> Spreadsheet::HeatMap(const std::string& x_column,
                                               const std::string& y_column,
                                               bool exact) {
  HV_ASSIGN_OR_RETURN(RangeResult x_range, ColumnRange(x_column));
  HeatMapPlan plan = PlanHeatMap(static_cast<uint64_t>(x_range.TotalRows()),
                                 screen_, exact);
  HV_ASSIGN_OR_RETURN(Buckets x_buckets,
                      PlanBucketsFor(x_column, plan.x_bins));
  HV_ASSIGN_OR_RETURN(Buckets y_buckets,
                      PlanBucketsFor(y_column, plan.y_bins));
  return Run<Histogram2DResult>(
      std::make_shared<Histogram2DSketch>(x_column, std::move(x_buckets),
                                          y_column, std::move(y_buckets),
                                          plan.sample_rate),
      exact ? 0 : NextSeed(), /*cacheable=*/exact);
}

Result<TrellisResult> Spreadsheet::TrellisHeatMaps(
    const std::string& w_column, const std::string& x_column,
    const std::string& y_column, int groups) {
  // Each sub-plot is proportionally smaller (§B.1), so per-plot bin counts
  // shrink with the group count; total summary size matches one heat map.
  ScreenResolution sub_screen{screen_.width / 2,
                              std::max(1, 2 * screen_.height / groups)};
  HV_ASSIGN_OR_RETURN(Buckets w_buckets, PlanBucketsFor(w_column, groups));
  HV_ASSIGN_OR_RETURN(Buckets x_buckets,
                      PlanBucketsFor(x_column, HeatMapBucketsX(sub_screen)));
  HV_ASSIGN_OR_RETURN(Buckets y_buckets,
                      PlanBucketsFor(y_column, HeatMapBucketsY(sub_screen)));
  return Run<TrellisResult>(
      std::make_shared<TrellisSketch>(w_column, std::move(w_buckets),
                                      x_column, std::move(x_buckets),
                                      y_column, std::move(y_buckets)),
      /*seed=*/0);
}

Result<NextItemsResult> Spreadsheet::TableView(
    const RecordOrder& order, std::vector<std::string> display_columns,
    std::optional<std::vector<Value>> start_key, int k) {
  return Run<NextItemsResult>(
      std::make_shared<NextItemsSketch>(order, std::move(display_columns),
                                        std::move(start_key), k),
      /*seed=*/0);
}

Result<NextItemsResult> Spreadsheet::ScrollTo(
    const RecordOrder& order, std::vector<std::string> display_columns,
    double q, int k) {
  HV_ASSIGN_OR_RETURN(int64_t rows, RowCount());
  // A scroll bar distinguishes on the order of 100 positions regardless of
  // pixel height; the quantile summary materializes O(V²) keys, so V is
  // clamped to keep it display-sized. The KLL budget of 2× the target
  // sample size leaves skewed partition splits headroom to merge without
  // compacting; when a deep merge tree does compact, the weighted summary
  // keeps ranks unbiased (see QuantileResult::RankErrorBound).
  int scroll_positions = std::min(screen_.height, 100);
  uint64_t sample_size = QuantileSampleSize(scroll_positions);
  double rate = SampleRateForSize(sample_size, static_cast<uint64_t>(rows));
  HV_ASSIGN_OR_RETURN(
      QuantileResult quantile,
      Run<QuantileResult>(
          std::make_shared<QuantileSketch>(
              order, rate, static_cast<int>(2 * sample_size)),
          NextSeed()));
  return TableView(order, std::move(display_columns),
                   quantile.KeyAtQuantile(q), k);
}

Result<FindResult> Spreadsheet::FindText(
    const RecordOrder& order, std::vector<std::string> search_columns,
    const StringFilter& filter,
    std::optional<std::vector<Value>> start_key) {
  // An invalid user-supplied regex is a request error, not a scan error:
  // reject it here instead of letting every partition match nothing.
  HV_RETURN_IF_ERROR(StringMatcher::Validate(filter));
  return Run<FindResult>(
      std::make_shared<FindTextSketch>(order, std::move(search_columns),
                                       filter, std::move(start_key)),
      /*seed=*/0);
}

Result<std::vector<HeavyHittersResult::Item>> Spreadsheet::HeavyHitters(
    const std::string& column, int k, bool sampled) {
  if (sampled) {
    HV_ASSIGN_OR_RETURN(int64_t rows, RowCount());
    double rate = SampleRateForSize(HeavyHittersSampleSize(k),
                                    static_cast<uint64_t>(rows));
    HV_ASSIGN_OR_RETURN(
        HeavyHittersResult result,
        Run<HeavyHittersResult>(
            std::make_shared<SampledHeavyHittersSketch>(column, k, rate),
            NextSeed()));
    // Theorem 4: select items above 3n/(4K) of the sampled rows.
    return result.Select(3.0 / (4.0 * k));
  }
  HV_ASSIGN_OR_RETURN(HeavyHittersResult result,
                      Run<HeavyHittersResult>(
                          std::make_shared<MisraGriesSketch>(column, k),
                          /*seed=*/0, /*cacheable=*/true));
  // Misra-Gries counts are undercounts by at most N/K; accept anything
  // above half the target frequency.
  return result.Select(1.0 / (2.0 * k));
}

Result<double> Spreadsheet::DistinctCount(const std::string& column) {
  HV_ASSIGN_OR_RETURN(
      HllResult hll,
      Run<HllResult>(std::make_shared<HyperLogLogSketch>(column),
                     /*seed=*/0, /*cacheable=*/true));
  return hll.Estimate();
}

Result<CorrelationResult> Spreadsheet::Correlation(
    std::vector<std::string> columns, bool sampled) {
  double rate = 1.0;
  if (sampled) {
    HV_ASSIGN_OR_RETURN(int64_t rows, RowCount());
    rate = SampleRateForSize(1 << 17, static_cast<uint64_t>(rows));
  }
  return Run<CorrelationResult>(
      std::make_shared<CorrelationSketch>(std::move(columns), rate),
      sampled ? NextSeed() : 0, /*cacheable=*/!sampled);
}

Result<Spreadsheet> Spreadsheet::FilterRange(const std::string& column,
                                             double lo, double hi) {
  TableMap map = [column, lo, hi](const TablePtr& table) -> Result<TablePtr> {
    ColumnPtr col = table->GetColumnOrNull(column);
    if (col == nullptr) {
      return Status::NotFound("no column named '" + column + "'");
    }
    // Typed predicate loop: one scan-layer dispatch, word-at-a-time over
    // dense membership, instead of a per-row virtual IsMissing/GetDouble.
    return table->WithMembership(
        FilterRangeMembership(*col, *table->members(), lo, hi));
  };
  HV_ASSIGN_OR_RETURN(cluster::PinnedId view,
                      session_->MapDataSet(dataset_id(), std::move(map),
                                           RangeOpName(column, lo, hi)));
  return Spreadsheet(session_, std::move(view), screen_);
}

Result<Spreadsheet> Spreadsheet::FilterEquals(const std::string& column,
                                              const std::string& value) {
  TableMap map = [column, value](const TablePtr& table) -> Result<TablePtr> {
    ColumnPtr col = table->GetColumnOrNull(column);
    if (col == nullptr) {
      return Status::NotFound("no column named '" + column + "'");
    }
    const uint32_t* codes = col->RawCodes();
    if (codes == nullptr) {
      return Status::InvalidArgument("'" + column + "' is not a string column");
    }
    // One dictionary lookup, then the row test is a typed code compare in
    // the scan layer's dispatch-once loop.
    const StringDictionary& dict = col->Dictionary();
    uint32_t code = dict.LowerBound(value);
    if (code >= dict.size() || dict[code] != value) {
      return table->WithMembership(std::make_shared<SparseMembership>(
          std::vector<uint32_t>{}, table->universe_size()));
    }
    return table->WithMembership(
        FilterEqualsCodeMembership(*col, *table->members(), code));
  };
  HV_ASSIGN_OR_RETURN(
      cluster::PinnedId view,
      session_->MapDataSet(dataset_id(), std::move(map),
                           "filter-eq(" + Operand(column) + "=" +
                               Operand(value) + ")"));
  return Spreadsheet(session_, std::move(view), screen_);
}

Result<Spreadsheet> Spreadsheet::FilterMatches(const std::string& column,
                                               const StringFilter& filter) {
  // Invalid patterns are request errors; reject before touching data.
  HV_RETURN_IF_ERROR(StringMatcher::Validate(filter));
  TableMap map = [column, filter](const TablePtr& table) -> Result<TablePtr> {
    ColumnPtr col = table->GetColumnOrNull(column);
    if (col == nullptr) {
      return Status::NotFound("no column named '" + column + "'");
    }
    if (col->RawCodes() == nullptr) {
      return Status::InvalidArgument("'" + column + "' is not a string column");
    }
    StringMatcher matcher(filter);
    HV_RETURN_IF_ERROR(matcher.status());
    // Memoized per-code verdicts, then a typed code-lookup loop in the scan
    // layer — the row test never re-runs the matcher.
    std::vector<uint8_t> match = MatchDictionary(matcher, col->Dictionary());
    return table->WithMembership(
        FilterMatchedCodesMembership(*col, *table->members(), match));
  };
  HV_ASSIGN_OR_RETURN(
      cluster::PinnedId view,
      session_->MapDataSet(dataset_id(), std::move(map),
                           "filter-match(" + Operand(column) + "~" +
                               Operand(filter.ToString()) + ")"));
  return Spreadsheet(session_, std::move(view), screen_);
}

Result<Spreadsheet> Spreadsheet::WithColumn(
    const std::string& new_column, DataKind kind,
    std::vector<std::string> inputs,
    std::function<Value(const std::vector<Value>&)> fn) {
  TableMap map = [new_column, kind, inputs,
                  fn](const TablePtr& table) -> Result<TablePtr> {
    ColumnBuilder builder(kind);
    uint32_t universe = table->universe_size();
    std::vector<const IColumn*> cols;
    for (const auto& name : inputs) {
      ColumnPtr c = table->GetColumnOrNull(name);
      if (c == nullptr) {
        return Status::NotFound("no column named '" + name + "'");
      }
      cols.push_back(c.get());
    }
    std::vector<Value> cells(cols.size());
    for (uint32_t row = 0; row < universe; ++row) {
      // Derived columns cover the whole universe so further filtering and
      // membership sharing keep working; non-member rows still compute.
      for (size_t i = 0; i < cols.size(); ++i) {
        cells[i] = cols[i]->GetValue(row);
      }
      builder.AppendValue(fn(cells));
    }
    return table->WithColumn({new_column, kind}, builder.Finish());
  };
  // The function has no name to put in the id, so each map gets its own.
  const uint64_t serial = session_->cluster()->NextOpSerial();
  HV_ASSIGN_OR_RETURN(
      cluster::PinnedId view,
      session_->MapDataSet(dataset_id(), std::move(map),
                           "with-column(" + new_column + ")#" +
                               std::to_string(serial)));
  return Spreadsheet(session_, std::move(view), screen_);
}

Result<SaveResult> Spreadsheet::SaveAs(const std::string& directory,
                                       const std::string& prefix) {
  return Run<SaveResult>(std::make_shared<SaveAsSketch>(directory, prefix),
                         NextSeed());
}

Result<StreamPtr<PartialResult<HistogramResult>>> Spreadsheet::HistogramStream(
    const std::string& column, CancellationTokenPtr token) {
  HV_ASSIGN_OR_RETURN(RangeResult range, ColumnRange(column));
  int bucket_count = HistogramBucketCount(screen_);
  HV_ASSIGN_OR_RETURN(Buckets buckets, PlanBucketsFor(column, bucket_count));
  double rate = SampleRateForSize(
      HistogramSampleSize(screen_.height, bucket_count),
      static_cast<uint64_t>(range.TotalRows()));
  return session_->RunSketchStream<HistogramResult>(
      dataset_id(),
      std::make_shared<SampledHistogramSketch>(column, std::move(buckets),
                                               rate),
      NextSeed(), std::move(token));
}

}  // namespace hillview
