#ifndef HILLVIEW_SPREADSHEET_SPREADSHEET_H_
#define HILLVIEW_SPREADSHEET_SPREADSHEET_H_

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "cluster/root.h"
#include "render/chart.h"
#include "render/plan.h"
#include "render/screen.h"
#include "sketch/find_text.h"
#include "sketch/heavy_hitters.h"
#include "sketch/histogram.h"
#include "sketch/histogram2d.h"
#include "sketch/hyperloglog.h"
#include "sketch/next_items.h"
#include "sketch/pca.h"
#include "sketch/quantile.h"
#include "sketch/range_moments.h"
#include "sketch/save_as.h"
#include "sketch/string_quantiles.h"

namespace hillview {

/// The spreadsheet facade: the C++ analogue of Hillview's web-server root
/// logic. One Spreadsheet wraps one (possibly derived) dataset and a display
/// resolution; every chart runs the paper's two-phase plan — a cached
/// preparation sketch (range / distinct strings / row count) followed by the
/// vizketch with display-derived parameters (§5.3).
///
/// Derived views (Filter*, WithColumn) return new Spreadsheet objects whose
/// data is lazy soft state on the workers, reconstructible from its lineage.
/// A view pins its dataset id (cluster::PinnedId): a derived id lives while
/// this view, a copy of it (copies share one pin), a view derived from it
/// or a query of it does, and the last release drops it from every worker.
class Spreadsheet {
 public:
  /// A view of `dataset_id`, pinned if it is a live derived id; a base id
  /// needs no pin, and may be loaded after the view is made.
  Spreadsheet(cluster::RootSession* session, const std::string& dataset_id,
              ScreenResolution screen)
      : Spreadsheet(session, session->cluster()->Pin(dataset_id), screen) {}

  /// A view of an id pinned already (RootSession::MapDataSet's result).
  Spreadsheet(cluster::RootSession* session, cluster::PinnedId dataset,
              ScreenResolution screen)
      : session_(session), dataset_(std::move(dataset)), screen_(screen) {}

  const std::string& dataset_id() const { return dataset_.id(); }
  const ScreenResolution& screen() const { return screen_; }
  cluster::RootSession* session() const { return session_; }

  // -- Preparation-phase queries (deterministic; served from the
  //    computation cache after the first run, §5.4). ---------------------

  /// Column statistics: range, counts, mean/variance moments.
  Result<RangeResult> ColumnRange(const std::string& column);

  /// Total member rows of this view.
  Result<int64_t> RowCount();

  /// Bottom-k distinct-string sample (string bucket preparation).
  Result<BottomKResult> DistinctStrings(const std::string& column);

  // -- Charts (two-phase; rendering-ready summaries). --------------------

  /// Histogram of any column (numeric buckets from the range, string
  /// buckets from the distinct sample). `exact` forces the streaming
  /// (unsampled) vizketch.
  Result<HistogramResult> Histogram(const std::string& column,
                                    bool exact = false);

  /// Histogram with serving metadata: the result plus the coverage the view
  /// actually achieved, folded over BOTH phases (range/bucket preparation
  /// and the vizketch). On a healthy cluster coverage is 1.0; with workers
  /// down and degraded mode on, the chart still renders but is marked
  /// `partial` so the UI can flag it.
  Result<Rendered<HistogramResult>> HistogramView(const std::string& column,
                                                  bool exact = false);

  /// CDF (one bucket per horizontal pixel; numeric or string column).
  Result<HistogramResult> Cdf(const std::string& column, bool exact = false);

  /// Histogram and CDF of the same column, as a single user action (O5's
  /// "histogram & cdf" concurrent pair).
  Result<std::pair<HistogramResult, HistogramResult>> HistogramAndCdf(
      const std::string& column, bool exact = false);

  /// Stacked histogram of X subdivided by Y colors. Normalized rendering
  /// requires exact = true (§B.1).
  Result<Histogram2DResult> StackedHistogram(const std::string& x_column,
                                             const std::string& y_column,
                                             bool exact = false);

  /// Heat map of two columns. Sampled unless `exact` (log-scale color maps
  /// need exact = true).
  Result<Histogram2DResult> HeatMap(const std::string& x_column,
                                    const std::string& y_column,
                                    bool exact = false);

  /// Trellis of heat maps grouped by W.
  Result<TrellisResult> TrellisHeatMaps(const std::string& w_column,
                                        const std::string& x_column,
                                        const std::string& y_column,
                                        int groups = 4);

  // -- Tabular view (§3.3). ----------------------------------------------

  /// The page of `k` distinct rows after `start_key` under `order`.
  Result<NextItemsResult> TableView(
      const RecordOrder& order, std::vector<std::string> display_columns,
      std::optional<std::vector<Value>> start_key, int k);

  /// Scroll-bar jump: quantile `q` of the sort order, then the page there.
  Result<NextItemsResult> ScrollTo(const RecordOrder& order,
                                   std::vector<std::string> display_columns,
                                   double q, int k);

  /// Next row matching a text filter after `start_key`.
  Result<FindResult> FindText(const RecordOrder& order,
                              std::vector<std::string> search_columns,
                              const StringFilter& filter,
                              std::optional<std::vector<Value>> start_key);

  // -- Feature extraction (§3.3). ----------------------------------------

  /// Heavy hitters above frequency 1/k. `sampled` selects the sampling
  /// sketch (preferred for k >= 100, §B.2) over Misra-Gries.
  Result<std::vector<HeavyHittersResult::Item>> HeavyHitters(
      const std::string& column, int k, bool sampled = false);

  /// Approximate number of distinct values (HyperLogLog).
  Result<double> DistinctCount(const std::string& column);

  /// Correlation matrix over numeric columns; pair with PcaBasis().
  Result<CorrelationResult> Correlation(std::vector<std::string> columns,
                                        bool sampled = true);

  // -- Derived views (§5.6). ---------------------------------------------

  /// Rows whose numeric/date column lies in [lo, hi] — the zoom-in gesture.
  Result<Spreadsheet> FilterRange(const std::string& column, double lo,
                                  double hi);

  /// Rows whose string column equals `value`.
  Result<Spreadsheet> FilterEquals(const std::string& column,
                                   const std::string& value);

  /// Rows matching a text filter in `column`.
  Result<Spreadsheet> FilterMatches(const std::string& column,
                                    const StringFilter& filter);

  /// Adds a derived column computed per row by a user-defined map (§3.5).
  /// `inputs` name the source columns handed to `fn` as materialized cells.
  Result<Spreadsheet> WithColumn(
      const std::string& new_column, DataKind kind,
      std::vector<std::string> inputs,
      std::function<Value(const std::vector<Value>&)> fn);

  /// Saves this view's partitions to a directory as HVCF files (§5.4).
  Result<SaveResult> SaveAs(const std::string& directory,
                            const std::string& prefix);

  /// Runs a histogram progressively, returning the partial-result stream
  /// (for progressive-visualization demos and tests).
  Result<StreamPtr<PartialResult<HistogramResult>>> HistogramStream(
      const std::string& column, CancellationTokenPtr token = {});

  // -- Serving observability. --------------------------------------------

  /// Stats of the most recent query this spreadsheet ran (coverage, cache
  /// hit, heals). Like NextSeed(), per-view state: a Spreadsheet is one
  /// user's view object and is not meant to be shared across threads.
  const cluster::RootSession::QueryStats& last_query_stats() const {
    return last_stats_;
  }

  /// Minimum coverage over every query since the last TakeViewCoverage():
  /// the honest coverage of a multi-query view (e.g. a two-phase chart whose
  /// preparation ran healthy but whose vizketch ran degraded).
  double view_coverage() const { return view_coverage_; }

  /// Returns view_coverage() and resets the fold to 1.0 — called at the
  /// start of a user action so the fold spans exactly that action's queries.
  double TakeViewCoverage() {
    double coverage = view_coverage_;
    view_coverage_ = 1.0;
    return coverage;
  }

 private:
  /// Bucket geometry for a column: numeric from range, string from the
  /// distinct sample (both cached preparation results).
  Result<Buckets> PlanBucketsFor(const std::string& column, int bucket_count);

  /// Deterministic per-operation seed: mixes a session counter so repeated
  /// operations differ but replays (same log) agree.
  uint64_t NextSeed();

  /// All spreadsheet queries funnel through here so every result's coverage
  /// lands in last_stats_ and folds into view_coverage_.
  template <typename R>
  Result<R> Run(SketchPtr<R> sketch, uint64_t seed = 0,
                bool cacheable = false) {
    Result<R> result = session_->RunSketch<R>(
        dataset_id(), std::move(sketch), seed, cacheable, &last_stats_);
    if (result.ok()) {
      view_coverage_ = std::min(view_coverage_, last_stats_.coverage);
    }
    return result;
  }

  cluster::RootSession* session_;
  cluster::PinnedId dataset_;
  ScreenResolution screen_;
  uint64_t seed_counter_ = 0;
  cluster::RootSession::QueryStats last_stats_;
  double view_coverage_ = 1.0;
};

}  // namespace hillview

#endif  // HILLVIEW_SPREADSHEET_SPREADSHEET_H_
