// Lifetime of derived datasets: a derived id lives while a view, a running
// query or a derived child pins it, and the last release drops it from every
// worker and from the cluster's lineage. Observed only through the public
// surface: a released id is Unavailable on every worker and has no
// partitions on record.

#include <gtest/gtest.h>

#include <future>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "cluster/root.h"
#include "sketch/histogram.h"
#include "sketch/range_moments.h"
#include "spreadsheet/spreadsheet.h"
#include "util/random.h"
#include "workload/flights.h"

namespace hillview {
namespace {

using cluster::Cluster;
using cluster::RootSession;
using cluster::SimulatedNetwork;
using cluster::Worker;

const ScreenResolution kScreen{400, 200};

/// 8,000 flights rows in 8 partitions on 2 workers of one thread each.
struct Deployment {
  std::vector<cluster::WorkerPtr> workers;
  SimulatedNetwork network;
  std::unique_ptr<Cluster> cluster;
  std::shared_ptr<RootSession> session;

  static std::unique_ptr<Deployment> Create() {
    auto d = std::make_unique<Deployment>();
    for (int w = 0; w < 2; ++w) {
      d->workers.push_back(
          std::make_shared<Worker>("worker" + std::to_string(w), 1));
    }
    d->cluster = std::make_unique<Cluster>(d->workers, &d->network);
    d->session = d->cluster->OpenSession();
    Status loaded = d->session->LoadDataSet(
        "flights", workload::FlightsLoaders(8000, 1000, /*seed=*/41));
    if (!loaded.ok()) return nullptr;
    return d;
  }

  Spreadsheet Root() { return Spreadsheet(session.get(), "flights", kScreen); }
};

/// Every worker holds `id` and the cluster records its partitions.
::testing::AssertionResult Present(Deployment& d, const std::string& id) {
  for (const auto& worker : d.workers) {
    if (!worker->GetDataSet(id).ok()) {
      return ::testing::AssertionFailure() << worker->name() << " lacks " << id;
    }
  }
  if (d.cluster->Partitions(id).empty()) {
    return ::testing::AssertionFailure() << "no lineage for " << id;
  }
  return ::testing::AssertionSuccess();
}

/// No worker holds `id` and the cluster records no lineage for it.
::testing::AssertionResult Gone(Deployment& d, const std::string& id) {
  for (const auto& worker : d.workers) {
    if (worker->GetDataSet(id).status().code() != StatusCode::kUnavailable) {
      return ::testing::AssertionFailure() << worker->name() << " holds " << id;
    }
  }
  if (!d.cluster->Partitions(id).empty()) {
    return ::testing::AssertionFailure() << "lineage kept for " << id;
  }
  return ::testing::AssertionSuccess();
}

/// Parks one task on each worker's pool thread until Open() or destruction,
/// so a deployment declared before it always drains.
class PoolGate {
 public:
  explicit PoolGate(const std::vector<cluster::WorkerPtr>& workers) {
    for (const auto& worker : workers) {
      (void)worker->pool()->Submit([open = open_] { open.wait(); });
    }
  }
  PoolGate(const PoolGate&) = delete;
  PoolGate& operator=(const PoolGate&) = delete;
  ~PoolGate() { Open(); }

  void Open() {
    if (!opened_) promise_.set_value();
    opened_ = true;
  }

 private:
  std::promise<void> promise_;
  std::shared_future<void> open_ = promise_.get_future().share();
  bool opened_ = false;
};

/// Runs an unsampled count of `id`, which heals what a restart lost.
Result<int64_t> CountRows(Deployment& d, const std::string& id,
                          RootSession::QueryStats* stats) {
  HV_ASSIGN_OR_RETURN(
      CountResult count,
      d.session->RunSketch<CountResult>(id, std::make_shared<CountSketch>(),
                                        /*seed=*/0, /*cacheable=*/false,
                                        stats));
  return count.rows;
}

TEST(ViewLifetime, DroppedViewsLeaveNothingBehind) {
  auto d = Deployment::Create();
  ASSERT_NE(d, nullptr);
  Spreadsheet root = d->Root();
  std::vector<std::string> ids;
  {
    std::vector<Result<Spreadsheet>> views;
    views.push_back(root.FilterRange("DepDelay", 0, 60));
    views.push_back(root.FilterEquals("Airline", "AA"));
    views.push_back(root.WithColumn(
        "Late", DataKind::kDouble, {"DepDelay"},
        [](const std::vector<Value>&) { return Value(1.0); }));
    for (auto& view : views) {
      ASSERT_TRUE(view.ok()) << view.status().ToString();
      ASSERT_TRUE(view.value().RowCount().ok());  // materializes partitions
      ids.push_back(view.value().dataset_id());
      EXPECT_TRUE(Present(*d, ids.back()));
    }
  }
  for (const auto& id : ids) EXPECT_TRUE(Gone(*d, id));
  EXPECT_TRUE(Present(*d, "flights"));
  EXPECT_EQ(root.RowCount().value(), 8000);
}

TEST(ViewLifetime, CopyKeepsTheIdAliveThroughARestart) {
  auto d = Deployment::Create();
  ASSERT_NE(d, nullptr);
  std::optional<Spreadsheet> view(
      d->Root().FilterRange("DepDelay", 0, 60).Take());
  const int64_t rows = view->RowCount().value();
  Spreadsheet copy = *view;
  view.reset();
  EXPECT_TRUE(Present(*d, copy.dataset_id()));

  d->session->RestartWorker(1);
  RootSession::QueryStats stats;
  Result<int64_t> healed = CountRows(*d, copy.dataset_id(), &stats);
  ASSERT_TRUE(healed.ok()) << healed.status().ToString();
  EXPECT_EQ(healed.value(), rows);
  EXPECT_EQ(stats.coverage, 1.0);
  EXPECT_EQ(stats.replay_heals, 1);
}

TEST(ViewLifetime, DrilledChildPinsItsParent) {
  auto d = Deployment::Create();
  ASSERT_NE(d, nullptr);
  std::optional<Spreadsheet> parent(
      d->Root().FilterRange("DepDelay", 0, 60).Take());
  std::optional<Spreadsheet> child(
      parent->FilterRange("Distance", 0, 1500).Take());
  const std::string parent_id = parent->dataset_id();
  const std::string child_id = child->dataset_id();
  const int64_t rows = child->RowCount().value();
  parent.reset();
  EXPECT_TRUE(Present(*d, parent_id));

  // The heal rebuilds the parent on the restarted worker from the lineage
  // the child keeps.
  d->session->RestartWorker(1);
  RootSession::QueryStats stats;
  Result<int64_t> healed = CountRows(*d, child_id, &stats);
  ASSERT_TRUE(healed.ok()) << healed.status().ToString();
  EXPECT_EQ(healed.value(), rows);
  EXPECT_EQ(stats.coverage, 1.0);
  EXPECT_TRUE(Present(*d, parent_id));

  child.reset();
  EXPECT_TRUE(Gone(*d, child_id));
  EXPECT_TRUE(Gone(*d, parent_id));
}

// The stream's own pin carries its id after the view is gone: it answers in
// full, healing a restarted worker from the lineage it pins, and the id is
// released once it settles.
TEST(ViewLifetime, StreamOutlivesItsView) {
  for (bool restart : {false, true}) {
    SCOPED_TRACE(restart ? "after a restart" : "healthy");
    auto d = Deployment::Create();
    ASSERT_NE(d, nullptr);
    std::optional<Spreadsheet> view(
        d->Root().FilterRange("DepDelay", 0, 60).Take());
    const std::string id = view->dataset_id();
    // Cached, so HistogramStream plans without a blocking query.
    const int64_t rows = view->ColumnRange("DepDelay").value().TotalRows();

    // Each worker's one pool thread waits at the gate, so the stream cannot
    // settle before its view is dropped.
    PoolGate gate(d->workers);
    if (restart) d->session->RestartWorker(1);
    auto stream = view->HistogramStream("DepDelay");
    ASSERT_TRUE(stream.ok()) << stream.status().ToString();
    view.reset();
    EXPECT_FALSE(d->cluster->Partitions(id).empty());
    gate.Open();

    auto last = stream.value()->BlockingLast();
    ASSERT_TRUE(stream.value()->final_status().ok())
        << stream.value()->final_status().ToString();
    ASSERT_TRUE(last.has_value());
    EXPECT_EQ(last->coverage, 1.0);
    EXPECT_EQ(last->value.rows_scanned, rows);
    EXPECT_TRUE(Gone(*d, id));
  }
}

TEST(ViewLifetime, ViewOfABaseLeavesTheBaseRegistered) {
  auto d = Deployment::Create();
  ASSERT_NE(d, nullptr);
  {
    Spreadsheet sheet = d->Root();
    Spreadsheet copy = sheet;
    ASSERT_TRUE(copy.RowCount().ok());
  }
  EXPECT_TRUE(Present(*d, "flights"));
  RootSession::QueryStats stats;
  EXPECT_EQ(CountRows(*d, "flights", &stats).value(), 8000);
}

// Two sessions that derive one id share it until the last lets go; derived
// again, the id is served its ColumnRange from the shared cache.
TEST(ViewLifetime, SessionsShareADerivedIdUntilTheLastLetsGo) {
  auto d = Deployment::Create();
  ASSERT_NE(d, nullptr);
  auto other = d->cluster->OpenSession();
  std::optional<Spreadsheet> mine(
      d->Root().FilterRange("DepDelay", 0, 60).Take());
  std::optional<Spreadsheet> theirs(
      Spreadsheet(other.get(), "flights", kScreen)
          .FilterRange("DepDelay", 0, 60)
          .Take());
  const std::string id = mine->dataset_id();
  ASSERT_EQ(theirs->dataset_id(), id);
  ASSERT_TRUE(mine->ColumnRange("DepDelay").ok());

  mine.reset();
  EXPECT_TRUE(Present(*d, id));
  EXPECT_TRUE(theirs->RowCount().ok());
  theirs.reset();
  EXPECT_TRUE(Gone(*d, id));

  const ComputationCache::Stats before = d->cluster->shared_cache().Snapshot();
  Spreadsheet again = d->Root().FilterRange("DepDelay", 0, 60).Take();
  EXPECT_EQ(again.dataset_id(), id);
  ASSERT_TRUE(again.ColumnRange("DepDelay").ok());
  const ComputationCache::Stats after = d->cluster->shared_cache().Snapshot();
  EXPECT_EQ(after.hits, before.hits + 1);
  EXPECT_EQ(after.misses, before.misses);
}

TEST(ViewLifetime, FailedMapLeavesNothingBehind) {
  auto d = Deployment::Create();
  ASSERT_NE(d, nullptr);
  Spreadsheet root = d->Root();
  ASSERT_TRUE(root.RowCount().ok());
  std::string id;
  {
    auto view = root.FilterRange("DepDelay", 0, 60);
    ASSERT_TRUE(view.ok());
    id = view.value().dataset_id();
  }
  EXPECT_TRUE(Gone(*d, id));

  // Worker 0 maps; worker 1 lost the parent, so the map fails there and
  // releases what it recorded.
  d->session->RestartWorker(1);
  auto failed = root.FilterRange("DepDelay", 0, 60);
  EXPECT_EQ(failed.status().code(), StatusCode::kUnavailable);
  EXPECT_TRUE(Gone(*d, id));
}

// Brush-like gestures: 4 superseding FilterRange + HistogramStream renders
// each, every 2nd gesture drilling into its last view, 3 deep at most. Once
// every stream settles, only the drilled chain is left on the workers.
TEST(ViewLifetime, BrushSoakKeepsOnlyTheHeldViews) {
  constexpr int kGestures = 500;
  constexpr int kRenders = 4;
  constexpr int kDrillEvery = 2;
  constexpr size_t kMaxDepth = 3;
  auto d = Deployment::Create();
  ASSERT_NE(d, nullptr);
  Spreadsheet root = d->Root();
  const RangeResult range = root.ColumnRange("DepDelay").value();
  Random rng(7);
  std::vector<Spreadsheet> chain;
  double chain_lo = range.min;
  double chain_hi = range.max;
  std::set<std::string> seen;
  for (int g = 0; g < kGestures; ++g) {
    Spreadsheet& base = chain.empty() ? root : chain.back();
    const double span = chain_hi - chain_lo;
    const double width = span * (0.3 + 0.5 * rng.NextDouble());
    const double lo = chain_lo + (span - width) * rng.NextDouble();
    std::vector<Spreadsheet> views;
    std::vector<StreamPtr<PartialResult<HistogramResult>>> streams;
    for (int r = 0; r < kRenders; ++r) {
      CancellationTokenPtr token = d->session->BeginRender("brush");
      auto view =
          base.FilterRange("DepDelay", lo, lo + width * (r + 1) / kRenders);
      ASSERT_TRUE(view.ok()) << view.status().ToString();
      auto stream = view.value().HistogramStream("DepDelay", token);
      ASSERT_TRUE(stream.ok()) << stream.status().ToString();
      seen.insert(view.value().dataset_id());
      views.push_back(view.Take());
      streams.push_back(stream.Take());
    }
    for (const auto& stream : streams) {
      (void)stream->BlockingLast();
      const Status status = stream->final_status();
      ASSERT_TRUE(status.ok() || status.code() == StatusCode::kCancelled)
          << status.ToString();
    }
    ASSERT_TRUE(streams.back()->final_status().ok());
    if (g % kDrillEvery == kDrillEvery - 1) {
      if (chain.size() + 1 >= kMaxDepth) {
        chain.clear();
        chain_lo = range.min;
        chain_hi = range.max;
      } else {
        chain.push_back(views.back());
        chain_lo = lo;
        chain_hi = lo + width;
      }
    }
  }
  std::set<std::string> held;
  for (const auto& view : chain) held.insert(view.dataset_id());
  for (const auto& id : seen) {
    if (held.count(id) != 0) {
      EXPECT_TRUE(Present(*d, id));
    } else {
      EXPECT_TRUE(Gone(*d, id));
    }
  }
}

}  // namespace
}  // namespace hillview
