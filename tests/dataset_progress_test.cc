// Regression tests for RunTypedSketch progress forwarding: partial results
// whose summary is empty (progress-only ticks from an aggregation tree) must
// still reach typed subscribers, and the progress sequence observed by a
// subscriber is monotone and reaches 1.0.

#include <gtest/gtest.h>

#include <vector>

#include "core/dataset.h"
#include "sketch/range_moments.h"
#include "test_util.h"

namespace hillview {
namespace {

/// A dataset that replays a scripted sequence of type-erased partial
/// results, standing in for an execution tree that emits progress ticks
/// before any child summary has merged.
class ScriptedDataSet final : public IDataSet {
 public:
  explicit ScriptedDataSet(std::vector<PartialResult<AnySummary>> script)
      : script_(std::move(script)) {}

  StreamPtr<PartialResult<AnySummary>> RunSketch(
      const AnySketch& sketch, const SketchOptions& options) override {
    (void)sketch;
    (void)options;
    auto stream = std::make_shared<Stream<PartialResult<AnySummary>>>();
    for (const auto& partial : script_) stream->OnNext(partial);
    stream->OnComplete(Status::OK());
    return stream;
  }

  int NumPartitions() const override { return 1; }

 private:
  std::vector<PartialResult<AnySummary>> script_;
};

TEST(RunTypedSketch, ForwardsProgressOnlyPartials) {
  // Two progress-only ticks (empty summary), then the final summary.
  std::vector<PartialResult<AnySummary>> script;
  script.push_back({0.25, AnySummary{}});
  script.push_back({0.5, AnySummary{}});
  script.push_back({1.0, AnySummary::Wrap<CountResult>(CountResult{42})});
  ScriptedDataSet ds(std::move(script));

  auto stream = RunTypedSketch<CountResult>(ds, std::make_shared<CountSketch>());
  std::vector<PartialResult<CountResult>> seen;
  stream->Subscribe([&](const PartialResult<CountResult>& p) {
    seen.push_back(p);
  });

  // Every tick is forwarded, including the ones with no summary.
  ASSERT_EQ(seen.size(), 3u);
  EXPECT_DOUBLE_EQ(seen[0].progress, 0.25);
  EXPECT_DOUBLE_EQ(seen[1].progress, 0.5);
  EXPECT_DOUBLE_EQ(seen[2].progress, 1.0);
  // Ticks before any summary carry the zero summary; the last carries it.
  EXPECT_EQ(seen[0].value.rows, 0);
  EXPECT_EQ(seen[1].value.rows, 0);
  EXPECT_EQ(seen[2].value.rows, 42);
}

TEST(RunTypedSketch, EmptyTickAfterSummaryRepeatsLastSummary) {
  std::vector<PartialResult<AnySummary>> script;
  script.push_back({0.5, AnySummary::Wrap<CountResult>(CountResult{7})});
  script.push_back({0.75, AnySummary{}});  // progress tick, no new merge
  script.push_back({1.0, AnySummary::Wrap<CountResult>(CountResult{11})});
  ScriptedDataSet ds(std::move(script));

  auto stream = RunTypedSketch<CountResult>(ds, std::make_shared<CountSketch>());
  std::vector<PartialResult<CountResult>> seen;
  stream->Subscribe([&](const PartialResult<CountResult>& p) {
    seen.push_back(p);
  });

  ASSERT_EQ(seen.size(), 3u);
  EXPECT_DOUBLE_EQ(seen[1].progress, 0.75);
  EXPECT_EQ(seen[1].value.rows, 7);  // last summary is re-emitted
  EXPECT_EQ(seen[2].value.rows, 11);
}

TEST(SketchAndWait, NoSummaryStreamIsAnErrorNotZero) {
  // A stream that completes OK without ever carrying a summary must not be
  // mistaken for a real zero result.
  std::vector<PartialResult<AnySummary>> script;
  script.push_back({0.5, AnySummary{}});
  script.push_back({1.0, AnySummary{}});
  ScriptedDataSet ds(std::move(script));

  auto result = SketchAndWait<CountResult>(ds, std::make_shared<CountSketch>());
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInternal);
}

TEST(SketchAndWait, TrailingProgressOnlyTickKeepsFinalSummary) {
  std::vector<PartialResult<AnySummary>> script;
  script.push_back({0.9, AnySummary::Wrap<CountResult>(CountResult{42})});
  script.push_back({1.0, AnySummary{}});  // progress tick after the summary
  ScriptedDataSet ds(std::move(script));

  auto result = SketchAndWait<CountResult>(ds, std::make_shared<CountSketch>());
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().rows, 42);
}

TEST(RunTypedSketch, ProgressIsMonotoneAndReachesOne) {
  // A real execution tree: 8 partitions on a shared pool, progressive
  // emission with no aggregation window so every completion ticks.
  ThreadPool pool(4);
  std::vector<DataSetPtr> children;
  for (int i = 0; i < 8; ++i) {
    children.push_back(LocalDataSet::FromTable(
        testing::MakeDoubleTable("x", testing::UniformDoubles(100, 0, 1, i))));
  }
  ParallelDataSet::Options options;
  options.aggregation_window_ms = 0.0;
  options.progressive = true;
  ParallelDataSet parallel(std::move(children), &pool, options);

  auto stream =
      RunTypedSketch<CountResult>(parallel, std::make_shared<CountSketch>());
  std::vector<double> progress;
  stream->Subscribe([&](const PartialResult<CountResult>& p) {
    progress.push_back(p.progress);
  });
  auto last = stream->BlockingLast();
  ASSERT_TRUE(stream->final_status().ok());

  ASSERT_FALSE(progress.empty());
  for (size_t i = 1; i < progress.size(); ++i) {
    EXPECT_GE(progress[i], progress[i - 1]) << "tick " << i;
  }
  EXPECT_DOUBLE_EQ(progress.back(), 1.0);
  ASSERT_TRUE(last.has_value());
  EXPECT_EQ(last->value.rows, 800);
}

}  // namespace
}  // namespace hillview
