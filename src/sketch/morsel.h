#ifndef HILLVIEW_SKETCH_MORSEL_H_
#define HILLVIEW_SKETCH_MORSEL_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "sketch/sketch.h"
#include "storage/membership.h"
#include "storage/table.h"
#include "util/thread_pool.h"

namespace hillview {

/// Morsel-driven intra-worker parallelism: a single partition's summarize is
/// split into cache-sized row ranges ("morsels") fanned across the worker's
/// pool and merged back with the sketch's own Merge. The engine only engages
/// it for sketches that declare Sketch::MorselMergeExact() — the fold over
/// morsel summaries is then BYTE-IDENTICAL to the single-thread scan, so
/// ComputationCache keys and redo-log replay never observe whether a result
/// was computed on one thread or eight.
///
/// Determinism comes from three choices: morsel boundaries are 64-row-
/// aligned (so null/membership words are never split mid-word and the scan
/// layer's word-at-a-time loops see the same blocks), every morsel
/// summarizes under the SAME seed as the whole partition would, and the
/// merge is a left fold in ascending row order over a pre-sized slot array —
/// completion order never matters.

/// Default minimum rows per morsel: 2^18 rows keeps one double column's
/// morsel around 2 MB — roughly an L2 slice — so a morsel's scan stays
/// cache-resident while still amortizing the fan-out overhead. Ranges are
/// always multiples of 64 rows.
inline constexpr uint32_t kDefaultMorselRows = 1u << 18;

/// Test hook: overrides the minimum morsel size (rounded up to a multiple of
/// 64) so small property-test tables still fan out; 0 restores the default.
/// Atomic — safe to flip between (not during) summarize calls.
void SetMorselMinRowsForTest(uint32_t rows);

/// The active minimum rows per morsel (the override, or kDefaultMorselRows).
uint32_t MorselMinRows();

/// Splits the universe [0, universe_size) into consecutive [begin, end)
/// ranges of `morsel_rows` rows (rounded up to a multiple of 64; the last
/// range takes the remainder).
std::vector<std::pair<uint32_t, uint32_t>> PlanMorselRanges(
    uint32_t universe_size, uint32_t morsel_rows);

/// The member rows of `base` restricted to universe rows [begin, end), over
/// the SAME universe (morsel tables must keep the partition's row ids —
/// columns are shared, not sliced). `begin` must be 64-aligned.
MembershipPtr SliceMembership(const IMembershipSet& base, uint32_t begin,
                              uint32_t end);

/// True when the context carries a flipped cancellation token: the render
/// this scan serves has been superseded. The single polling predicate for
/// every morsel boundary, so "checked at morsel boundaries" means exactly
/// one thing tree-wide.
bool MorselCancelled(const SketchContext& context);

/// Summarizes `table` for `sketch`, fanning across morsels when the sketch
/// declares exact morsel merging, the context provides an auxiliary pool,
/// and the table is big enough to pay for the fan-out; otherwise falls back
/// to the plain single-thread summarize. This is the engine's single choke
/// point (core/any_sketch.h routes every leaf summarize here).
template <typename R>
R SummarizeWithMorsels(const Sketch<R>& sketch, const Table& table,
                       uint64_t seed, const SketchContext& context) {
  ThreadPool* pool = sketch.MorselMergeExact() ? context.aux_pool : nullptr;
  const IMembershipSet& members = *table.members();
  const uint32_t morsel_rows = MorselMinRows();
  if (pool == nullptr || pool->num_threads() < 1 ||
      members.size() < 2 * morsel_rows) {
    return sketch.Summarize(table, seed, context);
  }
  const auto ranges = PlanMorselRanges(members.universe_size(), morsel_rows);
  if (ranges.size() < 2) return sketch.Summarize(table, seed, context);

  // Morsels run with the aux pool stripped from their context: the fan-out
  // already owns the pool's parallelism, and a nested fan-out would only
  // re-split the same rows. The key cache stays available, and so is the
  // cancellation token — each morsel is a poll point.
  SketchContext inner = context;
  inner.aux_pool = nullptr;

  std::vector<R> parts(ranges.size());
  ParallelApply(pool, static_cast<int>(ranges.size()), [&](int i) {
    // Cancellation is checked at the morsel boundary: a morsel already
    // running finishes (§5.3's "do not stop ongoing computations"), but no
    // further morsel starts once the render is superseded. Skipped slots
    // stay zero summaries, so the fold below produces an INCOMPLETE result —
    // the leaf that polled the token discards it instead of emitting.
    if (MorselCancelled(inner)) return;
    TablePtr morsel = table.WithMembership(
        SliceMembership(members, ranges[i].first, ranges[i].second));
    parts[i] = sketch.Summarize(*morsel, seed, inner);
  });

  // Ascending left fold from the first morsel (not from Zero(): the
  // contract in Sketch::MorselMergeExact is defined over the parts alone,
  // and Merge's Zero-identity handling may short-circuit rather than add).
  R acc = std::move(parts[0]);
  for (size_t i = 1; i < parts.size(); ++i) {
    acc = sketch.Merge(acc, parts[i]);
  }
  return acc;
}

}  // namespace hillview

#endif  // HILLVIEW_SKETCH_MORSEL_H_
