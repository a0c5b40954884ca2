#ifndef HILLVIEW_SKETCH_KLL_H_
#define HILLVIEW_SKETCH_KLL_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/random.h"

namespace hillview {

/// Weighted KLL quantile-summary core (Karnin-Lang-Liberty, FOCS'16),
/// adapted to the flattened representation the quantile vizketch ships over
/// the wire: one globally key-sorted item sequence with a parallel weight
/// vector. A "compactor level" is a weight class — all items of weight w —
/// so level h holds the survivors of h pairwise compactions (w = 2^h for
/// summaries we built ourselves; hostile wire input may carry arbitrary
/// weights, which the planner still handles by exact-weight grouping).
///
/// The split below keeps the algorithms generic over the item type without
/// templating the whole sketch: every decision (which level to compact,
/// which item of a pair survives, which items a subsample keeps, where a
/// weighted quantile lands) depends only on the weight vector, so the
/// planners live in kll.cc and return index lists; the merge planner below
/// takes the item order as a callback and returns an index list too. The
/// caller applies the indices to whatever the items are (the quantile
/// sketch keeps its keys column-wise, so each column gathers once from the
/// final index list).
///
/// Randomness is an explicit `Random` (xoshiro) seeded by the caller from
/// the sketch seed — never wall-clock — so the redo log replays a crashed
/// merge tree to the identical summary (§5.8).

/// Geometry of the compaction schedule. Level capacities follow
///   k_h = ceil(k * c^(H-1-h)),  h = 0 (weight 1) .. H-1 (top),
/// i.e. the top (heaviest) level keeps k items and each level below decays
/// by c, the KLL shape that concentrates memory where an error hurts most.
/// k is derived from the caller's total item budget so the geometric sum
/// sum_h k_h ~ k/(1-c) stays within it.
struct KllParams {
  /// Decay ratio c. 2/3 is the KLL paper's recommendation.
  static constexpr double kDecay = 2.0 / 3.0;
  /// No level's capacity decays below this (a 1-item level cannot compact).
  static constexpr int kMinLevelCapacity = 2;

  /// Top-level capacity for a total item budget: k = ceil(budget*(1-c)),
  /// clamped to kMinLevelCapacity.
  static int TopCapacityForBudget(int budget);

  /// ceil(k * c^(levels_above_this_one)) clamped to kMinLevelCapacity.
  static int LevelCapacity(int top_capacity, int levels_above);
};

/// Error ledger for one summary: every compaction of a weight-w level
/// perturbs any single rank query by at most w (only the pair straddling
/// the query point can flip), with mean zero and variance w² under the
/// random parity. Accumulated across merges (ledgers add), it yields both a
/// deterministic worst-case bound (Σw) and a concentration bound (Σw²).
struct KllErrorLedger {
  uint64_t worst = 0;     // Σ w over compactions: worst-case rank shift
  double variance = 0.0;  // Σ w² over compactions: rank-shift variance

  void Add(const KllErrorLedger& other) {
    worst += other.worst;
    variance += other.variance;
  }
};

/// Normalized (fraction-of-total-rank) error bound for a summary with the
/// given ledger and total weight: min(worst-case, 3σ concentration). Zero
/// for an uncompacted (all unit weight) summary.
double KllRankErrorBound(const KllErrorLedger& ledger, uint64_t total_weight);

/// Compacts `weights` (parallel to a key-sorted item sequence) until at most
/// `budget` items survive: repeatedly picks the lowest weight class over its
/// schedule capacity (or the lowest compactable class once none is), pairs
/// its items in rank order, and keeps one item per pair — the even or the
/// odd one, a single coin per compaction — at doubled weight, leaving the
/// unpaired tail item untouched so total weight is conserved exactly.
/// Appends the survivors' original indices (ascending, so applying them
/// preserves sort order) to `kept`, rewrites `weights` to the survivors'
/// new weights, and charges each compaction to `ledger`. No-op (identity
/// `kept`) when the sequence already fits.
void KllCompactToBudget(std::vector<uint64_t>* weights, int budget,
                        Random* coin, KllErrorLedger* ledger,
                        std::vector<uint32_t>* kept);

/// Bernoulli-thins `n` items with keep probability `p` (the rate-reconciling
/// subsample of a merge between partitions sampled at different rates):
/// appends kept indices in ascending order. p >= 1 keeps everything.
void KllSubsampleIndices(size_t n, double p, Random* coin,
                         std::vector<uint32_t>* kept);

/// Weighted quantile select over a key-sorted weight vector: the index of
/// the item covering rank position q*(W-1)+1/2 of total weight W (for unit
/// weights this is round(q*(n-1)), the classic midpoint rule). Returns
/// SIZE_MAX when empty. q is clamped to [0,1].
size_t KllSelectIndex(const std::vector<uint64_t>& weights, double q);

/// Applies a planner's kept-index list to the item sequence the weights
/// were parallel to. Indices must be ascending (the planners guarantee it).
template <typename Item>
void KllApplyKept(std::vector<Item>* items,
                  const std::vector<uint32_t>& kept) {
  for (size_t i = 0; i < kept.size(); ++i) {
    if (kept[i] != i) (*items)[i] = std::move((*items)[kept[i]]);
  }
  items->resize(kept.size());
}

/// Merge planner for two key-sorted sequences, `left_items` and
/// `right_items` (ascending item indices into each side; a thinned side
/// lists only its kept items). Writes the merged order to `order` as
/// indices into the concatenation of both sides: left item i is i, right
/// item j is left_size + j. `right_first(i, j)` is true when right item j
/// sorts strictly before left item i, so ties keep the left item first.
/// Nothing is compacted here: the caller gathers weights through `order`,
/// compacts them against its budget, and gathers the items last.
template <typename RightFirst>
void KllMergeOrder(const std::vector<uint32_t>& left_items,
                   const std::vector<uint32_t>& right_items,
                   uint32_t left_size, RightFirst right_first,
                   std::vector<uint32_t>* order) {
  order->clear();
  order->reserve(left_items.size() + right_items.size());
  size_t i = 0, j = 0;
  while (i < left_items.size() && j < right_items.size()) {
    // Selects instead of branching: the side that goes next is data.
    const bool right = right_first(left_items[i], right_items[j]);
    order->push_back(right ? left_size + right_items[j] : left_items[i]);
    i += !right;
    j += right;
  }
  for (; i < left_items.size(); ++i) order->push_back(left_items[i]);
  for (; j < right_items.size(); ++j) {
    order->push_back(left_size + right_items[j]);
  }
}

}  // namespace hillview

#endif  // HILLVIEW_SKETCH_KLL_H_
