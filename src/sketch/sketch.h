#ifndef HILLVIEW_SKETCH_SKETCH_H_
#define HILLVIEW_SKETCH_SKETCH_H_

#include <memory>
#include <string>

#include "storage/table.h"
#include "util/cancellation.h"
#include "util/status.h"

namespace hillview {

class ThreadPool;
class SortKeyCache;

/// Optional worker-local resources handed to a sketch execution by the
/// engine. `aux_pool` is the pool for intra-partition parallelism (morsels,
/// find-text matching a huge dictionary). On a worker it is the same pool
/// that runs Summarize itself; fanning out on it cannot deadlock because
/// ParallelApply's caller works through the items alongside the pool's
/// threads and never waits for queue capacity (util/thread_pool.h).
/// `key_cache` is the worker-resident sort-key cache, so order-based
/// sketches reuse materialized key columns across repeated scrolls of the
/// same view. Either may be null (single-threaded callers: tests, benches,
/// standalone examples); sketches then work inline / rebuild keys per scan.
///
/// `cancellation` carries the render's cancellation token down to the morsel
/// fan-out (sketch/morsel.h): a superseded render stops scheduling new
/// morsels at the next boundary. A summarize that observed the token flipped
/// may return an INCOMPLETE summary — the engine layer that noticed the
/// cancellation discards it (the leaf completes Cancelled instead of
/// emitting). May be null.
struct SketchContext {
  ThreadPool* aux_pool = nullptr;
  SortKeyCache* key_cache = nullptr;
  CancellationTokenPtr cancellation;
};

/// A mergeable summarization method (§4.1): `Summarize` maps a dataset
/// partition to a small summary; `Merge` combines two summaries such that
///
///   Summarize(D1 ⊎ D2) == Merge(Summarize(D1), Summarize(D2))
///
/// exactly for streaming sketches and in distribution for sampled ones.
/// Vizketches are sketches whose parameters (bucket counts, sample sizes)
/// are derived from a display resolution; that derivation lives in
/// `render/` — the sketch itself is pure data summarization.
///
/// Implementations must be deterministic functions of (table, seed): the
/// engine replays (sketch, seed) pairs from the redo log after failures
/// (§5.8), so a restarted worker must reproduce identical summaries.
///
/// The summary type R must be default-constructible (== the zero summary),
/// copyable, and define
///   void Serialize(ByteWriter*) const;
///   static Status Deserialize(ByteReader*, R*);
/// which the simulated cluster uses to move summaries between machines and
/// to charge network bytes.
template <typename R>
class Sketch {
 public:
  using ResultType = R;

  virtual ~Sketch() = default;

  /// Stable name recorded in the redo log and the computation-cache key.
  virtual std::string name() const = 0;

  /// The identity element of Merge: the summary of an empty dataset.
  virtual R Zero() const = 0;

  /// Computes the summary of one partition. `seed` is the partition-specific
  /// deterministic seed (already mixed from the root seed by the engine);
  /// non-randomized sketches ignore it. Must be side-effect free and must
  /// not spawn its own threads — the engine owns all concurrency (§5.5),
  /// except through the context's auxiliary pool below.
  virtual R Summarize(const Table& table, uint64_t seed) const = 0;

  /// Context-aware variant invoked by the engine; the default ignores the
  /// context. Sketches that can exploit worker-local resources (the
  /// auxiliary pool) override this one and route the plain overload here.
  virtual R Summarize(const Table& table, uint64_t seed,
                      const SketchContext& context) const {
    (void)context;
    return Summarize(table, seed);
  }

  /// Combines two summaries. Must be associative with Zero() as identity,
  /// and commutative for all sketches in this library (partial results can
  /// arrive in any order).
  virtual R Merge(const R& left, const R& right) const = 0;

  /// Whether this sketch's summaries are BYTE-IDENTICAL under partition
  /// splitting: for every decomposition of a table's member rows into
  /// 64-row-aligned ranges r1 < r2 < ... < rk,
  ///
  ///   Merge(...Merge(Summarize(r1), Summarize(r2))..., Summarize(rk))
  ///     == Summarize(whole table)   byte for byte,
  ///
  /// with every piece summarized under the SAME seed. This is a much
  /// stronger property than mergeability: it is what lets the engine fan a
  /// single partition's summarize across morsels (sketch/morsel.h) without
  /// perturbing ComputationCache keys or redo-log replay. It typically
  /// holds for integer-count tallies (histograms at rate >= 1) and
  /// order-insensitive maxima (HyperLogLog registers), and typically FAILS
  /// for: sampled scans (the skip sequence restarts per range), floating-
  /// point accumulations (reassociated sums), lossy merges (Misra-Gries
  /// decrements), and anything that recomputes over merged state. Default
  /// is the safe answer.
  virtual bool MorselMergeExact() const { return false; }

  /// Whether a summary decoded from another machine has the shape this
  /// sketch's own summaries have (e.g. one count per bucket), so merging it
  /// never indexes past a shorter operand. The zero summary always fits.
  /// The root checks every summary it decodes and drops one that does not
  /// fit like a corrupt frame. The default accepts any summary.
  virtual Status CheckShape(const R& summary) const {
    (void)summary;
    return Status::OK();
  }
};

template <typename R>
using SketchPtr = std::shared_ptr<const Sketch<R>>;

}  // namespace hillview

#endif  // HILLVIEW_SKETCH_SKETCH_H_
