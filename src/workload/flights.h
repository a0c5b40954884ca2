#ifndef HILLVIEW_WORKLOAD_FLIGHTS_H_
#define HILLVIEW_WORKLOAD_FLIGHTS_H_

#include <cstdint>
#include <vector>

#include "core/dataset.h"
#include "storage/columnar_file.h"
#include "storage/table.h"

namespace hillview {
namespace workload {

/// Synthetic stand-in for the US DoT on-time flight performance dataset the
/// paper evaluates on ([71]: 130M rows, 110 columns, 20 years; numerical,
/// categorical, text, and undefined values).
///
/// The generator reproduces the statistical features the evaluation depends
/// on, not the true values:
///  - skewed categorical columns (airlines ~ Zipf over 18 carriers,
///    airports ~ Zipf over ~350 codes, states over 53);
///  - heavy-tailed delay columns with negative values and missing entries
///    (cancelled flights have no departure/arrival data);
///  - dates spanning 20 years; flight numbers as free-ish text/ints;
///  - optional filler metric columns to reach a target column count, so
///    cell-count scaling (rows × columns) matches the paper's arithmetic.
///
/// Generation is deterministic in (seed, partition): the same partition can
/// be regenerated after eviction or worker restarts, standing in for an
/// immutable storage snapshot (§5.4).
struct FlightsOptions {
  /// Extra filler numeric columns ("metric_00"...) beyond the ~20 core
  /// columns. The paper's table has 110 columns; the default keeps memory
  /// laptop-friendly while staying schema-faithful. Set to 90 to match.
  int filler_columns = 0;
};

/// Column names of the core schema (used by operations and examples).
/// Year, Month, DayOfMonth, DayOfWeek, FlightDate, Airline, FlightNumber,
/// Origin, OriginState, Dest, DestState, CrsDepTime, DepTime, DepDelay,
/// ArrDelay, TaxiIn, TaxiOut, Cancelled, Distance, AirTime, WeatherDelay.
Schema FlightsSchema(const FlightsOptions& options = {});

/// Generates one micropartition of `rows` flights deterministically.
TablePtr GenerateFlights(uint32_t rows, uint64_t seed,
                         const FlightsOptions& options = {});

/// Partition loaders for a dataset of `total_rows`, `rows_per_partition`
/// each, for RootSession::LoadDataSet. Loader i regenerates partition i on
/// demand (the "re-read from the repository" path of §5.7).
std::vector<LocalDataSet::Loader> FlightsLoaders(
    uint64_t total_rows, uint32_t rows_per_partition, uint64_t seed,
    const FlightsOptions& options = {});

/// File-backed variant: spills each partition to `dir/flights_NNNN.hvcf`
/// (skipping files that already exist — the spill is deterministic in
/// (seed, partition), so an existing file is the same bytes) and returns
/// loaders that reopen the files through `backend`. This is the full
/// repository path of §5.4: with StorageBackend::kMmap the partitions are
/// served zero-copy out of the page cache and eviction costs nothing for
/// resident pages; with kHeap plus `read_options.bytes_per_second` the
/// loaders model a cold medium. Returns an error status if any spill fails.
Result<std::vector<LocalDataSet::Loader>> FlightsFileLoaders(
    const std::string& dir, uint64_t total_rows, uint32_t rows_per_partition,
    uint64_t seed, StorageBackend backend, ReadOptions read_options = {},
    const FlightsOptions& options = {});

}  // namespace workload
}  // namespace hillview

#endif  // HILLVIEW_WORKLOAD_FLIGHTS_H_
