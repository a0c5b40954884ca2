// Ingestion-path microbenchmark: CSV and JSONL parse throughput, the cold
// half of every cold-start measurement (Fig 5 loads data from files before
// the first chart can render). Reports MB/s and rows/s for plain-ASCII
// input and for escape-heavy JSONL (quotes, newlines, \uXXXX including
// surrogate pairs), which stresses the per-character unescape loop. Each
// format also prints `METRIC <format>_mb_per_s` and `<format>_rows_per_s`
// lines, which bench/run_benches.sh lifts into the result's metrics.

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.h"
#include "storage/csv.h"
#include "storage/jsonl.h"
#include "util/random.h"
#include "util/stopwatch.h"

namespace hillview {
namespace {

std::string MakeCsvCorpus(uint32_t rows) {
  Random rng(0xC5F);
  std::string text = "ts,service,latency_ms,status\n";
  for (uint32_t i = 0; i < rows; ++i) {
    text += std::to_string(1700000000 + i) + ",svc" +
            std::to_string(rng.NextUint64(16)) + "," +
            std::to_string(rng.NextDouble() * 500.0) + "," +
            std::to_string(rng.NextUint64(2) == 0 ? 200 : 500) + "\n";
  }
  return text;
}

std::string MakeJsonlCorpus(uint32_t rows, bool escape_heavy) {
  Random rng(0x15A);
  std::string text;
  for (uint32_t i = 0; i < rows; ++i) {
    text += "{\"ts\":" + std::to_string(1700000000 + i) + ",\"msg\":\"";
    if (escape_heavy) {
      // Quoted, multi-line, non-Latin-1 log payloads.
      text += "r\\u00e9ponse \\\"time\\\"\\n\\u0416\\u4e16 \\ud83d\\ude00 #" +
              std::to_string(i);
    } else {
      text += "response time ok #" + std::to_string(i);
    }
    text += "\",\"latency\":" + std::to_string(rng.NextDouble() * 500.0) + "}\n";
  }
  return text;
}

/// `key` names the format in the METRIC lines.
void Measure(const std::string& name, const std::string& key,
             const std::string& corpus, uint32_t rows,
             Result<TablePtr> (*parse)(const std::string&)) {
  // Median of 5 runs.
  std::vector<double> times;
  uint64_t parsed_rows = 0;
  for (int r = 0; r < 5; ++r) {
    Stopwatch watch;
    auto table = parse(corpus);
    times.push_back(watch.ElapsedMillis());
    if (!table.ok()) {
      std::printf("%-24s PARSE ERROR: %s\n", name.c_str(),
                  table.status().ToString().c_str());
      return;
    }
    parsed_rows = table.value()->num_rows();
  }
  std::sort(times.begin(), times.end());
  double ms = times[2];
  double mb = static_cast<double>(corpus.size()) / 1e6;
  const double mb_per_s = mb / (ms / 1e3);
  const double rows_per_s = static_cast<double>(parsed_rows) / (ms / 1e3);
  std::printf("%-24s %10.1f MB %10.2f ms %10.1f MB/s %12.0f rows/s\n",
              name.c_str(), mb, ms, mb_per_s, rows_per_s);
  if (parsed_rows != rows) {
    std::printf("  (!) expected %u rows, parsed %llu\n", rows,
                static_cast<unsigned long long>(parsed_rows));
    return;
  }
  std::printf("METRIC %s_mb_per_s %.1f\n", key.c_str(), mb_per_s);
  std::printf("METRIC %s_rows_per_s %.0f\n", key.c_str(), rows_per_s);
}

Result<TablePtr> ParseCsv(const std::string& text) {
  return ReadCsvText(text);
}
Result<TablePtr> ParseJsonl(const std::string& text) {
  return ReadJsonlText(text);
}

void Run() {
  const uint32_t rows =
      static_cast<uint32_t>(200000 * bench::BenchScale());
  bench::PrintHeader("Ingestion throughput (cold-start parse path)");
  std::printf("%-24s %13s %13s %15s %13s\n", "format", "input", "median",
              "throughput", "rows");
  Measure("csv", "csv", MakeCsvCorpus(rows), rows, &ParseCsv);
  Measure("jsonl ascii", "jsonl_ascii", MakeJsonlCorpus(rows, false), rows,
          &ParseJsonl);
  Measure("jsonl escape-heavy", "jsonl_escape_heavy",
          MakeJsonlCorpus(rows, true), rows, &ParseJsonl);
  std::printf(
      "\nExpected shape: escape-heavy JSONL pays for the per-character\n"
      "unescape loop (incl. UTF-8 encoding of \\u escapes) but stays within\n"
      "a small factor of ASCII; both formats are dominated by the\n"
      "column-builder appends, not the scanner.\n");
}

}  // namespace
}  // namespace hillview

int main() {
  hillview::Run();
  return 0;
}
