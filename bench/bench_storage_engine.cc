// End-to-end storage-engine benchmark on REAL files: for each curve, build
// persistent SfcTables over the same point set — one per segment-format
// configuration (pages without filters vs pages with bloom filters) —
// compact them to a single on-disk run, and replay box-query workloads
// through the buffer pool. Reports measured page reads, disk seeks, cache
// hits, on-disk bytes, and modeled HDD latency next to the analytic
// average clustering number — the paper's claim is
// that the measured seek ranking follows the clustering ranking, and here
// it is checked against actual file I/O rather than a simulation.
//
// Two table populations:
//   --mode=grid (default)  every cell of the universe is stored and each
//       page holds one cell — the paper's model, where a grid cell IS a
//       disk block. Measured seeks then equal the clustering number.
//   --mode=random          `--points` uniform random points with multi-entry
//       pages — adds the sparsity effects a real table sees.
//
// Grid mode additionally runs a point-Get phase over a half-populated
// ("checkerboard") grid, where every segment's key span covers the whole
// universe: fence pruning cannot help, so the bloom filter is what saves
// the absent probes. The bench FAILS (nonzero exit) if the filtered
// configuration does not fetch fewer pages for point Gets than the
// unfiltered one — CI smoke-runs this as a regression gate.
//
// Every box workload runs twice per table: a COLD pass (the pool starts
// empty — the paper-model seek measurement the printed tables show) and a
// WARM pass over the same queries (what a steady-state server sees). The
// JSON reports the warm hit ratio as the headline pool_hit_ratio and the
// cold one as pool_hit_ratio_cold.
//
// --page=0 (auto) picks 1 entry/page in grid mode and 256 in random mode.
// --pool_pages=0 (auto, the default) sizes each table's pool to a quarter
// of its page count — a realistic cache:data ratio — instead of a fixed
// token value that leaves every fetch cold. --readahead sets the pool's
// batched-readahead budget in pages (0 disables).
// --quick shrinks the defaults (side 64, 10 queries) so CI can smoke-run
// the whole bench in seconds; explicit flags still win.
//
//   build/bench/bench_storage_engine [--side=256] [--mode=grid]
//       [--points=120000] [--queries=50] [--page=0] [--pool_pages=0]
//       [--readahead=8] [--csv=false] [--quick=false]
//       [--dir=/tmp/onion_bench_storage]

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "analysis/clustering.h"
#include "bench_report.h"
#include "bench_util.h"
#include "common/cli.h"
#include "index/disk_model.h"
#include "obs/metrics.h"
#include "sfc/registry.h"
#include "storage/sfc_table.h"
#include "workloads/generators.h"

namespace {

using namespace onion;

/// One segment-format configuration under comparison.
struct FormatConfig {
  std::string tag;
  uint32_t filter_bits_per_key;
};

uint64_t TableDiskBytes(storage::SfcTable& table) {
  uint64_t total = 0;
  for (const storage::SegmentInfo& info : table.SegmentInfos()) {
    total += info.disk_bytes;
  }
  return total;
}

std::unique_ptr<storage::SfcTable> BuildTable(
    const std::string& dir, const std::string& curve_name,
    const Universe& universe, const storage::SfcTableOptions& options,
    const std::vector<Cell>& points) {
  std::filesystem::remove_all(dir);
  auto table_result =
      storage::SfcTable::Create(dir, curve_name, universe, options);
  ONION_CHECK_MSG(table_result.ok(),
                  table_result.status().ToString().c_str());
  auto table = std::move(table_result).value();
  for (size_t i = 0; i < points.size(); ++i) {
    const Status status = table->Insert(points[i], i);
    ONION_CHECK_MSG(status.ok(), status.ToString().c_str());
  }
  // One sorted run on disk: seeks now mirror the clustering number.
  const Status compacted = table->Compact();
  ONION_CHECK_MSG(compacted.ok(), compacted.ToString().c_str());
  return table;
}

}  // namespace

int main(int argc, char** argv) {
  const CommandLine cli(argc, argv);
  const bool quick = cli.GetBool("quick", false);
  const auto side = static_cast<Coord>(cli.GetInt("side", quick ? 64 : 256));
  const std::string mode = cli.GetString("mode", "grid");
  const auto num_points =
      static_cast<size_t>(cli.GetInt("points", quick ? 20000 : 120000));
  const auto num_queries =
      static_cast<size_t>(cli.GetInt("queries", quick ? 10 : 50));
  auto page = static_cast<uint32_t>(cli.GetInt("page", 0));
  auto pool_pages = static_cast<uint64_t>(cli.GetInt("pool_pages", 0));
  const auto readahead = static_cast<uint64_t>(cli.GetInt("readahead", 8));
  const bool csv = cli.GetBool("csv", false);
  const std::string base_dir =
      cli.GetString("dir", "/tmp/onion_bench_storage");

  const Universe universe(2, side);
  std::vector<Cell> points;
  if (mode == "grid") {
    // The paper's model: the table stores every cell of the universe, so a
    // query's seek count is its clustering number (modulo page merging).
    points.reserve(universe.num_cells());
    for (Coord y = 0; y < side; ++y) {
      for (Coord x = 0; x < side; ++x) points.push_back(Cell(x, y));
    }
  } else if (mode == "random") {
    points = RandomPoints(universe, num_points, 17);
  } else {
    std::printf("unknown --mode=%s (grid|random)\n", mode.c_str());
    return 1;
  }
  if (page == 0) page = mode == "grid" ? 1 : 256;
  if (pool_pages == 0) {
    // Realistic sizing: a quarter of one table's pages. The old fixed
    // default (64) against a 65k-page grid table meant a 0.1% cache — every
    // measurement was a cold-cache measurement whatever the workload did.
    const uint64_t table_pages = (points.size() + page - 1) / page;
    pool_pages = std::max<uint64_t>(64, table_pages / 4);
  }

  struct Workload {
    std::string tag;
    std::vector<Box> queries;
  };
  const std::vector<Workload> workloads = {
      {"cube_small", RandomCubes(universe, side / 8, num_queries, 23)},
      {"cube_large", RandomCubes(universe, side / 2, num_queries, 29)},
      {"corner_rects", RandomCornerBoxes(universe, num_queries, 31)},
  };
  const std::vector<std::string> names = {"onion", "hilbert", "zorder"};
  const std::vector<FormatConfig> configs = {
      {"raw", 0},
      {"raw+filter", 10},
  };

  std::printf("=== storage engine on real files: %zu points (%s) on %ux%u, "
              "%u entries/page, %llu-page pool ===\n\n",
              points.size(), mode.c_str(), side, side, page,
              static_cast<unsigned long long>(pool_pages));
  if (csv) bench::PrintIoCsvHeader();

  // Build every (curve, format) table once; the box workloads and the
  // byte comparison reuse them.
  struct BenchTable {
    std::string curve;
    std::string config;
    std::unique_ptr<storage::SfcTable> table;
  };
  std::vector<BenchTable> tables;
  for (const std::string& name : names) {
    for (const FormatConfig& config : configs) {
      storage::SfcTableOptions options;
      options.entries_per_page = page;
      options.pool_pages = pool_pages;
      options.readahead_pages = readahead;
      options.filter_bits_per_key = config.filter_bits_per_key;
      tables.push_back(BenchTable{
          name, config.tag,
          BuildTable(base_dir + "/" + name + "_" + config.tag, name,
                     universe, options, points)});
    }
  }

  std::printf("--- on-disk footprint ---\n");
  std::printf("%-10s %-14s %14s %14s\n", "curve", "config", "disk KB",
              "filter KB");
  for (const BenchTable& bench_table : tables) {
    uint64_t filter_bytes = 0;
    for (const auto& info : bench_table.table->SegmentInfos()) {
      filter_bytes += info.filter_bytes;
    }
    std::printf("%-10s %-14s %14.1f %14.1f\n", bench_table.curve.c_str(),
                bench_table.config.c_str(),
                static_cast<double>(TableDiskBytes(*bench_table.table)) /
                    1024.0,
                static_cast<double>(filter_bytes) / 1024.0);
  }
  std::printf("\n");

  // Perf-trajectory accumulators for BENCH_storage_engine.json: every box
  // query's wall-clock drain latency (per-query, not per-Next, so the
  // histogram stays meaningfully above the clock's 1us floor) and the
  // physical I/O of every phase.
  obs::Histogram query_latency_us;
  uint64_t total_queries = 0;
  IoStats agg_io;
  IoStats agg_cold;
  IoStats agg_warm;

  for (const Workload& workload : workloads) {
    std::printf("--- workload %s, %zu queries (cold-pass numbers) ---\n",
                workload.tag.c_str(), workload.queries.size());
    std::printf("%-10s %-14s %10s %10s %10s %10s %12s %10s\n", "curve",
                "config", "avg seeks", "page reads", "cache hits",
                "entries/q", "avg cluster", "HDD ms/q");
    uint64_t raw_results = 0;
    for (const BenchTable& bench_table : tables) {
      auto& table = *bench_table.table;
      // One streamed run per query, twice: the COLD pass measures the
      // paper-model seek behavior against an empty (or stale) cache, the
      // WARM pass repeats the same queries against whatever the cold pass
      // made resident — the steady-state a server actually serves from.
      auto run_queries = [&](uint64_t* results) {
        for (const Box& query : workload.queries) {
          // Stream through the cursor API: nothing is materialized, which
          // is how a server would read.
          const obs::ScopedTimer query_timer(&query_latency_us);
          auto cursor = table.NewBoxCursor(query);
          for (; cursor->Valid(); cursor->Next()) ++*results;
          ONION_CHECK_MSG(cursor->status().ok(),
                          cursor->status().ToString().c_str());
        }
        total_queries += workload.queries.size();
      };
      table.ResetStats();
      uint64_t results = 0;
      run_queries(&results);
      const IoStats io = table.io_stats();
      agg_cold += io;
      const double est_ms = table.EstimateCostMs(DiskModel::Hdd());
      table.ResetStats();
      uint64_t warm_results = 0;
      run_queries(&warm_results);
      agg_warm += table.io_stats();
      agg_io += io + table.io_stats();
      ONION_CHECK_MSG(warm_results == results,
                      "warm pass changed query results");
      // Equivalence gate: every format configuration must produce the
      // same result count for the same workload on the same curve.
      if (bench_table.config == configs.front().tag) {
        raw_results = results;
      } else {
        ONION_CHECK_MSG(results == raw_results,
                        "filter changed query results");
      }
      const ClusteringEvaluator evaluator(&table.curve());
      double clustering_sum = 0;
      for (const Box& query : workload.queries) {
        clustering_sum += static_cast<double>(evaluator.Clustering(query));
      }
      const double q = static_cast<double>(workload.queries.size());
      std::printf("%-10s %-14s %10.1f %10.1f %10.1f %10.1f %12.1f %10.2f\n",
                  bench_table.curve.c_str(), bench_table.config.c_str(),
                  static_cast<double>(io.seeks) / q,
                  static_cast<double>(io.page_reads) / q,
                  static_cast<double>(io.cache_hits) / q,
                  static_cast<double>(results) / q, clustering_sum / q,
                  est_ms / q);
      if (csv) {
        bench::PrintIoCsvRow(workload.tag,
                             bench_table.curve + ":" + bench_table.config,
                             workload.queries.size(), io, clustering_sum / q,
                             est_ms / q);
      }
    }
    std::printf("\n");
  }

  // Point-Get phase (grid mode): a checkerboard table, where every
  // segment's [min_key, max_key] span covers the whole universe, so fence
  // pruning never helps and absent probes are saved by the bloom filter
  // alone. Present and absent cells interleave 50/50.
  if (mode == "grid") {
    std::printf("--- point Gets on a checkerboard half-grid "
                "(fences can't prune; blooms can) ---\n");
    std::printf("%-10s %-14s %12s %12s %14s %12s\n", "curve", "config",
                "gets", "pages/get", "filter skips", "disk KB");
    std::vector<Cell> checker;
    for (Coord y = 0; y < side; ++y) {
      for (Coord x = 0; x < side; ++x) {
        if ((x + y) % 2 == 0) checker.push_back(Cell(x, y));
      }
    }
    for (const std::string& name : names) {
      uint64_t raw_pages = 0;
      for (const FormatConfig& config : configs) {
        storage::SfcTableOptions options;
        options.entries_per_page = 16;  // realistic multi-entry pages
        options.pool_pages = pool_pages;
        // No readahead here: point probes have no spatial run to widen,
        // and prefetch waste would blur the filter contract below.
        options.filter_bits_per_key = config.filter_bits_per_key;
        auto table =
            BuildTable(base_dir + "/get_" + name + "_" + config.tag, name,
                       universe, options, checker);
        table->ResetStats();
        uint64_t gets = 0;
        uint64_t hits = 0;
        const Key num_cells = universe.num_cells();
        uint64_t stride = num_cells / 2048;
        if (stride % 2 == 0) ++stride;  // odd: probes alternate parity
        for (Key i = 0; i < num_cells; i += stride) {
          const Cell cell(static_cast<Coord>(i % side),
                          static_cast<Coord>(i / side));
          auto payloads = table->Get(cell);
          ONION_CHECK_MSG(payloads.ok(),
                          payloads.status().ToString().c_str());
          ++gets;
          hits += payloads.value().empty() ? 0 : 1;
        }
        const IoStats io = table->io_stats();
        agg_io += io;
        const uint64_t pages_touched = io.page_reads + io.cache_hits;
        const uint64_t disk_bytes = TableDiskBytes(*table);
        std::printf("%-10s %-14s %12llu %12.2f %14llu %12.1f\n",
                    name.c_str(), config.tag.c_str(),
                    static_cast<unsigned long long>(gets),
                    static_cast<double>(pages_touched) /
                        static_cast<double>(gets),
                    static_cast<unsigned long long>(
                        io.pages_skipped_by_filter),
                    static_cast<double>(disk_bytes) / 1024.0);
        if (csv) {
          bench::PrintIoCsvRow("point_get", name + ":" + config.tag, gets,
                               io, 0.0, 0.0);
        }
        if (config.filter_bits_per_key == 0) {
          raw_pages = pages_touched;
        } else {
          // The filter contract, enforced at bench time: filters cut the
          // pages point lookups touch.
          ONION_CHECK_MSG(pages_touched < raw_pages,
                          "filters failed to cut pages fetched for Gets");
          ONION_CHECK_MSG(io.pages_skipped_by_filter > 0,
                          "bloom filter never skipped a probe");
        }
        // Sanity: the probe sweep really mixes present and absent cells.
        ONION_CHECK_MSG(hits * 4 > gets && hits * 4 < gets * 3,
                        "checkerboard probe mix is off");
      }
    }
    std::printf("\n");
  }

  std::printf("(seeks are measured non-sequential page fetches against "
              "segment files;\n the curve ranking should match the analytic "
              "clustering-number ranking.)\n");

  // Machine-readable perf trajectory: BENCH_storage_engine.json in the
  // current working directory (CI uploads it and grep-gates the keys).
  bench::BenchReport report("storage_engine");
  report.AddString("mode", mode);
  report.AddCount("side", side);
  report.AddCount("points", points.size());
  report.AddCount("tables", tables.size());
  report.AddCount("pool_pages", pool_pages);
  report.AddCount("queries", total_queries);
  const obs::HistogramSnapshot latency = query_latency_us.Snapshot();
  report.Add("ops_per_sec",
             latency.sum == 0
                 ? 0.0
                 : static_cast<double>(latency.count) * 1e6 /
                       static_cast<double>(latency.sum));
  report.AddLatency("", latency);
  // The engine's own per-Next() histogram, merged over every table — the
  // finer-grained series the JSON trajectory tracks alongside the
  // per-query numbers above.
  obs::HistogramSnapshot next_us;
  for (const BenchTable& bench_table : tables) {
    next_us +=
        bench_table.table->metrics().histogram("cursor.next_us")->Snapshot();
  }
  report.AddLatency("cursor_next", next_us);
  // Headline hit ratio is the WARM phase (steady state); the cold phase —
  // what the fixed 64-page pool used to measure exclusively — is reported
  // alongside.
  const auto hit_ratio = [](const IoStats& io) {
    const uint64_t touched = io.page_reads + io.cache_hits;
    return touched == 0 ? 0.0
                        : static_cast<double>(io.cache_hits) /
                              static_cast<double>(touched);
  };
  report.Add("pool_hit_ratio", hit_ratio(agg_warm));
  report.Add("pool_hit_ratio_cold", hit_ratio(agg_cold));
  report.AddIoStats("io", agg_io);
  uint64_t disk_total = 0;
  for (const BenchTable& bench_table : tables) {
    disk_total += TableDiskBytes(*bench_table.table);
  }
  report.AddCount("disk_bytes_total", disk_total);
  report.WriteFile();

  // Exit contracts of the I/O path, checked on the numbers just reported.
  // Grid mode only, the mode CI smoke-runs.
  if (mode == "grid") {
    ONION_CHECK_MSG(agg_io.decoded_bytes < agg_io.disk_bytes * 2,
                    "decoded:disk ratio regressed past 2x");
    ONION_CHECK_MSG(agg_io.readahead_batched_reads > 0,
                    "readahead never batched a single read");
  }
  return 0;
}
