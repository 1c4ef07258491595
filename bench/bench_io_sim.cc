// Physical-I/O simulation: lays the same point set out on "disk" in each
// curve's key order (page-packed sorted run), then replays a cube-query
// workload through an LRU buffer pool. Reports page reads, seeks
// (non-sequential disk reads), and cache hits per query.
//
// This closes the loop on the paper's Sec. I motivation: the clustering
// number predicts seeks, and here the seeks are actually simulated against
// a storage layout instead of assumed — including buffer-pool effects the
// analytical model ignores.
//
//   build/bench/bench_io_sim [--side=512] [--points=200000] [--queries=60]
//                            [--page=256] [--pool_pages=64]

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "common/cli.h"
#include "index/decompose.h"
#include "sfc/registry.h"
#include "storage/buffer_pool.h"
#include "storage/mem_source.h"
#include "workloads/generators.h"

int main(int argc, char** argv) {
  using namespace onion;
  const CommandLine cli(argc, argv);
  const auto side = static_cast<Coord>(cli.GetInt("side", 512));
  const auto num_points = static_cast<size_t>(cli.GetInt("points", 200000));
  const auto num_queries = static_cast<size_t>(cli.GetInt("queries", 60));
  const auto page = static_cast<uint32_t>(cli.GetInt("page", 256));
  const auto pool_pages = static_cast<uint64_t>(cli.GetInt("pool_pages", 64));

  const Universe universe(2, side);
  const auto points = RandomPoints(universe, num_points, 41);

  std::printf("=== I/O simulation: %zu points, %u entries/page, %llu-page "
              "LRU pool ===\n\n",
              points.size(), page,
              static_cast<unsigned long long>(pool_pages));

  for (const Coord len : {side / 8, static_cast<Coord>(side - side / 8)}) {
    const auto queries = RandomCubes(universe, len, num_queries, 43);
    std::printf("--- cube side %u, %zu queries ---\n", len, queries.size());
    std::printf("%-10s %12s %12s %12s %14s\n", "curve", "page reads",
                "disk seeks", "cache hits", "entries/query");
    for (const std::string name : {"onion", "hilbert", "zorder", "snake"}) {
      auto curve = MakeCurve(name, universe).value();
      // Lay the table out in curve order.
      std::vector<storage::Entry> entries;
      entries.reserve(points.size());
      for (size_t i = 0; i < points.size(); ++i) {
        entries.push_back({curve->IndexOf(points[i]), i});
      }
      std::sort(entries.begin(), entries.end(),
                [](const storage::Entry& a, const storage::Entry& b) {
                  return a.key < b.key;
                });
      const storage::MemPageSource run(std::move(entries), page);
      storage::BufferPool pool(pool_pages);
      // Replay the workload: each query scans its exact key ranges.
      for (const Box& query : queries) {
        for (const KeyRange& range : DecomposeBox(*curve, query)) {
          pool.ScanRange(run, range.lo, range.hi, [](Key, uint64_t) {});
        }
      }
      const IoStats stats = pool.stats();
      const auto q = static_cast<double>(queries.size());
      std::printf("%-10s %12.1f %12.1f %12.1f %14.1f\n", name.c_str(),
                  static_cast<double>(stats.page_reads) / q,
                  static_cast<double>(stats.seeks) / q,
                  static_cast<double>(stats.cache_hits) / q,
                  static_cast<double>(stats.entries_read) / q);
    }
    std::printf("\n");
  }
  std::printf("(seeks = non-sequential page fetches; the curve with the "
              "lower clustering\n number performs fewer seeks even after "
              "buffer-pool caching.)\n");
  return 0;
}
