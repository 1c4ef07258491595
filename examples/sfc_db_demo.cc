// Walkthrough of the multi-table catalog: open an SfcDb, create several
// tables keyed by different curves that share one buffer pool and one
// background worker pool, stream queries through cursors, commit an
// atomic cross-table WriteBatch, read a pinned snapshot alongside the
// latest state, drop a table, and reopen the database to show the
// catalog persists.
//
//   build/examples/sfc_db_demo [--dir=/tmp/onion_db_demo]

#include <cstdio>
#include <filesystem>
#include <string>
#include <utility>
#include <vector>

#include "common/cli.h"
#include "storage/sfc_db.h"
#include "workloads/generators.h"

int main(int argc, char** argv) {
  using namespace onion;
  const CommandLine cli(argc, argv);
  const std::string dir = cli.GetString("dir", "/tmp/onion_db_demo");
  std::filesystem::remove_all(dir);

  const Universe universe(2, 64);
  storage::SfcDbOptions options;
  options.pool_pages = 128;  // ONE pool serving every table below
  options.num_workers = 2;   // ONE worker pool flushing all of them
  options.table_options.entries_per_page = 64;
  options.table_options.memtable_flush_entries = 2000;
  // Bloom filters for every table created below (recorded per table in
  // its MANIFEST).
  options.table_options.filter_bits_per_key = 10;

  auto db_result = storage::SfcDb::Open(dir, options);
  ONION_CHECK_MSG(db_result.ok(), db_result.status().ToString().c_str());
  auto& db = *db_result.value();
  std::printf("opened database %s (%llu-page shared pool, %zu workers)\n",
              dir.c_str(),
              static_cast<unsigned long long>(options.pool_pages),
              db.num_workers());

  // One table per curve, all fed concurrently through the shared workers.
  const auto points = ClusteredPoints(universe, 8000, 6, 8, 19);
  for (const std::string curve : {"onion", "hilbert", "zorder"}) {
    auto table = db.CreateTable(curve, curve, universe);
    ONION_CHECK_MSG(table.ok(), table.status().ToString().c_str());
    for (size_t i = 0; i < points.size(); ++i) {
      ONION_CHECK(table.value()->Insert(points[i], i).ok());
    }
    ONION_CHECK(table.value()->Flush().ok());
  }
  std::printf("created tables:");
  for (const std::string& name : db.ListTables()) {
    std::printf(" %s", name.c_str());
  }
  std::printf("\n\n");

  // Real space accounting straight from SegmentInfos(): bytes on disk vs
  // the 24 B/entry of the raw pages alone, plus the filter cost.
  std::printf("on-disk footprint per table:\n");
  for (const std::string& name : db.ListTables()) {
    uint64_t disk = 0;
    uint64_t filter = 0;
    uint64_t entries = 0;
    for (const auto& info : db.GetTable(name)->SegmentInfos()) {
      disk += info.disk_bytes;
      filter += info.filter_bytes;
      entries += info.num_entries;
    }
    std::printf("  %-8s %6.1f KB on disk (%.1f KB raw entries), "
                "%.1f KB filters\n",
                name.c_str(), static_cast<double>(disk) / 1024.0,
                static_cast<double>(entries * storage::kEntryBytesV3) / 1024.0,
                static_cast<double>(filter) / 1024.0);
  }
  std::printf("\n");

  // The same box, streamed from every table: per-table I/O attribution
  // stays separate even though all pages flow through one pool.
  const Box box(Cell(8, 8), Cell(39, 31));
  std::printf("cursor over %s per table:\n", box.ToString().c_str());
  for (const std::string& name : db.ListTables()) {
    storage::SfcTable* table = db.GetTable(name);
    table->ResetStats();
    auto cursor = table->NewBoxCursor(box);
    size_t count = 0;
    for (; cursor->Valid(); cursor->Next()) ++count;
    const IoStats io = table->io_stats();
    std::printf("  %-8s %5zu entries, %4llu page reads, %3llu seeks\n",
                name.c_str(), count,
                static_cast<unsigned long long>(io.page_reads),
                static_cast<unsigned long long>(io.seeks));
  }
  std::printf("(pool aggregate and per-table I/O appear in the DumpMetrics "
              "JSON below)\n\n");

  // Versioned writes: pin a consistent cross-table snapshot, then commit
  // one WriteBatch spanning two tables (all-or-nothing, even across a
  // crash — see docs/api.md). The pinned reads still see the old state;
  // latest reads see the batch.
  auto snapshot_result = db.GetSnapshot();
  ONION_CHECK_MSG(snapshot_result.ok(),
                  snapshot_result.status().ToString().c_str());
  auto snapshot = std::move(snapshot_result).value();
  storage::WriteBatch batch;
  const Cell probe(2, 3);
  batch.Put("onion", probe, 900001);
  batch.Put("hilbert", probe, 900002);
  batch.Delete("hilbert", Cell(8, 8));
  ONION_CHECK(db.Write(std::move(batch)).ok());
  storage::SfcTable* hilbert_table = db.GetTable("hilbert");
  ReadOptions at_pin;
  at_pin.snapshot = snapshot->ForTable(hilbert_table);
  std::printf("WriteBatch committed atomically across 2 tables; hilbert "
              "Get(%s): %zu payloads at the snapshot, %zu at latest\n\n",
              probe.ToString().c_str(),
              hilbert_table->Get(probe, at_pin).value().size(),
              hilbert_table->Get(probe).value().size());
  snapshot.reset();  // release the pins before tables shut down

  // Drop one table; the catalog update is atomic and the name is free.
  ONION_CHECK(db.DropTable("zorder").ok());

  // One engine-wide observability dump before shutdown: the db registry
  // (batch-commit latency, worker queue), the shared pool's aggregate with
  // its hit ratio, and every open table's WAL/flush/compaction/cursor
  // histograms — the same JSON a server would expose on an admin endpoint
  // (docs/observability.md documents the catalog).
  std::printf("engine metrics at shutdown (SfcDb::DumpMetrics):\n%s\n",
              db.DumpMetrics().c_str());
  std::printf("\ntrace ring (flush/compaction/batch-commit events):\n%s\n",
              db.DumpTrace().c_str());

  ONION_CHECK(db.Close().ok());

  // Reopen: the catalog (minus the dropped table) persisted.
  auto reopened = storage::SfcDb::Open(dir);
  ONION_CHECK_MSG(reopened.ok(), reopened.status().ToString().c_str());
  std::printf("reopened %s; catalog:", dir.c_str());
  for (const std::string& name : reopened.value()->ListTables()) {
    std::printf(" %s", name.c_str());
  }
  auto hilbert = reopened.value()->OpenTable("hilbert");
  ONION_CHECK_MSG(hilbert.ok(), hilbert.status().ToString().c_str());
  auto cursor = hilbert.value()->NewBoxCursor(box);
  std::printf("\nhilbert after reopen: %zu entries in the same box\n",
              DrainCursor(cursor.get()).size());
  return 0;
}
