// Streaming-cursor tests: box cursor vs a brute-force filter of the
// inserted points on mixed memtable + L0 + deeper-level state, SfcTable vs SpatialIndex cursor
// interchangeability, limit / page-budget early exit with page accounting,
// snapshot isolation, and cursor-outlives-compaction safety (also run
// under the CI TSan job).

#include <algorithm>
#include <filesystem>
#include <map>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "index/spatial_index.h"
#include "sfc/registry.h"
#include "storage/sfc_table.h"
#include "workloads/generators.h"

namespace onion::storage {
namespace {

std::string FreshDir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "/cursor_test/" + name;
  std::filesystem::remove_all(dir);
  return dir;
}

/// Canonical form for comparing result sets: sorted (key, payload) pairs
/// under the producing curve.
std::vector<std::pair<Key, uint64_t>> Canonical(
    const SpaceFillingCurve& curve, const std::vector<SpatialEntry>& entries) {
  std::vector<std::pair<Key, uint64_t>> out;
  out.reserve(entries.size());
  for (const SpatialEntry& entry : entries) {
    out.emplace_back(curve.IndexOf(entry.cell), entry.payload);
  }
  std::sort(out.begin(), out.end());
  return out;
}

/// Pages touched since the last ResetStats (resident or not).
uint64_t PagesTouched(const SfcTable& table) {
  const IoStats io = table.io_stats();
  return io.page_reads + io.cache_hits;
}

TEST(CursorTest, BoxCursorMatchesQueryOnMixedState) {
  // Small thresholds force several background flushes and at least one
  // leveling round while half the data is still unflushed: the cursor
  // must merge memtable + overlapping L0 runs + disjoint deeper levels.
  const Universe universe(2, 64);
  const auto points = RandomPoints(universe, 5000, 211);
  const auto boxes = RandomCubes(universe, 14, 25, 223);
  for (const std::string name : {"onion", "hilbert", "zorder"}) {
    SfcTableOptions options;
    options.entries_per_page = 32;
    options.pool_pages = 16;
    options.memtable_flush_entries = 400;
    options.l0_compaction_trigger = 3;
    auto table_result =
        SfcTable::Create(FreshDir("mixed_" + name), name, universe, options);
    ASSERT_TRUE(table_result.ok()) << table_result.status().ToString();
    auto& table = *table_result.value();
    for (size_t i = 0; i < points.size(); ++i) {
      ASSERT_TRUE(table.Insert(points[i], i).ok());
    }
    // No Flush(): queries hit the mixed state on purpose.
    EXPECT_GT(table.memtable_entries(), 0u);
    for (const Box& box : boxes) {
      auto cursor = table.NewBoxCursor(box);
      std::vector<SpatialEntry> streamed;
      Key last_key = 0;
      for (; cursor->Valid(); cursor->Next()) {
        const SpatialEntry& entry = cursor->entry();
        const Key key = table.curve().IndexOf(entry.cell);
        EXPECT_GE(key, last_key) << "cursor must be key-ordered";
        last_key = key;
        EXPECT_TRUE(box.Contains(entry.cell));
        streamed.push_back(entry);
      }
      EXPECT_TRUE(cursor->status().ok());
      EXPECT_FALSE(cursor->hit_read_budget());
      std::vector<SpatialEntry> expected;
      for (size_t i = 0; i < points.size(); ++i) {
        if (box.Contains(points[i])) expected.push_back({points[i], i});
      }
      EXPECT_EQ(Canonical(table.curve(), streamed),
                Canonical(table.curve(), expected))
          << name << " " << box.ToString();
    }
  }
}

TEST(CursorTest, SfcTableAndSpatialIndexCursorsAgree) {
  const Universe universe(2, 64);
  const auto points = ClusteredPoints(universe, 3000, 5, 8, 227);
  const auto boxes = RandomCubes(universe, 16, 20, 229);
  SfcTableOptions options;
  options.memtable_flush_entries = 500;
  auto table_result =
      SfcTable::Create(FreshDir("vs_index"), "hilbert", universe, options);
  ASSERT_TRUE(table_result.ok());
  auto& table = *table_result.value();
  SpatialIndex index(MakeCurve("hilbert", universe).value());
  for (size_t i = 0; i < points.size(); ++i) {
    ASSERT_TRUE(table.Insert(points[i], i).ok());
    index.Insert(points[i], i);
  }
  ASSERT_TRUE(table.Flush().ok());
  for (const Box& box : boxes) {
    // The two engines expose the same cursor interface; drive them
    // identically and compare.
    auto table_cursor = table.NewBoxCursor(box);
    auto index_cursor = index.NewBoxCursor(box);
    EXPECT_EQ(Canonical(table.curve(), DrainCursor(table_cursor.get())),
              Canonical(index.curve(), DrainCursor(index_cursor.get())))
        << box.ToString();
    EXPECT_TRUE(table_cursor->status().ok());
    EXPECT_TRUE(index_cursor->status().ok());
  }
  // Full scans agree too (and match size()).
  auto table_scan = table.NewScanCursor();
  auto index_scan = index.NewScanCursor();
  const auto table_all = DrainCursor(table_scan.get());
  EXPECT_EQ(table_all.size(), points.size());
  EXPECT_EQ(Canonical(table.curve(), table_all),
            Canonical(index.curve(), DrainCursor(index_scan.get())));
}

TEST(CursorTest, GetMatchesBetweenEngines) {
  const Universe universe(2, 32);
  auto table_result = SfcTable::Create(FreshDir("get"), "onion", universe,
                                       SfcTableOptions{});
  ASSERT_TRUE(table_result.ok());
  auto& table = *table_result.value();
  SpatialIndex index(MakeCurve("onion", universe).value());
  const Cell cell(7, 9);
  for (uint64_t payload : {3u, 1u, 4u}) {
    ASSERT_TRUE(table.Insert(cell, payload).ok());
    index.Insert(cell, payload);
  }
  ASSERT_TRUE(table.Flush().ok());
  auto from_table = table.Get(cell);
  auto from_index = index.Get(cell);
  ASSERT_TRUE(from_table.ok());
  ASSERT_TRUE(from_index.ok());
  auto table_payloads = from_table.value();
  auto index_payloads = from_index.value();
  std::sort(table_payloads.begin(), table_payloads.end());
  std::sort(index_payloads.begin(), index_payloads.end());
  EXPECT_EQ(table_payloads, (std::vector<uint64_t>{1, 3, 4}));
  EXPECT_EQ(table_payloads, index_payloads);
  EXPECT_TRUE(table.Get(Cell(5, 5)).ok());
  EXPECT_TRUE(table.Get(Cell(5, 5)).value().empty());
  // Outside the universe: a Status, not a crash or an empty vector.
  EXPECT_EQ(table.Get(Cell(32, 0)).status().code(), StatusCode::kOutOfRange);
  EXPECT_EQ(index.Get(Cell(32, 0)).status().code(), StatusCode::kOutOfRange);
}

TEST(CursorTest, InvalidBoxYieldsErrorCursorNotEmptyResult) {
  const Universe universe(2, 32);
  auto table_result = SfcTable::Create(FreshDir("bad_box"), "hilbert",
                                       universe, SfcTableOptions{});
  ASSERT_TRUE(table_result.ok());
  const Box outside(Cell(0, 0), Cell(40, 40));
  auto cursor = table_result.value()->NewBoxCursor(outside);
  EXPECT_FALSE(cursor->Valid());
  EXPECT_EQ(cursor->status().code(), StatusCode::kInvalidArgument);

  SpatialIndex index(MakeCurve("hilbert", universe).value());
  auto index_cursor = index.NewBoxCursor(outside);
  EXPECT_FALSE(index_cursor->Valid());
  EXPECT_EQ(index_cursor->status().code(), StatusCode::kInvalidArgument);
}

TEST(CursorTest, LimitStopsEarlyAndReadsFewerPages) {
  const Universe universe(2, 64);
  const auto points = RandomPoints(universe, 6000, 233);
  SfcTableOptions options;
  options.entries_per_page = 16;  // many pages per query
  options.pool_pages = 4;         // tiny pool: fetches really happen
  options.memtable_flush_entries = 1000;
  auto table_result =
      SfcTable::Create(FreshDir("limit"), "hilbert", universe, options);
  ASSERT_TRUE(table_result.ok());
  auto& table = *table_result.value();
  for (size_t i = 0; i < points.size(); ++i) {
    ASSERT_TRUE(table.Insert(points[i], i).ok());
  }
  ASSERT_TRUE(table.Compact().ok());

  const Box big(Cell(0, 0), Cell(63, 63));
  table.ResetStats();
  const auto full = DrainCursor(table.NewBoxCursor(big).get());
  const uint64_t full_pages = PagesTouched(table);
  ASSERT_EQ(full.size(), points.size());
  ASSERT_GT(full_pages, 10u);

  ReadOptions limited;
  limited.limit = 8;
  table.ResetStats();
  auto cursor = table.NewBoxCursor(big, limited);
  const auto some = DrainCursor(cursor.get());
  const uint64_t limited_pages = PagesTouched(table);
  EXPECT_EQ(some.size(), 8u);
  EXPECT_TRUE(cursor->hit_read_budget());
  EXPECT_TRUE(cursor->status().ok());
  // The whole point of streaming: a bounded read touches a fraction of
  // the pages full materialization does.
  EXPECT_LT(limited_pages, full_pages / 2);
}

TEST(CursorTest, MaxPagesBudgetBoundsFetches) {
  const Universe universe(2, 64);
  const auto points = RandomPoints(universe, 4000, 239);
  SfcTableOptions options;
  options.entries_per_page = 16;
  options.pool_pages = 4;
  options.memtable_flush_entries = 1000;
  auto table_result =
      SfcTable::Create(FreshDir("max_pages"), "zorder", universe, options);
  ASSERT_TRUE(table_result.ok());
  auto& table = *table_result.value();
  for (size_t i = 0; i < points.size(); ++i) {
    ASSERT_TRUE(table.Insert(points[i], i).ok());
  }
  ASSERT_TRUE(table.Compact().ok());

  ReadOptions bounded;
  bounded.max_pages = 3;
  table.ResetStats();
  auto cursor = table.NewBoxCursor(Box(Cell(0, 0), Cell(63, 63)), bounded);
  const auto entries = DrainCursor(cursor.get());
  EXPECT_TRUE(cursor->status().ok());
  EXPECT_TRUE(cursor->hit_read_budget());
  EXPECT_LE(PagesTouched(table), 3u);
  EXPECT_FALSE(entries.empty());  // it did stream what the budget allowed
  EXPECT_LT(entries.size(), points.size());

  // Byte budgets behave the same way (one page = entries_per_page * 16B).
  ReadOptions bytes;
  bytes.max_bytes = 16 * kEntryBytes * 2;  // two pages worth
  table.ResetStats();
  auto byte_cursor =
      table.NewBoxCursor(Box(Cell(0, 0), Cell(63, 63)), bytes);
  DrainCursor(byte_cursor.get());
  EXPECT_TRUE(byte_cursor->hit_read_budget());
  EXPECT_LE(PagesTouched(table), 3u);
}

TEST(CursorTest, HitReadBudgetDistinguishesTruncationFromExhaustion) {
  // The flag must mean "stopped early", never "delivered exactly limit":
  // limit == result count reads as clean exhaustion on both engines.
  const Universe universe(2, 32);
  auto table_result = SfcTable::Create(FreshDir("budget_flag"), "hilbert",
                                       universe, SfcTableOptions{});
  ASSERT_TRUE(table_result.ok());
  auto& table = *table_result.value();
  SpatialIndex index(MakeCurve("hilbert", universe).value());
  const Box box(Cell(0, 0), Cell(7, 7));
  for (uint64_t i = 0; i < 5; ++i) {
    ASSERT_TRUE(table.Insert(Cell(i, i), i).ok());
    index.Insert(Cell(i, i), i);
  }
  ASSERT_TRUE(table.Flush().ok());

  const auto check = [&](Cursor* cursor, uint64_t expect_count,
                         bool expect_budget_hit, const char* label) {
    EXPECT_EQ(DrainCursor(cursor).size(), expect_count) << label;
    EXPECT_EQ(cursor->hit_read_budget(), expect_budget_hit) << label;
    EXPECT_TRUE(cursor->status().ok()) << label;
  };
  ReadOptions exact;
  exact.limit = 5;
  ReadOptions truncating;
  truncating.limit = 3;
  check(table.NewBoxCursor(box, exact).get(), 5, false, "table exact");
  check(table.NewBoxCursor(box, truncating).get(), 3, true,
        "table truncated");
  check(index.NewBoxCursor(box, exact).get(), 5, false, "index exact");
  check(index.NewBoxCursor(box, truncating).get(), 3, true,
        "index truncated");
  check(table.NewBoxCursor(box).get(), 5, false, "table unbounded");
  check(index.NewBoxCursor(box).get(), 5, false, "index unbounded");
}

TEST(CursorTest, MaxBytesBudgetCountsOnDiskBytes) {
  // The documented rule: ReadOptions::max_bytes and IoStats::disk_bytes
  // both count ON-DISK bytes — a raw page's 24 B per entry plus its 4 B
  // CRC32C — while decoded_bytes counts the entries alone. A budget equal
  // to the total on-disk page bytes must complete the scan.
  const Universe universe(2, 64);
  const auto points = RandomPoints(universe, 6000, 271);
  SfcTableOptions options;
  options.entries_per_page = 64;
  options.pool_pages = 4;  // cold pool: every page is a real fetch
  options.memtable_flush_entries = 2000;
  auto table_result =
      SfcTable::Create(FreshDir("disk_bytes"), "hilbert", universe, options);
  ASSERT_TRUE(table_result.ok());
  auto& table = *table_result.value();
  for (size_t i = 0; i < points.size(); ++i) {
    ASSERT_TRUE(table.Insert(points[i], i).ok());
  }
  ASSERT_TRUE(table.Compact().ok());

  // Measure the true on-disk page bytes of a full scan (cold pool, every
  // page missed exactly once).
  table.ResetStats();
  {
    auto cursor = table.NewScanCursor();
    EXPECT_EQ(DrainCursor(cursor.get()).size(), points.size());
  }
  const IoStats full = table.io_stats();
  ASSERT_GT(full.disk_bytes, 0u);
  // Every page read moved its entries plus one 4-byte page checksum.
  ASSERT_GT(full.page_reads, 0u);
  EXPECT_EQ(full.disk_bytes - full.decoded_bytes, 4 * full.page_reads);

  // Budget == total on-disk bytes: the whole scan fits.
  ReadOptions exact;
  exact.max_bytes = full.disk_bytes;
  auto fits = table.NewScanCursor(exact);
  EXPECT_EQ(DrainCursor(fits.get()).size(), points.size());
  EXPECT_FALSE(fits->hit_read_budget());

  // Budget == a quarter: truncation, with the counted bytes staying near
  // the budget (one page of overshoot at most).
  ReadOptions quarter;
  quarter.max_bytes = full.disk_bytes / 4;
  table.ResetStats();
  auto truncated = table.NewScanCursor(quarter);
  const auto some = DrainCursor(truncated.get());
  EXPECT_TRUE(truncated->hit_read_budget());
  EXPECT_LT(some.size(), points.size());
  const IoStats bounded = table.io_stats();
  EXPECT_LE(bounded.disk_bytes,
            quarter.max_bytes + full.disk_bytes);  // sanity ceiling
  EXPECT_LT(bounded.disk_bytes, full.disk_bytes / 2);
}

TEST(CursorTest, BloomFilterSkipsAbsentPointLookups) {
  // Checkerboard data: every segment's key span covers the whole universe,
  // so fences cannot prune an absent Get — only the bloom filter can.
  const Universe universe(2, 32);
  SfcTableOptions options;
  options.entries_per_page = 16;
  options.filter_bits_per_key = 10;
  auto table_result =
      SfcTable::Create(FreshDir("bloom_get"), "zorder", universe, options);
  ASSERT_TRUE(table_result.ok());
  auto& table = *table_result.value();
  uint64_t payload = 0;
  for (Coord y = 0; y < 32; ++y) {
    for (Coord x = 0; x < 32; ++x) {
      if ((x + y) % 2 == 0) {
        ASSERT_TRUE(table.Insert(Cell(x, y), ++payload).ok());
      }
    }
  }
  ASSERT_TRUE(table.Compact().ok());

  table.ResetStats();
  uint64_t absent_probes = 0;
  for (Coord y = 0; y < 32; ++y) {
    for (Coord x = (y % 2 == 0) ? 1 : 0; x < 32; x += 2) {  // absent cells
      auto got = table.Get(Cell(x, y));
      ASSERT_TRUE(got.ok());
      EXPECT_TRUE(got.value().empty());
      ++absent_probes;
    }
  }
  const IoStats io = table.io_stats();
  // The overwhelming majority of absent probes must be answered by the
  // filter (~1% false positives), never touching a page.
  EXPECT_GT(io.pages_skipped_by_filter, absent_probes * 9 / 10);
  EXPECT_LT(io.page_reads + io.cache_hits, absent_probes / 2);

  // The same skip is observable per cursor: a one-cell box over an absent
  // cell decomposes to a point range and reports its filter skip.
  table.ResetStats();
  auto cursor = table.NewBoxCursor(Box(Cell(1, 0), Cell(1, 0)));
  EXPECT_TRUE(DrainCursor(cursor.get()).empty());
  EXPECT_TRUE(cursor->status().ok());
  EXPECT_EQ(cursor->pages_skipped_by_filter(), 1u);
  // Present cells still arrive exactly (no false negatives, ever).
  for (Coord y = 0; y < 32; ++y) {
    auto got = table.Get(Cell(y % 2 == 0 ? 0 : 1, y));
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(got.value().size(), 1u);
  }
}

TEST(CursorTest, ZoneMapsSkipPagesOutsideTheQueryBox) {
  // Data fills the left strip (x < 16); queries hit the adjacent strip
  // (16 <= x < 32). Under z-order the data keys jump over the query
  // strip's key subtrees at every y-group boundary, so pages straddling a
  // jump have fences that overlap the decomposed ranges while containing
  // nothing — exactly what the per-page cell bounding boxes prove
  // skippable without I/O.
  const Universe universe(2, 64);
  SfcTableOptions options;
  // Deliberately NOT a divisor of the dense 256-key z-order subtrees the
  // left strip fills: pages must straddle the key jumps, or fences alone
  // would prune everything and the zone maps would have nothing to do.
  options.entries_per_page = 48;
  auto table_result =
      SfcTable::Create(FreshDir("zone_skip"), "zorder", universe, options);
  ASSERT_TRUE(table_result.ok());
  auto& table = *table_result.value();
  SpatialIndex reference(MakeCurve("zorder", universe).value());
  uint64_t payload = 0;
  for (Coord y = 0; y < 64; ++y) {
    for (Coord x = 0; x < 16; ++x) {
      const Cell cell(x, y);
      ASSERT_TRUE(table.Insert(cell, payload).ok());
      reference.Insert(cell, payload);
      ++payload;
    }
  }
  ASSERT_TRUE(table.Compact().ok());

  uint64_t skipped = 0;
  for (Coord y = 0; y + 8 < 64; y += 7) {
    const Box box(Cell(16, y), Cell(31, y + 8));
    auto cursor = table.NewBoxCursor(box);
    auto index_cursor = reference.NewBoxCursor(box);
    EXPECT_EQ(Canonical(table.curve(), DrainCursor(cursor.get())),
              Canonical(reference.curve(), DrainCursor(index_cursor.get())));
    EXPECT_TRUE(cursor->status().ok());
    skipped += cursor->pages_skipped_by_filter();
  }
  EXPECT_GT(skipped, 0u);
  EXPECT_EQ(table.io_stats().pages_skipped_by_filter, skipped);

  // And skipping loses nothing on boxes that DO contain data.
  for (const Box& box : RandomCubes(Universe(2, 16), 6, 15, 283)) {
    auto cursor = table.NewBoxCursor(box);
    auto index_cursor = reference.NewBoxCursor(box);
    EXPECT_EQ(Canonical(table.curve(), DrainCursor(cursor.get())),
              Canonical(reference.curve(), DrainCursor(index_cursor.get())))
        << box.ToString();
  }
}

TEST(CursorTest, CursorOutlivesCompaction) {
  // Snapshot isolation under structural churn: a cursor opened before
  // Compact() keeps streaming the retired segments (shared_ptr-pinned)
  // and must deliver exactly the pre-compaction result.
  const Universe universe(2, 64);
  const auto points = RandomPoints(universe, 4000, 241);
  SfcTableOptions options;
  options.entries_per_page = 32;
  options.pool_pages = 8;
  options.memtable_flush_entries = 500;
  options.l0_compaction_trigger = 100;  // stay fragmented until Compact()
  auto table_result =
      SfcTable::Create(FreshDir("outlive"), "onion", universe, options);
  ASSERT_TRUE(table_result.ok());
  auto& table = *table_result.value();
  for (size_t i = 0; i < points.size(); ++i) {
    ASSERT_TRUE(table.Insert(points[i], i).ok());
  }
  ASSERT_TRUE(table.Flush().ok());
  ASSERT_GT(table.num_segments(), 1u);

  const Box box(Cell(0, 0), Cell(63, 63));
  const auto expected =
      Canonical(table.curve(), DrainCursor(table.NewBoxCursor(box).get()));

  auto cursor = table.NewBoxCursor(box);
  std::vector<SpatialEntry> streamed;
  for (int i = 0; i < 100 && cursor->Valid(); ++i) {
    streamed.push_back(cursor->entry());
    cursor->Next();
  }
  ASSERT_TRUE(table.Compact().ok());  // retires every snapshotted segment
  EXPECT_EQ(table.num_segments(), 1u);
  for (; cursor->Valid(); cursor->Next()) streamed.push_back(cursor->entry());
  EXPECT_TRUE(cursor->status().ok());
  EXPECT_EQ(Canonical(table.curve(), streamed), expected);
}

TEST(CursorTest, RepeatableReadsOnOneSnapshotUnderChurn) {
  // The MVCC contract: two cursors created at different times on the SAME
  // snapshot return byte-identical results, while concurrent inserts,
  // deletes, a Flush(), and a Compact() churn the table underneath (also
  // run under the CI TSan/ASan jobs).
  const Universe universe(2, 64);
  const auto points = RandomPoints(universe, 3000, 263);
  const auto extra = RandomPoints(universe, 3000, 269);
  SfcTableOptions options;
  options.memtable_flush_entries = 400;
  options.l0_compaction_trigger = 3;
  auto table_result = SfcTable::Create(FreshDir("repeatable"), "hilbert",
                                       universe, options);
  ASSERT_TRUE(table_result.ok());
  auto& table = *table_result.value();
  for (size_t i = 0; i < points.size(); ++i) {
    ASSERT_TRUE(table.Insert(points[i], i).ok());
  }
  ASSERT_TRUE(table.Flush().ok());

  const auto snapshot = table.GetSnapshot();
  ReadOptions at_pin;
  at_pin.snapshot = snapshot.get();
  const Box box(Cell(0, 0), Cell(63, 63));

  // First cursor starts before the churn...
  auto first = table.NewBoxCursor(box, at_pin);
  std::vector<SpatialEntry> first_result;
  for (int i = 0; i < 50 && first->Valid(); ++i) {
    first_result.push_back(first->entry());
    first->Next();
  }
  // ...the table churns hard (writes + structural rewrites)...
  std::thread writer([&] {
    for (size_t i = 0; i < extra.size(); ++i) {
      ASSERT_TRUE(table.Insert(extra[i], points.size() + i).ok());
    }
    for (size_t i = 0; i < 300; ++i) {
      ASSERT_TRUE(table.Delete(points[i]).ok());
    }
  });
  writer.join();
  ASSERT_TRUE(table.Flush().ok());
  ASSERT_TRUE(table.Compact().ok());
  // ...the first cursor finishes after it, and a second cursor on the
  // same snapshot runs start-to-finish after the compaction.
  for (; first->Valid(); first->Next()) first_result.push_back(first->entry());
  ASSERT_TRUE(first->status().ok()) << first->status().ToString();
  auto second = table.NewBoxCursor(box, at_pin);
  const auto second_result = DrainCursor(second.get());
  ASSERT_TRUE(second->status().ok());

  ASSERT_EQ(first_result.size(), second_result.size());
  ASSERT_EQ(first_result.size(), points.size());
  for (size_t i = 0; i < first_result.size(); ++i) {
    EXPECT_TRUE(first_result[i].cell == second_result[i].cell) << i;
    EXPECT_EQ(first_result[i].payload, second_result[i].payload) << i;
    EXPECT_EQ(first_result[i].seq, second_result[i].seq) << i;
  }
  // Latest reads meanwhile see the post-churn world: everything inserted,
  // minus every payload at the 300 deleted cells (the deletes were the
  // last writes, so they hide point and extra payloads alike — including
  // duplicate cells).
  std::map<Key, std::vector<uint64_t>> reference;
  for (size_t i = 0; i < points.size(); ++i) {
    reference[table.curve().IndexOf(points[i])].push_back(i);
  }
  for (size_t i = 0; i < extra.size(); ++i) {
    reference[table.curve().IndexOf(extra[i])].push_back(points.size() + i);
  }
  for (size_t i = 0; i < 300; ++i) {
    reference.erase(table.curve().IndexOf(points[i]));
  }
  size_t expected_latest = 0;
  for (const auto& [key, payloads] : reference) {
    expected_latest += payloads.size();
  }
  auto latest = table.NewBoxCursor(box);
  EXPECT_EQ(DrainCursor(latest.get()).size(), expected_latest);
}

TEST(CursorTest, SnapshotIgnoresConcurrentInserts) {
  // A cursor is a consistent snapshot: entries inserted (and flushed)
  // after creation must not leak into its stream. Runs with a live
  // background worker, so TSan also gets a workout here.
  const Universe universe(2, 64);
  const auto points = RandomPoints(universe, 3000, 251);
  const auto extra = RandomPoints(universe, 3000, 257);
  SfcTableOptions options;
  options.memtable_flush_entries = 300;
  options.l0_compaction_trigger = 3;
  auto table_result =
      SfcTable::Create(FreshDir("snapshot"), "hilbert", universe, options);
  ASSERT_TRUE(table_result.ok());
  auto& table = *table_result.value();
  for (size_t i = 0; i < points.size(); ++i) {
    ASSERT_TRUE(table.Insert(points[i], i).ok());
  }
  ASSERT_TRUE(table.Flush().ok());

  const Box box(Cell(0, 0), Cell(63, 63));
  const auto before =
      Canonical(table.curve(), DrainCursor(table.NewBoxCursor(box).get()));
  auto cursor = table.NewBoxCursor(box);
  std::thread writer([&] {
    for (size_t i = 0; i < extra.size(); ++i) {
      ASSERT_TRUE(table.Insert(extra[i], points.size() + i).ok());
    }
  });
  const auto streamed = DrainCursor(cursor.get());
  writer.join();
  EXPECT_EQ(Canonical(table.curve(), streamed), before);
}

}  // namespace
}  // namespace onion::storage
