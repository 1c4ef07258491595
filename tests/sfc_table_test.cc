// End-to-end tests of the persistent SfcTable: equivalence with the
// in-memory SpatialIndex on random workloads, close -> reopen cycles,
// compaction, unflushed-memtable reads, and manifest/I/O failure modes.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "index/spatial_index.h"
#include "sfc/registry.h"
#include "storage/codec.h"
#include "storage/sfc_table.h"
#include "workloads/generators.h"

namespace onion::storage {
namespace {

std::string FreshDir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "/sfc_table_test/" + name;
  std::filesystem::remove_all(dir);
  return dir;
}

std::string ReadWholeFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

void WriteWholeFile(const std::string& path, const std::string& text) {
  std::ofstream(path, std::ios::binary | std::ios::trunc) << text;
}

/// Materializes a box query through the streaming cursor path — the
/// replacement for the deprecated Query() wrapper. Works for SfcTable and
/// SpatialIndex alike (same NewBoxCursor interface).
template <typename Source>
std::vector<SpatialEntry> CursorQuery(Source& source, const Box& box) {
  auto cursor = source.NewBoxCursor(box);
  auto results = DrainCursor(cursor.get());
  EXPECT_TRUE(cursor->status().ok()) << cursor->status().ToString();
  return results;
}

/// Canonical form for comparing result sets: sorted (key, payload) pairs
/// under the table's curve.
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

TEST(SfcTableTest, QueryEquivalentToSpatialIndexAcrossCurves) {
  const Universe universe(2, 64);
  const auto points = RandomPoints(universe, 4000, 31);
  const auto cubes = RandomCubes(universe, 12, 25, 37);
  const auto rects = RandomCornerBoxes(universe, 25, 41);
  for (const std::string name : {"onion", "hilbert", "zorder"}) {
    SfcTableOptions options;
    options.entries_per_page = 32;
    options.pool_pages = 16;
    options.memtable_flush_entries = 1000;  // forces several segments
    auto table_result =
        SfcTable::Create(FreshDir("equiv_" + name), name, universe, options);
    ASSERT_TRUE(table_result.ok()) << table_result.status().ToString();
    auto& table = *table_result.value();
    SpatialIndex reference(MakeCurve(name, universe).value());
    for (size_t i = 0; i < points.size(); ++i) {
      ASSERT_TRUE(table.Insert(points[i], i).ok());
      reference.Insert(points[i], i);
    }
    // First pass queries the mixed state: background-flushed segments plus
    // whatever is still in the memtable / pending flush queue.
    for (const auto& queries : {cubes, rects}) {
      for (const Box& query : queries) {
        ASSERT_EQ(Canonical(table.curve(), CursorQuery(table, query)),
                  Canonical(reference.curve(), CursorQuery(reference, query)))
            << name << " " << query.ToString();
      }
    }
    ASSERT_TRUE(table.Flush().ok());
    EXPECT_GT(table.num_segments(), 1u);  // auto-rotation kicked in
    EXPECT_EQ(table.memtable_entries(), 0u);
    // Second pass queries fully flushed segments only.
    for (const auto& queries : {cubes, rects}) {
      for (const Box& query : queries) {
        ASSERT_EQ(Canonical(table.curve(), CursorQuery(table, query)),
                  Canonical(reference.curve(), CursorQuery(reference, query)))
            << name << " " << query.ToString();
      }
    }
  }
}

TEST(SfcTableTest, SurvivesCloseAndReopen) {
  const Universe universe(2, 64);
  const auto points = ClusteredPoints(universe, 3000, 5, 6, 51);
  const auto queries = RandomCubes(universe, 16, 30, 53);
  const std::string dir = FreshDir("reopen");

  std::vector<std::vector<std::pair<Key, uint64_t>>> before;
  {
    SfcTableOptions options;
    options.memtable_flush_entries = 700;
    auto table_result = SfcTable::Create(dir, "hilbert", universe, options);
    ASSERT_TRUE(table_result.ok()) << table_result.status().ToString();
    auto& table = *table_result.value();
    for (size_t i = 0; i < points.size(); ++i) {
      ASSERT_TRUE(table.Insert(points[i], i).ok());
    }
    for (const Box& query : queries) {
      before.push_back(Canonical(table.curve(), CursorQuery(table, query)));
    }
    ASSERT_TRUE(table.Close().ok());
  }  // table destroyed: only the files remain

  auto reopened_result = SfcTable::Open(dir);
  ASSERT_TRUE(reopened_result.ok()) << reopened_result.status().ToString();
  auto& reopened = *reopened_result.value();
  EXPECT_EQ(reopened.curve().name(), "hilbert");
  EXPECT_EQ(reopened.size(), points.size());
  EXPECT_EQ(reopened.memtable_entries(), 0u);
  for (size_t i = 0; i < queries.size(); ++i) {
    EXPECT_EQ(Canonical(reopened.curve(), CursorQuery(reopened, queries[i])),
              before[i])
        << queries[i].ToString();
  }
}

TEST(SfcTableTest, CompactionPreservesResultsAndReducesSeeks) {
  const Universe universe(2, 64);
  const auto points = RandomPoints(universe, 5000, 61);
  const auto queries = RandomCubes(universe, 20, 40, 67);
  SfcTableOptions options;
  options.entries_per_page = 64;
  options.pool_pages = 8;  // small pool: queries really hit the files
  options.memtable_flush_entries = 600;
  auto table_result =
      SfcTable::Create(FreshDir("compact"), "onion", universe, options);
  ASSERT_TRUE(table_result.ok()) << table_result.status().ToString();
  auto& table = *table_result.value();
  for (size_t i = 0; i < points.size(); ++i) {
    ASSERT_TRUE(table.Insert(points[i], i).ok());
  }
  ASSERT_TRUE(table.Flush().ok());
  ASSERT_GT(table.num_segments(), 1u);

  std::vector<std::vector<std::pair<Key, uint64_t>>> before;
  for (const Box& query : queries) {
    before.push_back(Canonical(table.curve(), CursorQuery(table, query)));
  }
  table.ResetStats();
  for (const Box& query : queries) CursorQuery(table, query);
  const uint64_t seeks_fragmented = table.io_stats().seeks;

  ASSERT_TRUE(table.Compact().ok());
  EXPECT_EQ(table.num_segments(), 1u);
  EXPECT_EQ(table.size(), points.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    EXPECT_EQ(Canonical(table.curve(), CursorQuery(table, queries[i])), before[i]);
  }
  table.ResetStats();
  for (const Box& query : queries) CursorQuery(table, query);
  const uint64_t seeks_compacted = table.io_stats().seeks;
  EXPECT_LT(seeks_compacted, seeks_fragmented);
}

TEST(SfcTableTest, UnflushedMemtableEntriesAreVisible) {
  const Universe universe(2, 32);
  auto table_result = SfcTable::Create(FreshDir("memtable"), "zorder",
                                       universe, SfcTableOptions{});
  ASSERT_TRUE(table_result.ok());
  auto& table = *table_result.value();
  ASSERT_TRUE(table.Insert(Cell(3, 4), 7).ok());
  ASSERT_TRUE(table.Insert(Cell(3, 4), 8).ok());
  ASSERT_TRUE(table.Insert(Cell(30, 30), 9).ok());
  EXPECT_EQ(table.num_segments(), 0u);  // nothing flushed yet
  const auto results = CursorQuery(table, Box(Cell(0, 0), Cell(8, 8)));
  ASSERT_EQ(results.size(), 2u);
  EXPECT_EQ(results[0].payload, 7u);
  EXPECT_EQ(results[1].payload, 8u);
  EXPECT_EQ(table.read_stats().memtable_entries, 2u);
  EXPECT_EQ(table.io_stats().page_reads, 0u);  // served without disk I/O
}

TEST(SfcTableTest, InsertOutsideUniverseFails) {
  const Universe universe(2, 32);
  auto table_result = SfcTable::Create(FreshDir("outside"), "hilbert",
                                       universe, SfcTableOptions{});
  ASSERT_TRUE(table_result.ok());
  const Status status = table_result.value()->Insert(Cell(32, 0), 1);
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kOutOfRange);
}

TEST(SfcTableTest, CreateRefusesExistingTable) {
  const Universe universe(2, 32);
  const std::string dir = FreshDir("exists");
  ASSERT_TRUE(SfcTable::Create(dir, "onion", universe).ok());
  auto second = SfcTable::Create(dir, "onion", universe);
  EXPECT_FALSE(second.ok());
  EXPECT_EQ(second.status().code(), StatusCode::kInvalidArgument);
}

TEST(SfcTableTest, OpenMissingDirectoryFails) {
  auto result = SfcTable::Open(FreshDir("never_created"));
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kNotFound);
}

TEST(SfcTableTest, CrashBeforeFlushRecoversFromWal) {
  // Destroying the table without Close() stops the background worker
  // without flushing — exactly the state a crash leaves behind. Reopen
  // must replay every insert from the WAL.
  const Universe universe(2, 64);
  const auto points = RandomPoints(universe, 1000, 71);
  const std::string dir = FreshDir("wal_recovery");
  {
    auto table = SfcTable::Create(dir, "hilbert", universe);
    ASSERT_TRUE(table.ok());
    for (size_t i = 0; i < points.size(); ++i) {
      ASSERT_TRUE(table.value()->Insert(points[i], i).ok());
    }
    EXPECT_EQ(table.value()->num_segments(), 0u);  // nothing flushed
  }  // "crash": no Close(), no Flush()
  const std::string crashed = FreshDir("wal_recovery_crashed");
  std::filesystem::copy(dir, crashed);

  auto reopened = SfcTable::Open(dir);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ(reopened.value()->size(), points.size());
  EXPECT_EQ(reopened.value()->memtable_entries(), points.size());
  SpatialIndex reference(MakeCurve("hilbert", universe).value());
  for (size_t i = 0; i < points.size(); ++i) reference.Insert(points[i], i);
  const Box everything(Cell(0, 0), Cell(63, 63));
  EXPECT_EQ(Canonical(reopened.value()->curve(),
                      CursorQuery(*reopened.value(), everything)),
            Canonical(reference.curve(), CursorQuery(reference, everything)));

  // The newest WAL's header decides what open does with that file. A torn
  // header — short, or all zero, as a crash during the file's creation
  // leaves it — is skipped, and the older WAL still replays in full. A
  // whole header with a retired version or a foreign magic is refused.
  const std::string header =
      ReadWholeFile(crashed + "/wal_0.log").substr(0, 16);
  ASSERT_EQ(header.size(), 16u);
  std::string version_one = header;
  version_one[8] = 1;  // u32 little-endian version at offset 8
  std::string bad_magic = header;
  bad_magic.replace(0, 8, "NOTAWAL!");
  const struct {
    const char* name;
    std::string bytes;
    bool opens;
  } newest_wal_cases[] = {
      {"whole header, version 1", version_one, false},
      {"whole header, bad magic", bad_magic, false},
      {"7-byte file", header.substr(0, 7), true},
      {"16 zero bytes", std::string(16, '\0'), true},
  };
  for (const auto& c : newest_wal_cases) {
    const std::string case_dir = FreshDir("wal_recovery_newest");
    std::filesystem::copy(crashed, case_dir);
    WriteWholeFile(case_dir + "/wal_1000000.log", c.bytes);
    auto opened = SfcTable::Open(case_dir);
    if (c.opens) {
      ASSERT_TRUE(opened.ok()) << c.name << ": " << opened.status().ToString();
      EXPECT_EQ(opened.value()->size(), points.size()) << c.name;
    } else {
      ASSERT_FALSE(opened.ok()) << c.name;
      EXPECT_EQ(opened.status().code(), StatusCode::kInvalidArgument)
          << c.name << ": " << opened.status().ToString();
    }
  }
}

TEST(SfcTableTest, HardProcessExitRecoversFromWal) {
  // A real crash: the child process inserts and dies via _Exit (no
  // destructors, no buffered-stream flush beyond the WAL's own per-append
  // flush). The parent then reopens and must see every record.
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  const Universe universe(2, 32);
  const std::string dir = FreshDir("wal_hard_crash");
  ASSERT_EXIT(
      {
        auto table = SfcTable::Create(dir, "zorder", universe);
        if (!table.ok()) std::_Exit(1);
        for (uint64_t i = 0; i < 200; ++i) {
          const Cell cell(i % 32, (i / 32) % 32);
          if (!table.value()->Insert(cell, i).ok()) std::_Exit(2);
        }
        std::_Exit(0);
      },
      ::testing::ExitedWithCode(0), "");

  auto reopened = SfcTable::Open(dir);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ(reopened.value()->size(), 200u);
  const auto results =
      CursorQuery(*reopened.value(), Box(Cell(0, 0), Cell(31, 31)));
  EXPECT_EQ(results.size(), 200u);
}

TEST(SfcTableTest, RecoveredEntriesAreNotDuplicatedAfterFlush) {
  // Crash-recover, flush, crash again WITHOUT new inserts: the manifest's
  // wal_floor must fence the replayed WAL files so the second recovery
  // does not resurrect entries that already live in segments.
  const Universe universe(2, 32);
  const std::string dir = FreshDir("wal_floor");
  {
    auto table = SfcTable::Create(dir, "onion", universe);
    ASSERT_TRUE(table.ok());
    for (uint64_t i = 0; i < 50; ++i) {
      ASSERT_TRUE(table.value()->Insert(Cell(i % 32, i / 32), i).ok());
    }
  }  // crash #1
  {
    auto table = SfcTable::Open(dir);
    ASSERT_TRUE(table.ok());
    EXPECT_EQ(table.value()->size(), 50u);
    ASSERT_TRUE(table.value()->Flush().ok());
    EXPECT_EQ(table.value()->memtable_entries(), 0u);
  }  // crash #2 (nothing unflushed)
  auto table = SfcTable::Open(dir);
  ASSERT_TRUE(table.ok());
  EXPECT_EQ(table.value()->size(), 50u);  // not 100
  EXPECT_EQ(table.value()->memtable_entries(), 0u);
}

TEST(SfcTableTest, LeveledCompactionKeepsLevelsDisjoint) {
  // Small thresholds force many flushes and several rounds of background
  // leveling; afterwards every level >= 1 must hold pairwise-disjoint,
  // key-sorted segments of bounded size, and L0 must stay under control.
  const Universe universe(2, 64);
  const auto points = RandomPoints(universe, 6000, 83);
  SfcTableOptions options;
  options.entries_per_page = 32;
  options.memtable_flush_entries = 250;
  options.l0_compaction_trigger = 3;
  options.level_growth_factor = 4;
  auto table_result =
      SfcTable::Create(FreshDir("leveled"), "hilbert", universe, options);
  ASSERT_TRUE(table_result.ok());
  auto& table = *table_result.value();
  SpatialIndex reference(MakeCurve("hilbert", universe).value());
  for (size_t i = 0; i < points.size(); ++i) {
    ASSERT_TRUE(table.Insert(points[i], i).ok());
    reference.Insert(points[i], i);
  }
  ASSERT_TRUE(table.Flush().ok());

  const auto infos = table.SegmentInfos();
  ASSERT_FALSE(infos.empty());
  int max_level = 0;
  size_t l0_runs = 0;
  std::vector<std::vector<std::pair<Key, Key>>> ranges_by_level(16);
  for (const SegmentInfo& info : infos) {
    ASSERT_GE(info.level, 0);
    ASSERT_LT(info.level, 16);
    max_level = std::max(max_level, info.level);
    if (info.level == 0) {
      ++l0_runs;
    } else {
      // Size-bounded up to the duplicate-key slack (a run of equal keys is
      // never split across segments, so a cut can overshoot slightly).
      EXPECT_LT(info.num_entries, 2 * options.memtable_flush_entries)
          << info.file;
      ranges_by_level[info.level].emplace_back(info.min_key, info.max_key);
    }
  }
  EXPECT_GT(max_level, 0);  // compaction actually leveled something
  EXPECT_LT(l0_runs, options.l0_compaction_trigger);
  for (auto& ranges : ranges_by_level) {
    std::sort(ranges.begin(), ranges.end());
    for (size_t i = 1; i < ranges.size(); ++i) {
      EXPECT_GT(ranges[i].first, ranges[i - 1].second)
          << "overlapping segments within a level";
    }
  }
  // Leveling preserved the data.
  const Box everything(Cell(0, 0), Cell(63, 63));
  EXPECT_EQ(Canonical(table.curve(), CursorQuery(table, everything)),
            Canonical(reference.curve(), CursorQuery(reference, everything)));
}

TEST(SfcTableTest, CloseQuiescesStopsWritesAndIsIdempotent) {
  const Universe universe(2, 64);
  const auto points = RandomPoints(universe, 2000, 91);
  SfcTableOptions options;
  options.memtable_flush_entries = 300;
  auto table_result =
      SfcTable::Create(FreshDir("close"), "hilbert", universe, options);
  ASSERT_TRUE(table_result.ok());
  auto& table = *table_result.value();
  for (size_t i = 0; i < points.size(); ++i) {
    ASSERT_TRUE(table.Insert(points[i], i).ok());
  }
  ASSERT_TRUE(table.Close().ok());
  // Close is a full barrier: everything buffered reached segments.
  EXPECT_EQ(table.memtable_entries(), 0u);
  EXPECT_EQ(table.pending_memtables(), 0u);
  EXPECT_EQ(table.size(), points.size());
  // Idempotent, and write paths are refused from now on...
  EXPECT_TRUE(table.Close().ok());
  EXPECT_EQ(table.Insert(Cell(1, 1), 99).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(table.Compact().code(), StatusCode::kInvalidArgument);
  // ...while reads stay fully valid.
  const Box everything(Cell(0, 0), Cell(63, 63));
  EXPECT_EQ(CursorQuery(table, everything).size(), points.size());
  auto cursor = table.NewBoxCursor(everything);
  EXPECT_EQ(DrainCursor(cursor.get()).size(), points.size());
}

TEST(SfcTableTest, OptionValidationRejectsBadValues) {
  const Universe universe(2, 32);
  const auto expect_invalid = [&](const SfcTableOptions& options,
                                  const std::string& label) {
    auto created =
        SfcTable::Create(FreshDir("bad_options_" + label), "onion", universe,
                         options);
    EXPECT_FALSE(created.ok()) << label;
    EXPECT_EQ(created.status().code(), StatusCode::kInvalidArgument) << label;
  };
  SfcTableOptions options;
  options.entries_per_page = 0;
  expect_invalid(options, "entries_per_page");
  options = SfcTableOptions{};
  options.pool_pages = 0;
  expect_invalid(options, "pool_pages");
  options = SfcTableOptions{};
  options.memtable_flush_entries = 0;
  expect_invalid(options, "memtable_flush_entries");
  options = SfcTableOptions{};
  options.max_pending_memtables = 0;
  expect_invalid(options, "max_pending_memtables");
  options = SfcTableOptions{};
  options.l0_compaction_trigger = 1;
  expect_invalid(options, "l0_compaction_trigger");
  options = SfcTableOptions{};
  options.level_growth_factor = 1;
  expect_invalid(options, "level_growth_factor");
  options = SfcTableOptions{};
  options.filter_bits_per_key = 65;
  expect_invalid(options, "filter_bits_per_key");

  // Open validates too: create a good table, then reopen with bad options.
  const std::string dir = FreshDir("bad_options_open");
  ASSERT_TRUE(SfcTable::Create(dir, "onion", universe).ok());
  SfcTableOptions bad;
  bad.level_growth_factor = 0;
  auto reopened = SfcTable::Open(dir, bad);
  EXPECT_FALSE(reopened.ok());
  EXPECT_EQ(reopened.status().code(), StatusCode::kInvalidArgument);
}

TEST(SfcTableTest, ReopenedTableAcceptsMoreInserts) {
  const Universe universe(2, 32);
  const std::string dir = FreshDir("append");
  {
    auto table = SfcTable::Create(dir, "onion", universe);
    ASSERT_TRUE(table.ok());
    ASSERT_TRUE(table.value()->Insert(Cell(1, 1), 1).ok());
    ASSERT_TRUE(table.value()->Close().ok());
  }
  {
    auto table = SfcTable::Open(dir);
    ASSERT_TRUE(table.ok());
    ASSERT_TRUE(table.value()->Insert(Cell(2, 2), 2).ok());
    ASSERT_TRUE(table.value()->Close().ok());
  }
  auto table = SfcTable::Open(dir);
  ASSERT_TRUE(table.ok());
  EXPECT_EQ(table.value()->size(), 2u);
  const auto results =
      CursorQuery(*table.value(), Box(Cell(0, 0), Cell(31, 31)));
  EXPECT_EQ(results.size(), 2u);
}

TEST(SfcTableTest, QueryResultsIdenticalAcrossCodecs) {
  // Byte-identical query results with and without bloom filters, on mixed
  // multi-segment state.
  const Universe universe(2, 64);
  const auto points = RandomPoints(universe, 5000, 61);
  const auto boxes = RandomCubes(universe, 14, 30, 67);
  struct Config {
    uint32_t filter_bits;
    const char* tag;
  };
  const Config configs[] = {{0, "raw0"}, {10, "raw10"}};
  std::vector<std::unique_ptr<SfcTable>> tables;
  for (const Config& config : configs) {
    SfcTableOptions options;
    options.entries_per_page = 32;
    options.pool_pages = 16;
    options.memtable_flush_entries = 700;
    options.l0_compaction_trigger = 3;
    options.filter_bits_per_key = config.filter_bits;
    auto table = SfcTable::Create(FreshDir(std::string("codec_equiv_") +
                                           config.tag),
                                  "hilbert", universe, options);
    ASSERT_TRUE(table.ok()) << table.status().ToString();
    for (size_t i = 0; i < points.size(); ++i) {
      ASSERT_TRUE(table.value()->Insert(points[i], i).ok());
    }
    tables.push_back(std::move(table).value());
  }
  for (const Box& box : boxes) {
    const auto expected = Canonical(tables[0]->curve(),
                                    CursorQuery(*tables[0], box));
    for (size_t t = 1; t < tables.size(); ++t) {
      EXPECT_EQ(Canonical(tables[t]->curve(), CursorQuery(*tables[t], box)),
                expected)
          << configs[t].tag << " " << box.ToString();
    }
  }
  // Point lookups agree too (present and absent cells; absent ones take
  // the bloom fast path in the filtered configs).
  for (uint64_t i = 0; i < 200; ++i) {
    const Cell cell(static_cast<Coord>((i * 13) % 64),
                    static_cast<Coord>((i * 29) % 64));
    auto expected = tables[0]->Get(cell);
    ASSERT_TRUE(expected.ok());
    std::sort(expected.value().begin(), expected.value().end());
    for (size_t t = 1; t < tables.size(); ++t) {
      auto got = tables[t]->Get(cell);
      ASSERT_TRUE(got.ok());
      std::sort(got.value().begin(), got.value().end());
      EXPECT_EQ(got.value(), expected.value()) << configs[t].tag;
    }
  }
}

TEST(SfcTableTest, ManifestRecordsFilterBudgetAcrossReopen) {
  const Universe universe(2, 32);
  const std::string dir = FreshDir("manifest_filter");
  {
    SfcTableOptions options;
    options.filter_bits_per_key = 0;
    auto table = SfcTable::Create(dir, "onion", universe, options);
    ASSERT_TRUE(table.ok());
    ASSERT_TRUE(table.value()->Insert(Cell(1, 1), 1).ok());
    ASSERT_TRUE(table.value()->Close().ok());
  }
  // Reopen with DEFAULT options (10 bits per key): the manifest must win,
  // so segments flushed after reopen still carry no filter block.
  auto table = SfcTable::Open(dir);
  ASSERT_TRUE(table.ok());
  ASSERT_TRUE(table.value()->Insert(Cell(2, 2), 2).ok());
  ASSERT_TRUE(table.value()->Flush().ok());
  const auto infos = table.value()->SegmentInfos();
  ASSERT_FALSE(infos.empty());
  for (const SegmentInfo& info : infos) {
    EXPECT_EQ(info.filter_bytes, 0u) << info.file;
    EXPECT_EQ(info.format_version, 3u) << info.file;
    EXPECT_GT(info.disk_bytes, 0u) << info.file;
  }
}

TEST(SfcTableTest, SnapshotPinsPreMutationStateAcrossFlushAndCompaction) {
  // The acceptance bar of the versioned read API: a snapshot taken before
  // N inserts + deletes + Flush() + Compact() still returns exactly the
  // pre-snapshot result set, from Get and from box cursors alike — even
  // though compaction rewrote every segment file in between.
  const Universe universe(2, 64);
  const auto points = RandomPoints(universe, 3000, 97);
  SfcTableOptions options;
  options.memtable_flush_entries = 500;
  options.l0_compaction_trigger = 3;
  auto table_result =
      SfcTable::Create(FreshDir("snapshot_pin"), "hilbert", universe, options);
  ASSERT_TRUE(table_result.ok());
  auto& table = *table_result.value();
  for (size_t i = 0; i < points.size(); ++i) {
    ASSERT_TRUE(table.Insert(points[i], i).ok());
  }
  ASSERT_TRUE(table.Flush().ok());

  const auto snapshot = table.GetSnapshot();
  ASSERT_EQ(snapshot->sequence, points.size());
  ReadOptions at_pin;
  at_pin.snapshot = snapshot.get();
  const Box everything(Cell(0, 0), Cell(63, 63));
  const auto expected =
      Canonical(table.curve(), DrainCursor(table.NewBoxCursor(everything,
                                                              at_pin).get()));
  ASSERT_EQ(expected.size(), points.size());
  auto expected_get = table.Get(points[0], at_pin);
  ASSERT_TRUE(expected_get.ok());
  std::sort(expected_get.value().begin(), expected_get.value().end());

  // Churn: new inserts, deletes of existing cells, a flush, and a manual
  // compaction that retires every pre-snapshot segment file.
  const auto extra = RandomPoints(universe, 2000, 101);
  for (size_t i = 0; i < extra.size(); ++i) {
    ASSERT_TRUE(table.Insert(extra[i], points.size() + i).ok());
  }
  for (size_t i = 0; i < 200; ++i) {
    ASSERT_TRUE(table.Delete(points[i]).ok());
  }
  ASSERT_TRUE(table.Flush().ok());
  ASSERT_TRUE(table.Compact().ok());

  // Both read paths at the pin reproduce the pre-churn state exactly.
  auto pinned_cursor = table.NewBoxCursor(everything, at_pin);
  EXPECT_EQ(Canonical(table.curve(), DrainCursor(pinned_cursor.get())),
            expected);
  EXPECT_TRUE(pinned_cursor->status().ok());
  auto pinned_get = table.Get(points[0], at_pin);
  ASSERT_TRUE(pinned_get.ok());
  std::sort(pinned_get.value().begin(), pinned_get.value().end());
  EXPECT_EQ(pinned_get.value(), expected_get.value());
  // Latest reads see the churn: the deleted cell is gone.
  auto latest_get = table.Get(points[0]);
  ASSERT_TRUE(latest_get.ok());
  EXPECT_TRUE(latest_get.value().empty());
  const auto latest =
      Canonical(table.curve(),
                DrainCursor(table.NewBoxCursor(everything).get()));
  EXPECT_NE(latest, expected);
}

TEST(SfcTableTest, DeleteHidesOlderVersionsAndReinsertResurrects) {
  const Universe universe(2, 32);
  SfcTableOptions options;
  options.memtable_flush_entries = 4;  // force the states through segments
  auto table_result = SfcTable::Create(FreshDir("delete"), "onion", universe,
                                       options);
  ASSERT_TRUE(table_result.ok());
  auto& table = *table_result.value();
  const Cell cell(5, 9);
  ASSERT_TRUE(table.Insert(cell, 1).ok());
  ASSERT_TRUE(table.Insert(cell, 2).ok());
  // Delete hides BOTH payloads at once...
  ASSERT_TRUE(table.Delete(cell).ok());
  EXPECT_TRUE(table.Get(cell).value().empty());
  // ...a later insert resurrects the cell with only the new payload...
  ASSERT_TRUE(table.Insert(cell, 3).ok());
  EXPECT_EQ(table.Get(cell).value(), (std::vector<uint64_t>{3}));
  // ...and the answer is identical when everything sits in segments.
  ASSERT_TRUE(table.Flush().ok());
  EXPECT_EQ(table.Get(cell).value(), (std::vector<uint64_t>{3}));
  ASSERT_TRUE(table.Compact().ok());
  EXPECT_EQ(table.Get(cell).value(), (std::vector<uint64_t>{3}));
  // Box cursors agree (the tombstone hides, the reinsert survives).
  auto cursor = table.NewBoxCursor(Box(Cell(0, 0), Cell(15, 15)));
  const auto streamed = DrainCursor(cursor.get());
  ASSERT_EQ(streamed.size(), 1u);
  EXPECT_EQ(streamed[0].payload, 3u);
  // Deleting outside the universe is refused like inserting.
  EXPECT_EQ(table.Delete(Cell(32, 0)).code(), StatusCode::kOutOfRange);
}

TEST(SfcTableTest, CompactionDropsShadowedVersionsAndUnpinnedTombstones) {
  const Universe universe(2, 32);
  SfcTableOptions options;
  options.memtable_flush_entries = 64;
  auto table_result = SfcTable::Create(FreshDir("tombstone_gc"), "hilbert",
                                       universe, options);
  ASSERT_TRUE(table_result.ok());
  auto& table = *table_result.value();
  for (uint64_t i = 0; i < 100; ++i) {
    ASSERT_TRUE(table.Insert(Cell(i % 32, i / 32), i).ok());
  }
  for (uint64_t i = 0; i < 40; ++i) {
    ASSERT_TRUE(table.Delete(Cell(i % 32, i / 32)).ok());
  }
  ASSERT_TRUE(table.Flush().ok());
  // Before the bottom-level merge the segments still hold every version:
  // 100 puts + 40 tombstones.
  EXPECT_EQ(table.size(), 140u);
  // With no snapshot pinning them, a major compaction collects both the
  // shadowed puts and the tombstones themselves.
  ASSERT_TRUE(table.Compact().ok());
  EXPECT_EQ(table.size(), 60u);
  for (uint64_t i = 0; i < 100; ++i) {
    const auto got = table.Get(Cell(i % 32, i / 32));
    ASSERT_TRUE(got.ok());
    if (i < 40) {
      EXPECT_TRUE(got.value().empty()) << i;
    } else {
      EXPECT_EQ(got.value(), (std::vector<uint64_t>{i})) << i;
    }
  }

  // A pinned snapshot blocks the collection: versions it can see survive
  // compaction, and releasing the pin lets the next compaction finish the
  // job.
  auto pinned = table.GetSnapshot();
  ReadOptions at_pin;
  at_pin.snapshot = pinned.get();
  for (uint64_t i = 40; i < 60; ++i) {
    ASSERT_TRUE(table.Delete(Cell(i % 32, i / 32)).ok());
  }
  ASSERT_TRUE(table.Compact().ok());
  // 40 puts now shadowed but pinned: they (and their tombstones) stay.
  EXPECT_EQ(table.size(), 80u);  // 60 puts + 20 tombstones
  for (uint64_t i = 40; i < 60; ++i) {
    EXPECT_EQ(table.Get(Cell(i % 32, i / 32), at_pin).value(),
              (std::vector<uint64_t>{i}))
        << i;
    EXPECT_TRUE(table.Get(Cell(i % 32, i / 32)).value().empty()) << i;
  }
  pinned.reset();  // release the pin
  ASSERT_TRUE(table.Compact().ok());
  EXPECT_EQ(table.size(), 40u);  // fully collected
}

/// Creates a closed table with one flushed segment; returns the segment's
/// file name.
std::string BuildClosedTable(const std::string& dir) {
  const Universe universe(2, 32);
  auto table = SfcTable::Create(dir, "hilbert", universe);
  EXPECT_TRUE(table.ok()) << table.status().ToString();
  for (uint64_t i = 0; i < 100; ++i) {
    EXPECT_TRUE(table.value()->Insert(Cell(i % 32, i / 32), i).ok());
  }
  EXPECT_TRUE(table.value()->Close().ok());
  const auto infos = table.value()->SegmentInfos();
  EXPECT_EQ(infos.size(), 1u);
  return infos.empty() ? "" : infos[0].file;
}

TEST(SfcTableTest, UnknownSegmentVersionRejectedAtOpenWithClearStatus) {
  // Only segment format 3 opens: the retired 1 and 2 and a future 7
  // stamped into a writer-produced file all fail the table's open.
  for (const uint32_t version : {1u, 2u, 7u}) {
    const std::string dir = FreshDir("future_segment");
    const std::string segment = BuildClosedTable(dir);
    ASSERT_FALSE(segment.empty());
    std::FILE* f = std::fopen((dir + "/" + segment).c_str(), "r+b");
    ASSERT_NE(f, nullptr);
    uint8_t version_bytes[4];
    PutU32(version_bytes, version);
    std::fseek(f, 8, SEEK_SET);
    std::fwrite(version_bytes, 1, 4, f);
    std::fclose(f);
    auto opened = SfcTable::Open(dir);
    ASSERT_FALSE(opened.ok()) << version;
    EXPECT_EQ(opened.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(opened.status().ToString().find("unsupported segment format"),
              std::string::npos)
        << opened.status().ToString();
  }
}

TEST(SfcTableTest, RetiredOrIncompleteManifestRejectedAtOpen) {
  const std::string dir = FreshDir("retired_manifest");
  ASSERT_FALSE(BuildClosedTable(dir).empty());
  const std::string path = dir + "/MANIFEST";
  const std::string written = ReadWholeFile(path);
  const std::string head = "onion-sfc-table 4\n";
  ASSERT_EQ(written.compare(0, head.size(), head), 0) << written;
  // Manifest versions 1-3 are refused outright.
  for (const char* version : {"1", "2", "3"}) {
    WriteWholeFile(path, "onion-sfc-table " + std::string(version) + "\n" +
                             written.substr(head.size()));
    auto opened = SfcTable::Open(dir);
    ASSERT_FALSE(opened.ok()) << version;
    EXPECT_EQ(opened.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(opened.status().ToString().find("unsupported manifest version"),
              std::string::npos)
        << opened.status().ToString();
  }
  // Pages are raw only: a manifest naming a retired codec is refused.
  const std::string codec_line = "\ncodec raw\n";
  const size_t codec_at = written.find(codec_line);
  ASSERT_NE(codec_at, std::string::npos) << written;
  for (const std::string codec : {"delta_varint", "bitpack"}) {
    WriteWholeFile(path, written.substr(0, codec_at) + "\ncodec " + codec +
                             "\n" +
                             written.substr(codec_at + codec_line.size()));
    auto opened = SfcTable::Open(dir);
    ASSERT_FALSE(opened.ok()) << codec;
    EXPECT_EQ(opened.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(opened.status().ToString().find("unsupported manifest codec '" +
                                              codec + "'"),
              std::string::npos)
        << opened.status().ToString();
  }
  // A version-4 manifest lacking any line the writer always emits is
  // incomplete, not defaulted.
  for (const std::string field :
       {"codec ", "filter_bits_per_key ", "wal_floor ", "last_sequence "}) {
    const size_t at = written.find("\n" + field);
    ASSERT_NE(at, std::string::npos) << field;
    const size_t end = written.find('\n', at + 1);
    WriteWholeFile(path, written.substr(0, at) + written.substr(end));
    auto opened = SfcTable::Open(dir);
    ASSERT_FALSE(opened.ok()) << field;
    EXPECT_EQ(opened.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(opened.status().ToString().find("incomplete manifest"),
              std::string::npos)
        << opened.status().ToString();
  }
  WriteWholeFile(path, written);
  auto reopened = SfcTable::Open(dir);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ(reopened.value()->size(), 100u);
}

}  // namespace
}  // namespace onion::storage
