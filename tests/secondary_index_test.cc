// Secondary-index tests: randomized equivalence between index-cursor
// queries and brute-force base scans across flush/compaction/reopen and
// three index curves, crash consistency of the base+index WriteBatch
// expansion (hard _Exit mid-stream, then WAL loss on either side),
// catalog lifecycle and validation (including index directories named by
// catalogs of earlier versions), read budgets and snapshot reads, and a
// concurrency smoke for TSan.

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "index/decompose.h"
#include "storage/index_spec.h"
#include "storage/sfc_db.h"

namespace onion::storage {
namespace {

std::string FreshDir(const std::string& name) {
  const std::string dir =
      ::testing::TempDir() + "/secondary_index_test/" + name;
  std::filesystem::remove_all(dir);
  return dir;
}

/// A base row as (base curve key, payload) — the canonical form both the
/// index path and the brute-force path are reduced to before comparison.
using Row = std::pair<Key, uint64_t>;

/// Drains an index cursor into sorted rows, additionally asserting the
/// delivery order is nondecreasing in the INDEX curve key, with ascending
/// payloads per cell, and seq 0 (the documented contract of
/// NewIndexCursor).
std::vector<Row> DrainIndexCursor(Cursor* cursor, const SfcTable& base,
                                  const SfcTable& index,
                                  const IndexExtractor& extractor) {
  std::vector<Row> rows;
  Key prev_key = 0;
  bool have_prev = false;
  for (; cursor->Valid(); cursor->Next()) {
    const SpatialEntry& e = cursor->entry();
    const Cell index_cell = extractor.map(e.cell, base.curve().universe());
    const Key index_key = index.curve().IndexOf(index_cell);
    const Key base_key = base.curve().IndexOf(e.cell);
    if (have_prev) {
      EXPECT_GE(index_key, prev_key);
      if (base_key == rows.back().first) {
        EXPECT_GE(e.payload, rows.back().second);
      }
    }
    EXPECT_EQ(e.seq, 0u);
    prev_key = index_key;
    have_prev = true;
    rows.emplace_back(base_key, e.payload);
  }
  EXPECT_TRUE(cursor->status().ok()) << cursor->status().ToString();
  std::sort(rows.begin(), rows.end());
  return rows;
}

/// Ground truth: full base scan filtered by `box` in index-cell space.
std::vector<Row> BruteForceIndexQuery(SfcTable* base,
                                      const IndexExtractor& extractor,
                                      const Box& box) {
  std::vector<Row> rows;
  auto cursor = base->NewScanCursor();
  for (; cursor->Valid(); cursor->Next()) {
    const SpatialEntry& e = cursor->entry();
    if (box.Contains(extractor.map(e.cell, base->curve().universe()))) {
      rows.emplace_back(base->curve().IndexOf(e.cell), e.payload);
    }
  }
  EXPECT_TRUE(cursor->status().ok()) << cursor->status().ToString();
  std::sort(rows.begin(), rows.end());
  return rows;
}

void ExpectIndexMatchesBruteForce(SfcDb& db, const std::string& table,
                                  const std::string& index,
                                  const std::string& extractor_name,
                                  const Box& box) {
  SCOPED_TRACE("box " + box.ToString());
  auto base = db.OpenTable(table);
  ASSERT_TRUE(base.ok()) << base.status().ToString();
  auto index_table = db.IndexTable(table, index);
  ASSERT_TRUE(index_table.ok()) << index_table.status().ToString();
  const IndexExtractor* extractor = FindIndexExtractor(extractor_name);
  ASSERT_NE(extractor, nullptr);
  auto cursor = db.NewIndexCursor(table, index, box);
  const auto got =
      DrainIndexCursor(cursor.get(), *base.value(), *index_table.value(),
                       *extractor);
  const auto want = BruteForceIndexQuery(base.value(), *extractor, box);
  EXPECT_EQ(got, want);
}

/// Applies `n` random ops (~20% deletes, coordinates drawn from the full
/// side so overwrites and delete-hits occur) in batches of 1..8 through
/// SfcDb::Write, the only legal write path for indexed tables.
void ApplyRandomOps(SfcDb& db, const std::string& table, Rng& rng, int n,
                    Coord side) {
  while (n > 0) {
    WriteBatch batch;
    const int ops = 1 + static_cast<int>(rng.UniformInclusive(7));
    for (int i = 0; i < ops && n > 0; ++i, --n) {
      const Cell cell(static_cast<Coord>(rng.UniformInclusive(side - 1)),
                      static_cast<Coord>(rng.UniformInclusive(side - 1)));
      if (rng.UniformInclusive(9) < 2) {
        batch.Delete(table, cell);
      } else {
        batch.Put(table, cell, rng.Next() % 1000);
      }
    }
    ASSERT_TRUE(db.Write(std::move(batch)).ok());
  }
}

Box RandomBox(Rng& rng, Coord side) {
  const auto lo_x = static_cast<Coord>(rng.UniformInclusive(side - 1));
  const auto lo_y = static_cast<Coord>(rng.UniformInclusive(side - 1));
  const auto hi_x = std::min<Coord>(
      side - 1, lo_x + static_cast<Coord>(rng.UniformInclusive(side / 2)));
  const auto hi_y = std::min<Coord>(
      side - 1, lo_y + static_cast<Coord>(rng.UniformInclusive(side / 2)));
  return Box(Cell(lo_x, lo_y), Cell(hi_x, hi_y));
}

// --- Satellite 1: randomized equivalence across three index curves, at
// every lifecycle stage (memtable-only, flushed, compacted, reopened).

TEST(SecondaryIndexTest, EquivalenceAcrossCurvesAndLifecycles) {
  const Coord kSide = 32;  // power of two: valid for zorder and hilbert
  const Universe universe(2, kSide);
  const char* kCurves[] = {"zorder", "hilbert", "row_major"};
  for (const char* curve : kCurves) {
    SCOPED_TRACE(std::string("index curve ") + curve);
    const std::string dir = FreshDir(std::string("equiv_") + curve);
    SfcDbOptions options;
    options.table_options.memtable_flush_entries = 128;

    auto check_boxes = [&](SfcDb& db, Rng& rng) {
      ExpectIndexMatchesBruteForce(
          db, "t", "ix", "swap_xy",
          Box(Cell(0, 0), Cell(kSide - 1, kSide - 1)));
      for (int i = 0; i < 8; ++i) {
        ExpectIndexMatchesBruteForce(db, "t", "ix", "swap_xy",
                                     RandomBox(rng, kSide));
      }
    };

    Rng rng(0x5eed0000 + static_cast<uint64_t>(curve[0]));
    {
      auto db_result = SfcDb::Open(dir, options);
      ASSERT_TRUE(db_result.ok()) << db_result.status().ToString();
      auto& db = *db_result.value();
      ASSERT_TRUE(db.CreateTable("t", "onion", universe).ok());

      // Data written BEFORE the index exists exercises the backfill.
      ApplyRandomOps(db, "t", rng, 400, kSide);
      ASSERT_TRUE(db.CreateIndex("t", {"ix", "swap_xy", curve}).ok());
      check_boxes(db, rng);

      // Incremental maintenance through Write, still memtable-resident.
      ApplyRandomOps(db, "t", rng, 400, kSide);
      check_boxes(db, rng);

      // Flushed and compacted on both sides.
      ASSERT_TRUE(db.GetTable("t")->Flush().ok());
      auto index_table = db.IndexTable("t", "ix");
      ASSERT_TRUE(index_table.ok());
      ASSERT_TRUE(index_table.value()->Flush().ok());
      check_boxes(db, rng);
      ASSERT_TRUE(db.GetTable("t")->Compact().ok());
      ASSERT_TRUE(index_table.value()->Compact().ok());
      check_boxes(db, rng);
      ASSERT_TRUE(db.Close().ok());
    }
    {
      auto db_result = SfcDb::Open(dir, options);
      ASSERT_TRUE(db_result.ok()) << db_result.status().ToString();
      auto& db = *db_result.value();
      check_boxes(db, rng);
      ApplyRandomOps(db, "t", rng, 200, kSide);
      check_boxes(db, rng);
      ASSERT_TRUE(db.Close().ok());
    }
  }
}

// --- Satellite 2: crash consistency. A child process commits WriteBatches
// against an indexed table and hard-exits without Close(); the parent then
// destroys one side's WAL files and asserts recovery reconstructs BOTH
// sides to the full committed state, agreeing entry for entry.

constexpr uint64_t kCrashBatches = 30;
constexpr Coord kCrashSide = 16;

void CrashChildWriteAndExit(const std::string& dir) {
  auto db_result = SfcDb::Open(dir);
  if (!db_result.ok()) std::_Exit(2);
  auto& db = *db_result.value();
  const Universe universe(2, kCrashSide);
  if (!db.CreateTable("t", "onion", universe).ok()) std::_Exit(3);
  if (!db.CreateIndex("t", {"ix", "cell", "zorder"}).ok()) std::_Exit(4);
  for (uint64_t i = 0; i < kCrashBatches; ++i) {
    WriteBatch batch;
    batch.Put("t", Cell(i % kCrashSide, (i * 7) % kCrashSide), 100 + i);
    if (i % 5 == 4) {
      batch.Delete("t", Cell((i + 2) % kCrashSide,
                             ((i + 2) * 7) % kCrashSide));
    }
    if (!db.Write(std::move(batch)).ok()) std::_Exit(5);
  }
  std::_Exit(0);  // hard crash: no Close, no flush
}

/// The state the child committed, replayed by the same op semantics
/// (Delete drops every payload at the cell).
std::map<std::pair<Coord, Coord>, std::vector<uint64_t>> CrashExpectedState() {
  std::map<std::pair<Coord, Coord>, std::vector<uint64_t>> state;
  for (uint64_t i = 0; i < kCrashBatches; ++i) {
    state[{static_cast<Coord>(i % kCrashSide),
           static_cast<Coord>((i * 7) % kCrashSide)}]
        .push_back(100 + i);
    if (i % 5 == 4) {
      state[{static_cast<Coord>((i + 2) % kCrashSide),
             static_cast<Coord>(((i + 2) * 7) % kCrashSide)}]
          .clear();
    }
  }
  return state;
}

void RunCrashTest(const std::string& dir, const std::string& strip_subdir) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  ASSERT_EXIT(CrashChildWriteAndExit(dir), ::testing::ExitedWithCode(0), "");

  // Destroy one side's WAL files: recovery must rebuild that side from the
  // batch journal so base and index stay in lockstep.
  size_t removed = 0;
  for (const auto& entry :
       std::filesystem::directory_iterator(dir + "/" + strip_subdir)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind("wal_", 0) == 0) {
      std::filesystem::remove(entry.path());
      ++removed;
    }
  }
  ASSERT_GT(removed, 0u);

  auto db_result = SfcDb::Open(dir);
  ASSERT_TRUE(db_result.ok()) << db_result.status().ToString();
  auto& db = *db_result.value();
  auto base = db.OpenTable("t");
  ASSERT_TRUE(base.ok()) << base.status().ToString();
  auto index_table = db.IndexTable("t", "ix");
  ASSERT_TRUE(index_table.ok()) << index_table.status().ToString();

  // Base table recovered to exactly the committed state.
  const auto want_state = CrashExpectedState();
  std::vector<Row> want_rows;
  for (const auto& [xy, payloads] : want_state) {
    for (const uint64_t payload : payloads) {
      want_rows.emplace_back(
          base.value()->curve().IndexOf(Cell(xy.first, xy.second)), payload);
    }
  }
  std::sort(want_rows.begin(), want_rows.end());
  {
    std::vector<Row> got_rows;
    auto cursor = base.value()->NewScanCursor();
    for (; cursor->Valid(); cursor->Next()) {
      got_rows.emplace_back(base.value()->curve().IndexOf(cursor->entry().cell),
                            cursor->entry().payload);
    }
    ASSERT_TRUE(cursor->status().ok()) << cursor->status().ToString();
    std::sort(got_rows.begin(), got_rows.end());
    EXPECT_EQ(got_rows, want_rows);
  }

  // Raw index contents agree with the base entry for entry: one index
  // entry per base row, at extractor(cell) under the index curve, whose
  // payload is the base row's curve key.
  const IndexExtractor* extractor = FindIndexExtractor("cell");
  ASSERT_NE(extractor, nullptr);
  std::vector<Row> want_index;
  {
    auto cursor = base.value()->NewScanCursor();
    for (; cursor->Valid(); cursor->Next()) {
      const SpatialEntry& e = cursor->entry();
      const Cell index_cell =
          extractor->map(e.cell, base.value()->curve().universe());
      want_index.emplace_back(index_table.value()->curve().IndexOf(index_cell),
                              base.value()->curve().IndexOf(e.cell));
    }
    ASSERT_TRUE(cursor->status().ok());
  }
  std::vector<Row> got_index;
  {
    auto cursor = index_table.value()->NewScanCursor();
    for (; cursor->Valid(); cursor->Next()) {
      got_index.emplace_back(
          index_table.value()->curve().IndexOf(cursor->entry().cell),
          cursor->entry().payload);
    }
    ASSERT_TRUE(cursor->status().ok()) << cursor->status().ToString();
  }
  std::sort(want_index.begin(), want_index.end());
  std::sort(got_index.begin(), got_index.end());
  EXPECT_EQ(got_index, want_index);

  // And the query path over the recovered pair returns the committed rows.
  ExpectIndexMatchesBruteForce(
      db, "t", "ix", "cell",
      Box(Cell(0, 0), Cell(kCrashSide - 1, kCrashSide - 1)));
  ASSERT_TRUE(db.Close().ok());
}

TEST(SecondaryIndexTest, CrashRecoveryAfterIndexWalLoss) {
  RunCrashTest(FreshDir("crash_index_wal"), "t__idx__ix");
}

TEST(SecondaryIndexTest, CrashRecoveryAfterBaseWalLoss) {
  RunCrashTest(FreshDir("crash_base_wal"), "t");
}

// --- Catalogs written by earlier versions, and catalog-line validation.

/// Overwrites the CATALOG of the (closed) database at `dir`.
void WriteCatalog(const std::string& dir, const std::string& text) {
  std::ofstream(dir + "/CATALOG", std::ios::trunc) << text;
}

// Earlier versions could rebuild an index into a generation-suffixed
// directory ("<table>__idx__<index>__g<N>") and catalog that name. Such a
// catalog still opens, and the index keeps answering queries, being
// maintained by Write, surviving reopen and dropping cleanly.
TEST(SecondaryIndexTest, LegacyGenerationSuffixedIndexDir) {
  const Coord kSide = 16;
  const Universe universe(2, kSide);
  const Box whole(Cell(0, 0), Cell(kSide - 1, kSide - 1));
  const std::string dir = FreshDir("legacy_generation");
  Rng rng(20260808);
  {
    auto db = SfcDb::Open(dir);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    ASSERT_TRUE(db.value()->CreateTable("t", "onion", universe).ok());
    ASSERT_TRUE(db.value()->CreateIndex("t", {"ix", "cell", "zorder"}).ok());
    ApplyRandomOps(*db.value(), "t", rng, 300, kSide);
    ASSERT_TRUE(db.value()->Close().ok());
  }
  std::filesystem::rename(dir + "/t__idx__ix", dir + "/t__idx__ix__g2");
  WriteCatalog(dir,
               "onion-sfc-db 2\ntable t\n"
               "index t ix cell zorder t__idx__ix__g2\n");
  // A stale unsuffixed directory holding a MANIFEST is uncataloged, so
  // Open's orphan sweep collects it.
  std::filesystem::create_directories(dir + "/t__idx__ix");
  std::ofstream(dir + "/t__idx__ix/MANIFEST") << "stale\n";

  {
    auto reopened = SfcDb::Open(dir);
    ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
    auto& db = *reopened.value();
    EXPECT_FALSE(std::filesystem::exists(dir + "/t__idx__ix"));
    const auto specs = db.ListIndexes("t");
    ASSERT_EQ(specs.size(), 1u);
    EXPECT_EQ(specs[0].name, "ix");
    EXPECT_EQ(specs[0].extractor, "cell");
    EXPECT_EQ(specs[0].curve, "zorder");
    auto index_table = db.IndexTable("t", "ix");
    ASSERT_TRUE(index_table.ok()) << index_table.status().ToString();
    EXPECT_EQ(index_table.value()->curve().name(), "zorder");
    ExpectIndexMatchesBruteForce(db, "t", "ix", "cell", whole);
    for (int i = 0; i < 6; ++i) {
      ExpectIndexMatchesBruteForce(db, "t", "ix", "cell",
                                   RandomBox(rng, kSide));
    }
    // Write keeps maintaining the suffixed directory.
    ApplyRandomOps(db, "t", rng, 100, kSide);
    ExpectIndexMatchesBruteForce(db, "t", "ix", "cell", whole);
    ASSERT_TRUE(db.Close().ok());
  }

  // The suffixed name survives a reopen (Open does not rewrite it), and
  // DropIndex removes exactly that directory.
  auto reopened = SfcDb::Open(dir);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  auto& db = *reopened.value();
  ASSERT_EQ(db.ListIndexes("t").size(), 1u);
  ExpectIndexMatchesBruteForce(db, "t", "ix", "cell", whole);
  ASSERT_TRUE(db.DropIndex("t", "ix").ok());
  EXPECT_FALSE(std::filesystem::exists(dir + "/t__idx__ix__g2"));
  EXPECT_TRUE(std::filesystem::exists(dir + "/t"));
  EXPECT_TRUE(db.ListIndexes("t").empty());
  ASSERT_TRUE(db.Close().ok());
}

// A catalog `index` line must name its own directory. A foreign one
// (which DropIndex would delete from under its owner), one named by two
// lines, or a malformed generation suffix is refused at Open — before the
// orphan sweep touches anything.
TEST(SecondaryIndexTest, CatalogIndexLineMustNameItsOwnDir) {
  const Universe universe(2, 16);
  const std::string dir = FreshDir("catalog_dirs");
  {
    auto db = SfcDb::Open(dir);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    ASSERT_TRUE(db.value()->CreateTable("u", "onion", universe).ok());
    ASSERT_TRUE(db.value()->CreateTable("v", "onion", universe).ok());
    ASSERT_TRUE(db.value()->CreateIndex("u", {"a", "cell", "zorder"}).ok());
    ASSERT_TRUE(db.value()->CreateIndex("v", {"ix", "cell", "zorder"}).ok());
    ASSERT_TRUE(db.value()->Close().ok());
  }
  const std::string tables = "onion-sfc-db 2\ntable u\ntable v\n";
  const std::vector<std::string> rejected = {
      // Foreign: u's index names v's index directory.
      tables + "index u a cell zorder v__idx__ix\n",
      tables + "index u a cell zorder u__idx__v\n",
      // Shared: each line passes the name check, but both name one
      // directory (two indexes, or a table and an index).
      tables + "index u a cell zorder u__idx__a__g2\n"
               "index u a__g2 cell zorder u__idx__a__g2\n",
      tables + "table u__idx__a\nindex u a cell zorder u__idx__a\n",
      // A generation suffix is "__g" and one or more digits.
      tables + "index u a cell zorder u__idx__a__gx\n",
      tables + "index u a cell zorder u__idx__a__g\n",
      tables + "index u a cell zorder u__idx__a__g2x\n",
      tables + "index u a cell zorder u__idx__a_g2\n",
  };
  for (const std::string& catalog : rejected) {
    SCOPED_TRACE(catalog);
    WriteCatalog(dir, catalog);
    auto db = SfcDb::Open(dir);
    ASSERT_FALSE(db.ok());
    EXPECT_EQ(db.status().code(), StatusCode::kInvalidArgument);
  }
  // The refused opens swept nothing: the catalog the db wrote still
  // opens with both indexes intact.
  EXPECT_TRUE(std::filesystem::exists(dir + "/u__idx__a"));
  EXPECT_TRUE(std::filesystem::exists(dir + "/v__idx__ix"));
  WriteCatalog(dir, tables +
                        "index u a cell zorder u__idx__a\n"
                        "index v ix cell zorder v__idx__ix\n");
  auto db = SfcDb::Open(dir);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  EXPECT_EQ(db.value()->ListIndexes("u").size(), 1u);
  EXPECT_EQ(db.value()->ListIndexes("v").size(), 1u);
  ExpectIndexMatchesBruteForce(*db.value(), "v", "ix", "cell",
                               Box(Cell(0, 0), Cell(15, 15)));
  ASSERT_TRUE(db.value()->Close().ok());
}

// --- Catalog lifecycle and validation.

TEST(SecondaryIndexTest, CatalogLifecycleAndValidation) {
  const Universe universe(2, 16);
  const std::string dir = FreshDir("catalog");
  auto db_result = SfcDb::Open(dir);
  ASSERT_TRUE(db_result.ok()) << db_result.status().ToString();
  auto& db = *db_result.value();
  ASSERT_TRUE(db.CreateTable("t", "onion", universe).ok());

  // Hidden-directory infix is reserved.
  EXPECT_EQ(db.CreateTable("a__idx__b", "onion", universe).status().code(),
            StatusCode::kInvalidArgument);

  EXPECT_EQ(db.CreateIndex("missing", {"ix", "cell", "zorder"}).code(),
            StatusCode::kNotFound);
  EXPECT_EQ(db.CreateIndex("t", {"bad name", "cell", "zorder"}).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(db.CreateIndex("t", {"ix", "no_such_extractor", "zorder"}).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(db.CreateIndex("t", {"ix", "cell", "no_such_curve"}).code(),
            StatusCode::kInvalidArgument);

  ASSERT_TRUE(db.CreateIndex("t", {"ix", "cell", "zorder"}).ok());
  EXPECT_EQ(db.CreateIndex("t", {"ix", "cell", "hilbert"}).code(),
            StatusCode::kInvalidArgument);  // duplicate name
  ASSERT_TRUE(db.CreateIndex("t", {"mirror", "mirror_x", "hilbert"}).ok());

  // An extractor with min_dims above the base universe is refused.
  ASSERT_TRUE(db.CreateTable("line", "row_major", Universe(1, 64)).ok());
  EXPECT_EQ(db.CreateIndex("line", {"ix", "swap_xy", "row_major"}).code(),
            StatusCode::kInvalidArgument);

  // The hidden directory is not reachable through the public table API.
  EXPECT_TRUE(std::filesystem::exists(dir + "/t__idx__ix"));
  EXPECT_EQ(db.OpenTable("t__idx__ix").status().code(), StatusCode::kNotFound);
  const auto tables = db.ListTables();
  EXPECT_EQ(std::count(tables.begin(), tables.end(), "t__idx__ix"), 0);

  auto specs = db.ListIndexes("t");
  ASSERT_EQ(specs.size(), 2u);  // creation order
  EXPECT_EQ(specs[0].name, "ix");
  EXPECT_EQ(specs[1].name, "mirror");
  EXPECT_TRUE(db.ListIndexes("missing").empty());
  ASSERT_TRUE(db.Close().ok());

  // Specs survive reopen; both indexes keep answering queries.
  auto reopened = SfcDb::Open(dir);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  auto& db2 = *reopened.value();
  auto specs2 = db2.ListIndexes("t");
  ASSERT_EQ(specs2.size(), 2u);
  EXPECT_EQ(specs2[0].name, "ix");
  EXPECT_EQ(specs2[0].extractor, "cell");
  EXPECT_EQ(specs2[0].curve, "zorder");
  EXPECT_EQ(specs2[1].name, "mirror");
  EXPECT_EQ(specs2[1].extractor, "mirror_x");
  EXPECT_EQ(specs2[1].curve, "hilbert");

  Rng rng(77);
  ApplyRandomOps(db2, "t", rng, 100, 16);
  ExpectIndexMatchesBruteForce(db2, "t", "ix", "cell",
                               Box(Cell(0, 0), Cell(15, 15)));
  ExpectIndexMatchesBruteForce(db2, "t", "mirror", "mirror_x",
                               Box(Cell(0, 0), Cell(15, 15)));

  // DropIndex removes the directory and stops maintenance; the remaining
  // index and the base keep working.
  ASSERT_TRUE(db2.DropIndex("t", "ix").ok());
  EXPECT_FALSE(std::filesystem::exists(dir + "/t__idx__ix"));
  EXPECT_EQ(db2.DropIndex("t", "ix").code(), StatusCode::kNotFound);
  EXPECT_EQ(db2.DropIndex("missing", "ix").code(), StatusCode::kNotFound);
  ASSERT_EQ(db2.ListIndexes("t").size(), 1u);
  {
    auto cursor = db2.NewIndexCursor("t", "ix", Box(Cell(0, 0), Cell(3, 3)));
    EXPECT_FALSE(cursor->Valid());
    EXPECT_EQ(cursor->status().code(), StatusCode::kNotFound);
  }
  ApplyRandomOps(db2, "t", rng, 50, 16);
  ExpectIndexMatchesBruteForce(db2, "t", "mirror", "mirror_x",
                               Box(Cell(0, 0), Cell(15, 15)));

  // DropTable takes its index directories with it.
  ASSERT_TRUE(db2.DropTable("t").ok());
  EXPECT_FALSE(std::filesystem::exists(dir + "/t"));
  EXPECT_FALSE(std::filesystem::exists(dir + "/t__idx__mirror"));
  EXPECT_TRUE(db2.ListIndexes("t").empty());
  ASSERT_TRUE(db2.Close().ok());
}

// --- Read budgets, snapshot reads, and the metric counters.

TEST(SecondaryIndexTest, LimitSnapshotAndMetrics) {
  const Coord kSide = 16;
  const Universe universe(2, kSide);
  const std::string dir = FreshDir("limits");
  auto db_result = SfcDb::Open(dir);
  ASSERT_TRUE(db_result.ok()) << db_result.status().ToString();
  auto& db = *db_result.value();
  ASSERT_TRUE(db.CreateTable("t", "onion", universe).ok());
  ASSERT_TRUE(db.CreateIndex("t", {"ix", "cell", "hilbert"}).ok());

  // 64 distinct rows in the lower-left quadrant.
  WriteBatch load;
  for (Coord x = 0; x < 8; ++x) {
    for (Coord y = 0; y < 8; ++y) load.Put("t", Cell(x, y), x * 100 + y);
  }
  ASSERT_TRUE(db.Write(std::move(load)).ok());
  const Box all(Cell(0, 0), Cell(kSide - 1, kSide - 1));

  {
    IndexReadOptions options;
    options.limit = 10;
    auto cursor = db.NewIndexCursor("t", "ix", all, options);
    uint64_t delivered = 0;
    for (; cursor->Valid(); cursor->Next()) ++delivered;
    EXPECT_TRUE(cursor->status().ok()) << cursor->status().ToString();
    EXPECT_EQ(delivered, 10u);
    EXPECT_TRUE(cursor->hit_read_budget());
  }

  // A cross-table snapshot freezes what the index cursor resolves.
  auto snapshot = db.GetSnapshot();
  ASSERT_TRUE(snapshot.ok()) << snapshot.status().ToString();
  WriteBatch more;
  for (Coord x = 8; x < 12; ++x) more.Put("t", Cell(x, 0), 9000 + x);
  ASSERT_TRUE(db.Write(std::move(more)).ok());
  auto count_rows = [&](const IndexReadOptions& options) {
    auto cursor = db.NewIndexCursor("t", "ix", all, options);
    uint64_t n = 0;
    for (; cursor->Valid(); cursor->Next()) ++n;
    EXPECT_TRUE(cursor->status().ok()) << cursor->status().ToString();
    return n;
  };
  IndexReadOptions pinned;
  pinned.snapshot = snapshot.value();
  EXPECT_EQ(count_rows(pinned), 64u);
  EXPECT_EQ(count_rows(IndexReadOptions{}), 68u);

  // Query and resolution counters moved; nothing dangled.
  EXPECT_GT(db.metrics().counter("index.queries")->value(), 0u);
  EXPECT_GT(db.metrics().counter("index.rows_resolved")->value(), 0u);
  EXPECT_EQ(db.metrics().counter("index.dangling_entries")->value(), 0u);

  // Out-of-universe boxes surface as an error cursor, not a crash.
  {
    auto cursor = db.NewIndexCursor(
        "t", "ix", Box(Cell(0, 0), Cell(kSide, kSide)));
    EXPECT_FALSE(cursor->Valid());
    EXPECT_FALSE(cursor->status().ok());
  }
  ASSERT_TRUE(db.Close().ok());
}

// --- Concurrency smoke (runs under TSan in CI): concurrent WriteBatches
// on an indexed table against concurrent index readers.

TEST(SecondaryIndexTest, ConcurrentWritesAndIndexReads) {
  const Coord kSide = 32;
  const Universe universe(2, kSide);
  const std::string dir = FreshDir("concurrent");
  SfcDbOptions options;
  options.table_options.memtable_flush_entries = 256;
  auto db_result = SfcDb::Open(dir, options);
  ASSERT_TRUE(db_result.ok()) << db_result.status().ToString();
  auto& db = *db_result.value();
  ASSERT_TRUE(db.CreateTable("t", "onion", universe).ok());
  ASSERT_TRUE(db.CreateIndex("t", {"ix", "swap_xy", "zorder"}).ok());

  std::atomic<bool> writes_ok{true};
  std::atomic<bool> reads_ok{true};
  std::vector<std::thread> threads;
  for (int w = 0; w < 2; ++w) {
    threads.emplace_back([&db, &writes_ok, w] {
      Rng rng(1000 + w);
      for (int i = 0; i < 150 && writes_ok.load(); ++i) {
        WriteBatch batch;
        for (int op = 0; op < 4; ++op) {
          batch.Put("t",
                    Cell(static_cast<Coord>(rng.UniformInclusive(kSide - 1)),
                         static_cast<Coord>(rng.UniformInclusive(kSide - 1))),
                    static_cast<uint64_t>(w) * 1000000 + i);
        }
        batch.Delete(
            "t", Cell(static_cast<Coord>(rng.UniformInclusive(kSide - 1)),
                      static_cast<Coord>(rng.UniformInclusive(kSide - 1))));
        if (!db.Write(std::move(batch)).ok()) writes_ok.store(false);
      }
    });
  }
  for (int r = 0; r < 2; ++r) {
    threads.emplace_back([&db, &reads_ok, r] {
      Rng rng(2000 + r);
      for (int i = 0; i < 40 && reads_ok.load(); ++i) {
        auto cursor = db.NewIndexCursor("t", "ix", RandomBox(rng, kSide));
        while (cursor->Valid()) cursor->Next();
        if (!cursor->status().ok()) reads_ok.store(false);
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_TRUE(writes_ok.load());
  EXPECT_TRUE(reads_ok.load());

  // After the dust settles the index agrees with the base exactly.
  ExpectIndexMatchesBruteForce(db, "t", "ix", "swap_xy",
                               Box(Cell(0, 0), Cell(kSide - 1, kSide - 1)));
  ASSERT_TRUE(db.Close().ok());
}


// --- Chunked index resolution (NewIndexResolveCursor): the base rows of a
// chunk of index cells are read by one walk of the base table.

/// Writes one row per cell of a side x side table (payload x * side + y),
/// and a second row (payload 1000000 + x * side + y) on every cell with
/// y >= `second_from_y`.
void FillGrid(SfcDb& db, const std::string& table, Coord side,
              Coord second_from_y) {
  for (Coord x = 0; x < side; ++x) {
    WriteBatch batch;
    for (Coord y = 0; y < side; ++y) {
      const uint64_t id = static_cast<uint64_t>(x) * side + y;
      batch.Put(table, Cell(x, y), id);
      if (y >= second_from_y) batch.Put(table, Cell(x, y), 1000000 + id);
    }
    ASSERT_TRUE(db.Write(std::move(batch)).ok());
  }
}

TEST(SecondaryIndexTest, ResolutionRecordsNoBaseQuerySamples) {
  const Coord kSide = 64;
  auto db_result = SfcDb::Open(FreshDir("no_base_query_samples"));
  ASSERT_TRUE(db_result.ok()) << db_result.status().ToString();
  auto& db = *db_result.value();
  ASSERT_TRUE(db.CreateTable("t", "onion", Universe(2, kSide)).ok());
  ASSERT_TRUE(db.CreateIndex("t", {"ix", "cell", "hilbert"}).ok());
  FillGrid(db, "t", kSide, kSide);
  auto base = db.OpenTable("t");
  auto index_table = db.IndexTable("t", "ix");
  ASSERT_TRUE(base.ok() && index_table.ok());
  ASSERT_TRUE(base.value()->Flush().ok());
  ASSERT_TRUE(index_table.value()->Flush().ok());

  obs::Histogram* ranges = base.value()->metrics().histogram("query.ranges");
  obs::Histogram* pages = base.value()->metrics().histogram("query.pages");
  obs::Histogram* index_ranges =
      index_table.value()->metrics().histogram("query.ranges");
  const Box box(Cell(40, 8), Cell(55, 23));  // side 16: 256 rows
  const size_t clusters = DecomposeBox(base.value()->curve(), box).size();
  ASSERT_EQ(clusters, 16u);

  const uint64_t ranges_before = ranges->count();
  const uint64_t ranges_sum_before = ranges->sum();
  const uint64_t pages_before = pages->count();
  const uint64_t queries_before = base.value()->read_stats().queries;
  const uint64_t index_ranges_before = index_ranges->count();
  {
    auto cursor = db.NewIndexCursor("t", "ix", box);
    EXPECT_EQ(DrainCursor(cursor.get()).size(), 256u);
    EXPECT_TRUE(cursor->status().ok()) << cursor->status().ToString();
  }
  // Resolving 256 rows is no base query; scanning the index is one query
  // of the index table.
  EXPECT_EQ(ranges->count(), ranges_before);
  EXPECT_EQ(pages->count(), pages_before);
  EXPECT_EQ(base.value()->read_stats().queries, queries_before);
  EXPECT_EQ(index_ranges->count(), index_ranges_before + 1);

  {
    auto cursor = base.value()->NewBoxCursor(box);
    EXPECT_EQ(DrainCursor(cursor.get()).size(), 256u);
  }
  EXPECT_EQ(ranges->count(), ranges_before + 1);
  EXPECT_EQ(ranges->sum() - ranges_sum_before, clusters);
  ASSERT_TRUE(db.Close().ok());
}

TEST(SecondaryIndexTest, ResolutionAcrossChunkBoundaries) {
  const Coord kSide = 64;
  const uint64_t kChunk = kIndexResolveChunkCells;
  static_assert(kIndexResolveChunkCells == 32 * 32,
                "`one_chunk` below must hold exactly one chunk of cells");
  SfcDbOptions options;
  options.table_options.memtable_flush_entries = 1000;
  auto db_result = SfcDb::Open(FreshDir("chunks"), options);
  ASSERT_TRUE(db_result.ok()) << db_result.status().ToString();
  auto& db = *db_result.value();
  ASSERT_TRUE(db.CreateTable("t", "onion", Universe(2, kSide)).ok());
  ASSERT_TRUE(db.CreateIndex("t", {"ix", "swap_xy", "hilbert"}).ok());
  // 4096 cells (four chunks), 6144 rows: cells with y >= 32 hold two.
  FillGrid(db, "t", kSide, 32);
  auto base = db.OpenTable("t");
  auto index_table = db.IndexTable("t", "ix");
  ASSERT_TRUE(base.ok() && index_table.ok());
  const IndexExtractor* extractor = FindIndexExtractor("swap_xy");
  ASSERT_NE(extractor, nullptr);
  const Box all(Cell(0, 0), Cell(kSide - 1, kSide - 1));
  const Box one_chunk(Cell(0, 0), Cell(31, 31));  // 1024 one-row cells

  // More than two chunks: the (cell, payload) multiset of a direct base
  // read, in nondecreasing index-key order (checked while draining).
  {
    auto cursor = db.NewIndexCursor("t", "ix", all);
    const auto got = DrainIndexCursor(cursor.get(), *base.value(),
                                      *index_table.value(), *extractor);
    EXPECT_EQ(got.size(), 6144u);
    EXPECT_EQ(got, BruteForceIndexQuery(base.value(), *extractor, all));
  }

  // Limits at the chunk edges: the first `limit` rows of the unlimited
  // order, and hit_read_budget() exactly when rows were withheld —
  // including the box whose rows run out exactly at one chunk.
  std::vector<SpatialEntry> unlimited;
  {
    auto cursor = db.NewIndexCursor("t", "ix", all);
    unlimited = DrainCursor(cursor.get());
    ASSERT_TRUE(cursor->status().ok());
  }
  for (const uint64_t limit : {kChunk - 1, kChunk, kChunk + 1}) {
    for (const auto& [box, total] :
         {std::pair<Box, uint64_t>{all, 6144}, {one_chunk, kChunk}}) {
      SCOPED_TRACE("limit " + std::to_string(limit) + " box " +
                   box.ToString());
      IndexReadOptions limited;
      limited.limit = limit;
      auto cursor = db.NewIndexCursor("t", "ix", box, limited);
      const auto got = DrainCursor(cursor.get());
      EXPECT_TRUE(cursor->status().ok()) << cursor->status().ToString();
      EXPECT_EQ(got.size(), std::min(limit, total));
      EXPECT_EQ(cursor->hit_read_budget(), limit < total);
      if (total == 6144) {
        for (size_t i = 0; i < got.size(); ++i) {
          ASSERT_EQ(got[i].cell, unlimited[i].cell) << i;
          ASSERT_EQ(got[i].payload, unlimited[i].payload) << i;
        }
      }
    }
  }

  // A pinned read keeps returning the pinned rows when deletes, new rows,
  // a flush and a compaction of both tables land between two chunks.
  const auto pinned_rows = BruteForceIndexQuery(base.value(), *extractor, all);
  auto snapshot = db.GetSnapshot();
  ASSERT_TRUE(snapshot.ok()) << snapshot.status().ToString();
  IndexReadOptions pinned;
  pinned.snapshot = snapshot.value();
  auto cursor = db.NewIndexCursor("t", "ix", all, pinned);
  std::vector<Row> got;
  for (int i = 0; i < 100 && cursor->Valid(); ++i, cursor->Next()) {
    got.emplace_back(base.value()->curve().IndexOf(cursor->entry().cell),
                     cursor->entry().payload);
  }
  WriteBatch churn;
  for (Coord x = 0; x < kSide; ++x) {
    for (Coord y = 0; y < kSide; ++y) {
      if ((x + y) % 3 == 0) churn.Delete("t", Cell(x, y));
      if ((x + y) % 3 == 1) churn.Put("t", Cell(x, y), 5000000 + x);
    }
  }
  ASSERT_TRUE(db.Write(std::move(churn)).ok());
  for (SfcTable* table : {base.value(), index_table.value()}) {
    ASSERT_TRUE(table->Flush().ok());
    ASSERT_TRUE(table->Compact().ok());
  }
  for (; cursor->Valid(); cursor->Next()) {
    got.emplace_back(base.value()->curve().IndexOf(cursor->entry().cell),
                     cursor->entry().payload);
  }
  EXPECT_TRUE(cursor->status().ok()) << cursor->status().ToString();
  std::sort(got.begin(), got.end());
  EXPECT_EQ(got, pinned_rows);
  // The latest state moved on.
  ExpectIndexMatchesBruteForce(db, "t", "ix", "swap_xy", all);
  EXPECT_NE(BruteForceIndexQuery(base.value(), *extractor, all), pinned_rows);
  cursor.reset();
  ASSERT_TRUE(db.Close().ok());
}

TEST(SecondaryIndexTest, DanglingRowMidChunkIsSkippedAndCountedOnce) {
  const Coord kSide = 32;
  auto db_result = SfcDb::Open(FreshDir("dangling"));
  ASSERT_TRUE(db_result.ok()) << db_result.status().ToString();
  auto& db = *db_result.value();
  ASSERT_TRUE(db.CreateTable("t", "onion", Universe(2, kSide)).ok());
  ASSERT_TRUE(db.CreateIndex("t", {"ix", "cell", "hilbert"}).ok());
  FillGrid(db, "t", kSide, 16);
  auto base = db.OpenTable("t");
  ASSERT_TRUE(base.ok());
  ASSERT_TRUE(base.value()->Flush().ok());

  // A direct Delete bypasses the index: the cell's two index entries now
  // point at a base row that is gone.
  const Cell gone(20, 20);
  ASSERT_TRUE(base.value()->Delete(gone).ok());
  obs::Counter* dangling = db.metrics().counter("index.dangling_entries");
  const uint64_t dangling_before = dangling->value();
  const Box all(Cell(0, 0), Cell(kSide - 1, kSide - 1));
  ExpectIndexMatchesBruteForce(db, "t", "ix", "cell", all);
  EXPECT_EQ(dangling->value() - dangling_before, 1u);
  ASSERT_TRUE(db.Close().ok());
}

TEST(SecondaryIndexTest, OutOfUniverseIndexEntryFailsAfterTheRowsBeforeIt) {
  const Coord kSide = 32;
  auto db_result = SfcDb::Open(FreshDir("corrupt_entry"));
  ASSERT_TRUE(db_result.ok()) << db_result.status().ToString();
  auto& db = *db_result.value();
  ASSERT_TRUE(db.CreateTable("t", "onion", Universe(2, kSide)).ok());
  ASSERT_TRUE(db.CreateIndex("t", {"ix", "cell", "hilbert"}).ok());
  FillGrid(db, "t", kSide, 16);
  const Cell hole(20, 20);
  WriteBatch clear;
  clear.Delete("t", hole);
  ASSERT_TRUE(db.Write(std::move(clear)).ok());
  auto base = db.OpenTable("t");
  auto index_table = db.IndexTable("t", "ix");
  ASSERT_TRUE(base.ok() && index_table.ok());
  const SpaceFillingCurve& base_curve = base.value()->curve();
  const SpaceFillingCurve& index_curve = index_table.value()->curve();
  // The hidden handle can write an entry whose base key lies outside the
  // base universe (the `cell` extractor makes index cell == base cell).
  ASSERT_TRUE(
      index_table.value()->Insert(hole, base_curve.num_cells() + 7).ok());

  // Expected: every row whose index key precedes the hole's, in index
  // order with ascending payloads per cell.
  const Key hole_key = index_curve.IndexOf(hole);
  std::vector<std::pair<Key, Row>> before;
  {
    auto scan = base.value()->NewScanCursor();
    for (; scan->Valid(); scan->Next()) {
      const SpatialEntry& e = scan->entry();
      const Key index_key = index_curve.IndexOf(e.cell);
      if (index_key < hole_key) {
        before.push_back({index_key, {base_curve.IndexOf(e.cell), e.payload}});
      }
    }
  }
  std::sort(before.begin(), before.end());
  std::vector<Row> want;
  for (const auto& [index_key, row] : before) want.push_back(row);
  ASSERT_GT(want.size(), 0u);
  ASSERT_LT(want.size(), static_cast<size_t>(kSide) * kSide);

  auto cursor = db.NewIndexCursor("t", "ix",
                                  Box(Cell(0, 0), Cell(kSide - 1, kSide - 1)));
  std::vector<Row> got;
  for (; cursor->Valid(); cursor->Next()) {
    EXPECT_TRUE(cursor->status().ok());
    got.emplace_back(base_curve.IndexOf(cursor->entry().cell),
                     cursor->entry().payload);
  }
  EXPECT_EQ(cursor->status().code(), StatusCode::kCorruption)
      << cursor->status().ToString();
  EXPECT_EQ(got, want);
  cursor.reset();
  ASSERT_TRUE(db.Close().ok());
}

TEST(SecondaryIndexTest, ResolutionReadsNoPageThatPointGetsSkip) {
  const Coord kSide = 128;
  const std::string dir = FreshDir("resolution_pages");
  SfcDbOptions options;
  options.table_options.entries_per_page = 16;
  options.pool_pages = 1 << 14;  // the whole table: no evictions
  {
    auto db_result = SfcDb::Open(dir, options);
    ASSERT_TRUE(db_result.ok()) << db_result.status().ToString();
    auto& db = *db_result.value();
    ASSERT_TRUE(db.CreateTable("t", "onion", Universe(2, kSide)).ok());
    ASSERT_TRUE(db.CreateIndex("t", {"ix", "cell", "hilbert"}).ok());
    // About a third of the cells, one row each: key gaps of every length
    // around the page size.
    Rng rng(0x9a6e5);
    for (Coord x = 0; x < kSide; ++x) {
      WriteBatch batch;
      for (Coord y = 0; y < kSide; ++y) {
        if (rng.UniformInclusive(2) == 0) batch.Put("t", Cell(x, y), x + y);
      }
      ASSERT_TRUE(db.Write(std::move(batch)).ok());
    }
    auto index_table = db.IndexTable("t", "ix");
    ASSERT_TRUE(index_table.ok());
    for (SfcTable* table : {db.GetTable("t"), index_table.value()}) {
      ASSERT_TRUE(table->Flush().ok());
      ASSERT_TRUE(table->Compact().ok());
    }
    ASSERT_TRUE(db.Close().ok());
  }

  // Base page reads of `read` from a cold pool (a freshly opened db).
  const auto cold_base_reads = [&](const auto& read) -> uint64_t {
    auto db_result = SfcDb::Open(dir, options);
    EXPECT_TRUE(db_result.ok()) << db_result.status().ToString();
    auto& db = *db_result.value();
    auto base = db.OpenTable("t");
    EXPECT_TRUE(base.ok());
    const uint64_t before = base.value()->io_stats().page_reads;
    read(db, base.value());
    const uint64_t reads = base.value()->io_stats().page_reads - before;
    EXPECT_TRUE(db.Close().ok());
    return reads;
  };
  for (const Box& box : {Box(Cell(30, 50), Cell(69, 89)),
                         Box(Cell(0, 0), Cell(kSide - 1, kSide - 1))}) {
    SCOPED_TRACE(box.ToString());
    std::vector<Cell> cells;
    const uint64_t walk_reads = cold_base_reads([&](SfcDb& db, SfcTable*) {
      auto cursor = db.NewIndexCursor("t", "ix", box);
      for (; cursor->Valid(); cursor->Next()) {
        if (cells.empty() || cells.back() != cursor->entry().cell) {
          cells.push_back(cursor->entry().cell);
        }
      }
      EXPECT_TRUE(cursor->status().ok()) << cursor->status().ToString();
    });
    const uint64_t get_reads = cold_base_reads([&](SfcDb&, SfcTable* base) {
      for (const Cell& cell : cells) EXPECT_TRUE(base->Get(cell).ok());
    });
    ASSERT_GT(cells.size(), 100u);
    EXPECT_GT(walk_reads, 0u);
    EXPECT_LE(walk_reads, get_reads);
  }
}

/// The base-table box whose cells `extractor` maps onto `box`.
Box PreimageBox(const std::string& extractor, const Box& box, Coord side) {
  if (extractor == "swap_xy") {
    return Box(Cell(box.lo[1], box.lo[0]), Cell(box.hi[1], box.hi[0]));
  }
  EXPECT_EQ(extractor, "mirror_x");
  return Box(Cell(side - 1 - box.hi[0], box.lo[1]),
             Cell(side - 1 - box.lo[0], box.hi[1]));
}

/// (base key, payload) rows of a direct base box query, sorted.
std::vector<Row> BaseBoxRows(SfcTable* base, const Box& box) {
  std::vector<Row> rows;
  auto cursor = base->NewBoxCursor(box);
  for (; cursor->Valid(); cursor->Next()) {
    rows.emplace_back(base->curve().IndexOf(cursor->entry().cell),
                      cursor->entry().payload);
  }
  EXPECT_TRUE(cursor->status().ok()) << cursor->status().ToString();
  std::sort(rows.begin(), rows.end());
  return rows;
}

// Index results against a direct base query over the preimage box, after
// a backfill and online maintenance through SfcDb::Write: the (cell,
// payload) multisets match exactly and nothing dangles.
TEST(SecondaryIndexTest, IndexQueriesMatchBaseBoxQueries) {
  const Coord kSide = 64;
  for (const std::string extractor_name : {"swap_xy", "mirror_x"}) {
    SCOPED_TRACE(extractor_name);
    SfcDbOptions options;
    options.table_options.memtable_flush_entries = 512;
    auto db_result = SfcDb::Open(FreshDir("base_truth_" + extractor_name),
                                 options);
    ASSERT_TRUE(db_result.ok()) << db_result.status().ToString();
    auto& db = *db_result.value();
    ASSERT_TRUE(db.CreateTable("t", "onion", Universe(2, kSide)).ok());
    Rng rng(0xba5e + extractor_name.size());
    ApplyRandomOps(db, "t", rng, 1500, kSide);  // backfilled by CreateIndex
    ASSERT_TRUE(
        db.CreateIndex("t", {"ix", extractor_name, "hilbert"}).ok());
    ApplyRandomOps(db, "t", rng, 1500, kSide);  // maintained online
    auto base = db.OpenTable("t");
    auto index_table = db.IndexTable("t", "ix");
    ASSERT_TRUE(base.ok() && index_table.ok());
    const IndexExtractor* extractor = FindIndexExtractor(extractor_name);
    ASSERT_NE(extractor, nullptr);
    obs::Counter* dangling = db.metrics().counter("index.dangling_entries");
    const uint64_t dangling_before = dangling->value();

    std::vector<Box> boxes = {Box(Cell(0, 0), Cell(kSide - 1, kSide - 1))};
    for (int i = 0; i < 24; ++i) boxes.push_back(RandomBox(rng, kSide));
    for (const Box& box : boxes) {
      SCOPED_TRACE(box.ToString());
      auto cursor = db.NewIndexCursor("t", "ix", box);
      const auto got = DrainIndexCursor(cursor.get(), *base.value(),
                                        *index_table.value(), *extractor);
      EXPECT_EQ(got, BaseBoxRows(base.value(),
                                 PreimageBox(extractor_name, box, kSide)));
    }
    EXPECT_EQ(dangling->value(), dangling_before);
    ASSERT_TRUE(db.Close().ok());
  }
}

}  // namespace
}  // namespace onion::storage
