// Tests for a single in-memory run (storage::MemPageSource) read through
// the LRU buffer pool (storage::BufferPool): fence search, range scans
// against a reference, LRU eviction, and sequential-vs-seek accounting.

#include <algorithm>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "storage/buffer_pool.h"
#include "storage/mem_source.h"

namespace onion::storage {
namespace {

MemPageSource MakeRun(const std::vector<Key>& keys, uint32_t page_size) {
  std::vector<Entry> entries;
  entries.reserve(keys.size());
  for (size_t i = 0; i < keys.size(); ++i) {
    entries.push_back({keys[i], i});
  }
  return MemPageSource(std::move(entries), page_size);
}

TEST(MemPageSourceTest, PageGeometry) {
  const MemPageSource run = MakeRun({1, 2, 3, 4, 5, 6, 7}, 3);
  EXPECT_EQ(run.num_entries(), 7u);
  EXPECT_EQ(run.num_pages(), 3u);
  EXPECT_EQ(run.PageBegin(1), 3u);
  EXPECT_EQ(run.PageEnd(1), 6u);
  EXPECT_EQ(run.PageEnd(2), 7u);  // last page partially filled
}

TEST(MemPageSourceTest, PageOfFenceSearch) {
  // Pages: [10, 20, 30] [40, 50, 60] [70].
  const MemPageSource run = MakeRun({10, 20, 30, 40, 50, 60, 70}, 3);
  EXPECT_EQ(run.PageOf(5), 0u);   // before everything
  EXPECT_EQ(run.PageOf(10), 0u);
  EXPECT_EQ(run.PageOf(30), 0u);  // last entry of page 0
  EXPECT_EQ(run.PageOf(35), 1u);  // first entry >= 35 is 40, on page 1
  EXPECT_EQ(run.PageOf(40), 1u);
  EXPECT_EQ(run.PageOf(69), 2u);  // first entry >= 69 is 70
  EXPECT_EQ(run.PageOf(70), 2u);
  EXPECT_EQ(run.PageOf(1000), 3u);  // nothing qualifies
}

TEST(MemPageSourceTest, DuplicateKeysAcrossPages) {
  const MemPageSource run = MakeRun({5, 5, 5, 5, 5, 8}, 2);
  // PageOf(5) must be the FIRST page whose span can contain key 5.
  EXPECT_EQ(run.PageOf(5), 0u);
}

TEST(BufferPoolTest, ScanMatchesReference) {
  Rng rng(99);
  std::vector<Key> keys;
  for (int i = 0; i < 500; ++i) keys.push_back(rng.UniformInclusive(999));
  std::sort(keys.begin(), keys.end());
  const MemPageSource run = MakeRun(keys, 16);
  BufferPool pool(8);
  for (int trial = 0; trial < 50; ++trial) {
    const Key lo = rng.UniformInclusive(999);
    const Key hi = lo + rng.UniformInclusive(200);
    std::vector<Key> expected;
    for (const Key key : keys) {
      if (key >= lo && key <= hi) expected.push_back(key);
    }
    std::vector<Key> actual;
    pool.ScanRange(run, lo, hi,
                   [&](Key key, uint64_t) { actual.push_back(key); });
    ASSERT_EQ(actual, expected) << "[" << lo << ", " << hi << "]";
  }
}

TEST(BufferPoolTest, CacheHitsOnRepeatedScan) {
  std::vector<Key> keys(100);
  for (size_t i = 0; i < keys.size(); ++i) keys[i] = i;
  const MemPageSource run = MakeRun(keys, 10);
  BufferPool pool(100);  // everything fits
  pool.ScanRange(run, 0, 99, [](Key, uint64_t) {});
  const uint64_t cold_reads = pool.stats().page_reads;
  EXPECT_EQ(cold_reads, 10u);
  pool.ScanRange(run, 0, 99, [](Key, uint64_t) {});
  EXPECT_EQ(pool.stats().page_reads, cold_reads);  // all hits
  EXPECT_EQ(pool.stats().cache_hits, 10u);
}

TEST(BufferPoolTest, LruEvictsUnderPressure) {
  std::vector<Key> keys(100);
  for (size_t i = 0; i < keys.size(); ++i) keys[i] = i;
  const MemPageSource run = MakeRun(keys, 10);
  BufferPool pool(3);  // only 3 of 10 pages fit
  pool.ScanRange(run, 0, 99, [](Key, uint64_t) {});
  EXPECT_EQ(pool.resident_pages(), 3u);
  pool.ScanRange(run, 0, 99, [](Key, uint64_t) {});
  // Sequential sweep with a tiny pool: every page is a miss again.
  EXPECT_EQ(pool.stats().page_reads, 20u);
}

TEST(BufferPoolTest, SequentialReadsCountOneSeek) {
  std::vector<Key> keys(100);
  for (size_t i = 0; i < keys.size(); ++i) keys[i] = i;
  const MemPageSource run = MakeRun(keys, 10);
  BufferPool pool(100);
  pool.ScanRange(run, 0, 99, [](Key, uint64_t) {});
  // 10 sequential page reads = 1 seek.
  EXPECT_EQ(pool.stats().page_reads, 10u);
  EXPECT_EQ(pool.stats().seeks, 1u);
  EXPECT_EQ(pool.stats().entries_read, 100u);
}

TEST(BufferPoolTest, DisjointRangesCountMultipleSeeks) {
  std::vector<Key> keys(100);
  for (size_t i = 0; i < keys.size(); ++i) keys[i] = i;
  const MemPageSource run = MakeRun(keys, 10);
  BufferPool pool(100);
  pool.ScanRange(run, 0, 9, [](Key, uint64_t) {});    // page 0
  pool.ScanRange(run, 50, 59, [](Key, uint64_t) {});  // page 5
  pool.ScanRange(run, 90, 99, [](Key, uint64_t) {});  // page 9
  EXPECT_EQ(pool.stats().seeks, 3u);
}

TEST(BufferPoolTest, EmptyRun) {
  const MemPageSource run = MakeRun({}, 4);
  BufferPool pool(2);
  uint64_t visited = 0;
  pool.ScanRange(run, 0, 100, [&](Key, uint64_t) { ++visited; });
  EXPECT_EQ(visited, 0u);
  EXPECT_EQ(pool.stats().page_reads, 0u);
}

}  // namespace
}  // namespace onion::storage
