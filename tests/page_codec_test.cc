// Property-style tests for the segment page encoding and the split-block
// bloom filter: random sorted pages (with duplicate keys, max-u64 keys,
// single-entry and full pages) must round-trip byte-exactly through the
// raw layout; malformed buffers must be rejected, not crash; the bloom filter
// must have zero false negatives and a sane false-positive rate at the
// default bits-per-key budget.

#include <algorithm>
#include <unordered_set>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "storage/filter_block.h"
#include "storage/page_codec.h"

namespace onion::storage {
namespace {

std::vector<Entry> RoundTrip(const std::vector<Entry>& entries) {
  std::vector<uint8_t> bytes;
  EncodePage(entries, &bytes);
  EXPECT_EQ(bytes.size(), entries.size() * kEntryBytesV3);
  std::vector<Entry> decoded;
  EXPECT_TRUE(
      DecodePage(bytes.data(), bytes.size(), entries.size(), &decoded));
  return decoded;
}

TEST(PageCodecTest, RandomSortedPagesRoundTrip) {
  Rng rng(101);
  for (int round = 0; round < 200; ++round) {
    // Mixed page shapes: tiny through "full" (256), keys with duplicates,
    // random seq stamps (tombstone bits included).
    const size_t count = 1 + rng.UniformInclusive(255);
    std::vector<Entry> entries;
    entries.reserve(count);
    for (size_t i = 0; i < count; ++i) {
      entries.push_back(Entry{rng.UniformInclusive(~0ull),
                              rng.UniformInclusive(~0ull),
                              rng.UniformInclusive(~0ull)});
    }
    std::sort(entries.begin(), entries.end(),
              [](const Entry& a, const Entry& b) { return a.key < b.key; });
    // Force duplicate keys into some rounds.
    if (round % 3 == 0 && count > 2) {
      entries[count / 2].key = entries[count / 2 - 1].key;
      std::sort(entries.begin(), entries.end(),
                [](const Entry& a, const Entry& b) { return a.key < b.key; });
    }
    EXPECT_EQ(RoundTrip(entries), entries);
  }
}

TEST(PageCodecTest, EdgeShapedPagesRoundTrip) {
  const std::vector<std::vector<Entry>> pages = {
      {},                            // empty page
      {{0, 0, 0}},                   // single minimal entry
      {{~0ull, ~0ull, ~0ull}},       // single max-u64 entry
      {{~0ull, 1, PackSeq(1, false)},
       {~0ull, 2, PackSeq(2, true)},
       {~0ull, 3, PackSeq(3, false)}},       // duplicate max keys
      {{0, ~0ull, 0}, {~0ull, 0, ~0ull}},    // full-range delta
      {{5, 5, 2}, {5, 6, 4}, {5, 7, 7}, {5, 8, 9}},  // all-duplicate page
  };
  for (const auto& page : pages) EXPECT_EQ(RoundTrip(page), page);
  // Tombstone bits survive the packed stamp.
  EXPECT_TRUE(IsTombstone(PackSeq(7, true)));
  EXPECT_FALSE(IsTombstone(PackSeq(7, false)));
  EXPECT_EQ(SequenceOf(PackSeq(7, true)), 7u);
}

TEST(PageCodecTest, RawLayoutIsLittleEndianTriples) {
  // The on-disk page bytes: per entry u64 key, u64 payload, u64 seq,
  // little-endian, back to back.
  const std::vector<Entry> entries = {{0x0102030405060708ull, 9, 10},
                                      {0x0102030405060709ull, 11, 12}};
  std::vector<uint8_t> bytes = {0xaa};  // EncodePage appends
  EncodePage(entries, &bytes);
  ASSERT_EQ(bytes.size(), 1 + 2 * kEntryBytesV3);
  EXPECT_EQ(bytes[0], 0xaa);
  const uint8_t first_key[8] = {8, 7, 6, 5, 4, 3, 2, 1};
  EXPECT_TRUE(std::equal(first_key, first_key + 8, bytes.begin() + 1));
  EXPECT_EQ(bytes[1 + 8], 9);
  EXPECT_EQ(bytes[1 + 16], 10);
  EXPECT_EQ(bytes[1 + 24], 9);
  EXPECT_EQ(bytes[1 + 40], 12);
}

TEST(PageCodecTest, MalformedBuffersRejected) {
  std::vector<Entry> entries;
  for (uint64_t i = 0; i < 16; ++i) {
    entries.push_back({i * 1000, i, PackSeq(i + 1, i % 5 == 0)});
  }
  std::vector<Entry> decoded;
  std::vector<uint8_t> bytes;
  EncodePage(entries, &bytes);
  bytes.push_back(0x00);
  // The page decodes exactly the encoded length for the declared count: a
  // strict prefix, nothing, and one extra byte all fail.
  for (const size_t size : {bytes.size() - 2, size_t{0}, bytes.size()}) {
    EXPECT_FALSE(DecodePage(bytes.data(), size, entries.size(), &decoded))
        << "size " << size;
  }
}

TEST(FilterBlockTest, NoFalseNegatives) {
  Rng rng(202);
  BloomFilterBuilder builder(10);
  std::vector<Key> keys;
  for (int i = 0; i < 5000; ++i) {
    keys.push_back(rng.UniformInclusive(~0ull));
    builder.AddKey(keys.back());
  }
  const std::vector<uint8_t> filter = builder.Finish();
  ASSERT_FALSE(filter.empty());
  EXPECT_EQ(filter.size() % kBloomBlockBytes, 0u);
  for (const Key key : keys) {
    EXPECT_TRUE(BloomMayContain(filter.data(), filter.size(), key));
  }
}

TEST(FilterBlockTest, FalsePositiveRateIsSane) {
  Rng rng(203);
  BloomFilterBuilder builder(10);
  std::unordered_set<Key> present;
  while (present.size() < 4000) {
    const Key key = rng.UniformInclusive(~0ull);
    if (present.insert(key).second) builder.AddKey(key);
  }
  const std::vector<uint8_t> filter = builder.Finish();
  uint64_t false_positives = 0;
  uint64_t probes = 0;
  while (probes < 20000) {
    const Key key = rng.UniformInclusive(~0ull);
    if (present.count(key) > 0) continue;
    ++probes;
    if (BloomMayContain(filter.data(), filter.size(), key)) {
      ++false_positives;
    }
  }
  // Split-block filters at 10 bits/key sit near 1% FPR; 5% is a loose
  // regression bound, not a tuning target.
  EXPECT_LT(static_cast<double>(false_positives), 0.05 * probes)
      << false_positives << " false positives in " << probes << " probes";
}

TEST(FilterBlockTest, DisabledAndEmptyFiltersSayMaybe) {
  BloomFilterBuilder disabled(0);
  disabled.AddKey(7);
  EXPECT_TRUE(disabled.Finish().empty());
  BloomFilterBuilder empty(10);
  EXPECT_TRUE(empty.Finish().empty());
  EXPECT_TRUE(BloomMayContain(nullptr, 0, 42));
}

}  // namespace
}  // namespace onion::storage
