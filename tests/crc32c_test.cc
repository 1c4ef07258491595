// CRC32C kernels (storage/crc32c.h): the dispatched Crc32c() must give the
// published Castagnoli values and match the portable table loop at every
// length and alignment, and sums must extend over concatenated buffers —
// the property WAL replay relies on.

#include "storage/crc32c.h"

#include <cstdint>
#include <cstring>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"

namespace onion::storage {
namespace {

std::vector<uint8_t> Filled(size_t n, uint8_t value) {
  return std::vector<uint8_t>(n, value);
}

TEST(Crc32cTest, KnownAnswers) {
  // RFC 3720 section B.4 test vectors, plus the classic check value.
  // These run through the dispatched entry point whichever kernel it
  // picked, and through the portable reference.
  std::vector<uint8_t> ascending(32);
  std::vector<uint8_t> descending(32);
  for (size_t i = 0; i < 32; ++i) {
    ascending[i] = static_cast<uint8_t>(i);
    descending[i] = static_cast<uint8_t>(31 - i);
  }
  const char* digits = "123456789";
  const std::vector<uint8_t> check(digits, digits + std::strlen(digits));
  const struct {
    std::vector<uint8_t> bytes;
    uint32_t want;
  } cases[] = {
      {Filled(32, 0x00), 0x8A9136AAu},
      {Filled(32, 0xFF), 0x62A8AB43u},
      {ascending, 0x46DD794Eu},
      {descending, 0x113FDB5Cu},
      {check, 0xE3069283u},
  };
  for (const auto& c : cases) {
    EXPECT_EQ(Crc32c(c.bytes.data(), c.bytes.size()), c.want);
    EXPECT_EQ(Crc32cPortable(0, c.bytes.data(), c.bytes.size()), c.want);
  }
  EXPECT_EQ(Crc32c(nullptr, 0), 0u);
}

TEST(Crc32cTest, DispatchedMatchesPortableAtEveryLengthAndOffset) {
  // Start offsets 0..7 put the word loads at every alignment; lengths
  // 0..1100 cover empty input, tails of every size, and multi-word runs.
  constexpr size_t kMaxLen = 1100;
  constexpr size_t kMaxOffset = 7;
  Rng rng(3720);
  std::vector<uint8_t> buffer(kMaxLen + kMaxOffset);
  for (auto& byte : buffer) byte = static_cast<uint8_t>(rng.Next());
  for (size_t offset = 0; offset <= kMaxOffset; ++offset) {
    for (size_t len = 0; len <= kMaxLen; ++len) {
      const uint8_t* data = buffer.data() + offset;
      ASSERT_EQ(Crc32c(0, data, len), Crc32cPortable(0, data, len))
          << "offset " << offset << " length " << len;
      // A non-zero starting sum goes through the same ~crc convention.
      ASSERT_EQ(Crc32c(0xDEADBEEFu, data, len),
                Crc32cPortable(0xDEADBEEFu, data, len))
          << "offset " << offset << " length " << len;
    }
  }
}

TEST(Crc32cTest, SumExtendsOverConcatenatedBuffers) {
  Rng rng(17);
  std::vector<uint8_t> bytes(4096);
  for (auto& byte : bytes) byte = static_cast<uint8_t>(rng.Next());
  const uint32_t whole = Crc32c(bytes.data(), bytes.size());
  for (const size_t split : {size_t{0}, size_t{1}, size_t{7}, size_t{8},
                             size_t{13}, size_t{2048}, size_t{4095},
                             size_t{4096}}) {
    const uint32_t head = Crc32c(0, bytes.data(), split);
    EXPECT_EQ(Crc32c(head, bytes.data() + split, bytes.size() - split), whole)
        << "split " << split;
    const uint32_t portable_head = Crc32cPortable(0, bytes.data(), split);
    EXPECT_EQ(Crc32cPortable(portable_head, bytes.data() + split,
                             bytes.size() - split),
              whole)
        << "split " << split;
  }
}

}  // namespace
}  // namespace onion::storage
