// Cross-path equivalence proofs for the interleave kernels (sfc/bits.h):
// the BMI2 pdep/pext path, the magic-number path, and the dispatched
// entry points must all reproduce the scalar reference
// bit for bit — exhaustively for small widths, randomized for large ones.

#include "sfc/bits.h"

#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "sfc/morton.h"

namespace onion::bits {
namespace {

// Every kernel pair under test for a given (dims, bits), driven through
// one comparison helper so each case checks all available paths at once.
void ExpectAllPathsMatch(const Coord* coords, int dims, int bits) {
  const Key want = InterleaveScalar(coords, dims, bits);
  EXPECT_EQ(want, Interleave(coords, dims, bits))
      << "dispatched interleave diverges at dims=" << dims;
  if (dims == 2 && bits <= 32) {
    EXPECT_EQ(want, InterleaveMagic2(coords));
  }
  if (dims == 3 && bits <= 21) {
    EXPECT_EQ(want, InterleaveMagic3(coords));
  }
#if defined(ONION_BITS_HAVE_BMI2_KERNELS)
  if (HasBmi2()) {
    EXPECT_EQ(want, InterleaveBmi2(coords, dims, bits));
  }
#endif

  // And every decode path must invert it.
  Coord back[kMaxDims] = {};
  DeinterleaveScalar(want, dims, bits, back);
  for (int i = 0; i < dims; ++i) EXPECT_EQ(coords[i], back[i]);
  Coord dispatched[kMaxDims] = {};
  Deinterleave(want, dims, bits, dispatched);
  for (int i = 0; i < dims; ++i) EXPECT_EQ(coords[i], dispatched[i]);
  if (dims == 2 && bits <= 32) {
    Coord m[2];
    DeinterleaveMagic2(want, m);
    EXPECT_EQ(coords[0], m[0]);
    EXPECT_EQ(coords[1], m[1]);
  }
  if (dims == 3 && bits <= 21) {
    Coord m[3];
    DeinterleaveMagic3(want, m);
    for (int i = 0; i < 3; ++i) EXPECT_EQ(coords[i], m[i]);
  }
#if defined(ONION_BITS_HAVE_BMI2_KERNELS)
  if (HasBmi2()) {
    Coord b[kMaxDims] = {};
    DeinterleaveBmi2(want, dims, bits, b);
    for (int i = 0; i < dims; ++i) EXPECT_EQ(coords[i], b[i]);
  }
#endif
}

// Exhaustive 2D: every coordinate pair for bits <= 8 would be 2^32 cases;
// exhaust each axis independently against every "stress" value of the
// other (all-ones, alternating, zero), which covers every bit position and
// every carry-free interaction, then exhaust both axes jointly for
// bits <= 4 (65k cases).
TEST(BitsTest, Exhaustive2D) {
  for (int bits = 1; bits <= 8; ++bits) {
    const Coord limit = Coord{1} << bits;
    const Coord stress[] = {0, limit - 1,
                            static_cast<Coord>(0x55555555u & (limit - 1)),
                            static_cast<Coord>(0xaaaaaaaau & (limit - 1))};
    for (Coord a = 0; a < limit; ++a) {
      for (const Coord s : stress) {
        const Coord xy[2] = {a, s};
        ExpectAllPathsMatch(xy, 2, bits);
        const Coord yx[2] = {s, a};
        ExpectAllPathsMatch(yx, 2, bits);
      }
    }
  }
  for (Coord a = 0; a < 16; ++a) {
    for (Coord b = 0; b < 16; ++b) {
      const Coord xy[2] = {a, b};
      ExpectAllPathsMatch(xy, 2, 4);
    }
  }
}

TEST(BitsTest, Exhaustive3D) {
  // Joint exhaustion for bits <= 4: 16^3 = 4096 cases per width.
  for (int bits = 1; bits <= 4; ++bits) {
    const Coord limit = Coord{1} << bits;
    for (Coord a = 0; a < limit; ++a) {
      for (Coord b = 0; b < limit; ++b) {
        for (Coord c = 0; c < limit; ++c) {
          const Coord xyz[3] = {a, b, c};
          ExpectAllPathsMatch(xyz, 3, bits);
        }
      }
    }
  }
  // Per-axis exhaustion at 8 bits against stress values of the others.
  for (Coord a = 0; a < 256; ++a) {
    const Coord cases[][3] = {
        {a, 0, 255}, {255, a, 0}, {0, 255, a}, {a, a, a}, {a, 0x55, 0xaa}};
    for (const auto& xyz : cases) ExpectAllPathsMatch(xyz, 3, 8);
  }
}

TEST(BitsTest, RandomizedWideWidthsAllDims) {
  Rng rng(20260808);
  for (int dims = 1; dims <= kMaxDims; ++dims) {
    const int max_bits = 64 / dims > 32 ? 32 : 64 / dims;
    for (int bits = 1; bits <= max_bits; ++bits) {
      const uint64_t limit = uint64_t{1} << bits;
      for (int trial = 0; trial < 64; ++trial) {
        Coord coords[kMaxDims] = {};
        for (int i = 0; i < dims; ++i) {
          coords[i] = static_cast<Coord>(rng.UniformInclusive(limit - 1));
        }
        ExpectAllPathsMatch(coords, dims, bits);
      }
    }
  }
}

// The dispatched entry points must apply the scalar truncation rule to
// out-of-range input (coordinates wider than `bits`, codes wider than
// dims*bits) — the fast kernels otherwise see bits the reference ignores.
TEST(BitsTest, DispatchTruncatesLikeScalar) {
  Rng rng(42);
  for (int dims = 2; dims <= 4; ++dims) {
    for (int trial = 0; trial < 128; ++trial) {
      const int bits = 1 + static_cast<int>(rng.UniformInclusive(
                               static_cast<uint64_t>(64 / dims - 1)));
      Coord raw[kMaxDims] = {};
      for (int i = 0; i < dims; ++i) {
        raw[i] = static_cast<Coord>(rng.UniformInclusive(~0u));  // any value
      }
      EXPECT_EQ(InterleaveScalar(raw, dims, bits),
                Interleave(raw, dims, bits));
      const Key code = rng.UniformInclusive(~0ull);
      Coord a[kMaxDims] = {};
      Coord b[kMaxDims] = {};
      DeinterleaveScalar(code, dims, bits, a);
      Deinterleave(code, dims, bits, b);
      for (int i = 0; i < dims; ++i) EXPECT_EQ(a[i], b[i]);
    }
  }
}

// MortonEncode/Decode must remain the scalar reference function after the
// rewire onto the dispatched kernels.
TEST(BitsTest, MortonStaysOnReferenceLayout) {
  Rng rng(7);
  for (int dims = 1; dims <= kMaxDims; ++dims) {
    const int bits = 64 / dims > 8 ? 8 : 64 / dims;
    for (int trial = 0; trial < 256; ++trial) {
      Cell cell;
      cell.dims = dims;
      for (int i = 0; i < dims; ++i) {
        cell[i] =
            static_cast<Coord>(rng.UniformInclusive((1ull << bits) - 1));
      }
      const Key code = MortonEncode(cell, bits);
      EXPECT_EQ(InterleaveScalar(cell.coords.data(), dims, bits), code);
      EXPECT_EQ(cell, MortonDecode(code, dims, bits));
    }
  }
}

}  // namespace
}  // namespace onion::bits
