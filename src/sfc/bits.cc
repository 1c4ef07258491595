#include "sfc/bits.h"

#include <cstddef>

#if defined(ONION_BITS_HAVE_BMI2_KERNELS)
#include <immintrin.h>
#endif

namespace onion::bits {
namespace {

// ---- magic-number spread/compact masks --------------------------------
//
// Spread2(x) distributes the low 32 bits of x so that source bit q lands
// at position 2q (every other bit); Spread3 lands bit q at position 3q.
// Each step doubles the gap between populated bit groups and masks away
// the duplicated copies — the standard O(log bits) Morton spreading.

inline uint64_t Spread2(uint64_t x) {
  x &= 0xffffffffull;
  x = (x | (x << 16)) & 0x0000ffff0000ffffull;
  x = (x | (x << 8)) & 0x00ff00ff00ff00ffull;
  x = (x | (x << 4)) & 0x0f0f0f0f0f0f0f0full;
  x = (x | (x << 2)) & 0x3333333333333333ull;
  x = (x | (x << 1)) & 0x5555555555555555ull;
  return x;
}

inline uint64_t Compact2(uint64_t x) {
  x &= 0x5555555555555555ull;
  x = (x | (x >> 1)) & 0x3333333333333333ull;
  x = (x | (x >> 2)) & 0x0f0f0f0f0f0f0f0full;
  x = (x | (x >> 4)) & 0x00ff00ff00ff00ffull;
  x = (x | (x >> 8)) & 0x0000ffff0000ffffull;
  x = (x | (x >> 16)) & 0x00000000ffffffffull;
  return x;
}

inline uint64_t Spread3(uint64_t x) {
  x &= 0x1fffffull;  // 21 bits: 3 * 21 = 63 <= 64
  x = (x | (x << 32)) & 0x001f00000000ffffull;
  x = (x | (x << 16)) & 0x001f0000ff0000ffull;
  x = (x | (x << 8)) & 0x100f00f00f00f00full;
  x = (x | (x << 4)) & 0x10c30c30c30c30c3ull;
  x = (x | (x << 2)) & 0x1249249249249249ull;
  return x;
}

inline uint64_t Compact3(uint64_t x) {
  x &= 0x1249249249249249ull;
  x = (x | (x >> 2)) & 0x10c30c30c30c30c3ull;
  x = (x | (x >> 4)) & 0x100f00f00f00f00full;
  x = (x | (x >> 8)) & 0x001f0000ff0000ffull;
  x = (x | (x >> 16)) & 0x001f00000000ffffull;
  x = (x | (x >> 32)) & 0x00000000001fffffull;
  return x;
}

#if defined(ONION_BITS_HAVE_BMI2_KERNELS)
// kStrideMask[d] has every d-th bit set starting at bit 0 — the pdep/pext
// deposit mask for axis 0 at `d` dims; axis i uses kStrideMask[d] << i.
// Index 0 is unused padding so the array reads naturally by dims.
constexpr uint64_t StrideMask(int dims) {
  uint64_t mask = 0;
  for (int pos = 0; pos < 64; pos += dims) mask |= 1ull << pos;
  return mask;
}
constexpr uint64_t kStrideMask[kMaxDims + 1] = {
    0,
    StrideMask(1), StrideMask(2), StrideMask(3), StrideMask(4),
    StrideMask(5), StrideMask(6), StrideMask(7), StrideMask(8),
};

bool DetectBmi2() { return __builtin_cpu_supports("bmi2") != 0; }
#endif

}  // namespace

bool HasBmi2() {
#if defined(ONION_BITS_HAVE_BMI2_KERNELS)
  static const bool cached = DetectBmi2();
  return cached;
#else
  return false;
#endif
}

Key InterleaveScalar(const Coord* coords, int dims, int bits) {
  Key code = 0;
  for (int q = bits - 1; q >= 0; --q) {
    for (int axis = dims - 1; axis >= 0; --axis) {
      code = (code << 1) | ((coords[axis] >> q) & 1u);
    }
  }
  return code;
}

void DeinterleaveScalar(Key code, int dims, int bits, Coord* coords) {
  for (int axis = 0; axis < dims; ++axis) coords[axis] = 0;
  for (int q = 0; q < bits; ++q) {
    for (int axis = 0; axis < dims; ++axis) {
      const Key bit = (code >> (q * dims + axis)) & 1u;
      coords[axis] |= static_cast<Coord>(bit << q);
    }
  }
}

Key InterleaveMagic2(const Coord* coords) {
  return Spread2(coords[0]) | (Spread2(coords[1]) << 1);
}

void DeinterleaveMagic2(Key code, Coord* coords) {
  coords[0] = static_cast<Coord>(Compact2(code));
  coords[1] = static_cast<Coord>(Compact2(code >> 1));
}

Key InterleaveMagic3(const Coord* coords) {
  return Spread3(coords[0]) | (Spread3(coords[1]) << 1) |
         (Spread3(coords[2]) << 2);
}

void DeinterleaveMagic3(Key code, Coord* coords) {
  coords[0] = static_cast<Coord>(Compact3(code));
  coords[1] = static_cast<Coord>(Compact3(code >> 1));
  coords[2] = static_cast<Coord>(Compact3(code >> 2));
}

#if defined(ONION_BITS_HAVE_BMI2_KERNELS)

__attribute__((target("bmi2"))) Key InterleaveBmi2(const Coord* coords,
                                                   int dims, int bits) {
  (void)bits;  // coords are already < 2^bits; the stride mask covers 64 bits
  const uint64_t stride = kStrideMask[dims];
  Key code = 0;
  for (int axis = 0; axis < dims; ++axis) {
    code |= _pdep_u64(coords[axis], stride << axis);
  }
  return code;
}

__attribute__((target("bmi2"))) void DeinterleaveBmi2(Key code, int dims,
                                                      int bits,
                                                      Coord* coords) {
  (void)bits;
  const uint64_t stride = kStrideMask[dims];
  for (int axis = 0; axis < dims; ++axis) {
    coords[axis] = static_cast<Coord>(_pext_u64(code, stride << axis));
  }
}

#endif  // ONION_BITS_HAVE_BMI2_KERNELS

Key Interleave(const Coord* coords, int dims, int bits) {
  // The scalar reference truncates each coordinate to its low `bits` bits;
  // the fast kernels assume clean input, so truncate here once — a few
  // register ANDs, preserving identical results for ANY input.
  const Coord mask =
      bits >= 32 ? ~Coord{0} : static_cast<Coord>((Coord{1} << bits) - 1);
  Coord c[kMaxDims];
  for (int axis = 0; axis < dims; ++axis) c[axis] = coords[axis] & mask;
#if defined(ONION_BITS_HAVE_BMI2_KERNELS)
  if (HasBmi2()) return InterleaveBmi2(c, dims, bits);
#endif
  if (dims == 2) return InterleaveMagic2(c);
  if (dims == 3) return InterleaveMagic3(c);
  return InterleaveScalar(c, dims, bits);
}

void Deinterleave(Key code, int dims, int bits, Coord* coords) {
  // Same truncation rule on the code side: ignore bits past dims*bits.
  const int total = dims * bits;
  if (total < 64) code &= (Key{1} << total) - 1;
#if defined(ONION_BITS_HAVE_BMI2_KERNELS)
  if (HasBmi2()) {
    DeinterleaveBmi2(code, dims, bits, coords);
    return;
  }
#endif
  if (dims == 2) {
    DeinterleaveMagic2(code, coords);
    return;
  }
  if (dims == 3) {
    DeinterleaveMagic3(code, coords);
    return;
  }
  DeinterleaveScalar(code, dims, bits, coords);
}

}  // namespace onion::bits
