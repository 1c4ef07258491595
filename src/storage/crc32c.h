// CRC32C (Castagnoli, polynomial 0x1EDC6F41, reflected 0x82F63B78): the
// block checksum of segment format v3 pages, WAL format v2 records, the
// SfcDb batch journal, and every wire frame. The output matches the widely
// deployed CRC32C (iSCSI / RocksDB / LevelDB unmasked) bitstream, so
// fixtures written by hand in tests validate the real on-disk rule.
//
// Two kernels compute the same function:
//
//   Crc32cPortable  a byte-at-a-time table loop — the reference, and the
//                   only path on CPUs without SSE4.2 and on non-x86 builds.
//   SSE4.2 kernel   the `crc32` instruction over 8-byte words, then over
//                   the tail bytes. Compiled with a function-level target
//                   attribute, so the binary still runs on pre-SSE4.2
//                   machines.
//
// Crc32c() is the dispatched entry point every caller uses: the SSE4.2
// kernel when the CPU has it (detected once, cached), otherwise the table
// loop. Cross-kernel equivalence is checked by tests/crc32c_test.cc;
// throughput of both is measured by bench_curve_ops into
// BENCH_curve_ops.json.

#ifndef ONION_STORAGE_CRC32C_H_
#define ONION_STORAGE_CRC32C_H_

#include <cstddef>
#include <cstdint>

namespace onion::storage {

/// True when the running CPU executes the SSE4.2 `crc32` instruction
/// (checked once via CPUID, cached). Always false on non-x86-64 builds.
bool HasSse42();

/// CRC of [data, data + n), starting from `crc` (pass 0 for a fresh sum;
/// feed a previous result to extend it over concatenated buffers).
uint32_t Crc32c(uint32_t crc, const uint8_t* data, size_t n);

/// The table-driven reference kernel: same contract and same result as
/// Crc32c(), one table lookup per byte.
uint32_t Crc32cPortable(uint32_t crc, const uint8_t* data, size_t n);

inline uint32_t Crc32c(const uint8_t* data, size_t n) {
  return Crc32c(0, data, n);
}

}  // namespace onion::storage

#endif  // ONION_STORAGE_CRC32C_H_
