// The segment page encoding.
//
// A page of sorted (key, payload, seq) entries is stored raw: count * 24
// bytes — u64 key, u64 payload, u64 packed seq (see page_source.h) per
// entry, little-endian, no padding. segment.{h,cc} appends a CRC32C over
// these bytes; every layer above the segment (buffer pool, cursors,
// compaction) only ever sees decoded entries.
//
// The segment header and the table MANIFEST name the encoding (codec id 0,
// "codec raw"); any other id or name is refused at open.

#ifndef ONION_STORAGE_PAGE_CODEC_H_
#define ONION_STORAGE_PAGE_CODEC_H_

#include <cstdint>
#include <vector>

#include "storage/page_source.h"

namespace onion::storage {

/// Segment header `codec_id` of the raw encoding — the only one that opens.
inline constexpr uint32_t kRawPageCodecId = 0;
/// MANIFEST `codec` name of the raw encoding — the only one that opens.
inline constexpr char kRawPageCodecName[] = "raw";

/// Appends the raw encoding of `entries` to `*out`.
void EncodePage(const std::vector<Entry>& entries, std::vector<uint8_t>* out);

/// Decodes exactly `count` entries from `[data, data + size)` into `*out`
/// (replacing its contents). Returns false unless `size == count * 24`.
bool DecodePage(const uint8_t* data, size_t size, uint64_t count,
                std::vector<Entry>* out);

}  // namespace onion::storage

#endif  // ONION_STORAGE_PAGE_CODEC_H_
