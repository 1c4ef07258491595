#include "storage/page_codec.h"

#include "storage/codec.h"

namespace onion::storage {

void EncodePage(const std::vector<Entry>& entries, std::vector<uint8_t>* out) {
  const size_t base = out->size();
  out->resize(base + entries.size() * kEntryBytesV3);
  for (size_t i = 0; i < entries.size(); ++i) {
    uint8_t* at = out->data() + base + i * kEntryBytesV3;
    PutU64(at, entries[i].key);
    PutU64(at + 8, entries[i].payload);
    PutU64(at + 16, entries[i].seq);
  }
}

bool DecodePage(const uint8_t* data, size_t size, uint64_t count,
                std::vector<Entry>* out) {
  out->clear();
  if (size != count * kEntryBytesV3) return false;
  out->reserve(count);
  for (uint64_t i = 0; i < count; ++i) {
    const uint8_t* at = data + i * kEntryBytesV3;
    out->push_back(Entry{GetU64(at), GetU64(at + 8), GetU64(at + 16)});
  }
  return true;
}

}  // namespace onion::storage
