// The in-memory PageSource backend: a sorted std::vector of entries packed
// into logical pages. This is the original "simulated disk", now one
// interchangeable backend of the storage engine — useful for tests, for
// modeling layouts before persisting them, and as the reference
// implementation the file-backed SegmentReader must agree with.

#ifndef ONION_STORAGE_MEM_SOURCE_H_
#define ONION_STORAGE_MEM_SOURCE_H_

#include <cstdint>
#include <vector>

#include "storage/page_source.h"

namespace onion::storage {

class MemPageSource : public PageSource {
 public:
  /// Builds a source from entries sorted by key (checked) packed into pages
  /// of `entries_per_page` entries.
  MemPageSource(std::vector<Entry> entries, uint32_t entries_per_page);

  uint64_t num_entries() const override { return entries_.size(); }
  uint32_t entries_per_page() const override { return entries_per_page_; }
  Key first_key(uint64_t page) const override {
    return entries_[PageBegin(page)].key;
  }
  Key last_key(uint64_t page) const override {
    return entries_[PageEnd(page) - 1].key;
  }
  Status ReadPage(uint64_t page, std::vector<Entry>* out) const override;

  /// Direct entry access (memory-resident data only; disk-backed sources
  /// intentionally have no equivalent).
  const Entry& entry(uint64_t index) const { return entries_[index]; }

 private:
  std::vector<Entry> entries_;
  uint32_t entries_per_page_;
};

}  // namespace onion::storage

#endif  // ONION_STORAGE_MEM_SOURCE_H_
