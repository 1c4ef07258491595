#include "storage/segment.h"

#include <cstring>

#include "common/macros.h"
#include "sfc/curve.h"
#include "storage/codec.h"
#include "storage/crc32c.h"
#include "storage/fs_util.h"
#include "storage/page_codec.h"

namespace onion::storage {
namespace {

constexpr char kMagic[8] = {'O', 'S', 'F', 'C', 'S', 'E', 'G', '1'};
constexpr uint32_t kFormatVersion = 3;     // what SegmentWriter emits
constexpr uint64_t kHeaderBytesV2 = 96;    // the header layout since v2
constexpr uint64_t kPageIndexRecordBytes = 32;
/// Trailing CRC32C of every page's encoded bytes.
constexpr uint64_t kPageCrcBytes = 4;
/// Bytes one page contributes to the zone-map block: (lo, hi) u32 per dim.
constexpr uint64_t kZoneBytesPerDim = 8;

uint64_t HeaderChecksum(uint32_t version, uint32_t entries_per_page,
                        uint64_t num_entries, uint64_t num_pages,
                        uint64_t min_key, uint64_t max_key,
                        uint64_t index_offset, uint32_t codec_id,
                        uint32_t filter_bits, uint64_t filter_offset,
                        uint64_t filter_bytes, uint32_t zone_dims) {
  // xor-fold with distinct rotations so field swaps change the sum.
  uint64_t sum = 0x0410105fc5e671ULL;  // salt
  sum ^= Rotl64(static_cast<uint64_t>(version) << 32 | entries_per_page, 1);
  sum ^= Rotl64(num_entries, 7);
  sum ^= Rotl64(num_pages, 13);
  sum ^= Rotl64(min_key, 19);
  sum ^= Rotl64(max_key, 29);
  sum ^= Rotl64(index_offset, 37);
  sum ^= Rotl64(static_cast<uint64_t>(codec_id) << 32 | filter_bits, 43);
  sum ^= Rotl64(filter_offset, 47);
  sum ^= Rotl64(filter_bytes, 53);
  sum ^= Rotl64(zone_dims, 59);
  return sum;
}

Status IoError(const std::string& path, const char* what) {
  return Status::Internal(std::string(what) + ": " + path);
}

Status CorruptError(const std::string& path, const char* what) {
  return Status::InvalidArgument(std::string(what) + ": " + path);
}

/// 64-bit-safe absolute seek (plain fseek takes a long, which is 32 bits on
/// some platforms — segments can exceed 2 GiB).
bool SeekTo(std::FILE* file, uint64_t offset) {
#if defined(_WIN32)
  return _fseeki64(file, static_cast<long long>(offset), SEEK_SET) == 0;
#else
  return ::fseeko(file, static_cast<off_t>(offset), SEEK_SET) == 0;
#endif
}

}  // namespace

// ---------------------------------------------------------------------------
// SegmentWriter

SegmentWriter::SegmentWriter(std::string path, uint32_t entries_per_page)
    : SegmentWriter(std::move(path),
                    SegmentWriterOptions{entries_per_page,
                                         /*filter_bits_per_key=*/10,
                                         /*curve=*/nullptr}) {}

SegmentWriter::SegmentWriter(std::string path,
                             const SegmentWriterOptions& options)
    : path_(std::move(path)),
      options_(options),
      bloom_(options.filter_bits_per_key) {
  ONION_CHECK_MSG(options_.entries_per_page >= 1,
                  "page size must be positive");
  file_ = std::fopen(path_.c_str(), "wb");
  if (file_ == nullptr) {
    status_ = IoError(path_, "cannot create segment file");
    return;
  }
  // Header placeholder, overwritten by Finish().
  const std::vector<uint8_t> zeros(kHeaderBytesV2, 0);
  if (std::fwrite(zeros.data(), 1, zeros.size(), file_) != zeros.size()) {
    status_ = IoError(path_, "write failed");
  }
  next_offset_ = kHeaderBytesV2;
  page_buf_.reserve(options_.entries_per_page);
}

SegmentWriter::~SegmentWriter() {
  if (file_ != nullptr) {
    std::fclose(file_);
    file_ = nullptr;
  }
  if (!finished_) std::remove(path_.c_str());
}

Status SegmentWriter::WritePage() {
  std::vector<uint8_t> bytes;
  EncodePage(page_buf_, &bytes);
  // Per-page block checksum: decoders verify it before touching the
  // encoding, so a flipped bit surfaces as Status::Corruption instead of
  // silently wrong entries.
  const uint32_t crc = Crc32c(bytes.data(), bytes.size());
  bytes.resize(bytes.size() + kPageCrcBytes);
  PutU32(bytes.data() + bytes.size() - kPageCrcBytes, crc);
  if (std::fwrite(bytes.data(), 1, bytes.size(), file_) != bytes.size()) {
    return IoError(path_, "write failed");
  }
  PageMeta meta;
  meta.offset = next_offset_;
  meta.bytes = bytes.size();
  meta.first_key = page_buf_.front().key;
  meta.last_key = page_buf_.back().key;
  if (options_.curve != nullptr) {
    const int dims = options_.curve->universe().dims();
    for (size_t i = 0; i < page_buf_.size(); ++i) {
      const Cell cell = options_.curve->CellAt(page_buf_[i].key);
      for (int d = 0; d < dims; ++d) {
        if (i == 0 || cell[d] < meta.cell_lo[static_cast<size_t>(d)]) {
          meta.cell_lo[static_cast<size_t>(d)] = cell[d];
        }
        if (i == 0 || cell[d] > meta.cell_hi[static_cast<size_t>(d)]) {
          meta.cell_hi[static_cast<size_t>(d)] = cell[d];
        }
      }
    }
  }
  next_offset_ += meta.bytes;
  pages_.push_back(meta);
  page_buf_.clear();
  return Status::OK();
}

Status SegmentWriter::Add(Key key, uint64_t payload, uint64_t seq) {
  if (!status_.ok()) return status_;
  ONION_CHECK_MSG(!finished_, "Add after Finish");
  ONION_CHECK_MSG(num_entries_ == 0 || key >= last_key_,
                  "segment entries must be added in sorted key order");
  if (num_entries_ == 0) min_key_ = key;
  max_key_ = key;
  last_key_ = key;
  ++num_entries_;
  bloom_.AddKey(key);
  page_buf_.push_back(Entry{key, payload, seq});
  if (page_buf_.size() == options_.entries_per_page) status_ = WritePage();
  return status_;
}

Status SegmentWriter::Finish() {
  if (!status_.ok()) return status_;
  ONION_CHECK_MSG(!finished_, "Finish called twice");
  if (!page_buf_.empty()) {
    status_ = WritePage();
    if (!status_.ok()) return status_;
  }
  const uint64_t num_pages = pages_.size();

  // Footer block 1: the bloom filter (may be empty).
  const std::vector<uint8_t> filter = bloom_.Finish();
  const uint64_t filter_offset = filter.empty() ? 0 : next_offset_;
  if (!filter.empty() &&
      std::fwrite(filter.data(), 1, filter.size(), file_) != filter.size()) {
    return status_ = IoError(path_, "write failed");
  }

  // Footer block 2: zone maps, page-major, (lo, hi) u32 per dimension.
  const uint32_t zone_dims =
      options_.curve != nullptr && num_pages > 0
          ? static_cast<uint32_t>(options_.curve->universe().dims())
          : 0;
  if (zone_dims > 0) {
    std::vector<uint8_t> zone_bytes(num_pages * zone_dims * kZoneBytesPerDim);
    for (uint64_t i = 0; i < num_pages; ++i) {
      uint8_t* record = &zone_bytes[i * zone_dims * kZoneBytesPerDim];
      for (uint32_t d = 0; d < zone_dims; ++d) {
        PutU32(record + d * 8, pages_[i].cell_lo[d]);
        PutU32(record + d * 8 + 4, pages_[i].cell_hi[d]);
      }
    }
    if (std::fwrite(zone_bytes.data(), 1, zone_bytes.size(), file_) !=
        zone_bytes.size()) {
      return status_ = IoError(path_, "write failed");
    }
  }

  // Footer block 3: the page index.
  const uint64_t index_offset = next_offset_ + filter.size() +
                                num_pages * zone_dims * kZoneBytesPerDim;
  std::vector<uint8_t> index_bytes(num_pages * kPageIndexRecordBytes);
  for (uint64_t i = 0; i < num_pages; ++i) {
    uint8_t* record = &index_bytes[i * kPageIndexRecordBytes];
    PutU64(record, pages_[i].offset);
    PutU64(record + 8, pages_[i].bytes);
    PutU64(record + 16, pages_[i].first_key);
    PutU64(record + 24, pages_[i].last_key);
  }
  if (!index_bytes.empty() &&
      std::fwrite(index_bytes.data(), 1, index_bytes.size(), file_) !=
          index_bytes.size()) {
    return status_ = IoError(path_, "write failed");
  }

  uint8_t header[kHeaderBytesV2] = {};
  std::memcpy(header, kMagic, sizeof(kMagic));
  PutU32(header + 8, kFormatVersion);
  PutU32(header + 12, options_.entries_per_page);
  PutU64(header + 16, num_entries_);
  PutU64(header + 24, num_pages);
  PutU64(header + 32, min_key_);
  PutU64(header + 40, max_key_);
  PutU64(header + 48, index_offset);
  PutU32(header + 56, kRawPageCodecId);
  PutU32(header + 60, options_.filter_bits_per_key);
  PutU64(header + 64, filter_offset);
  PutU64(header + 72, filter.size());
  PutU32(header + 80, zone_dims);
  PutU32(header + 84, 0);  // reserved
  PutU64(header + 88,
         HeaderChecksum(kFormatVersion, options_.entries_per_page,
                        num_entries_, num_pages, min_key_, max_key_,
                        index_offset, kRawPageCodecId,
                        options_.filter_bits_per_key,
                        filter_offset, filter.size(), zone_dims));
  if (!SeekTo(file_, 0) ||
      std::fwrite(header, 1, kHeaderBytesV2, file_) != kHeaderBytesV2) {
    return status_ = IoError(path_, "write failed");
  }
  // Durability before publication: fsync the data, then the directory
  // entry, BEFORE the caller may reference this segment from a MANIFEST.
  // Without the second sync a crash could durably install a manifest whose
  // directory never durably contained the segment it names.
  status_ = SyncFile(file_, path_);
  if (!status_.ok()) return status_;
  status_ = SyncDir(DirOf(path_));
  if (!status_.ok()) return status_;
  std::fclose(file_);
  file_ = nullptr;
  finished_ = true;
  return Status::OK();
}

// ---------------------------------------------------------------------------
// SegmentReader

SegmentReader::SegmentReader(std::string path, std::FILE* file)
    : path_(std::move(path)), file_(file) {}

SegmentReader::~SegmentReader() {
  if (file_ != nullptr) std::fclose(file_);
}

Result<std::unique_ptr<SegmentReader>> SegmentReader::Open(std::string path) {
  std::FILE* file = std::fopen(path.c_str(), "rb");
  if (file == nullptr) {
    return Status::NotFound("cannot open segment file: " + path);
  }
  std::unique_ptr<SegmentReader> reader(
      new SegmentReader(std::move(path), file));

  uint8_t header[kHeaderBytesV2];
  if (std::fread(header, 1, kHeaderBytesV2, file) != kHeaderBytesV2) {
    return CorruptError(reader->path_, "segment too short");
  }
  if (std::memcmp(header, kMagic, sizeof(kMagic)) != 0) {
    return CorruptError(reader->path_, "bad segment magic");
  }
  const uint32_t version = GetU32(header + 8);
  if (version != kFormatVersion) {
    return Status::InvalidArgument(
        "unsupported segment format version " + std::to_string(version) +
        " (this build reads version " + std::to_string(kFormatVersion) +
        "): " + reader->path_);
  }
  const Status status = reader->Load(header);
  if (!status.ok()) return status;
  return reader;
}

Status SegmentReader::Load(const uint8_t* header) {
  entries_per_page_ = GetU32(header + 12);
  num_entries_ = GetU64(header + 16);
  const uint64_t num_pages = GetU64(header + 24);
  min_key_ = GetU64(header + 32);
  max_key_ = GetU64(header + 40);
  const uint64_t index_offset = GetU64(header + 48);
  const uint32_t codec_id = GetU32(header + 56);
  const uint32_t filter_bits = GetU32(header + 60);
  const uint64_t filter_offset = GetU64(header + 64);
  const uint64_t filter_bytes = GetU64(header + 72);
  zone_dims_ = GetU32(header + 80);
  const uint64_t checksum = GetU64(header + 88);
  if (entries_per_page_ < 1) {
    return CorruptError(path_, "segment page size is zero");
  }
  if (codec_id != kRawPageCodecId) {
    return Status::InvalidArgument("unsupported segment page codec id " +
                                   std::to_string(codec_id) + ": " + path_);
  }
  if (checksum != HeaderChecksum(kFormatVersion, entries_per_page_,
                                 num_entries_, num_pages, min_key_, max_key_,
                                 index_offset, codec_id, filter_bits,
                                 filter_offset, filter_bytes, zone_dims_)) {
    return CorruptError(path_, "segment header checksum mismatch");
  }
  const uint64_t expected_pages =
      (num_entries_ + entries_per_page_ - 1) / entries_per_page_;
  if (num_pages != expected_pages || zone_dims_ > kMaxDims ||
      (filter_bytes == 0) != (filter_offset == 0) ||
      filter_bytes % kBloomBlockBytes != 0) {
    return CorruptError(path_, "segment geometry corrupt");
  }

  std::vector<uint8_t> index_bytes(num_pages * kPageIndexRecordBytes);
  if (!SeekTo(file_, index_offset) ||
      (!index_bytes.empty() &&
       std::fread(index_bytes.data(), 1, index_bytes.size(), file_) !=
           index_bytes.size())) {
    return CorruptError(path_, "segment page index truncated");
  }
  pages_.reserve(num_pages);
  uint64_t expected_offset = kHeaderBytesV2;
  for (uint64_t i = 0; i < num_pages; ++i) {
    const uint8_t* record = &index_bytes[i * kPageIndexRecordBytes];
    PageMeta meta;
    meta.offset = GetU64(record);
    meta.bytes = GetU64(record + 8);
    meta.first_key = GetU64(record + 16);
    meta.last_key = GetU64(record + 24);
    // Pages are written back to back, so the index offsets are fully
    // determined — any deviation is corruption.
    if (meta.offset != expected_offset || meta.bytes == 0) {
      return CorruptError(path_, "segment page index not contiguous");
    }
    expected_offset += meta.bytes;
    if (meta.first_key > meta.last_key ||
        (i > 0 && meta.first_key < pages_.back().last_key)) {
      return CorruptError(path_, "segment fence index not sorted");
    }
    pages_.push_back(meta);
  }
  const uint64_t data_end = expected_offset;
  if (filter_bytes > 0 && filter_offset != data_end) {
    return CorruptError(path_, "segment filter block misplaced");
  }
  const uint64_t zone_offset = data_end + filter_bytes;
  const uint64_t zone_bytes = num_pages * zone_dims_ * kZoneBytesPerDim;
  if (index_offset != zone_offset + zone_bytes) {
    return CorruptError(path_, "segment footer geometry corrupt");
  }

  if (filter_bytes > 0) {
    filter_.resize(filter_bytes);
    if (!SeekTo(file_, filter_offset) ||
        std::fread(filter_.data(), 1, filter_.size(), file_) !=
            filter_.size()) {
      return CorruptError(path_, "segment filter block truncated");
    }
  }
  if (zone_bytes > 0) {
    std::vector<uint8_t> raw(zone_bytes);
    if (!SeekTo(file_, zone_offset) ||
        std::fread(raw.data(), 1, raw.size(), file_) != raw.size()) {
      return CorruptError(path_, "segment zone maps truncated");
    }
    zones_.resize(num_pages * zone_dims_ * 2);
    for (size_t i = 0; i < zones_.size(); ++i) {
      zones_[i] = GetU32(&raw[i * 4]);
    }
  }
  file_bytes_ = index_offset + num_pages * kPageIndexRecordBytes;
  return Status::OK();
}

uint32_t SegmentReader::format_version() const { return kFormatVersion; }

Status SegmentReader::ReadPage(uint64_t page, std::vector<Entry>* out) const {
  ONION_CHECK_MSG(page < num_pages(), "page out of range");
  const PageMeta& meta = pages_[page];
  std::vector<uint8_t> bytes(meta.bytes);
  {
    // The seek+read pair must be atomic: concurrent readers (queries
    // through the buffer pool, a background compaction cursor) share file_.
    const MutexLock lock(io_mu_);
    if (!SeekTo(file_, meta.offset) ||
        std::fread(bytes.data(), 1, bytes.size(), file_) != bytes.size()) {
      return Status::Corruption("segment page read truncated: page " +
                                std::to_string(page) + " of " + path_);
    }
  }
  return DecodePageBytes(page, bytes.data(), bytes.size(), out);
}

Status SegmentReader::DecodePageBytes(uint64_t page, const uint8_t* data,
                                      size_t size,
                                      std::vector<Entry>* out) const {
  // Pages end in a CRC32C over the encoded bytes; verify before decoding
  // so a flipped bit can never produce silently wrong entries.
  if (size < kPageCrcBytes) {
    return Status::Corruption("segment page shorter than its checksum: " +
                              path_);
  }
  const size_t encoded_size = size - kPageCrcBytes;
  const uint32_t stored = GetU32(data + encoded_size);
  if (stored != Crc32c(data, encoded_size)) {
    return Status::Corruption("segment page checksum mismatch: page " +
                              std::to_string(page) + " of " + path_);
  }
  const uint64_t count = PageEnd(page) - PageBegin(page);
  if (!DecodePage(data, encoded_size, count, out)) {
    return Status::Corruption("segment page decode failed: page " +
                              std::to_string(page) + " of " + path_);
  }
  return Status::OK();
}

Status SegmentReader::ReadPages(uint64_t first_page, uint64_t count,
                                std::vector<std::vector<Entry>>* out) const {
  ONION_CHECK_MSG(count > 0 && first_page < num_pages() &&
                      count <= num_pages() - first_page,
                  "page run out of range");
  // Load() verified that pages lie back to back, so a run of pages is
  // one contiguous byte span.
  const uint64_t base = pages_[first_page].offset;
  out->clear();
  out->resize(count);
#if defined(ONION_HAVE_PREADV)
  // One positioned vectored read for the whole run, scattered straight
  // into one buffer per page. preadv never touches the descriptor's file
  // offset, so — unlike the seek+fread pairs above — this path runs
  // WITHOUT io_mu_ and never serializes against concurrent page reads.
  std::vector<std::vector<uint8_t>> buffers(count);
  std::vector<struct iovec> iov(count);
  for (uint64_t i = 0; i < count; ++i) {
    buffers[i].resize(pages_[first_page + i].bytes);
    iov[i].iov_base = buffers[i].data();
    iov[i].iov_len = buffers[i].size();
  }
  // The stdio stream may still hold buffered state from open-time header
  // reads; positioned reads bypass it, which is fine because segments are
  // immutable once opened.
  const Status read_status = PreadvFull(::fileno(file_), base, iov.data(),
                                        iov.size(), path_);
  if (!read_status.ok()) {
    return Status::Corruption("segment batched page read truncated: pages " +
                              std::to_string(first_page) + "+" +
                              std::to_string(count) + " of " + path_ + " (" +
                              read_status.message() + ")");
  }
  for (uint64_t i = 0; i < count; ++i) {
    const uint64_t page = first_page + i;
    // Per the PageSource contract a page that fails validation leaves an
    // empty slot; the demanding caller re-reads it alone for the error.
    if (!DecodePageBytes(page, buffers[i].data(), buffers[i].size(),
                         &(*out)[i])
             .ok()) {
      (*out)[i].clear();
    }
  }
#else
  const uint64_t span = pages_[first_page + count - 1].offset +
                        pages_[first_page + count - 1].bytes - base;
  std::vector<uint8_t> bytes(span);
  {
    // One seek + one transfer for the whole run; this is the entire point
    // of the batched path.
    const MutexLock lock(io_mu_);
    if (!SeekTo(file_, base) ||
        std::fread(bytes.data(), 1, bytes.size(), file_) != bytes.size()) {
      return Status::Corruption(
          "segment batched page read truncated: pages " +
          std::to_string(first_page) + "+" + std::to_string(count) + " of " +
          path_);
    }
  }
  uint64_t at = 0;
  for (uint64_t i = 0; i < count; ++i) {
    const uint64_t page = first_page + i;
    // Per the PageSource contract a page that fails validation leaves an
    // empty slot; the demanding caller re-reads it alone for the error.
    if (!DecodePageBytes(page, bytes.data() + at, pages_[page].bytes,
                         &(*out)[i])
             .ok()) {
      (*out)[i].clear();
    }
    at += pages_[page].bytes;
  }
#endif
  return Status::OK();
}

bool SegmentReader::PageMayIntersect(uint64_t page, const Box& box) const {
  ONION_CHECK_MSG(page < num_pages(), "page out of range");
  if (zone_dims_ == 0) return true;
  if (box.dims() != static_cast<int>(zone_dims_)) return true;
  const Coord* record = &zones_[page * zone_dims_ * 2];
  for (uint32_t d = 0; d < zone_dims_; ++d) {
    const int axis = static_cast<int>(d);
    if (record[2 * d] > box.hi[axis] || record[2 * d + 1] < box.lo[axis]) {
      return false;
    }
  }
  return true;
}

}  // namespace onion::storage
