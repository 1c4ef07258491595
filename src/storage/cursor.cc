#include "storage/cursor.h"

#include <algorithm>
#include <utility>

#include "analysis/clustering.h"
#include "common/macros.h"
#include "obs/metrics.h"
#include "sfc/curve.h"
#include "storage/buffer_pool.h"
#include "storage/segment.h"
#include "storage/sfc_table.h"

namespace onion {

std::vector<SpatialEntry> DrainCursor(Cursor* cursor) {
  std::vector<SpatialEntry> out;
  for (; cursor->Valid(); cursor->Next()) out.push_back(cursor->entry());
  return out;
}

namespace {

/// Iterates an eagerly-materialized result vector; `limit` is the only
/// ReadOptions bound that applies (there are no pages to budget).
class VectorCursor final : public Cursor {
 public:
  VectorCursor(std::vector<SpatialEntry> entries, const ReadOptions& options)
      : entries_(std::move(entries)), limit_(options.limit) {}

  bool Valid() const override {
    return pos_ < entries_.size() && (limit_ == 0 || pos_ < limit_);
  }
  void Next() override {
    ONION_CHECK(Valid());
    ++pos_;
  }
  const SpatialEntry& entry() const override {
    ONION_CHECK(Valid());
    return entries_[pos_];
  }
  Status status() const override { return Status::OK(); }
  bool hit_read_budget() const override {
    return limit_ != 0 && pos_ >= limit_ && pos_ < entries_.size();
  }

 private:
  const std::vector<SpatialEntry> entries_;
  const uint64_t limit_;
  size_t pos_ = 0;
};

/// Invalid from birth; carries the error that prevented iteration.
class ErrorCursor final : public Cursor {
 public:
  explicit ErrorCursor(Status status) : status_(std::move(status)) {
    ONION_CHECK_MSG(!status_.ok(), "error cursor needs a non-OK status");
  }

  bool Valid() const override { return false; }
  void Next() override { ONION_CHECK_MSG(false, "Next() on an error cursor"); }
  const SpatialEntry& entry() const override {
    ONION_CHECK_MSG(false, "entry() on an error cursor");
    return entry_;  // unreachable
  }
  Status status() const override { return status_; }

 private:
  const Status status_;
  const SpatialEntry entry_{};
};

}  // namespace

std::unique_ptr<Cursor> NewVectorCursor(std::vector<SpatialEntry> entries,
                                        const ReadOptions& options) {
  return std::make_unique<VectorCursor>(std::move(entries), options);
}

std::unique_ptr<Cursor> NewErrorCursor(Status status) {
  return std::make_unique<ErrorCursor>(std::move(status));
}

namespace storage {
namespace {

/// The streaming k-way merge behind SfcTable::NewBoxCursor/NewScanCursor.
///
/// Work proceeds range by range (ranges are sorted and disjoint, so
/// concatenating per-range merges yields global key order). Within a range
/// the merge sources are: the memtable snapshot (one source), every
/// overlapping L0 run (one source each — L0 runs may overlap each other),
/// and per deeper level the contiguous run of disjoint segments the range
/// spans (one source per level, advancing segment to segment). Pages are
/// fetched one at a time through the buffer pool, so stopping the cursor
/// early really does skip the remaining I/O.
///
/// MVCC: the merge works one key-group at a time. All versions of the
/// smallest pending key are drained from every source, entries above the
/// read sequence (ReadOptions::snapshot) are dropped, and the surviving
/// puts are those newer than the newest visible tombstone of the key —
/// Delete hides every older version, a later Put resurrects the key.
class SnapshotCursor final : public KeyedCursor {
 public:
  SnapshotCursor(const SpaceFillingCurve* curve, std::vector<KeyRange> ranges,
                 const Box* query_box, std::vector<Entry> memtable_entries,
                 SegmentSnapshot segments, std::shared_ptr<BufferPool> pool,
                 AtomicIoStats* io_stats, const ReadOptions& options,
                 const QueryMetrics& query_metrics)
      : curve_(curve),
        ranges_(std::move(ranges)),
        has_box_(query_box != nullptr),
        box_(query_box != nullptr ? *query_box : Box{}),
        mem_(std::move(memtable_entries)),
        snapshot_(std::move(segments)),
        pool_(std::move(pool)),
        io_stats_(io_stats),
        options_(options),
        query_metrics_(query_metrics),
        visible_seq_(options.snapshot != nullptr ? options.snapshot->sequence
                                                 : kMaxSequence) {
    if (!ranges_.empty() && BeginRange()) FindNext();
    if (!valid_) FlushEntriesRead();
  }

  ~SnapshotCursor() override {
    // Once per query, never per entry: the decomposition's range count
    // (the clustering number) and the pages this cursor fetched.
    if (query_metrics_.ranges != nullptr) {
      query_metrics_.ranges->Record(ranges_.size());
    }
    if (query_metrics_.pages != nullptr) {
      query_metrics_.pages->Record(pages_touched_);
    }
    // A cursor abandoned while still valid has not credited its entries
    // yet. Pool-global zone-map skips are batched here (per-table
    // attribution went to io_stats_ immediately); the pool outlives the
    // cursor by contract.
    FlushEntriesRead();
    if (pool_ != nullptr && pending_filter_skips_ > 0) {
      pool_->AddFilterSkips(pending_filter_skips_, nullptr);
    }
  }

  bool Valid() const override { return valid_; }

  void Next() override {
    ONION_CHECK_MSG(valid_, "Next() on an invalid cursor");
    valid_ = false;
    FindNext();
    if (!valid_) FlushEntriesRead();
  }

  const SpatialEntry& entry() const override {
    ONION_CHECK_MSG(valid_, "entry() on an invalid cursor");
    return current_;
  }

  Key key() const override {
    ONION_CHECK_MSG(valid_, "key() on an invalid cursor");
    return current_key_;
  }

  Status status() const override { return status_; }
  bool hit_read_budget() const override { return budget_hit_; }
  uint64_t pages_skipped_by_filter() const override { return skipped_; }

 private:
  /// One merge source of the current range. Either the memtable snapshot
  /// (is_mem, pos indexes mem_) or a chain of segments scanned in order
  /// (a single L0 run, or a level's contiguous overlapping group).
  struct Source {
    std::vector<const SegmentReader*> chain;
    size_t chain_idx = 0;
    std::shared_ptr<const std::vector<Entry>> page;
    uint64_t page_no = 0;
    size_t pos = 0;  // index into *page, or into mem_ for the mem source
    Entry head{};
    bool valid = false;
    bool is_mem = false;
  };

  /// One version of the current key-group, tagged with its origin so
  /// delivered entries from segments (not the memtable) count as
  /// entries_read.
  struct GroupEntry {
    Entry entry;
    bool from_mem = false;
  };

  /// Credits the segment entries delivered so far to the table and the
  /// pool in one call. Runs when the cursor stops being valid (so a
  /// drained cursor's count is visible while it is still alive) and
  /// again from the destructor for an abandoned cursor's remainder.
  void FlushEntriesRead() {
    if (pool_ == nullptr || pending_entries_read_ == 0) return;
    pool_->AddEntriesRead(pending_entries_read_, io_stats_);
    pending_entries_read_ = 0;
  }

  /// Counts one page fetch avoided by a zone-map check: locally (for the
  /// accessor), per-table (io_stats_, immediate), and pool-global
  /// (batched in the destructor).
  void CountZoneSkip() {
    ++skipped_;
    ++pending_filter_skips_;
    if (io_stats_ != nullptr) {
      io_stats_->pages_skipped_by_filter.fetch_add(1,
                                                   std::memory_order_relaxed);
    }
  }

  /// Zone-map test for one candidate page: true when the page can be
  /// skipped without I/O. Sound only because the ranges are an exact
  /// decomposition of box_ — a page whose cell bounding box misses the box
  /// holds no key of ANY range of this query.
  bool ZoneSkips(const SegmentReader& segment, uint64_t page_no) {
    return has_box_ && !segment.PageMayIntersect(page_no, box_);
  }

  /// Fetches one page through the pool unless a page/byte bound says stop.
  /// Returns false without fetching when a bound is reached (flags
  /// budget_hit_) or when the read fails (status_ carries the corruption
  /// error). The byte budget counts ON-DISK (encoded) page bytes, the
  /// same unit as IoStats::disk_bytes.
  bool FetchPage(const SegmentReader& segment, uint64_t page_no,
                 std::shared_ptr<const std::vector<Entry>>* out) {
    if ((options_.max_pages != 0 && pages_touched_ >= options_.max_pages) ||
        (options_.max_bytes != 0 && bytes_fetched_ >= options_.max_bytes)) {
      budget_hit_ = true;
      return false;
    }
    Status fetch_status;
    // Pass the query box through so pool readahead stops at the first
    // zone-excluded page: a page this cursor would ZoneSkip is never
    // prefetched on its behalf.
    *out = pool_->Fetch(segment, page_no, io_stats_, &fetch_status,
                        has_box_ ? &box_ : nullptr);
    if (*out == nullptr) {
      status_ = fetch_status;  // e.g. a page checksum mismatch
      return false;
    }
    ++pages_touched_;
    bytes_fetched_ += segment.PageDiskBytes(page_no);
    return true;
  }

  /// Positions `s` at its first entry with lo <= key <= hi, starting from
  /// s->chain_idx. Returns false only on a budget stop; otherwise s->valid
  /// says whether an entry was found.
  bool SeekChain(Source* s, Key lo, Key hi) {
    for (; s->chain_idx < s->chain.size(); ++s->chain_idx) {
      const SegmentReader& segment = *s->chain[s->chain_idx];
      if (segment.num_entries() == 0 || segment.max_key() < lo) continue;
      if (segment.min_key() > hi) break;  // chain ascends: nothing further
      // Point probe: one bloom test can rule out the whole segment
      // before any page is scheduled (ProbeFilter counts the skip).
      if (lo == hi && !pool_->ProbeFilter(segment, lo, io_stats_)) {
        ++skipped_;
        continue;
      }
      const uint64_t pages = segment.num_pages();
      bool past_hi = false;
      for (uint64_t page_no = segment.PageOf(lo);
           page_no < pages && segment.first_key(page_no) <= hi; ++page_no) {
        if (ZoneSkips(segment, page_no)) {
          CountZoneSkip();
          continue;
        }
        if (!FetchPage(segment, page_no, &s->page)) return false;
        const auto& data = *s->page;
        const size_t pos = static_cast<size_t>(
            std::lower_bound(data.begin(), data.end(), lo,
                             [](const Entry& e, Key k) { return e.key < k; }) -
            data.begin());
        if (pos == data.size()) continue;  // whole page below lo
        if (data[pos].key > hi) {
          past_hi = true;  // rest of this segment (and the chain) is past hi
          break;
        }
        s->page_no = page_no;
        s->pos = pos;
        s->head = data[pos];
        s->valid = true;
        return true;
      }
      if (past_hi) break;
    }
    s->valid = false;
    return true;
  }

  /// Steps `s` past its current head, staying within key <= hi. Returns
  /// false only on a budget stop.
  bool AdvanceSource(Source* s, Key hi) {
    if (s->is_mem) {
      ++s->pos;
      if (s->pos < mem_.size() && mem_[s->pos].key <= hi) {
        s->head = mem_[s->pos];
      } else {
        s->valid = false;
      }
      return true;
    }
    ++s->pos;
    if (s->pos < s->page->size()) {
      const Entry& e = (*s->page)[s->pos];
      if (e.key <= hi) {
        s->head = e;
        return true;
      }
      s->valid = false;
      return true;
    }
    const SegmentReader& segment = *s->chain[s->chain_idx];
    ++s->page_no;
    // Zone maps may rule out whole pages between here and the next page
    // that can actually contribute — skipped pages cost no I/O.
    while (s->page_no < segment.num_pages() &&
           segment.first_key(s->page_no) <= hi &&
           ZoneSkips(segment, s->page_no)) {
      CountZoneSkip();
      ++s->page_no;
    }
    if (s->page_no < segment.num_pages() &&
        segment.first_key(s->page_no) <= hi) {
      if (!FetchPage(segment, s->page_no, &s->page)) return false;
      s->pos = 0;
      s->head = (*s->page)[0];  // first_key <= hi, and pages are non-empty
      return true;
    }
    // Segment exhausted for this range; the next chain segment (if any)
    // starts strictly above every key consumed so far.
    ++s->chain_idx;
    return SeekChain(s, s->head.key, hi);
  }

  /// Builds the merge sources of ranges_[range_idx_]. Returns false only
  /// on a budget stop.
  bool BeginRange() {
    sources_.clear();
    const KeyRange& range = ranges_[range_idx_];
    if (!mem_.empty()) {
      Source s;
      s.is_mem = true;
      s.pos = static_cast<size_t>(
          std::lower_bound(mem_.begin(), mem_.end(), range.lo,
                           [](const Entry& e, Key k) { return e.key < k; }) -
          mem_.begin());
      if (s.pos < mem_.size() && mem_[s.pos].key <= range.hi) {
        s.head = mem_[s.pos];
        s.valid = true;
        sources_.push_back(std::move(s));
      }
    }
    for (const auto& segment : snapshot_.l0) {
      if (segment->num_entries() == 0 || range.hi < segment->min_key() ||
          range.lo > segment->max_key()) {
        continue;
      }
      Source s;
      s.chain = {segment.get()};
      if (!SeekChain(&s, range.lo, range.hi)) return false;
      if (s.valid) sources_.push_back(std::move(s));
    }
    for (const auto& level : snapshot_.levels) {
      // Disjoint sorted level: binary search to the first segment that can
      // overlap, then take the contiguous overlapping run as one chain.
      auto it = std::lower_bound(
          level.begin(), level.end(), range.lo,
          [](const std::shared_ptr<SegmentReader>& segment, Key lo) {
            return segment->max_key() < lo;
          });
      Source s;
      for (; it != level.end() && (*it)->min_key() <= range.hi; ++it) {
        s.chain.push_back(it->get());
      }
      if (s.chain.empty()) continue;
      if (!SeekChain(&s, range.lo, range.hi)) return false;
      if (s.valid) sources_.push_back(std::move(s));
    }
    return true;
  }

  /// Drains every version of the smallest pending key into group_ and
  /// resolves MVCC visibility: versions above the read sequence are
  /// invisible, and visible puts survive only when newer than the newest
  /// visible tombstone of the key. Survivors are ordered by (payload,
  /// seq) for deterministic equal-key delivery. Returns false when the
  /// current range has no further key, or on a budget/error stop
  /// (budget_hit_ / status_ say which).
  bool BuildNextGroup() {
    group_.clear();
    group_pos_ = 0;
    int first = -1;
    for (size_t i = 0; i < sources_.size(); ++i) {
      if (!sources_[i].valid) continue;
      if (first < 0 || sources_[i].head.key < sources_[first].head.key) {
        first = static_cast<int>(i);
      }
    }
    if (first < 0) return false;  // range exhausted
    const Key group_key = sources_[static_cast<size_t>(first)].head.key;
    const Key hi = ranges_[range_idx_].hi;
    raw_.clear();
    for (Source& source : sources_) {
      while (source.valid && source.head.key == group_key) {
        raw_.push_back(GroupEntry{source.head, source.is_mem});
        if (!AdvanceSource(&source, hi)) return false;  // budget/error stop
      }
    }
    uint64_t max_tombstone = 0;
    bool has_tombstone = false;
    for (const GroupEntry& e : raw_) {
      if (SequenceOf(e.entry.seq) > visible_seq_) continue;
      if (IsTombstone(e.entry.seq)) {
        has_tombstone = true;
        max_tombstone = std::max(max_tombstone, SequenceOf(e.entry.seq));
      }
    }
    for (const GroupEntry& e : raw_) {
      if (SequenceOf(e.entry.seq) > visible_seq_) continue;
      if (IsTombstone(e.entry.seq)) continue;
      if (has_tombstone && SequenceOf(e.entry.seq) <= max_tombstone) continue;
      group_.push_back(e);
    }
    std::sort(group_.begin(), group_.end(),
              [](const GroupEntry& a, const GroupEntry& b) {
                if (a.entry.payload != b.entry.payload) {
                  return a.entry.payload < b.entry.payload;
                }
                return a.entry.seq < b.entry.seq;
              });
    return true;
  }

  /// Establishes the next current entry (the next survivor of the current
  /// key-group, building new groups and advancing through ranges as they
  /// drain) or ends the cursor.
  void FindNext() {
    for (;;) {
      if (budget_hit_ || !status_.ok()) return;  // valid_ stays false
      if (group_pos_ < group_.size()) {
        // The limit check sits where a further entry provably exists: when
        // the data runs out exactly at the limit, the cursor ends as
        // exhausted (hit_read_budget() false), matching the contract that
        // the flag means "stopped early", not "delivered exactly limit".
        if (options_.limit != 0 && delivered_ >= options_.limit) {
          budget_hit_ = true;
          return;
        }
        const GroupEntry& e = group_[group_pos_++];
        current_key_ = e.entry.key;
        if (curve_ != nullptr) current_.cell = curve_->CellAt(current_key_);
        current_.payload = e.entry.payload;
        current_.seq = SequenceOf(e.entry.seq);
        ++delivered_;
        if (!e.from_mem) ++pending_entries_read_;
        valid_ = true;
        return;
      }
      if (BuildNextGroup()) continue;  // a group (possibly fully hidden)
      if (budget_hit_ || !status_.ok()) return;
      ++range_idx_;
      if (range_idx_ >= ranges_.size()) return;  // exhausted: clean end
      if (!BeginRange()) return;                 // budget/error mid-build
    }
  }

  const SpaceFillingCurve* const curve_;  // null: keys only, no cells
  const std::vector<KeyRange> ranges_;
  const bool has_box_;  // zone-map skipping needs the originating box
  const Box box_;
  const std::vector<Entry> mem_;  // sorted by (key, payload)
  const SegmentSnapshot snapshot_;
  const std::shared_ptr<BufferPool> pool_;
  AtomicIoStats* const io_stats_;
  const ReadOptions options_;
  const QueryMetrics query_metrics_;  // per-query sinks (either may be null)
  const uint64_t visible_seq_;  // read sequence: snapshot or "latest"

  std::vector<Source> sources_;
  std::vector<GroupEntry> raw_;    // scratch: all versions of one key
  std::vector<GroupEntry> group_;  // survivors being delivered
  size_t group_pos_ = 0;
  size_t range_idx_ = 0;
  SpatialEntry current_{};
  Key current_key_ = 0;
  bool valid_ = false;
  bool budget_hit_ = false;
  uint64_t delivered_ = 0;
  uint64_t pages_touched_ = 0;
  uint64_t bytes_fetched_ = 0;  // on-disk bytes, the max_bytes unit
  uint64_t pending_entries_read_ = 0;  // credited when the cursor stops
  uint64_t pending_filter_skips_ = 0;
  uint64_t skipped_ = 0;  // bloom + zone-map page fetches avoided
  Status status_;
};

/// See NewIndexResolveCursor in cursor.h. The inner cursor walks the
/// hidden index table in index-key order; this cursor pulls a chunk of
/// distinct index cells from it, reads their base rows with one walk over
/// the chunk's sorted, coalesced base keys, and streams each cell's rows in
/// the order the cells were pulled.
class IndexResolveCursor final : public Cursor {
 public:
  IndexResolveCursor(std::unique_ptr<Cursor> index_cursor, SfcTable* base,
                     const Snapshot* base_snapshot,
                     std::shared_ptr<const void> pin, uint64_t limit,
                     obs::Counter* dangling, obs::Counter* resolved)
      : inner_(std::move(index_cursor)),
        base_(base),
        base_snapshot_(base_snapshot),
        pin_(std::move(pin)),
        limit_(limit),
        dangling_(dangling),
        resolved_(resolved) {
    Advance();
  }

  bool Valid() const override { return valid_; }

  void Next() override {
    ONION_CHECK(Valid());
    Advance();
  }

  const SpatialEntry& entry() const override {
    ONION_CHECK(Valid());
    return current_;
  }

  Status status() const override {
    return status_.ok() ? inner_->status() : status_;
  }

  bool hit_read_budget() const override {
    return budget_hit_ || inner_->hit_read_budget();
  }

  uint64_t pages_skipped_by_filter() const override {
    return inner_->pages_skipped_by_filter();
  }

 private:
  /// The rows of one cell of the chunk: payloads_[begin, end), empty
  /// when its base row is gone.
  struct Rows {
    size_t begin = 0;
    size_t end = 0;
  };

  /// Exposes the next base row: the rest of the current cell's payloads,
  /// else the next resolved cell of the chunk, else the next chunk.
  /// Dangling cells are counted and skipped. Ends the cursor on
  /// exhaustion, error, or at the limit (a ready row is then withheld and
  /// reported as a hit budget).
  void Advance() {
    valid_ = false;
    while (row_ == row_end_) {
      if (next_cell_ == keys_.size()) {
        if (!LoadChunk()) return;
        continue;
      }
      const size_t cell = next_cell_++;
      const Rows& rows = rows_[cell];
      if (rows.begin == rows.end) {
        if (dangling_ != nullptr) dangling_->Increment();
        continue;
      }
      row_ = rows.begin;
      row_end_ = rows.end;
      current_.cell = base_->curve().CellAt(keys_[cell]);
      if (resolved_ != nullptr) resolved_->Add(row_end_ - row_);
    }
    if (limit_ != 0 && delivered_ >= limit_) {
      budget_hit_ = true;
      return;
    }
    current_.payload = payloads_[row_++];
    ++delivered_;
    valid_ = true;
  }

  /// Pulls the next chunk of distinct index cells into keys_ (their base
  /// keys, in index order) and resolves it. A limited cursor pulls no more
  /// cells than it can still deliver — at the limit, one, to learn whether
  /// a row was withheld. Returns false when nothing was resolved: the
  /// inner cursor is exhausted or failed, or the walk or the next index
  /// entry failed (status_ says which).
  bool LoadChunk() {
    keys_.clear();
    next_cell_ = 0;
    const uint64_t want =
        limit_ == 0 ? kIndexResolveChunkCells
                    : std::clamp<uint64_t>(limit_ - delivered_, 1,
                                           kIndexResolveChunkCells);
    const Key num_cells = base_->curve().num_cells();
    while (keys_.size() < want && inner_->Valid()) {
      const SpatialEntry& index_entry = inner_->entry();
      if (!have_group_ || index_entry.cell != group_cell_) {
        if (index_entry.payload >= num_cells) {
          // The cells before it are delivered first: the entry stays
          // current, so it is the first one the next chunk reads.
          if (keys_.empty()) {
            status_ = Status::Corruption(
                "index entry resolves outside the base universe (key " +
                std::to_string(index_entry.payload) + ")");
          }
          break;
        }
        group_cell_ = index_entry.cell;
        have_group_ = true;
        keys_.push_back(index_entry.payload);
      }
      inner_->Next();  // invalidates index_entry
    }
    return !keys_.empty() && Resolve();
  }

  /// Reads the base rows of keys_ with one walk at the pinned snapshot
  /// and files them per cell in rows_. Neighbouring keys share a range
  /// when fewer keys than a page holds entries lie between them: with one
  /// entry per key no whole page fits in such a gap, so the walk reads no
  /// page that point reads of the keys would not, and a run of nearby rows
  /// costs one seek. Rows of the gap keys are dropped.
  bool Resolve() {
    sorted_.clear();
    for (size_t i = 0; i < keys_.size(); ++i) sorted_.emplace_back(keys_[i], i);
    std::sort(sorted_.begin(), sorted_.end());
    const Key max_step = base_->entries_per_page();
    std::vector<KeyRange> ranges;
    for (const auto& [key, cell] : sorted_) {
      if (!ranges.empty() && key - ranges.back().hi <= max_step) {
        ranges.back().hi = key;
      } else {
        ranges.push_back(KeyRange{key, key});
      }
    }
    ReadOptions walk_options;
    walk_options.snapshot = base_snapshot_;
    auto walk = base_->NewResolveCursor(std::move(ranges), walk_options);
    if (!walk.ok()) {
      status_ = walk.status();
      return false;
    }
    KeyedCursor& cursor = *walk.value();
    rows_.assign(keys_.size(), Rows{});
    payloads_.clear();
    // The walk ascends and ends at the largest key of the chunk, so `next`
    // never runs off the end.
    auto next = sorted_.begin();
    for (; cursor.Valid(); cursor.Next()) {
      const Key key = cursor.key();
      while (next->first < key) ++next;
      if (next->first != key) continue;  // a gap key's row
      Rows& rows = rows_[next->second];
      if (rows.begin == rows.end) rows.begin = payloads_.size();  // 1st row
      payloads_.push_back(cursor.entry().payload);
      rows.end = payloads_.size();
    }
    if (!cursor.status().ok()) {
      status_ = cursor.status();
      return false;
    }
    // Two cells sharing a base key (a corrupt index) both get its rows.
    for (size_t i = 1; i < sorted_.size(); ++i) {
      if (sorted_[i].first == sorted_[i - 1].first) {
        rows_[sorted_[i].second] = rows_[sorted_[i - 1].second];
      }
    }
    return true;
  }

  const std::unique_ptr<Cursor> inner_;
  SfcTable* const base_;
  const Snapshot* const base_snapshot_;
  const std::shared_ptr<const void> pin_;  // keeps the snapshot alive
  const uint64_t limit_;
  obs::Counter* const dangling_;
  obs::Counter* const resolved_;

  std::vector<Key> keys_;  // base keys of the chunk's cells, index order
  std::vector<std::pair<Key, size_t>> sorted_;  // (key, cell), ascending
  std::vector<Rows> rows_;          // per cell of keys_
  std::vector<uint64_t> payloads_;  // the chunk's rows, grouped by key
  size_t next_cell_ = 0;            // next cell of keys_ to emit
  size_t row_ = 0;                  // next payload of the current cell
  size_t row_end_ = 0;
  Cell group_cell_{};
  bool have_group_ = false;
  SpatialEntry current_{};
  bool valid_ = false;
  uint64_t delivered_ = 0;
  bool budget_hit_ = false;
  Status status_;
};

}  // namespace

std::unique_ptr<Cursor> NewIndexResolveCursor(
    std::unique_ptr<Cursor> index_cursor, SfcTable* base_table,
    const Snapshot* base_snapshot, std::shared_ptr<const void> pin,
    uint64_t limit, obs::Counter* dangling_entries,
    obs::Counter* resolved_rows) {
  return std::make_unique<IndexResolveCursor>(
      std::move(index_cursor), base_table, base_snapshot, std::move(pin),
      limit, dangling_entries, resolved_rows);
}

std::unique_ptr<KeyedCursor> NewSnapshotCursor(
    const SpaceFillingCurve* curve, std::vector<KeyRange> ranges,
    const Box* query_box, std::vector<Entry> memtable_entries,
    SegmentSnapshot segments, std::shared_ptr<BufferPool> pool,
    AtomicIoStats* io_stats, const ReadOptions& options,
    const QueryMetrics& query_metrics) {
  return std::make_unique<SnapshotCursor>(
      curve, std::move(ranges), query_box, std::move(memtable_entries),
      std::move(segments), std::move(pool), io_stats, options,
      query_metrics);
}

}  // namespace storage
}  // namespace onion
