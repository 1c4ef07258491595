// SfcTable: the end-to-end persistent spatial table — crash-safe and
// concurrent.
//
// The disk-backed twin of SpatialIndex (index/spatial_index.h): points are
// mapped to keys by any registered space-filling curve, logged to a
// write-ahead log (storage/wal.h), buffered in a memtable, flushed by a
// background worker into sorted level-0 segment files, and leveled by
// background compaction into non-overlapping runs per level. Queries
// decompose a box into exact curve-key ranges (index/decompose.h) that are
// streamed through a buffer pool by pull-based cursors (storage/cursor.h).
// Every query's cost is observable: the pool counts real page reads, cache
// hits, and seeks per table, and DiskModel converts them to estimated
// latency — turning the paper's "clustering number == seeks" claim into a
// measurement against actual files.
//
// On-disk layout of a table directory (byte-level spec in
// docs/storage_format.md):
//   MANIFEST        text file: format line, curve name, universe geometry,
//                   page size, next segment id, WAL floor, and the live
//                   segment list with per-segment levels
//   seg_<id>.sfc    immutable sorted segments (storage/segment.h)
//   wal_<id>.log    write-ahead logs, one per memtable generation
//
// Crash safety: every write — Insert(), Delete(), or one table's slice of
// an SfcDb::Write batch — is appended to the active WAL as one atomic
// record before it is buffered, and a WAL file is deleted only after its
// memtable generation is durably flushed (segment fsynced, directory
// fsynced, MANIFEST renamed in place and fenced via `wal_floor`). Open()
// replays live WAL files, so a process crash at ANY point loses nothing
// and duplicates nothing. The manifest is rewritten atomically (write +
// fsync + rename + directory fsync) after every flush and compaction.
//
// Versioned reads (MVCC): every write is stamped with a monotonically
// increasing per-table sequence number (persisted as the MANIFEST's
// `last_sequence`, carried by WAL records and segment-v3 pages).
// GetSnapshot() pins the current sequence: cursors and Gets given that
// snapshot (ReadOptions::snapshot) see exactly the state as of the pin —
// repeatable reads across any number of cursors, undisturbed by later
// inserts, deletes, flushes, or compactions, because compaction consults
// the live-snapshot list and retains every version a pin can still see.
// Delete(cell) writes a tombstone that hides all older versions of the
// cell; tombstones are garbage-collected by bottom-level compaction once
// no snapshot predates them.
//
// Concurrency: background flushing and compaction run on a WorkerPool
// (storage/worker_pool.h) — a private single-thread pool for a standalone
// table, or the owning SfcDb's shared pool (storage/sfc_db.h), which also
// supplies a shared BufferPool; per-table I/O attribution survives the
// sharing via AtomicIoStats. A shared_mutex guards the table's in-memory
// state — writers and state changes take it exclusively, queries take it
// only long enough to scan the (immutable while shared-locked) memtables
// and snapshot the segment list; segment I/O then proceeds WITHOUT the
// table lock, so readers keep reading while a flush writes the next
// segment or a compaction merges runs. Retired segments stay alive
// (shared_ptr) until the last in-flight query or cursor drops them.
// Insert() blocks only when `max_pending_memtables` generations are
// already waiting to flush (bounded queue backpressure). Flush() is a
// barrier: it returns once all buffered data is durable and background
// work has quiesced. Close() is Flush() plus shutdown: it additionally
// stops the table's background processing and refuses further writes
// (idempotent; reads stay valid).
//
// Leveling: freshly flushed segments form level 0 (overlapping, newest
// last). When L0 reaches `l0_compaction_trigger` runs, the worker merges
// them (plus the overlapping part of level 1) into level 1, whose segments
// are non-overlapping and at most `level_segment_entries` entries each;
// levels overflowing their size target spill into the next level the same
// way. A box query therefore probes every L0 run but at most one
// contiguous group of segments per deeper level and key range.
//
// A table may also serve as the HIDDEN half of an SfcDb secondary index
// ("<table>__idx__<index>" directories, storage/index_spec.h): same
// machinery, but its entries are (index key -> base curve key) pointers
// maintained exclusively by SfcDb::Write — never write to such a table
// directly. Its io_stats()/DumpMetrics() are the per-index seek/pages
// counters surfaced through SfcDb::DumpMetrics.

#ifndef ONION_STORAGE_SFC_TABLE_H_
#define ONION_STORAGE_SFC_TABLE_H_

#include <atomic>
#include <deque>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/mutex.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "index/disk_model.h"
#include "index/spatial_index.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sfc/curve.h"
#include "storage/buffer_pool.h"
#include "storage/cursor.h"
#include "storage/memtable.h"
#include "storage/segment.h"
#include "storage/wal.h"
#include "storage/worker_pool.h"

namespace onion::storage {

struct SfcTableOptions {
  /// Entries per page of every segment written by this table.
  uint32_t entries_per_page = 256;
  /// Bloom-filter budget of every segment this table writes; 0 disables
  /// filter blocks (zone maps are always written — they cost 8 bytes per
  /// page per dimension). Recorded in the MANIFEST at Create; reopening
  /// uses the recorded budget regardless of what the caller passes.
  uint32_t filter_bits_per_key = 10;
  /// Capacity of the table's private buffer pool, in pages. Ignored when
  /// the table is served by an SfcDb, whose shared pool is sized by
  /// SfcDbOptions::pool_pages instead.
  uint64_t pool_pages = 256;
  /// Maximum EXTRA pages a buffer-pool miss may pull in with one batched
  /// read beyond the demanded page (storage/buffer_pool.h). 0 disables
  /// readahead — the historical one-page-per-miss behavior. Ignored (like
  /// pool_pages) when the table is served by an SfcDb's shared pool.
  uint64_t readahead_pages = 0;
  /// Inserts accumulate in the memtable until it reaches this size, then
  /// rotate to the background flush queue automatically.
  uint64_t memtable_flush_entries = 64 * 1024;
  /// Backpressure bound: Insert() blocks while this many rotated memtables
  /// are still waiting for the background flush.
  size_t max_pending_memtables = 2;
  /// Number of level-0 runs that triggers a background compaction into
  /// level 1.
  size_t l0_compaction_trigger = 4;
  /// Maximum entries per segment on levels >= 1 (0 = memtable_flush_entries).
  uint64_t level_segment_entries = 0;
  /// Size target of level 1 in entries (0 = l0_compaction_trigger *
  /// memtable_flush_entries); level i's target is this times
  /// level_growth_factor^(i-1). A level over target spills into the next.
  uint64_t level_base_entries = 0;
  /// Geometric growth of per-level size targets.
  uint64_t level_growth_factor = 8;
  /// Fsync the WAL before acknowledging every Insert (power-loss
  /// durability). Concurrent inserters group-commit: they share one
  /// leader fsync (WalWriter::SyncUpTo) instead of paying one each. Off
  /// by default: appends are still flushed to the OS per record, which
  /// already survives any process crash. An fsync failure is sticky — the
  /// affected insert is acknowledged to have FAILED but its entry may
  /// still surface in queries (and after recovery) like any other
  /// unacknowledged write; do NOT blindly retry such a failure (unlike an
  /// append failure, which is retry-safe), or the entry may be stored
  /// twice.
  bool wal_fsync = false;
};

/// Logical read statistics (the physical side lives in IoStats).
struct TableReadStats {
  uint64_t queries = 0;
  uint64_t ranges = 0;            ///< decomposed key ranges (== clusters)
  uint64_t memtable_entries = 0;  ///< results served from unflushed data

  void Reset() { *this = TableReadStats{}; }
};

/// Introspection record for one live segment (tests, benches, tooling).
struct SegmentInfo {
  std::string file;
  int level = 0;
  Key min_key = 0;
  Key max_key = 0;
  uint64_t num_entries = 0;
  /// Real on-disk footprint and format of the segment file.
  uint64_t disk_bytes = 0;
  uint32_t format_version = 0;
  uint64_t filter_bytes = 0;
};

class SfcTable {
 public:
  /// Creates a new table directory (made if absent; must not already hold a
  /// table) keyed by the named curve (sfc/registry.h) over `universe`.
  static Result<std::unique_ptr<SfcTable>> Create(
      const std::string& dir, const std::string& curve_name,
      const Universe& universe, const SfcTableOptions& options = {});

  /// Opens an existing table directory from its MANIFEST and replays any
  /// live WAL files into the memtable (crash recovery).
  static Result<std::unique_ptr<SfcTable>> Open(
      const std::string& dir, const SfcTableOptions& options = {});

  /// Stops background processing WITHOUT flushing: buffered entries stay
  /// recoverable from the WAL, exactly as after a crash. This is the
  /// deliberate "crash semantics" path — call Close() first when you want
  /// a clean, fully-flushed shutdown.
  ~SfcTable();

  SfcTable(const SfcTable&) = delete;
  SfcTable& operator=(const SfcTable&) = delete;

  const SpaceFillingCurve& curve() const { return *curve_; }
  const std::string& dir() const { return dir_; }
  uint64_t size() const;
  size_t num_segments() const;
  /// Entries not yet in any segment (active memtable + pending flushes).
  uint64_t memtable_entries() const;
  /// Memtable generations queued for the background flush.
  size_t pending_memtables() const;
  /// Level/key-range/size of every live segment, L0 first (oldest to
  /// newest), then each deeper level in key order.
  std::vector<SegmentInfo> SegmentInfos() const;

  /// Logs and buffers a point; rotates the memtable to the background
  /// flush queue at the threshold (blocking only on queue backpressure).
  /// Fails with InvalidArgument after Close().
  Status Insert(const Cell& cell, uint64_t payload);

  /// Logs and buffers a tombstone that deletes EVERY payload stored at
  /// `cell` (all older versions become invisible to reads at or after this
  /// write's sequence; snapshots taken earlier still see them). A later
  /// Insert at the same cell is visible again. Same failure modes as
  /// Insert.
  Status Delete(const Cell& cell);

  /// Pins the current state for repeatable reads: pass the result via
  /// ReadOptions::snapshot to Get/NewBoxCursor/NewScanCursor and every
  /// such read sees exactly the entries visible now, no matter what is
  /// written, flushed, or compacted in between (compaction keeps the
  /// pinned versions alive). The returned shared_ptr is the pin — release
  /// it (drop all copies) to let compaction collect. Must not outlive the
  /// table.
  std::shared_ptr<const Snapshot> GetSnapshot();

  /// Sequence number of the most recent applied write (0 for a fresh
  /// table). A snapshot taken now pins exactly this sequence.
  uint64_t last_sequence() const {
    return last_applied_seq_.load(std::memory_order_acquire);
  }

  /// Barrier: rotates any buffered entries and returns once every pending
  /// memtable is durably flushed and background compaction has quiesced.
  Status Flush();

  /// Flushes, then merges ALL segments into a single sorted run, retiring
  /// and deleting the inputs; versions shadowed by tombstones (and the
  /// tombstones themselves) are garbage-collected unless a live snapshot
  /// still pins them. Readers proceed throughout. Fails with
  /// InvalidArgument after Close().
  Status Compact();

  /// Streams every entry inside `box` in nondecreasing curve-key order
  /// from a consistent snapshot (segment list + frozen memtable contents
  /// taken now; later inserts/flushes/compactions do not affect it).
  /// `options` bounds the work (see storage/cursor.h); errors — an
  /// out-of-universe box, a table background error — arrive as a cursor
  /// whose status() is not OK. The cursor must not outlive this table.
  std::unique_ptr<Cursor> NewBoxCursor(const Box& box,
                                       const ReadOptions& options = {});

  /// Streams the whole table in curve-key order (same semantics as
  /// NewBoxCursor over the full universe, without the decomposition cost).
  std::unique_ptr<Cursor> NewScanCursor(const ReadOptions& options = {});

  /// Point lookup: payloads stored exactly at `cell` (post-delete state;
  /// `options.snapshot` reads a pinned version), in unspecified order.
  /// OutOfRange if the cell lies outside the universe.
  Result<std::vector<uint64_t>> Get(const Cell& cell,
                                    const ReadOptions& options);
  Result<std::vector<uint64_t>> Get(const Cell& cell) {
    return Get(cell, ReadOptions{});
  }

  /// Clean shutdown: Flush() barrier, then stops the table's background
  /// processing and marks the table closed — further Insert/Compact calls
  /// fail with InvalidArgument while reads (cursors, Get) remain
  /// valid. Idempotent: repeated calls return OK. Contrast with the
  /// destructor, which deliberately does NOT flush (crash semantics).
  Status Close();

  TableReadStats read_stats() const;
  IoStats io_stats() const { return io_stats_.Snapshot(); }
  void ResetStats();

  /// One dump of every table-level metric — the obs registry (latency
  /// histograms, counters, gauges), the I/O counters, the logical read
  /// stats, and derived ratios (pool hit ratio, filter skip ratio) — as a
  /// JSON object or Prometheus text exposition (metric catalog in
  /// docs/observability.md). Safe to call concurrently with everything.
  std::string DumpMetrics(
      obs::MetricsFormat format = obs::MetricsFormat::kJson) const;
  /// The retained trace events (flush/compaction completions) as a JSON
  /// array — see obs/trace.h.
  std::string DumpTrace() const { return trace_->ToJson(); }
  /// The table's metric registry (tests and the owning SfcDb's exporter;
  /// hot paths use handles resolved at construction instead).
  obs::MetricsRegistry& metrics() const { return *metrics_; }
  /// Age of the oldest live snapshot pin in microseconds (0 when no
  /// snapshot is pinned) — how long compaction GC has been held back.
  uint64_t OldestSnapshotPinAgeUs() const;

  /// Estimated latency of the I/O accumulated since the last ResetStats().
  double EstimateCostMs(const DiskModel& model) const {
    const IoStats io = io_stats();
    return model.EstimateMs(io.seeks, io.entries_read);
  }

 private:
  friend class SfcDb;  // uses the *WithShared factories below

  /// Resources provided by an owning SfcDb; default-constructed means the
  /// table provisions its own (private pool, private 1-thread worker).
  struct SharedResources {
    std::shared_ptr<BufferPool> pool;
    WorkerPool* workers = nullptr;
    /// Shared trace ring (the db's, so flush/compaction/commit events of
    /// all tables interleave in one timeline); null means private.
    std::shared_ptr<obs::TraceRing> trace;
  };

  static Result<std::unique_ptr<SfcTable>> CreateWithShared(
      const std::string& dir, const std::string& curve_name,
      const Universe& universe, const SfcTableOptions& options,
      const SharedResources& shared);
  static Result<std::unique_ptr<SfcTable>> OpenWithShared(
      const std::string& dir, const SfcTableOptions& options,
      const SharedResources& shared);

  /// One live segment and its placement in the level structure.
  struct TableSegment {
    std::shared_ptr<SegmentReader> reader;
    std::string file;  // basename inside dir_
    int level = 0;
  };

  /// A rotated memtable generation waiting for the background flush,
  /// together with the WAL files that make it durable meanwhile. Once its
  /// segment is visible in l0_ the batch is flagged `installed` (in the
  /// same exclusive-lock hold) and read paths skip it — it merely awaits
  /// manifest durability before it can be popped and its WALs deleted.
  struct PendingMemtable {
    MemTable mem;
    std::vector<std::string> wal_files;  // basenames
    uint64_t max_wal_id = 0;
    bool installed = false;
  };

  SfcTable(std::string dir, std::unique_ptr<SpaceFillingCurve> curve,
           const SfcTableOptions& options, const SharedResources& shared);

  // --- Versioned write path (SfcDb::Write drives these as a friend; the
  // table's own Insert/Delete go through WriteOps). All three *WalLocked
  // helpers REQUIRE wal_mu_ held; holding it from reservation through
  // apply is what makes per-table sequence order equal WAL append order,
  // which the batch journal's idempotent replay depends on.
  void LockWal() ONION_ACQUIRE(wal_mu_) { wal_mu_.Lock(); }
  void UnlockWal() ONION_RELEASE(wal_mu_) { wal_mu_.Unlock(); }
  /// Refuses writes on a closed or failed table (takes mu_ briefly).
  Status PrecheckWritableWalLocked() ONION_REQUIRES(wal_mu_)
      ONION_EXCLUDES(mu_);
  /// Allocates `count` consecutive sequence numbers; returns the first.
  uint64_t ReserveSequencesWalLocked(uint64_t count) ONION_REQUIRES(wal_mu_);
  /// Appends `ops` as ONE WAL record stamped first_seq.., buffers them in
  /// the memtable, and publishes last_sequence. Rotates the memtable
  /// first when full (so a failed WAL append retains nothing and is
  /// retry-safe). `used_wal`/`out_record` feed a later group-commit
  /// SyncUpTo outside all locks.
  Status ApplyOpsWalLocked(const WalOp* ops, size_t count, uint64_t first_seq,
                           std::shared_ptr<WalWriter>* used_wal,
                           uint64_t* out_record) ONION_REQUIRES(wal_mu_)
      ONION_EXCLUDES(mu_);
  /// The single-table commit: reserve + apply + (optionally) group-commit
  /// fsync. Insert and Delete are one-op wrappers; SfcDb's secondary-index
  /// backfill (CreateIndex/MigrateIndexCurve) batches through here too.
  Status WriteOps(const WalOp* ops, size_t count)
      ONION_EXCLUDES(wal_mu_, mu_);
  /// Open-time only (no concurrent writers): re-applies a batch-journal
  /// record slice with its ORIGINAL sequences after a crash lost this
  /// table's own WAL record of it; bumps the sequence allocator past it.
  Status ReplayCommittedOps(const WalOp* ops, size_t count, uint64_t first_seq)
      ONION_EXCLUDES(wal_mu_, mu_);
  /// Open-time only: whether the recovered state provably contains the
  /// write stamped `sequence` — durably flushed into segments (covered by
  /// the manifest's last_sequence fence) or sitting in the replayed
  /// memtable. This is the batch-journal idempotency test: it stays
  /// correct even when a LATER write's WAL record survived a power loss
  /// that tore this one, because flushed generations hold strictly older
  /// sequences than anything unflushed.
  bool RecoveredStateCoversSequence(uint64_t sequence) const
      ONION_EXCLUDES(mu_);
  /// Open-time only: fsyncs the active WAL, making journal-replayed ops
  /// power-loss durable before the journal that could repair them is
  /// truncated.
  Status SyncWalForRecovery() ONION_EXCLUDES(wal_mu_, mu_);
  /// Sequences of every live snapshot pin, sorted ascending.
  std::vector<uint64_t> PinnedSnapshotSequences() const;

  std::string SegmentPath(const std::string& file) const;
  std::string WalFileName(uint64_t id) const;
  std::string WalPath(uint64_t id) const;
  uint64_t EffectiveLevelSegmentEntries() const;
  uint64_t LevelTargetEntries(int level) const;

  void StartWorker() ONION_EXCLUDES(mu_);
  /// Unregisters from the worker pool, blocking until in-flight background
  /// work finishes. Safe to call repeatedly; never called with mu_ held.
  void StopWorker() ONION_EXCLUDES(mu_);
  /// One unit of background work (a flush or a compaction round); returns
  /// whether more work remains. Runs on a WorkerPool thread.
  bool RunBackgroundWork() ONION_EXCLUDES(mu_);
  void NotifyWorkerLocked() ONION_REQUIRES(mu_);

  /// Shared cursor factory: counts the query, snapshots memtables and
  /// segments, and hands off to the streaming merge cursor. `query_box`
  /// (may be null) is the exact box the ranges decompose — it enables
  /// zone-map page skipping in the cursor.
  std::unique_ptr<Cursor> NewRangesCursor(std::vector<KeyRange> ranges,
                                          const Box* query_box,
                                          const ReadOptions& options);
  /// Segment-writer knobs derived from the table options (page size,
  /// filter budget, zone-map curve); used by flush and every compaction path.
  SegmentWriterOptions WriterOptions() const;

  // All *Locked methods require mu_ held exclusively (the annotations make
  // the compiler enforce it); several release mu_ around file I/O and
  // reacquire it before returning — the REQUIRES contract is "held on
  // entry and on exit", and the analysis tracks the window in between.
  // RotateMemtableLocked additionally requires wal_mu_ held (it swaps the
  // active WAL). `min_entries` is rechecked after the backpressure wait so
  // a waiter whose rotation was performed by another writer meanwhile does
  // not rotate a fresh, near-empty memtable.
  Status RotateMemtableLocked(uint64_t min_entries)
      ONION_REQUIRES(wal_mu_, mu_);
  void FlushPendingLocked() ONION_REQUIRES(mu_);
  void RunCompactionLocked() ONION_REQUIRES(mu_);
  bool HasAutoCompactionWorkLocked() const ONION_REQUIRES_SHARED(mu_);
  std::string ManifestTextLocked() const ONION_REQUIRES_SHARED(mu_);
  Status WriteManifestFile(const std::string& text) const ONION_EXCLUDES(mu_);
  Status InstallManifest() ONION_REQUIRES(mu_) ONION_EXCLUDES(manifest_mu_);
  void SetBackgroundErrorLocked(const Status& status) ONION_REQUIRES(mu_);
  /// Drops retired readers/pool frames and returns the file paths to
  /// unlink — deletion itself happens outside the lock via
  /// RemoveRetiredFiles (which re-locks only to stash failed unlinks in
  /// garbage_files_ for a later retry).
  std::vector<std::string> DetachSegmentsLocked(
      std::vector<TableSegment> retired) ONION_REQUIRES(mu_);
  void RemoveRetiredFiles(const std::vector<std::string>& doomed)
      ONION_REQUIRES(mu_);
  std::vector<TableSegment> AllSegmentsLocked() const
      ONION_REQUIRES_SHARED(mu_);
  void RemoveSegmentsByIdentityLocked(const std::vector<TableSegment>& gone)
      ONION_REQUIRES(mu_);
  static void SortByMinKey(std::vector<TableSegment>* segments);

  const std::string dir_;
  const std::unique_ptr<SpaceFillingCurve> curve_;
  const std::string curve_name_;
  SfcTableOptions options_;

  // Observability. The registry owns every named metric for the table's
  // lifetime; `m_` caches the hot-path handles (the registry hands out
  // stable addresses) so recording a sample is a relaxed atomic add, never
  // a name lookup. Declared before all engine state so background threads
  // recording into the handles never outlive them.
  const std::shared_ptr<obs::MetricsRegistry> metrics_ =
      std::make_shared<obs::MetricsRegistry>();
  std::shared_ptr<obs::TraceRing> trace_;
  struct MetricHandles {
    obs::Histogram* wal_append_us = nullptr;
    obs::Histogram* wal_fsync_us = nullptr;
    obs::Histogram* wal_commit_batch_records = nullptr;
    obs::Histogram* memtable_insert_us = nullptr;
    obs::Histogram* write_commit_us = nullptr;
    obs::Histogram* flush_us = nullptr;
    obs::Histogram* compaction_us = nullptr;
    obs::Histogram* cursor_next_us = nullptr;
    obs::Counter* flush_bytes = nullptr;
    obs::Counter* flush_entries = nullptr;
    obs::Counter* flush_count = nullptr;
    obs::Counter* compaction_bytes_rewritten = nullptr;
    obs::Counter* compaction_entries_gcd = nullptr;
    obs::Counter* compaction_count = nullptr;
  } m_;
  /// The WAL-facing slice of `m_` (every WalWriter this table creates gets
  /// the same three handles).
  WalMetrics TableWalMetrics() const;

  // Serializes writers (Insert / the rotation step of Flush) and pins the
  // active WAL, so the per-record WAL I/O can run with mu_ RELEASED —
  // readers snapshot state between any two inserts instead of stalling
  // behind disk latency. Acquisition order: wal_mu_ strictly before mu_.
  Mutex wal_mu_ ONION_ACQUIRED_BEFORE(mu_);

  // Sequence state. next_seq_ is the allocator, guarded by wal_mu_ (the
  // writer lock); last_applied_seq_ publishes the newest buffered write
  // (stored under mu_, read lock-free by GetSnapshot/last_sequence);
  // flushed_seq_ is the newest sequence durably in segments, guarded by
  // mu_ and persisted as the MANIFEST's `last_sequence`.
  uint64_t next_seq_ ONION_GUARDED_BY(wal_mu_) = 1;
  std::atomic<uint64_t> last_applied_seq_{0};
  uint64_t flushed_seq_ ONION_GUARDED_BY(mu_) = 0;

  // Live snapshot pins, consulted by compaction's garbage collection.
  // Held behind a shared_ptr so a pin's release (which must unregister
  // its sequence) stays safe even when the pin outlives the table — the
  // deleter owns the registry, never the table.
  struct SnapshotRegistry {
    Mutex mu;
    /// (sequence, created_us) per live pin — ordered by sequence for the
    /// compaction GC list; created_us feeds the oldest-pin-age gauge.
    std::multiset<std::pair<uint64_t, uint64_t>> pins ONION_GUARDED_BY(mu);
  };
  const std::shared_ptr<SnapshotRegistry> snapshots_ =
      std::make_shared<SnapshotRegistry>();

  mutable SharedMutex mu_;
  CondVarAny cv_;  // waited on with mu_ held exclusively
  MemTable memtable_ ONION_GUARDED_BY(mu_);
  // shared_ptr so a group-commit fsync (outside all locks) can outlive a
  // concurrent rotation that retires this writer object.
  std::shared_ptr<WalWriter> wal_ ONION_GUARDED_BY(mu_);
  // WAL file basenames backing the active memtable.
  std::vector<std::string> wal_files_ ONION_GUARDED_BY(mu_);
  uint64_t max_wal_id_ ONION_GUARDED_BY(mu_) = 0;
  uint64_t next_wal_id_ ONION_GUARDED_BY(mu_) = 0;
  // WAL ids below this are dead (fenced off by the MANIFEST).
  uint64_t wal_floor_ ONION_GUARDED_BY(mu_) = 0;
  std::deque<PendingMemtable> pending_ ONION_GUARDED_BY(mu_);
  // Level 0, oldest first; key ranges may overlap.
  std::vector<TableSegment> l0_ ONION_GUARDED_BY(mu_);
  // levels_[i] holds level i+1, sorted by min_key, pairwise disjoint.
  std::vector<std::vector<TableSegment>> levels_ ONION_GUARDED_BY(mu_);
  // Retired segment files whose unlink failed (e.g. still open on
  // platforms that refuse to delete open files); retried on later
  // retirements and in the destructor.
  std::vector<std::string> garbage_files_ ONION_GUARDED_BY(mu_);
  uint64_t next_segment_id_ ONION_GUARDED_BY(mu_) = 0;
  bool closed_ ONION_GUARDED_BY(mu_) = false;
  bool compaction_pending_ ONION_GUARDED_BY(mu_) = false;
  bool compaction_inflight_ ONION_GUARDED_BY(mu_) = false;
  bool manual_compaction_ ONION_GUARDED_BY(mu_) = false;
  Status background_error_ ONION_GUARDED_BY(mu_);

  // Serializes manifest installs so snapshot order equals rename order;
  // always acquired while mu_ is NOT held (see InstallManifest).
  Mutex manifest_mu_ ONION_ACQUIRED_BEFORE(mu_);

  // Background execution: either the private pool below or an SfcDb's.
  // Both pointers are set once by StartWorker (during Create/Open, before
  // the table is visible to any other thread) and are immutable after —
  // StopWorker and the destructor read them without a lock by design.
  std::unique_ptr<WorkerPool> owned_workers_;
  WorkerPool* workers_ = nullptr;
  WorkerPool::ClientId worker_client_ ONION_GUARDED_BY(mu_) = 0;

  // Page cache: private, or shared across an SfcDb's tables. Per-table
  // I/O attribution flows into io_stats_ on every pool call.
  std::shared_ptr<BufferPool> pool_;
  mutable AtomicIoStats io_stats_;

  mutable Mutex stats_mu_;
  TableReadStats read_stats_ ONION_GUARDED_BY(stats_mu_);
};

}  // namespace onion::storage

#endif  // ONION_STORAGE_SFC_TABLE_H_
