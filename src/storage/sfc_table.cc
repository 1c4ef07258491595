#include "storage/sfc_table.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <optional>
#include <utility>

#include "index/decompose.h"
#include "sfc/registry.h"
#include "storage/compaction.h"
#include "storage/fs_util.h"
#include "storage/page_codec.h"

namespace onion::storage {
namespace {

constexpr char kManifestName[] = "MANIFEST";
constexpr char kManifestFormat[] = "onion-sfc-table";
// The only version written and read; any other is rejected at open.
constexpr int kManifestVersion = 4;

constexpr char kWalPrefix[] = "wal_";
constexpr char kWalSuffix[] = ".log";

std::string SegmentFileName(uint64_t id) {
  return "seg_" + std::to_string(id) + ".sfc";
}

/// Rejects option combinations that would deadlock or loop the engine.
Status ValidateOptions(const SfcTableOptions& options) {
  if (options.entries_per_page < 1) {
    return Status::InvalidArgument("entries_per_page must be positive");
  }
  if (options.pool_pages < 1) {
    return Status::InvalidArgument("pool_pages must be positive");
  }
  if (options.memtable_flush_entries < 1) {
    return Status::InvalidArgument("memtable_flush_entries must be positive");
  }
  if (options.max_pending_memtables < 1) {
    return Status::InvalidArgument("max_pending_memtables must be positive");
  }
  if (options.l0_compaction_trigger < 2) {
    return Status::InvalidArgument("l0_compaction_trigger must be >= 2");
  }
  if (options.level_growth_factor < 2) {
    return Status::InvalidArgument("level_growth_factor must be >= 2");
  }
  if (options.filter_bits_per_key > 64) {
    return Status::InvalidArgument("filter_bits_per_key must be <= 64");
  }
  return Status::OK();
}

/// Parses "wal_<id>.log"; returns false for any other name.
bool ParseWalFileName(const std::string& name, uint64_t* id) {
  const size_t prefix = sizeof(kWalPrefix) - 1;
  const size_t suffix = sizeof(kWalSuffix) - 1;
  if (name.size() <= prefix + suffix) return false;
  if (name.compare(0, prefix, kWalPrefix) != 0) return false;
  if (name.compare(name.size() - suffix, suffix, kWalSuffix) != 0) {
    return false;
  }
  uint64_t value = 0;
  for (size_t i = prefix; i < name.size() - suffix; ++i) {
    if (name[i] < '0' || name[i] > '9') return false;
    value = value * 10 + static_cast<uint64_t>(name[i] - '0');
  }
  *id = value;
  return true;
}

}  // namespace

SfcTable::SfcTable(std::string dir, std::unique_ptr<SpaceFillingCurve> curve,
                   const SfcTableOptions& options,
                   const SharedResources& shared)
    : dir_(std::move(dir)),
      curve_(std::move(curve)),
      curve_name_(curve_->name()),
      options_(options),
      trace_(shared.trace != nullptr ? shared.trace
                                     : std::make_shared<obs::TraceRing>()),
      memtable_(curve_->num_cells()),
      workers_(shared.workers),
      pool_(shared.pool != nullptr
                ? shared.pool
                : std::make_shared<BufferPool>(options.pool_pages,
                                               options.readahead_pages)) {
  // Resolve every hot-path handle once; recording is pointer-only after
  // this. The names are the catalog in docs/observability.md.
  m_.wal_append_us = metrics_->histogram("wal.append_us");
  m_.wal_fsync_us = metrics_->histogram("wal.fsync_us");
  m_.wal_commit_batch_records =
      metrics_->histogram("wal.commit_batch_records");
  m_.memtable_insert_us = metrics_->histogram("memtable.insert_us");
  m_.write_commit_us = metrics_->histogram("write.commit_us");
  m_.flush_us = metrics_->histogram("flush.us");
  m_.compaction_us = metrics_->histogram("compaction.us");
  m_.cursor_next_us = metrics_->histogram("cursor.next_us");
  m_.flush_bytes = metrics_->counter("flush.bytes");
  m_.flush_entries = metrics_->counter("flush.entries");
  m_.flush_count = metrics_->counter("flush.count");
  m_.compaction_bytes_rewritten =
      metrics_->counter("compaction.bytes_rewritten");
  m_.compaction_entries_gcd = metrics_->counter("compaction.entries_gcd");
  m_.compaction_count = metrics_->counter("compaction.count");
}

WalMetrics SfcTable::TableWalMetrics() const {
  WalMetrics wal_metrics;
  wal_metrics.append_us = m_.wal_append_us;
  wal_metrics.fsync_us = m_.wal_fsync_us;
  wal_metrics.commit_batch_records = m_.wal_commit_batch_records;
  return wal_metrics;
}

SfcTable::~SfcTable() {
  // Deliberately no Flush(): destroying an unclosed table has crash
  // semantics — the WAL is the durable copy of anything unflushed, and
  // Open() will replay it. Call Close() first for a clean shutdown.
  StopWorker();
  // Last chance to collect retired files whose earlier unlink failed.
  for (const std::string& path : garbage_files_) {
    std::remove(path.c_str());
  }
}

std::string SfcTable::SegmentPath(const std::string& file) const {
  return dir_ + "/" + file;
}

std::string SfcTable::WalFileName(uint64_t id) const {
  return kWalPrefix + std::to_string(id) + kWalSuffix;
}

std::string SfcTable::WalPath(uint64_t id) const {
  return dir_ + "/" + WalFileName(id);
}

SegmentWriterOptions SfcTable::WriterOptions() const {
  // options_ and curve_ are immutable after Create/Open, so this needs no
  // lock even though flush and compaction call it from the worker thread.
  SegmentWriterOptions writer_options;
  writer_options.entries_per_page = options_.entries_per_page;
  writer_options.filter_bits_per_key = options_.filter_bits_per_key;
  writer_options.curve = curve_.get();
  return writer_options;
}

uint64_t SfcTable::EffectiveLevelSegmentEntries() const {
  return options_.level_segment_entries > 0 ? options_.level_segment_entries
                                            : options_.memtable_flush_entries;
}

uint64_t SfcTable::LevelTargetEntries(int level) const {
  uint64_t target = options_.level_base_entries > 0
                        ? options_.level_base_entries
                        : options_.l0_compaction_trigger *
                              options_.memtable_flush_entries;
  for (int i = 1; i < level; ++i) target *= options_.level_growth_factor;
  return target;
}

std::string SfcTable::ManifestTextLocked() const {
  std::string text;
  text += std::string(kManifestFormat) + " " +
          std::to_string(kManifestVersion) + "\n";
  text += "curve " + curve_name_ + "\n";
  text += "dims " + std::to_string(curve_->universe().dims()) + "\n";
  text += "side " + std::to_string(curve_->universe().side()) + "\n";
  text += "entries_per_page " + std::to_string(options_.entries_per_page) +
          "\n";
  text += "codec " + std::string(kRawPageCodecName) + "\n";
  text += "filter_bits_per_key " +
          std::to_string(options_.filter_bits_per_key) + "\n";
  text += "next_segment_id " + std::to_string(next_segment_id_) + "\n";
  text += "wal_floor " + std::to_string(wal_floor_) + "\n";
  text += "last_sequence " + std::to_string(flushed_seq_) + "\n";
  for (const TableSegment& segment : l0_) {
    text += "segment 0 " + segment.file + "\n";
  }
  for (size_t i = 0; i < levels_.size(); ++i) {
    for (const TableSegment& segment : levels_[i]) {
      text += "segment " + std::to_string(i + 1) + " " + segment.file + "\n";
    }
  }
  return text;
}

Status SfcTable::WriteManifestFile(const std::string& text) const {
  const std::string tmp_path = dir_ + "/" + kManifestName + ".tmp";
  std::FILE* out = std::fopen(tmp_path.c_str(), "wb");
  if (out == nullptr) {
    return Status::Internal("cannot write manifest: " + tmp_path);
  }
  Status status;
  if (std::fwrite(text.data(), 1, text.size(), out) != text.size()) {
    status = Status::Internal("cannot write manifest: " + tmp_path);
  }
  if (status.ok()) status = SyncFile(out, tmp_path);
  std::fclose(out);
  if (!status.ok()) {
    std::remove(tmp_path.c_str());
    return status;
  }
  std::error_code ec;
  std::filesystem::rename(tmp_path, dir_ + "/" + kManifestName, ec);
  if (ec) {
    return Status::Internal("cannot install manifest: " + ec.message());
  }
  return SyncDir(dir_);
}

Status SfcTable::InstallManifest() {
  // Requires mu_ held on entry and returns with it held, but does the
  // expensive part (tmp write + two fsyncs + rename) WITHOUT it, so
  // queries and inserts are not stalled behind manifest durability.
  //
  // The manifest is a full-state snapshot, so correctness only needs every
  // durable manifest to be a consistent snapshot and renames to happen in
  // snapshot order. manifest_mu_ provides exactly that: it is taken first
  // (with mu_ released, keeping the manifest_mu_ -> mu_ acquisition order
  // deadlock-free), then the text is snapshotted under mu_, then mu_ is
  // dropped for the file I/O. A concurrent installer blocks on
  // manifest_mu_ and will snapshot strictly later state.
  mu_.Unlock();
  const MutexLock manifest_lock(manifest_mu_);
  mu_.Lock();
  const std::string text = ManifestTextLocked();
  mu_.Unlock();
  const Status status = WriteManifestFile(text);
  mu_.Lock();
  return status;
}

void SfcTable::StartWorker() {
  if (workers_ == nullptr) {
    owned_workers_ = std::make_unique<WorkerPool>(1);
    // A standalone table reports its private pool through its own
    // registry; a db-owned table's shared pool reports through the db's.
    owned_workers_->SetMetrics(metrics_->histogram("workers.task_wait_us"),
                               metrics_->counter("workers.tasks_run"));
    workers_ = owned_workers_.get();
  }
  const WorkerPool::ClientId client =
      workers_->Register([this] { return RunBackgroundWork(); });
  // worker_client_ is mu_-guarded: NotifyWorkerLocked and StopWorker read
  // it there, and a table reopened after Close() restarts concurrently
  // with in-flight readers.
  const WriterLock lock(mu_);
  worker_client_ = client;
}

void SfcTable::StopWorker() {
  WorkerPool::ClientId client = 0;
  {
    const WriterLock lock(mu_);
    client = worker_client_;
    worker_client_ = 0;
  }
  // Unregister blocks until in-flight work completes; it must run without
  // mu_ (the worker's callback takes mu_ itself).
  if (client != 0 && workers_ != nullptr) workers_->Unregister(client);
}

void SfcTable::NotifyWorkerLocked() {
  if (workers_ != nullptr && worker_client_ != 0) {
    workers_->Notify(worker_client_);
  }
}

bool SfcTable::RunBackgroundWork() {
  const WriterLock lock(mu_);
  if (!background_error_.ok()) return false;
  if (!pending_.empty()) {
    FlushPendingLocked();
  } else if (compaction_pending_) {
    RunCompactionLocked();
  } else {
    return false;
  }
  return background_error_.ok() &&
         (!pending_.empty() || compaction_pending_);
}

Result<std::unique_ptr<SfcTable>> SfcTable::Create(
    const std::string& dir, const std::string& curve_name,
    const Universe& universe, const SfcTableOptions& options) {
  return CreateWithShared(dir, curve_name, universe, options,
                          SharedResources{});
}

Result<std::unique_ptr<SfcTable>> SfcTable::Open(
    const std::string& dir, const SfcTableOptions& options) {
  return OpenWithShared(dir, options, SharedResources{});
}

Result<std::unique_ptr<SfcTable>> SfcTable::CreateWithShared(
    const std::string& dir, const std::string& curve_name,
    const Universe& universe, const SfcTableOptions& options,
    const SharedResources& shared) {
  const Status valid = ValidateOptions(options);
  if (!valid.ok()) return valid;
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    return Status::Internal("cannot create table directory " + dir + ": " +
                            ec.message());
  }
  if (std::filesystem::exists(dir + "/" + kManifestName)) {
    return Status::InvalidArgument("table already exists in " + dir);
  }
  auto curve = MakeCurve(curve_name, universe);
  if (!curve.ok()) return curve.status();
  std::unique_ptr<SfcTable> table(
      new SfcTable(dir, std::move(curve).value(), options, shared));
  Status status;
  {
    const WriterLock lock(table->mu_);
    status = table->InstallManifest();
  }
  if (!status.ok()) return status;
  // The table group-commits fsyncs itself (see Insert), so the writer is
  // always created in flush-to-OS mode.
  auto wal = WalWriter::Create(table->WalPath(0), /*fsync_each_append=*/false);
  if (!wal.ok()) return wal.status();
  table->wal_ = std::move(wal).value();
  table->wal_->set_metrics(table->TableWalMetrics());
  table->wal_files_ = {table->WalFileName(0)};
  table->max_wal_id_ = 0;
  table->next_wal_id_ = 1;
  table->StartWorker();
  return table;
}

Result<std::unique_ptr<SfcTable>> SfcTable::OpenWithShared(
    const std::string& dir, const SfcTableOptions& options,
    const SharedResources& shared) {
  const Status valid = ValidateOptions(options);
  if (!valid.ok()) return valid;
  std::ifstream in(dir + "/" + kManifestName);
  if (!in) {
    return Status::NotFound("no table manifest in " + dir);
  }
  std::string format;
  int version = 0;
  in >> format >> version;
  if (!in || format != kManifestFormat) {
    return Status::InvalidArgument("bad manifest format in " + dir);
  }
  if (version != kManifestVersion) {
    return Status::InvalidArgument("unsupported manifest version " +
                                   std::to_string(version) + " in " + dir);
  }
  std::string curve_name;
  int dims = 0;
  Coord side = 0;
  uint32_t entries_per_page = 0;
  uint64_t next_segment_id = 0;
  std::optional<uint64_t> wal_floor;
  std::optional<uint64_t> last_sequence;
  bool has_codec = false;
  std::optional<uint32_t> filter_bits_per_key;
  std::vector<std::pair<int, std::string>> segment_files;  // (level, file)
  std::string field;
  while (in >> field) {
    if (field == "curve") {
      in >> curve_name;
    } else if (field == "dims") {
      in >> dims;
    } else if (field == "side") {
      in >> side;
    } else if (field == "entries_per_page") {
      in >> entries_per_page;
    } else if (field == "codec") {
      std::string codec_name;
      in >> codec_name;
      if (codec_name != kRawPageCodecName) {
        return Status::InvalidArgument("unsupported manifest codec '" +
                                       codec_name + "' in " + dir);
      }
      has_codec = true;
    } else if (field == "filter_bits_per_key") {
      in >> filter_bits_per_key.emplace();
    } else if (field == "next_segment_id") {
      in >> next_segment_id;
    } else if (field == "wal_floor") {
      in >> wal_floor.emplace();
    } else if (field == "last_sequence") {
      in >> last_sequence.emplace();
    } else if (field == "segment") {
      int level = 0;
      std::string file;
      in >> level >> file;
      if (level < 0) {
        return Status::InvalidArgument("negative segment level in " + dir);
      }
      segment_files.emplace_back(level, file);
    } else {
      return Status::InvalidArgument("unknown manifest field '" + field +
                                     "' in " + dir);
    }
  }
  if (curve_name.empty() || dims < 1 || side < 1 || entries_per_page < 1 ||
      !has_codec || !filter_bits_per_key || !wal_floor || !last_sequence) {
    return Status::InvalidArgument("incomplete manifest in " + dir);
  }

  auto curve = MakeCurve(curve_name, Universe(dims, side));
  if (!curve.ok()) return curve.status();
  SfcTableOptions effective = options;
  // Page geometry and filter budget are properties of the table on disk,
  // not of the caller.
  effective.entries_per_page = entries_per_page;
  effective.filter_bits_per_key = *filter_bits_per_key;
  const Status revalid = ValidateOptions(effective);
  if (!revalid.ok()) return revalid;
  std::unique_ptr<SfcTable> table(
      new SfcTable(dir, std::move(curve).value(), effective, shared));
  table->next_segment_id_ = next_segment_id;
  table->wal_floor_ = *wal_floor;
  table->flushed_seq_ = *last_sequence;
  for (const auto& [level, file] : segment_files) {
    auto reader = SegmentReader::Open(table->SegmentPath(file));
    if (!reader.ok()) return reader.status();
    TableSegment segment{std::move(reader).value(), file, level};
    if (level == 0) {
      table->l0_.push_back(std::move(segment));
    } else {
      if (static_cast<int>(table->levels_.size()) < level) {
        table->levels_.resize(level);
      }
      table->levels_[level - 1].push_back(std::move(segment));
    }
  }
  for (auto& level_segments : table->levels_) {
    SortByMinKey(&level_segments);
    for (size_t i = 1; i < level_segments.size(); ++i) {
      if (level_segments[i].reader->min_key() <=
          level_segments[i - 1].reader->max_key()) {
        return Status::InvalidArgument(
            "overlapping segments within a level in " + dir);
      }
    }
  }

  // Crash recovery: replay every live WAL file (in id order) into the
  // memtable. Files below the manifest's wal_floor are fenced — their
  // entries are already in segments — and are garbage-collected here.
  std::vector<std::pair<uint64_t, std::string>> wal_files;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    uint64_t id = 0;
    const std::string name = entry.path().filename().string();
    if (ParseWalFileName(name, &id)) wal_files.emplace_back(id, name);
  }
  if (ec) {
    return Status::Internal("cannot list table directory " + dir + ": " +
                            ec.message());
  }
  std::sort(wal_files.begin(), wal_files.end());
  uint64_t max_seen_id = 0;
  // Recovered sequence watermark: starts at the manifest's last_sequence
  // (everything in segments) and advances over replayed WAL ops.
  uint64_t recovered_seq = *last_sequence;
  for (size_t i = 0; i < wal_files.size(); ++i) {
    const auto& [id, name] = wal_files[i];
    max_seen_id = std::max(max_seen_id, id);
    if (id < *wal_floor) {
      std::remove((dir + "/" + name).c_str());  // fenced: pure GC
      continue;
    }
    auto replayed = ReplayWal(
        dir + "/" + name,
        [&](Key key, uint64_t payload, uint64_t sequence, bool tombstone) {
          recovered_seq = std::max(recovered_seq, sequence);
          table->memtable_.Insert(key, payload, PackSeq(sequence, tombstone));
        });
    if (!replayed.ok()) {
      // A torn header can only happen to the newest WAL (crash during its
      // creation); anywhere else it means real corruption. A whole header
      // with a foreign magic or version is refused wherever it sits.
      if (replayed.status().code() == StatusCode::kCorruption &&
          i + 1 == wal_files.size()) {
        table->wal_files_.push_back(name);  // fenced off at next flush
        continue;
      }
      return replayed.status();
    }
    table->wal_files_.push_back(name);
  }
  table->max_wal_id_ = max_seen_id;
  table->next_wal_id_ = std::max(*wal_floor, max_seen_id + 1);
  table->next_seq_ = recovered_seq + 1;
  table->last_applied_seq_.store(recovered_seq, std::memory_order_release);

  const uint64_t active_id = table->next_wal_id_++;
  auto wal = WalWriter::Create(table->WalPath(active_id),
                               /*fsync_each_append=*/false);
  if (!wal.ok()) return wal.status();
  table->wal_ = std::move(wal).value();
  table->wal_->set_metrics(table->TableWalMetrics());
  table->wal_files_.push_back(table->WalFileName(active_id));
  table->max_wal_id_ = active_id;
  table->StartWorker();
  return table;
}

uint64_t SfcTable::size() const {
  const ReaderLock lock(mu_);
  uint64_t total = memtable_.size();
  for (const PendingMemtable& batch : pending_) {
    if (!batch.installed) total += batch.mem.size();
  }
  for (const TableSegment& segment : l0_) {
    total += segment.reader->num_entries();
  }
  for (const auto& level_segments : levels_) {
    for (const TableSegment& segment : level_segments) {
      total += segment.reader->num_entries();
    }
  }
  return total;
}

size_t SfcTable::num_segments() const {
  const ReaderLock lock(mu_);
  size_t count = l0_.size();
  for (const auto& level_segments : levels_) count += level_segments.size();
  return count;
}

uint64_t SfcTable::memtable_entries() const {
  const ReaderLock lock(mu_);
  uint64_t total = memtable_.size();
  for (const PendingMemtable& batch : pending_) {
    if (!batch.installed) total += batch.mem.size();
  }
  return total;
}

size_t SfcTable::pending_memtables() const {
  const ReaderLock lock(mu_);
  return pending_.size();
}

std::vector<SegmentInfo> SfcTable::SegmentInfos() const {
  const ReaderLock lock(mu_);
  std::vector<SegmentInfo> infos;
  const auto add = [&](const TableSegment& segment) {
    infos.push_back(SegmentInfo{segment.file, segment.level,
                                segment.reader->min_key(),
                                segment.reader->max_key(),
                                segment.reader->num_entries(),
                                segment.reader->file_bytes(),
                                segment.reader->format_version(),
                                segment.reader->filter_bytes()});
  };
  for (const TableSegment& segment : l0_) add(segment);
  for (const auto& level_segments : levels_) {
    for (const TableSegment& segment : level_segments) add(segment);
  }
  return infos;
}

Status SfcTable::Insert(const Cell& cell, uint64_t payload) {
  if (!curve_->universe().Contains(cell)) {
    return Status::OutOfRange("cell outside the table's universe: " +
                              cell.ToString());
  }
  const WalOp op{curve_->IndexOf(cell), payload, /*tombstone=*/false};
  return WriteOps(&op, 1);
}

Status SfcTable::Delete(const Cell& cell) {
  if (!curve_->universe().Contains(cell)) {
    return Status::OutOfRange("cell outside the table's universe: " +
                              cell.ToString());
  }
  const WalOp op{curve_->IndexOf(cell), 0, /*tombstone=*/true};
  return WriteOps(&op, 1);
}

Status SfcTable::PrecheckWritableWalLocked() {
  const ReaderLock lock(mu_);
  if (closed_) return Status::InvalidArgument("table is closed: " + dir_);
  return background_error_;
}

uint64_t SfcTable::ReserveSequencesWalLocked(uint64_t count) {
  const uint64_t first = next_seq_;
  next_seq_ += count;
  return first;
}

Status SfcTable::ApplyOpsWalLocked(const WalOp* ops, size_t count,
                                   uint64_t first_seq,
                                   std::shared_ptr<WalWriter>* used_wal,
                                   uint64_t* out_record) {
  WriterLock lock(mu_);
  if (closed_) return Status::InvalidArgument("table is closed: " + dir_);
  if (!background_error_.ok()) return background_error_;
  // Rotate BEFORE buffering so a failed WAL append has not retained any
  // entry — callers can retry without creating duplicates. (This
  // retry-safety covers the append path only: with wal_fsync, a failed
  // GROUP-COMMIT fsync later reports an error for entries that are
  // already buffered — see the wal_fsync caveat in sfc_table.h.)
  if (memtable_.size() >= options_.memtable_flush_entries) {
    const Status status =
        RotateMemtableLocked(options_.memtable_flush_entries);
    if (!status.ok()) return status;
  }
  *used_wal = wal_;  // stable: wal_mu_ (held by the caller) excludes rotation
  lock.Unlock();
  // The WAL file I/O runs with mu_ RELEASED — readers are never stalled
  // behind a record's fflush. One record per commit: replay is
  // all-or-nothing for the whole op batch.
  const Status status =
      (*used_wal)->AppendBatch(ops, count, first_seq, out_record);
  if (!status.ok()) return status;  // nothing buffered: retry-safe
  {
    // Buffering needs only SHARED mu_: the memtable is internally
    // synchronized (per-shard mutexes), and its identity cannot change
    // underneath us — rotation runs under wal_mu_, which the caller
    // holds. Writers therefore never exclude readers while buffering.
    const ReaderLock shared(mu_);
    const obs::ScopedTimer insert_timer(m_.memtable_insert_us);
    for (size_t i = 0; i < count; ++i) {
      memtable_.Insert(ops[i].key, ops[i].payload,
                       PackSeq(first_seq + i, ops[i].tombstone));
    }
  }
  // Publish AFTER buffering: a snapshot at sequence S sees every write
  // with sequence <= S, because applies happen in sequence order (the
  // caller holds wal_mu_ from reservation through here). Monotonic:
  // batch-journal recovery re-applies HISTORIC sequences below what WAL
  // replay already published — regressing would let a post-recovery
  // snapshot hide recovered writes. (Safe read-modify-write: wal_mu_
  // serializes every store.)
  const uint64_t last_seq = first_seq + count - 1;
  if (last_seq > last_applied_seq_.load(std::memory_order_relaxed)) {
    last_applied_seq_.store(last_seq, std::memory_order_release);
  }
  return Status::OK();
}

Status SfcTable::WriteOps(const WalOp* ops, size_t count) {
  // End-to-end commit latency: lock wait + WAL append + buffering +
  // (with wal_fsync) the group-commit fsync.
  const obs::ScopedTimer commit_timer(m_.write_commit_us);
  std::shared_ptr<WalWriter> wal;
  uint64_t record = 0;
  {
    // wal_mu_ serializes writers and pins the active WAL for the duration
    // of this commit; sequence order == append order == apply order.
    const MutexLock wal_lock(wal_mu_);
    const Status status = PrecheckWritableWalLocked();
    if (!status.ok()) return status;
    const uint64_t first_seq = ReserveSequencesWalLocked(count);
    const Status applied = ApplyOpsWalLocked(ops, count, first_seq, &wal,
                                             &record);
    if (!applied.ok()) return applied;
  }
  // Group commit OUTSIDE every lock: concurrent committers pile up behind
  // one leader fsync instead of serializing a disk flush each (the shared
  // wal pointer keeps the writer alive across a concurrent rotation).
  if (options_.wal_fsync) return wal->SyncUpTo(record);
  return Status::OK();
}

Status SfcTable::ReplayCommittedOps(const WalOp* ops, size_t count,
                                    uint64_t first_seq) {
  const MutexLock wal_lock(wal_mu_);
  const Status status = PrecheckWritableWalLocked();
  if (!status.ok()) return status;
  // The record's sequences are history — reuse them verbatim and move the
  // allocator past them.
  next_seq_ = std::max(next_seq_, first_seq + count);
  std::shared_ptr<WalWriter> wal;
  uint64_t record = 0;
  return ApplyOpsWalLocked(ops, count, first_seq, &wal, &record);
}

bool SfcTable::RecoveredStateCoversSequence(uint64_t sequence) const {
  const ReaderLock lock(mu_);
  // Flushed generations hold strictly older sequences than anything
  // unflushed, so the manifest fence is authoritative below it. (Residual
  // caveat: a commit that RETURNED AN ERROR mid-batch burns its sequences
  // without applying; once later writes flush past them this test reads
  // "covered" — acceptable, the caller saw the failure.)
  if (sequence <= flushed_seq_) return true;
  if (memtable_.ContainsSequence(sequence)) return true;
  for (const PendingMemtable& batch : pending_) {
    if (batch.mem.ContainsSequence(sequence)) return true;
  }
  return false;
}

Status SfcTable::SyncWalForRecovery() {
  const MutexLock wal_lock(wal_mu_);
  std::shared_ptr<WalWriter> wal;
  {
    // wal_ is mu_-guarded; wal_mu_ (held) is what pins the writer object
    // against rotation for the Sync below.
    const ReaderLock lock(mu_);
    wal = wal_;
  }
  return wal->Sync();
}

std::shared_ptr<const Snapshot> SfcTable::GetSnapshot() {
  auto* snapshot = new Snapshot{};
  snapshot->created_us = obs::NowMicros();
  {
    // Registering in the same hold that reads the sequence keeps the pin
    // list consistent with what compaction may collect.
    const MutexLock lock(snapshots_->mu);
    snapshot->sequence = last_applied_seq_.load(std::memory_order_acquire);
    snapshots_->pins.insert({snapshot->sequence, snapshot->created_us});
  }
  // The deleter owns the REGISTRY, not the table: releasing a pin after
  // the table is closed or even destroyed unregisters safely (reading
  // through such a pin is still invalid, like using any dangling cursor).
  return std::shared_ptr<const Snapshot>(
      snapshot, [registry = snapshots_](const Snapshot* released) {
        {
          const MutexLock lock(registry->mu);
          const auto it = registry->pins.find(
              {released->sequence, released->created_us});
          if (it != registry->pins.end()) registry->pins.erase(it);
        }
        delete released;
      });
}

std::vector<uint64_t> SfcTable::PinnedSnapshotSequences() const {
  const MutexLock lock(snapshots_->mu);
  std::vector<uint64_t> sequences;
  sequences.reserve(snapshots_->pins.size());
  // The multiset orders by (sequence, created_us), so this stays sorted.
  for (const auto& [sequence, created_us] : snapshots_->pins) {
    sequences.push_back(sequence);
  }
  return sequences;
}

uint64_t SfcTable::OldestSnapshotPinAgeUs() const {
  uint64_t oldest = 0;
  {
    const MutexLock lock(snapshots_->mu);
    // Lowest sequence is not necessarily the earliest pin; scan created_us.
    for (const auto& [sequence, created_us] : snapshots_->pins) {
      if (oldest == 0 || created_us < oldest) oldest = created_us;
    }
  }
  if (oldest == 0) return 0;
  const uint64_t now = obs::NowMicros();
  return now > oldest ? now - oldest : 0;
}

Status SfcTable::RotateMemtableLocked(uint64_t min_entries) {
  // Bounded queue: block while max_pending_memtables generations are
  // already waiting for the background flush. (The wait releases mu_ but
  // keeps the caller's wal_mu_, so no other writer can rotate meanwhile;
  // the min_entries recheck below is defense in depth.)
  while (background_error_.ok() &&
         pending_.size() >= options_.max_pending_memtables) {
    cv_.Wait(mu_);
  }
  if (!background_error_.ok()) return background_error_;
  if (memtable_.size() < min_entries) return Status::OK();
  // Open the next WAL first: if that fails, the current generation stays
  // fully intact and writable.
  const uint64_t id = next_wal_id_;
  auto wal = WalWriter::Create(WalPath(id), /*fsync_each_append=*/false);
  if (!wal.ok()) return wal.status();
  ++next_wal_id_;
  PendingMemtable batch;
  batch.mem = std::move(memtable_);
  batch.wal_files = std::move(wal_files_);
  batch.max_wal_id = max_wal_id_;
  pending_.push_back(std::move(batch));
  memtable_ = MemTable(curve_->num_cells());
  wal_ = std::move(wal).value();
  wal_->set_metrics(TableWalMetrics());
  wal_files_ = {WalFileName(id)};
  max_wal_id_ = id;
  NotifyWorkerLocked();
  cv_.NotifyAll();
  return Status::OK();
}

Status SfcTable::Flush() {
  {
    const MutexLock wal_lock(wal_mu_);
    const WriterLock lock(mu_);
    if (!background_error_.ok()) return background_error_;
    if (!memtable_.empty()) {
      const Status status = RotateMemtableLocked(1);
      if (!status.ok()) return status;
    }
  }  // release wal_mu_: writers may proceed while we wait for the barrier
  const WriterLock lock(mu_);
  // Barrier: everything rotated is durable in segments and the level
  // structure has settled before we return.
  while (background_error_.ok() &&
         !(pending_.empty() && !compaction_pending_ &&
           !compaction_inflight_)) {
    cv_.Wait(mu_);
  }
  return background_error_;
}

Status SfcTable::Close() {
  Status rotate_status;
  {
    const MutexLock wal_lock(wal_mu_);
    const WriterLock lock(mu_);
    // No early return when already closed: EVERY Close() call falls
    // through to the quiesce barrier below, so a second (possibly
    // concurrent) Close() cannot report "flushed and stopped" while the
    // first one's final segment/MANIFEST install is still in flight.
    if (!closed_) {
      closed_ = true;  // writers arriving from here on are refused
      if (background_error_.ok() && !memtable_.empty()) {
        rotate_status = RotateMemtableLocked(1);
      }
    }
  }
  {
    const WriterLock lock(mu_);
    // The predicate includes manual_compaction_: a Compact() that passed
    // its closed_ check before we flipped the flag must finish (and any
    // compaction it re-armed must drain) before the worker is stopped,
    // or it would install manifests into a "closed" table.
    while (background_error_.ok() &&
           !(pending_.empty() && !compaction_pending_ &&
             !compaction_inflight_ && !manual_compaction_)) {
      cv_.Wait(mu_);
    }
    if (rotate_status.ok()) rotate_status = background_error_;
  }
  // Quiesced (or failed): stop background processing either way. Reads
  // stay valid; anything unflushed due to an error is still WAL-durable.
  StopWorker();
  return rotate_status;
}

void SfcTable::SetBackgroundErrorLocked(const Status& status) {
  if (background_error_.ok()) background_error_ = status;
  cv_.NotifyAll();
}

void SfcTable::FlushPendingLocked() {
  // The front reference stays valid while unlocked: only one worker runs
  // this table's background work at a time (WorkerPool guarantee), only
  // that worker pops, and deque growth does not invalidate references.
  PendingMemtable& batch = pending_.front();
  const uint64_t flush_start_us = obs::NowMicros();
  const uint64_t flush_entries = batch.mem.size();
  Status status;
  TableSegment installed;
  if (!batch.mem.empty()) {
    const std::string file = SegmentFileName(next_segment_id_++);
    const std::string path = SegmentPath(file);
    std::shared_ptr<SegmentReader> reader;
    mu_.Unlock();
    {
      SegmentWriter writer(path, WriterOptions());
      status = batch.mem.FlushTo(&writer);
      if (status.ok()) status = writer.Finish();  // fsyncs file + directory
    }
    if (status.ok()) {
      auto opened = SegmentReader::Open(path);
      if (opened.ok()) {
        reader = std::move(opened).value();
      } else {
        status = opened.status();
      }
    }
    mu_.Lock();
    if (!status.ok()) {
      // Never entered the in-memory state, so no manifest can name it.
      std::remove(path.c_str());
      SetBackgroundErrorLocked(status);
      return;
    }
    installed = TableSegment{std::move(reader), file, 0};
    // One atomic visibility flip for readers: the segment appears and the
    // batch disappears from the read path in the same lock hold, so a
    // query during the (unlocked) manifest install below can never see
    // the same entries in both.
    l0_.push_back(installed);
    batch.installed = true;
  }
  const uint64_t old_floor = wal_floor_;
  const uint64_t old_flushed = flushed_seq_;
  wal_floor_ = std::max(wal_floor_, batch.max_wal_id + 1);
  // The manifest's last_sequence fence advances with the segment that
  // makes these sequences durable — the same atomic install that fences
  // the WAL files carrying them.
  flushed_seq_ = std::max(flushed_seq_, batch.mem.max_sequence());
  status = InstallManifest();
  if (!status.ok()) {
    if (installed.reader != nullptr) {
      // Remove by identity — the lock was released during the install, so
      // the segment may no longer be l0_.back(). KEEP the file: a manifest
      // written concurrently may already reference it; unreferenced it is
      // a harmless orphan.
      RemoveSegmentsByIdentityLocked({installed});
      batch.installed = false;
    }
    wal_floor_ = old_floor;
    flushed_seq_ = old_flushed;
    SetBackgroundErrorLocked(status);
    return;
  }
  // The manifest's wal_floor now fences these files; deleting them is GC.
  for (const std::string& wal_file : batch.wal_files) {
    std::remove((dir_ + "/" + wal_file).c_str());
  }
  pending_.pop_front();
  if (installed.reader != nullptr) {
    // Flush duration covers segment write + fsyncs + manifest install —
    // the full cost of making this generation durable.
    const uint64_t dur_us = obs::NowMicros() - flush_start_us;
    const uint64_t bytes = installed.reader->file_bytes();
    m_.flush_us->Record(dur_us);
    m_.flush_count->Increment();
    m_.flush_bytes->Add(bytes);
    m_.flush_entries->Add(flush_entries);
    trace_->Add(obs::TraceEvent{trace_->NextId(), obs::TraceKind::kFlush,
                                installed.file, flush_start_us, dur_us, bytes,
                                flush_entries});
  }
  if (!manual_compaction_ && l0_.size() >= options_.l0_compaction_trigger) {
    compaction_pending_ = true;
  }
  cv_.NotifyAll();
}

bool SfcTable::HasAutoCompactionWorkLocked() const {
  if (l0_.size() >= options_.l0_compaction_trigger) return true;
  for (size_t i = 0; i < levels_.size(); ++i) {
    uint64_t total = 0;
    for (const TableSegment& segment : levels_[i]) {
      total += segment.reader->num_entries();
    }
    if (total > LevelTargetEntries(static_cast<int>(i) + 1)) return true;
  }
  return false;
}

void SfcTable::RunCompactionLocked() {
  compaction_pending_ = false;
  if (manual_compaction_) return;

  // Pick the job: all of L0 into level 1, or the lowest-key prefix of the
  // first over-target level into the next one.
  std::vector<TableSegment> inputs;
  int out_level = 0;
  if (l0_.size() >= options_.l0_compaction_trigger) {
    inputs = l0_;
    out_level = 1;
  } else {
    for (size_t i = 0; i < levels_.size(); ++i) {
      uint64_t total = 0;
      for (const TableSegment& segment : levels_[i]) {
        total += segment.reader->num_entries();
      }
      const uint64_t target = LevelTargetEntries(static_cast<int>(i) + 1);
      if (total <= target) continue;
      uint64_t removed = 0;
      size_t take = 0;
      while (take < levels_[i].size() && total - removed > target) {
        removed += levels_[i][take].reader->num_entries();
        ++take;
      }
      inputs.assign(levels_[i].begin(), levels_[i].begin() + take);
      out_level = static_cast<int>(i) + 2;
      break;
    }
  }
  if (inputs.empty() || out_level < 1) return;

  // Pull in the segments of the output level that overlap the inputs' key
  // span — merging with them is what keeps the level non-overlapping.
  Key span_lo = inputs.front().reader->min_key();
  Key span_hi = inputs.front().reader->max_key();
  for (const TableSegment& segment : inputs) {
    span_lo = std::min(span_lo, segment.reader->min_key());
    span_hi = std::max(span_hi, segment.reader->max_key());
  }
  if (static_cast<int>(levels_.size()) >= out_level) {
    for (const TableSegment& segment : levels_[out_level - 1]) {
      if (segment.reader->max_key() >= span_lo &&
          segment.reader->min_key() <= span_hi) {
        inputs.push_back(segment);
      }
    }
  }

  // While compaction_inflight_ is set (through the manifest install, whose
  // lock-free window would otherwise let a manual Compact() interleave),
  // only this worker thread mutates the segment structure, so wholesale
  // backup/restore of the vectors is a sound rollback.
  compaction_inflight_ = true;

  // A single input with nothing to merge against moves between levels as a
  // manifest-only edit — no reason to rewrite identical bytes.
  if (inputs.size() == 1 && out_level >= 2) {
    const std::vector<TableSegment> l0_backup = l0_;
    const std::vector<std::vector<TableSegment>> levels_backup = levels_;
    TableSegment moved = inputs.front();
    moved.level = out_level;
    RemoveSegmentsByIdentityLocked(inputs);
    if (static_cast<int>(levels_.size()) < out_level) {
      levels_.resize(out_level);
    }
    auto& move_dest = levels_[out_level - 1];
    move_dest.push_back(std::move(moved));
    SortByMinKey(&move_dest);
    const Status status = InstallManifest();
    compaction_inflight_ = false;
    if (!status.ok()) {
      l0_ = l0_backup;
      levels_ = levels_backup;
      SetBackgroundErrorLocked(status);
      return;
    }
    if (HasAutoCompactionWorkLocked()) compaction_pending_ = true;
    cv_.NotifyAll();
    return;
  }
  std::vector<const SegmentReader*> raw;
  raw.reserve(inputs.size());
  for (const TableSegment& segment : inputs) {
    raw.push_back(segment.reader.get());
  }
  const uint64_t max_output_entries = EffectiveLevelSegmentEntries();
  // MVCC retention inputs. Bottom-most iff no level deeper than the
  // output holds any segment: within one level key ranges are disjoint
  // and the merge pulls every overlapping output-level segment, so the
  // only place an older version of a merged key could hide is a deeper
  // level. The snapshot list may gain members while the merge runs
  // unlocked — harmless, because a snapshot taken later pins a sequence
  // >= everything in these inputs, which never changes a drop decision.
  const uint64_t comp_start_us = obs::NowMicros();
  CompactionStats merge_stats;
  CompactionOptions gc;
  gc.stats = &merge_stats;
  gc.snapshots = PinnedSnapshotSequences();
  gc.bottom_level = true;
  for (size_t i = static_cast<size_t>(out_level); i < levels_.size(); ++i) {
    if (!levels_[i].empty()) gc.bottom_level = false;
  }
  mu_.Unlock();

  std::vector<std::string> out_files;
  std::vector<std::unique_ptr<SegmentWriter>> outs;
  auto open_output = [&]() {
    uint64_t id = 0;
    {
      const WriterLock id_lock(mu_);
      id = next_segment_id_++;
    }
    out_files.push_back(SegmentFileName(id));
    return std::make_unique<SegmentWriter>(SegmentPath(out_files.back()),
                                           WriterOptions());
  };
  Status status =
      MergeSegmentsLeveled(raw, max_output_entries, open_output, &outs, gc);
  std::vector<TableSegment> new_segments;
  if (status.ok()) {
    for (size_t i = 0; i < outs.size(); ++i) {
      auto opened = SegmentReader::Open(outs[i]->path());
      if (!opened.ok()) {
        status = opened.status();
        break;
      }
      new_segments.push_back(
          TableSegment{std::move(opened).value(), out_files[i], out_level});
    }
  }

  mu_.Lock();
  if (!status.ok()) {
    compaction_inflight_ = false;
    // The outputs never entered the in-memory state; no manifest can name
    // them, so deleting the files is safe.
    for (const std::string& file : out_files) {
      std::remove(SegmentPath(file).c_str());
    }
    SetBackgroundErrorLocked(status);
    return;
  }
  // Install the new generation; a manifest failure rolls everything back
  // so the in-memory state always matches the manifest on disk.
  const std::vector<TableSegment> l0_backup = l0_;
  const std::vector<std::vector<TableSegment>> levels_backup = levels_;
  RemoveSegmentsByIdentityLocked(inputs);
  if (static_cast<int>(levels_.size()) < out_level) levels_.resize(out_level);
  auto& dest = levels_[out_level - 1];
  dest.insert(dest.end(), new_segments.begin(), new_segments.end());
  SortByMinKey(&dest);
  status = InstallManifest();
  if (!status.ok()) {
    compaction_inflight_ = false;
    l0_ = l0_backup;
    levels_ = levels_backup;
    // KEEP the output files: they entered the state during the install
    // window, so a concurrently written manifest may reference them.
    SetBackgroundErrorLocked(status);
    return;
  }
  uint64_t bytes_rewritten = 0;
  for (const TableSegment& segment : new_segments) {
    bytes_rewritten += segment.reader->file_bytes();
  }
  const uint64_t dur_us = obs::NowMicros() - comp_start_us;
  const uint64_t entries_gcd = merge_stats.entries_in - merge_stats.entries_out;
  m_.compaction_us->Record(dur_us);
  m_.compaction_count->Increment();
  m_.compaction_bytes_rewritten->Add(bytes_rewritten);
  m_.compaction_entries_gcd->Add(entries_gcd);
  trace_->Add(obs::TraceEvent{trace_->NextId(), obs::TraceKind::kCompaction,
                              "L" + std::to_string(out_level), comp_start_us,
                              dur_us, bytes_rewritten, entries_gcd});
  const std::vector<std::string> doomed =
      DetachSegmentsLocked(std::move(inputs));
  // Unlink with compaction_inflight_ still set, so the Flush()/Close()
  // barrier cannot release (and a caller cannot start tearing down the
  // table directory) while retired files are mid-deletion.
  RemoveRetiredFiles(doomed);
  compaction_inflight_ = false;
  if (!manual_compaction_ && HasAutoCompactionWorkLocked()) {
    compaction_pending_ = true;
  }
  cv_.NotifyAll();
}

void SfcTable::RemoveSegmentsByIdentityLocked(
    const std::vector<TableSegment>& gone) {
  const auto is_gone = [&](const TableSegment& segment) {
    for (const TableSegment& g : gone) {
      if (g.reader == segment.reader) return true;
    }
    return false;
  };
  l0_.erase(std::remove_if(l0_.begin(), l0_.end(), is_gone), l0_.end());
  for (auto& level_segments : levels_) {
    level_segments.erase(std::remove_if(level_segments.begin(),
                                        level_segments.end(), is_gone),
                         level_segments.end());
  }
}

void SfcTable::SortByMinKey(std::vector<TableSegment>* segments) {
  std::sort(segments->begin(), segments->end(),
            [](const TableSegment& a, const TableSegment& b) {
              return a.reader->min_key() < b.reader->min_key();
            });
}

std::vector<std::string> SfcTable::DetachSegmentsLocked(
    std::vector<TableSegment> retired) {
  // Also retry earlier failed unlinks (their readers are gone by now).
  std::vector<std::string> doomed = std::move(garbage_files_);
  garbage_files_.clear();
  for (TableSegment& segment : retired) {
    pool_->Drop(segment.reader.get());
    doomed.push_back(SegmentPath(segment.file));
    // In-flight queries may still hold the reader via shared_ptr; on POSIX
    // the open descriptor keeps the unlinked data readable until they
    // finish, while platforms that refuse to delete open files land the
    // path back in garbage_files_ for a later retry.
    segment.reader.reset();
  }
  return doomed;
}

void SfcTable::RemoveRetiredFiles(const std::vector<std::string>& doomed) {
  // File I/O with the table unlocked; only the bookkeeping re-locks.
  mu_.Unlock();
  std::vector<std::string> survivors;
  for (const std::string& path : doomed) {
    if (std::remove(path.c_str()) != 0 && std::filesystem::exists(path)) {
      survivors.push_back(path);
    }
  }
  mu_.Lock();
  garbage_files_.insert(garbage_files_.end(), survivors.begin(),
                        survivors.end());
}

std::vector<SfcTable::TableSegment> SfcTable::AllSegmentsLocked() const {
  std::vector<TableSegment> all = l0_;
  for (const auto& level_segments : levels_) {
    all.insert(all.end(), level_segments.begin(), level_segments.end());
  }
  return all;
}

Status SfcTable::Compact() {
  {
    const ReaderLock lock(mu_);
    if (closed_) return Status::InvalidArgument("table is closed: " + dir_);
  }
  Status status = Flush();
  if (!status.ok()) return status;

  WriterLock lock(mu_);
  // Quiesce background compaction AND any other manual Compact() first:
  // two concurrent compactions over the same inputs would install each
  // other's entries twice.
  while (background_error_.ok() &&
         !(!compaction_inflight_ && !compaction_pending_ &&
           !manual_compaction_)) {
    cv_.Wait(mu_);
  }
  if (!background_error_.ok()) return background_error_;
  // Re-check under the exclusive lock: a Close() may have slipped in
  // between the screening check above and here (its barrier would then
  // wait on manual_compaction_, but refusing is the cleaner outcome).
  if (closed_) return Status::InvalidArgument("table is closed: " + dir_);
  const std::vector<TableSegment> inputs = AllSegmentsLocked();
  // A single segment is still rewritten: the manual Compact() is the
  // explicit GC hook, and a just-released snapshot may have left
  // collectable versions inside the one remaining run.
  if (inputs.empty()) return Status::OK();
  // Deep enough that the single output does not overflow its level's size
  // target (which would just make the worker push it further down).
  uint64_t total_entries = 0;
  for (const TableSegment& segment : inputs) {
    total_entries += segment.reader->num_entries();
  }
  int out_level = 1;
  for (size_t i = 0; i < levels_.size(); ++i) {
    if (!levels_[i].empty()) out_level = static_cast<int>(i) + 1;
  }
  while (LevelTargetEntries(out_level) < total_entries) ++out_level;
  manual_compaction_ = true;  // keeps the worker from scheduling its own
  const uint64_t comp_start_us = obs::NowMicros();
  CompactionStats merge_stats;
  const std::string file = SegmentFileName(next_segment_id_++);
  const std::string path = SegmentPath(file);
  std::vector<const SegmentReader*> raw;
  raw.reserve(inputs.size());
  for (const TableSegment& segment : inputs) {
    raw.push_back(segment.reader.get());
  }
  lock.Unlock();

  std::shared_ptr<SegmentReader> reader;
  {
    // A manual compaction merges EVERY segment, so its output is
    // bottom-most by construction: unpinned shadowed versions and
    // tombstones no snapshot predates are collected here.
    CompactionOptions gc;
    gc.stats = &merge_stats;
    gc.snapshots = PinnedSnapshotSequences();
    gc.bottom_level = true;
    SegmentWriter writer(path, WriterOptions());
    status = MergeSegments(raw, &writer, gc);
    if (status.ok()) status = writer.Finish();
  }
  if (status.ok()) {
    auto opened = SegmentReader::Open(path);
    if (opened.ok()) {
      reader = std::move(opened).value();
    } else {
      status = opened.status();
    }
  }

  lock.Lock();
  if (!status.ok()) {
    manual_compaction_ = false;
    // Never entered the in-memory state, so no manifest can name it.
    std::remove(path.c_str());
    cv_.NotifyAll();
    return status;
  }
  const TableSegment output{std::move(reader), file, out_level};
  RemoveSegmentsByIdentityLocked(inputs);
  if (static_cast<int>(levels_.size()) < out_level) levels_.resize(out_level);
  levels_[out_level - 1].push_back(output);
  SortByMinKey(&levels_[out_level - 1]);
  status = InstallManifest();
  if (!status.ok()) {
    manual_compaction_ = false;
    // Roll back by identity: background flushes may have appended new L0
    // runs during the unlocked install window, so restoring wholesale
    // snapshots of the vectors would clobber them. L0 inputs return to the
    // FRONT (they are older than anything flushed meanwhile); leveled
    // inputs return to their levels, whose disjointness is restored once
    // the output that replaced them is removed again.
    RemoveSegmentsByIdentityLocked({output});
    std::vector<TableSegment> old_l0;
    for (const TableSegment& segment : inputs) {
      if (segment.level == 0) {
        old_l0.push_back(segment);
      } else {
        if (static_cast<int>(levels_.size()) < segment.level) {
          levels_.resize(segment.level);
        }
        levels_[segment.level - 1].push_back(segment);
      }
    }
    l0_.insert(l0_.begin(), old_l0.begin(), old_l0.end());
    for (auto& level_segments : levels_) SortByMinKey(&level_segments);
    // KEEP the output file: a manifest written concurrently by a flush
    // install may already reference it; unreferenced it is an orphan.
    cv_.NotifyAll();
    return status;
  }
  const uint64_t dur_us = obs::NowMicros() - comp_start_us;
  const uint64_t entries_gcd = merge_stats.entries_in - merge_stats.entries_out;
  m_.compaction_us->Record(dur_us);
  m_.compaction_count->Increment();
  m_.compaction_bytes_rewritten->Add(output.reader->file_bytes());
  m_.compaction_entries_gcd->Add(entries_gcd);
  trace_->Add(obs::TraceEvent{trace_->NextId(), obs::TraceKind::kCompaction,
                              file, comp_start_us, dur_us,
                              output.reader->file_bytes(), entries_gcd});
  std::vector<TableSegment> retired = inputs;
  const std::vector<std::string> doomed =
      DetachSegmentsLocked(std::move(retired));
  // Unlink before clearing manual_compaction_ or waking anyone: Compact()
  // must not appear finished while retired files are mid-deletion.
  RemoveRetiredFiles(doomed);
  manual_compaction_ = false;
  // Re-arm background compaction: flushes that arrived during this manual
  // compaction skipped scheduling (manual_compaction_ was set), so L0 may
  // already be over the trigger.
  if (HasAutoCompactionWorkLocked()) {
    compaction_pending_ = true;
    NotifyWorkerLocked();
  }
  cv_.NotifyAll();
  return Status::OK();
}

std::unique_ptr<Cursor> SfcTable::NewBoxCursor(const Box& box,
                                               const ReadOptions& options) {
  if (!curve_->universe().Contains(box)) {
    return NewErrorCursor(Status::InvalidArgument(
        "query box outside the table's universe: " + box.ToString()));
  }
  // DecomposeBox is exact (every key of every range maps into the box),
  // which is the precondition for handing the box to the cursor as a
  // zone-map filter.
  return NewRangesCursor(DecomposeBox(*curve_, box), &box, options);
}

std::unique_ptr<Cursor> SfcTable::NewScanCursor(const ReadOptions& options) {
  const Key num_cells = curve_->universe().num_cells();
  std::vector<KeyRange> ranges;
  if (num_cells > 0) ranges.push_back(KeyRange{0, num_cells - 1});
  return NewRangesCursor(std::move(ranges), nullptr, options);
}

std::unique_ptr<Cursor> SfcTable::NewRangesCursor(std::vector<KeyRange> ranges,
                                                  const Box* query_box,
                                                  const ReadOptions& options) {
  {
    const MutexLock stats_lock(stats_mu_);
    ++read_stats_.queries;
    read_stats_.ranges += ranges.size();
  }

  // Reads above the snapshot sequence are dropped at collection time
  // (cheaper than filtering in the merge); tombstones at or below it are
  // kept — the cursor needs them to hide older segment entries.
  const uint64_t visible_seq = options.snapshot != nullptr
                                   ? options.snapshot->sequence
                                   : kMaxSequence;
  std::vector<Entry> mem_hits;
  SegmentSnapshot snapshot;
  {
    const ReaderLock lock(mu_);
    if (!background_error_.ok()) return NewErrorCursor(background_error_);
    // One pass over each memtable for the whole query (not one per range):
    // the ranges are sorted and disjoint, so membership is a binary search.
    if (!ranges.empty()) {
      const auto scan_memtable = [&](const MemTable& mem) {
        mem.ScanRange(ranges.front().lo, ranges.back().hi,
                      [&](const Entry& entry) {
                        if (SequenceOf(entry.seq) > visible_seq) return;
                        auto it = std::lower_bound(
                            ranges.begin(), ranges.end(), entry.key,
                            [](const KeyRange& range, Key k) {
                              return range.hi < k;
                            });
                        if (it != ranges.end() && it->lo <= entry.key) {
                          mem_hits.push_back(entry);
                        }
                      });
      };
      scan_memtable(memtable_);
      for (const PendingMemtable& batch : pending_) {
        if (!batch.installed) scan_memtable(batch.mem);
      }
    }
    snapshot.l0.reserve(l0_.size());
    for (const TableSegment& segment : l0_) {
      snapshot.l0.push_back(segment.reader);
    }
    snapshot.levels.reserve(levels_.size());
    for (const auto& level_segments : levels_) {
      std::vector<std::shared_ptr<SegmentReader>> level;
      level.reserve(level_segments.size());
      for (const TableSegment& segment : level_segments) {
        level.push_back(segment.reader);
      }
      snapshot.levels.push_back(std::move(level));
    }
  }
  // Everything below runs WITHOUT the table lock: the cursor owns the
  // snapshot and later flushes/compactions cannot disturb it.
  if (!mem_hits.empty()) {
    const MutexLock stats_lock(stats_mu_);
    read_stats_.memtable_entries += mem_hits.size();
  }
  std::sort(mem_hits.begin(), mem_hits.end(),
            [](const Entry& a, const Entry& b) {
              if (a.key != b.key) return a.key < b.key;
              return a.payload < b.payload;
            });
  return NewSnapshotCursor(curve_.get(), std::move(ranges), query_box,
                           std::move(mem_hits), std::move(snapshot), pool_,
                           &io_stats_, options, m_.cursor_next_us);
}

Result<std::vector<uint64_t>> SfcTable::Get(const Cell& cell,
                                            const ReadOptions& options) {
  if (!curve_->universe().Contains(cell)) {
    return Status::OutOfRange("cell outside the table's universe: " +
                              cell.ToString());
  }
  const Key key = curve_->IndexOf(cell);
  const auto cursor = NewRangesCursor({KeyRange{key, key}}, nullptr, options);
  std::vector<uint64_t> payloads;
  for (; cursor->Valid(); cursor->Next()) {
    payloads.push_back(cursor->entry().payload);
  }
  if (!cursor->status().ok()) return cursor->status();
  return payloads;
}

TableReadStats SfcTable::read_stats() const {
  const MutexLock stats_lock(stats_mu_);
  return read_stats_;
}

void SfcTable::ResetStats() {
  {
    const MutexLock stats_lock(stats_mu_);
    read_stats_.Reset();
  }
  io_stats_.Reset();
}

std::string SfcTable::DumpMetrics(obs::MetricsFormat format) const {
  // Refresh the gauges that are derived state rather than event streams,
  // so every dump reflects the structure at dump time.
  {
    const ReaderLock lock(mu_);
    metrics_->gauge("memtable.entries")
        ->Set(static_cast<int64_t>(memtable_.size()));
    metrics_->gauge("memtable.bytes")
        ->Set(static_cast<int64_t>(memtable_.ApproximateBytes()));
    metrics_->gauge("pending.memtables")
        ->Set(static_cast<int64_t>(pending_.size()));
    size_t segments = l0_.size();
    for (const auto& level_segments : levels_) {
      segments += level_segments.size();
    }
    metrics_->gauge("segments.live")->Set(static_cast<int64_t>(segments));
  }
  metrics_->gauge("snapshot.oldest_pin_age_us")
      ->Set(static_cast<int64_t>(OldestSnapshotPinAgeUs()));

  const IoStats io = io_stats_.Snapshot();
  const TableReadStats reads = read_stats();
  const uint64_t pool_touches = io.page_reads + io.cache_hits;
  const double hit_ratio =
      pool_touches > 0 ? static_cast<double>(io.cache_hits) / pool_touches
                       : 0.0;
  const uint64_t candidates = pool_touches + io.pages_skipped_by_filter;
  const double skip_ratio =
      candidates > 0
          ? static_cast<double>(io.pages_skipped_by_filter) / candidates
          : 0.0;
  std::string name = std::filesystem::path(dir_).filename().string();
  if (name.empty()) name = dir_;

  if (format == obs::MetricsFormat::kPrometheus) {
    std::string labels = "table=\"";
    obs::AppendJsonEscaped(&labels, name);  // JSON escapes satisfy Prometheus
    labels += "\"";
    std::string out;
    metrics_->AppendPrometheus(&out, labels);
    io.ForEachField([&](const char* field, uint64_t value) {
      const std::string metric = "onion_io_" + std::string(field);
      out += "# TYPE " + metric + " counter\n";
      out += metric + "{" + labels + "} " + std::to_string(value) + "\n";
    });
    out += "# TYPE onion_pool_hit_ratio gauge\n";
    out += "onion_pool_hit_ratio{" + labels + "} ";
    obs::AppendJsonDouble(&out, hit_ratio);
    out += "\n# TYPE onion_filter_skip_ratio gauge\n";
    out += "onion_filter_skip_ratio{" + labels + "} ";
    obs::AppendJsonDouble(&out, skip_ratio);
    out += "\n";
    return out;
  }

  std::string out = "{\"table\":\"";
  obs::AppendJsonEscaped(&out, name);
  out += "\",";
  metrics_->AppendJsonMembers(&out);
  out += ",\"io\":{";
  bool first = true;
  io.ForEachField([&](const char* field, uint64_t value) {
    if (!first) out += ",";
    first = false;
    out += "\"" + std::string(field) + "\":" + std::to_string(value);
  });
  out += "},\"read\":{\"queries\":" + std::to_string(reads.queries) +
         ",\"ranges\":" + std::to_string(reads.ranges) +
         ",\"memtable_entries\":" + std::to_string(reads.memtable_entries) +
         "},\"derived\":{\"pool_hit_ratio\":";
  obs::AppendJsonDouble(&out, hit_ratio);
  out += ",\"filter_skip_ratio\":";
  obs::AppendJsonDouble(&out, skip_ratio);
  out += "}}";
  return out;
}

}  // namespace onion::storage
