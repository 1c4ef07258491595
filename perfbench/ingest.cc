// ingest: sustained batched writes into an indexed table.
//
// Table: 2D `onion` over 4096^2 with a `hilbert` secondary index over the
// identity (`cell`) extractor. Set-up loads 262144 entries in-process and
// compacts both tables; then one connection sends
// WriteBatches of 256 Puts in a closed loop (each waits for its
// acknowledgement), 2M entries at distinct seeded cells in total; the
// server expands every batch with its index entries (BATCHLOG), logs it
// (WAL, never fsynced) and buffers it in the memtables, and the two
// storage workers flush and compact behind it: 31 flushes and 7
// L0 compactions per table. The driver calls the Flush() barrier after
// every 262144 entries (see kCheckpointEntries), so flushes overlap the
// writes but each compaction runs at a fixed point of the stream. The
// work is a fixed size rather than a fixed time, because an LSM's cost
// per entry grows with what it already holds: a faster build must not be
// charged for ingesting more. Time runs from the first send to the
// return of the Flush() barrier after the last acknowledgement.
// Afterwards a full scan of the table and of its index must count
// exactly the preload plus 2M entries, with the expected checksum.
//
// The traced run repeats the whole round from a fresh database with the
// same seed, with spans around every Write and every barrier, and
// requires both rounds to report identical flush.bytes and compaction
// bytes: the schedule depends only on the entry count, so any difference
// means the input or the write path was not deterministic.

#include <algorithm>

#include "common.h"
#include "net/client.h"
#include "storage/index_spec.h"

namespace perfbench {
namespace {

using onion::Cell;

constexpr int kSideBits = 12;
constexpr onion::Coord kSide = 1u << kSideBits;
constexpr uint64_t kEntries = 2'000'000;
constexpr uint64_t kBatch = 256;
// A Flush() barrier after every 4 memtables' worth of entries (64k each,
// the default flush size; 4 is the default L0 compaction trigger). Left
// to race the writer, compaction merged whatever L0 held when a worker
// got to it: over 4M entries the bytes rewritten varied by 12% and the
// throughput by 24% between runs of one seed. With the barrier the
// schedule depends on the entry count alone.
constexpr uint64_t kCheckpointEntries = 4 * 64 * 1024;
// Entries loaded in-process during set-up, so the timed writes land in a
// table that already holds data in L1 (and set-up is real work rather
// than a few fsyncs, whose latency swung 3.5-17.6 ms between runs).
constexpr uint64_t kPreload = kCheckpointEntries;
constexpr uint64_t kPoolPages = 4096;
constexpr int kSetupReps = 3;
constexpr const char* kTable = "events";
constexpr const char* kIndex = "hix";
// User bytes of one entry: a 2D cell (2 x u32) and a u64 payload.
constexpr double kUserBytesPerEntry = 16;

/// The ingested table and its hidden index table.
struct TablePair {
  onion::storage::SfcTable* base = nullptr;
  onion::storage::SfcTable* index = nullptr;
  /// A counter summed over both tables.
  uint64_t Counter(const char* name) const {
    return base->metrics().counter(name)->value() +
           index->metrics().counter(name)->value();
  }
  /// A histogram of both tables, from now on.
  HistogramDelta Histogram(const char* name) const {
    return HistogramDelta({base->metrics().histogram(name),
                           index->metrics().histogram(name)});
  }
};

struct RoundResult {
  std::vector<double> batch_us;
  double seconds = 0;        // first send -> Flush() return
  double drain_s = 0;        // last acknowledgement -> Flush() return
  double late_us_max = 0;    // longest gap between an ack and the next send
  CpuTime server_cpu;
  double driver_us = 0;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t expected_checksum = 0;
  // Exact counts of the round (both tables).
  uint64_t flush_bytes = 0;
  uint64_t rewritten = 0;
  uint64_t compactions = 0;
};

class Ingest {
 public:
  Ingest(const Args& args, Report* report)
      : args_(args), report_(report), dir_(args.dir + "/ingest") {}

  void Run();

 private:
  bool SetUp();
  bool RunRound(Tracer* tracer, RoundResult* out);
  void Verify(const RoundResult& round);
  void Teardown() {
    client_.Disconnect();
    engine_.Shutdown();
  }

  const Args& args_;
  Report* report_;
  const std::string dir_;
  Engine engine_;
  TablePair tables_;
  uint64_t preload_checksum_ = 0;
  onion::net::SfcClient client_;
};

bool Ingest::SetUp() {
  ResetDir(dir_);
  if (!engine_.Open(dir_, kPoolPages, report_)) return false;
  auto created =
      engine_.db->CreateTable(kTable, "onion", onion::Universe(2, kSide));
  if (!created.ok()) {
    report_->Fail("CreateTable: " + created.status().ToString());
    return false;
  }
  const onion::Status indexed =
      engine_.db->CreateIndex(kTable, {kIndex, "cell", "hilbert"});
  auto index = engine_.db->IndexTable(kTable, kIndex);
  if (!indexed.ok() || !index.ok()) {
    report_->Fail("CreateIndex failed");
    return false;
  }
  tables_.base = created.value();
  tables_.index = index.value();
  const CellPermutation perm(args_.seed, kSideBits);
  onion::storage::WriteBatch batch;
  preload_checksum_ = 0;
  for (uint64_t i = kEntries; i < kEntries + kPreload; ++i) {
    const Cell cell = perm(i);
    const uint64_t payload = PayloadOf(args_.seed, cell);
    batch.Put(kTable, cell, payload);
    preload_checksum_ += EntryHash({cell, payload, 0});
    if (batch.size() == 4096) {
      const onion::Status st = engine_.db->Write(std::move(batch));
      if (!st.ok()) {
        report_->Fail("preload Write: " + st.ToString());
        return false;
      }
      batch = onion::storage::WriteBatch();
    }
  }
  for (onion::storage::SfcTable* t : {tables_.base, tables_.index}) {
    if (!t->Flush().ok() || !t->Compact().ok()) {
      report_->Fail("preload Flush/Compact failed");
      return false;
    }
  }
  if (!engine_.StartServer(report_)) return false;
  const onion::Status st =
      client_.Connect("127.0.0.1", engine_.server->port());
  if (!st.ok()) {
    report_->Fail("SfcClient::Connect: " + st.ToString());
    return false;
  }
  return true;
}

bool Ingest::RunRound(Tracer* tracer, RoundResult* out) {
  const CellPermutation perm(args_.seed, kSideBits);
  out->batch_us.reserve(kEntries / kBatch);
  const uint64_t flush0 = tables_.Counter("flush.bytes");
  const uint64_t rewritten0 = tables_.Counter("compaction.bytes_rewritten");
  const uint64_t compactions0 = tables_.Counter("compaction.count");
  const ServerCpuMeter cpu;
  const uint64_t start = NowNs();
  uint64_t last_ack = start;
  for (uint64_t first = 0; first < kEntries; first += kBatch) {
    onion::storage::WriteBatch batch;
    for (uint64_t i = first; i < std::min(first + kBatch, kEntries); ++i) {
      const Cell cell = perm(i);
      const uint64_t payload = PayloadOf(args_.seed, cell);
      batch.Put(kTable, cell, payload);
      out->expected_checksum += EntryHash({cell, payload, 0});
    }
    const uint64_t t0 = NowNs();
    out->late_us_max = std::max(out->late_us_max, (t0 - last_ack) / 1e3);
    ++out->attempted;
    onion::Status st;
    {
      const ScopedSpan span(tracer, "client.write", first / kBatch);
      st = client_.Write(batch);
    }
    last_ack = NowNs();
    if (!st.ok()) {
      ++out->failed;
      report_->Fail("WriteBatch failed: " + st.ToString());
      return false;
    }
    out->batch_us.push_back((last_ack - t0) / 1e3);
    const uint64_t written = first + kBatch;
    if (written % kCheckpointEntries == 0 && written < kEntries) {
      const ScopedSpan span(tracer, "db.checkpoint", first / kBatch);
      if (!tables_.base->Flush().ok() || !tables_.index->Flush().ok()) {
        report_->Fail("checkpoint Flush barrier failed");
        return false;
      }
      last_ack = NowNs();  // the barrier is not driver lateness
    }
  }
  {
    const ScopedSpan span(tracer, "db.flush", kEntries / kBatch);
    if (!tables_.base->Flush().ok() || !tables_.index->Flush().ok()) {
      report_->Fail("Flush barrier failed");
      return false;
    }
  }
  const uint64_t end = NowNs();
  cpu.Stop(&out->server_cpu, &out->driver_us);
  out->seconds = (end - start) / 1e9;
  out->drain_s = (end - last_ack) / 1e9;
  out->flush_bytes = tables_.Counter("flush.bytes") - flush0;
  out->rewritten = tables_.Counter("compaction.bytes_rewritten") - rewritten0;
  out->compactions = tables_.Counter("compaction.count") - compactions0;
  return true;
}

void Ingest::Verify(const RoundResult& round) {
  for (onion::storage::SfcTable* t : {tables_.base, tables_.index}) {
    uint64_t count = 0, checksum = 0;
    if (!Drain(t->NewScanCursor().get(), &count, &checksum) ||
        count != kPreload + kEntries) {
      report_->Fail("full scan of " + t->dir() + " counted " +
                    std::to_string(count) + " entries, expected " +
                    std::to_string(kPreload + kEntries));
    } else if (t == tables_.base &&
               checksum != preload_checksum_ + round.expected_checksum) {
      report_->Fail("full scan checksum differs from the ingested entries");
    }
  }
}

void Ingest::Run() {
  report_->Note("table", "onion 4096^2 + hilbert cell index, pool 4096 "
                         "pages, 262144 entries loaded in set-up");
  report_->Note("mix", "closed loop, 1 connection, WriteBatch of 256 Puts, "
                       "2000000 entries, Flush() every 262144 entries");
  report_->Note("flush_policy", "wal_fsync=false");

  std::vector<double> setup_s;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    if (rep > 0) Teardown();
    const uint64_t t0 = NowNs();
    if (!SetUp()) return;
    setup_s.push_back((NowNs() - t0) / 1e9);
  }

  Tracer off(false);
  RoundResult round;
  const bool ok = RunRound(&off, &round);
  report_->CountOps(round.attempted, round.failed);
  if (!ok) return;
  const double disk_bytes = static_cast<double>(DirBytes(dir_));
  Verify(round);

  const std::vector<double>& batch_us = round.batch_us;
  report_->EndToEnd("setup_s", "s", Median(setup_s), setup_s.size());
  report_->EndToEnd("server_cpu_us_per_op", "us",
                    round.server_cpu.total_us() / kEntries, kEntries);
  report_->EndToEnd("disk_bytes_per_entry", "B",
                    disk_bytes / (kPreload + kEntries));

  std::string tail;
  report_->Layer("batch_p50_us", "us", Median(batch_us), batch_us.size());
  report_->Layer("batch_p99_us", "us", SupportedTail(batch_us, &tail),
                 batch_us.size());
  report_->Note("batch_tail_percentile", tail);
  report_->Layer("ingest_entries_per_s", "1/s", kEntries / round.seconds,
                 kEntries);
  report_->Layer("ingest.drain_s", "s", round.drain_s);
  report_->Layer("driver.late_us_max", "us", round.late_us_max,
                 round.attempted);
  report_->Layer("driver.cpu_us_per_op", "us", round.driver_us / kEntries,
                 kEntries);
  report_->Note("compactions", std::to_string(round.compactions));
  report_->Note("compaction_bytes_rewritten", std::to_string(round.rewritten));

  if (args_.trace) {
    // The same round again from a fresh database, with spans.
    Teardown();
    if (!SetUp()) return;
    onion::obs::MetricsRegistry& db = engine_.db->metrics();
    Tracer tracer(true);
    const HistogramDelta request_us(db.histogram("net.request_us"));
    const HistogramDelta batch_commit(db.histogram("db.batch_commit_us"));
    const HistogramDelta task_wait(db.histogram("workers.task_wait_us"));
    const HistogramDelta flush_us = tables_.Histogram("flush.us");
    const HistogramDelta compaction_us = tables_.Histogram("compaction.us");
    const HistogramDelta insert_us = tables_.Histogram("memtable.insert_us");
    const HistogramDelta append_us = tables_.Histogram("wal.append_us");
    const HistogramDelta commit_us = tables_.Histogram("write.commit_us");
    RoundResult traced;
    const bool t_ok = RunRound(&tracer, &traced);
    report_->CountOps(traced.attempted, traced.failed);
    if (!t_ok) return;
    Verify(traced);
    if (traced.flush_bytes != round.flush_bytes ||
        traced.rewritten != round.rewritten) {
      report_->Fail("exact-count self-check: the same seed wrote flush.bytes " +
                    std::to_string(round.flush_bytes) + " then " +
                    std::to_string(traced.flush_bytes) + ", rewrote " +
                    std::to_string(round.rewritten) + " then " +
                    std::to_string(traced.rewritten) + " compaction bytes");
    }

    const CpuTime& cpu = traced.server_cpu;
    report_->Layer("trace.overhead_pct", "%",
                   (Median(traced.batch_us) / Median(batch_us) - 1) * 100,
                   traced.batch_us.size());
    report_->Layer("trace.spans", "count", static_cast<double>(tracer.size()));
    report_->LayerMeanUs("net.request_us_mean", request_us);
    report_->Layer("net.user_us_per_op", "us", cpu.user_us / kEntries,
                   kEntries);
    report_->Layer("net.sys_us_per_op", "us", cpu.sys_us / kEntries,
                   kEntries);
    report_->LayerMeanUs("db.batch_commit_us_mean", batch_commit);
    report_->LayerMeanUs("memtable.insert_us_mean", insert_us);
    report_->LayerMeanUs("wal.append_us_mean", append_us);
    report_->LayerMeanUs("write.commit_us_mean", commit_us);
    report_->LayerMeanUs("workers.task_wait_us_mean", task_wait);
    report_->Layer("flush.count", "count", flush_us.count());
    report_->Layer("flush.us_total", "us", flush_us.sum());
    report_->Layer("flush.bytes", "B", traced.flush_bytes);
    report_->Layer("compaction.count", "count", compaction_us.count());
    report_->Layer("compaction.us_total", "us", compaction_us.sum());
    report_->Layer("compaction.write_amp", "ratio",
                   (traced.flush_bytes + traced.rewritten) /
                       (kEntries * kUserBytesPerEntry));
    const std::string trace_path = args_.dir + "/trace_ingest.json";
    if (tracer.WriteJson(trace_path)) report_->Note("spans", trace_path);
  }
  Teardown();
  RemoveDir(dir_);
}

}  // namespace

void RunIngest(const Args& args, Report* report) {
  Ingest workload(args, report);
  workload.Run();
}

}  // namespace perfbench
