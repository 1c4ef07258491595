// box_scan: closed-loop box queries over a table larger than the pool.
//
// Table: 2D `onion` over 2048^2 holding 2M entries (about 7.8k pages of
// 256 entries) plus a `hilbert` secondary index over the identity
// (`cell`) extractor, both compacted, served through a 1024-page pool.
// One connection keeps one query in flight, as a scan client that waits
// for its result does. Queries repeat the cycle
//   side-8 box, side-128 box, side-8 box, side-32 box via the index
// with uniform corners: side 8 is seek-bound (the paper's clustering
// regime), side 128 is transfer- and decode-bound, and the index box adds
// index-table scanning plus base-row resolution. The timed phase is
// read-only. Each query is timed from the cursor open to the last chunk;
// afterwards every result is compared, by count and checksum, with an
// in-process read of the base table over the same box (for index
// queries that also proves index rows equal base rows).
//
// The traced run adds the per-layer split: in-process drains of the same
// boxes (storage share), DecomposeBox timings, index resolution cost, and
// an exact-count probe: a fixed seeded query list run twice from a cold
// pool (database closed and reopened before each pass). Both passes must
// report identical ranges, seeks, page reads, disk bytes and entries per
// query class, or the run fails.

#include <algorithm>
#include <array>

#include "common.h"
#include "index/decompose.h"
#include "net/client.h"
#include "storage/index_spec.h"

namespace perfbench {
namespace {

using onion::Box;
using onion::Cell;
using onion::Coord;

constexpr int kSideBits = 11;
constexpr Coord kSide = 1u << kSideBits;
constexpr uint64_t kEntries = 2'000'000;
constexpr uint64_t kPoolPages = 1024;
constexpr int kSetupReps = 2;
constexpr const char* kTable = "boxes";
constexpr const char* kIndex = "hix";
constexpr uint32_t kChunk = 1024;
constexpr int kWarmQueries = 400;
constexpr int kProbePerClass = 32;
constexpr size_t kMaxVerified = 4000;

enum Class { kSmall = 0, kLarge = 1, kIndexBox = 2, kClasses = 3 };
constexpr Coord kClassSide[kClasses] = {8, 128, 32};
constexpr const char* kClassName[kClasses] = {"small", "large", "index"};
constexpr Class kCycle[4] = {kSmall, kLarge, kSmall, kIndexBox};

Box RandomBox(onion::Rng* rng, Class cls) {
  const Coord side = kClassSide[cls];
  const Cell corner(static_cast<Coord>(rng->UniformInclusive(kSide - side)),
                    static_cast<Coord>(rng->UniformInclusive(kSide - side)));
  return Box::Cube(corner, side);
}

struct Query {
  Class cls = kSmall;
  Box box;
  uint64_t count = 0;
  uint64_t checksum = 0;
};

/// Per-class sums of the engine's exact counters over the probe list.
struct ProbeCounts {
  std::array<onion::IoStats, kClasses> io{};
  std::array<uint64_t, kClasses> ranges{};
  std::array<uint64_t, kClasses> entries{};
  bool operator==(const ProbeCounts& o) const {
    for (int c = 0; c < kClasses; ++c) {
      if (ranges[c] != o.ranges[c] || entries[c] != o.entries[c] ||
          io[c].seeks != o.io[c].seeks ||
          io[c].page_reads != o.io[c].page_reads ||
          io[c].disk_bytes != o.io[c].disk_bytes ||
          io[c].entries_read != o.io[c].entries_read) {
        return false;
      }
    }
    return true;
  }
};

onion::IoStats Minus(const onion::IoStats& a, const onion::IoStats& b) {
  onion::IoStats d;
#define PERFBENCH_IO_SUB(name) d.name = a.name - b.name;
  ONION_IO_STAT_FIELDS(PERFBENCH_IO_SUB)
#undef PERFBENCH_IO_SUB
  return d;
}

/// One closed-loop timed phase.
struct Phase {
  std::vector<Query> queries;
  std::array<std::vector<double>, kClasses> latency_us;
  double late_us_max = 0;  // longest gap between a result and the next send
  CpuTime server_cpu;
  double driver_us = 0;
};

class BoxScan {
 public:
  BoxScan(const Args& args, Report* report)
      : args_(args), report_(report), dir_(args.dir + "/box_scan") {}

  void Run();

 private:
  bool Load();
  bool OpenTables();
  bool StartServer();
  void Warm();
  /// Runs queries for `seconds`, one at a time, from seed stream `stream`.
  Phase TimedPhase(uint64_t stream, Tracer* tracer);
  /// Wire query; false on a transport or remote error. Its spans are
  /// children of span `parent`.
  bool RemoteQuery(Query* q, Tracer* tracer, uint64_t request_id,
                   uint32_t parent);
  /// Compares wire results with in-process base-table reads; with a
  /// tracer, times the storage share of each query.
  void Verify(const std::vector<Query>& queries, Tracer* tracer);
  /// The per-layer run: a traced phase, the storage split, the probe.
  void Traced(const Phase& untraced, std::vector<double>* large_us);
  /// One pass of the exact-count probe from a cold pool.
  bool Probe(ProbeCounts* counts, Tracer* tracer);
  void ReportProbe();

  const Args& args_;
  Report* report_;
  const std::string dir_;
  Engine engine_;
  onion::storage::SfcTable* base_ = nullptr;
  onion::storage::SfcTable* index_ = nullptr;
  onion::net::SfcClient client_;
  uint64_t failed_ = 0;
  uint64_t attempted_ = 0;
};

bool BoxScan::Load() {
  ResetDir(dir_);
  if (!engine_.Open(dir_, kPoolPages, report_)) return false;
  auto created =
      engine_.db->CreateTable(kTable, "onion", onion::Universe(2, kSide));
  if (!created.ok()) {
    report_->Fail("CreateTable: " + created.status().ToString());
    return false;
  }
  base_ = created.value();
  const CellPermutation perm(args_.seed, kSideBits);
  onion::storage::WriteBatch batch;
  for (uint64_t i = 0; i < kEntries; ++i) {
    const Cell cell = perm(i);
    batch.Put(kTable, cell, PayloadOf(args_.seed, cell));
    if (batch.size() == 4096 || i + 1 == kEntries) {
      const onion::Status st = engine_.db->Write(std::move(batch));
      if (!st.ok()) {
        report_->Fail("load Write: " + st.ToString());
        return false;
      }
      batch = onion::storage::WriteBatch();
    }
  }
  const onion::Status indexed =
      engine_.db->CreateIndex(kTable, {kIndex, "cell", "hilbert"});
  if (!indexed.ok()) {
    report_->Fail("CreateIndex: " + indexed.ToString());
    return false;
  }
  if (!OpenTables()) return false;
  for (onion::storage::SfcTable* t : {base_, index_}) {
    if (!t->Flush().ok() || !t->Compact().ok()) {
      report_->Fail("Flush/Compact after load failed");
      return false;
    }
  }
  return true;
}

bool BoxScan::OpenTables() {
  auto base = engine_.db->OpenTable(kTable);
  auto index = engine_.db->IndexTable(kTable, kIndex);
  if (!base.ok() || !index.ok()) {
    report_->Fail("opening the table or its index failed");
    return false;
  }
  base_ = base.value();
  index_ = index.value();
  return true;
}

bool BoxScan::StartServer() {
  if (!engine_.StartServer(report_)) return false;
  const onion::Status st =
      client_.Connect("127.0.0.1", engine_.server->port());
  if (!st.ok()) {
    report_->Fail("SfcClient::Connect: " + st.ToString());
    return false;
  }
  return true;
}

/// Brings the pool to its steady state with in-process reads of a fixed
/// seeded query sequence shaped like the timed one.
void BoxScan::Warm() {
  onion::Rng rng = MakeRng(args_.seed, 0x7761726d);
  for (int i = 0; i < kWarmQueries; ++i) {
    const Class cls = kCycle[i % 4];
    const Box box = RandomBox(&rng, cls);
    std::unique_ptr<onion::Cursor> cursor =
        cls == kIndexBox ? engine_.db->NewIndexCursor(kTable, kIndex, box)
                         : base_->NewBoxCursor(box);
    uint64_t count = 0, checksum = 0;
    if (!Drain(cursor.get(), &count, &checksum)) {
      report_->Fail("warm-up query failed: " + cursor->status().ToString());
      return;
    }
  }
}

bool BoxScan::RemoteQuery(Query* q, Tracer* tracer, uint64_t request_id,
                          uint32_t parent) {
  onion::Result<uint64_t> opened = onion::Status::Internal("unset");
  {
    const ScopedSpan span(tracer, "client.open", request_id, parent);
    opened = q->cls == kIndexBox
                 ? client_.OpenIndexCursor(kTable, kIndex, q->box)
                 : client_.OpenBoxCursor(kTable, q->box);
  }
  if (!opened.ok()) return false;
  std::vector<onion::SpatialEntry> chunk;
  bool done = false;
  while (!done) {
    chunk.clear();
    const ScopedSpan span(tracer, "client.next", request_id, parent);
    if (!client_.CursorNext(opened.value(), kChunk, &chunk, &done).ok()) {
      return false;
    }
    for (const onion::SpatialEntry& e : chunk) q->checksum += EntryHash(e);
    q->count += chunk.size();
  }
  return true;
}

Phase BoxScan::TimedPhase(uint64_t stream, Tracer* tracer) {
  static const char* kSpanName[kClasses] = {"query.small", "query.large",
                                            "query.index"};
  Phase phase;
  onion::Rng rng = MakeRng(args_.seed, stream);
  const ServerCpuMeter cpu;
  const uint64_t start = NowNs();
  const uint64_t end = start + static_cast<uint64_t>(args_.seconds * 1e9);
  uint64_t last_done = start;
  for (uint64_t i = 0; NowNs() < end; ++i) {
    Query q;
    q.cls = kCycle[i % 4];
    q.box = RandomBox(&rng, q.cls);
    const uint64_t t0 = NowNs();
    phase.late_us_max = std::max(phase.late_us_max, (t0 - last_done) / 1e3);
    const uint32_t root = tracer->Begin(kSpanName[q.cls], i);
    ++attempted_;
    if (!RemoteQuery(&q, tracer, i, root)) {
      ++failed_;
      report_->Fail("remote query failed");
      break;
    }
    tracer->End(root);
    last_done = NowNs();
    phase.latency_us[q.cls].push_back((last_done - t0) / 1e3);
    phase.queries.push_back(q);
  }
  cpu.Stop(&phase.server_cpu, &phase.driver_us);
  return phase;
}

void BoxScan::Verify(const std::vector<Query>& queries, Tracer* tracer) {
  static const char* kLocalSpan[kClasses] = {"local.small", "local.large",
                                             "local.base_for_index"};
  uint64_t mismatches = 0;
  const size_t n = std::min(queries.size(), kMaxVerified);
  for (size_t i = 0; i < n; ++i) {
    const Query& q = queries[i];
    uint64_t count = 0, checksum = 0;
    bool ok = false;
    {
      const ScopedSpan span(tracer, kLocalSpan[q.cls], i);
      ok = Drain(base_->NewBoxCursor(q.box).get(), &count, &checksum);
    }
    if (!ok || count != q.count || checksum != q.checksum) ++mismatches;
    if (q.cls == kIndexBox && tracer->enabled()) {
      // Storage share of an index query: the in-process index cursor
      // (index scan + base-row resolution) and the index scan alone.
      uint64_t icount = 0, ichecksum = 0;
      {
        const ScopedSpan span(tracer, "local.index", i);
        ok = Drain(engine_.db->NewIndexCursor(kTable, kIndex, q.box).get(),
                   &icount, &ichecksum);
      }
      if (!ok || icount != count || ichecksum != checksum) ++mismatches;
      uint64_t scount = 0, schecksum = 0;
      {
        const ScopedSpan span(tracer, "local.index_scan", i);
        ok = Drain(index_->NewBoxCursor(q.box).get(), &scount, &schecksum);
      }
      if (!ok || scount != count) ++mismatches;
    }
  }
  if (mismatches > 0) {
    report_->Fail(std::to_string(mismatches) + " of " + std::to_string(n) +
                  " box results differ from an in-process read of the box");
  }
  report_->Note("verified_queries", std::to_string(n));
}

bool BoxScan::Probe(ProbeCounts* counts, Tracer* tracer) {
  // Cold pool: close and reopen the database (same files, no WAL).
  client_.Disconnect();
  engine_.Shutdown();
  if (!engine_.Open(dir_, kPoolPages, report_) || !OpenTables()) return false;
  auto ranges = [&] {
    return base_->read_stats().ranges + index_->read_stats().ranges;
  };
  onion::Rng rng = MakeRng(args_.seed, 0x70726f62);
  for (int i = 0; i < kProbePerClass * kClasses; ++i) {
    const Class cls = static_cast<Class>(i % kClasses);
    const Box box = RandomBox(&rng, cls);
    const onion::IoStats b0 = base_->io_stats();
    const onion::IoStats x0 = index_->io_stats();
    const uint64_t r0 = ranges();
    std::unique_ptr<onion::Cursor> cursor =
        cls == kIndexBox ? engine_.db->NewIndexCursor(kTable, kIndex, box)
                         : base_->NewBoxCursor(box);
    uint64_t count = 0, checksum = 0;
    if (!Drain(cursor.get(), &count, &checksum)) {
      report_->Fail("probe query failed: " + cursor->status().ToString());
      return false;
    }
    counts->io[cls] +=
        Minus(base_->io_stats(), b0) + Minus(index_->io_stats(), x0);
    counts->ranges[cls] += ranges() - r0;
    counts->entries[cls] += count;
    if (cls != kIndexBox) {
      // The layer call itself: decomposition of the same box.
      const ScopedSpan span(
          tracer, cls == kSmall ? "decompose.small" : "decompose.large", i);
      volatile size_t n = onion::DecomposeBox(base_->curve(), box).size();
      (void)n;
    }
  }
  return true;
}

void BoxScan::ReportProbe() {
  ProbeCounts first, second;
  Tracer tracer(true);
  Tracer off(false);
  if (!Probe(&first, &tracer) || !Probe(&second, &off)) return;
  if (!(first == second)) {
    report_->Fail("exact-count self-check: two cold passes over the same "
                  "probe queries reported different counts");
  }
  const double per = kProbePerClass;
  for (Class c : {kSmall, kLarge}) {
    const std::string k = kClassName[c];
    report_->Layer("decompose.ranges_" + k, "count", first.ranges[c] / per,
                   kProbePerClass);
    report_->Layer("pool.page_reads_per_query_" + k, "count",
                   first.io[c].page_reads / per, kProbePerClass);
    report_->Layer("pool.seeks_per_query_" + k, "count",
                   first.io[c].seeks / per, kProbePerClass);
    report_->Layer("cursor.entries_per_query_" + k, "count",
                   first.entries[c] / per, kProbePerClass);
    const std::vector<double> us = tracer.DurationsUs("decompose." + k);
    report_->Layer("decompose.us_" + k, "us", Mean(us), us.size());
  }
  report_->Layer("pool.seeks_over_ranges_small", "ratio",
                 static_cast<double>(first.io[kSmall].seeks) /
                     std::max<uint64_t>(first.ranges[kSmall], 1));
  report_->Layer("pool.disk_bytes_per_query_large", "B",
                 first.io[kLarge].disk_bytes / per, kProbePerClass);
}

void BoxScan::Traced(const Phase& untraced, std::vector<double>* large_us) {
  onion::obs::MetricsRegistry& db = engine_.db->metrics();
  Tracer tracer(true);
  const onion::IoStats pool0 = engine_.db->pool_stats();
  const HistogramDelta cursor_next(
      base_->metrics().histogram("cursor.next_us"));
  const HistogramDelta request_us(db.histogram("net.request_us"));
  const CounterDelta bytes_written(db.counter("net.bytes_written"));
  const CounterDelta stalls(db.counter("net.write_queue_stalls"));
  const CounterDelta rows_resolved(db.counter("index.rows_resolved"));
  const HistogramDelta flush_us(base_->metrics().histogram("flush.us"));
  const HistogramDelta compaction_us(
      base_->metrics().histogram("compaction.us"));
  const Phase phase = TimedPhase(2, &tracer);
  const onion::IoStats pool1 = engine_.db->pool_stats();
  const std::vector<double>& large = phase.latency_us[kLarge];
  large_us->insert(large_us->end(), large.begin(), large.end());

  const size_t n = phase.queries.size();
  const double ops = static_cast<double>(std::max<size_t>(n, 1));
  uint64_t delivered = 0;
  for (const Query& q : phase.queries) delivered += q.count;
  const double hits = pool1.cache_hits - pool0.cache_hits;
  const double misses = pool1.page_reads - pool0.page_reads;
  const size_t index_queries = phase.latency_us[kIndexBox].size();
  const std::vector<double>& small = phase.latency_us[kSmall];
  const double untraced_p50 = Median(untraced.latency_us[kSmall]);
  report_->Layer("trace.overhead_pct", "%",
                 (Median(small) / untraced_p50 - 1) * 100, small.size());
  report_->LayerMeanUs("net.request_us_mean", request_us);
  report_->Layer("net.user_us_per_op", "us", phase.server_cpu.user_us / ops, n);
  report_->Layer("net.sys_us_per_op", "us", phase.server_cpu.sys_us / ops, n);
  report_->Layer("net.bytes_written_per_entry", "B",
                 bytes_written.value() / std::max<uint64_t>(delivered, 1),
                 delivered);
  report_->Layer("net.write_queue_stalls", "count", stalls.value());
  report_->Layer("pool.hit_ratio", "ratio",
                 hits + misses == 0 ? 0 : hits / (hits + misses));
  report_->LayerMeanUs("cursor.next_us_mean", cursor_next);
  report_->Layer("index.rows_resolved_per_query", "count",
                 rows_resolved.value() / std::max<size_t>(index_queries, 1),
                 index_queries);
  report_->Layer("flush.count", "count", flush_us.count());
  report_->Layer("compaction.count", "count", compaction_us.count());

  // Storage share: the same boxes drained in-process, right after.
  Verify(phase.queries, &tracer);
  for (Class c : {kSmall, kLarge}) {
    const std::vector<double> local =
        tracer.DurationsUs(std::string("local.") + kClassName[c]);
    report_->Layer(std::string("storage.local_box_us_") + kClassName[c], "us",
                   Median(local), local.size());
  }
  const std::vector<double> index_total = tracer.DurationsUs("local.index");
  const std::vector<double> index_scan =
      tracer.DurationsUs("local.index_scan");
  uint64_t index_rows = 0;
  for (size_t i = 0; i < std::min(n, kMaxVerified); ++i) {
    if (phase.queries[i].cls == kIndexBox) index_rows += phase.queries[i].count;
  }
  const double resolve_us = Mean(index_total) * index_total.size() -
                            Mean(index_scan) * index_scan.size();
  report_->Layer("index.resolve_us_per_row", "us",
                 resolve_us / std::max<uint64_t>(index_rows, 1), index_rows);
  report_->Layer("trace.spans", "count", tracer.size());
  const std::string trace_path = args_.dir + "/trace_box_scan.json";
  if (tracer.WriteJson(trace_path)) report_->Note("spans", trace_path);

  ReportProbe();
}

void BoxScan::Run() {
  report_->Note("table", "onion 2048^2, 2000000 entries + hilbert cell "
                         "index, pool 1024 pages");
  report_->Note("mix", "closed loop, 1 connection, cycle side-8 / side-128 / "
                       "side-8 / side-32 via index");
  report_->Note("flush_policy", "wal_fsync=false");

  std::vector<double> setup_s;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    if (rep > 0) {
      client_.Disconnect();
      engine_.Shutdown();
    }
    const uint64_t t0 = NowNs();
    if (!Load()) return;
    Warm();
    if (!StartServer()) return;
    setup_s.push_back((NowNs() - t0) / 1e9);
  }

  Tracer off(false);
  const Phase phase = TimedPhase(1, &off);
  const size_t n = phase.queries.size();
  const double ops = static_cast<double>(std::max<size_t>(n, 1));
  const double disk_bytes = static_cast<double>(DirBytes(dir_));
  const auto& latency = phase.latency_us;
  report_->EndToEnd("setup_s", "s", Median(setup_s), setup_s.size());
  report_->EndToEnd("server_cpu_us_per_op", "us",
                    phase.server_cpu.total_us() / ops, n);
  report_->EndToEnd("disk_bytes_per_entry", "B", disk_bytes / kEntries);

  report_->Layer("box_small_p50_us", "us", Median(latency[kSmall]),
                 latency[kSmall].size());
  report_->Layer("box_large_p50_us", "us", Median(latency[kLarge]),
                 latency[kLarge].size());
  report_->Layer("index_box_p50_us", "us", Median(latency[kIndexBox]),
                 latency[kIndexBox].size());
  report_->Layer("driver.achieved_ops_per_s", "1/s", n / args_.seconds, n);
  report_->Layer("driver.late_us_max", "us", phase.late_us_max, n);
  report_->Layer("driver.cpu_us_per_op", "us", phase.driver_us / ops, n);

  // One phase gives too few side-128 samples for a p99; the traced run
  // pools both of its phases.
  std::vector<double> large_us = latency[kLarge];
  Verify(phase.queries, &off);
  if (args_.trace) Traced(phase, &large_us);
  std::string tail;
  report_->Layer("box_large_p99_us", "us", SupportedTail(large_us, &tail),
                 large_us.size());
  report_->Note("box_large_tail_percentile", tail);
  report_->CountOps(attempted_, failed_);
  client_.Disconnect();
  engine_.Shutdown();
  RemoveDir(dir_);
}

}  // namespace

void RunBoxScan(const Args& args, Report* report) {
  BoxScan workload(args, report);
  workload.Run();
}

}  // namespace perfbench
