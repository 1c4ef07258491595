// point_rw: open-loop point reads and writes at one fixed offered rate.
//
// Table: 2D `onion` over 1024^2, 200k prefilled entries, compacted and
// scanned once so all ~800 pages sit in the 4096-page pool. Traffic: a
// fixed schedule of 10k requests/s (about a third of the closed-loop
// saturation of 4 connections x window 1), 90% Get / 10% Put on uniform
// cells, spread over 4 connections multiplexed by the one driver thread.
// Each cell belongs to one connection (cell index mod 4), and a session's
// requests execute in order, so a Get must return exactly the payloads a
// model of the Puts sent before it holds. Latency is timed from each
// request's SCHEDULED send, so a stall also counts against the requests
// queued behind it. The timed phase's Puts (~10k) stay below one
// memtable flush (64k entries): no flush, compaction or disk read runs.

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <unistd.h>

#include <arpa/inet.h>

#include <algorithm>
#include <cerrno>
#include <deque>
#include <unordered_map>

#include "common.h"
#include "net/protocol.h"
#include "sfc/curve.h"

namespace perfbench {
namespace {

using onion::Cell;
using onion::net::MessageType;

constexpr int kSideBits = 10;
constexpr onion::Coord kSide = 1u << kSideBits;
constexpr uint64_t kPrefill = 200'000;
constexpr double kRate = 10'000;
constexpr size_t kConns = 4;
constexpr uint64_t kPutPercent = 10;
constexpr int kSetupReps = 3;
constexpr uint64_t kPoolPages = 4096;
constexpr const char* kTable = "pts";
// Rate sweep of the traced run, and the p99 limit that defines its knee.
constexpr double kSweepRates[] = {5'000, 10'000, 20'000};
constexpr const char* kSweepNames[] = {"5k", "10k", "20k"};
constexpr double kKneeP99LimitUs = 1000;
constexpr double kSweepSeconds = 2;
constexpr int kPings = 2000;

uint32_t CellIndex(const Cell& cell) { return cell.x() * kSide + cell.y(); }
Cell CellAt(uint32_t index) { return Cell(index / kSide, index % kSide); }

/// The payloads each cell must hold: the prefill plus every Put sent so
/// far (a Put is applied to the model when it is sent; see the file
/// comment for why that is exact).
class Model {
 public:
  explicit Model(uint64_t seed)
      : base_(kSide * kSide), has_base_(kSide * kSide) {
    const CellPermutation perm(seed, kSideBits);
    for (uint64_t i = 0; i < kPrefill; ++i) {
      const Cell cell = perm(i);
      base_[CellIndex(cell)] = PayloadOf(seed, cell);
      has_base_[CellIndex(cell)] = true;
    }
  }
  std::vector<uint64_t> Expect(uint32_t index) const {
    std::vector<uint64_t> out;
    if (has_base_[index]) out.push_back(base_[index]);
    const auto it = puts_.find(index);
    if (it != puts_.end()) {
      out.insert(out.end(), it->second.begin(), it->second.end());
    }
    std::sort(out.begin(), out.end());
    return out;
  }
  void Put(uint32_t index, uint64_t payload) {
    puts_[index].push_back(payload);
    ++puts_total_;
  }
  uint64_t entries() const { return kPrefill + puts_total_; }

 private:
  std::vector<uint64_t> base_;
  std::vector<bool> has_base_;
  std::unordered_map<uint32_t, std::vector<uint64_t>> puts_;
  uint64_t puts_total_ = 0;
};

struct Pending {
  uint64_t due_ns = 0;
  uint64_t sent_ns = 0;
  uint64_t request_id = 0;
  bool put = false;
  std::vector<uint64_t> expect;  // Gets: sorted payloads
};

/// One nonblocking loopback connection speaking the wire protocol.
struct Conn {
  int fd = -1;
  onion::net::FrameDecoder decoder;
  std::vector<uint8_t> out;
  size_t out_at = 0;
  std::deque<Pending> inflight;
  uint64_t next_id = 0;

  Conn() = default;
  Conn(const Conn&) = delete;
  Conn& operator=(const Conn&) = delete;
  ~Conn() { Reset(); }
  void Reset() {
    if (fd >= 0) close(fd);
    fd = -1;
    decoder.Reset();
    out.clear();
    out_at = 0;
    inflight.clear();
  }
};

bool Connect(uint16_t port, Conn* conn) {
  conn->fd = socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK, 0);
  if (conn->fd < 0) return false;
  const int one = 1;
  setsockopt(conn->fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (connect(conn->fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
          0 &&
      errno != EINPROGRESS) {
    return false;
  }
  pollfd pfd{conn->fd, POLLOUT, 0};
  if (poll(&pfd, 1, 5000) != 1) return false;
  int err = 0;
  socklen_t len = sizeof(err);
  getsockopt(conn->fd, SOL_SOCKET, SO_ERROR, &err, &len);
  return err == 0;
}

/// The outcome of one open-loop phase.
struct PhaseResult {
  std::vector<double> get_us;  // from scheduled send to response
  std::vector<double> put_us;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t mismatches = 0;
  uint64_t completed = 0;
  double late_us_max = 0;
  double elapsed_s = 0;     // first due time -> last response
  CpuTime server_cpu;
  double driver_us = 0;
  std::vector<Cell> cells;  // every requested cell, for the encode timing
};

class PointRw {
 public:
  PointRw(const Args& args, Report* report)
      : args_(args), report_(report), model_(args.seed) {}

  void Run();

 private:
  bool SetUp();
  /// Sends `rate` requests/s for `seconds` from seed stream `stream` and
  /// waits for every response; counts and checks them into the report.
  PhaseResult OpenLoop(double rate, double seconds, uint64_t stream,
                       Tracer* tracer);
  void Issue(uint64_t due_ns, onion::Rng* rng, PhaseResult* result);
  /// Sends buffered bytes, waits up to `timeout_ns` for responses, and
  /// checks every response that arrived. False when a connection broke.
  bool Pump(PhaseResult* result, Tracer* tracer, int64_t timeout_ns);
  double PingRttP50();
  /// The per-layer run: a traced phase, a ping floor, curve encode
  /// timing and the rate sweep.
  void Traced(const PhaseResult& untraced);

  const Args& args_;
  Report* report_;
  Model model_;
  Engine engine_;
  onion::storage::SfcTable* table_ = nullptr;
  Conn conns_[kConns];
  uint64_t put_serial_ = 0;
  bool broken_ = false;
};

bool PointRw::SetUp() {
  const std::string dir = args_.dir + "/point_rw";
  for (Conn& conn : conns_) conn.Reset();
  ResetDir(dir);
  if (!engine_.Open(dir, kPoolPages, report_)) return false;
  auto created = engine_.db->CreateTable(kTable, "onion",
                                         onion::Universe(2, kSide));
  if (!created.ok()) {
    report_->Fail("CreateTable: " + created.status().ToString());
    return false;
  }
  table_ = created.value();
  const CellPermutation perm(args_.seed, kSideBits);
  onion::storage::WriteBatch batch;
  for (uint64_t i = 0; i < kPrefill; ++i) {
    const Cell cell = perm(i);
    batch.Put(kTable, cell, PayloadOf(args_.seed, cell));
    if (batch.size() == 4096 || i + 1 == kPrefill) {
      const onion::Status st = engine_.db->Write(std::move(batch));
      if (!st.ok()) {
        report_->Fail("prefill Write: " + st.ToString());
        return false;
      }
      batch = onion::storage::WriteBatch();
    }
  }
  if (!table_->Flush().ok() || !table_->Compact().ok()) {
    report_->Fail("prefill Flush/Compact failed");
    return false;
  }
  // Warm: one full scan pulls every page into the pool.
  uint64_t scanned = 0, checksum = 0;
  if (!Drain(table_->NewScanCursor().get(), &scanned, &checksum) ||
      scanned != kPrefill) {
    report_->Fail("prefill scan saw " + std::to_string(scanned) + " entries");
    return false;
  }
  if (!engine_.StartServer(report_)) return false;
  for (Conn& conn : conns_) {
    if (!Connect(engine_.server->port(), &conn)) {
      report_->Fail("connect to the server failed");
      return false;
    }
  }
  return true;
}

void PointRw::Issue(uint64_t due_ns, onion::Rng* rng, PhaseResult* result) {
  const bool put = rng->UniformInclusive(99) < kPutPercent;
  const uint32_t index =
      static_cast<uint32_t>(rng->UniformInclusive(kSide * kSide - 1));
  const Cell cell = CellAt(index);
  Conn& conn = conns_[index % kConns];
  Pending pending;
  pending.due_ns = due_ns;
  pending.request_id = ++conn.next_id;
  pending.put = put;
  std::vector<uint8_t> payload;
  onion::net::AppendString(&payload, kTable);
  onion::net::AppendCell(&payload, cell);
  if (put) {
    const uint64_t value = (uint64_t{1} << 62) | ++put_serial_;
    onion::net::AppendU64(&payload, value);
    model_.Put(index, value);
  } else {
    onion::net::AppendU64(&payload, 0);  // latest
    pending.expect = model_.Expect(index);
  }
  const std::vector<uint8_t> frame = onion::net::EncodeFrame(
      pending.request_id,
      static_cast<uint8_t>(put ? MessageType::kPut : MessageType::kGet),
      payload);
  conn.out.insert(conn.out.end(), frame.begin(), frame.end());
  pending.sent_ns = NowNs();
  if (pending.sent_ns > due_ns) {
    result->late_us_max =
        std::max(result->late_us_max, (pending.sent_ns - due_ns) / 1e3);
  }
  result->cells.push_back(cell);
  ++result->attempted;
  conn.inflight.push_back(std::move(pending));
}

bool PointRw::Pump(PhaseResult* result, Tracer* tracer, int64_t timeout_ns) {
  pollfd fds[kConns];
  for (size_t c = 0; c < kConns; ++c) {
    Conn& conn = conns_[c];
    while (conn.out_at < conn.out.size()) {
      const ssize_t n = send(conn.fd, conn.out.data() + conn.out_at,
                             conn.out.size() - conn.out_at, MSG_NOSIGNAL);
      if (n > 0) {
        conn.out_at += static_cast<size_t>(n);
      } else if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        break;
      } else if (n < 0 && errno == EINTR) {
        continue;
      } else {
        return false;
      }
    }
    if (conn.out_at == conn.out.size()) {
      conn.out.clear();
      conn.out_at = 0;
    }
    const short events = POLLIN | (conn.out.empty() ? 0 : POLLOUT);
    fds[c] = pollfd{conn.fd, events, 0};
  }
  const timespec ts{timeout_ns / 1'000'000'000, timeout_ns % 1'000'000'000};
  if (ppoll(fds, kConns, &ts, nullptr) < 0 && errno != EINTR) return false;
  uint8_t buf[64 * 1024];
  for (size_t c = 0; c < kConns; ++c) {
    if ((fds[c].revents & (POLLIN | POLLERR | POLLHUP)) == 0) continue;
    Conn& conn = conns_[c];
    while (true) {
      const ssize_t n = recv(conn.fd, buf, sizeof(buf), MSG_DONTWAIT);
      if (n > 0) {
        conn.decoder.Feed(buf, static_cast<size_t>(n));
        continue;
      }
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
      if (n < 0 && errno == EINTR) continue;
      return false;  // EOF or error
    }
    const uint64_t now = NowNs();
    onion::net::Frame frame;
    onion::Status next;
    while ((next = conn.decoder.Next(&frame)).ok()) {
      onion::net::Response response;
      if (conn.inflight.empty() ||
          !onion::net::DecodeResponse(frame, &response).ok() ||
          response.request_id != conn.inflight.front().request_id) {
        return false;
      }
      const Pending& pending = conn.inflight.front();
      const double latency_us = (now - pending.due_ns) / 1e3;
      if (!response.status.ok()) {
        ++result->failed;
      } else if (pending.put) {
        ++result->completed;
        result->put_us.push_back(latency_us);
      } else {
        ++result->completed;
        result->get_us.push_back(latency_us);
        std::sort(response.payloads.begin(), response.payloads.end());
        if (response.payloads != pending.expect) ++result->mismatches;
      }
      const uint32_t root =
          tracer->Add(pending.put ? "point.put" : "point.get",
                      pending.request_id, 0, pending.due_ns, now);
      tracer->Add("wire.rtt", pending.request_id, root, pending.sent_ns, now);
      conn.inflight.pop_front();
    }
    if (next.code() != onion::StatusCode::kNotFound) return false;
  }
  return true;
}

PhaseResult PointRw::OpenLoop(double rate, double seconds, uint64_t stream,
                              Tracer* tracer) {
  PhaseResult result;
  onion::Rng rng = MakeRng(args_.seed, stream);
  const uint64_t total = static_cast<uint64_t>(rate * seconds);
  const double period_ns = 1e9 / rate;
  auto due = [&](uint64_t i) {
    return static_cast<uint64_t>(static_cast<double>(i) * period_ns);
  };
  const ServerCpuMeter cpu;
  const uint64_t start_ns = NowNs() + 1'000'000;
  const uint64_t give_up_ns =
      start_ns + static_cast<uint64_t>((seconds + 60) * 1e9);
  uint64_t next = 0;
  uint64_t last_response_ns = start_ns;
  while (!broken_ && result.completed + result.failed < total) {
    while (next < total && start_ns + due(next) <= NowNs()) {
      Issue(start_ns + due(next), &rng, &result);
      ++next;
    }
    int64_t wait_ns = 5'000'000;
    if (next < total) {
      wait_ns = static_cast<int64_t>(start_ns + due(next)) -
                static_cast<int64_t>(NowNs());
      // Below ~20 us a sleep would overshoot: poll without blocking.
      if (wait_ns < 20'000) wait_ns = 0;
    }
    const uint64_t before = result.completed + result.failed;
    if (!Pump(&result, tracer, wait_ns)) {
      broken_ = true;
      report_->Fail("a connection broke or answered out of order");
    }
    const uint64_t now = NowNs();
    if (result.completed + result.failed != before) last_response_ns = now;
    if (now > give_up_ns) {
      report_->Fail("responses still missing 60 s after the schedule ended");
      broken_ = true;
    }
  }
  cpu.Stop(&result.server_cpu, &result.driver_us);
  result.failed = result.attempted - result.completed;
  result.elapsed_s = (last_response_ns - start_ns) / 1e9;
  report_->CountOps(result.attempted, result.failed);
  if (result.mismatches > 0) {
    report_->Fail(std::to_string(result.mismatches) +
                  " Gets disagreed with the model of acknowledged Puts");
  }
  return result;
}

double PointRw::PingRttP50() {
  std::vector<double> rtt;
  Conn& conn = conns_[0];
  PhaseResult pings;
  Tracer off(false);
  for (int i = 0; i < kPings && !broken_; ++i) {
    Pending pending;
    pending.request_id = ++conn.next_id;
    const std::vector<uint8_t> frame = onion::net::EncodeFrame(
        pending.request_id, static_cast<uint8_t>(MessageType::kPing), {});
    conn.out.insert(conn.out.end(), frame.begin(), frame.end());
    const uint64_t start = NowNs();
    pending.due_ns = start;
    conn.inflight.push_back(std::move(pending));
    const uint64_t done_before = pings.completed;
    while (!broken_ && pings.completed == done_before) {
      if (!Pump(&pings, &off, 1'000'000)) broken_ = true;
    }
    rtt.push_back((NowNs() - start) / 1e3);
  }
  if (broken_) report_->Fail("ping connection broke");
  return Median(rtt);
}

void PointRw::Traced(const PhaseResult& untraced) {
  Tracer tracer(true);
  onion::obs::MetricsRegistry& db = engine_.db->metrics();
  onion::obs::MetricsRegistry& table = table_->metrics();
  const onion::IoStats io0 = table_->io_stats();
  const HistogramDelta request_us(db.histogram("net.request_us"));
  const HistogramDelta batch_commit(db.histogram("db.batch_commit_us"));
  const HistogramDelta task_wait(db.histogram("workers.task_wait_us"));
  const HistogramDelta insert_us(table.histogram("memtable.insert_us"));
  const HistogramDelta append_us(table.histogram("wal.append_us"));
  const HistogramDelta commit_us(table.histogram("write.commit_us"));
  const HistogramDelta flush_us(table.histogram("flush.us"));
  const HistogramDelta compaction_us(table.histogram("compaction.us"));
  const CounterDelta flush_bytes(table.counter("flush.bytes"));
  const PhaseResult phase = OpenLoop(kRate, args_.seconds, 2, &tracer);
  const onion::IoStats io1 = table_->io_stats();

  const uint64_t n = phase.completed;
  const double ops = static_cast<double>(std::max<uint64_t>(n, 1));
  const double hits = io1.cache_hits - io0.cache_hits;
  const double reads = io1.page_reads - io0.page_reads;
  const double skips =
      io1.pages_skipped_by_filter - io0.pages_skipped_by_filter;
  const size_t gets = phase.get_us.size();
  report_->Layer("trace.overhead_pct", "%",
                 (Median(phase.get_us) / Median(untraced.get_us) - 1) * 100,
                 gets);
  report_->Layer("trace.spans", "count", tracer.size());
  report_->LayerMeanUs("net.request_us_mean", request_us);
  report_->Layer("net.user_us_per_op", "us", phase.server_cpu.user_us / ops,
                 n);
  report_->Layer("net.sys_us_per_op", "us", phase.server_cpu.sys_us / ops, n);
  report_->Layer("pool.hit_ratio", "ratio",
                 hits + reads == 0 ? 0 : hits / (hits + reads));
  report_->Layer("pool.filter_skips_per_get", "count",
                 skips / std::max<size_t>(gets, 1), gets);
  report_->LayerMeanUs("memtable.insert_us_mean", insert_us);
  report_->LayerMeanUs("wal.append_us_mean", append_us);
  report_->LayerMeanUs("write.commit_us_mean", commit_us);
  report_->LayerMeanUs("db.batch_commit_us_mean", batch_commit);
  report_->LayerMeanUs("workers.task_wait_us_mean", task_wait);
  report_->Layer("flush.count", "count", flush_us.count());
  report_->Layer("flush.us_total", "us", flush_us.sum());
  report_->Layer("flush.bytes", "B", flush_bytes.value());
  report_->Layer("compaction.count", "count", compaction_us.count());
  report_->Layer("compaction.us_total", "us", compaction_us.sum());
  const std::string trace_path = args_.dir + "/trace_point_rw.json";
  if (tracer.WriteJson(trace_path)) report_->Note("spans", trace_path);

  // Wire round trip with nothing else in flight: the floor under a Get.
  report_->Layer("net.ping_rtt_us_p50", "us", PingRttP50(), kPings);

  // Curve encode on the cells the traced phase requested.
  const onion::SpaceFillingCurve& curve = table_->curve();
  volatile uint64_t sink = 0;
  const int reps = 10;
  const uint64_t t0 = NowNs();
  for (int r = 0; r < reps; ++r) {
    for (const Cell& cell : phase.cells) sink = sink + curve.IndexOf(cell);
  }
  const size_t encodes = reps * phase.cells.size();
  report_->Layer("sfc.encode_ns", "ns",
                 static_cast<double>(NowNs() - t0) /
                     std::max<size_t>(encodes, 1),
                 encodes);

  // Rate sweep: p99 at three fixed rates; the knee is the highest rate
  // whose p99 stays within the limit.
  Tracer off(false);
  double knee = 0;
  for (size_t r = 0; r < std::size(kSweepRates); ++r) {
    const PhaseResult sweep =
        OpenLoop(kSweepRates[r], kSweepSeconds, 10 + r, &off);
    std::vector<double> all = sweep.get_us;
    all.insert(all.end(), sweep.put_us.begin(), sweep.put_us.end());
    const double p99 = Quantile(all, 0.99);
    report_->Layer(std::string("sweep.p99_us_") + kSweepNames[r], "us", p99,
                   all.size());
    if (p99 <= kKneeP99LimitUs && sweep.failed == 0) knee = kSweepRates[r];
  }
  report_->Layer("sweep.knee_ops_per_s", "1/s", knee);
  report_->Note("sweep", "5k/10k/20k req/s for 2 s each; knee = highest "
                         "rate with p99 <= 1000 us");
}

void PointRw::Run() {
  report_->Note("table", "onion 1024^2, 200000 entries, pool 4096 pages");
  report_->Note("mix", "open loop 10000 req/s, 90% Get / 10% Put, "
                       "4 connections, 1 driver thread");
  report_->Note("flush_policy", "wal_fsync=false");
  // Wake ppoll on time: the default 50 us slack would delay every send.
  prctl(PR_SET_TIMERSLACK, 1UL, 0, 0, 0);

  std::vector<double> setup_s;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    if (rep > 0) engine_.Shutdown();
    const uint64_t t0 = NowNs();
    if (!SetUp()) return;
    setup_s.push_back((NowNs() - t0) / 1e9);
  }

  Tracer off(false);
  const PhaseResult phase = OpenLoop(kRate, args_.seconds, 1, &off);
  const uint64_t n = phase.completed;
  const double ops = static_cast<double>(std::max<uint64_t>(n, 1));
  const double disk_bytes = DirBytes(args_.dir + "/point_rw");
  const std::vector<double>& gets = phase.get_us;
  report_->EndToEnd("setup_s", "s", Median(setup_s), setup_s.size());
  report_->EndToEnd("server_cpu_us_per_op", "us",
                    phase.server_cpu.total_us() / ops, n);
  report_->EndToEnd("disk_bytes_per_entry", "B",
                    disk_bytes / model_.entries());

  std::string tail;
  report_->Layer("get_p50_us", "us", Median(gets), gets.size());
  report_->Layer("put_p50_us", "us", Median(phase.put_us),
                 phase.put_us.size());
  report_->Layer("get_p99_us", "us", SupportedTail(gets, &tail),
                 gets.size());
  report_->Note("get_tail_percentile", tail);
  report_->Layer("driver.offered_ops_per_s", "1/s", kRate);
  report_->Layer("driver.achieved_ops_per_s", "1/s", n / phase.elapsed_s, n);
  report_->Layer("driver.late_us_max", "us", phase.late_us_max,
                 phase.attempted);
  report_->Layer("driver.cpu_us_per_op", "us", phase.driver_us / ops, n);

  if (args_.trace) Traced(phase);

  // Final state: every prefilled entry and every acknowledged Put.
  uint64_t scanned = 0, checksum = 0;
  if (!Drain(table_->NewScanCursor().get(), &scanned, &checksum) ||
      scanned != model_.entries()) {
    report_->Fail("final scan saw " + std::to_string(scanned) +
                  " entries, expected " + std::to_string(model_.entries()));
  }
  engine_.Shutdown();
  RemoveDir(args_.dir + "/point_rw");
}

}  // namespace

void RunPointRw(const Args& args, Report* report) {
  PointRw workload(args, report);
  workload.Run();
}

}  // namespace perfbench
