// Shared pieces of the end-to-end benchmark driver: arguments, the
// result report, timing and CPU clocks, order statistics, the span
// tracer, and the seeded input generators.
//
// The driver starts an SfcDb behind an in-process SfcServer and talks to
// it over loopback from ONE driver thread, so the process's CPU time
// minus the driver thread's CPU time is the server's cost (the reactor
// thread plus the storage workers).

#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "net/server.h"
#include "obs/metrics.h"
#include "sfc/types.h"
#include "storage/cursor.h"
#include "storage/sfc_db.h"

namespace perfbench {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Scratch directory for database files and the span dump.
  std::string dir = ".bench_build/data";
};

/// One reported number. `samples` is the count behind a timing (0 for
/// counts and ratios); it is printed beside the value.
struct Metric {
  std::string name;
  std::string unit;
  double value = 0;
  uint64_t samples = 0;
};

/// Change of engine histograms over an interval, summed over one or more
/// of them (a table and its index table). Reported as sum/count means,
/// not bucket quantiles: the buckets are a factor of 2 wide.
class HistogramDelta {
 public:
  explicit HistogramDelta(std::vector<onion::obs::Histogram*> histograms);
  explicit HistogramDelta(onion::obs::Histogram* histogram)
      : HistogramDelta(std::vector<onion::obs::Histogram*>{histogram}) {}
  uint64_t count() const;
  double sum() const;
  double mean() const { return count() == 0 ? 0 : sum() / count(); }

 private:
  std::vector<onion::obs::Histogram*> histograms_;
  uint64_t count0_ = 0;
  uint64_t sum0_ = 0;
};

/// Change of one engine counter over an interval.
class CounterDelta {
 public:
  explicit CounterDelta(onion::obs::Counter* c) : c_(c), v0_(c->value()) {}
  double value() const { return static_cast<double>(c_->value() - v0_); }

 private:
  onion::obs::Counter* c_;
  uint64_t v0_;
};

/// Everything one run prints. End-to-end metrics come from the untraced
/// timed phase; per-layer metrics only exist in a traced run. The final
/// JSON line carries the end-to-end set without --trace and the
/// per-layer set with it; every metric is also printed as a readable
/// line with its unit and sample count.
class Report {
 public:
  void EndToEnd(const std::string& name, const std::string& unit,
                double value, uint64_t samples = 0);
  void Layer(const std::string& name, const std::string& unit, double value,
             uint64_t samples = 0);
  /// A per-layer latency: the mean of an engine histogram's change.
  void LayerMeanUs(const std::string& name, const HistogramDelta& delta) {
    Layer(name, "us", delta.mean(), delta.count());
  }
  /// A configuration or health line ("seed = 7").
  void Note(const std::string& key, const std::string& value);
  /// Records a correctness failure; the run then prints correct=false
  /// and exits nonzero.
  void Fail(const std::string& why);
  void CountOps(uint64_t attempted, uint64_t failed);

  bool correct() const { return failures_.empty(); }
  /// Prints the readable lines and the final JSON line to stdout.
  void Print(bool trace) const;

 private:
  std::vector<Metric> end_to_end_;
  std::vector<Metric> layers_;
  std::vector<std::string> notes_;
  std::vector<std::string> failures_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
};

// --- clocks ---------------------------------------------------------------

inline uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

struct CpuTime {
  double user_us = 0;
  double sys_us = 0;
  double total_us() const { return user_us + sys_us; }
};
CpuTime ProcessCpu();
CpuTime ThreadCpu();

/// Server CPU over an interval: process CPU minus the driver thread's.
struct ServerCpuMeter {
  CpuTime process0 = ProcessCpu();
  CpuTime driver0 = ThreadCpu();
  /// Server user/sys and driver total over [construction, now].
  void Stop(CpuTime* server, double* driver_us) const;
};

// --- engine ---------------------------------------------------------------

/// The system under test: one SfcDb served by one in-process SfcServer
/// on an ephemeral loopback port. Write-ahead logs are never fsynced
/// (SfcTableOptions::wal_fsync = false, the default).
struct Engine {
  std::unique_ptr<onion::storage::SfcDb> db;
  std::unique_ptr<onion::net::SfcServer> server;

  /// Opens (or creates) the database in `dir` with two storage workers.
  bool Open(const std::string& dir, uint64_t pool_pages, Report* report);
  bool StartServer(Report* report);
  /// Stops the server, then closes the database cleanly.
  void Shutdown();
};

// --- order statistics -------------------------------------------------------

/// Nearest-rank quantile of `values` (q in [0, 1]); 0 when empty.
double Quantile(std::vector<double> values, double q);
inline double Median(const std::vector<double>& values) {
  return Quantile(values, 0.5);
}
double Mean(const std::vector<double>& values);
/// p99 only when at least ten samples lie beyond it (n >= 1000), else
/// the highest such percentile (p90 at n >= 100); 0 below that.
double SupportedTail(const std::vector<double>& values, std::string* label);

// --- spans ----------------------------------------------------------------

/// In-memory span recorder for the traced run: each span has a name,
/// start, end, parent span, and the request it belongs to. A disabled
/// tracer records nothing and costs one branch per call.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }
  /// Opens a span and returns its id (0 when disabled).
  uint32_t Begin(const char* name, uint64_t request_id, uint32_t parent = 0);
  void End(uint32_t id);
  /// Records a span whose times were taken by the caller.
  uint32_t Add(const char* name, uint64_t request_id, uint32_t parent,
               uint64_t start_ns, uint64_t end_ns);

  size_t size() const { return spans_.size(); }
  /// Durations in microseconds of every span called `name`.
  std::vector<double> DurationsUs(const std::string& name) const;
  /// Writes every span as a JSON array, one object per line.
  bool WriteJson(const std::string& path) const;

 private:
  struct Span {
    const char* name;
    uint64_t request_id;
    uint32_t parent;
    uint64_t start_ns;
    uint64_t end_ns;
  };
  bool enabled_;
  std::vector<Span> spans_;
};

/// RAII span around one call.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name, uint64_t request_id,
             uint32_t parent = 0)
      : tracer_(tracer), id_(tracer->Begin(name, request_id, parent)) {}
  ~ScopedSpan() { tracer_->End(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  uint32_t id_;
};

// --- seeded inputs ----------------------------------------------------------

/// Independent random stream `stream` of workload seed `seed`.
onion::Rng MakeRng(uint64_t seed, uint64_t stream);

/// A seeded bijection from [0, 4^side_bits) onto the cells of a 2D
/// universe of side 2^side_bits: entry i of a load goes to cell (*this)(i),
/// so the entries of a load have distinct cells without a dedup table.
class CellPermutation {
 public:
  CellPermutation(uint64_t seed, int side_bits);
  onion::Cell operator()(uint64_t i) const;

 private:
  int side_bits_;
  int bits_;
  uint64_t mask_;
  uint64_t xor_, mul_a_, mul_b_;
};

/// Payload stored with a loaded cell: a function of the seed and the
/// cell, so a reader can recompute it.
uint64_t PayloadOf(uint64_t seed, const onion::Cell& cell);

/// Order-independent checksum of a result set (sum of per-entry hashes
/// of cell and payload), so a wire result and an in-process cursor read
/// can be compared whatever order they stream in.
uint64_t EntryHash(const onion::SpatialEntry& entry);

/// Drains `cursor`, counting entries and summing their EntryHash; false
/// when the cursor ends in an error.
bool Drain(onion::Cursor* cursor, uint64_t* count, uint64_t* checksum);

// --- files ------------------------------------------------------------------

/// Total bytes of the regular files under `dir`.
uint64_t DirBytes(const std::string& dir);
/// Removes `dir` and everything under it; creates it empty.
void ResetDir(const std::string& dir);
void RemoveDir(const std::string& dir);

std::string FormatDouble(double value);

// --- workloads (one file each) ----------------------------------------------

void RunPointRw(const Args& args, Report* report);
void RunBoxScan(const Args& args, Report* report);
void RunIngest(const Args& args, Report* report);

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
