#include "common.h"

#include <sys/resource.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <numeric>
#include <utility>

namespace perfbench {

namespace fs = std::filesystem;

// --- Report -----------------------------------------------------------------

void Report::EndToEnd(const std::string& name, const std::string& unit,
                      double value, uint64_t samples) {
  end_to_end_.push_back(Metric{name, unit, value, samples});
}

void Report::Layer(const std::string& name, const std::string& unit,
                   double value, uint64_t samples) {
  layers_.push_back(Metric{name, unit, value, samples});
}

void Report::Note(const std::string& key, const std::string& value) {
  notes_.push_back(key + " = " + value);
}

void Report::Fail(const std::string& why) {
  failures_.push_back(why);
  std::fprintf(stderr, "perfbench: CORRECTNESS FAILURE: %s\n", why.c_str());
}

void Report::CountOps(uint64_t attempted, uint64_t failed) {
  attempted_ += attempted;
  failed_ += failed;
}

std::string FormatDouble(double value) {
  if (!std::isfinite(value)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", value);
  // %.6g drops digits of large values; print those in full.
  if (std::fabs(value) >= 1e5) {
    std::snprintf(buf, sizeof(buf), "%.3f", value);
  }
  return buf;
}

void Report::Print(bool trace) const {
  for (const std::string& note : notes_) std::printf("# %s\n", note.c_str());
  auto print_line = [](const char* kind, const Metric& m) {
    if (m.samples > 0) {
      std::printf("%s %-34s %14s %-6s (n=%" PRIu64 ")\n", kind,
                  m.name.c_str(), FormatDouble(m.value).c_str(),
                  m.unit.c_str(), m.samples);
    } else {
      std::printf("%s %-34s %14s %s\n", kind, m.name.c_str(),
                  FormatDouble(m.value).c_str(), m.unit.c_str());
    }
  };
  for (const Metric& m : end_to_end_) print_line("e2e  ", m);
  for (const Metric& m : layers_) print_line("layer", m);
  for (const std::string& f : failures_) {
    std::printf("# FAILED: %s\n", f.c_str());
  }
  std::printf("# attempted = %" PRIu64 ", failed = %" PRIu64
              ", correct = %s\n",
              attempted_, failed_, correct() ? "true" : "false");

  std::string json = "{\"correct\": ";
  json += correct() ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted_);
  json += ", \"failed\": " + std::to_string(failed_);
  json += ", \"metrics\": {";
  bool first = true;
  for (const Metric& m : trace ? layers_ : end_to_end_) {
    if (!first) json += ", ";
    first = false;
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g",
                  std::isfinite(m.value) ? m.value : 0.0);
    json += "\"" + m.name + "\": {\"value\": " + value + ", \"unit\": \"" +
            m.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

// --- clocks -----------------------------------------------------------------

namespace {
CpuTime FromRusage(int who) {
  struct rusage usage {};
  getrusage(who, &usage);
  CpuTime t;
  t.user_us = usage.ru_utime.tv_sec * 1e6 + usage.ru_utime.tv_usec;
  t.sys_us = usage.ru_stime.tv_sec * 1e6 + usage.ru_stime.tv_usec;
  return t;
}
}  // namespace

CpuTime ProcessCpu() { return FromRusage(RUSAGE_SELF); }
CpuTime ThreadCpu() { return FromRusage(RUSAGE_THREAD); }

void ServerCpuMeter::Stop(CpuTime* server, double* driver_us) const {
  const CpuTime process1 = ProcessCpu();
  const CpuTime driver1 = ThreadCpu();
  server->user_us = (process1.user_us - process0.user_us) -
                    (driver1.user_us - driver0.user_us);
  server->sys_us = (process1.sys_us - process0.sys_us) -
                   (driver1.sys_us - driver0.sys_us);
  *driver_us = driver1.total_us() - driver0.total_us();
}

// --- engine -----------------------------------------------------------------

bool Engine::Open(const std::string& dir, uint64_t pool_pages,
                  Report* report) {
  onion::storage::SfcDbOptions options;
  options.pool_pages = pool_pages;
  options.num_workers = 2;
  auto opened = onion::storage::SfcDb::Open(dir, options);
  if (!opened.ok()) {
    report->Fail("SfcDb::Open: " + opened.status().ToString());
    return false;
  }
  db = std::move(opened).value();
  return true;
}

bool Engine::StartServer(Report* report) {
  server = std::make_unique<onion::net::SfcServer>(db.get());
  const onion::Status started = server->Start();
  if (!started.ok()) {
    report->Fail("SfcServer::Start: " + started.ToString());
    return false;
  }
  return true;
}

void Engine::Shutdown() {
  if (server != nullptr) server->Stop();
  server.reset();
  if (db != nullptr) (void)db->Close();
  db.reset();
}

HistogramDelta::HistogramDelta(std::vector<onion::obs::Histogram*> histograms)
    : histograms_(std::move(histograms)) {
  count0_ = count();
  sum0_ = static_cast<uint64_t>(sum());
}

uint64_t HistogramDelta::count() const {
  uint64_t total = 0;
  for (const onion::obs::Histogram* h : histograms_) total += h->count();
  return total - count0_;
}

double HistogramDelta::sum() const {
  uint64_t total = 0;
  for (const onion::obs::Histogram* h : histograms_) total += h->sum();
  return static_cast<double>(total - sum0_);
}

// --- order statistics -------------------------------------------------------

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  const size_t rank = std::min(
      values.size() - 1,
      static_cast<size_t>(std::ceil(q * static_cast<double>(values.size()))) -
          (q > 0 ? 1 : 0));
  std::nth_element(values.begin(), values.begin() + rank, values.end());
  return values[rank];
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0;
  return std::accumulate(values.begin(), values.end(), 0.0) /
         static_cast<double>(values.size());
}

double SupportedTail(const std::vector<double>& values, std::string* label) {
  if (values.size() >= 1000) {
    *label = "p99";
    return Quantile(values, 0.99);
  }
  if (values.size() >= 100) {
    *label = "p90";
    return Quantile(values, 0.90);
  }
  *label = "none";
  return 0;
}

// --- spans ------------------------------------------------------------------

uint32_t Tracer::Begin(const char* name, uint64_t request_id,
                       uint32_t parent) {
  if (!enabled_) return 0;
  const uint64_t now = NowNs();
  return Add(name, request_id, parent, now, now);
}

void Tracer::End(uint32_t id) {
  if (id == 0) return;
  spans_[id - 1].end_ns = NowNs();
}

uint32_t Tracer::Add(const char* name, uint64_t request_id, uint32_t parent,
                     uint64_t start_ns, uint64_t end_ns) {
  if (!enabled_) return 0;
  spans_.push_back(Span{name, request_id, parent, start_ns, end_ns});
  return static_cast<uint32_t>(spans_.size());
}

std::vector<double> Tracer::DurationsUs(const std::string& name) const {
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (name == s.name) out.push_back((s.end_ns - s.start_ns) / 1e3);
  }
  return out;
}

bool Tracer::WriteJson(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "[\n");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "{\"id\":%zu,\"name\":\"%s\",\"request\":%" PRIu64
                 ",\"parent\":%u,\"start_ns\":%" PRIu64 ",\"end_ns\":%" PRIu64
                 "}%s\n",
                 i + 1, s.name, s.request_id, s.parent, s.start_ns, s.end_ns,
                 i + 1 < spans_.size() ? "," : "");
  }
  std::fprintf(f, "]\n");
  return std::fclose(f) == 0;
}

// --- seeded inputs ----------------------------------------------------------

onion::Rng MakeRng(uint64_t seed, uint64_t stream) {
  uint64_t state = seed * 0x9e3779b97f4a7c15ULL + stream;
  return onion::Rng(onion::SplitMix64(&state));
}

CellPermutation::CellPermutation(uint64_t seed, int side_bits)
    : side_bits_(side_bits), bits_(2 * side_bits) {
  mask_ = (uint64_t{1} << bits_) - 1;
  onion::Rng rng = MakeRng(seed, 0x7065726d);
  xor_ = rng.Next() & mask_;
  mul_a_ = (rng.Next() | 1) & mask_;
  mul_b_ = (rng.Next() | 1) & mask_;
}

onion::Cell CellPermutation::operator()(uint64_t i) const {
  // Each step is a bijection of bits_-bit words: xor with a constant,
  // multiplication by an odd constant mod 2^bits_, and a right xorshift.
  uint64_t x = (i ^ xor_) & mask_;
  x = (x * mul_a_) & mask_;
  x ^= x >> (bits_ / 2 + 1);
  x = (x * mul_b_) & mask_;
  x ^= x >> (bits_ / 2);
  return onion::Cell(static_cast<onion::Coord>(x >> side_bits_),
                     static_cast<onion::Coord>(x & ((1u << side_bits_) - 1)));
}

uint64_t PayloadOf(uint64_t seed, const onion::Cell& cell) {
  uint64_t state = seed ^ (uint64_t{cell.x()} << 32 | cell.y());
  return onion::SplitMix64(&state) >> 1;
}

uint64_t EntryHash(const onion::SpatialEntry& entry) {
  const uint64_t cell = uint64_t{entry.cell.x()} << 32 | entry.cell.y();
  uint64_t state = cell * 0x9e3779b97f4a7c15ULL ^ entry.payload;
  return onion::SplitMix64(&state);
}

bool Drain(onion::Cursor* cursor, uint64_t* count, uint64_t* checksum) {
  *count = 0;
  *checksum = 0;
  for (; cursor->Valid(); cursor->Next()) {
    ++*count;
    *checksum += EntryHash(cursor->entry());
  }
  return cursor->status().ok();
}

// --- files ------------------------------------------------------------------

uint64_t DirBytes(const std::string& dir) {
  uint64_t total = 0;
  std::error_code ec;
  for (fs::recursive_directory_iterator it(dir, ec), end; !ec && it != end;
       it.increment(ec)) {
    if (it->is_regular_file(ec)) total += it->file_size(ec);
  }
  return total;
}

void ResetDir(const std::string& dir) {
  RemoveDir(dir);
  std::error_code ec;
  fs::create_directories(dir, ec);
}

void RemoveDir(const std::string& dir) {
  std::error_code ec;
  fs::remove_all(dir, ec);
}

}  // namespace perfbench
