// SfcClient: a small blocking client for the SfcServer wire protocol —
// and deliberately the protocol's SECOND implementation. The server never
// parses bytes the client produced through shared request-building code
// paths alone: both endpoints meet only at net/protocol.h's byte layout,
// which keeps the spec in docs/network_protocol.md honest.
//
// Two layers:
//   pipelined   Send*() enqueues one request frame on the socket and
//               returns its request id immediately; ReadResponse() blocks
//               for the next response in server order. A caller may issue
//               any number of Send*() calls before reading — that is the
//               protocol's pipelining — and match responses by id.
//   synchronous Put/Get/Write/... wrappers send one request, read one
//               response, and fold remote errors into the returned Status.
//
// The client is single-connection and NOT thread-safe; use one per thread
// (connections are cheap — the load driver bench/bench_net.cc opens
// thousands).

#ifndef ONION_NET_CLIENT_H_
#define ONION_NET_CLIENT_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "net/protocol.h"
#include "sfc/types.h"
#include "storage/write_batch.h"

namespace onion::net {

/// Budgets for a remote cursor open; zeros mean "no bound" exactly like
/// storage::ReadOptions.
struct RemoteReadOptions {
  uint64_t limit = 0;
  uint64_t max_pages = 0;
  uint64_t max_bytes = 0;
  /// A server-side snapshot id from SnapshotAcquire(); 0 reads latest.
  uint64_t snapshot_id = 0;
};

class SfcClient {
 public:
  SfcClient() = default;
  ~SfcClient();

  SfcClient(const SfcClient&) = delete;
  SfcClient& operator=(const SfcClient&) = delete;

  /// Opens the TCP connection (blocking, TCP_NODELAY). InvalidArgument on
  /// a bad address, Internal on socket errors. A server at its connection
  /// limit still completes the connect; the first synchronous call then
  /// returns the server's ResourceExhausted refusal.
  Status Connect(const std::string& host, uint16_t port);
  void Disconnect();
  bool connected() const { return fd_ >= 0; }

  // --- pipelined layer ----------------------------------------------------

  /// Each Send* writes one request frame and returns its request id; the
  /// matching response arrives via ReadResponse() in request order.
  Result<uint64_t> SendPut(const std::string& table, const Cell& cell,
                           uint64_t payload);
  Result<uint64_t> SendDelete(const std::string& table, const Cell& cell);
  Result<uint64_t> SendWrite(const storage::WriteBatch& batch);
  Result<uint64_t> SendGet(const std::string& table, const Cell& cell,
                           uint64_t snapshot_id = 0);
  Result<uint64_t> SendOpenBoxCursor(const std::string& table, const Box& box,
                                     const RemoteReadOptions& options = {});
  Result<uint64_t> SendOpenIndexCursor(const std::string& table,
                                       const std::string& index,
                                       const Box& box,
                                       const RemoteReadOptions& options = {});
  Result<uint64_t> SendCursorNext(uint64_t cursor_id, uint32_t max_entries);
  Result<uint64_t> SendCursorClose(uint64_t cursor_id);
  Result<uint64_t> SendSnapshotAcquire();
  Result<uint64_t> SendSnapshotRelease(uint64_t snapshot_id);
  Result<uint64_t> SendDumpMetrics();
  Result<uint64_t> SendPing();

  /// Blocks for the next response frame (server order = request order) and
  /// decodes it. Corruption poisons the connection.
  Status ReadResponse(Response* out);

  // --- synchronous layer --------------------------------------------------

  Status Put(const std::string& table, const Cell& cell, uint64_t payload);
  Status Delete(const std::string& table, const Cell& cell);
  /// Ships the whole batch as one atomic kWrite.
  Status Write(const storage::WriteBatch& batch);
  Status Get(const std::string& table, const Cell& cell,
             std::vector<uint64_t>* payloads, uint64_t snapshot_id = 0);
  Result<uint64_t> OpenBoxCursor(const std::string& table, const Box& box,
                                 const RemoteReadOptions& options = {});
  Result<uint64_t> OpenIndexCursor(const std::string& table,
                                   const std::string& index, const Box& box,
                                   const RemoteReadOptions& options = {});
  /// One chunk: appends to `entries`, sets `done` when the cursor is
  /// exhausted server-side (then the id is already closed) and
  /// `hit_read_budget` when exhaustion came from a ReadOptions budget.
  Status CursorNext(uint64_t cursor_id, uint32_t max_entries,
                    std::vector<SpatialEntry>* entries, bool* done,
                    bool* hit_read_budget = nullptr);
  Status CursorClose(uint64_t cursor_id);
  Result<uint64_t> SnapshotAcquire();
  Status SnapshotRelease(uint64_t snapshot_id);
  Status DumpMetrics(std::string* json);
  Status Ping();

  /// Convenience: opens a box cursor, drains it chunk by chunk, closes it.
  /// `hit_read_budget` (optional) reports budget truncation.
  Status BoxQuery(const std::string& table, const Box& box,
                  std::vector<SpatialEntry>* entries,
                  const RemoteReadOptions& options = {},
                  bool* hit_read_budget = nullptr);

 private:
  /// Encodes and writes one request frame; returns its id.
  Result<uint64_t> SendRequest(MessageType type,
                               const std::vector<uint8_t>& payload);
  /// Send + ReadResponse + request-id/type match + remote status folding.
  /// An error response under request id 0 (a connection-level error such
  /// as an admission refusal) is returned as its own status.
  Status Call(MessageType type, const std::vector<uint8_t>& payload,
              Response* out);

  int fd_ = -1;
  uint64_t next_request_id_ = 0;
  FrameDecoder decoder_;
};

}  // namespace onion::net

#endif  // ONION_NET_CLIENT_H_
