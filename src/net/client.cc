#include "net/client.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

namespace onion::net {

namespace {

Status Errno(const std::string& what) {
  return Status::Internal(what + ": " + std::strerror(errno));
}

}  // namespace

SfcClient::~SfcClient() { Disconnect(); }

Status SfcClient::Connect(const std::string& host, uint16_t port) {
  if (fd_ >= 0) return Status::InvalidArgument("already connected");
  sockaddr_in addr = {};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    return Status::InvalidArgument("bad host: " + host);
  }
  fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd_ < 0) return Errno("socket");
  if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    const Status status =
        Errno("connect " + host + ":" + std::to_string(port));
    Disconnect();
    return status;
  }
  const int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  return Status::OK();
}

void SfcClient::Disconnect() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  decoder_.Reset();
  next_request_id_ = 0;
}

Result<uint64_t> SfcClient::SendRequest(MessageType type,
                                        const std::vector<uint8_t>& payload) {
  if (fd_ < 0) return Status::InvalidArgument("not connected");
  const uint64_t id = ++next_request_id_;
  const std::vector<uint8_t> wire =
      EncodeFrame(id, static_cast<uint8_t>(type), payload);
  size_t sent = 0;
  while (sent < wire.size()) {
    const ssize_t n = ::send(fd_, wire.data() + sent, wire.size() - sent,
                             MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Errno("send");
    }
    sent += static_cast<size_t>(n);
  }
  return id;
}

Status SfcClient::ReadResponse(Response* out) {
  if (fd_ < 0) return Status::InvalidArgument("not connected");
  Frame frame;
  while (true) {
    const Status status = decoder_.Next(&frame);
    if (status.ok()) break;
    if (status.code() != StatusCode::kNotFound) return status;  // poisoned
    uint8_t buf[64 * 1024];
    const ssize_t n = ::recv(fd_, buf, sizeof buf, 0);
    if (n == 0) return Status::Internal("server closed the connection");
    if (n < 0) {
      if (errno == EINTR) continue;
      return Errno("recv");
    }
    decoder_.Feed(buf, static_cast<size_t>(n));
  }
  return DecodeResponse(frame, out);
}

// --- pipelined request builders ------------------------------------------

Result<uint64_t> SfcClient::SendPut(const std::string& table, const Cell& cell,
                                    uint64_t payload) {
  std::vector<uint8_t> body;
  AppendString(&body, table);
  AppendCell(&body, cell);
  AppendU64(&body, payload);
  return SendRequest(MessageType::kPut, body);
}

Result<uint64_t> SfcClient::SendDelete(const std::string& table,
                                       const Cell& cell) {
  std::vector<uint8_t> body;
  AppendString(&body, table);
  AppendCell(&body, cell);
  return SendRequest(MessageType::kDelete, body);
}

Result<uint64_t> SfcClient::SendWrite(const storage::WriteBatch& batch) {
  std::vector<uint8_t> body;
  AppendU32(&body, static_cast<uint32_t>(batch.size()));
  for (const storage::WriteBatch::Op& op : batch.ops()) {
    AppendU8(&body, op.tombstone ? 1 : 0);
    AppendString(&body, op.table);
    AppendCell(&body, op.cell);
    AppendU64(&body, op.payload);
  }
  return SendRequest(MessageType::kWrite, body);
}

Result<uint64_t> SfcClient::SendGet(const std::string& table, const Cell& cell,
                                    uint64_t snapshot_id) {
  std::vector<uint8_t> body;
  AppendString(&body, table);
  AppendCell(&body, cell);
  AppendU64(&body, snapshot_id);
  return SendRequest(MessageType::kGet, body);
}

Result<uint64_t> SfcClient::SendOpenBoxCursor(const std::string& table,
                                              const Box& box,
                                              const RemoteReadOptions& options) {
  std::vector<uint8_t> body;
  AppendString(&body, table);
  AppendBox(&body, box);
  AppendU64(&body, options.snapshot_id);
  AppendU64(&body, options.limit);
  AppendU64(&body, options.max_pages);
  AppendU64(&body, options.max_bytes);
  return SendRequest(MessageType::kOpenBoxCursor, body);
}

Result<uint64_t> SfcClient::SendOpenIndexCursor(
    const std::string& table, const std::string& index, const Box& box,
    const RemoteReadOptions& options) {
  std::vector<uint8_t> body;
  AppendString(&body, table);
  AppendString(&body, index);
  AppendBox(&body, box);
  AppendU64(&body, options.snapshot_id);
  AppendU64(&body, options.limit);
  AppendU64(&body, options.max_pages);
  AppendU64(&body, options.max_bytes);
  return SendRequest(MessageType::kOpenIndexCursor, body);
}

Result<uint64_t> SfcClient::SendCursorNext(uint64_t cursor_id,
                                           uint32_t max_entries) {
  std::vector<uint8_t> body;
  AppendU64(&body, cursor_id);
  AppendU32(&body, max_entries);
  return SendRequest(MessageType::kCursorNext, body);
}

Result<uint64_t> SfcClient::SendCursorClose(uint64_t cursor_id) {
  std::vector<uint8_t> body;
  AppendU64(&body, cursor_id);
  return SendRequest(MessageType::kCursorClose, body);
}

Result<uint64_t> SfcClient::SendSnapshotAcquire() {
  return SendRequest(MessageType::kSnapshotAcquire, {});
}

Result<uint64_t> SfcClient::SendSnapshotRelease(uint64_t snapshot_id) {
  std::vector<uint8_t> body;
  AppendU64(&body, snapshot_id);
  return SendRequest(MessageType::kSnapshotRelease, body);
}

Result<uint64_t> SfcClient::SendDumpMetrics() {
  return SendRequest(MessageType::kDumpMetrics, {});
}

Result<uint64_t> SfcClient::SendPing() {
  return SendRequest(MessageType::kPing, {});
}

// --- synchronous wrappers -------------------------------------------------

Status SfcClient::Call(MessageType type, const std::vector<uint8_t>& payload,
                       Response* out) {
  const Result<uint64_t> id = SendRequest(type, payload);
  if (!id.ok()) return id.status();
  const Status status = ReadResponse(out);
  if (!status.ok()) return status;
  // Request id 0 is never sent: an error under it is addressed to the
  // connection, e.g. an admission-control refusal.
  if (out->request_id == 0 && !out->status.ok()) return out->status;
  if (out->request_id != id.value() ||
      out->request_type != static_cast<uint8_t>(type)) {
    return Status::Corruption("response does not match request (id " +
                              std::to_string(out->request_id) + " type " +
                              std::to_string(out->request_type) + ")");
  }
  return out->status;
}

Status SfcClient::Put(const std::string& table, const Cell& cell,
                      uint64_t payload) {
  std::vector<uint8_t> body;
  AppendString(&body, table);
  AppendCell(&body, cell);
  AppendU64(&body, payload);
  Response response;
  return Call(MessageType::kPut, body, &response);
}

Status SfcClient::Delete(const std::string& table, const Cell& cell) {
  std::vector<uint8_t> body;
  AppendString(&body, table);
  AppendCell(&body, cell);
  Response response;
  return Call(MessageType::kDelete, body, &response);
}

Status SfcClient::Write(const storage::WriteBatch& batch) {
  const Result<uint64_t> id = SendWrite(batch);
  if (!id.ok()) return id.status();
  Response response;
  const Status status = ReadResponse(&response);
  if (!status.ok()) return status;
  return response.status;
}

Status SfcClient::Get(const std::string& table, const Cell& cell,
                      std::vector<uint64_t>* payloads, uint64_t snapshot_id) {
  std::vector<uint8_t> body;
  AppendString(&body, table);
  AppendCell(&body, cell);
  AppendU64(&body, snapshot_id);
  Response response;
  const Status status = Call(MessageType::kGet, body, &response);
  if (!status.ok()) return status;
  *payloads = std::move(response.payloads);
  return Status::OK();
}

Result<uint64_t> SfcClient::OpenBoxCursor(const std::string& table,
                                          const Box& box,
                                          const RemoteReadOptions& options) {
  const Result<uint64_t> id = SendOpenBoxCursor(table, box, options);
  if (!id.ok()) return id.status();
  Response response;
  const Status status = ReadResponse(&response);
  if (!status.ok()) return status;
  if (!response.status.ok()) return response.status;
  return response.cursor_id;
}

Result<uint64_t> SfcClient::OpenIndexCursor(const std::string& table,
                                            const std::string& index,
                                            const Box& box,
                                            const RemoteReadOptions& options) {
  const Result<uint64_t> id = SendOpenIndexCursor(table, index, box, options);
  if (!id.ok()) return id.status();
  Response response;
  const Status status = ReadResponse(&response);
  if (!status.ok()) return status;
  if (!response.status.ok()) return response.status;
  return response.cursor_id;
}

Status SfcClient::CursorNext(uint64_t cursor_id, uint32_t max_entries,
                             std::vector<SpatialEntry>* entries, bool* done,
                             bool* hit_read_budget) {
  std::vector<uint8_t> body;
  AppendU64(&body, cursor_id);
  AppendU32(&body, max_entries);
  Response response;
  const Status status = Call(MessageType::kCursorNext, body, &response);
  if (!status.ok()) return status;
  entries->insert(entries->end(), response.entries.begin(),
                  response.entries.end());
  *done = (response.flags & kCursorDone) != 0;
  if (hit_read_budget != nullptr) {
    *hit_read_budget = (response.flags & kCursorHitReadBudget) != 0;
  }
  return Status::OK();
}

Status SfcClient::CursorClose(uint64_t cursor_id) {
  std::vector<uint8_t> body;
  AppendU64(&body, cursor_id);
  Response response;
  return Call(MessageType::kCursorClose, body, &response);
}

Result<uint64_t> SfcClient::SnapshotAcquire() {
  const Result<uint64_t> id = SendSnapshotAcquire();
  if (!id.ok()) return id.status();
  Response response;
  const Status status = ReadResponse(&response);
  if (!status.ok()) return status;
  if (!response.status.ok()) return response.status;
  return response.snapshot_id;
}

Status SfcClient::SnapshotRelease(uint64_t snapshot_id) {
  std::vector<uint8_t> body;
  AppendU64(&body, snapshot_id);
  Response response;
  return Call(MessageType::kSnapshotRelease, body, &response);
}

Status SfcClient::DumpMetrics(std::string* json) {
  Response response;
  const Status status = Call(MessageType::kDumpMetrics, {}, &response);
  if (!status.ok()) return status;
  *json = std::move(response.text);
  return Status::OK();
}

Status SfcClient::Ping() {
  Response response;
  return Call(MessageType::kPing, {}, &response);
}

Status SfcClient::BoxQuery(const std::string& table, const Box& box,
                           std::vector<SpatialEntry>* entries,
                           const RemoteReadOptions& options,
                           bool* hit_read_budget) {
  const Result<uint64_t> cursor = OpenBoxCursor(table, box, options);
  if (!cursor.ok()) return cursor.status();
  if (hit_read_budget != nullptr) *hit_read_budget = false;
  bool done = false;
  while (!done) {
    bool hit = false;
    const Status status =
        CursorNext(cursor.value(), 512, entries, &done, &hit);
    if (!status.ok()) {
      (void)CursorClose(cursor.value());
      return status;
    }
    if (hit && hit_read_budget != nullptr) *hit_read_budget = true;
  }
  return Status::OK();  // a done cursor is already closed server-side
}

}  // namespace onion::net
