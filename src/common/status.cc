#include "common/status.h"

namespace onion {

const char* StatusCodeName(StatusCode code) {
  switch (code) {
    case StatusCode::kOk:
      return "OK";
    case StatusCode::kInvalidArgument:
      return "InvalidArgument";
    case StatusCode::kOutOfRange:
      return "OutOfRange";
    case StatusCode::kNotFound:
      return "NotFound";
    case StatusCode::kUnimplemented:
      return "Unimplemented";
    case StatusCode::kInternal:
      return "Internal";
    case StatusCode::kCorruption:
      return "Corruption";
    case StatusCode::kResourceExhausted:
      return "ResourceExhausted";
  }
  return "Unknown";
}

std::string Status::ToString() const {
  if (ok()) return "OK";
  std::string out = StatusCodeName(code_);
  if (!message_.empty()) {
    out += ": ";
    out += message_;
  }
  return out;
}

}  // namespace onion
