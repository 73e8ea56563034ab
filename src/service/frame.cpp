#include "service/frame.h"

namespace plg::service::wire {

bool known_request_verb(std::uint8_t verb) noexcept {
  switch (static_cast<Verb>(verb)) {
    case Verb::kAdjBatch:
    case Verb::kDistBatch:
    case Verb::kPing:
    case Verb::kStats:
    case Verb::kDeadline:
      return true;
    case Verb::kError:
      break;  // response-only
  }
  return false;
}

// plglint: untrusted-input
HeaderError decode_header(const std::uint8_t* data, std::size_t size,
                          std::size_t max_payload, FrameHeader& out,
                          bool require_request) noexcept {
  if (size < kHeaderSize) return HeaderError::kNeedMore;
  if (get_u32(data) != kMagic) return HeaderError::kBadMagic;
  out.version = data[4];
  if (out.version != kWireVersion) return HeaderError::kBadVersion;
  const std::uint8_t verb = data[5];
  out.status = data[6];
  out.reserved = data[7];
  out.request_id = get_u32(data + 8);
  out.length = get_u32(data + 12);
  // The one rule that stops allocation attacks cold: the announced
  // length is checked against the cap before anything is buffered — and
  // before the verb, so a kBadVerb frame still has a trusted length and
  // can be skipped recoverably instead of desynchronizing the stream.
  if (out.length > max_payload) return HeaderError::kOversize;
  if (require_request) {
    // Requests carry no status and the reserved byte is pinned to zero,
    // so a future version can claim it without ambiguity — and a client
    // spraying garbage into "unused" bytes is told so immediately.
    if (out.status != 0 || out.reserved != 0) {
      return HeaderError::kBadReserved;
    }
    if (!known_request_verb(verb)) return HeaderError::kBadVerb;
  }
  out.verb = static_cast<Verb>(verb);
  return HeaderError::kOk;
}

void put_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  out.push_back(static_cast<std::uint8_t>(v));
  out.push_back(static_cast<std::uint8_t>(v >> 8));
  out.push_back(static_cast<std::uint8_t>(v >> 16));
  out.push_back(static_cast<std::uint8_t>(v >> 24));
}

void put_u64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
}

std::uint32_t get_u32(const std::uint8_t* p) noexcept {
  return static_cast<std::uint32_t>(p[0]) |
         (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) |
         (static_cast<std::uint32_t>(p[3]) << 24);
}

std::uint64_t get_u64(const std::uint8_t* p) noexcept {
  std::uint64_t v = 0;
  for (int i = 7; i >= 0; --i) {
    v = (v << 8) | p[i];
  }
  return v;
}

void store_u32(std::uint8_t* p, std::uint32_t v) noexcept {
  p[0] = static_cast<std::uint8_t>(v);
  p[1] = static_cast<std::uint8_t>(v >> 8);
  p[2] = static_cast<std::uint8_t>(v >> 16);
  p[3] = static_cast<std::uint8_t>(v >> 24);
}

void store_u64(std::uint8_t* p, std::uint64_t v) noexcept {
  store_u32(p, static_cast<std::uint32_t>(v));
  store_u32(p + 4, static_cast<std::uint32_t>(v >> 32));
}

void put_header(std::vector<std::uint8_t>& out, Verb verb, FrameStatus status,
                std::uint32_t request_id, std::uint32_t length) {
  put_u32(out, kMagic);
  out.push_back(kWireVersion);
  out.push_back(static_cast<std::uint8_t>(verb));
  out.push_back(static_cast<std::uint8_t>(status));
  out.push_back(0);  // reserved
  put_u32(out, request_id);
  put_u32(out, length);
}

void put_batch_request(std::vector<std::uint8_t>& out, Verb verb,
                       std::uint32_t request_id,
                       const std::pair<std::uint64_t, std::uint64_t>* queries,
                       std::size_t n) {
  put_header(out, verb, FrameStatus::kOk, request_id,
             static_cast<std::uint32_t>(n * kQueryRecordSize));
  for (std::size_t i = 0; i < n; ++i) {
    put_u64(out, queries[i].first);
    put_u64(out, queries[i].second);
  }
}

void put_empty_request(std::vector<std::uint8_t>& out, Verb verb,
                       std::uint32_t request_id) {
  put_header(out, verb, FrameStatus::kOk, request_id, 0);
}

void put_deadline_request(std::vector<std::uint8_t>& out,
                          std::uint32_t request_id, std::uint32_t ms) {
  put_header(out, Verb::kDeadline, FrameStatus::kOk, request_id, 4);
  put_u32(out, ms);
}

void put_error_response(std::vector<std::uint8_t>& out, FrameStatus status,
                        std::uint32_t request_id, const std::string& reason) {
  put_header(out, Verb::kError, status, request_id,
             static_cast<std::uint32_t>(reason.size()));
  out.insert(out.end(), reason.begin(), reason.end());
}

std::size_t batch_response_size(Verb verb, std::size_t n) noexcept {
  return kHeaderSize +
         n * (verb == Verb::kDistBatch ? kDistRecordSize : std::size_t{1});
}

const char* frame_status_name(FrameStatus s) noexcept {
  switch (s) {
    case FrameStatus::kOk:
      return "ok";
    case FrameStatus::kWrongScheme:
      return "verb does not match served scheme";
    case FrameStatus::kBadVerb:
      return "unknown verb";
    case FrameStatus::kShutdown:
      return "server draining";
    case FrameStatus::kOverCapacity:
      return "connection limit reached";
    case FrameStatus::kBadMagic:
      return "bad magic";
    case FrameStatus::kBadVersion:
      return "unsupported version";
    case FrameStatus::kBadReserved:
      return "nonzero reserved/status byte";
    case FrameStatus::kOversize:
      return "frame exceeds size cap";
    case FrameStatus::kBadPayload:
      return "payload inconsistent with verb";
  }
  return "unknown";
}

}  // namespace plg::service::wire
