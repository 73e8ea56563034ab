// Wire protocol for the TCP serving plane: length-prefixed binary frames.
//
// Every message — request or response — is one frame:
//
//   offset  size  field
//   ------  ----  -----------------------------------------------------
//        0     4  magic       0x50 0x4C 0x47 0x51 ("PLGQ")
//        4     1  version     kWireVersion (1)
//        5     1  verb        Verb (request) / echoed verb or kError
//        6     1  status      requests: 0. responses: FrameStatus
//        7     1  reserved    must be 0 on requests (rejected otherwise)
//        8     4  request_id  u32 LE, echoed verbatim in the response
//       12     4  length      u32 LE payload byte count
//       16   len  payload
//
// Integers are little-endian and encoded/decoded byte-by-byte, so the
// codec is endianness- and alignment-independent. The codec is the ONLY
// place that interprets header bytes; the server and every client
// (netbench, the storm tests, the fuzzer) share it, which is what makes
// the differential fuzz meaningful.
//
// Hostile-input contract (the reason this file exists as a layer):
//   * decode_header never reads past `size`, never allocates, and never
//     throws — malformed bytes yield a HeaderError, not an exception.
//   * The length field is validated against the caller's max_payload cap
//     BEFORE any buffering decision is taken. A frame announcing an
//     attacker-controlled size is a protocol error (kOversize), never an
//     allocation.
//   * Query payloads are validated by arithmetic on the already-bounded
//     length (count = length / 16); a partial trailing record is a
//     protocol error (kBadPayload).
//
// Request payloads:
//   kAdjBatch   n x (u64 LE u, u64 LE v)  — n >= 1 adjacency queries
//   kDistBatch  n x (u64 LE u, u64 LE v)  — n >= 1 distance queries
//   kPing       empty
//   kStats      empty
//   kDeadline   u32 LE per-connection deadline in ms (0 clears)
//
// Response payloads (status kOk):
//   kAdjBatch   n x u8 ResultCode — one per query, in request order
//   kDistBatch  n x (u8 ResultCode, i64 LE distance; -1 = "> f"/unknown)
//   kPing       empty
//   kStats      one-line JSON stats report (ASCII)
//   kDeadline   empty
//
// Error responses echo the request_id when one was parsed (0 otherwise),
// carry verb kError, a FrameStatus naming the failure, and a short ASCII
// reason payload. Fatal protocol errors (anything that breaks framing:
// bad magic/version/reserved, oversize length, malformed payload) are
// followed by connection close; semantic errors (wrong verb for the
// served store, unknown verb with intact framing) keep the connection.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace plg::service::wire {

inline constexpr std::size_t kHeaderSize = 16;
inline constexpr std::uint8_t kWireVersion = 1;
/// "PLGQ" little-endian.
inline constexpr std::uint32_t kMagic = 0x51474C50u;
/// Bytes per (u,v) query record in a batch request payload.
inline constexpr std::size_t kQueryRecordSize = 16;
/// Bytes per record in a distance response payload (status + i64).
inline constexpr std::size_t kDistRecordSize = 9;

// plglint: exhaustive-switch
enum class Verb : std::uint8_t {
  kAdjBatch = 1,   ///< adjacency batch query
  kDistBatch = 2,  ///< distance batch query
  kPing = 3,       ///< liveness probe
  kStats = 4,      ///< one-line JSON stats
  kDeadline = 5,   ///< set per-connection deadline
  kError = 0x7F,   ///< response-only: protocol / semantic error
};

/// Response status byte. Values < kBadMagic are non-fatal; values from
/// kBadMagic on indicate the connection's framing can no longer be
/// trusted and the server closes after the error frame.
// plglint: exhaustive-switch
enum class FrameStatus : std::uint8_t {
  kOk = 0,
  kWrongScheme = 1,  ///< verb does not match the served label scheme
  kBadVerb = 2,      ///< unknown verb byte (framing intact; recoverable)
  kShutdown = 3,     ///< server is draining; no new work admitted
  kOverCapacity = 4, ///< connection limit reached; sent at accept, then close
  // --- fatal: close after replying ---
  kBadMagic = 16,
  kBadVersion = 17,
  kBadReserved = 18,
  kOversize = 19,    ///< length exceeds the server's frame cap
  kBadPayload = 20,  ///< payload length inconsistent with the verb
};

/// Per-query result code on the wire. Mirrors service::QueryStatus with
/// the adjacency answer folded in (kNo/kYes) so an adjacency response
/// costs one byte per query.
// plglint: exhaustive-switch
enum class ResultCode : std::uint8_t {
  kNo = 0,
  kYes = 1,
  kRange = 2,
  kCorrupt = 3,
  kOverloaded = 4,
  kDeadline = 5,
  kUnavailable = 6,  ///< cluster router: no live replica holds both labels
};

struct FrameHeader {
  std::uint8_t version = kWireVersion;
  Verb verb = Verb::kPing;
  std::uint8_t status = 0;
  std::uint8_t reserved = 0;
  std::uint32_t request_id = 0;
  std::uint32_t length = 0;
};

// plglint: exhaustive-switch
enum class HeaderError : std::uint8_t {
  kOk = 0,
  kNeedMore,     ///< fewer than kHeaderSize bytes available
  kBadMagic,
  kBadVersion,
  kBadVerb,      ///< verb byte outside the known set
  kBadReserved,  ///< reserved byte nonzero on a request
  kOversize,     ///< length > max_payload
};

/// True for verb bytes this protocol version defines (requests only;
/// kError is response-only and rejected here).
bool known_request_verb(std::uint8_t verb) noexcept;

/// Parses and validates a frame header from `data[0..size)`. Never reads
/// past size, never allocates, never throws. On kOk, `out` is filled and
/// the caller may buffer exactly kHeaderSize + out.length bytes. The
/// length cap is validated here — before any allocation decision —
/// against `max_payload`. `require_request` additionally enforces the
/// request-side rules (known request verb, zero status/reserved bytes);
/// clients parsing responses pass false.
HeaderError decode_header(const std::uint8_t* data, std::size_t size,
                          std::size_t max_payload, FrameHeader& out,
                          bool require_request = true) noexcept;

// --- little-endian primitives shared by codec, server, and clients ----

void put_u32(std::vector<std::uint8_t>& out, std::uint32_t v);
void put_u64(std::vector<std::uint8_t>& out, std::uint64_t v);
// plglint: wire-read
std::uint32_t get_u32(const std::uint8_t* p) noexcept;
// plglint: wire-read
std::uint64_t get_u64(const std::uint8_t* p) noexcept;
void store_u32(std::uint8_t* p, std::uint32_t v) noexcept;
void store_u64(std::uint8_t* p, std::uint64_t v) noexcept;

// --- frame builders (append to `out`; used by server and clients) -----

/// Appends a 16-byte header announcing `length` payload bytes; the
/// caller appends the payload itself.
void put_header(std::vector<std::uint8_t>& out, Verb verb,
                FrameStatus status, std::uint32_t request_id,
                std::uint32_t length);

/// Appends a complete batch request frame for `n` (u,v) pairs.
void put_batch_request(std::vector<std::uint8_t>& out, Verb verb,
                       std::uint32_t request_id,
                       const std::pair<std::uint64_t, std::uint64_t>* queries,
                       std::size_t n);

/// Appends an empty-payload request (kPing / kStats).
void put_empty_request(std::vector<std::uint8_t>& out, Verb verb,
                       std::uint32_t request_id);

/// Appends a kDeadline request.
void put_deadline_request(std::vector<std::uint8_t>& out,
                          std::uint32_t request_id, std::uint32_t ms);

/// Appends a kError response with a short ASCII reason payload.
void put_error_response(std::vector<std::uint8_t>& out, FrameStatus status,
                        std::uint32_t request_id, const std::string& reason);

/// Response size (header + payload) of a batch answer for `n` queries —
/// what the server reserves in a connection's write budget at admission.
std::size_t batch_response_size(Verb verb, std::size_t n) noexcept;

/// Human-readable name of a FrameStatus (error-frame payloads, logs).
const char* frame_status_name(FrameStatus s) noexcept;

}  // namespace plg::service::wire
