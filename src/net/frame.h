// Length-prefixed framing for the LMerge wire protocol.
//
// Every protocol message travels as one frame:
//
//   [u32 payload_length (LE)] [u8 frame_type] [payload bytes ...]
//
// The payload is a serde byte string (common/serde.h) whose layout depends
// on the frame type (net/protocol.h).  Framing is the only part of the
// protocol that touches raw transport bytes: a FrameAssembler is fed
// arbitrary chunks as they arrive from a Connection and yields complete
// frames.  Every malformed input — oversized length prefix, unknown or
// retired type, truncation — surfaces as a Status error, never a crash (the same contract
// as the serde decoders, tests/net/frame_test.cc).

#ifndef LMERGE_NET_FRAME_H_
#define LMERGE_NET_FRAME_H_

#include <cstdint>
#include <string>

#include "common/status.h"

namespace lmerge::net {

enum class FrameType : uint8_t {
  kHello = 1,     // client -> server: role, stream properties, join time
  kWelcome = 2,   // server -> client: assigned stream id, algorithm, stable
  // Tag 3 was the single-ELEMENT frame: retired, rejected by the
  // assembler, never reused.
  kElements = 4,  // publisher -> server: a batch with inline payloads
  kFeedback = 5,  // server -> publisher: stable-point horizon (Sec. V-D)
  kBye = 6,       // either direction: orderly close with a reason
  // The payload dictionary (docs/SERVICE.md): a session-scoped,
  // per-direction mapping id -> payload, so repeated payloads cross the
  // wire as small varint ids instead of full rows.
  kPayloadDef = 7,     // defines one (id, payload) dictionary entry
  kElementsDict = 8,   // batched sequence with dictionary-coded payloads
  // Live stats (docs/OBSERVABILITY.md): a monitor or any connected peer
  // polls the server's metrics registry over the session.
  kStatsRequest = 9,   // client -> server: ask for a stats snapshot
  kStatsResponse = 10, // server -> client: server state + metrics snapshot
  // Replication (docs/REPLICATION.md): a standby subscribes, streams the
  // primary's checkpoint under live traffic, and replays its feed from the
  // certified cut.
  kCheckpointRequest = 11,  // standby -> server: ask for checkpoint + cut
  kCheckpointChunk = 12,    // server -> standby: one checkpoint blob chunk
  kCutCert = 13,            // server -> standby: cut certificate + framing
};

const char* FrameTypeName(FrameType type);
bool IsKnownFrameType(uint8_t tag);

// Upper bound on a frame payload; a length prefix beyond this is treated as
// a protocol violation (protects the assembler from hostile 4 GiB prefixes).
inline constexpr uint32_t kMaxFramePayload = 16u * 1024u * 1024u;

// Frame header size on the wire: u32 length + u8 type.
inline constexpr size_t kFrameHeaderBytes = 5;

struct Frame {
  FrameType type = FrameType::kBye;
  std::string payload;
};

// Appends one encoded frame to `*out` (which may already hold frames).
void AppendFrame(FrameType type, const std::string& payload,
                 std::string* out);

// Convenience: a single encoded frame.
std::string EncodeFrame(FrameType type, const std::string& payload);

// Incremental frame parser.  Feed() accepts transport chunks of any size
// (including partial headers); Next() pops the earliest complete frame.
// After Feed() returns an error the assembler is poisoned — the connection
// carries garbage and must be torn down.
class FrameAssembler {
 public:
  explicit FrameAssembler(uint32_t max_payload = kMaxFramePayload)
      : max_payload_(max_payload) {}

  Status Feed(const char* data, size_t size);
  Status Feed(const std::string& bytes) {
    return Feed(bytes.data(), bytes.size());
  }

  // Moves the next complete frame into `*frame`; false when more bytes are
  // needed first.
  bool Next(Frame* frame);

  // Bytes buffered but not yet consumed as complete frames.
  size_t pending_bytes() const { return buffer_.size() - consumed_; }
  bool poisoned() const { return poisoned_; }

 private:
  // Validates the header at the front of the buffer (if present).
  Status CheckFront();

  uint32_t max_payload_;
  std::string buffer_;
  size_t consumed_ = 0;  // prefix of buffer_ already handed out
  bool poisoned_ = false;
};

}  // namespace lmerge::net

#endif  // LMERGE_NET_FRAME_H_
