// Typed messages of the LMerge wire protocol, one per frame type.
//
// Payload layouts (all via common/serde.h, little-endian, length-prefixed
// strings; the dictionary-coded ELEMENTS_DICT uses varints; see
// docs/SERVICE.md for the byte-level tables):
//
//   HELLO     u32 version, u8 role, u8 property bits, i64 join_time,
//             string peer_name
//   WELCOME   u32 version, i32 stream_id (-1 for subscribers),
//             u8 algorithm_case (kUnknownAlgorithmCase before selection),
//             i64 output_stable
//   ELEMENTS  one EncodeSequence payload, then i64 origin_us
//             (publisher -> server only; the dictionary-free batch)
//   FEEDBACK  i64 horizon
//   BYE       string reason
//   ELEMENTS_DICT  varint def_count, then def_count compact rows (the
//                  batch's new dictionary entries, taking the receiver's
//                  next ids in order), then one EncodeSequenceDict
//                  payload: varint count, varint/delta-coded elements
//                  (stream/element_serde.h), then i64 origin_us
//   STATS_REQUEST  (empty)              (poll the server's stats)
//   STATS_RESPONSE server summary + per-input table + metrics snapshot,
//                  then i64 captured_wall_ms, i64 captured_mono_us
//   CHECKPOINT_REQUEST  (empty)         (standby asks for a snapshot)
//   CHECKPOINT_CHUNK    u32 index, string bytes (one blob chunk)
//   CUT_CERT       u8 has_state, u64 checkpoint_bytes, u32 chunk_count,
//                  cut certificate (src/replica/cut_certificate.h)
//
// One protocol version, matched exactly: the server answers a HELLO of any
// other version with a BYE naming both versions, and every client rejects
// a WELCOME of another version.  The HELLO and WELCOME layouts are frozen,
// so any build can read that rejection; peers interoperate only when built
// at the same kProtocolVersion.  Subscribers and standbys receive the
// merged output only as ELEMENTS_DICT.  Frame tags 3 (the retired
// single-ELEMENT frame) and 7 (the retired PAYLOAD_DEF frame) are never
// reused.
//
// Every Decode* consumes exactly one message and rejects trailing bytes, so
// a frame is either a whole valid message or a Status error.

#ifndef LMERGE_NET_PROTOCOL_H_
#define LMERGE_NET_PROTOCOL_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/timestamp.h"
#include "net/frame.h"
#include "obs/metrics.h"
#include "properties/properties.h"
#include "replica/cut_certificate.h"
#include "stream/element.h"
#include "stream/element_serde.h"

namespace lmerge::net {

// The one wire version.  Every ELEMENTS / ELEMENTS_DICT payload ends with
// `i64 origin_us` (the sender's steady clock in microseconds at
// serialization; 0 = unknown, docs/OBSERVABILITY.md "Latency pipeline").
// 6 retired the version ladder and the single-ELEMENT frame; 7 carried
// checkpoint format v3; 8 carries v4 (common/checkpoint.h), whose pool
// names payloads the standby already holds by their broadcast-dictionary
// ids, in CHECKPOINT_CHUNK frames; 9 moves dictionary definitions into the
// ELEMENTS_DICT frame that first references them and retires PAYLOAD_DEF.
// A build of an older version fails at HELLO instead of mid-stream or at
// jumpstart.
inline constexpr uint32_t kProtocolVersion = 9;

// Checkpoint blobs are streamed in chunks of this size, and a late joiner's
// dictionary catch-up in frames of at most this size, so live element
// fan-out interleaves with the transfer instead of stalling behind one
// multi-megabyte frame.
inline constexpr size_t kCheckpointChunkBytes = 256 * 1024;

// WELCOME algorithm_case value when the server has not yet instantiated a
// merge algorithm (no publisher has connected).
inline constexpr uint8_t kUnknownAlgorithmCase = 0xff;

enum class PeerRole : uint8_t {
  kPublisher = 0,   // one redundant input replica (Sec. II-2)
  kSubscriber = 1,  // receives the merged output stream
  // Observes stats only — no elements flow in either direction, so a
  // dashboard never competes with subscribers for fan-out bandwidth.
  kMonitor = 2,
  // A subscriber that may additionally request the server's checkpoint and
  // cut certificate to jumpstart a hot replica (docs/REPLICATION.md).
  kStandby = 3,
};

const char* PeerRoleName(PeerRole role);

// Compact wire form of StreamProperties (one bit per flag).
uint8_t PropertiesToBits(const StreamProperties& properties);
StreamProperties PropertiesFromBits(uint8_t bits);

struct HelloMessage {
  uint32_t version = kProtocolVersion;
  PeerRole role = PeerRole::kPublisher;
  // Publisher: compile-time properties of the stream it will send, used for
  // factory algorithm selection (Sec. IV-G) on the server.
  StreamProperties properties;
  // Publisher: the stream is a correct presentation of the logical input for
  // every event alive at or after this time (Sec. V-B join protocol).
  Timestamp join_time = kMinTimestamp;
  std::string peer_name;
};

struct WelcomeMessage {
  uint32_t version = kProtocolVersion;
  int32_t stream_id = -1;
  uint8_t algorithm_case = kUnknownAlgorithmCase;
  Timestamp output_stable = kMinTimestamp;
};

struct FeedbackMessage {
  Timestamp horizon = kMinTimestamp;
};

struct ByeMessage {
  std::string reason;
};

// The retired PAYLOAD_DEF message (frame tag 7: varint id, compact row).
// No peer sends it and IsKnownFrameType refuses its tag; the message and
// DecodePayloadDefPayload remain only because the e2ebench harness still
// names them.
struct PayloadDefMessage {
  uint32_t id = 0;
  Row payload;
};

// One input stream's row in a STATS_RESPONSE: the merge algorithm's
// per-input counters joined with the server's session registry.
struct StatsInputRow {
  int32_t stream_id = -1;
  std::string peer_name;  // empty when the publisher has disconnected
  bool connected = false;
  bool active = false;  // still attached to the merge algorithm
  int64_t inserts_in = 0;
  int64_t adjusts_in = 0;
  int64_t stables_in = 0;
  int64_t dropped = 0;
  int64_t contributed = 0;  // output inserts this input triggered
  Timestamp stable_point = kMinTimestamp;
};

// One chunk of a checkpoint blob in flight to a standby.  Chunks carry a
// dense index so reassembly can verify none was lost or reordered.
struct CheckpointChunkMessage {
  uint32_t index = 0;
  std::string bytes;
};

// Answer to CHECKPOINT_REQUEST, sent *before* the chunks: the cut
// certificate plus the framing the standby needs to reassemble the blob.
// The certificate is also embedded in the blob itself (checkpoint v2 flags
// bit 0); the wire copy lets the standby validate the transfer and learn
// its dedup horizon without waiting for the last chunk.
struct CutCertMessage {
  // False when the server has no checkpointable state to offer (no
  // algorithm yet, or a variant without snapshot support); no chunks follow
  // and the standby simply subscribes from scratch.
  bool has_state = false;
  uint64_t checkpoint_bytes = 0;
  uint32_t chunk_count = 0;
  replica::CutCertificate cert;
};

struct StatsResponseMessage {
  uint8_t algorithm_case = kUnknownAlgorithmCase;
  Timestamp output_stable = kMinTimestamp;
  int64_t output_inserts = 0;  // merged output TDB event count
  int64_t output_adjusts = 0;
  int32_t publishers = 0;   // connected publisher sessions
  int32_t subscribers = 0;  // connected subscriber sessions
  std::vector<StatsInputRow> inputs;
  // Full registry snapshot (engine/net/payload instruments and more).
  obs::MetricsSnapshot metrics;
};

// Encoders produce a complete frame (header + payload), ready to Send.
std::string EncodeHelloFrame(const HelloMessage& hello);
std::string EncodeWelcomeFrame(const WelcomeMessage& welcome);
// The dictionary-free publisher -> server batch.
std::string EncodeElementsFrame(const ElementSequence& elements,
                                int64_t origin_us);
std::string EncodeFeedbackFrame(const FeedbackMessage& feedback);
std::string EncodeByeFrame(const ByeMessage& bye);
std::string EncodeStatsRequestFrame();
std::string EncodeStatsResponseFrame(const StatsResponseMessage& stats);
std::string EncodeCheckpointRequestFrame();
std::string EncodeCheckpointChunkFrame(const CheckpointChunkMessage& chunk);
std::string EncodeCutCertFrame(const CutCertMessage& cut);

// Dictionary-encodes `elements` against `dict` into one stamped
// ELEMENTS_DICT frame whose defs section carries the payloads first seen
// in this batch, ahead of the elements that reference them.
std::string EncodeElementsDictFrame(const ElementSequence& elements,
                                    PayloadDictEncoder* dict,
                                    int64_t origin_us);

// The pieces of one dictionary-coded batch, for senders that assemble the
// frame themselves: exactly one intern pass against `dict` produces the
// defs section and the element sequence (a second pass would see every
// payload as already defined and carry no definitions).
struct DictBatchParts {
  std::string defs;  // the defs section: varint count, then compact rows
  std::string body;  // the element sequence
};
DictBatchParts EncodeDictBatchParts(const ElementSequence& elements,
                                    PayloadDictEncoder* dict);
// The one stamped ELEMENTS_DICT frame of `parts`, built in one buffer.
std::string AssembleElementsDictFrame(const DictBatchParts& parts,
                                      int64_t origin_us);

// Zero-element, stamp-0 ELEMENTS_DICT frames of at most
// kCheckpointChunkBytes each (a single row larger than that rides alone)
// whose defs sections define `rows` in order: given a dictionary's rows(),
// they bring a receiver that joins late to that dictionary's state.
std::string EncodeCatchUpFrames(std::span<const Row> rows);

// Decoders parse a frame *payload* (as yielded by FrameAssembler).
Status DecodeHello(const std::string& payload, HelloMessage* hello);
Status DecodeWelcome(const std::string& payload, WelcomeMessage* welcome);
Status DecodeElementsPayload(const std::string& payload,
                             ElementSequence* elements, int64_t* origin_us);
Status DecodeFeedback(const std::string& payload, FeedbackMessage* feedback);
Status DecodeBye(const std::string& payload, ByeMessage* bye);
Status DecodePayloadDefPayload(const std::string& payload,
                               PayloadDefMessage* def);
// Defines the payload's defs section in `dict`, then decodes its elements
// against it.  An error may leave some of the section defined; the session
// carrying the frame is torn down either way.
Status DecodeElementsDictPayload(const std::string& payload,
                                 PayloadDictDecoder& dict,
                                 ElementSequence* elements,
                                 int64_t* origin_us);
Status DecodeStatsRequest(const std::string& payload);
Status DecodeStatsResponse(const std::string& payload,
                           StatsResponseMessage* stats);
Status DecodeCheckpointRequest(const std::string& payload);
Status DecodeCheckpointChunk(const std::string& payload,
                             CheckpointChunkMessage* chunk);
Status DecodeCutCert(const std::string& payload, CutCertMessage* cut);

}  // namespace lmerge::net

#endif  // LMERGE_NET_PROTOCOL_H_
