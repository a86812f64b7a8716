#include "net/protocol.h"

#include "common/serde.h"
#include "stream/element_serde.h"

namespace lmerge::net {

namespace {

// Bit positions of PropertiesToBits; part of the frozen HELLO layout.
constexpr uint8_t kBitInsertOnly = 1u << 0;
constexpr uint8_t kBitOrdered = 1u << 1;
constexpr uint8_t kBitStrictlyIncreasing = 1u << 2;
constexpr uint8_t kBitDeterministicTies = 1u << 3;
constexpr uint8_t kBitVsPayloadKey = 1u << 4;

Status FinishDecode(const Decoder& decoder) {
  if (!decoder.AtEnd()) {
    return Status::InvalidArgument("trailing bytes after message");
  }
  return Status::Ok();
}

}  // namespace

const char* PeerRoleName(PeerRole role) {
  switch (role) {
    case PeerRole::kPublisher:
      return "publisher";
    case PeerRole::kSubscriber:
      return "subscriber";
    case PeerRole::kMonitor:
      return "monitor";
    case PeerRole::kStandby:
      return "standby";
  }
  return "unknown";
}

uint8_t PropertiesToBits(const StreamProperties& properties) {
  uint8_t bits = 0;
  if (properties.insert_only) bits |= kBitInsertOnly;
  if (properties.ordered) bits |= kBitOrdered;
  if (properties.strictly_increasing) bits |= kBitStrictlyIncreasing;
  if (properties.deterministic_ties) bits |= kBitDeterministicTies;
  if (properties.vs_payload_key) bits |= kBitVsPayloadKey;
  return bits;
}

StreamProperties PropertiesFromBits(uint8_t bits) {
  StreamProperties p;
  p.insert_only = (bits & kBitInsertOnly) != 0;
  p.ordered = (bits & kBitOrdered) != 0;
  p.strictly_increasing = (bits & kBitStrictlyIncreasing) != 0;
  p.deterministic_ties = (bits & kBitDeterministicTies) != 0;
  p.vs_payload_key = (bits & kBitVsPayloadKey) != 0;
  return p.Normalized();
}

std::string EncodeHelloFrame(const HelloMessage& hello) {
  Encoder encoder;
  encoder.WriteU32(hello.version);
  encoder.WriteU8(static_cast<uint8_t>(hello.role));
  encoder.WriteU8(PropertiesToBits(hello.properties));
  encoder.WriteI64(hello.join_time);
  encoder.WriteString(hello.peer_name);
  return EncodeFrame(FrameType::kHello, encoder.TakeBytes());
}

Status DecodeHello(const std::string& payload, HelloMessage* hello) {
  Decoder decoder(payload);
  Status status;
  uint8_t role = 0;
  uint8_t bits = 0;
  if (!(status = decoder.ReadU32(&hello->version)).ok()) return status;
  if (!(status = decoder.ReadU8(&role)).ok()) return status;
  if (role > static_cast<uint8_t>(PeerRole::kStandby)) {
    return Status::InvalidArgument("unknown peer role " +
                                   std::to_string(role));
  }
  hello->role = static_cast<PeerRole>(role);
  if (!(status = decoder.ReadU8(&bits)).ok()) return status;
  hello->properties = PropertiesFromBits(bits);
  if (!(status = decoder.ReadI64(&hello->join_time)).ok()) return status;
  if (!(status = decoder.ReadString(&hello->peer_name)).ok()) return status;
  return FinishDecode(decoder);
}

std::string EncodeWelcomeFrame(const WelcomeMessage& welcome) {
  Encoder encoder;
  encoder.WriteU32(welcome.version);
  encoder.WriteU32(static_cast<uint32_t>(welcome.stream_id));
  encoder.WriteU8(welcome.algorithm_case);
  encoder.WriteI64(welcome.output_stable);
  return EncodeFrame(FrameType::kWelcome, encoder.TakeBytes());
}

Status DecodeWelcome(const std::string& payload, WelcomeMessage* welcome) {
  Decoder decoder(payload);
  Status status;
  uint32_t stream_id = 0;
  if (!(status = decoder.ReadU32(&welcome->version)).ok()) return status;
  if (!(status = decoder.ReadU32(&stream_id)).ok()) return status;
  welcome->stream_id = static_cast<int32_t>(stream_id);
  if (!(status = decoder.ReadU8(&welcome->algorithm_case)).ok()) {
    return status;
  }
  if (!(status = decoder.ReadI64(&welcome->output_stable)).ok()) {
    return status;
  }
  return FinishDecode(decoder);
}

std::string EncodeElementsFrame(const ElementSequence& elements,
                                int64_t origin_us) {
  Encoder encoder;
  EncodeSequence(elements, &encoder);
  encoder.WriteI64(origin_us);
  return EncodeFrame(FrameType::kElements, encoder.TakeBytes());
}

Status DecodeElementsPayload(const std::string& payload,
                             ElementSequence* elements, int64_t* origin_us) {
  Decoder decoder(payload);
  Status status = DecodeSequence(&decoder, elements);
  if (!status.ok()) return status;
  if (!(status = decoder.ReadI64(origin_us)).ok()) return status;
  return FinishDecode(decoder);
}

std::string EncodeFeedbackFrame(const FeedbackMessage& feedback) {
  Encoder encoder;
  encoder.WriteI64(feedback.horizon);
  return EncodeFrame(FrameType::kFeedback, encoder.TakeBytes());
}

Status DecodeFeedback(const std::string& payload, FeedbackMessage* feedback) {
  Decoder decoder(payload);
  const Status status = decoder.ReadI64(&feedback->horizon);
  if (!status.ok()) return status;
  return FinishDecode(decoder);
}

std::string EncodeByeFrame(const ByeMessage& bye) {
  Encoder encoder;
  encoder.WriteString(bye.reason);
  return EncodeFrame(FrameType::kBye, encoder.TakeBytes());
}

Status DecodeBye(const std::string& payload, ByeMessage* bye) {
  Decoder decoder(payload);
  const Status status = decoder.ReadString(&bye->reason);
  if (!status.ok()) return status;
  return FinishDecode(decoder);
}

std::string EncodePayloadDefFrame(const PayloadDefMessage& def) {
  Encoder encoder;
  EncodePayloadDef(def.id, def.payload, &encoder);
  return EncodeFrame(FrameType::kPayloadDef, encoder.TakeBytes());
}

DictBatchParts EncodeDictBatchParts(const ElementSequence& elements,
                                    PayloadDictEncoder* dict) {
  Encoder body;
  std::vector<std::pair<uint32_t, Row>> new_defs;
  EncodeSequenceDict(elements, dict, &new_defs, &body);
  DictBatchParts parts;
  for (const auto& [id, payload] : new_defs) {
    Encoder def;
    EncodePayloadDef(id, payload, &def);
    AppendFrame(FrameType::kPayloadDef, def.TakeBytes(), &parts.defs);
  }
  parts.body = body.TakeBytes();
  return parts;
}

std::string AssembleElementsDictFrame(const DictBatchParts& parts,
                                      int64_t origin_us) {
  Encoder stamp;
  stamp.WriteI64(origin_us);
  std::string out = parts.defs;
  AppendFrame(FrameType::kElementsDict, parts.body + stamp.bytes(), &out);
  return out;
}

std::string EncodeElementsDictFrame(const ElementSequence& elements,
                                    PayloadDictEncoder* dict,
                                    int64_t origin_us) {
  return AssembleElementsDictFrame(EncodeDictBatchParts(elements, dict),
                                   origin_us);
}

Status DecodePayloadDefPayload(const std::string& payload,
                               PayloadDefMessage* def) {
  Decoder decoder(payload);
  const Status status = DecodePayloadDef(&decoder, &def->id, &def->payload);
  if (!status.ok()) return status;
  return FinishDecode(decoder);
}

Status DecodeElementsDictPayload(const std::string& payload,
                                 const PayloadDictDecoder& dict,
                                 ElementSequence* elements,
                                 int64_t* origin_us) {
  Decoder decoder(payload);
  Status status = DecodeSequenceDict(&decoder, dict, elements);
  if (!status.ok()) return status;
  if (!(status = decoder.ReadI64(origin_us)).ok()) return status;
  return FinishDecode(decoder);
}

std::string EncodeStatsRequestFrame() {
  return EncodeFrame(FrameType::kStatsRequest, std::string());
}

Status DecodeStatsRequest(const std::string& payload) {
  if (!payload.empty()) {
    return Status::InvalidArgument("STATS_REQUEST carries no payload");
  }
  return Status::Ok();
}

std::string EncodeStatsResponseFrame(const StatsResponseMessage& stats) {
  Encoder encoder;
  encoder.WriteU8(stats.algorithm_case);
  encoder.WriteI64(stats.output_stable);
  encoder.WriteI64(stats.output_inserts);
  encoder.WriteI64(stats.output_adjusts);
  encoder.WriteU32(static_cast<uint32_t>(stats.publishers));
  encoder.WriteU32(static_cast<uint32_t>(stats.subscribers));
  encoder.WriteU32(static_cast<uint32_t>(stats.inputs.size()));
  for (const StatsInputRow& row : stats.inputs) {
    encoder.WriteU32(static_cast<uint32_t>(row.stream_id));
    encoder.WriteString(row.peer_name);
    encoder.WriteU8(static_cast<uint8_t>((row.connected ? 1 : 0) |
                                         (row.active ? 2 : 0)));
    encoder.WriteI64(row.inserts_in);
    encoder.WriteI64(row.adjusts_in);
    encoder.WriteI64(row.stables_in);
    encoder.WriteI64(row.dropped);
    encoder.WriteI64(row.contributed);
    encoder.WriteI64(row.stable_point);
  }
  obs::EncodeMetricsSnapshot(stats.metrics, &encoder);
  encoder.WriteI64(stats.metrics.captured_wall_ms);
  encoder.WriteI64(stats.metrics.captured_mono_us);
  return EncodeFrame(FrameType::kStatsResponse, encoder.TakeBytes());
}

Status DecodeStatsResponse(const std::string& payload,
                           StatsResponseMessage* stats) {
  Decoder decoder(payload);
  Status status;
  if (!(status = decoder.ReadU8(&stats->algorithm_case)).ok()) return status;
  if (!(status = decoder.ReadI64(&stats->output_stable)).ok()) return status;
  if (!(status = decoder.ReadI64(&stats->output_inserts)).ok()) return status;
  if (!(status = decoder.ReadI64(&stats->output_adjusts)).ok()) return status;
  uint32_t publishers = 0;
  uint32_t subscribers = 0;
  uint32_t input_count = 0;
  if (!(status = decoder.ReadU32(&publishers)).ok()) return status;
  if (!(status = decoder.ReadU32(&subscribers)).ok()) return status;
  stats->publishers = static_cast<int32_t>(publishers);
  stats->subscribers = static_cast<int32_t>(subscribers);
  if (!(status = decoder.ReadU32(&input_count)).ok()) return status;
  // Each row is at least 4 + 4 + 1 + 6*8 bytes; reject counts the buffer
  // cannot hold (hostile-input bound, same pattern as the serde decoders).
  if (input_count > decoder.remaining() / 57 + 1) {
    return Status::InvalidArgument("stats input row count too large");
  }
  stats->inputs.clear();
  stats->inputs.reserve(input_count);
  for (uint32_t i = 0; i < input_count; ++i) {
    StatsInputRow row;
    uint32_t stream_id = 0;
    uint8_t flags = 0;
    if (!(status = decoder.ReadU32(&stream_id)).ok()) return status;
    row.stream_id = static_cast<int32_t>(stream_id);
    if (!(status = decoder.ReadString(&row.peer_name)).ok()) return status;
    if (!(status = decoder.ReadU8(&flags)).ok()) return status;
    row.connected = (flags & 1) != 0;
    row.active = (flags & 2) != 0;
    if (!(status = decoder.ReadI64(&row.inserts_in)).ok()) return status;
    if (!(status = decoder.ReadI64(&row.adjusts_in)).ok()) return status;
    if (!(status = decoder.ReadI64(&row.stables_in)).ok()) return status;
    if (!(status = decoder.ReadI64(&row.dropped)).ok()) return status;
    if (!(status = decoder.ReadI64(&row.contributed)).ok()) return status;
    if (!(status = decoder.ReadI64(&row.stable_point)).ok()) return status;
    stats->inputs.push_back(std::move(row));
  }
  if (!(status = obs::DecodeMetricsSnapshot(&decoder, &stats->metrics))
           .ok()) {
    return status;
  }
  if (!(status = decoder.ReadI64(&stats->metrics.captured_wall_ms)).ok()) {
    return status;
  }
  if (!(status = decoder.ReadI64(&stats->metrics.captured_mono_us)).ok()) {
    return status;
  }
  return FinishDecode(decoder);
}

std::string EncodeCheckpointRequestFrame() {
  return EncodeFrame(FrameType::kCheckpointRequest, std::string());
}

Status DecodeCheckpointRequest(const std::string& payload) {
  if (!payload.empty()) {
    return Status::InvalidArgument("CHECKPOINT_REQUEST carries no payload");
  }
  return Status::Ok();
}

std::string EncodeCheckpointChunkFrame(const CheckpointChunkMessage& chunk) {
  Encoder encoder;
  encoder.Reserve(chunk.bytes.size() + 16);
  encoder.WriteU32(chunk.index);
  encoder.WriteString(chunk.bytes);
  return EncodeFrame(FrameType::kCheckpointChunk, encoder.TakeBytes());
}

Status DecodeCheckpointChunk(const std::string& payload,
                             CheckpointChunkMessage* chunk) {
  Decoder decoder(payload);
  Status status;
  if (!(status = decoder.ReadU32(&chunk->index)).ok()) return status;
  if (!(status = decoder.ReadString(&chunk->bytes)).ok()) return status;
  return FinishDecode(decoder);
}

std::string EncodeCutCertFrame(const CutCertMessage& cut) {
  Encoder encoder;
  encoder.WriteU8(cut.has_state ? 1 : 0);
  encoder.WriteU64(cut.checkpoint_bytes);
  encoder.WriteU32(cut.chunk_count);
  replica::EncodeCutCertificate(cut.cert, &encoder);
  return EncodeFrame(FrameType::kCutCert, encoder.TakeBytes());
}

Status DecodeCutCert(const std::string& payload, CutCertMessage* cut) {
  Decoder decoder(payload);
  Status status;
  uint8_t has_state = 0;
  if (!(status = decoder.ReadU8(&has_state)).ok()) return status;
  cut->has_state = has_state != 0;
  if (!(status = decoder.ReadU64(&cut->checkpoint_bytes)).ok()) return status;
  if (!(status = decoder.ReadU32(&cut->chunk_count)).ok()) return status;
  if (!(status = replica::DecodeCutCertificate(&decoder, &cut->cert)).ok()) {
    return status;
  }
  if (!cut->has_state && (cut->checkpoint_bytes != 0 || cut->chunk_count != 0)) {
    return Status::InvalidArgument(
        "CUT_CERT announces chunks without checkpoint state");
  }
  if (cut->checkpoint_bytes >
      static_cast<uint64_t>(cut->chunk_count) * kMaxFramePayload) {
    return Status::InvalidArgument("CUT_CERT checkpoint size exceeds chunks");
  }
  return FinishDecode(decoder);
}

}  // namespace lmerge::net
