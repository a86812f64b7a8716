#include "net/frame.h"

#include <cstring>

namespace lmerge::net {

const char* FrameTypeName(FrameType type) {
  switch (type) {
    case FrameType::kHello:
      return "HELLO";
    case FrameType::kWelcome:
      return "WELCOME";
    case FrameType::kElements:
      return "ELEMENTS";
    case FrameType::kFeedback:
      return "FEEDBACK";
    case FrameType::kBye:
      return "BYE";
    case FrameType::kPayloadDef:
      return "PAYLOAD_DEF";
    case FrameType::kElementsDict:
      return "ELEMENTS_DICT";
    case FrameType::kStatsRequest:
      return "STATS_REQUEST";
    case FrameType::kStatsResponse:
      return "STATS_RESPONSE";
    case FrameType::kCheckpointRequest:
      return "CHECKPOINT_REQUEST";
    case FrameType::kCheckpointChunk:
      return "CHECKPOINT_CHUNK";
    case FrameType::kCutCert:
      return "CUT_CERT";
  }
  return "UNKNOWN";
}

bool IsKnownFrameType(uint8_t tag) {
  // Tags 3 (the retired single-ELEMENT frame) and 7 (the retired
  // PAYLOAD_DEF frame) sit inside the range.
  constexpr uint8_t kRetiredElementTag = 3;
  return tag >= static_cast<uint8_t>(FrameType::kHello) &&
         tag <= static_cast<uint8_t>(FrameType::kCutCert) &&
         tag != kRetiredElementTag &&
         tag != static_cast<uint8_t>(FrameType::kPayloadDef);
}

void AppendFrame(FrameType type, const std::string& payload,
                 std::string* out) {
  char header[kFrameHeaderBytes];
  EncodeFrameHeader(type, payload.size(), header);
  out->append(header, kFrameHeaderBytes);
  out->append(payload);
}

void EncodeFrameHeader(FrameType type, size_t payload_bytes,
                       char (&header)[kFrameHeaderBytes]) {
  const uint32_t length = static_cast<uint32_t>(payload_bytes);
  header[0] = static_cast<char>(length & 0xff);
  header[1] = static_cast<char>((length >> 8) & 0xff);
  header[2] = static_cast<char>((length >> 16) & 0xff);
  header[3] = static_cast<char>((length >> 24) & 0xff);
  header[4] = static_cast<char>(type);
}

std::string EncodeFrame(FrameType type, const std::string& payload) {
  std::string out;
  out.reserve(kFrameHeaderBytes + payload.size());
  AppendFrame(type, payload, &out);
  return out;
}

Status FrameAssembler::CheckFront() {
  if (pending_bytes() < kFrameHeaderBytes) return Status::Ok();
  const unsigned char* p =
      reinterpret_cast<const unsigned char*>(buffer_.data()) + consumed_;
  const uint32_t length = static_cast<uint32_t>(p[0]) |
                          (static_cast<uint32_t>(p[1]) << 8) |
                          (static_cast<uint32_t>(p[2]) << 16) |
                          (static_cast<uint32_t>(p[3]) << 24);
  if (length > max_payload_) {
    return Status::InvalidArgument(
        "frame payload length " + std::to_string(length) +
        " exceeds limit " + std::to_string(max_payload_));
  }
  if (!IsKnownFrameType(p[4])) {
    return Status::InvalidArgument("unknown frame type " +
                                   std::to_string(p[4]));
  }
  return Status::Ok();
}

Status FrameAssembler::Feed(const char* data, size_t size) {
  if (poisoned_) {
    return Status::FailedPrecondition("assembler poisoned by earlier error");
  }
  // Compact the consumed prefix before growing the buffer.
  if (consumed_ > 0 && (consumed_ == buffer_.size() ||
                        consumed_ >= 64 * 1024)) {
    buffer_.erase(0, consumed_);
    consumed_ = 0;
  }
  buffer_.append(data, size);
  // Validate eagerly so hostile length prefixes are rejected before any
  // caller waits for 4 GiB that will never arrive.
  const Status status = CheckFront();
  if (!status.ok()) poisoned_ = true;
  return status;
}

bool FrameAssembler::Next(Frame* frame) {
  if (poisoned_) return false;
  if (pending_bytes() < kFrameHeaderBytes) return false;
  const unsigned char* p =
      reinterpret_cast<const unsigned char*>(buffer_.data()) + consumed_;
  const uint32_t length = static_cast<uint32_t>(p[0]) |
                          (static_cast<uint32_t>(p[1]) << 8) |
                          (static_cast<uint32_t>(p[2]) << 16) |
                          (static_cast<uint32_t>(p[3]) << 24);
  if (pending_bytes() < kFrameHeaderBytes + length) return false;
  frame->type = static_cast<FrameType>(p[4]);
  frame->payload.assign(buffer_, consumed_ + kFrameHeaderBytes, length);
  consumed_ += kFrameHeaderBytes + length;
  // The header of the *next* frame (if buffered) was already validated by
  // Feed only when it was at the front; re-check so poisoning is prompt.
  const Status status = CheckFront();
  if (!status.ok()) poisoned_ = true;
  return true;
}

}  // namespace lmerge::net
