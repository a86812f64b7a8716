#include "stream/element_serde.h"

#include "obs/metrics.h"

namespace lmerge {

void EncodeElement(const StreamElement& element, Encoder* encoder) {
  encoder->WriteU8(static_cast<uint8_t>(element.kind()));
  switch (element.kind()) {
    case ElementKind::kInsert:
      encoder->WriteRow(element.payload());
      encoder->WriteI64(element.vs());
      encoder->WriteI64(element.ve());
      break;
    case ElementKind::kAdjust:
      encoder->WriteRow(element.payload());
      encoder->WriteI64(element.vs());
      encoder->WriteI64(element.v_old());
      encoder->WriteI64(element.ve());
      break;
    case ElementKind::kStable:
      encoder->WriteI64(element.stable_time());
      break;
  }
}

Status DecodeElement(Decoder* decoder, StreamElement* element) {
  uint8_t tag = 0;
  Status status = decoder->ReadU8(&tag);
  if (!status.ok()) return status;
  switch (static_cast<ElementKind>(tag)) {
    case ElementKind::kInsert: {
      Row payload;
      int64_t vs = 0;
      int64_t ve = 0;
      if (!(status = decoder->ReadRow(&payload)).ok()) return status;
      if (!(status = decoder->ReadI64(&vs)).ok()) return status;
      if (!(status = decoder->ReadI64(&ve)).ok()) return status;
      *element = StreamElement::Insert(std::move(payload), vs, ve);
      return Status::Ok();
    }
    case ElementKind::kAdjust: {
      Row payload;
      int64_t vs = 0;
      int64_t v_old = 0;
      int64_t ve = 0;
      if (!(status = decoder->ReadRow(&payload)).ok()) return status;
      if (!(status = decoder->ReadI64(&vs)).ok()) return status;
      if (!(status = decoder->ReadI64(&v_old)).ok()) return status;
      if (!(status = decoder->ReadI64(&ve)).ok()) return status;
      *element = StreamElement::Adjust(std::move(payload), vs, v_old, ve);
      return Status::Ok();
    }
    case ElementKind::kStable: {
      int64_t t = 0;
      if (!(status = decoder->ReadI64(&t)).ok()) return status;
      *element = StreamElement::Stable(t);
      return Status::Ok();
    }
  }
  return Status::InvalidArgument("unknown element tag " +
                                 std::to_string(tag));
}

void EncodeSequence(const ElementSequence& elements, Encoder* encoder) {
  // Floor estimate (tag + three i64 per element, payload excluded): large
  // batches reach their final buffer size in O(1) reallocations instead of
  // O(log n) doubling steps from empty.
  encoder->Reserve(4 + elements.size() * 25);
  encoder->WriteU32(static_cast<uint32_t>(elements.size()));
  for (const StreamElement& e : elements) EncodeElement(e, encoder);
}

Status DecodeSequence(Decoder* decoder, ElementSequence* elements) {
  uint32_t count = 0;
  Status status = decoder->ReadU32(&count);
  if (!status.ok()) return status;
  if (count > decoder->remaining()) {
    return Status::InvalidArgument("sequence length exceeds buffer");
  }
  elements->clear();
  elements->reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    StreamElement element;
    status = DecodeElement(decoder, &element);
    if (!status.ok()) return status;
    elements->push_back(std::move(element));
  }
  return Status::Ok();
}

uint32_t PayloadDictEncoder::Intern(const Row& payload) {
  // Process-wide dictionary hit-rate instruments; the hit rate is what
  // tells an operator whether dictionary payload coding is earning its keep.
  static obs::Counter* const lookups =
      obs::MetricsRegistry::Global().GetCounter("net.dict.lookups");
  static obs::Counter* const hits =
      obs::MetricsRegistry::Global().GetCounter("net.dict.hits");
  if (payload.identity() == nullptr) return kInlinePayloadId;  // empty row
  lookups->Increment();
  auto [slot, inserted] = ids_.Insert(payload.identity(), 0);
  if (!inserted) {
    hits->Increment();
    return *slot;
  }
  if (pinned_.size() >= capacity_) {
    // Dictionary full: fall back to inline forever for this payload.  The
    // placeholder slot is removed so the table does not grow unboundedly
    // with never-coded identities.
    ids_.Erase(payload.identity());
    return kInlinePayloadId;
  }
  const uint32_t id = static_cast<uint32_t>(pinned_.size());
  *slot = id;
  pinned_.push_back(payload);  // pin the rep: identity stays valid
  return id;
}

bool PayloadDictEncoder::FindId(const Row& payload, uint32_t* id) const {
  if (payload.identity() == nullptr) return false;
  const uint32_t* found = ids_.Find(payload.identity());
  if (found == nullptr) return false;
  *id = *found;
  return true;
}

Status PayloadDictDecoder::Define(uint32_t id, Row payload) {
  if (id == kInlinePayloadId) {
    return Status::InvalidArgument("payload def with reserved inline id");
  }
  if (rows_.size() >= capacity_) {
    return Status::InvalidArgument("payload dictionary over capacity");
  }
  if (id < rows_.size()) {
    return Status::InvalidArgument("duplicate payload def for id " +
                                   std::to_string(id));
  }
  if (id > rows_.size()) {
    return Status::InvalidArgument("payload def for id " + std::to_string(id) +
                                   " skips id " +
                                   std::to_string(rows_.size()));
  }
  rows_.push_back(std::move(payload));
  return Status::Ok();
}

Status PayloadDictDecoder::Resolve(uint32_t id, Row* payload) const {
  if (id >= rows_.size()) {
    return Status::InvalidArgument("undefined payload id " +
                                   std::to_string(id));
  }
  *payload = rows_[id];
  return Status::Ok();
}

void EncodeDictDefs(std::span<const Row> rows, Encoder* encoder) {
  encoder->WriteVarU64(rows.size());
  for (const Row& row : rows) encoder->WriteCompactRow(row);
}

Status DecodeDictDefs(Decoder* decoder, PayloadDictDecoder* dict) {
  uint32_t count = 0;
  Status status = decoder->ReadCount(1, &count);  // a row takes >= 1 byte
  if (!status.ok()) return status;
  if (count > dict->capacity() - dict->entries()) {
    return Status::InvalidArgument(
        std::to_string(count) + " payload defs overflow the dictionary (" +
        std::to_string(dict->entries()) + " of " +
        std::to_string(dict->capacity()) + " entries)");
  }
  for (uint32_t i = 0; i < count; ++i) {
    Row row;
    if (!(status = decoder->ReadCompactRow(&row)).ok()) return status;
    status = dict->Define(static_cast<uint32_t>(dict->entries()),
                          std::move(row));
    if (!status.ok()) return status;
  }
  return Status::Ok();
}

namespace {

// Tag bit marking an insert/adjust whose payload is written inline.
constexpr uint8_t kInlinePayloadBit = 0x80;

// Delta bases shared by the encoder and decoder of one sequence.  Times are
// differenced as uint64 (mod 2^64; Encoder::WriteTimeDelta), so any pair of
// timestamps has a delta.
struct DictDeltaState {
  int64_t prev_id = -1;
  Timestamp prev_time = 0;
};

void EncodeElementDict(const StreamElement& element, PayloadDictEncoder* dict,
                       DictDeltaState* state, Encoder* encoder) {
  const uint8_t kind = static_cast<uint8_t>(element.kind());
  if (element.kind() == ElementKind::kStable) {
    encoder->WriteU8(kind);
    encoder->WriteTimeDelta(element.stable_time(), state->prev_time);
    state->prev_time = element.stable_time();
    return;
  }
  const uint32_t id = dict->Intern(element.payload());
  if (id == kInlinePayloadId) {
    encoder->WriteU8(static_cast<uint8_t>(kind | kInlinePayloadBit));
    encoder->WriteCompactRow(element.payload());
  } else {
    encoder->WriteU8(kind);
    encoder->WriteVarI64(static_cast<int64_t>(id) - state->prev_id);
    state->prev_id = id;
  }
  const Timestamp vs = element.vs();
  encoder->WriteTimeDelta(vs, state->prev_time);
  state->prev_time = vs;
  if (element.kind() == ElementKind::kAdjust) {
    encoder->WriteTimeDelta(element.v_old(), vs);
  }
  encoder->WriteTimeDelta(element.ve(), vs);
}

Status DecodePayloadRef(Decoder* decoder, const PayloadDictDecoder& dict,
                        bool inline_payload, DictDeltaState* state,
                        Row* payload) {
  if (inline_payload) return decoder->ReadCompactRow(payload);
  int64_t delta = 0;
  Status status = decoder->ReadVarI64(&delta);
  if (!status.ok()) return status;
  const int64_t id = static_cast<int64_t>(
      static_cast<uint64_t>(state->prev_id) + static_cast<uint64_t>(delta));
  if (id < 0 || id >= static_cast<int64_t>(kInlinePayloadId)) {
    return Status::InvalidArgument("payload id delta lands on invalid id " +
                                   std::to_string(id));
  }
  status = dict.Resolve(static_cast<uint32_t>(id), payload);
  if (!status.ok()) return status;
  state->prev_id = id;
  return Status::Ok();
}

Status DecodeElementDict(Decoder* decoder, const PayloadDictDecoder& dict,
                         DictDeltaState* state, StreamElement* element) {
  uint8_t tag = 0;
  Status status = decoder->ReadU8(&tag);
  if (!status.ok()) return status;
  const bool inline_payload = (tag & kInlinePayloadBit) != 0;
  const uint8_t kind = static_cast<uint8_t>(tag & ~kInlinePayloadBit);
  if (kind == static_cast<uint8_t>(ElementKind::kStable) && !inline_payload) {
    Timestamp t = 0;
    if (!(status = decoder->ReadTimeDelta(state->prev_time, &t)).ok()) {
      return status;
    }
    state->prev_time = t;
    *element = StreamElement::Stable(t);
    return Status::Ok();
  }
  if (kind != static_cast<uint8_t>(ElementKind::kInsert) &&
      kind != static_cast<uint8_t>(ElementKind::kAdjust)) {
    return Status::InvalidArgument("unknown element tag " +
                                   std::to_string(tag));
  }
  Row payload;
  Timestamp vs = 0;
  Timestamp v_old = 0;
  Timestamp ve = 0;
  if (!(status = DecodePayloadRef(decoder, dict, inline_payload, state,
                                  &payload))
           .ok()) {
    return status;
  }
  if (!(status = decoder->ReadTimeDelta(state->prev_time, &vs)).ok()) {
    return status;
  }
  state->prev_time = vs;
  if (kind == static_cast<uint8_t>(ElementKind::kAdjust)) {
    if (!(status = decoder->ReadTimeDelta(vs, &v_old)).ok()) return status;
  }
  if (!(status = decoder->ReadTimeDelta(vs, &ve)).ok()) return status;
  *element = kind == static_cast<uint8_t>(ElementKind::kInsert)
                 ? StreamElement::Insert(std::move(payload), vs, ve)
                 : StreamElement::Adjust(std::move(payload), vs, v_old, ve);
  return Status::Ok();
}

}  // namespace

void EncodeSequenceDict(const ElementSequence& elements,
                        PayloadDictEncoder* dict, Encoder* encoder) {
  // Typical in-window element: tag + 1-byte id delta + two short time
  // varints.
  encoder->Reserve(2 + elements.size() * 8);
  encoder->WriteVarU64(elements.size());
  DictDeltaState state;
  for (const StreamElement& e : elements) {
    EncodeElementDict(e, dict, &state, encoder);
  }
}

Status DecodeSequenceDict(Decoder* decoder, const PayloadDictDecoder& dict,
                          ElementSequence* elements) {
  uint64_t count = 0;
  Status status = decoder->ReadVarU64(&count);
  if (!status.ok()) return status;
  if (count > decoder->remaining() / 2) {  // each element takes >= 2 bytes
    return Status::InvalidArgument("sequence length exceeds buffer");
  }
  elements->clear();
  elements->reserve(count);
  DictDeltaState state;
  for (uint64_t i = 0; i < count; ++i) {
    StreamElement element;
    status = DecodeElementDict(decoder, dict, &state, &element);
    if (!status.ok()) return status;
    elements->push_back(std::move(element));
  }
  return Status::Ok();
}

std::string SerializeSequence(const ElementSequence& elements) {
  Encoder encoder;
  EncodeSequence(elements, &encoder);
  return encoder.TakeBytes();
}

Status DeserializeSequence(const std::string& bytes,
                           ElementSequence* elements) {
  Decoder decoder(bytes);
  Status status = DecodeSequence(&decoder, elements);
  if (!status.ok()) return status;
  if (!decoder.AtEnd()) {
    return Status::InvalidArgument("trailing bytes after sequence");
  }
  return Status::Ok();
}

}  // namespace lmerge
