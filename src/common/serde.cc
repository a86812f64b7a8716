#include "common/serde.h"

#include <cstring>
#include <limits>

#include "common/check.h"

namespace lmerge {

void Encoder::WriteU32(uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    bytes_.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

void Encoder::WriteU64(uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    bytes_.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

void Encoder::WriteDouble(double v) {
  uint64_t bits;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  WriteU64(bits);
}

void Encoder::WriteString(std::string_view s) {
  WriteU32(static_cast<uint32_t>(s.size()));
  bytes_.append(s);
}

void Encoder::WriteVarString(std::string_view s) {
  WriteVarU64(s.size());
  bytes_.append(s);
}

void Encoder::WriteVarU64(uint64_t v) {
  char buf[10];
  size_t n = 0;
  while (v >= 0x80) {
    buf[n++] = static_cast<char>((v & 0x7f) | 0x80);
    v >>= 7;
  }
  buf[n++] = static_cast<char>(v);
  bytes_.append(buf, n);
}

void Encoder::WriteValueAs(const Value& value, bool compact) {
  WriteU8(static_cast<uint8_t>(value.type()));
  switch (value.type()) {
    case ValueType::kNull:
      break;
    case ValueType::kBool:
      WriteU8(value.AsBool() ? 1 : 0);
      break;
    case ValueType::kInt64:
      if (compact) {
        WriteVarI64(value.AsInt64());
      } else {
        WriteI64(value.AsInt64());
      }
      break;
    case ValueType::kDouble:
      WriteDouble(value.AsDouble());
      break;
    case ValueType::kString:
      if (compact) {
        WriteVarString(value.AsString());
      } else {
        WriteString(value.AsString());
      }
      break;
  }
}

void Encoder::WriteValue(const Value& value) { WriteValueAs(value, false); }

void Encoder::WriteRow(const Row& row) {
  WriteU32(static_cast<uint32_t>(row.field_count()));
  for (int64_t i = 0; i < row.field_count(); ++i) WriteValue(row.field(i));
}

void Encoder::WriteCompactRow(const Row& row) {
  WriteVarU64(static_cast<uint64_t>(row.field_count()));
  for (int64_t i = 0; i < row.field_count(); ++i) {
    WriteValueAs(row.field(i), /*compact=*/true);
  }
}

Status Decoder::Need(size_t n) {
  if (offset_ + n > bytes_.size()) {
    return Status::OutOfRange("decode past end of buffer");
  }
  return Status::Ok();
}

Status Decoder::ReadU8(uint8_t* v) {
  Status status = Need(1);
  if (!status.ok()) return status;
  *v = static_cast<uint8_t>(bytes_[offset_++]);
  return Status::Ok();
}

Status Decoder::ReadU32(uint32_t* v) {
  Status status = Need(4);
  if (!status.ok()) return status;
  *v = 0;
  for (int i = 0; i < 4; ++i) {
    *v |= static_cast<uint32_t>(static_cast<unsigned char>(
              bytes_[offset_++]))
          << (8 * i);
  }
  return Status::Ok();
}

Status Decoder::ReadU64(uint64_t* v) {
  Status status = Need(8);
  if (!status.ok()) return status;
  *v = 0;
  for (int i = 0; i < 8; ++i) {
    *v |= static_cast<uint64_t>(static_cast<unsigned char>(
              bytes_[offset_++]))
          << (8 * i);
  }
  return Status::Ok();
}

Status Decoder::ReadDouble(double* v) {
  uint64_t bits = 0;
  Status status = ReadU64(&bits);
  if (!status.ok()) return status;
  std::memcpy(v, &bits, sizeof(*v));
  return Status::Ok();
}

Status Decoder::ReadStringBytes(bool compact, std::string_view* s) {
  uint64_t len = 0;
  Status status;
  if (compact) {
    status = ReadVarU64(&len);
  } else {
    uint32_t fixed = 0;
    status = ReadU32(&fixed);
    len = fixed;
  }
  if (!status.ok()) return status;
  if (len > remaining()) {
    return Status::OutOfRange("decode past end of buffer");
  }
  *s = std::string_view(bytes_).substr(offset_, static_cast<size_t>(len));
  offset_ += static_cast<size_t>(len);
  return Status::Ok();
}

Status Decoder::ReadString(std::string* s) {
  std::string_view bytes;
  Status status = ReadStringBytes(false, &bytes);
  if (status.ok()) s->assign(bytes);
  return status;
}

Status Decoder::ReadVarString(std::string* s) {
  std::string_view bytes;
  Status status = ReadStringBytes(true, &bytes);
  if (status.ok()) s->assign(bytes);
  return status;
}

Status Decoder::ReadVarU64(uint64_t* v) {
  uint64_t result = 0;
  for (int shift = 0; shift < 64; shift += 7) {
    if (offset_ == bytes_.size()) {
      return Status::OutOfRange("truncated varint");
    }
    const uint8_t byte = static_cast<uint8_t>(bytes_[offset_++]);
    result |= static_cast<uint64_t>(byte & 0x7f) << shift;
    if ((byte & 0x80) == 0) {
      // The tenth byte holds bit 63 only.
      if (shift == 63 && byte > 1) {
        return Status::InvalidArgument("varint overflows 64 bits");
      }
      *v = result;
      return Status::Ok();
    }
  }
  return Status::InvalidArgument("varint longer than 10 bytes");
}

Status Decoder::ReadVarI64(int64_t* v) {
  uint64_t raw = 0;
  Status status = ReadVarU64(&raw);
  if (!status.ok()) return status;
  *v = ZigZagDecode(raw);
  return Status::Ok();
}

Status Decoder::ReadVarU32(uint32_t* v) {
  uint64_t raw = 0;
  Status status = ReadVarU64(&raw);
  if (!status.ok()) return status;
  if (raw > std::numeric_limits<uint32_t>::max()) {
    return Status::InvalidArgument("varint exceeds 32 bits");
  }
  *v = static_cast<uint32_t>(raw);
  return Status::Ok();
}

Status Decoder::ReadTimeDelta(Timestamp base, Timestamp* t) {
  int64_t delta = 0;
  Status status = ReadVarI64(&delta);
  if (!status.ok()) return status;
  *t = static_cast<Timestamp>(static_cast<uint64_t>(base) +
                              static_cast<uint64_t>(delta));
  return Status::Ok();
}

Status Decoder::ReadCount(size_t min_item_bytes, uint32_t* count) {
  LM_DCHECK(min_item_bytes >= 1);
  Status status = ReadVarU32(count);
  if (!status.ok()) return status;
  if (*count > remaining() / min_item_bytes) {
    return Status::InvalidArgument("count " + std::to_string(*count) +
                                   " exceeds buffer");
  }
  return Status::Ok();
}

Status Decoder::ReadValueAs(Value* value, bool compact, bool borrow) {
  uint8_t tag = 0;
  Status status = ReadU8(&tag);
  if (!status.ok()) return status;
  switch (static_cast<ValueType>(tag)) {
    case ValueType::kNull:
      *value = Value::Null();
      return Status::Ok();
    case ValueType::kBool: {
      uint8_t b = 0;
      status = ReadU8(&b);
      if (!status.ok()) return status;
      *value = Value(b != 0);
      return Status::Ok();
    }
    case ValueType::kInt64: {
      int64_t v = 0;
      status = compact ? ReadVarI64(&v) : ReadI64(&v);
      if (!status.ok()) return status;
      *value = Value(v);
      return Status::Ok();
    }
    case ValueType::kDouble: {
      double v = 0;
      status = ReadDouble(&v);
      if (!status.ok()) return status;
      *value = Value(v);
      return Status::Ok();
    }
    case ValueType::kString: {
      std::string_view s;
      status = ReadStringBytes(compact, &s);
      if (!status.ok()) return status;
      if (s.size() > std::numeric_limits<uint32_t>::max()) {
        return Status::InvalidArgument("string field longer than 4 GiB");
      }
      *value = borrow ? Value::Borrowed(s) : Value(s);
      return Status::Ok();
    }
  }
  return Status::InvalidArgument("unknown value tag " + std::to_string(tag));
}

void Encoder::WriteRowRef(const Row& row) {
  if (row_pool_ == nullptr) {
    WriteCompactRow(row);
    return;
  }
  if (row.identity() == nullptr) {
    WriteVarU64(0);
    WriteCompactRow(row);
    return;
  }
  WriteVarU64(uint64_t{row_pool_->Intern(row)} + 1);
}

Status Decoder::ReadRowRef(Row* row) {
  if (row_pool_ == nullptr) return ReadCompactRow(row);
  uint64_t ref = 0;
  Status status = ReadVarU64(&ref);
  if (!status.ok()) return status;
  if (ref == 0) return ReadCompactRow(row);
  return row_pool_->Resolve(ref - 1, row);
}

uint32_t RowPoolEncoder::Intern(const Row& row) {
  LM_DCHECK(row.identity() != nullptr);
  const auto [id, inserted] =
      ids_.Insert(row.identity(), static_cast<uint32_t>(rows_.size()));
  if (inserted) rows_.push_back(row);
  return *id;
}

int64_t RowPoolEncoder::EncodeTo(Encoder* encoder,
                                 const PayloadIdLookup* dict) const {
  encoder->WriteVarU64(rows_.size());
  int64_t refs = 0;
  int64_t prev_id = 0;
  for (const Row& row : rows_) {
    uint32_t id = 0;
    if (dict != nullptr && dict->FindId(row, &id)) {
      encoder->WriteVarU64(0);
      encoder->WriteVarI64(int64_t{id} - prev_id);
      prev_id = id;
      ++refs;
    } else {
      encoder->WriteCompactRow(row);
    }
  }
  return refs;
}

Status RowPoolDecoder::DecodeFrom(Decoder* decoder,
                                  const PayloadIdResolver* dict) {
  uint32_t count = 0;
  // Each entry takes at least its one-byte field count.
  Status status = decoder->ReadCount(1, &count);
  if (!status.ok()) return status;
  rows_.clear();
  rows_.reserve(count);
  uint64_t prev_id = 0;
  for (uint32_t i = 0; i < count; ++i) {
    uint32_t fields = 0;
    if (!(status = decoder->ReadVarU32(&fields)).ok()) return status;
    Row row;
    if (fields > 0) {
      status = decoder->ReadCompactFields(fields, &row);
    } else {
      int64_t delta = 0;
      if (!(status = decoder->ReadVarI64(&delta)).ok()) return status;
      // Wrapping arithmetic: a delta leaving [0, 2^32) is an error, not UB.
      prev_id += static_cast<uint64_t>(delta);
      if (prev_id > std::numeric_limits<uint32_t>::max()) {
        return Status::InvalidArgument(
            "row pool dictionary reference exceeds 32 bits");
      }
      const uint32_t id = static_cast<uint32_t>(prev_id);
      status = dict == nullptr
                   ? Status::InvalidArgument(
                         "row pool references dictionary payload " +
                         std::to_string(id) + " but no dictionary was given")
                   : dict->Resolve(id, &row);
    }
    if (!status.ok()) return status;
    rows_.push_back(std::move(row));
  }
  return Status::Ok();
}

Status RowPoolDecoder::Resolve(uint64_t id, Row* row) const {
  if (id >= rows_.size()) {
    return Status::InvalidArgument("row pool reference " + std::to_string(id) +
                                   " out of range");
  }
  *row = rows_[id];
  return Status::Ok();
}

Status Decoder::ReadRowAs(Row* row, bool compact) {
  uint32_t count = 0;
  Status status = compact ? ReadVarU32(&count) : ReadU32(&count);
  if (!status.ok()) return status;
  return ReadFieldsAs(count, compact, row);
}

Status Decoder::ReadFieldsAs(uint32_t count, bool compact, Row* row) {
  if (count > remaining()) {  // each field takes at least one byte
    return Status::InvalidArgument("row field count exceeds buffer");
  }
  // The string fields borrow the input buffer; Row() copies them into the
  // rep's block (or finds an equal rep) before they go out of scope.
  std::vector<Value> fields(count);
  for (Value& value : fields) {
    const Status status = ReadValueAs(&value, compact, /*borrow=*/true);
    if (!status.ok()) return status;
  }
  *row = Row(fields);
  return Status::Ok();
}

}  // namespace lmerge
