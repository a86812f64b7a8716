// Binary serialization of the library's value types.
//
// Used by the checkpoint facility (common/checkpoint.h) that backs the
// query-jumpstart application (Sec. II-4: "seed query state using checkpoint
// information stored on disk"), and usable as a wire format for shipping
// stream elements between processes.
//
// Format: little-endian, length-prefixed, no alignment.  Two integer
// codings share one buffer type:
//  - fixed width (WriteU32/WriteI64/WriteRow ...): control frames, the
//    inline ELEMENTS batch, and the fixed envelopes around variable data
//    (checkpoint magic/version, the cut certificate, the LMPC container);
//  - LEB128 varints, zigzag-mapped when signed (WriteVarU64/WriteVarI64,
//    WriteTimeDelta, WriteCompactRow, WriteRowRef): the dictionary-coded
//    element frames and every checkpoint's pool section and body, where
//    most fields are small ids, counts, deltas and lifetimes.
// Every Decode validates bounds and returns a Status instead of crashing on
// corrupt input.

#ifndef LMERGE_COMMON_SERDE_H_
#define LMERGE_COMMON_SERDE_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/hash.h"
#include "common/row.h"
#include "common/status.h"
#include "common/timestamp.h"
#include "common/value.h"
#include "container/hash_table.h"

namespace lmerge {

class RowPoolEncoder;
class RowPoolDecoder;

// The two ends of a payload dictionary that a checkpoint's pool may name
// payloads in (checkpoint format v4): a standby subscribed to the merge
// already holds every payload the server's broadcast dictionary defined,
// so the snapshot sends such a payload as its dictionary id, not as a
// row.  Implemented by PayloadDictEncoder and PayloadDictDecoder
// (stream/element_serde.h); declared here so common/ needs nothing of
// stream/.
class PayloadIdLookup {
 public:
  // The id the dictionary defined `payload`'s rep under, if it did.
  virtual bool FindId(const Row& payload, uint32_t* id) const = 0;

 protected:
  ~PayloadIdLookup() = default;
};

class PayloadIdResolver {
 public:
  // The payload defined under `id`; an undefined id is an error.
  virtual Status Resolve(uint32_t id, Row* payload) const = 0;

 protected:
  ~PayloadIdResolver() = default;
};

// An append-only byte buffer with typed writers.
class Encoder {
 public:
  // Pre-size for `n` more bytes of writes (an estimate is fine; the buffer
  // still grows as needed).
  void Reserve(size_t n) { bytes_.reserve(bytes_.size() + n); }

  void WriteU8(uint8_t v) { bytes_.push_back(static_cast<char>(v)); }
  void WriteU32(uint32_t v);
  void WriteU64(uint64_t v);
  void WriteI64(int64_t v) { WriteU64(static_cast<uint64_t>(v)); }
  void WriteDouble(double v);
  void WriteString(std::string_view s);
  // A varint length, then the bytes.
  void WriteVarString(std::string_view s);

  // Unsigned LEB128: seven bits per byte, low group first, the high bit
  // set on every byte but the last (1 byte below 128, at most 10).
  void WriteVarU64(uint64_t v);
  // Zigzag-mapped signed varint: small magnitudes of either sign stay short.
  void WriteVarI64(int64_t v) { WriteVarU64(ZigZagEncode(v)); }
  // `t` as a zigzag varint of its wrapping (mod 2^64) difference from
  // `base`, so any pair of timestamps, kInfinity and kMinTimestamp
  // included, has a delta; a time close to its base costs a byte or two.
  void WriteTimeDelta(Timestamp t, Timestamp base) {
    WriteVarI64(static_cast<int64_t>(static_cast<uint64_t>(t) -
                                     static_cast<uint64_t>(base)));
  }

  void WriteValue(const Value& value);
  void WriteRow(const Row& row);
  // Varint row layout: varint field count, then each value as its type tag
  // followed by a zigzag int, a varint string length, a u8 bool or an
  // 8-byte double.
  void WriteCompactRow(const Row& row);

  // Pooled row references (checkpoint formats v3 on): with a pool attached,
  // WriteRowRef emits a varint — the row's pool id plus one, or 0 followed
  // by the row as a compact row when it has no rep identity (the empty
  // row).  Each distinct rep is then serialized exactly once, in the pool
  // section, no matter how many index entries reference it.  Without a
  // pool it degrades to WriteCompactRow, so the same SaveState code
  // produces the inline encoding.
  void set_row_pool(RowPoolEncoder* pool) { row_pool_ = pool; }
  void WriteRowRef(const Row& row);

  const std::string& bytes() const { return bytes_; }
  std::string TakeBytes() { return std::move(bytes_); }

  static uint64_t ZigZagEncode(int64_t v) {
    return (static_cast<uint64_t>(v) << 1) ^
           static_cast<uint64_t>(v >> 63);
  }

 private:
  void WriteValueAs(const Value& value, bool compact);

  std::string bytes_;
  RowPoolEncoder* row_pool_ = nullptr;
};

// A bounds-checked reader over a byte span.
class Decoder {
 public:
  explicit Decoder(const std::string& bytes) : bytes_(bytes) {}
  // The decoder only borrows the buffer; a temporary would dangle.
  explicit Decoder(std::string&&) = delete;

  Status ReadU8(uint8_t* v);
  Status ReadU32(uint32_t* v);
  Status ReadU64(uint64_t* v);
  Status ReadI64(int64_t* v) {
    return ReadU64(reinterpret_cast<uint64_t*>(v));
  }
  Status ReadDouble(double* v);
  Status ReadString(std::string* s);
  Status ReadVarString(std::string* s);

  // Counterparts of the varint writers.  Truncated input, a varint longer
  // than 10 bytes and one that overflows 64 bits are errors.
  Status ReadVarU64(uint64_t* v);
  Status ReadVarI64(int64_t* v);
  // ReadVarU64 restricted to values that fit in 32 bits.
  Status ReadVarU32(uint32_t* v);
  // Counterpart of WriteTimeDelta.
  Status ReadTimeDelta(Timestamp base, Timestamp* t);
  // A varint item count, rejected when the bytes left cannot hold that many
  // items of at least `min_item_bytes` (>= 1) each — the hostile-input
  // bound that keeps a corrupt count from sizing an allocation.
  Status ReadCount(size_t min_item_bytes, uint32_t* count);

  Status ReadValue(Value* value) {
    return ReadValueAs(value, /*compact=*/false, /*borrow=*/false);
  }
  Status ReadRow(Row* row) { return ReadRowAs(row, false); }
  Status ReadCompactRow(Row* row) { return ReadRowAs(row, true); }
  // The rest of a compact row whose varint field count is already read.
  Status ReadCompactFields(uint32_t count, Row* row) {
    return ReadFieldsAs(count, true, row);
  }

  // Counterpart of Encoder::WriteRowRef.  With a pool attached, resolves
  // varint references against it (0 reads a compact row inline); without
  // one it degrades to ReadCompactRow, matching the poolless encoding.
  void set_row_pool(const RowPoolDecoder* pool) { row_pool_ = pool; }
  Status ReadRowRef(Row* row);

  bool AtEnd() const { return offset_ == bytes_.size(); }
  size_t remaining() const { return bytes_.size() - offset_; }

 private:
  static int64_t ZigZagDecode(uint64_t v) {
    return static_cast<int64_t>((v >> 1) ^ (~(v & 1) + 1));
  }

  Status Need(size_t n);
  // A u32- (or, compact, varint-) length-prefixed byte string as a view
  // into the buffer.
  Status ReadStringBytes(bool compact, std::string_view* s);
  // With `borrow`, a string value points into the buffer instead of
  // owning a copy; only ReadRowAs uses that, and interns before returning.
  Status ReadValueAs(Value* value, bool compact, bool borrow);
  Status ReadRowAs(Row* row, bool compact);
  Status ReadFieldsAs(uint32_t count, bool compact, Row* row);

  const std::string& bytes_;
  size_t offset_ = 0;
  const RowPoolDecoder* row_pool_ = nullptr;
};

// Deduplicating row pool for WriteRowRef.  Intern() keys on the rep
// identity (pointer equality, like the payload ledger) and holds a Row
// handle per entry so reps stay alive until the pool is encoded.
class RowPoolEncoder {
 public:
  // Returns the pool id for `row`, interning it on first sight.  The row
  // must have a rep identity (callers route identity-less rows inline).
  uint32_t Intern(const Row& row);

  int64_t entries() const { return static_cast<int64_t>(rows_.size()); }

  // The pool section: varint entry count, then each entry in id order.
  // An entry is a compact row, or — when `dict` defines the row's rep — a
  // reference: a zero field count (a pooled row has at least one field),
  // then the dictionary id as a zigzag varint delta from the previous
  // reference's id (from 0 for the first).  Returns how many entries were
  // written as references.
  int64_t EncodeTo(Encoder* encoder,
                   const PayloadIdLookup* dict = nullptr) const;

 private:
  HashTable<const void*, uint32_t, PointerIdentityHash> ids_;
  std::vector<Row> rows_;
};

class RowPoolDecoder {
 public:
  // Parses a pool section as written by RowPoolEncoder::EncodeTo,
  // resolving its references against `dict`.  A reference without a
  // dictionary, or to an id it does not define, is an error.
  Status DecodeFrom(Decoder* decoder,
                    const PayloadIdResolver* dict = nullptr);

  // Resolves a pool id from a row reference; fails on out-of-range ids.
  Status Resolve(uint64_t id, Row* row) const;

  int64_t entries() const { return static_cast<int64_t>(rows_.size()); }

 private:
  std::vector<Row> rows_;
};

}  // namespace lmerge

#endif  // LMERGE_COMMON_SERDE_H_
