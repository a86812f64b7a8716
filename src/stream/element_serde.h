// Binary serialization of stream elements and sequences — the wire format
// for checkpoints and for shipping physical streams between processes.
//
// Two encodings exist for sequences:
//  - Inline (EncodeSequence): every element carries its full payload.  Used
//    by stream files and by the dictionary-free ELEMENTS publisher batch.
//  - Dictionary-coded (EncodeSequenceDict): element payloads are replaced by
//    ids into a session-scoped payload dictionary, whose entries ride in the
//    defs section of the batch that first references them.  Redundant
//    publishers re-send the same payloads constantly (that is the paper's
//    whole setting), so after warm-up the per-element wire cost drops from
//    the full row to a short varint.  The id space is per (session,
//    direction) and dense: ids are assigned 0, 1, 2, ... in definition
//    order, so a definition carries no id.  An element whose payload is
//    empty or does not fit the full dictionary escapes to an inline row.
//
// Dictionary-coded layout (all varints LEB128, "zz" = zigzag-mapped):
//   defs       varint def_count, then def_count compact rows
//              (Encoder::WriteCompactRow); they define the receiver's next
//              ids in order (entries(), entries() + 1, ...)
//   sequence   varint count, then count elements
//   element    u8 tag = ElementKind | 0x80 when the payload is inline
//     insert   payload, zz(Vs - prev), zz(Ve - Vs)
//     adjust   payload, zz(Vs - prev), zz(v_old - Vs), zz(Ve - Vs)
//     stable   zz(t - prev)
//   payload    zz(id - previous id in the sequence), or with the inline
//              bit a compact row
// An ELEMENTS_DICT payload is the defs section, then the sequence (then
// the frame's stamp, net/protocol.h).  `prev` is the previous element's Vs
// or stable time in the same sequence (0 before the first), and the first
// id delta is taken from -1.  Time arithmetic is mod 2^64, so kMinTimestamp
// and kInfinity round-trip.

#ifndef LMERGE_STREAM_ELEMENT_SERDE_H_
#define LMERGE_STREAM_ELEMENT_SERDE_H_

#include <span>
#include <vector>

#include "common/payload_ledger.h"
#include "common/serde.h"
#include "container/hash_table.h"
#include "stream/element.h"

namespace lmerge {

void EncodeElement(const StreamElement& element, Encoder* encoder);
Status DecodeElement(Decoder* decoder, StreamElement* element);

// Length-prefixed sequence.
void EncodeSequence(const ElementSequence& elements, Encoder* encoder);
Status DecodeSequence(Decoder* decoder, ElementSequence* elements);

// Convenience round-trip helpers.
std::string SerializeSequence(const ElementSequence& elements);
Status DeserializeSequence(const std::string& bytes,
                           ElementSequence* elements);

// --- Payload dictionary (ELEMENTS_DICT frames) ---

// Id returned by PayloadDictEncoder::Intern for a payload that has no
// dictionary entry and must be written inline; never a valid wire id.
inline constexpr uint32_t kInlinePayloadId = 0xffffffffu;
// Default cap on dictionary entries per session direction; bounds the
// decoder's memory against a hostile or miscoded peer.
inline constexpr uint32_t kDefaultPayloadDictCapacity = 1u << 16;

// Sender side: maps payload identity -> id.  Entries pin a Row handle so
// the rep stays live (its address stays valid as a key) for the session's
// lifetime.  Identity-keyed lookup means interned payloads dedup across
// every element that shares the rep — no content hashing on the hot path.
// As a PayloadIdLookup it lets a checkpoint name a defined payload by id.
class PayloadDictEncoder final : public PayloadIdLookup {
 public:
  explicit PayloadDictEncoder(
      uint32_t capacity = kDefaultPayloadDictCapacity)
      : capacity_(capacity) {}

  // Returns the id under which `payload` is (now) defined, assigning the
  // next free id (entries()) on first sight, or kInlinePayloadId when the
  // payload is empty or the dictionary is full.  The rows a pass of
  // Intern calls defined are rows()[entries-before-the-pass ...]: the
  // caller must ship them (EncodeDictDefs) ahead of the first reference.
  uint32_t Intern(const Row& payload);

  // The id `payload`'s rep is defined under, if any; counts no lookup.
  bool FindId(const Row& payload, uint32_t* id) const override;

  int64_t entries() const { return static_cast<int64_t>(pinned_.size()); }
  // Every defined payload, index == id: what a receiver joining late must
  // be sent to reach this dictionary's state.
  const std::vector<Row>& rows() const { return pinned_; }

 private:
  uint32_t capacity_;
  HashTable<const void*, uint32_t, PayloadIdentityHash> ids_;
  std::vector<Row> pinned_;  // index == id
};

// Receiver side: id -> Row, index == id.  Defining any id but the next one
// (entries()) and referencing an undefined id are protocol violations
// surfaced as Status.  As a PayloadIdResolver it restores a checkpoint's
// dictionary references.
class PayloadDictDecoder final : public PayloadIdResolver {
 public:
  explicit PayloadDictDecoder(
      uint32_t capacity = kDefaultPayloadDictCapacity)
      : capacity_(capacity) {}

  Status Define(uint32_t id, Row payload);
  Status Resolve(uint32_t id, Row* payload) const override;

  int64_t entries() const { return static_cast<int64_t>(rows_.size()); }
  uint32_t capacity() const { return capacity_; }

 private:
  uint32_t capacity_;
  std::vector<Row> rows_;  // index == id
};

// Defs section: varint count, then each row compact.  The rows take the
// receiver's next ids in order.
void EncodeDictDefs(std::span<const Row> rows, Encoder* encoder);
// Defines the section's rows in `dict`.  A count the bytes left cannot
// hold, or one past the dictionary's capacity, is refused before anything
// is allocated or defined.
Status DecodeDictDefs(Decoder* decoder, PayloadDictDecoder* dict);

// Dictionary-coded sequence (layout above).  Ids and times are delta-coded
// within one sequence, so a sequence is the unit of encoding and decoding.
// Payloads first seen here are defined in `dict` (PayloadDictEncoder::
// Intern) and must travel in a defs section ahead of the sequence.
void EncodeSequenceDict(const ElementSequence& elements,
                        PayloadDictEncoder* dict, Encoder* encoder);
Status DecodeSequenceDict(Decoder* decoder, const PayloadDictDecoder& dict,
                          ElementSequence* elements);

}  // namespace lmerge

#endif  // LMERGE_STREAM_ELEMENT_SERDE_H_
