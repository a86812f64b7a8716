// Binary serialization of stream elements and sequences — the wire format
// for checkpoints and for shipping physical streams between processes.
//
// Two encodings exist for sequences:
//  - Inline (EncodeSequence): every element carries its full payload.  Used
//    by stream files and by the dictionary-free ELEMENTS publisher batch.
//  - Dictionary-coded (EncodeSequenceDict): element payloads are replaced by
//    ids into a session-scoped payload dictionary, built up by PAYLOAD_DEF
//    messages.  Redundant publishers re-send the same payloads constantly
//    (that is the paper's whole setting), so after warm-up the per-element
//    wire cost drops from the full row to a short varint.  The id space is
//    per (session, direction); an element whose payload is empty or does
//    not fit the full dictionary escapes to an inline row.
//
// Dictionary-coded layout (all varints LEB128, "zz" = zigzag-mapped):
//   sequence   varint count, then count elements
//   element    u8 tag = ElementKind | 0x80 when the payload is inline
//     insert   payload, zz(Vs - prev), zz(Ve - Vs)
//     adjust   payload, zz(Vs - prev), zz(v_old - Vs), zz(Ve - Vs)
//     stable   zz(t - prev)
//   payload    zz(id - previous id in the sequence), or with the inline
//              bit a compact row (Encoder::WriteCompactRow)
//   PAYLOAD_DEF  varint id, compact row
// `prev` is the previous element's Vs or stable time in the same sequence
// (0 before the first), and the first id delta is taken from -1.  Time
// arithmetic is mod 2^64, so kMinTimestamp and kInfinity round-trip.

#ifndef LMERGE_STREAM_ELEMENT_SERDE_H_
#define LMERGE_STREAM_ELEMENT_SERDE_H_

#include <utility>
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

// --- Payload dictionary (PAYLOAD_DEF / ELEMENTS_DICT frames) ---

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
  // next free id on first sight, or kInlinePayloadId when the payload is
  // empty or the dictionary is full.  When a new id is assigned, the pair
  // is appended to *new_defs: the caller must ship each as a PAYLOAD_DEF
  // before the message that references it.
  uint32_t Intern(const Row& payload,
                  std::vector<std::pair<uint32_t, Row>>* new_defs);

  // The id `payload`'s rep is defined under, if any; counts no lookup.
  bool FindId(const Row& payload, uint32_t* id) const override;

  int64_t entries() const { return static_cast<int64_t>(pinned_.size()); }

 private:
  uint32_t capacity_;
  HashTable<const void*, uint32_t, PayloadIdentityHash> ids_;
  std::vector<Row> pinned_;  // index == id
};

// Receiver side: id -> Row.  Both failure modes — defining an id twice and
// referencing an undefined id — are protocol violations surfaced as Status.
// As a PayloadIdResolver it restores a checkpoint's dictionary references.
class PayloadDictDecoder final : public PayloadIdResolver {
 public:
  explicit PayloadDictDecoder(
      uint32_t capacity = kDefaultPayloadDictCapacity)
      : capacity_(capacity) {}

  Status Define(uint32_t id, Row payload);
  Status Resolve(uint32_t id, Row* payload) const override;

  int64_t entries() const { return rows_.size(); }

 private:
  struct IdHash {
    uint64_t operator()(uint32_t id) const {
      return Mix64(static_cast<uint64_t>(id));
    }
  };

  uint32_t capacity_;
  HashTable<uint32_t, Row, IdHash> rows_;
};

// PAYLOAD_DEF payload: varint id, then the compact row.
void EncodePayloadDef(uint32_t id, const Row& payload, Encoder* encoder);
Status DecodePayloadDef(Decoder* decoder, uint32_t* id, Row* payload);

// Dictionary-coded sequence (ELEMENTS_DICT payload, layout above).  Ids and
// times are delta-coded within one sequence, so a sequence is the unit of
// encoding and decoding.
void EncodeSequenceDict(const ElementSequence& elements,
                        PayloadDictEncoder* dict,
                        std::vector<std::pair<uint32_t, Row>>* new_defs,
                        Encoder* encoder);
Status DecodeSequenceDict(Decoder* decoder, const PayloadDictDecoder& dict,
                          ElementSequence* elements);

}  // namespace lmerge

#endif  // LMERGE_STREAM_ELEMENT_SERDE_H_
