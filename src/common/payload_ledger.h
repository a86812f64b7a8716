// SharedPayloadLedger: identity-based byte accounting for index structures
// holding interned Row handles.
//
// With payloads interned (common/payload_store.h), many index nodes may
// reference one shared rep.  Charging every node the payload's deep size
// would double-count: the process holds those bytes once per store entry,
// not once per referencing node.  The ledger tracks, per distinct rep
// identity, how many nodes of ONE data structure reference it, and charges
// the rep's bytes exactly once — on the first reference — releasing them on
// the last.  (The LMR3- baseline bypasses the ledger entirely: its indexes
// hold private deep copies, so per-copy accounting stays honest.)
//
// An entry is only a 32-bit reference count keyed by the rep pointer — a
// 16-byte table slot.  The bytes charged come from the rep's immutable
// `deep_bytes`, so the ledger stores no size of its own.

#ifndef LMERGE_COMMON_PAYLOAD_LEDGER_H_
#define LMERGE_COMMON_PAYLOAD_LEDGER_H_

#include <cstdint>
#include <limits>

#include "common/check.h"
#include "common/hash.h"
#include "common/row.h"
#include "container/hash_table.h"

namespace lmerge {

// Historical name; the functor itself lives in common/hash.h so serde's
// checkpoint row pool can share it without depending on the ledger.
using PayloadIdentityHash = PointerIdentityHash;

class SharedPayloadLedger {
 public:
  // Registers one reference to `payload`; returns the bytes newly charged
  // (the rep's shared size on the first reference, 0 on repeats).
  int64_t AddRef(const Row& payload) {
    if (payload.identity() == nullptr) return 0;  // empty row holds nothing
    auto [count, inserted] = refs_.Insert(payload.identity(), 0);
    LM_CHECK(*count < std::numeric_limits<uint32_t>::max());
    if ((*count)++ > 0) return 0;
    const int64_t charged = payload.SharedSizeBytes();
    bytes_ += charged;
    return charged;
  }

  // Drops one reference; returns the bytes released (the rep's shared size
  // when this was the last reference, 0 otherwise).
  int64_t Release(const Row& payload) {
    if (payload.identity() == nullptr) return 0;
    uint32_t* count = refs_.Find(payload.identity());
    LM_DCHECK(count != nullptr && *count > 0);
    if (--*count > 0) return 0;
    const int64_t released = payload.SharedSizeBytes();
    bytes_ -= released;
    refs_.Erase(payload.identity());
    return released;
  }

  // Bytes currently charged: each referenced rep counted once.
  int64_t bytes() const { return bytes_; }
  // Distinct reps currently referenced.
  int64_t distinct() const { return refs_.size(); }
  // Heap bytes of the ledger's own bookkeeping table.  Zero while empty so
  // an emptied index reports no residual state (matching the tree and the
  // per-node tables, whose bytes are charged only for live nodes).
  int64_t OverheadBytes() const {
    return refs_.size() == 0 ? 0 : refs_.SlotBytes();
  }

 private:
  // Rep identity -> number of references from this structure.
  HashTable<const void*, uint32_t, PayloadIdentityHash> refs_;
  int64_t bytes_ = 0;
};

}  // namespace lmerge

#endif  // LMERGE_COMMON_PAYLOAD_LEDGER_H_
