// in2t — the two-tier index of Algorithm R3 (Sec. IV-D, Fig. 1 left).
//
// Top tier: a red-black tree keyed by (Vs, payload), one node per live
// (not fully frozen) event key.  Bottom tier: per node, a flat small map
// (container/small_map.h) from input-stream id -> that stream's current Ve
// for the event, plus one distinguished entry (kOutputStream) holding the Ve
// last emitted on the output.  Up to four entries — a merge of up to three
// inputs — live inline in the tree node; wider merges spill the rest to one
// heap vector.  The payload is *shared* across all input streams — the key
// difference from the LMR3- baseline, and the reason LMR3+'s memory is
// nearly independent of the number of inputs (Fig. 2/7).  With interned
// Row handles (common/payload_store.h) the key holds a pointer-sized
// handle, and a payload recurring at many Vs keys is stored once
// process-wide; StateBytes() charges it once per distinct rep via the
// identity ledger.

#ifndef LMERGE_CORE_IN2T_H_
#define LMERGE_CORE_IN2T_H_

#include <cstdint>
#include <limits>
#include <utility>

#include "common/payload_ledger.h"
#include "common/timestamp.h"
#include "container/rbtree.h"
#include "container/small_map.h"
#include "temporal/event.h"

namespace lmerge {

// The bottom-tier key for the output entry ("∞" in the paper's Fig. 1).
inline constexpr int32_t kOutputStream = -1;
// Marks an unused inline bottom-tier slot; never a stream id.
inline constexpr int32_t kVacantStream = std::numeric_limits<int32_t>::min();

class In2t {
 public:
  using EndTable = SmallMap<int32_t, Timestamp, 4, kVacantStream>;
  // Per node, the tree carries the bottom tier's spilled heap bytes as last
  // synced (0 for a node whose entries are all inline), so StateBytes()
  // stays O(1) and DeleteNode releases exactly what was charged.  The
  // inline entries are part of the node itself.  Shared payload bytes are
  // charged through the identity ledger — once per distinct rep, not once
  // per node.
  using Tree = RbTree<VsPayload, EndTable, VsPayloadLess, MinAugment<int64_t>>;
  using Iterator = Tree::Iterator;

  // Returns the node with the element's (Vs, payload), or end().
  Iterator SameVsPayload(Timestamp vs, const Row& payload) const {
    return tree_.Find(VsPayloadRef(vs, payload));
  }

  // Adds a node for (vs, payload); must not already exist.  The new node's
  // frontier starts at "never actionable"; the caller sets it via
  // SetFrontier once the bottom tier is populated.
  Iterator AddNode(Timestamp vs, const Row& payload) {
    auto [it, inserted] = tree_.Insert(VsPayload(vs, payload), EndTable());
    LM_DCHECK(inserted);
    unshared_payload_bytes_ += payload.DeepSizeBytes();
    ledger_.AddRef(it.key().payload);
    return it;
  }

  // Removes the node at `it`; returns the successor.
  Iterator DeleteNode(Iterator it) {
    unshared_payload_bytes_ -= it.key().payload.DeepSizeBytes();
    ledger_.Release(it.key().payload);
    spill_bytes_ -= tree_.AugExtra(it);
    return tree_.Erase(it);
  }

  // Re-syncs the charged spill bytes after the node's bottom tier may have
  // grown; O(1).
  void SyncTableBytes(Iterator it) {
    int64_t& charged = tree_.AugExtra(it);
    const int64_t spill = it.value().HeapBytes();
    spill_bytes_ += spill - charged;
    charged = spill;
  }

  // --- Frontier bookkeeping for the pruned half-frozen scan ---
  //
  // Per node, the algorithm maintains a conservative "frontier": a lower
  // bound on the smallest stable point t for which stable-processing would
  // act on the node (repair the output or delete it).  The scan then visits,
  // in key order, only nodes with frontier < t; all others are provably
  // untouched.  A frontier may be stale-LOW (extra visit, self-heals) but
  // must never be stale-HIGH.

  void SetFrontier(Iterator it, Timestamp frontier) {
    tree_.SetAugValue(it, frontier);
  }
  Timestamp Frontier(Iterator it) const { return tree_.AugValue(it); }
  Iterator FirstActionable(Timestamp t) const { return tree_.FirstAugBelow(t); }
  Iterator FirstActionableFrom(Iterator it, Timestamp t) const {
    return tree_.FirstAugBelowFrom(it, t);
  }
  Iterator NextActionable(Iterator it, Timestamp t) const {
    return tree_.NextAugBelow(it, t);
  }
  // Recomputes every node's frontier as fn(key, end_table); O(n).
  template <typename Fn>
  void RecomputeFrontiers(Fn&& fn) {
    tree_.RecomputeAug(std::forward<Fn>(fn));
  }

  // First node, in (Vs, payload) order; nodes with Vs < t are exactly the
  // ones FindHalfFrozen(t) must visit, so callers iterate from begin() while
  // key().vs < t (or use the pruned FirstActionable/NextActionable walk).
  Iterator begin() const { return tree_.begin(); }
  Iterator end() const { return tree_.end(); }

  int64_t node_count() const { return tree_.size(); }
  bool empty() const { return tree_.empty(); }

  // Bytes held: tree nodes (which embed the handle-sized keys and the inline
  // bottom-tier entries), interned payload reps charged once per distinct
  // rep, spilled bottom-tier entries, and the ledger's own bookkeeping.
  // O(1): all terms are maintained incrementally.
  int64_t StateBytes() const {
    return tree_.NodeBytes() + ledger_.bytes() + ledger_.OverheadBytes() +
           spill_bytes_;
  }

  // The pre-interning model: every node owns a private payload copy.  Kept
  // for the paper's memory comparison (bench_state_bytes reports both).
  int64_t StateBytesUnshared() const {
    return tree_.NodeBytes() + unshared_payload_bytes_ + spill_bytes_;
  }

  // Distinct payload reps currently referenced by the index.
  int64_t distinct_payloads() const { return ledger_.distinct(); }

 private:
  Tree tree_;
  SharedPayloadLedger ledger_;
  int64_t unshared_payload_bytes_ = 0;
  int64_t spill_bytes_ = 0;
};

}  // namespace lmerge

#endif  // LMERGE_CORE_IN2T_H_
