// in3t — the three-tier index of Algorithm R4 (Sec. IV-E, Fig. 1 right).
//
// Like in2t, but the fully general case allows *many* events with the same
// (Vs, payload) — different Ve values and even exact duplicates — so the
// single Ve slot of the bottom tier is replaced by a small red-black tree
// mapping Ve -> multiplicity (with a cached total) per stream, plus the
// distinguished output entry.  The per-node stream map is the same flat
// small map as in2t's: up to four entries inline in the tree node, the rest
// spilled to one heap vector.

#ifndef LMERGE_CORE_IN3T_H_
#define LMERGE_CORE_IN3T_H_

#include <cstdint>
#include <utility>

#include "common/payload_ledger.h"
#include "common/timestamp.h"
#include "container/rbtree.h"
#include "container/small_map.h"
#include "core/in2t.h"  // for kOutputStream
#include "temporal/event.h"

namespace lmerge {

// Per-stream multiset of validity end times for one (Vs, payload) key.
class VeMultiset {
 public:
  VeMultiset() = default;
  VeMultiset(VeMultiset&&) = default;
  VeMultiset& operator=(VeMultiset&&) = default;

  void Increment(Timestamp ve, int64_t n = 1) {
    auto [it, inserted] = counts_.Insert(ve, n);
    if (!inserted) it.value() += n;
    total_ += n;
  }

  // Removes one occurrence of `ve`; returns false (without changes) if none
  // is present — the caller treats that as an input inconsistency.
  bool Decrement(Timestamp ve) {
    auto it = counts_.Find(ve);
    if (it == counts_.end()) return false;
    if (--it.value() == 0) counts_.Erase(it);
    --total_;
    return true;
  }

  int64_t total() const { return total_; }
  bool empty() const { return total_ == 0; }
  int64_t CountOf(Timestamp ve) const {
    auto it = counts_.Find(ve);
    return it == counts_.end() ? 0 : it.value();
  }

  // Multiset equality; O(min distinct Ve count) with an O(1) total check
  // first.  Used by the R4 frontier to detect uniform nodes.
  bool Equals(const VeMultiset& other) const {
    if (total_ != other.total_) return false;
    auto a = counts_.begin();
    auto b = other.counts_.begin();
    while (a != counts_.end() && b != other.counts_.end()) {
      if (a.key() != b.key() || a.value() != b.value()) return false;
      ++a;
      ++b;
    }
    return a == counts_.end() && b == other.counts_.end();
  }

  // Largest Ve present, or `fallback` when empty.
  Timestamp MaxVe(Timestamp fallback) const {
    auto it = counts_.Last();
    return it == counts_.end() ? fallback : it.key();
  }

  // Invokes fn(ve, count) in ascending Ve order.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (auto it = counts_.begin(); it != counts_.end(); ++it) {
      fn(it.key(), it.value());
    }
  }

  // Heap bytes of the Ve tree; the multiset object itself lives wherever
  // its owner stores it (inline in an in3t node, or in a spill array).
  int64_t HeapBytes() const { return counts_.NodeBytes(); }

 private:
  RbTree<Timestamp, int64_t> counts_;
  int64_t total_ = 0;
};

class In3t {
 public:
  using EndsTable = SmallMap<int32_t, VeMultiset, 4, kVacantStream>;
  // Per node, the tree carries the auxiliary bottom-tier heap bytes as last
  // synced (the stream map's spill plus every per-stream Ve tree), so
  // StateBytes() stays O(1) and DeleteNode releases exactly what was
  // charged.  Shared payload bytes are charged through the identity ledger
  // — once per distinct rep, not once per node.
  using Tree =
      RbTree<VsPayload, EndsTable, VsPayloadLess, MinAugment<int64_t>>;
  using Iterator = Tree::Iterator;

  Iterator SameVsPayload(Timestamp vs, const Row& payload) const {
    return tree_.Find(VsPayloadRef(vs, payload));
  }

  Iterator AddNode(Timestamp vs, const Row& payload) {
    auto [it, inserted] = tree_.Insert(VsPayload(vs, payload), EndsTable());
    LM_DCHECK(inserted);
    unshared_payload_bytes_ += payload.DeepSizeBytes();
    ledger_.AddRef(it.key().payload);
    return it;
  }

  Iterator DeleteNode(Iterator it) {
    unshared_payload_bytes_ -= it.key().payload.DeepSizeBytes();
    ledger_.Release(it.key().payload);
    aux_bytes_ -= tree_.AugExtra(it);
    return tree_.Erase(it);
  }

  // Re-syncs the cached auxiliary bytes after the node's bottom tiers
  // changed; O(streams + distinct Ve).
  void SyncAuxBytes(Iterator it) {
    int64_t& charged = tree_.AugExtra(it);
    const int64_t aux = AuxBytes(it);
    aux_bytes_ += aux - charged;
    charged = aux;
  }

  // Frontier bookkeeping for the pruned stable scan; see In2t for the
  // contract (stale-LOW allowed, stale-HIGH forbidden).
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
  template <typename Fn>
  void RecomputeFrontiers(Fn&& fn) {
    tree_.RecomputeAug(std::forward<Fn>(fn));
  }

  Iterator begin() const { return tree_.begin(); }
  Iterator end() const { return tree_.end(); }

  int64_t node_count() const { return tree_.size(); }
  bool empty() const { return tree_.empty(); }

  // O(1): all three tiers' bytes are maintained incrementally (inline
  // bottom-tier entries are part of the tree nodes); interned
  // payload reps are charged once per distinct rep via the ledger.
  int64_t StateBytes() const {
    return tree_.NodeBytes() + ledger_.bytes() + ledger_.OverheadBytes() +
           aux_bytes_;
  }

  // The pre-interning model: every node owns a private payload copy.
  int64_t StateBytesUnshared() const {
    return tree_.NodeBytes() + unshared_payload_bytes_ + aux_bytes_;
  }

  int64_t distinct_payloads() const { return ledger_.distinct(); }

 private:
  static int64_t AuxBytes(Iterator it) {
    int64_t bytes = it.value().HeapBytes();
    it.value().ForEach([&bytes](int32_t stream, const VeMultiset& ends) {
      (void)stream;
      bytes += ends.HeapBytes();
    });
    return bytes;
  }

  Tree tree_;
  SharedPayloadLedger ledger_;
  int64_t unshared_payload_bytes_ = 0;
  int64_t aux_bytes_ = 0;
};

}  // namespace lmerge

#endif  // LMERGE_CORE_IN3T_H_
