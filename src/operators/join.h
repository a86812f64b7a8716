// TemporalJoin: equi-join of two temporal streams.
//
// Output semantics: for every pair of input events L, R with equal join-key
// columns and overlapping lifetimes, emit an event whose payload is the
// concatenation of the two payloads and whose lifetime is the intersection
// [max(VsL, VsR), min(VeL, VeR)).
//
// Revisions: an adjust on either side changes the intersections it
// participates in; the operator re-derives the affected outputs (emit,
// adjust, or retract).  Stable: the output stable point is the minimum of
// the two inputs'; events whose Ve precedes it can no longer join anything
// and are purged.
//
// This is the substrate operator behind the multi-way join plans of Sec. I
// ("a temporal join of three streams A, B, C can be processed as A ⋈ (B ⋈ C),
// B ⋈ (A ⋈ C), ..."): different association orders produce physically
// different but logically equivalent streams for LMerge to combine.

#ifndef LMERGE_OPERATORS_JOIN_H_
#define LMERGE_OPERATORS_JOIN_H_

#include <map>
#include <utility>
#include <vector>

#include "operators/operator.h"

namespace lmerge {

class TemporalJoin : public Operator {
 public:
  TemporalJoin(std::string name, int64_t left_key_column,
               int64_t right_key_column)
      : Operator(std::move(name), 2),
        key_column_{left_key_column, right_key_column} {}

  StreamProperties DeriveProperties(
      const std::vector<StreamProperties>& inputs) const override {
    LM_CHECK(inputs.size() == 2);
    StreamProperties out;
    // Join output interleaves matches discovered in arrival order: no order
    // or key guarantees survive in general; adjusts appear when inputs have
    // them or when intersections shrink.
    out.insert_only = inputs[0].insert_only && inputs[1].insert_only;
    return out;
  }

  int64_t StateBytes() const override { return state_bytes_; }

 protected:
  void OnElement(int port, const StreamElement& element) override;

 private:
  struct StoredEvent {
    Row payload;
    Timestamp vs;
    Timestamp ve;
  };
  // join key value -> events with that key, per side.
  using SideIndex = std::map<Value, std::vector<StoredEvent>>;

  static Timestamp IntersectEnd(const StoredEvent& a, const StoredEvent& b) {
    return a.ve < b.ve ? a.ve : b.ve;
  }
  static Timestamp IntersectStart(const StoredEvent& a,
                                  const StoredEvent& b) {
    return a.vs > b.vs ? a.vs : b.vs;
  }

  Row JoinRow(const StoredEvent& left, const StoredEvent& right) const {
    std::vector<Value> fields(left.payload.fields().begin(),
                              left.payload.fields().end());
    fields.insert(fields.end(), right.payload.fields().begin(),
                  right.payload.fields().end());
    return Row(fields);
  }

  // Emits output deltas for the pairing of `mine` (new/changed on `port`)
  // against every match on the other side.  old_ve is the event's previous
  // end (== vs for a fresh insert).
  void PairAgainstOtherSide(int port, const StoredEvent& mine,
                            Timestamp old_ve);

  void PurgeBelow(SideIndex& side, Timestamp t);

  int64_t key_column_[2];
  SideIndex sides_[2];
  Timestamp stables_[2] = {kMinTimestamp, kMinTimestamp};
  Timestamp out_stable_ = kMinTimestamp;
  int64_t state_bytes_ = 0;
};

}  // namespace lmerge

#endif  // LMERGE_OPERATORS_JOIN_H_
