// Union: multiset union of N input streams (the operator whose output "can
// be disordered even if each input stream arrives in order" — Sec. I).
//
// Insert/adjust elements pass straight through.  Stable() elements are
// merged conservatively: the output stable point is the minimum of the
// latest stable points across inputs (an event may still arrive on a slower
// input before that).  Property transfer: insert-only survives; ordering and
// key properties do not (interleaving breaks them).

#ifndef LMERGE_OPERATORS_UNION_OP_H_
#define LMERGE_OPERATORS_UNION_OP_H_

#include <algorithm>
#include <utility>
#include <vector>

#include "operators/operator.h"

namespace lmerge {

// The union's progress rule on its own: each input's frontier is the
// running max of its stables, and the output stable point is the minimum
// across frontiers.  Shared by UnionOp and the partitioned merger's shard
// union (engine/partitioned.cc), which starts from restored frontiers.
class MinFrontier {
 public:
  explicit MinFrontier(std::vector<Timestamp> frontiers)
      : frontiers_(std::move(frontiers)),
        merged_(*std::min_element(frontiers_.begin(), frontiers_.end())) {}

  // Folds stable(t) from input `input`; true when that advances the output
  // stable point, which merged() then returns.
  bool Advance(int input, Timestamp t) {
    Timestamp& mine = frontiers_[static_cast<size_t>(input)];
    if (t <= mine) return false;
    mine = t;
    const Timestamp merged =
        *std::min_element(frontiers_.begin(), frontiers_.end());
    if (merged <= merged_) return false;
    merged_ = merged;
    return true;
  }

  Timestamp merged() const { return merged_; }

 private:
  std::vector<Timestamp> frontiers_;
  Timestamp merged_;
};

class UnionOp : public Operator {
 public:
  UnionOp(std::string name, int input_count)
      : Operator(std::move(name), input_count),
        frontier_(std::vector<Timestamp>(
            static_cast<size_t>(std::max(input_count, 1)), kMinTimestamp)) {
    LM_CHECK(input_count >= 1);
  }

  StreamProperties DeriveProperties(
      const std::vector<StreamProperties>& inputs) const override {
    LM_CHECK(static_cast<int>(inputs.size()) == input_count());
    StreamProperties out;
    out.insert_only = true;
    for (const StreamProperties& p : inputs) {
      out.insert_only = out.insert_only && p.insert_only;
    }
    // Interleaving arbitrary inputs preserves neither order nor keys.
    return out;
  }

 protected:
  void OnElement(int port, const StreamElement& element) override {
    if (!element.is_stable()) {
      Emit(element);
      return;
    }
    if (frontier_.Advance(port, element.stable_time())) {
      EmitStable(frontier_.merged());
    }
  }

 private:
  MinFrontier frontier_;
};

}  // namespace lmerge

#endif  // LMERGE_OPERATORS_UNION_OP_H_
