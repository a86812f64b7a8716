// Seeded violation: an LM_HOT_PATH function reaches a container method
// through a reference-typed local and a pointer-typed parameter whose type
// is a class alias (`ToyIndex::Table`, standing for ToyMap), the shape of
// `In2t::EndTable& ends = node.value(); ends.Insert(...)` in the merge
// algorithms.  ToyMap's methods grow its spill vector and are not
// allowlisted, so both paths must be rejected.
// ToySet shares the method names, so neither call resolves by name alone:
// only the receiver's declared type leads to ToyMap.
#include <vector>

#include "common/thread_annotations.h"

namespace lmerge {

class ToyMap {
 public:
  void Insert(int key, long value) {
    if (key != 0) spill_.push_back(value);
  }
  void Rehash() { spill_.resize(spill_.size() * 2); }

 private:
  std::vector<long> spill_;
};

class ToySet {
 public:
  void Insert(int key, long value) { last_ = key + value; }
  void Rehash() { last_ = 0; }

 private:
  long last_ = 0;
};

class ToyIndex {
 public:
  using Table = ToyMap;
  Table& slot() { return table_; }

 private:
  Table table_;
};

class ToyMerge {
 public:
  void ProcessBatch(ToyIndex* index) LM_HOT_PATH {
    ToyIndex::Table& table = index->slot();
    table.Insert(1, 2);
    Respill(&index->slot());
  }

 private:
  void Respill(ToyIndex::Table* table) { table->Rehash(); }
};

}  // namespace lmerge
