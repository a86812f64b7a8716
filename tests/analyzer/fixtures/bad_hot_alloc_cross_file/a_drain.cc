// Seeded violation, part 1 of 2: the LM_HOT_PATH root calls a free
// function that is only declared here and defined in b_encode.cc, a file
// the frontend reads after this one (the shape of the serialize-once
// encode calling into stream/element_serde.cc).
#include "common/thread_annotations.h"

namespace lmerge {

void EncodeToyBatch(int elements);

class ToyFanout {
 public:
  void Flush() LM_HOT_PATH { EncodeToyBatch(64); }
};

}  // namespace lmerge
