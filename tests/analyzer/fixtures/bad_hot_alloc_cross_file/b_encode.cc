// Seeded violation, part 2 of 2: the allocation the root in a_drain.cc
// reaches across files.  Not allowlisted, so it must be rejected.
#include <vector>

namespace lmerge {

void EncodeToyBatch(int elements) {
  std::vector<int>* staged = new std::vector<int>();
  staged->push_back(elements);
  delete staged;
}

}  // namespace lmerge
