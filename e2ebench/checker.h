// Output checker that does not use the merge: the reference is the TDB of
// the generator's own event list, and an output passes when it is
// validator-clean (every element applies to the TDB built so far, as
// StreamValidator checks) and reconstitutes to exactly that TDB.

#ifndef LMERGE_E2EBENCH_CHECKER_H_
#define LMERGE_E2EBENCH_CHECKER_H_

#include <cstdint>
#include <string>

#include "stream/element.h"
#include "temporal/tdb.h"
#include "workload/generator.h"

namespace e2ebench {

struct CheckResult {
  // Expected events (reference TDB size, with multiplicity).
  int64_t attempted = 0;
  // Expected events the output misses or gets wrong, plus events it has
  // that the reference lacks, capped at `attempted`.  An output the
  // validator rejects fails every expected event.
  int64_t failed = 0;
  std::string detail;
};

// The TDB of `history.events`, built by inserting each event.
lmerge::Tdb ReferenceTdb(const lmerge::workload::LogicalHistory& history);

CheckResult CheckOutput(const lmerge::Tdb& reference,
                        const lmerge::ElementSequence& output);

// Feeds the checker three corrupted copies of `correct` (an output that
// passes): one event dropped, one event's Ve changed, one event
// duplicated.  Returns an empty string when the correct copy passes and
// every corrupted copy fails, else what went wrong.
std::string CheckerSelfTest(const lmerge::Tdb& reference,
                            const lmerge::ElementSequence& correct);

}  // namespace e2ebench

#endif  // LMERGE_E2EBENCH_CHECKER_H_
