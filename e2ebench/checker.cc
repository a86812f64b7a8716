#include "checker.h"

#include <algorithm>
#include <unordered_set>

#include "common/check.h"

namespace e2ebench {

using lmerge::ElementSequence;
using lmerge::Event;
using lmerge::StreamElement;
using lmerge::Tdb;

Tdb ReferenceTdb(const lmerge::workload::LogicalHistory& history) {
  Tdb tdb;
  for (const Event& e : history.events) {
    LM_CHECK(tdb.Apply(StreamElement::Insert(e.payload, e.vs, e.ve)).ok());
  }
  return tdb;
}

CheckResult CheckOutput(const Tdb& reference, const ElementSequence& output) {
  CheckResult result;
  result.attempted = reference.EventCount();
  // StreamValidator with default properties is Tdb::Apply per element,
  // stopping at the first error, plus a copy of its whole Tdb per element
  // for rollback, which makes it quadratic in the output length.  Apply
  // already leaves the Tdb unchanged when it fails, so the same check runs
  // here directly, and the Tdb it builds is Tdb::Reconstitute(output).
  Tdb got;
  for (size_t i = 0; i < output.size(); ++i) {
    const lmerge::Status valid = got.Apply(output[i]);
    if (!valid.ok()) {
      result.failed = result.attempted;
      result.detail = "invalid element " + std::to_string(i) + ": " +
                      valid.ToString();
      return result;
    }
  }
  int64_t missing = 0;
  int64_t extra = 0;
  reference.ForEach([&](const Event& e, int64_t n) {
    missing += std::max<int64_t>(0, n - got.CountOf(e));
  });
  got.ForEach([&](const Event& e, int64_t n) {
    extra += std::max<int64_t>(0, n - reference.CountOf(e));
  });
  result.failed = std::min(result.attempted, missing + extra);
  if (result.failed == 0 && !got.Equals(reference)) result.failed = 1;
  if (result.failed > 0) {
    result.detail = std::to_string(missing) + " expected events missing, " +
                    std::to_string(extra) + " unexpected";
  }
  return result;
}

std::string CheckerSelfTest(const Tdb& reference,
                            const ElementSequence& correct) {
  if (CheckOutput(reference, correct).failed != 0) {
    return "the correct output does not pass";
  }
  // A victim event whose output is one insert and no adjust, so each
  // corruption touches exactly one event.
  std::unordered_set<lmerge::Timestamp> adjusted;
  for (const StreamElement& e : correct) {
    if (e.is_adjust()) adjusted.insert(e.vs());
  }
  std::vector<size_t> candidates;
  for (size_t i = 0; i < correct.size(); ++i) {
    if (correct[i].is_insert() && adjusted.count(correct[i].vs()) == 0) {
      candidates.push_back(i);
    }
  }
  if (candidates.empty()) return "no event to corrupt";
  const size_t victim = candidates[candidates.size() / 2];
  const StreamElement& v = correct[victim];

  ElementSequence dropped = correct;
  dropped.erase(dropped.begin() + static_cast<ptrdiff_t>(victim));

  ElementSequence moved_end = correct;
  moved_end[victim] = StreamElement::Insert(v.payload(), v.vs(), v.ve() + 1);

  ElementSequence duplicated = correct;
  duplicated.insert(duplicated.begin() + static_cast<ptrdiff_t>(victim) + 1,
                    v);

  std::string missed;
  if (CheckOutput(reference, dropped).failed == 0) missed += " dropped";
  if (CheckOutput(reference, moved_end).failed == 0) missed += " ve-changed";
  if (CheckOutput(reference, duplicated).failed == 0) missed += " duplicated";
  return missed.empty() ? std::string() : "not caught:" + missed;
}

}  // namespace e2ebench
