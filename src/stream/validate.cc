#include "stream/validate.h"

namespace lmerge {

Status StreamValidator::Consume(const StreamElement& element) {
  // Property conformance checks first (they do not mutate state).
  switch (element.kind()) {
    case ElementKind::kInsert: {
      if (properties_.ordered && element.vs() < max_vs_) {
        return Status::FailedPrecondition(
            "ordered stream regressed: " + element.ToString() +
            " after max Vs " + TimestampToString(max_vs_));
      }
      if (properties_.strictly_increasing && element.vs() <= max_vs_ &&
          element_count_ > 0) {
        return Status::FailedPrecondition(
            "strictly increasing stream repeated Vs: " + element.ToString());
      }
      break;
    }
    case ElementKind::kAdjust: {
      if (properties_.insert_only) {
        return Status::FailedPrecondition(
            "adjust on an insert-only stream: " + element.ToString());
      }
      break;
    }
    case ElementKind::kStable:
      break;
  }

  // An insert Apply would count (Vs at or past the stable point, non-empty
  // lifetime) must not repeat a live (Vs, payload) on a keyed stream.
  // Checked before Apply, which itself returns every error before it
  // mutates anything — so a rejected element leaves the state untouched
  // without a rollback copy.
  if (element.is_insert() && properties_.vs_payload_key &&
      element.vs() >= tdb_.stable_point() && element.ve() > element.vs() &&
      !tdb_.EndTimesFor(VsPayload(element.vs(), element.payload()))
           .empty()) {
    return Status::FailedPrecondition("(Vs,payload) key violated by " +
                                      element.ToString());
  }
  const Status status = tdb_.Apply(element);
  if (!status.ok()) return status;
  if (element.is_insert() && element.vs() > max_vs_) max_vs_ = element.vs();
  ++element_count_;
  return Status::Ok();
}

Status StreamValidator::ConsumeAll(const ElementSequence& elements) {
  for (const StreamElement& e : elements) {
    const Status status = Consume(e);
    if (!status.ok()) return status;
  }
  return Status::Ok();
}

}  // namespace lmerge
