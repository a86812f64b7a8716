#include "core/lmerge_r0.h"

namespace lmerge {

Status LMergeR0::OnInsert(int stream, const StreamElement& element) {
  (void)stream;
  if (element.vs() > max_vs_) {
    max_vs_ = element.vs();
    EmitInsert(element.payload(), element.vs(), element.ve());
  } else {
    CountDrop();
  }
  return Status::Ok();
}

Status LMergeR0::OnAdjust(int stream, const StreamElement& element) {
  (void)stream;
  return Status::FailedPrecondition(
      "LMergeR0 does not support adjust elements: " + element.ToString());
}

void LMergeR0::OnStable(int stream, Timestamp t) {
  (void)stream;
  if (t > max_stable_) {
    max_stable_ = t;
    EmitStable(t);
  }
}

Status LMergeR0::ProcessBatch(int stream,
                              std::span<const StreamElement> batch) {
  LM_DCHECK(stream >= 0 && stream < stream_count());
  LM_DCHECK(stream_active(stream));
  // One pass merging the (sorted) run against the watermarks; identical
  // output to per-element delivery, minus the dispatch overhead.
  for (const StreamElement& element : batch) {
    CountIn(stream, element);
    switch (element.kind()) {
      case ElementKind::kInsert:
        if (element.vs() > max_vs_) {
          max_vs_ = element.vs();
          EmitInsert(element.payload(), element.vs(), element.ve());
        } else {
          CountDrop();
        }
        break;
      case ElementKind::kAdjust:
        return Status::FailedPrecondition(
            "LMergeR0 does not support adjust elements: " +
            element.ToString());
      case ElementKind::kStable:
        OnStable(stream, element.stable_time());
        break;
    }
  }
  return Status::Ok();
}

Status LMergeR0::ValidateElement(const StreamElement& element) const {
  if (element.is_adjust()) {
    return Status::FailedPrecondition(
        "LMergeR0 does not support adjust elements: " + element.ToString());
  }
  return Status::Ok();
}

void LMergeR0::SaveState(Encoder* encoder) const {
  encoder->WriteVarU64(static_cast<uint64_t>(stream_count()));
  encoder->WriteTimeDelta(max_stable_, 0);
  encoder->WriteTimeDelta(max_vs_, max_stable_);
}

Status LMergeR0::RestoreState(Decoder* decoder) {
  uint32_t streams = 0;
  Status status = ReadCheckpointStreamCount(decoder, &streams);
  if (!status.ok()) return status;
  while (stream_count() < static_cast<int>(streams)) {
    MergeAlgorithm::AddStream();
  }
  if (!(status = decoder->ReadTimeDelta(0, &max_stable_)).ok()) return status;
  return decoder->ReadTimeDelta(max_stable_, &max_vs_);
}

}  // namespace lmerge
