#include "core/lmerge_r1.h"

#include <algorithm>

namespace lmerge {

Status LMergeR1::OnInsert(int stream, const StreamElement& element) {
  if (element.vs() < max_vs_) {
    CountDrop();
    return Status::Ok();
  }
  if (element.vs() > max_vs_) {
    std::fill(same_vs_count_.begin(), same_vs_count_.end(), 0);
    max_count_ = 0;
    max_vs_ = element.vs();
  }
  // max_count_ caches MAX(SameVsCount) — equivalently, the number of
  // elements already emitted for the current Vs.  It deliberately includes
  // detached streams: what has been emitted stays emitted.
  int64_t& count = same_vs_count_[static_cast<size_t>(stream)];
  if (count == max_count_) {
    EmitInsert(element.payload(), element.vs(), element.ve());
    ++max_count_;
  } else {
    CountDrop();
  }
  ++count;
  return Status::Ok();
}

Status LMergeR1::OnAdjust(int stream, const StreamElement& element) {
  (void)stream;
  return Status::FailedPrecondition(
      "LMergeR1 does not support adjust elements: " + element.ToString());
}

void LMergeR1::OnStable(int stream, Timestamp t) {
  (void)stream;
  if (t > max_stable_) {
    max_stable_ = t;
    EmitStable(t);
  }
}

Status LMergeR1::ProcessBatch(int stream,
                              std::span<const StreamElement> batch) {
  LM_DCHECK(stream >= 0 && stream < stream_count());
  LM_DCHECK(stream_active(stream));
  int64_t& count = same_vs_count_[static_cast<size_t>(stream)];
  for (const StreamElement& element : batch) {
    CountIn(stream, element);
    switch (element.kind()) {
      case ElementKind::kInsert:
        if (element.vs() < max_vs_) {
          CountDrop();
          break;
        }
        if (element.vs() > max_vs_) {
          std::fill(same_vs_count_.begin(), same_vs_count_.end(), 0);
          max_count_ = 0;
          max_vs_ = element.vs();
        }
        if (count == max_count_) {
          EmitInsert(element.payload(), element.vs(), element.ve());
          ++max_count_;
        } else {
          CountDrop();
        }
        ++count;
        break;
      case ElementKind::kAdjust:
        return Status::FailedPrecondition(
            "LMergeR1 does not support adjust elements: " +
            element.ToString());
      case ElementKind::kStable:
        OnStable(stream, element.stable_time());
        break;
    }
  }
  return Status::Ok();
}

Status LMergeR1::ValidateElement(const StreamElement& element) const {
  if (element.is_adjust()) {
    return Status::FailedPrecondition(
        "LMergeR1 does not support adjust elements: " + element.ToString());
  }
  return Status::Ok();
}

void LMergeR1::SaveState(Encoder* encoder) const {
  encoder->WriteVarU64(static_cast<uint64_t>(stream_count()));
  encoder->WriteTimeDelta(max_stable_, 0);
  encoder->WriteTimeDelta(max_vs_, max_stable_);
  encoder->WriteVarI64(max_count_);
  for (const int64_t count : same_vs_count_) encoder->WriteVarI64(count);
}

Status LMergeR1::RestoreState(Decoder* decoder) {
  uint32_t streams = 0;
  Status status = ReadCheckpointStreamCount(decoder, &streams);
  if (!status.ok()) return status;
  while (stream_count() < static_cast<int>(streams)) AddStream();
  if (!(status = decoder->ReadTimeDelta(0, &max_stable_)).ok()) return status;
  if (!(status = decoder->ReadTimeDelta(max_stable_, &max_vs_)).ok()) {
    return status;
  }
  if (!(status = decoder->ReadVarI64(&max_count_)).ok()) return status;
  for (uint32_t s = 0; s < streams; ++s) {
    if (!(status = decoder->ReadVarI64(&same_vs_count_[s])).ok()) {
      return status;
    }
  }
  return Status::Ok();
}

}  // namespace lmerge
