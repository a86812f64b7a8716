#include "core/lmerge_r2.h"

namespace lmerge {

Status LMergeR2::OnInsert(int stream, const StreamElement& element) {
  (void)stream;
  if (element.vs() < max_vs_) {
    CountDrop();
    return Status::Ok();
  }
  if (element.vs() > max_vs_) {
    seen_.Clear();
    payload_bytes_ = 0;
    max_vs_ = element.vs();
  }
  const auto [unused, inserted] = seen_.Insert(element.payload(), 0);
  if (inserted) {
    payload_bytes_ += element.payload().DeepSizeBytes();
    EmitInsert(element.payload(), element.vs(), element.ve());
  } else {
    CountDrop();
  }
  return Status::Ok();
}

Status LMergeR2::OnAdjust(int stream, const StreamElement& element) {
  (void)stream;
  return Status::FailedPrecondition(
      "LMergeR2 does not support adjust elements: " + element.ToString());
}

void LMergeR2::OnStable(int stream, Timestamp t) {
  (void)stream;
  if (t > max_stable_) {
    max_stable_ = t;
    EmitStable(t);
  }
}

void LMergeR2::SaveState(Encoder* encoder) const {
  encoder->WriteVarU64(static_cast<uint64_t>(stream_count()));
  encoder->WriteTimeDelta(max_stable_, 0);
  encoder->WriteTimeDelta(max_vs_, max_stable_);
  encoder->WriteVarU64(seen_.size());
  seen_.ForEach([encoder](const Row& payload, char) {
    encoder->WriteRowRef(payload);
  });
}

Status LMergeR2::RestoreState(Decoder* decoder) {
  uint32_t streams = 0;
  Status status = ReadCheckpointStreamCount(decoder, &streams);
  if (!status.ok()) return status;
  while (stream_count() < static_cast<int>(streams)) {
    MergeAlgorithm::AddStream();
  }
  if (!(status = decoder->ReadTimeDelta(0, &max_stable_)).ok()) return status;
  if (!(status = decoder->ReadTimeDelta(max_stable_, &max_vs_)).ok()) {
    return status;
  }
  uint32_t count = 0;
  // Each row reference takes at least one byte.
  if (!(status = decoder->ReadCount(1, &count)).ok()) return status;
  seen_.Clear();
  payload_bytes_ = 0;
  for (uint32_t i = 0; i < count; ++i) {
    Row payload;
    if (!(status = decoder->ReadRowRef(&payload)).ok()) return status;
    const auto [unused, inserted] = seen_.Insert(payload, 0);
    if (inserted) payload_bytes_ += payload.DeepSizeBytes();
  }
  return Status::Ok();
}

}  // namespace lmerge
