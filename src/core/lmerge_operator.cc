#include "core/lmerge_operator.h"

namespace lmerge {

LMergeOperator::LMergeOperator(std::string name, int initial_inputs,
                               MergeVariant variant, MergePolicy policy,
                               bool feedback_enabled)
    : Operator(std::move(name), initial_inputs),
      adapter_(this),
      algorithm_(
          CreateMergeAlgorithm(variant, initial_inputs, &adapter_, policy)),
      inputs_(static_cast<size_t>(initial_inputs)),
      feedback_enabled_(feedback_enabled) {}

LMergeOperator::LMergeOperator(
    std::string name, const std::vector<StreamProperties>& input_properties,
    MergePolicy policy, bool feedback_enabled)
    : LMergeOperator(std::move(name),
                     static_cast<int>(input_properties.size()),
                     VariantForCase(ChooseAlgorithm(input_properties)),
                     policy, feedback_enabled) {}

int LMergeOperator::AttachInput(Timestamp join_time) {
  GrowInputs();
  const int port = algorithm_->AddStream();
  LM_CHECK(port == input_count() - 1);
  InputState state;
  state.join_time = join_time;
  state.joined = algorithm_->max_stable() >= join_time;
  inputs_.push_back(state);
  return port;
}

void LMergeOperator::DetachInput(int port) {
  LM_CHECK(port >= 0 && port < input_count());
  InputState& state = inputs_[static_cast<size_t>(port)];
  if (state.detached) return;
  state.detached = true;
  algorithm_->RemoveStream(port);
}

bool LMergeOperator::InputJoined(int port) const {
  LM_CHECK(port >= 0 && port < input_count());
  return inputs_[static_cast<size_t>(port)].joined;
}

bool LMergeOperator::InputActive(int port) const {
  LM_CHECK(port >= 0 && port < input_count());
  return !inputs_[static_cast<size_t>(port)].detached;
}

int LMergeOperator::active_input_count() const {
  int n = 0;
  for (const InputState& state : inputs_) n += state.detached ? 0 : 1;
  return n;
}

StreamProperties LMergeOperator::DeriveProperties(
    const std::vector<StreamProperties>& inputs) const {
  // The output is one more physical presentation of the same logical stream:
  // it satisfies whatever holds for all inputs jointly.
  if (inputs.empty()) return StreamProperties::None();
  StreamProperties met = inputs[0];
  for (size_t i = 1; i < inputs.size(); ++i) met = met.Meet(inputs[i]);
  return met;
}

void LMergeOperator::RefreshJoinedFlags() {
  const Timestamp stable = algorithm_->max_stable();
  for (InputState& state : inputs_) {
    if (!state.joined && stable >= state.join_time) state.joined = true;
  }
}

void LMergeOperator::MaybeSendFeedback() {
  if (!feedback_enabled_) return;
  const Timestamp stable = algorithm_->max_stable();
  if (stable > last_feedback_sent_) {
    last_feedback_sent_ = stable;
    PropagateFeedback(stable);
  }
}

void LMergeOperator::SaveState(Encoder* encoder) const {
  encoder->WriteVarU64(inputs_.size());
  for (const InputState& state : inputs_) {
    encoder->WriteU8(state.joined ? 1 : 0);
    encoder->WriteU8(state.detached ? 1 : 0);
    encoder->WriteTimeDelta(state.join_time, 0);
  }
  encoder->WriteTimeDelta(last_feedback_sent_, 0);
  const Checkpointable* inner = algorithm_->checkpointable();
  LM_CHECK_MSG(inner != nullptr,
               "algorithm variant does not support checkpointing");
  inner->SaveState(encoder);
}

Status LMergeOperator::RestoreState(Decoder* decoder) {
  uint32_t input_count_saved = 0;
  Status status = ReadCheckpointStreamCount(decoder, &input_count_saved);
  if (!status.ok()) return status;
  std::vector<InputState> inputs(input_count_saved);
  for (uint32_t i = 0; i < input_count_saved; ++i) {
    uint8_t joined = 0;
    uint8_t detached = 0;
    if (!(status = decoder->ReadU8(&joined)).ok()) return status;
    if (!(status = decoder->ReadU8(&detached)).ok()) return status;
    if (!(status = decoder->ReadTimeDelta(0, &inputs[i].join_time)).ok()) {
      return status;
    }
    inputs[i].joined = joined != 0;
    inputs[i].detached = detached != 0;
  }
  if (!(status = decoder->ReadTimeDelta(0, &last_feedback_sent_)).ok()) {
    return status;
  }
  Checkpointable* inner = algorithm_->checkpointable();
  if (inner == nullptr) {
    return Status::FailedPrecondition(
        "algorithm variant does not support checkpointing");
  }
  status = inner->RestoreState(decoder);
  if (!status.ok()) return status;
  // Grow the operator's port registry to the snapshot's width, then adopt
  // the per-input states (including detached flags).
  while (input_count() < static_cast<int>(input_count_saved)) GrowInputs();
  inputs_ = std::move(inputs);
  for (size_t i = 0; i < inputs_.size(); ++i) {
    if (inputs_[i].detached) algorithm_->RemoveStream(static_cast<int>(i));
  }
  return Status::Ok();
}

void LMergeOperator::OnElement(int port, const StreamElement& element) {
  InputState& state = inputs_[static_cast<size_t>(port)];
  if (state.detached) return;
  if (element.is_stable() && !state.joined) {
    // A not-yet-joined stream may miss events that ended before its join
    // time; letting it drive the output stable point could freeze their
    // absence.  Its stable elements are held back until it joins.
    RefreshJoinedFlags();
    if (!state.joined) return;
  }
  const Status status = algorithm_->OnElement(port, element);
  LM_CHECK_MSG(status.ok(), "%s: %s", name().c_str(),
               status.ToString().c_str());
  RefreshJoinedFlags();
  MaybeSendFeedback();
}

}  // namespace lmerge
