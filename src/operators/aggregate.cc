#include "operators/aggregate.h"

#include <algorithm>

namespace lmerge {

StreamProperties GroupedAggregate::DeriveProperties(
    const std::vector<StreamProperties>& inputs) const {
  LM_CHECK(inputs.size() == 1);
  StreamProperties out;
  out.vs_payload_key = true;  // one result per (window, group), group in key
  if (config_.mode == AggregateMode::kConservative) {
    out.insert_only = true;
    out.ordered = true;  // windows finalize in ascending order
    if (config_.group_column < 0) {
      out.strictly_increasing = true;  // one event per window
    } else {
      // Equivalent plans may enumerate groups of a window differently.
      out.deterministic_ties = false;
    }
  } else {
    // Aggressive/speculative modes revise emitted windows (retract +
    // re-insert), and with disordered input the revisions land at earlier
    // Vs values: neither insert-only nor ordered can be claimed.
    out.insert_only = false;
    out.ordered = false;
  }
  return out.Normalized();
}

void GroupedAggregate::EmitOrRevise(Timestamp w, const Row& group,
                                    GroupState* state) {
  const int64_t value = CurrentValue(*state);
  const Timestamp we = w + config_.window_size;
  if (state->emitted) {
    if (value == state->emitted_value && state->count > 0) return;
    // Retract the previous result and re-insert the new one.  The value is
    // part of the payload, so a revision is retract + insert rather than a
    // lifetime adjust.
    EmitAdjust(OutputRow(group, state->emitted_value), w, we, w);
    if (state->count > 0) {
      EmitInsert(OutputRow(group, value), w, we);
      state->emitted_value = value;
    } else {
      state->emitted = false;
    }
    return;
  }
  if (state->count > 0) {
    EmitInsert(OutputRow(group, value), w, we);
    state->emitted = true;
    state->emitted_value = value;
  }
}

void GroupedAggregate::EmitSpeculativeBelow(Timestamp frontier) {
  if (frontier <= spec_horizon_) return;
  for (auto it = windows_.begin();
       it != windows_.end() && it->first < frontier; ++it) {
    for (auto& [group, state] : it->second) {
      if (!state.emitted) EmitOrRevise(it->first, group, &state);
    }
  }
  spec_horizon_ = frontier;
}

void GroupedAggregate::ApplyDelta(const Row& payload, Timestamp vs,
                                  int64_t sign) {
  if (config_.mode == AggregateMode::kSpeculative && sign > 0) {
    // Seeing a newer window: speculate that every window that can no longer
    // gain in-order input (everything before the earliest window this
    // element touches) is complete.
    EmitSpeculativeBelow(FirstWindowStart(vs));
  }
  // The event contributes to every window covering its start time.
  for (Timestamp w = FirstWindowStart(vs); w <= WindowStart(vs); w += hop()) {
    ApplyDeltaToWindow(w, payload, sign);
  }
}

void GroupedAggregate::ApplyDeltaToWindow(Timestamp w, const Row& payload,
                                          int64_t sign) {
  const Row group = GroupKey(payload);
  GroupState& state = windows_[w][group];
  if (state.count == 0 && state.sum == 0 && !state.emitted && sign > 0) {
    state_bytes_ += group.DeepSizeBytes() +
                    static_cast<int64_t>(sizeof(GroupState)) + 48;
  }
  state.count += sign;
  if (config_.function == AggregateFunction::kSum) {
    state.sum += sign * payload.field(config_.value_column).AsInt64();
  }
  switch (config_.mode) {
    case AggregateMode::kAggressive:
      EmitOrRevise(w, group, &state);
      break;
    case AggregateMode::kSpeculative:
      // Only revise results already speculated; the frontier window waits.
      if (state.emitted || w < spec_horizon_) EmitOrRevise(w, group, &state);
      break;
    case AggregateMode::kConservative:
      break;
  }
}

void GroupedAggregate::FinalizeBelow(Timestamp t) {
  // Windows whose end is <= t have seen all their input.
  auto it = windows_.begin();
  while (it != windows_.end() && it->first + config_.window_size <= t) {
    if (config_.mode == AggregateMode::kConservative) {
      for (const auto& [group, state] : it->second) {
        if (state.count > 0) {
          EmitInsert(OutputRow(group, CurrentValue(state)), it->first,
                     it->first + config_.window_size);
        }
      }
    } else if (config_.mode == AggregateMode::kSpeculative) {
      // Results never speculated (no newer window arrived before the
      // stable) are final now; emit them before dropping the state.
      for (auto& [group, state] : it->second) {
        if (!state.emitted) EmitOrRevise(it->first, group, &state);
      }
    }
    for (const auto& [group, state] : it->second) {
      state_bytes_ -= group.DeepSizeBytes() +
                      static_cast<int64_t>(sizeof(GroupState)) + 48;
    }
    it = windows_.erase(it);
  }
}

void GroupedAggregate::OnElement(int port, const StreamElement& element) {
  (void)port;
  switch (element.kind()) {
    case ElementKind::kInsert:
      if (element.ve() <= feedback_horizon_) return;  // fast-forwarded
      ApplyDelta(element.payload(), element.vs(), +1);
      break;
    case ElementKind::kAdjust:
      // Count/sum aggregate by Vs: only a full removal (Ve collapsing onto
      // Vs) changes the result.
      if (element.ve() == element.vs()) {
        ApplyDelta(element.payload(), element.vs(), -1);
      }
      break;
    case ElementKind::kStable: {
      const Timestamp t = element.stable_time();
      FinalizeBelow(t);
      // No future output can start before the earliest still-open window
      // (equal to WindowStart(t) for tumbling windows, earlier for sliding
      // ones).
      const Timestamp ws = FirstWindowStart(t);
      if (ws > out_stable_) {
        out_stable_ = ws;
        EmitStable(ws);
      }
      break;
    }
  }
}

void GroupedAggregate::SaveState(Encoder* encoder) const {
  encoder->WriteTimeDelta(out_stable_, 0);
  encoder->WriteTimeDelta(spec_horizon_, out_stable_);
  encoder->WriteVarU64(windows_.size());
  // Windows in start order, each a delta from the previous one.
  Timestamp prev_window = 0;
  for (const auto& [window, groups] : windows_) {
    encoder->WriteTimeDelta(window, prev_window);
    prev_window = window;
    encoder->WriteVarU64(groups.size());
    for (const auto& [group, state] : groups) {
      encoder->WriteCompactRow(group);
      encoder->WriteVarI64(state.count);
      encoder->WriteVarI64(state.sum);
      encoder->WriteU8(state.emitted ? 1 : 0);
      encoder->WriteVarI64(state.emitted_value);
    }
  }
}

Status GroupedAggregate::RestoreState(Decoder* decoder) {
  Status status = decoder->ReadTimeDelta(0, &out_stable_);
  if (!status.ok()) return status;
  if (!(status = decoder->ReadTimeDelta(out_stable_, &spec_horizon_)).ok()) {
    return status;
  }
  windows_.clear();
  state_bytes_ = 0;
  uint32_t window_count = 0;
  // A window takes at least its start delta and its group count.
  if (!(status = decoder->ReadCount(2, &window_count)).ok()) return status;
  Timestamp window = 0;
  for (uint32_t w = 0; w < window_count; ++w) {
    if (!(status = decoder->ReadTimeDelta(window, &window)).ok()) {
      return status;
    }
    uint32_t group_count = 0;
    // A group takes at least a row, three varints and the emitted flag.
    if (!(status = decoder->ReadCount(5, &group_count)).ok()) return status;
    auto& groups = windows_[window];
    for (uint32_t g = 0; g < group_count; ++g) {
      Row group;
      GroupState state;
      uint8_t emitted = 0;
      if (!(status = decoder->ReadCompactRow(&group)).ok()) return status;
      if (!(status = decoder->ReadVarI64(&state.count)).ok()) return status;
      if (!(status = decoder->ReadVarI64(&state.sum)).ok()) return status;
      if (!(status = decoder->ReadU8(&emitted)).ok()) return status;
      state.emitted = emitted != 0;
      if (!(status = decoder->ReadVarI64(&state.emitted_value)).ok()) {
        return status;
      }
      state_bytes_ += group.DeepSizeBytes() +
                      static_cast<int64_t>(sizeof(GroupState)) + 48;
      groups.emplace(std::move(group), state);
    }
  }
  return Status::Ok();
}

void GroupedAggregate::OnFeedback(Timestamp horizon) {
  if (horizon <= feedback_horizon_) return;
  // Results for windows ending before the horizon are no longer of
  // interest; drop their state without emitting (the consumer already has
  // equivalent output from a faster plan).
  auto it = windows_.begin();
  while (it != windows_.end() && it->first + config_.window_size <= horizon) {
    for (const auto& [group, state] : it->second) {
      state_bytes_ -= group.DeepSizeBytes() +
                      static_cast<int64_t>(sizeof(GroupState)) + 48;
    }
    it = windows_.erase(it);
  }
  Operator::OnFeedback(horizon);
}

}  // namespace lmerge
