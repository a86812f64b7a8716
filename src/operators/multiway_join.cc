#include "operators/multiway_join.h"

#include <algorithm>

namespace lmerge {

void MultiwayJoin::EmitCombination(
    const std::vector<const StoredEvent*>& chosen) {
  Timestamp start = kMinTimestamp;
  Timestamp end = kInfinity;
  std::vector<Value> fields;
  for (const StoredEvent* event : chosen) {
    start = std::max(start, event->vs);
    end = std::min(end, event->ve);
    fields.insert(fields.end(), event->payload.fields().begin(),
                  event->payload.fields().end());
  }
  if (end > start) {
    EmitInsert(Row(fields), start, end);
  }
}

void MultiwayJoin::Enumerate(const Value& key, int new_port, size_t side,
                             std::vector<const StoredEvent*>* chosen) {
  if (side == sides_.size()) {
    EmitCombination(*chosen);
    return;
  }
  if (static_cast<int>(side) == new_port) {
    // The new event is already pinned in `chosen`.
    Enumerate(key, new_port, side + 1, chosen);
    return;
  }
  auto it = sides_[side].find(key);
  if (it == sides_[side].end()) return;
  for (const StoredEvent& candidate : it->second) {
    (*chosen)[side] = &candidate;
    Enumerate(key, new_port, side + 1, chosen);
  }
}

void MultiwayJoin::OnElement(int port, const StreamElement& element) {
  switch (element.kind()) {
    case ElementKind::kInsert: {
      const Value key = element.payload().field(
          key_columns_[static_cast<size_t>(port)]);
      StoredEvent stored{element.payload(), element.vs(), element.ve()};
      // Join the new event against every combination from the other sides
      // *before* adding it (no self-pairing).
      std::vector<const StoredEvent*> chosen(sides_.size(), nullptr);
      chosen[static_cast<size_t>(port)] = &stored;
      Enumerate(key, port, 0, &chosen);
      sides_[static_cast<size_t>(port)][key].push_back(stored);
      state_bytes_ += element.payload().DeepSizeBytes() + 32;
      break;
    }
    case ElementKind::kAdjust:
      // Insert-only by contract; see the header.  Tolerate full removals by
      // dropping the stored event (needed if an upstream retracts).
      if (element.ve() == element.vs()) {
        const Value key = element.payload().field(
            key_columns_[static_cast<size_t>(port)]);
        auto it = sides_[static_cast<size_t>(port)].find(key);
        if (it == sides_[static_cast<size_t>(port)].end()) break;
        auto& events = it->second;
        for (size_t i = 0; i < events.size(); ++i) {
          if (events[i].vs == element.vs() &&
              events[i].ve == element.v_old() &&
              events[i].payload == element.payload()) {
            state_bytes_ -= events[i].payload.DeepSizeBytes() + 32;
            events[i] = events.back();
            events.pop_back();
            break;
          }
        }
      } else {
        LM_CHECK_MSG(false,
                     "MultiwayJoin does not support lifetime revisions; "
                     "use a cascade of TemporalJoin operators");
      }
      break;
    case ElementKind::kStable: {
      stables_[static_cast<size_t>(port)] =
          std::max(stables_[static_cast<size_t>(port)],
                   element.stable_time());
      const Timestamp merged =
          *std::min_element(stables_.begin(), stables_.end());
      if (merged > out_stable_) {
        out_stable_ = merged;
        for (SideIndex& side : sides_) {
          auto it = side.begin();
          while (it != side.end()) {
            auto& events = it->second;
            for (size_t i = 0; i < events.size();) {
              if (events[i].ve < merged) {
                state_bytes_ -= events[i].payload.DeepSizeBytes() + 32;
                events[i] = events.back();
                events.pop_back();
              } else {
                ++i;
              }
            }
            if (events.empty()) {
              it = side.erase(it);
            } else {
              ++it;
            }
          }
        }
        EmitStable(merged);
      }
      break;
    }
  }
}

}  // namespace lmerge
