#include "core/lmerge_r3.h"

#include <algorithm>
#include <string>

namespace lmerge {

bool LMergeR3::PolicyAllowsEmit(int stream, const In2t::EndTable& ends) const {
  switch (policy_.insert_policy) {
    case InsertPolicy::kFirstInsertWins:
      return true;
    case InsertPolicy::kLeadingStreamOnly: {
      Timestamp lead = kMinTimestamp;
      for (int s = 0; s < stream_count(); ++s) {
        if (stream_active(s)) {
          lead = std::max(lead, last_stable_[static_cast<size_t>(s)]);
        }
      }
      return last_stable_[static_cast<size_t>(stream)] == lead;
    }
    case InsertPolicy::kWaitHalfFrozen:
      return false;  // emitted during stable() processing instead
    case InsertPolicy::kFractionThreshold: {
      const int needed = std::max(
          1, static_cast<int>(policy_.insert_fraction *
                                  static_cast<double>(active_stream_count()) +
                              0.999999));
      // `ends` holds one entry per input stream that has produced the event
      // (the output entry is absent until first emission).
      return ends.size() >= needed;
    }
  }
  return true;
}

Timestamp LMergeR3::NodeFrontier(const VsPayload& key,
                                 In2t::EndTable& ends) const {
  const Timestamp vs = key.vs;
  const Timestamp* out_ptr = ends.Find(kOutputStream);
  Timestamp frontier = out_ptr != nullptr ? *out_ptr : vs;
  int present = 0;
  ends.ForEach([&](int32_t s, Timestamp ve) {
    if (s == kOutputStream) return;
    if (s >= stream_count() || !stream_active(s)) return;
    ++present;
    frontier = std::min(frontier, ve);
  });
  // An active stream with no entry views the event as the empty lifetime
  // (Ve == Vs), so the frontier collapses to Vs.
  if (present < active_stream_count()) frontier = vs;
  return frontier;
}

void LMergeR3::RefreshNode(In2t::Iterator node) {
  index_.SyncTableBytes(node);
  index_.SetFrontier(node, NodeFrontier(node.key(), node.value()));
}

Status LMergeR3::ApplyInsert(int stream, const StreamElement& element,
                             In2t::Iterator* node_io) {
  if (element.ve() < element.vs()) {
    return Status::InvalidArgument("insert with Ve < Vs: " +
                                   element.ToString());
  }
  In2t::Iterator node = *node_io;
  if (node == index_.end()) {
    if (element.vs() < max_stable_) {
      // The key previously existed and was fully frozen and removed, or the
      // stream is lagging; either way the element is already accounted for.
      CountDrop();
      return Status::Ok();
    }
    node = index_.AddNode(element.vs(), element.payload());
    *node_io = node;
  }
  In2t::EndTable& ends = node.value();
  *ends.Insert(stream, element.ve()).first = element.ve();
  if (ends.Find(kOutputStream) == nullptr && element.vs() >= max_stable_ &&
      PolicyAllowsEmit(stream, ends)) {
    EmitInsert(element.payload(), element.vs(), element.ve());
    ends.Insert(kOutputStream, element.ve());
  }
  return Status::Ok();
}

Status LMergeR3::ApplyAdjust(int stream, const StreamElement& element,
                             In2t::Iterator* node_io) {
  if (element.ve() < element.vs()) {
    return Status::InvalidArgument("adjust with Ve < Vs: " +
                                   element.ToString());
  }
  if (*node_io == index_.end()) {
    CountDrop();
    return Status::Ok();
  }
  In2t::EndTable& ends = node_io->value();
  *ends.Insert(stream, element.ve()).first = element.ve();

  if (policy_.adjust_policy == AdjustPolicy::kEager) {
    // Reflect the revision at the output immediately when doing so keeps the
    // output stream well formed (both old and new end must still be
    // adjustable relative to the output stable point).
    Timestamp* out_ve = ends.Find(kOutputStream);
    if (out_ve != nullptr && *out_ve != element.ve() &&
        *out_ve >= max_stable_ && element.ve() >= max_stable_ &&
        *out_ve != element.vs() &&
        (element.ve() != element.vs() || element.vs() >= max_stable_)) {
      EmitAdjust(element.payload(), element.vs(), *out_ve, element.ve());
      *out_ve = element.ve();
    }
  }
  return Status::Ok();
}

Status LMergeR3::OnInsert(int stream, const StreamElement& element) {
  CountIndexProbe();
  In2t::Iterator node = index_.SameVsPayload(element.vs(), element.payload());
  const Status status = ApplyInsert(stream, element, &node);
  if (node != index_.end()) RefreshNode(node);
  return status;
}

Status LMergeR3::OnAdjust(int stream, const StreamElement& element) {
  CountIndexProbe();
  In2t::Iterator node = index_.SameVsPayload(element.vs(), element.payload());
  const Status status = ApplyAdjust(stream, element, &node);
  if (node != index_.end()) RefreshNode(node);
  return status;
}

Status LMergeR3::ProcessBatch(int stream,
                              std::span<const StreamElement> batch) {
  LM_DCHECK(stream >= 0 && stream < stream_count());
  LM_DCHECK(stream_active(stream));
  size_t i = 0;
  while (i < batch.size()) {
    const StreamElement& head = batch[i];
    if (head.is_stable()) {
      CountIn(stream, head);
      OnStable(stream, head.stable_time());
      ++i;
      continue;
    }
    // A run of insert/adjust elements sharing (Vs, payload): one index
    // probe and one frontier/byte refresh serve the whole run.
    CountIndexProbe();
    In2t::Iterator node = index_.SameVsPayload(head.vs(), head.payload());
    Status status = Status::Ok();
    size_t j = i;
    for (; j < batch.size(); ++j) {
      const StreamElement& e = batch[j];
      if (e.is_stable() || e.vs() != head.vs() ||
          !(e.payload() == head.payload())) {
        break;
      }
      CountIn(stream, e);
      const bool superseded =
          e.is_adjust() && policy_.adjust_policy == AdjustPolicy::kLazy &&
          node != index_.end() && j + 1 < batch.size() &&
          batch[j + 1].is_adjust() && batch[j + 1].vs() == head.vs() &&
          batch[j + 1].ve() >= batch[j + 1].vs() &&
          batch[j + 1].payload() == head.payload();
      if (superseded) {
        // Under lazy reconciliation this adjust's Ve slot is overwritten by
        // the next (valid) adjust of the run before any stable can read it;
        // only its validation is observable.
        status = e.ve() < e.vs()
                     ? Status::InvalidArgument("adjust with Ve < Vs: " +
                                               e.ToString())
                     : Status::Ok();
      } else {
        status = e.is_insert() ? ApplyInsert(stream, e, &node)
                               : ApplyAdjust(stream, e, &node);
      }
      if (!status.ok()) break;
    }
    if (node != index_.end()) RefreshNode(node);
    if (!status.ok()) return status;
    i = j;
  }
  return Status::Ok();
}

Status LMergeR3::ValidateElement(const StreamElement& element) const {
  if (element.is_stable()) return Status::Ok();
  if (element.ve() < element.vs()) {
    return Status::InvalidArgument(
        (element.is_insert() ? std::string("insert with Ve < Vs: ")
                             : std::string("adjust with Ve < Vs: ")) +
        element.ToString());
  }
  return Status::Ok();
}

Status LMergeR3::AdoptOutputView(int stream) {
  LM_DCHECK(stream >= 0 && stream < stream_count());
  // The adopting stream continues the snapshot's output: every node the
  // output has emitted is viewed by the new stream at the output's Ve.
  // Nodes without an output entry stay absent for the stream too — the
  // output never presented them.
  for (auto it = index_.begin(); it != index_.end(); ++it) {
    In2t::EndTable& ends = it.value();
    const Timestamp* out_ptr = ends.Find(kOutputStream);
    if (out_ptr != nullptr) {
      const Timestamp out_ve = *out_ptr;
      *ends.Insert(stream, out_ve).first = out_ve;
    }
    RefreshNode(it);
  }
  return Status::Ok();
}

int LMergeR3::AddStream() {
  last_stable_.push_back(kMinTimestamp);
  const int id = MergeAlgorithm::AddStream();
  // The joiner has no entries anywhere, so every node's frontier collapses
  // to its Vs until the new stream covers it.
  index_.RecomputeFrontiers(
      [this](const VsPayload& key, In2t::EndTable& ends) {
        return NodeFrontier(key, ends);
      });
  return id;
}

void LMergeR3::OnStable(int stream, Timestamp t) {
  last_stable_[static_cast<size_t>(stream)] =
      std::max(last_stable_[static_cast<size_t>(stream)], t);
  // Optionally trail the maximum input stable point (Sec. III-D) so that
  // revisions arriving shortly after a stable are absorbed, not re-emitted.
  if (policy_.stable_lag > 0 && t != kInfinity) {
    t = t > kMinTimestamp + policy_.stable_lag ? t - policy_.stable_lag
                                               : kMinTimestamp;
  }
  if (t <= max_stable_) return;

  // Frontier-pruned half-frozen scan: of the nodes with key.vs < t, visit
  // (in key order) only those whose frontier precedes t.  A skipped node
  // has min(out Ve, every active stream's Ve) >= t, so the repair condition
  // below is false for it and it is not fully frozen — the pruned walk
  // produces byte-identical output to scanning the whole Vs < t range.
  In2t::Iterator it = index_.FirstActionable(t);
  while (it != index_.end()) {
    const Timestamp vs = it.key().vs;
    LM_DCHECK(vs < t);
    In2t::EndTable& ends = it.value();

    // The driving stream's view of the event; absent means the event is not
    // in stream `stream`'s TDB (missing element, Sec. V-C) — encoded as
    // Ve == Vs, i.e., an empty lifetime.
    const Timestamp* in_ptr = ends.Find(stream);
    const Timestamp in_ve = in_ptr != nullptr ? *in_ptr : vs;
    // The output's view; absent (never emitted) is likewise encoded Ve == Vs.
    Timestamp* out_ptr = ends.Find(kOutputStream);
    const Timestamp out_ve = out_ptr != nullptr ? *out_ptr : vs;

    if (in_ve != out_ve && (in_ve < t || out_ve < t)) {
      // A divergence is about to be frozen; repair the output to match the
      // driving input.
      if (out_ve == vs) {
        // Not currently in the output TDB: (re)emit it.  vs >= max_stable_
        // holds because reconciliation at the previous stable point pinned
        // older nodes to the then-driver.
        LM_DCHECK(vs >= max_stable_);
        EmitInsert(it.key().payload, vs, in_ve);
      } else if (in_ve == vs) {
        // In the output TDB but absent from the driving input: retract.
        LM_DCHECK(out_ve >= max_stable_);
        EmitAdjust(it.key().payload, vs, out_ve, vs);
      } else {
        LM_DCHECK(out_ve >= max_stable_);
        EmitAdjust(it.key().payload, vs, out_ve, in_ve);
      }
      if (out_ptr != nullptr) {
        *out_ptr = in_ve;
      } else {
        ends.Insert(kOutputStream, in_ve);
      }
    }

    if (in_ve < t) {
      // Fully frozen under the new stable point: the output now matches the
      // reference stream for this key forever; drop the node.
      it = index_.FirstActionableFrom(index_.DeleteNode(it), t);
    } else {
      // Repairing raised the node's views; re-sync its frontier (this also
      // self-heals frontiers left stale-low by RemoveStream).
      RefreshNode(it);
      it = index_.NextActionable(it, t);
    }
  }

  max_stable_ = t;
  EmitStable(t);
}

void LMergeR3::SaveState(Encoder* encoder) const {
  encoder->WriteTimeDelta(max_stable_, 0);
  encoder->WriteVarU64(last_stable_.size());
  for (const Timestamp t : last_stable_) {
    encoder->WriteTimeDelta(t, max_stable_);
  }
  encoder->WriteVarU64(static_cast<uint64_t>(index_.node_count()));
  // Nodes in index (Vs) order: each Vs is a delta from the previous node's,
  // each Ve a delta from the previous Ve of the same node (starting at its
  // Vs), so entries that agree cost a byte.  Stream ids are written + 1,
  // which maps kOutputStream to 0.
  Timestamp prev_vs = 0;
  for (auto it = index_.begin(); it != index_.end(); ++it) {
    const Timestamp vs = it.key().vs;
    encoder->WriteTimeDelta(vs, prev_vs);
    prev_vs = vs;
    encoder->WriteRowRef(it.key().payload);
    encoder->WriteVarU64(static_cast<uint64_t>(it.value().size()));
    Timestamp prev_ve = vs;
    it.value().ForEach([encoder, &prev_ve](int32_t stream, Timestamp ve) {
      encoder->WriteVarU64(static_cast<uint64_t>(stream + 1));
      encoder->WriteTimeDelta(ve, prev_ve);
      prev_ve = ve;
    });
  }
}

Status LMergeR3::RestoreState(Decoder* decoder) {
  Status status = decoder->ReadTimeDelta(0, &max_stable_);
  if (!status.ok()) return status;
  uint32_t stream_count_saved = 0;
  if (!(status = ReadCheckpointStreamCount(decoder, &stream_count_saved))
           .ok()) {
    return status;
  }
  last_stable_.assign(stream_count_saved, kMinTimestamp);
  for (uint32_t s = 0; s < stream_count_saved; ++s) {
    if (!(status = decoder->ReadTimeDelta(max_stable_, &last_stable_[s]))
             .ok()) {
      return status;
    }
  }
  // Grow the stream registry to match the snapshot; streams this instance
  // already had beyond it start with no stable point.
  while (stream_count() < static_cast<int>(stream_count_saved)) {
    MergeAlgorithm::AddStream();
  }
  last_stable_.resize(static_cast<size_t>(stream_count()), kMinTimestamp);
  index_ = In2t();
  uint32_t node_count = 0;
  // A node takes at least a Vs delta, a row reference and an entry count.
  if (!(status = decoder->ReadCount(3, &node_count)).ok()) return status;
  Timestamp vs = 0;
  for (uint32_t n = 0; n < node_count; ++n) {
    Row payload;
    if (!(status = decoder->ReadTimeDelta(vs, &vs)).ok()) return status;
    if (!(status = decoder->ReadRowRef(&payload)).ok()) return status;
    if (index_.SameVsPayload(vs, payload) != index_.end()) {
      return Status::InvalidArgument("checkpoint repeats an index node");
    }
    In2t::Iterator node = index_.AddNode(vs, payload);
    uint32_t entries = 0;
    // An entry takes at least a stream id and a Ve delta.
    if (!(status = decoder->ReadCount(2, &entries)).ok()) return status;
    Timestamp ve = vs;
    for (uint32_t e = 0; e < entries; ++e) {
      int32_t stream = 0;
      if (!(status = ReadCheckpointEntryStream(decoder, stream_count_saved,
                                               &stream))
               .ok()) {
        return status;
      }
      if (!(status = decoder->ReadTimeDelta(ve, &ve)).ok()) return status;
      node.value().Insert(stream, ve);
    }
  }
  // Rebuild the incremental byte counters and scan frontiers.
  for (auto it = index_.begin(); it != index_.end(); ++it) {
    index_.SyncTableBytes(it);
  }
  index_.RecomputeFrontiers(
      [this](const VsPayload& key, In2t::EndTable& ends) {
        return NodeFrontier(key, ends);
      });
  return Status::Ok();
}

}  // namespace lmerge
