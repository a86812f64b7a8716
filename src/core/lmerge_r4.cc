#include "core/lmerge_r4.h"

#include <string>
#include <vector>

namespace lmerge {

Timestamp LMergeR4::NodeFrontier(const VsPayload& key,
                                 In3t::EndsTable& ends) const {
  const VeMultiset* out = ends.Find(kOutputStream);
  const bool out_empty = out == nullptr || out->empty();
  bool divergent = false;
  int present = 0;
  ends.ForEach([&](int32_t s, const VeMultiset& mine) {
    if (s == kOutputStream) return;
    if (s >= stream_count() || !stream_active(s)) return;
    ++present;
    if (!divergent && (out == nullptr ? !mine.empty() : !mine.Equals(*out))) {
      divergent = true;
    }
  });
  // Active streams with no entry hold the empty multiset.
  if (present < active_stream_count() && !out_empty) divergent = true;
  if (divergent) return key.vs;
  // Uniform: no reconciliation is possible until the common largest end
  // time is about to freeze (which is also when the node becomes deletable).
  return out == nullptr ? key.vs : out->MaxVe(key.vs);
}

void LMergeR4::RefreshNode(In3t::Iterator node) {
  index_.SyncAuxBytes(node);
  index_.SetFrontier(node, NodeFrontier(node.key(), node.value()));
}

Status LMergeR4::ApplyInsert(int stream, const StreamElement& element,
                             In3t::Iterator* node_io) {
  if (element.ve() < element.vs()) {
    return Status::InvalidArgument("insert with Ve < Vs: " +
                                   element.ToString());
  }
  if (element.ve() == element.vs()) return Status::Ok();  // empty lifetime
  In3t::Iterator node = *node_io;
  if (node == index_.end()) {
    if (element.vs() < max_stable_) {
      CountDrop();
      return Status::Ok();
    }
    node = index_.AddNode(element.vs(), element.payload());
    *node_io = node;
  }
  In3t::EndsTable& ends = node.value();
  // Materialize both entries before taking references: an insert that grows
  // the spill array moves the spilled entries, so interleaving Insert with
  // held references would dangle.
  ends.Insert(stream, VeMultiset());
  ends.Insert(kOutputStream, VeMultiset());
  VeMultiset* mine = ends.Find(stream);
  VeMultiset* out = ends.Find(kOutputStream);
  mine->Increment(element.ve());
  // Emit only while the key is unfrozen on the output and only when this
  // stream has now presented more events for the key than the output holds —
  // the output never holds more events per key than the richest input.
  if (element.vs() >= max_stable_ && mine->total() > out->total()) {
    EmitInsert(element.payload(), element.vs(), element.ve());
    out->Increment(element.ve());
  } else {
    CountDrop();
  }
  return Status::Ok();
}

Status LMergeR4::ApplyAdjust(int stream, const StreamElement& element,
                             In3t::Iterator* node_io) {
  if (element.ve() < element.vs()) {
    return Status::InvalidArgument("adjust with Ve < Vs: " +
                                   element.ToString());
  }
  In3t::Iterator node = *node_io;
  if (node == index_.end()) {
    CountDrop();
    return Status::Ok();
  }
  VeMultiset* mine_ptr = node.value().Find(stream);
  if (mine_ptr == nullptr) {
    ++inconsistencies_;
    CountDrop();
    return Status::Ok();
  }
  VeMultiset& mine = *mine_ptr;
  if (!mine.Decrement(element.v_old())) {
    // Adjust of an end time this stream never presented: tolerate (the
    // element may target an event dropped during a lagging catch-up).
    ++inconsistencies_;
    CountDrop();
    return Status::Ok();
  }
  if (element.ve() > element.vs()) {
    mine.Increment(element.ve());
  }
  // Output reconciliation is lazy (stable() time); see ReconcileNode.
  return Status::Ok();
}

Status LMergeR4::OnInsert(int stream, const StreamElement& element) {
  CountIndexProbe();
  In3t::Iterator node = index_.SameVsPayload(element.vs(), element.payload());
  const Status status = ApplyInsert(stream, element, &node);
  if (node != index_.end()) RefreshNode(node);
  return status;
}

Status LMergeR4::OnAdjust(int stream, const StreamElement& element) {
  CountIndexProbe();
  In3t::Iterator node = index_.SameVsPayload(element.vs(), element.payload());
  const Status status = ApplyAdjust(stream, element, &node);
  if (node != index_.end()) RefreshNode(node);
  return status;
}

Status LMergeR4::ProcessBatch(int stream,
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
    CountIndexProbe();
    In3t::Iterator node = index_.SameVsPayload(head.vs(), head.payload());
    Status status = Status::Ok();
    size_t j = i;
    for (; j < batch.size(); ++j) {
      const StreamElement& e = batch[j];
      if (e.is_stable() || e.vs() != head.vs() ||
          !(e.payload() == head.payload())) {
        break;
      }
      CountIn(stream, e);
      status = e.is_insert() ? ApplyInsert(stream, e, &node)
                             : ApplyAdjust(stream, e, &node);
      if (!status.ok()) break;
    }
    if (node != index_.end()) RefreshNode(node);
    if (!status.ok()) return status;
    i = j;
  }
  return Status::Ok();
}

Status LMergeR4::ValidateElement(const StreamElement& element) const {
  if (element.is_stable()) return Status::Ok();
  if (element.ve() < element.vs()) {
    return Status::InvalidArgument(
        (element.is_insert() ? std::string("insert with Ve < Vs: ")
                             : std::string("adjust with Ve < Vs: ")) +
        element.ToString());
  }
  return Status::Ok();
}

Status LMergeR4::AdoptOutputView(int stream) {
  LM_DCHECK(stream >= 0 && stream < stream_count());
  // The adopting stream continues the snapshot's output: it holds a copy of
  // the output's Ve multiset at every node.  Nodes with no (or an empty)
  // output entry stay empty for the stream too.
  for (auto it = index_.begin(); it != index_.end(); ++it) {
    In3t::EndsTable& ends = it.value();
    const VeMultiset* out = ends.Find(kOutputStream);
    if (out != nullptr && !out->empty()) {
      VeMultiset copy;
      out->ForEach([&copy](Timestamp ve, int64_t count) {
        copy.Increment(ve, count);
      });
      // Insert may move a spilled `out`; the copy is built before it runs.
      ends.Insert(stream, std::move(copy));
    }
    RefreshNode(it);
  }
  return Status::Ok();
}

int LMergeR4::AddStream() {
  const int id = MergeAlgorithm::AddStream();
  // The joiner holds the empty multiset everywhere: every node whose output
  // is non-empty becomes divergent (frontier Vs) until the stream catches
  // up.
  index_.RecomputeFrontiers(
      [this](const VsPayload& key, In3t::EndsTable& ends) {
        return NodeFrontier(key, ends);
      });
  return id;
}

void LMergeR4::ReconcileNode(In3t::Iterator it, int stream, Timestamp t) {
  const Timestamp vs = it.key().vs;
  const Row& payload = it.key().payload;
  In3t::EndsTable& ends = it.value();
  // Materialize the output entry first; Insert may move spilled entries, so
  // the input pointer is looked up afterwards.
  ends.Insert(kOutputStream, VeMultiset());
  const VeMultiset* in_ptr = ends.Find(stream);
  VeMultiset& out = *ends.Find(kOutputStream);

  // Collect the diffs between the driving input's end-time multiset and the
  // output's, restricted to the adjustable region Ve >= max_stable_.
  // (End times below max_stable_ are fully frozen on the output and — for
  // mutually consistent inputs — already match every stream.)
  // Entries whose end time the incoming stable(t) is about to freeze are
  // "mandatory": compatibility requires fixing them now.  The rest are
  // optional and only reconciled under the exact-match policy.
  std::vector<std::pair<Timestamp, int64_t>> need;    // input has more
  std::vector<std::pair<Timestamp, int64_t>> excess;  // output has more
  auto classify = [this, &need, &excess](Timestamp ve, int64_t diff) {
    if (ve < max_stable_ || diff == 0) return;
    if (diff > 0) {
      need.emplace_back(ve, diff);
    } else {
      excess.emplace_back(ve, -diff);
    }
  };
  // Merge-walk the two ordered multisets.
  std::vector<std::pair<Timestamp, int64_t>> in_list;
  std::vector<std::pair<Timestamp, int64_t>> out_list;
  if (in_ptr != nullptr) {
    in_ptr->ForEach([&in_list](Timestamp ve, int64_t count) {
      in_list.emplace_back(ve, count);
    });
  }
  out.ForEach([&out_list](Timestamp ve, int64_t count) {
    out_list.emplace_back(ve, count);
  });
  size_t i = 0;
  size_t j = 0;
  while (i < in_list.size() || j < out_list.size()) {
    if (j >= out_list.size() ||
        (i < in_list.size() && in_list[i].first < out_list[j].first)) {
      classify(in_list[i].first, in_list[i].second);
      ++i;
    } else if (i >= in_list.size() || out_list[j].first < in_list[i].first) {
      classify(out_list[j].first, -out_list[j].second);
      ++j;
    } else {
      classify(in_list[i].first, in_list[i].second - out_list[j].second);
      ++i;
      ++j;
    }
  }

  // Under count-only reconciliation, process mandatory (about-to-freeze)
  // entries first and stop once only optional work remains.  Both lists are
  // built in ascending Ve order, so entries with Ve < t lead naturally.
  const bool exact = policy_.r4_exact_match;
  // Pair excess output end times with needed ones via adjust() elements.
  size_t ei = 0;
  size_t ni = 0;
  while (ei < excess.size() && ni < need.size()) {
    if (!exact && vs < max_stable_ && excess[ei].first >= t &&
        need[ni].first >= t) {
      break;  // neither side is being frozen: defer (less chatty)
    }
    const int64_t n = std::min(excess[ei].second, need[ni].second);
    for (int64_t k = 0; k < n; ++k) {
      EmitAdjust(payload, vs, excess[ei].first, need[ni].first);
      out.Decrement(excess[ei].first);
      out.Increment(need[ni].first);
    }
    excess[ei].second -= n;
    need[ni].second -= n;
    if (excess[ei].second == 0) ++ei;
    if (need[ni].second == 0) ++ni;
  }
  // Leftover needs: the input holds more events than the output.  New
  // inserts are only legal while the key is unfrozen on the output; for an
  // already half-frozen key, a deferred optional divergence (Ve >= t on an
  // old node under count-only policy) is fine — it stays adjustable.
  for (; ni < need.size(); ++ni) {
    for (int64_t k = 0; k < need[ni].second; ++k) {
      if (vs >= max_stable_) {
        EmitInsert(payload, vs, need[ni].first);
        out.Increment(need[ni].first);
      } else if (exact || need[ni].first < t) {
        ++inconsistencies_;
      }
    }
  }
  // Leftover excess: the output holds events the input lacks.  Retraction
  // (adjust to an empty lifetime) is only legal while the key is unfrozen.
  for (; ei < excess.size(); ++ei) {
    for (int64_t k = 0; k < excess[ei].second; ++k) {
      if (vs >= max_stable_) {
        EmitAdjust(payload, vs, excess[ei].first, vs);
        out.Decrement(excess[ei].first);
      } else if (exact || excess[ei].first < t) {
        ++inconsistencies_;
      }
    }
  }
}

void LMergeR4::OnStable(int stream, Timestamp t) {
  if (policy_.stable_lag > 0 && t != kInfinity) {
    t = t > kMinTimestamp + policy_.stable_lag ? t - policy_.stable_lag
                                               : kMinTimestamp;
  }
  if (t <= max_stable_) return;

  // Frontier-pruned scan: a skipped node (frontier >= t) is uniform across
  // the output and every active stream with common MaxVe >= t, so
  // ReconcileNode would emit nothing and the delete test below would fail —
  // the walk's output is byte-identical to scanning the whole Vs < t range.
  In3t::Iterator it = index_.FirstActionable(t);
  while (it != index_.end()) {
    LM_DCHECK(it.key().vs < t);
    ReconcileNode(it, stream, t);
    const VeMultiset* in_ptr = it.value().Find(stream);
    const Timestamp max_ve =
        in_ptr == nullptr ? it.key().vs : in_ptr->MaxVe(it.key().vs);
    if (max_ve < t) {
      // Every event for this key is fully frozen; the output matches the
      // reference stream for it forever.
      it = index_.FirstActionableFrom(index_.DeleteNode(it), t);
    } else {
      RefreshNode(it);
      it = index_.NextActionable(it, t);
    }
  }

  max_stable_ = t;
  EmitStable(t);
}

void LMergeR4::SaveState(Encoder* encoder) const {
  encoder->WriteTimeDelta(max_stable_, 0);
  encoder->WriteVarI64(inconsistencies_);
  encoder->WriteVarU64(static_cast<uint64_t>(stream_count()));
  encoder->WriteVarU64(static_cast<uint64_t>(index_.node_count()));
  // The LMergeR3 layout with a multiset per entry: its distinct-Ve count,
  // then each (Ve delta from the previous Ve of the node, multiplicity).
  Timestamp prev_vs = 0;
  for (auto it = index_.begin(); it != index_.end(); ++it) {
    const Timestamp vs = it.key().vs;
    encoder->WriteTimeDelta(vs, prev_vs);
    prev_vs = vs;
    encoder->WriteRowRef(it.key().payload);
    encoder->WriteVarU64(static_cast<uint64_t>(it.value().size()));
    Timestamp prev_ve = vs;
    it.value().ForEach([encoder, &prev_ve](int32_t stream,
                                           const VeMultiset& ends) {
      encoder->WriteVarU64(static_cast<uint64_t>(stream + 1));
      uint64_t distinct = 0;
      ends.ForEach([&distinct](Timestamp, int64_t) { ++distinct; });
      encoder->WriteVarU64(distinct);
      ends.ForEach([encoder, &prev_ve](Timestamp ve, int64_t count) {
        encoder->WriteTimeDelta(ve, prev_ve);
        prev_ve = ve;
        encoder->WriteVarU64(static_cast<uint64_t>(count));
      });
    });
  }
}

Status LMergeR4::RestoreState(Decoder* decoder) {
  Status status = decoder->ReadTimeDelta(0, &max_stable_);
  if (!status.ok()) return status;
  if (!(status = decoder->ReadVarI64(&inconsistencies_)).ok()) return status;
  uint32_t stream_count_saved = 0;
  if (!(status = ReadCheckpointStreamCount(decoder, &stream_count_saved))
           .ok()) {
    return status;
  }
  while (stream_count() < static_cast<int>(stream_count_saved)) {
    MergeAlgorithm::AddStream();
  }
  index_ = In3t();
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
    In3t::Iterator node = index_.AddNode(vs, payload);
    uint32_t entries = 0;
    // An entry takes at least a stream id and a distinct-Ve count.
    if (!(status = decoder->ReadCount(2, &entries)).ok()) return status;
    Timestamp ve = vs;
    for (uint32_t e = 0; e < entries; ++e) {
      int32_t stream = 0;
      uint32_t distinct = 0;
      if (!(status = ReadCheckpointEntryStream(decoder, stream_count_saved,
                                               &stream))
               .ok()) {
        return status;
      }
      // A distinct Ve takes at least its delta and its multiplicity.
      if (!(status = decoder->ReadCount(2, &distinct)).ok()) return status;
      VeMultiset ends;
      for (uint32_t d = 0; d < distinct; ++d) {
        uint64_t count = 0;
        if (!(status = decoder->ReadTimeDelta(ve, &ve)).ok()) return status;
        if (!(status = decoder->ReadVarU64(&count)).ok()) return status;
        // Zero, and anything past INT64_MAX, would not be a positive count.
        if (static_cast<int64_t>(count) <= 0) {
          return Status::InvalidArgument("non-positive multiset count");
        }
        ends.Increment(ve, static_cast<int64_t>(count));
      }
      node.value().Insert(stream, std::move(ends));
    }
  }
  // Rebuild the incremental byte counters and scan frontiers.
  for (auto it = index_.begin(); it != index_.end(); ++it) {
    index_.SyncAuxBytes(it);
  }
  index_.RecomputeFrontiers(
      [this](const VsPayload& key, In3t::EndsTable& ends) {
        return NodeFrontier(key, ends);
      });
  return Status::Ok();
}

}  // namespace lmerge
